//! Node churn (failure injection) schedules.
//!
//! P2P populations are never stable; the paper defers "time-evolving
//! conditions" to future work, but the simulator supports them so the
//! search scheme can be stress-tested: messages to a down node are dropped,
//! and handlers of down nodes do not run.

#![expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "ceil of a time drawn in the validated finite horizon [0, horizon) is a non-negative whole number"
)]

use gdsearch_graph::NodeId;
use rand::Rng;

use crate::SimError;

/// Whether a churn event takes a node down or brings it back up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// Node leaves the network.
    Down,
    /// Node rejoins the network.
    Up,
}

/// One scheduled availability change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// The reactor tick whose step applies the change, before that
    /// tick's handlers run.
    pub tick: u64,
    /// The affected node.
    pub node: NodeId,
    /// Down or up.
    pub kind: ChurnKind,
}

/// A tick-sorted list of churn events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// The empty schedule (no churn).
    pub fn none() -> Self {
        ChurnSchedule::default()
    }

    /// Builds a schedule from events, sorting them by tick (a stable
    /// sort: events of one tick keep their given order).
    pub fn from_events(mut events: Vec<ChurnEvent>) -> Self {
        events.sort_by_key(|a| a.tick);
        ChurnSchedule { events }
    }

    /// Generates random fail/recover cycles: each node independently fails
    /// with probability `fail_probability`; a failed node goes down at a
    /// uniform time `t` in `[0, horizon)` and recovers at `t + downtime`
    /// (if that is before the horizon). Times are in ticks; an event drawn
    /// at time `t` is stamped with tick `⌈t⌉`, the first tick not before
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for probabilities outside
    /// `[0, 1]` or non-positive horizon/downtime.
    pub fn random_failures<R: Rng + ?Sized>(
        num_nodes: u32,
        fail_probability: f64,
        horizon: f64,
        downtime: f64,
        rng: &mut R,
    ) -> Result<Self, SimError> {
        if !(0.0..=1.0).contains(&fail_probability) || fail_probability.is_nan() {
            return Err(SimError::invalid_parameter(
                "fail_probability must lie in [0, 1]",
            ));
        }
        if !horizon.is_finite() || horizon <= 0.0 || !downtime.is_finite() || downtime <= 0.0 {
            return Err(SimError::invalid_parameter(
                "horizon and downtime must be positive and finite",
            ));
        }
        let mut events = Vec::new();
        for u in 0..num_nodes {
            if rng.random_bool(fail_probability) {
                let down_at = rng.random_range(0.0..horizon);
                events.push(ChurnEvent {
                    tick: down_at.ceil() as u64,
                    node: NodeId::new(u),
                    kind: ChurnKind::Down,
                });
                let up_at = down_at + downtime;
                if up_at < horizon {
                    events.push(ChurnEvent {
                        tick: up_at.ceil() as u64,
                        node: NodeId::new(u),
                        kind: ChurnKind::Up,
                    });
                }
            }
        }
        Ok(ChurnSchedule::from_events(events))
    }

    /// The events, sorted by tick.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_events_sorts() {
        let s = ChurnSchedule::from_events(vec![
            ChurnEvent {
                tick: 2,
                node: NodeId::new(0),
                kind: ChurnKind::Up,
            },
            ChurnEvent {
                tick: 1,
                node: NodeId::new(0),
                kind: ChurnKind::Down,
            },
        ]);
        assert_eq!(s.events()[0].kind, ChurnKind::Down);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn random_failures_are_paired_and_ordered() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = ChurnSchedule::random_failures(100, 0.3, 10.0, 1.0, &mut rng).unwrap();
        assert!(!s.is_empty());
        for w in s.events().windows(2) {
            assert!(w[0].tick <= w[1].tick);
        }
        // Each down within horizon - downtime has a matching up.
        let downs = s
            .events()
            .iter()
            .filter(|e| e.kind == ChurnKind::Down)
            .count();
        let ups = s
            .events()
            .iter()
            .filter(|e| e.kind == ChurnKind::Up)
            .count();
        assert!(ups <= downs);
        assert!(downs <= 100);
    }

    #[test]
    fn random_failures_stamp_each_draw_with_its_ceiling_tick() {
        let (n, p, horizon, downtime) = (200, 0.4, 25.0, 3.5);
        let mut rng = StdRng::seed_from_u64(8);
        let mut replay = rng.clone();
        let s = ChurnSchedule::random_failures(n, p, horizon, downtime, &mut rng).unwrap();
        let mut expected = Vec::new();
        for u in 0..n {
            if replay.random_bool(p) {
                let down_at: f64 = replay.random_range(0.0..horizon);
                expected.push((down_at.ceil() as u64, NodeId::new(u), ChurnKind::Down));
                if down_at + downtime < horizon {
                    let up_at = (down_at + downtime).ceil() as u64;
                    expected.push((up_at, NodeId::new(u), ChurnKind::Up));
                }
            }
        }
        // The schedule is sorted by tick, and stably: a node's down still
        // precedes its up.
        expected.sort_by_key(|e| e.0);
        let got: Vec<_> = s
            .events()
            .iter()
            .map(|e| (e.tick, e.node, e.kind))
            .collect();
        assert!(expected.iter().any(|e| e.2 == ChurnKind::Up));
        assert_eq!(got, expected);
        assert_eq!(rng.random::<u64>(), replay.random::<u64>());
    }

    #[test]
    fn zero_probability_is_empty() {
        let mut rng = StdRng::seed_from_u64(6);
        let s = ChurnSchedule::random_failures(50, 0.0, 10.0, 1.0, &mut rng).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn validation() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(ChurnSchedule::random_failures(10, -0.1, 10.0, 1.0, &mut rng).is_err());
        assert!(ChurnSchedule::random_failures(10, 0.5, 0.0, 1.0, &mut rng).is_err());
        assert!(ChurnSchedule::random_failures(10, 0.5, 10.0, -1.0, &mut rng).is_err());
    }
}
