//! Node churn (failure injection) schedules.
//!
//! P2P populations are never stable; the paper defers "time-evolving
//! conditions" to future work, but the simulator supports them so the
//! search scheme can be stress-tested: messages to a down node are dropped,
//! and handlers of down nodes do not run.

#![expect(
    clippy::expect_used,
    reason = "SimTime::new on values sampled inside the validated finite horizon"
)]

use gdsearch_graph::NodeId;
use rand::Rng;

use crate::{SimError, SimTime};

/// Whether a churn event takes a node down or brings it back up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// Node leaves the network.
    Down,
    /// Node rejoins the network.
    Up,
}

/// One scheduled availability change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEvent {
    /// When the change happens.
    pub time: SimTime,
    /// The affected node.
    pub node: NodeId,
    /// Down or up.
    pub kind: ChurnKind,
}

/// A time-sorted list of churn events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// The empty schedule (no churn).
    pub fn none() -> Self {
        ChurnSchedule::default()
    }

    /// Builds a schedule from events, sorting them by time.
    pub fn from_events(mut events: Vec<ChurnEvent>) -> Self {
        events.sort_by_key(|a| a.time);
        ChurnSchedule { events }
    }

    /// Generates random fail/recover cycles: each node independently fails
    /// with probability `fail_probability`; a failed node goes down at a
    /// uniform time in `[0, horizon)` and recovers `downtime` seconds later
    /// (if that is before the horizon).
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
                    time: SimTime::new(down_at).expect("in range"),
                    node: NodeId::new(u),
                    kind: ChurnKind::Down,
                });
                let up_at = down_at + downtime;
                if up_at < horizon {
                    events.push(ChurnEvent {
                        time: SimTime::new(up_at).expect("in range"),
                        node: NodeId::new(u),
                        kind: ChurnKind::Up,
                    });
                }
            }
        }
        Ok(ChurnSchedule::from_events(events))
    }

    /// The events, sorted by time.
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
                time: SimTime::new(2.0).unwrap(),
                node: NodeId::new(0),
                kind: ChurnKind::Up,
            },
            ChurnEvent {
                time: SimTime::new(1.0).unwrap(),
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
            assert!(w[0].time <= w[1].time);
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
