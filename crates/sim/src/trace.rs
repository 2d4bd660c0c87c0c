//! Bounded event traces for debugging and test assertions.

use std::collections::VecDeque;

use gdsearch_graph::NodeId;

use crate::SimTime;

/// What happened to a message at the transport layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Handed to the transport.
    Sent,
    /// Delivered to the destination handler.
    Delivered,
    /// Dropped by random loss.
    Lost,
    /// Dropped because an endpoint was down.
    DroppedDown,
    /// Dropped because the bounded link queue was full.
    DroppedFull,
    /// Dropped because no link exists to the destination.
    DroppedNoRoute,
}

/// One transport-layer trace record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// What happened.
    pub kind: TraceKind,
    /// Sending node (`None` for external injections).
    pub from: Option<NodeId>,
    /// Destination node.
    pub to: NodeId,
    /// Wire size of the message in bytes.
    pub bytes: usize,
}

/// Fixed-capacity ring buffer of [`TraceEvent`]s: keeps the most recent
/// `capacity` records, dropping the oldest. Capacity 0 disables tracing at
/// zero cost.
///
/// # Example
///
/// ```
/// use gdsearch_graph::NodeId;
/// use gdsearch_sim::trace::{Trace, TraceEvent, TraceKind};
/// use gdsearch_sim::SimTime;
///
/// let mut trace = Trace::new(2);
/// for i in 0..3 {
///     trace.record(TraceEvent {
///         time: SimTime::ZERO,
///         kind: TraceKind::Sent,
///         from: None,
///         to: NodeId::new(i),
///         bytes: 8,
///     });
/// }
/// // Oldest record evicted.
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.iter().next().unwrap().to, NodeId::new(1));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    capacity: usize,
    events: VecDeque<TraceEvent>,
}

impl Trace {
    /// Creates a trace retaining at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Trace {
            capacity,
            events: VecDeque::with_capacity(capacity.min(1024)),
        }
    }

    /// Appends a record, evicting the oldest when full. No-op at capacity
    /// 0.
    pub fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained records of the given kind.
    pub fn count(&self, kind: TraceKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(to: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            time: SimTime::ZERO,
            kind,
            from: None,
            to: NodeId::new(to),
            bytes: 4,
        }
    }

    #[test]
    fn capacity_zero_disables() {
        let mut t = Trace::new(0);
        t.record(ev(0, TraceKind::Sent));
        assert!(t.is_empty());
    }

    #[test]
    fn eviction_keeps_most_recent() {
        let mut t = Trace::new(3);
        for i in 0..5 {
            t.record(ev(i, TraceKind::Sent));
        }
        let ids: Vec<u32> = t.iter().map(|e| e.to.as_u32()).collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn count_by_kind() {
        let mut t = Trace::new(10);
        t.record(ev(0, TraceKind::Sent));
        t.record(ev(1, TraceKind::Delivered));
        t.record(ev(2, TraceKind::Sent));
        assert_eq!(t.count(TraceKind::Sent), 2);
        assert_eq!(t.count(TraceKind::Delivered), 1);
        assert_eq!(t.count(TraceKind::Lost), 0);
    }
}
