//! Bounded, bandwidth-limited FIFO link queues for the reactor.
//!
//! Every directed overlay edge `u → v` gets one `Link`: a FIFO of
//! messages waiting for the wire plus the service state of the message
//! currently being transmitted. Bandwidth is modeled in bytes per tick —
//! a message of `wire_size()` bytes occupies the link for
//! `ceil(bytes / bytes_per_tick)` ticks once it reaches the head, and
//! everything behind it queues. The queue is bounded: a message that does
//! not fit is dropped and counted, per link in [`LinkStats::dropped_full`]
//! and over all links in [`NetStats::dropped_backpressure`].
//!
//! [`NetStats::dropped_backpressure`]: crate::NetStats::dropped_backpressure

#![expect(
    clippy::expect_used,
    reason = "audited invariant expect()s: each site's message states the precondition that makes it unreachable"
)]

use std::collections::VecDeque;

/// A message sitting in (or at the head of) a link queue.
#[derive(Debug, Clone)]
struct InFlight<M> {
    msg: M,
    /// Wire size, for byte accounting at delivery.
    bytes: usize,
    /// Bytes still to transmit (`max(bytes, 1)` initially, so zero-byte
    /// messages still occupy the wire for one service round).
    remaining: u64,
    /// Tick the message entered the queue.
    enqueued_at: u64,
    /// Tick its transmission started (first tick it received budget), if
    /// it has.
    started_at: Option<u64>,
}

/// A delivery completed by [`Link::service`] during one tick. Per-message
/// queueing delay is folded into [`LinkStats::queue_delay_ticks`] and also
/// carried out per message (`waited`) so the transport layer can record a
/// full delay distribution, not just the sum.
#[derive(Debug)]
pub(crate) struct Completed<M> {
    /// The transported message.
    pub msg: M,
    /// Ticks this message waited in the queue before its transmission
    /// started.
    pub waited: u64,
}

/// Cumulative statistics of one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// High-water queue depth, in messages (the in-service head counts).
    pub max_depth: u64,
    /// Total ticks delivered messages waited before transmission started.
    pub queue_delay_ticks: u64,
    /// Messages fully transmitted.
    pub delivered: u64,
    /// Bytes fully transmitted.
    pub bytes: u64,
    /// Messages rejected because the queue was full.
    pub dropped_full: u64,
}

/// One directed bounded FIFO link.
#[derive(Debug)]
pub(crate) struct Link<M> {
    queue: VecDeque<InFlight<M>>,
    capacity: usize,
    stats: LinkStats,
}

impl<M> Link<M> {
    pub(crate) fn new(capacity: usize) -> Self {
        Link {
            queue: VecDeque::new(),
            capacity,
            stats: LinkStats::default(),
        }
    }

    /// Current queue depth in messages.
    pub(crate) fn depth(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    pub(crate) fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Enqueues a message, or rejects it when the queue is full.
    ///
    /// Returns whether the message was accepted.
    pub(crate) fn enqueue(&mut self, msg: M, bytes: usize, tick: u64) -> bool {
        if self.queue.len() >= self.capacity {
            self.stats.dropped_full += 1;
            return false;
        }
        self.queue.push_back(InFlight {
            msg,
            bytes,
            remaining: (bytes as u64).max(1),
            enqueued_at: tick,
            started_at: None,
        });
        self.stats.max_depth = self.stats.max_depth.max(self.queue.len() as u64);
        true
    }

    /// Spends one tick's byte budget on the queue head(s); messages whose
    /// transmission completes are appended to `out`.
    ///
    /// Unused budget flows to the next queued message within the same
    /// tick, so a fast link can finish several small messages per tick;
    /// budget does not accumulate across ticks (an idle link has nothing
    /// to spend it on).
    pub(crate) fn service(&mut self, bytes_per_tick: u64, tick: u64, out: &mut Vec<Completed<M>>) {
        let mut budget = bytes_per_tick;
        while budget > 0 {
            let Some(head) = self.queue.front_mut() else {
                break;
            };
            let started = *head.started_at.get_or_insert(tick);
            if head.remaining > budget {
                head.remaining -= budget;
                break;
            }
            budget -= head.remaining;
            let head = self.queue.pop_front().expect("front_mut saw it");
            let waited = started - head.enqueued_at;
            self.stats.delivered += 1;
            self.stats.bytes += head.bytes as u64;
            self.stats.queue_delay_ticks += waited;
            out.push(Completed {
                msg: head.msg,
                waited,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(link: &mut Link<u32>, bpt: u64, tick: u64) -> Vec<Completed<u32>> {
        let mut out = Vec::new();
        link.service(bpt, tick, &mut out);
        out
    }

    #[test]
    fn message_takes_ceil_bytes_over_bandwidth_ticks() {
        let mut link: Link<u32> = Link::new(8);
        assert!(link.enqueue(7, 250, 0));
        // 100 B/tick: 250 bytes need ticks 0, 1 and 2.
        assert!(drain(&mut link, 100, 0).is_empty());
        assert!(drain(&mut link, 100, 1).is_empty());
        let done = drain(&mut link, 100, 2);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].msg, 7);
        assert_eq!(link.stats().bytes, 250);
        assert_eq!(link.stats().queue_delay_ticks, 0);
        assert!(link.is_empty());
    }

    #[test]
    fn leftover_budget_flows_to_next_message() {
        let mut link: Link<u32> = Link::new(8);
        for m in 0..3 {
            assert!(link.enqueue(m, 30, 0));
        }
        // 100 B/tick covers three 30-byte messages in one tick.
        let done = drain(&mut link, 100, 0);
        assert_eq!(
            done.iter().map(|c| c.msg).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn queue_wait_measures_time_to_head() {
        let mut link: Link<u32> = Link::new(8);
        assert!(link.enqueue(0, 100, 0));
        assert!(link.enqueue(1, 100, 0));
        let first = drain(&mut link, 100, 0);
        assert_eq!(first.len(), 1);
        assert_eq!(link.stats().queue_delay_ticks, 0);
        let second = drain(&mut link, 100, 1);
        // Message 1 waited one tick behind message 0.
        assert_eq!(second.len(), 1);
        assert_eq!(link.stats().queue_delay_ticks, 1);
        assert_eq!(link.stats().max_depth, 2);
    }

    #[test]
    fn full_queue_rejects() {
        let mut link: Link<u32> = Link::new(2);
        assert!(link.enqueue(0, 10, 0));
        assert!(link.enqueue(1, 10, 0));
        assert!(!link.enqueue(2, 10, 0));
        assert_eq!(link.stats().dropped_full, 1);
        assert_eq!(link.depth(), 2);
    }

    #[test]
    fn zero_byte_messages_still_occupy_the_wire() {
        let mut link: Link<u32> = Link::new(4);
        assert!(link.enqueue(0, 0, 0));
        let done = drain(&mut link, 1, 0);
        assert_eq!(done.len(), 1);
        assert_eq!(link.stats().bytes, 0);
    }
}
