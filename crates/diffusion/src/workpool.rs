//! Deterministic work batching over scoped OS threads.
//!
//! The multi-source push driver ([`crate::push::diffuse_rows`]) is
//! embarrassingly parallel across sources, but its output must be
//! *bit-for-bit identical* regardless of the worker count — the experiment
//! harness and the property tests rely on engine determinism. This module
//! provides the one primitive that makes that easy: an order-preserving
//! parallel map. Each item is processed by a pure function on some worker,
//! results are reassembled by item index, and nothing about the scheduling
//! can leak into the output.
//!
//! The calling thread is worker 0: a call with `T` workers spawns `T − 1`
//! threads and runs worker 0's share itself while they run theirs, so a
//! two-worker call pays for one spawn and join, not two.
//!
//! Built on `std::thread::scope` — no extra dependencies, workers may
//! borrow from the caller's stack. The scope joins every spawned worker
//! before a panic leaves it, the caller's own or a worker's, and the
//! panic keeps its payload.

#![expect(
    clippy::expect_used,
    reason = "worker thread join: a panicked worker already lost the computation; propagating the panic is the only sound option"
)]
#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

/// Maps `f` over `items` on up to `threads` workers, the calling thread
/// and `threads − 1` scoped threads, returning outputs in item order.
///
/// Determinism contract: `f` is applied to each item exactly once and the
/// result vector is ordered by item index, so as long as `f` itself is a
/// pure function of its argument the output is independent of `threads`.
///
/// `threads` is clamped to `1..=items.len()`. Worker `w` takes items `w`,
/// `w + T`, `w + 2T`, … (round robin); worker 0 is the calling thread, so
/// with one worker (or one item) nothing is spawned.
///
/// # Panics
///
/// Propagates a panic from `f` with its original payload, after every
/// spawned worker has finished.
///
/// # Example
///
/// ```
/// use gdsearch_diffusion::workpool;
///
/// let squares = workpool::map_batched(&[1u64, 2, 3, 4], 2, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn map_batched<I, O, F>(items: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    // Round-robin sharding: worker w takes items w, w+T, w+2T, …
    let share =
        |worker: usize| -> Vec<O> { items.iter().skip(worker).step_by(threads).map(&f).collect() };
    if threads == 1 {
        return share(0);
    }
    let shares: Vec<Vec<O>> = std::thread::scope(|scope| {
        let share = &share;
        let handles: Vec<_> = (1..threads)
            .map(|worker| scope.spawn(move || share(worker)))
            .collect();
        let mut shares = vec![share(0)];
        for handle in handles {
            // Re-raise worker panics with their original payload.
            shares.push(
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        shares
    });
    // Item i is the next output of worker i mod T.
    let mut shares: Vec<_> = shares.into_iter().map(Vec::into_iter).collect();
    (0..items.len())
        .map(|i| {
            shares[i % threads]
                .next()
                .expect("worker i mod T holds item i")
        })
        .collect()
}

/// Maps `f` over `items` in place on up to `threads` workers, the calling
/// thread and `threads − 1` scoped threads, returning the per-item outputs
/// in item order.
///
/// The mutable sibling of [`map_batched`], for stages whose items carry
/// their own mutable state (per-shard residuals, output chunks).
/// Sharding is by contiguous chunk (`chunks_mut` hands each worker a
/// disjoint subslice; the calling thread takes chunk 0), so no
/// synchronization is needed and the borrow checker proves the items
/// disjoint.
///
/// Determinism contract: `f` runs on each item exactly once and only ever
/// sees that item, so as long as `f(&mut item)` is a pure function of the
/// item's own state, both the mutations and the returned vector are
/// independent of `threads` — chunk boundaries move with the worker count,
/// but no item can observe them.
///
/// # Panics
///
/// Propagates a panic from `f` with its original payload, after every
/// spawned worker has finished.
///
/// # Example
///
/// ```
/// use gdsearch_diffusion::workpool;
///
/// let mut items = [1u64, 2, 3, 4];
/// let old = workpool::map_batched_mut(&mut items, 2, |x| {
///     let before = *x;
///     *x *= 10;
///     before
/// });
/// assert_eq!(items, [10, 20, 30, 40]);
/// assert_eq!(old, vec![1, 2, 3, 4]);
/// ```
pub fn map_batched_mut<I, O, F>(items: &mut [I], threads: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(&mut I) -> O + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter_mut().map(f).collect();
    }
    let chunk_size = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let mut chunks = items.chunks_mut(chunk_size);
        let first = chunks.next().unwrap_or_default();
        let handles: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || chunk.iter_mut().map(f).collect::<Vec<O>>()))
            .collect();
        let mut outputs: Vec<O> = first.iter_mut().map(f).collect();
        for handle in handles {
            // Re-raise worker panics with their original payload.
            outputs.extend(
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        outputs
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn preserves_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 3, 7, 16] {
            let out = map_batched(&items, threads, |&x| x * 10);
            assert_eq!(out, (0..100).map(|x| x * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn output_is_identical_across_thread_counts() {
        // Float accumulation inside f is per-item, so outputs must match
        // bitwise whatever the worker count.
        let items: Vec<f32> = (0..57).map(|i| i as f32 * 0.37).collect();
        let reference = map_batched(&items, 1, |&x| (x.sin() + 1.0) / (x.cos() + 2.0));
        for threads in [2, 4, 8] {
            let out = map_batched(&items, threads, |&x| (x.sin() + 1.0) / (x.cos() + 2.0));
            assert_eq!(out, reference);
        }
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_batched(&empty, 4, |&x| x).is_empty());
        assert_eq!(map_batched(&[41u32], 4, |&x| x + 1), vec![42]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = map_batched(&[1u32, 2, 3], 64, |&x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn workers_can_borrow_caller_state() {
        let offset = 100u32;
        let out = map_batched(&[1u32, 2, 3], 2, |&x| x + offset);
        assert_eq!(out, vec![101, 102, 103]);
    }

    #[test]
    fn mut_map_mutates_and_orders_outputs() {
        for threads in [1, 2, 3, 7, 16] {
            let mut items: Vec<u64> = (0..53).collect();
            let out = map_batched_mut(&mut items, threads, |x| {
                *x += 1;
                *x * 2
            });
            assert_eq!(items, (1..=53).collect::<Vec<_>>());
            assert_eq!(out, (1..=53).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn mut_map_handles_empty_and_excess_threads() {
        let mut empty: Vec<u32> = Vec::new();
        assert!(map_batched_mut(&mut empty, 4, |x| *x).is_empty());
        let mut one = [9u32];
        assert_eq!(map_batched_mut(&mut one, 64, |x| *x + 1), vec![10]);
    }

    #[test]
    fn mut_map_items_see_only_themselves() {
        // Per-item accumulator state must come out identical for every
        // thread count (the reactor's determinism rests on this).
        let reference: Vec<(f32, f32)> = {
            let mut items: Vec<f32> = (0..41).map(|i| i as f32 * 0.61).collect();
            let out = map_batched_mut(&mut items, 1, |x| {
                *x = x.sin() * 3.0;
                *x
            });
            items.into_iter().zip(out).collect()
        };
        for threads in [2, 4, 8] {
            let mut items: Vec<f32> = (0..41).map(|i| i as f32 * 0.61).collect();
            let out = map_batched_mut(&mut items, threads, |x| {
                *x = x.sin() * 3.0;
                *x
            });
            let got: Vec<(f32, f32)> = items.into_iter().zip(out).collect();
            assert_eq!(got, reference);
        }
    }

    #[test]
    fn the_caller_runs_worker_zeros_share() {
        let caller = std::thread::current().id();
        let ids = map_batched(&[0usize, 1, 2, 3, 4], 2, |_| std::thread::current().id());
        let on_caller: Vec<bool> = ids.iter().map(|&id| id == caller).collect();
        assert_eq!(on_caller, [true, false, true, false, true]);
        let mut items = [0usize; 5];
        let ids = map_batched_mut(&mut items, 2, |_| std::thread::current().id());
        let on_caller: Vec<bool> = ids.iter().map(|&id| id == caller).collect();
        assert_eq!(on_caller, [true, true, true, false, false]);
    }

    /// A panic payload only the item that raised it could have made.
    #[derive(Debug, PartialEq)]
    struct Boom(usize);

    /// Runs `map` over items 0 and 1 on two workers (item 0 on the calling
    /// thread, item 1 on the spawned one). Item `bad` takes the only sender
    /// of a channel and panics with `Boom(bad)`; the other item waits on
    /// the receiver, which wakes only once that unwind drops the sender,
    /// and then counts itself. Returns the payload that reached the caller
    /// and the count read the moment it did.
    fn panic_reaching_the_caller(bad: usize, map: fn(&(dyn Fn(usize) + Sync))) -> (Boom, usize) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{mpsc, Mutex};
        let (sender, receiver) = mpsc::channel::<()>();
        let (sender, receiver) = (Mutex::new(Some(sender)), Mutex::new(receiver));
        let finished = AtomicUsize::new(0);
        let item = |i: usize| {
            if i == bad {
                let _sender = sender.lock().unwrap().take();
                std::panic::panic_any(Boom(i));
            }
            let wait = receiver
                .lock()
                .unwrap()
                .recv_timeout(Duration::from_secs(30));
            if wait == Err(mpsc::RecvTimeoutError::Disconnected) {
                finished.fetch_add(1, Ordering::SeqCst);
            }
        };
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| map(&item)))
            .expect_err("the panicking item must reach the caller");
        let boom = *payload.downcast::<Boom>().expect("the original payload");
        (boom, finished.load(Ordering::SeqCst))
    }

    #[test]
    fn panics_reach_the_caller_with_their_payload_after_the_join() {
        let shared: fn(&(dyn Fn(usize) + Sync)) = |item| {
            map_batched(&[0usize, 1], 2, |&i| item(i));
        };
        let chunked: fn(&(dyn Fn(usize) + Sync)) = |item| {
            map_batched_mut(&mut [0usize, 1], 2, |i| item(*i));
        };
        for (name, map) in [("map_batched", shared), ("map_batched_mut", chunked)] {
            // The caller's own share panics: the spawned worker must have
            // run to the end before the panic left the call.
            assert_eq!(panic_reaching_the_caller(0, map), (Boom(0), 1), "{name}");
            // A spawned share panics: the caller finishes its own first.
            assert_eq!(panic_reaching_the_caller(1, map), (Boom(1), 1), "{name}");
        }
    }
}
