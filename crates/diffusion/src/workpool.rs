//! Deterministic work batching over scoped OS threads.
//!
//! The multi-source push driver ([`crate::push::diffuse_sparse`]) is
//! embarrassingly parallel across sources, but its output must be
//! *bit-for-bit identical* regardless of the worker count — the experiment
//! harness and the property tests rely on engine determinism. This module
//! provides the one primitive that makes that easy: an order-preserving
//! parallel map. Each item is processed by a pure function on some worker
//! (round-robin sharding), results are
//! reassembled by item index on the calling thread, and nothing about the
//! scheduling can leak into the output.
//!
//! Built on `std::thread::scope` — no extra dependencies, workers may
//! borrow from the caller's stack.

#![expect(
    clippy::expect_used,
    reason = "worker thread join: a panicked worker already lost the computation; propagating the panic is the only sound option"
)]
#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

/// Maps `f` over `items` on up to `threads` scoped worker threads,
/// returning outputs in item order.
///
/// Determinism contract: `f` is applied to each item exactly once and the
/// result vector is ordered by item index, so as long as `f` itself is a
/// pure function of its argument the output is independent of `threads`.
///
/// `threads` is clamped to `1..=items.len()`; with one worker (or one
/// item) everything runs inline on the calling thread with no spawn
/// overhead.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
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
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let mut slots: Vec<Option<O>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let f = &f;
            handles.push(scope.spawn(move || {
                // Round-robin sharding: worker w takes items w, w+T, w+2T, …
                let mut out = Vec::new();
                let mut i = worker;
                while i < items.len() {
                    out.push((i, f(&items[i])));
                    i += threads;
                }
                out
            }));
        }
        for handle in handles {
            // Re-raise worker panics with their original payload.
            let results = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, value) in results {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item index is assigned to exactly one worker"))
        .collect()
}

/// Maps `f` over `items` in place on up to `threads` scoped worker
/// threads, returning the per-item outputs in item order.
///
/// The mutable sibling of [`map_batched`], for stages whose items carry
/// their own mutable state (per-node handlers, RNGs, output buffers).
/// Sharding is by contiguous chunk (`chunks_mut` hands each worker a
/// disjoint subslice), so no synchronization is needed and the borrow
/// checker proves the items disjoint.
///
/// Determinism contract: `f` runs on each item exactly once and only ever
/// sees that item, so as long as `f(&mut item)` is a pure function of the
/// item's own state, both the mutations and the returned vector are
/// independent of `threads` — chunk boundaries move with the worker count,
/// but no item can observe them.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
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
    let mut outputs: Vec<(usize, Vec<O>)> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (index, chunk) in items.chunks_mut(chunk_size).enumerate() {
            let f = &f;
            handles.push(scope.spawn(move || (index, chunk.iter_mut().map(f).collect())));
        }
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    outputs.sort_by_key(|&(index, _)| index);
    outputs.into_iter().flat_map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
