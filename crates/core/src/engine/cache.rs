//! Deterministic hot-column cache for the serving engine.
//!
//! The cache maps a query to its [`LazyColumn`]: a directory of 1 KB pages
//! of cells, empty when inserted and filled by the walks that read it,
//! each cell through the one scoring kernel. A miss therefore costs the
//! directory (≈ 6 KB at N = 10⁵) — neither a scan of all N embeddings nor
//! N cells — and a resident column holds 1 KB per page its walks touched
//! and saves exactly the dot products earlier walks of the query already
//! paid for.
//!
//! That cross-request reuse is all the cache is worth: a walk without a
//! cached column memoizes its scores in a column of its own, so it never
//! rescores a node either. Ten alternating 12 s pairs of the default 256
//! columns against a capacity of 0 (N = 10⁵, dim 64, seed 41, one worker;
//! medians of requests/s, quartiles in brackets): serve-hot 36.7k
//! [35.2–38.8k] vs 31.7k [30.0–32.6k], serve-batch 38.0k [34.8–39.7k] vs
//! 31.8k [29.4–33.9k] — repeated queries reuse their cells — but serve-cold
//! 30.7k [29.7–31.6k] vs 33.4k [32.2–33.9k], where ≈ 88 % of requests miss
//! and every insert evicts.
//!
//! A cell's value is a pure function of (query, embeddings, node), so
//! cache capacity, eviction order, lookup interleaving, and *which walk
//! fills which cell* can only change the counters reported by
//! [`CacheStats`] — never the scores a walk observes. That is the
//! load-bearing determinism argument for the engine, and it needs every
//! reader of a column to carry the same query: the cache is keyed by the
//! query's bits ([`f32::to_bits`] per component), so only bitwise-equal
//! queries share a column — `0.0` and `-0.0` get one each, a NaN matches
//! itself — and no two different queries can share a key.
//!
//! Entries are kept sorted by those bits, so a lookup is a binary search
//! that allocates nothing. Eviction is least-recently-used by a sequence
//! number that every lookup and insert advances, so no two entries share
//! one and the victim is a deterministic function of the operation
//! history (no hashing, no wall-clock, no randomness).

use std::cmp::Ordering;
use std::sync::Arc;

use gdsearch_embed::Embedding;

use crate::forwarding::LazyColumn;

/// Counters describing cache behaviour since construction. Monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a resident column.
    pub hits: u64,
    /// Lookups that found no resident column for the query's bits.
    pub misses: u64,
    /// Columns inserted.
    pub inserts: u64,
    /// Columns evicted to respect the capacity bound.
    pub evictions: u64,
    /// Columns removed by `invalidate_all`.
    pub invalidations: u64,
}

/// The cache's key order: two queries compared component by component by
/// bit pattern. `Equal` means bitwise equal, so `-0.0 != 0.0` and a NaN
/// equals itself.
pub(super) fn cmp_bits(a: &Embedding, b: &Embedding) -> Ordering {
    fn bits(e: &Embedding) -> impl Iterator<Item = u32> + '_ {
        e.as_slice().iter().map(|x| x.to_bits())
    }
    bits(a).cmp(bits(b))
}

#[derive(Debug)]
struct Entry {
    /// The query `column` is filled for, and the entry's key.
    query: Embedding,
    column: Arc<LazyColumn>,
    last_used: u64,
}

/// A capacity-bounded, deterministically evicting score-column cache.
#[derive(Debug)]
pub(crate) struct ColumnCache {
    /// Sorted by [`cmp_bits`] of their queries, one entry per bit pattern.
    entries: Vec<Entry>,
    /// Most columns held; 0 never stores one.
    capacity: usize,
    seq: u64,
    stats: CacheStats,
}

impl ColumnCache {
    /// Creates an empty cache holding at most `capacity` columns.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::new(),
            capacity,
            seq: 0,
            stats: CacheStats::default(),
        }
    }

    /// Where `query`'s entry is, or where it would go.
    fn find(&self, query: &Embedding) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|entry| cmp_bits(&entry.query, query))
    }

    /// Looks up the column of `query`, bumping its recency on a hit.
    pub fn get(&mut self, query: &Embedding) -> Option<Arc<LazyColumn>> {
        self.seq = self.seq.saturating_add(1);
        let Some(entry) = self
            .find(query)
            .ok()
            .and_then(|at| self.entries.get_mut(at))
        else {
            self.stats.misses = self.stats.misses.saturating_add(1);
            return None;
        };
        entry.last_used = self.seq;
        self.stats.hits = self.stats.hits.saturating_add(1);
        Some(Arc::clone(&entry.column))
    }

    /// Inserts (or replaces) the column of `query`, evicting the
    /// least-recently-used entry first if the capacity bound requires it.
    pub fn insert(&mut self, query: Embedding, column: Arc<LazyColumn>) {
        if self.capacity == 0 {
            return;
        }
        self.seq = self.seq.saturating_add(1);
        let entry = Entry {
            query,
            column,
            last_used: self.seq,
        };
        match self.find(&entry.query) {
            Ok(at) => {
                if let Some(resident) = self.entries.get_mut(at) {
                    *resident = entry;
                }
            }
            Err(mut at) => {
                // Make room only when adding a new query.
                if self.entries.len() >= self.capacity {
                    let victim = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, entry)| entry.last_used)
                        .map(|(index, _)| index);
                    if let Some(victim) = victim {
                        self.entries.remove(victim);
                        self.stats.evictions = self.stats.evictions.saturating_add(1);
                        if victim < at {
                            at -= 1;
                        }
                    }
                }
                self.entries.insert(at, entry);
            }
        }
        self.stats.inserts = self.stats.inserts.saturating_add(1);
    }

    /// Drops every resident column.
    pub fn invalidate_all(&mut self) {
        let dropped = self.entries.len();
        self.entries.clear();
        self.stats.invalidations = self
            .stats
            .invalidations
            .saturating_add(u64::try_from(dropped).unwrap_or(u64::MAX));
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The query of test key `k`: distinct keys, distinct bits.
    fn query(k: u32) -> Embedding {
        Embedding::new(vec![k as f32, -2.0])
    }

    fn col() -> Arc<LazyColumn> {
        Arc::new(LazyColumn::new(1))
    }

    fn insert(cache: &mut ColumnCache, k: u32) -> Arc<LazyColumn> {
        let column = col();
        cache.insert(query(k), Arc::clone(&column));
        column
    }

    fn resident(cache: &mut ColumnCache, k: u32) -> bool {
        cache.get(&query(k)).is_some()
    }

    /// Asserts that `query` hits and serves exactly `column`.
    fn assert_hits(cache: &mut ColumnCache, query: &Embedding, column: &Arc<LazyColumn>) {
        match cache.get(query) {
            Some(got) => assert!(Arc::ptr_eq(&got, column)),
            None => panic!("expected a hit for {query:?}"),
        }
    }

    #[test]
    fn hit_returns_the_inserted_column() {
        let mut cache = ColumnCache::new(2);
        assert!(cache.get(&query(7)).is_none());
        let inserted = insert(&mut cache, 7);
        // A separately allocated embedding with the same bits is the key.
        assert_hits(&mut cache, &query(7), &inserted);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));

        // 0.0 == -0.0, but their bits differ: one entry each.
        let mut zeros = ColumnCache::new(usize::MAX);
        let (pos, neg) = (
            Embedding::new(vec![1.0, 0.0]),
            Embedding::new(vec![1.0, -0.0]),
        );
        assert!(zeros.get(&pos).is_none());
        let (pos_column, neg_column) = (col(), col());
        zeros.insert(pos.clone(), Arc::clone(&pos_column));
        assert!(zeros.get(&neg).is_none());
        zeros.insert(neg.clone(), Arc::clone(&neg_column));
        assert_hits(&mut zeros, &pos, &pos_column);
        assert_hits(&mut zeros, &neg, &neg_column);
        assert_eq!(zeros.entries.len(), 2);
        let stats = zeros.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (2, 2, 2));
    }

    #[test]
    fn nan_embedding_hits_its_own_column() {
        // Bitwise comparison: a NaN component equals itself, so a NaN
        // query finds its own entry.
        let nan = Embedding::new(vec![f32::NAN, 1.0]);
        let mut cache = ColumnCache::new(usize::MAX);
        cache.insert(nan.clone(), col());
        assert!(cache.get(&nan).is_some());
    }

    #[test]
    fn lru_eviction_is_deterministic() {
        let mut cache = ColumnCache::new(2);
        insert(&mut cache, 1);
        insert(&mut cache, 2);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(resident(&mut cache, 1));
        insert(&mut cache, 3);
        assert!(!resident(&mut cache, 2), "LRU entry should be evicted");
        assert!(resident(&mut cache, 1));
        assert!(resident(&mut cache, 3));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.entries.len(), 2);
    }

    #[test]
    fn eviction_follows_recency_not_key_order() {
        let mut cache = ColumnCache::new(2);
        insert(&mut cache, 9);
        insert(&mut cache, 5);
        // 9 is older, so it is the victim, though 5 sorts first.
        insert(&mut cache, 1);
        assert!(!resident(&mut cache, 9));
        assert!(resident(&mut cache, 5));
        assert!(resident(&mut cache, 1));
    }

    #[test]
    fn zero_capacity_and_disabled_never_store() {
        let mut cache = ColumnCache::new(0);
        insert(&mut cache, 1);
        assert!(cache.get(&query(1)).is_none());
        assert!(cache.entries.is_empty());
        assert_eq!(cache.stats().inserts, 0);
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut cache = ColumnCache::new(usize::MAX);
        for k in (0..64).map(|k| k * 37 % 64) {
            insert(&mut cache, k);
        }
        assert_eq!(cache.entries.len(), 64);
        assert_eq!(cache.stats().evictions, 0);
        // Inserted out of order, the entries stay sorted by bits.
        assert!(cache
            .entries
            .windows(2)
            .all(|pair| cmp_bits(&pair[0].query, &pair[1].query).is_lt()));
    }

    #[test]
    fn invalidate_all_drops_every_column() {
        let mut cache = ColumnCache::new(usize::MAX);
        insert(&mut cache, 1);
        insert(&mut cache, 2);
        cache.invalidate_all();
        assert!(cache.entries.is_empty());
        assert!(!resident(&mut cache, 1));
        assert!(!resident(&mut cache, 2));
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn reinserting_a_resident_class_does_not_evict_peers() {
        let mut cache = ColumnCache::new(2);
        insert(&mut cache, 1);
        insert(&mut cache, 2);
        let replacement = insert(&mut cache, 1);
        assert_eq!(cache.stats().evictions, 0);
        assert_hits(&mut cache, &query(1), &replacement);
        assert!(resident(&mut cache, 2));
    }
}
