//! Determinism fixture (pass): the same shape as `fire.rs`, written
//! with deterministic primitives. Must produce zero diagnostics.

use std::collections::BTreeMap;
use std::time::Duration;

pub fn pass(key: u64, seed: u64) -> usize {
    let mut slots: BTreeMap<u64, u64> = BTreeMap::new();
    slots.insert(key, 1);
    // An enum variant named `Instant` must not be confused with
    // std::time::Instant.
    let delivery = Delivery::Instant;
    let mut r = StdRng::seed_from_u64(seed);
    let _ = (delivery, r, Duration::from_millis(1));
    slots.len()
}
