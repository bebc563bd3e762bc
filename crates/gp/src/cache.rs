//! Tree caching (§III-D): memoise fitness by canonical tree identity.
//!
//! "We cache the results of tree evaluation, and reuse them when we need to
//! reevaluate the same trees. … GMR improves the hit rate by algebraically
//! simplifying the trees before they are evaluated." The cache key is the
//! combined structural hash of the *simplified* lowered system, so
//! semantically identical revisions (`x + 0`, commuted operands, folded
//! numerics) share one entry.
//!
//! The map is one `HashMap` with the identity hash (keys are already
//! 128-bit mixes), owned by the engine's coordinating thread: an evaluation
//! round looks every key up before the pool runs and records every result
//! after it, so no worker ever touches the cache and its contents never
//! depend on the thread count. At those round boundaries the map is cut
//! back to its budget incrementally — short-circuited (surrogate) entries
//! first, then half the remainder — rather than cleared wholesale, so an
//! eviction wave does not discard the hot fully-evaluated entries that
//! elitism and replication keep hitting. Fitness caching tolerates loss,
//! never staleness (keys are pure functions of the phenotype).

use gmr_expr::TreeKey;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Identity hasher for pre-mixed 128-bit keys.
#[derive(Default)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Only u64 writes are expected; fold anything else cheaply.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
    }
}

/// A cached evaluation: fitness and whether it came from a full evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedFitness {
    /// The recorded fitness.
    pub fitness: f64,
    /// Whether it was a full (non-short-circuited) evaluation.
    pub full: bool,
}

/// Hit rate in `[0, 1]` of `hits` among `hits + misses` lookups (0 when
/// there were none).
pub(crate) fn hit_rate(hits: u64, misses: u64) -> f64 {
    let (h, m) = (hits as f64, misses as f64);
    if h + m == 0.0 {
        0.0
    } else {
        h / (h + m)
    }
}

/// The fitness cache.
pub struct TreeCache {
    map: HashMap<(u64, u64), CachedFitness, BuildHasherDefault<IdentityHasher>>,
    capacity: usize,
}

impl TreeCache {
    /// Create with a total entry budget.
    pub fn new(capacity: usize) -> Self {
        TreeCache {
            map: HashMap::default(),
            capacity: capacity.max(1),
        }
    }

    /// Combine the per-equation keys of a lowered system into one cache key.
    pub fn system_key(keys: &[TreeKey]) -> (u64, u64) {
        let mut a = 0x243f_6a88_85a3_08d3u64;
        let mut b = 0x1319_8a2e_0370_7344u64;
        for k in keys {
            a = (a.rotate_left(13) ^ k.0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            b = (b.rotate_left(29) ^ k.1).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        }
        (a, b)
    }

    /// Look up a fitness.
    pub fn get(&self, key: (u64, u64)) -> Option<CachedFitness> {
        self.map.get(&key).copied()
    }

    /// Record a fitness. May leave the map over budget until the next
    /// [`Self::evict_to_budget`].
    pub fn insert(&mut self, key: (u64, u64), value: CachedFitness) {
        self.map.insert(key, value);
    }

    /// Cut an over-budget map back to its budget without discarding its hot
    /// set: drop short-circuited (surrogate) entries first — they are cheap
    /// to recompute and their fitness is approximate anyway — and only if
    /// that leaves the map still over budget thin the survivors by half,
    /// as often as it takes.
    pub fn evict_to_budget(&mut self) {
        if self.map.len() <= self.capacity {
            return;
        }
        let before = self.map.len();
        self.map.retain(|_, v| v.full);
        let after_surrogates = self.map.len();
        while self.map.len() > self.capacity {
            let mut i = 0usize;
            self.map.retain(|_, _| {
                i += 1;
                i.is_multiple_of(2)
            });
        }
        if gmr_obsv::enabled() {
            gmr_obsv::emit(gmr_obsv::Event::CacheEvict {
                shed_surrogate: (before - after_surrogates) as u64,
                shed_full: (after_surrogates - self.map.len()) as u64,
                len_after: self.map.len() as u64,
            });
        }
    }

    /// Total entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_expr::{BinOp, Expr};

    fn key_of(e: &Expr) -> (u64, u64) {
        TreeCache::system_key(&[e.structural_hash()])
    }

    /// A key whose identity hash is `i` (real keys are 128-bit mixes; a
    /// pair `(i, i)` would hash to 0 for every `i`).
    fn k(i: u64) -> (u64, u64) {
        (i, 0)
    }

    fn full(fitness: f64) -> CachedFitness {
        CachedFitness {
            fitness,
            full: true,
        }
    }

    #[test]
    fn round_trip() {
        let mut cache = TreeCache::new(1024);
        let e = Expr::bin(BinOp::Add, Expr::Var(0), Expr::Num(1.0));
        let key = key_of(&e);
        assert!(cache.get(key).is_none());
        cache.insert(key, full(3.5));
        assert_eq!(cache.get(key), Some(full(3.5)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_trees_different_entries() {
        let mut cache = TreeCache::new(1024);
        let a = Expr::Var(0);
        let b = Expr::Var(1);
        cache.insert(key_of(&a), full(1.0));
        cache.insert(key_of(&b), full(2.0));
        assert_eq!(cache.get(key_of(&a)).unwrap().fitness, 1.0);
        assert_eq!(cache.get(key_of(&b)).unwrap().fitness, 2.0);
    }

    #[test]
    fn eviction_keeps_cache_bounded() {
        let mut cache = TreeCache::new(256);
        for i in 0..10_000u64 {
            cache.insert(k(i), full(i as f64));
            if i % 97 == 0 {
                cache.evict_to_budget();
                assert!(cache.len() <= 256, "len {}", cache.len());
            }
        }
        cache.evict_to_budget();
        assert!(cache.len() <= 256, "len {}", cache.len());
    }

    #[test]
    fn eviction_sheds_surrogates_before_full_entries() {
        // Fill with full entries to just under the budget, pad with
        // short-circuited surrogates past it: the surrogates must go
        // first; every full entry stays.
        let cap = 16;
        let mut cache = TreeCache::new(cap);
        let full_keys: Vec<(u64, u64)> = (0..10).map(k).collect();
        for (n, &key) in full_keys.iter().enumerate() {
            cache.insert(key, full(n as f64));
        }
        for i in 10..cap as u64 + 1 {
            cache.insert(
                k(i),
                CachedFitness {
                    fitness: 999.0,
                    full: false,
                },
            );
        }
        cache.evict_to_budget();
        assert_eq!(cache.len(), full_keys.len());
        for (n, &key) in full_keys.iter().enumerate() {
            assert_eq!(
                cache.get(key).map(|v| v.fitness),
                Some(n as f64),
                "full entry {n} must survive the eviction wave"
            );
        }
    }

    #[test]
    fn eviction_wave_keeps_roughly_half_the_hot_set() {
        // All-full entries overflowing the budget: a clear-everything
        // policy would leave ~0 survivors after each wave; the halving
        // policy must keep the map at least half-populated.
        let cap = 64;
        let mut cache = TreeCache::new(cap);
        for i in 0..(cap as u64 * 3) {
            cache.insert(k(i), full(i as f64));
            cache.evict_to_budget();
        }
        let survivors = cache.len();
        assert!(
            survivors >= cap / 2,
            "eviction should halve, not clear: {survivors} left"
        );
        // Hit rate over the most recent budget-worth of keys survives the
        // wave (clearing would drop the whole working set at once, zeroing
        // the post-wave hit rate).
        let hits = (cap as u64 * 2..cap as u64 * 3)
            .filter(|&i| cache.get(k(i)).is_some())
            .count();
        assert!(
            hits >= cap / 4,
            "recent keys should largely survive: {hits}/{cap}"
        );
    }

    #[test]
    fn system_key_order_sensitive() {
        let a = Expr::Var(0).structural_hash();
        let b = Expr::Var(1).structural_hash();
        assert_ne!(
            TreeCache::system_key(&[a, b]),
            TreeCache::system_key(&[b, a])
        );
    }

    #[test]
    fn hit_rate_accounting() {
        assert_eq!(hit_rate(0, 0), 0.0);
        assert!((hit_rate(2, 1) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(hit_rate(0, 5), 0.0);
        assert_eq!(hit_rate(5, 0), 1.0);
    }
}
