//! The result cache: a [`ByteLru`] of encoded query answers.
//!
//! Keys are `(series name, series version, canonical query key)` — the
//! query key embeds [`valmod_core::ValmodConfig::cache_key`], so two
//! requests that differ only in execution knobs (thread count, unreduced
//! exclusion fractions) share an entry, while anything result-affecting
//! (length range, `p`, exclusion policy, top-k…) splits them. Versioned
//! keys make stale hits structurally impossible; on top of that, appends
//! *actively purge* a series' old entries so a hot store can't pin dead
//! results in the budget until eviction reaches them.

use std::sync::Arc;

use crate::lru::{ByteLru, Weigh};
use crate::value::Value;

/// Cache key: series identity + data version + canonical query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Series name.
    pub series: String,
    /// Series version the result was computed against.
    pub version: u64,
    /// Canonical query description (kind, parameters, config cache key).
    pub query: String,
}

/// Every key component is charged, the fixed-width `version` included.
impl Weigh for CacheKey {
    fn weigh(&self) -> usize {
        self.series.len() + std::mem::size_of_val(&self.version) + self.query.len()
    }
}

/// An answer charges its encoded length.
impl Weigh for Arc<Value> {
    fn weigh(&self) -> usize {
        self.encode().len()
    }
}

/// The LRU result cache, bounded by approximate bytes (0 disables it).
pub type ResultCache = ByteLru<CacheKey, Arc<Value>>;

impl ResultCache {
    /// Drops every entry for `series`, any version (append/replace path),
    /// counting each as invalidated.
    pub fn invalidate_series(&mut self, series: &str) {
        self.retain(|key, _| key.series != series);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(series: &str, version: u64, query: &str) -> CacheKey {
        CacheKey { series: series.into(), version, query: query.into() }
    }

    fn payload(n: usize) -> Arc<Value> {
        Arc::new(Value::Arr(vec![Value::Num(1.0); n]))
    }

    fn entry_bytes(key: &CacheKey, value: &Arc<Value>) -> usize {
        key.weigh() + value.weigh()
    }

    #[test]
    fn hit_miss_and_versioning() {
        let mut cache = ResultCache::new(10_000);
        assert!(cache.get(&key("a", 1, "q")).is_none());
        cache.insert(key("a", 1, "q"), payload(4));
        assert!(cache.get(&key("a", 1, "q")).is_some());
        // A different version or query is a different entry.
        assert!(cache.get(&key("a", 2, "q")).is_none());
        assert!(cache.get(&key("a", 1, "q2")).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 3));
    }

    #[test]
    fn lru_eviction_respects_recency_and_budget() {
        // Budget sized for two payloads; inserting a third evicts the LRU.
        let one = entry_bytes(&key("a", 1, "q1"), &payload(8));
        let mut cache = ResultCache::new(2 * one + 4);
        cache.insert(key("a", 1, "q1"), payload(8));
        cache.insert(key("a", 1, "q2"), payload(8));
        assert!(cache.get(&key("a", 1, "q1")).is_some()); // refresh q1
        cache.insert(key("a", 1, "q3"), payload(8));
        assert!(cache.get(&key("a", 1, "q2")).is_none(), "q2 was LRU");
        assert!(cache.get(&key("a", 1, "q1")).is_some());
        assert!(cache.get(&key("a", 1, "q3")).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.used_bytes() <= cache.budget_bytes());
    }

    #[test]
    fn oversized_results_are_skipped_and_drop_their_predecessor() {
        let mut cache = ResultCache::new(64);
        cache.insert(key("a", 1, "q"), payload(1000));
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
        cache.insert(key("a", 1, "q"), payload(1));
        assert_eq!(cache.len(), 1);
        cache.insert(key("a", 1, "q"), payload(1000));
        assert!(cache.is_empty(), "a refused answer must not leave its predecessor behind");
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_without_double_accounting() {
        let mut cache = ResultCache::new(10_000);
        cache.insert(key("a", 1, "q"), payload(8));
        let used = cache.used_bytes();
        cache.insert(key("a", 1, "q"), payload(8));
        assert_eq!(cache.used_bytes(), used);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn invalidate_series_purges_all_versions() {
        let mut cache = ResultCache::new(10_000);
        cache.insert(key("a", 1, "q1"), payload(2));
        cache.insert(key("a", 2, "q1"), payload(2));
        cache.insert(key("b", 1, "q1"), payload(2));
        cache.invalidate_series("a");
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key("b", 1, "q1")).is_some());
        assert_eq!(cache.stats().invalidated, 2);
        assert_eq!(cache.used_bytes(), entry_bytes(&key("b", 1, "q1"), &payload(2)));
    }

    #[test]
    fn zero_budget_disables_caching() {
        let mut cache = ResultCache::new(0);
        cache.insert(key("a", 1, "q"), payload(1));
        assert!(cache.get(&key("a", 1, "q")).is_none());
    }

    #[test]
    fn entry_bytes_counts_every_key_component() {
        let k = key("ab", 7, "qqq");
        let v = payload(3);
        // series (2) + version (8) + query (3) + encoded value.
        assert_eq!(entry_bytes(&k, &v), 2 + 8 + 3 + v.encode().len());
        let mut cache = ResultCache::new(10_000);
        cache.insert(k, Arc::clone(&v));
        assert_eq!(cache.used_bytes(), 2 + 8 + 3 + v.encode().len());
    }
}
