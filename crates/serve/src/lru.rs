//! The one byte-budgeted LRU under both serve caches: the result cache
//! ([`crate::cache::ResultCache`]) and the planner's fragment cache
//! ([`crate::fragment::FragmentCache`]), whose fragments and parked states
//! share one `ByteLru` and so compete under one clock.
//!
//! A zero budget disables the cache; an entry or batch larger than the
//! whole budget is refused, evicts nothing, and drops any old entry under
//! its keys. Every touch takes its own tick, so the eviction order is a
//! pure function of the operation sequence, never of hash-map iteration
//! order. The eviction scan is `O(entries)`; a stripe holds tens of entries.

use std::collections::HashMap;
use std::hash::Hash;

/// Bytes a key or value charges against a [`ByteLru`] budget.
pub trait Weigh {
    /// Approximate footprint in bytes.
    fn weigh(&self) -> usize;
}

/// Accounting and counters of one [`ByteLru`]; stripes sum with `+=`.
#[derive(Debug, Default, Clone, Copy)]
pub struct LruStats {
    /// Live entries.
    pub entries: usize,
    /// Bytes currently charged against the budget.
    pub used_bytes: usize,
    /// The configured byte budget.
    pub budget_bytes: usize,
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to stay within the budget.
    pub evictions: u64,
    /// Entries dropped as stale by [`ByteLru::retain`].
    pub invalidated: u64,
}

impl std::ops::AddAssign for LruStats {
    fn add_assign(&mut self, o: LruStats) {
        self.entries += o.entries;
        self.used_bytes += o.used_bytes;
        self.budget_bytes += o.budget_bytes;
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
        self.invalidated += o.invalidated;
    }
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    bytes: usize,
    last_used: u64,
}

/// A least-recently-used map bounded by approximate bytes.
#[derive(Debug)]
pub struct ByteLru<K, V> {
    budget: usize,
    used: usize,
    tick: u64,
    map: HashMap<K, Slot<V>>,
    counters: LruStats,
}

impl<K: Eq + Hash + Clone + Weigh, V: Weigh> ByteLru<K, V> {
    /// An empty LRU bounded by `budget` bytes (0 disables it).
    pub fn new(budget: usize) -> Self {
        ByteLru { budget, used: 0, tick: 0, map: HashMap::new(), counters: LruStats::default() }
    }

    /// Looks up `key`: a hit refreshes its recency and counts a hit, an
    /// absent key counts a miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let Some(slot) = self.map.get_mut(key) else {
            self.counters.misses += 1;
            return None;
        };
        self.tick += 1;
        slot.last_used = self.tick;
        self.counters.hits += 1;
        Some(&slot.value)
    }

    /// Whether `key` is live; neither counts nor touches.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// [`ByteLru::insert_all`] of one entry.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.insert_all(vec![(key, value)])
    }

    /// Inserts a batch that is only useful whole, replacing the old entries
    /// under its keys: admitted whole if its bytes (`key.weigh() +
    /// value.weigh()` per entry) fit the budget, evicting older entries as
    /// needed, else refused without evicting anything. Returns whether the
    /// batch was admitted.
    pub fn insert_all(&mut self, batch: Vec<(K, V)>) -> bool {
        let batch: Vec<_> = batch.into_iter().map(|(k, v)| (k.weigh() + v.weigh(), k, v)).collect();
        for (_, key, _) in &batch {
            self.remove(key);
        }
        if batch.iter().map(|e| e.0).sum::<usize>() > self.budget {
            return false;
        }
        for (bytes, key, value) in batch {
            self.tick += 1;
            self.used += bytes;
            if let Some(old) = self.map.insert(key, Slot { value, bytes, last_used: self.tick }) {
                self.used -= old.bytes; // a key repeated within the batch
            }
        }
        while self.used > self.budget {
            let oldest = self.map.iter().min_by_key(|(_, s)| s.last_used).map(|(k, _)| k.clone());
            self.remove(&oldest.expect("used > budget implies a live entry"));
            self.counters.evictions += 1;
        }
        true
    }

    /// Removes and returns the entry under `key`, releasing its bytes.
    /// Counts nothing: the caller takes the value over.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.map.remove(key)?;
        self.used -= slot.bytes;
        Some(slot.value)
    }

    /// Drops every entry for which `keep` is false as stale, counting each
    /// as invalidated, and returns how many went.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let before = self.map.len();
        let used = &mut self.used;
        self.map.retain(|key, slot| {
            let kept = keep(key, &slot.value);
            if !kept {
                *used -= slot.bytes;
            }
            kept
        });
        let dropped = before - self.map.len();
        self.counters.invalidated += dropped as u64;
        dropped
    }

    /// Live keys, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no entry is live.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes currently charged against the budget.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Accounting and counter snapshot.
    pub fn stats(&self) -> LruStats {
        let (entries, used_bytes, budget_bytes) = (self.map.len(), self.used, self.budget);
        LruStats { entries, used_bytes, budget_bytes, ..self.counters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test key: a series name (for stripe routing) and an id.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Key(&'static str, u8);

    impl Weigh for Key {
        fn weigh(&self) -> usize {
            self.0.len() + 1
        }
    }

    impl Weigh for Vec<u8> {
        fn weigh(&self) -> usize {
            self.len()
        }
    }

    fn value(bytes: usize) -> Vec<u8> {
        vec![0; bytes]
    }

    /// Checks the accounting invariant: every slot charges its key and
    /// value's weight, `used` is their sum, and the budget holds.
    fn assert_accounting(lru: &ByteLru<Key, Vec<u8>>) {
        let mut sum = 0usize;
        for (key, slot) in &lru.map {
            assert_eq!(slot.bytes, key.weigh() + slot.value.weigh());
            sum += slot.bytes;
        }
        assert_eq!(lru.used_bytes(), sum);
        assert!(lru.used_bytes() <= lru.budget_bytes());
        assert_eq!(lru.stats().entries, lru.len());
    }

    #[test]
    fn eviction_follows_recency_and_counts() {
        // Each entry charges 2 + 8 = 10 bytes; room for three.
        let mut lru = ByteLru::new(30);
        for id in 0..3 {
            assert!(lru.insert(Key("a", id), value(8)));
        }
        assert!(lru.get(&Key("a", 0)).is_some()); // 1 is now the LRU
        assert!(lru.insert(Key("a", 3), value(8)));
        assert!(!lru.contains(&Key("a", 1)));
        assert!(lru.get(&Key("a", 1)).is_none());
        let s = lru.stats();
        assert_eq!((s.entries, s.used_bytes, s.hits, s.misses, s.evictions), (3, 30, 1, 1, 1));
        assert_accounting(&lru);
    }

    #[test]
    fn eviction_order_is_deterministic_under_equal_access_patterns() {
        // Fresh maps hash in different orders; the victims must not care.
        // Batch entries take consecutive ticks in batch order, and a hit
        // moves an entry behind everything touched before it.
        let survivors = || {
            let mut lru = ByteLru::new(40);
            lru.insert_all((0..4).map(|id| (Key("a", id), value(8))).collect());
            lru.get(&Key("a", 2));
            lru.get(&Key("a", 0));
            let mut order = Vec::new();
            for id in 4..8 {
                lru.insert(Key("a", id), value(8));
                let mut live: Vec<u8> = lru.keys().map(|k| k.1).collect();
                live.sort_unstable();
                order.push(live);
            }
            order
        };
        let expected = vec![vec![0, 2, 3, 4], vec![0, 2, 4, 5], vec![0, 4, 5, 6], vec![4, 5, 6, 7]];
        for _ in 0..32 {
            assert_eq!(survivors(), expected);
        }
    }

    #[test]
    fn oversized_entries_are_refused_and_drop_their_predecessor() {
        let mut lru = ByteLru::new(20);
        assert!(lru.insert(Key("a", 0), value(8)));
        assert!(lru.insert(Key("a", 1), value(8)));
        assert!(!lru.insert(Key("a", 0), value(64)), "larger than the whole budget");
        assert!(!lru.contains(&Key("a", 0)), "the stale predecessor must not linger");
        assert!(lru.contains(&Key("a", 1)), "a refusal evicts nothing");
        assert_eq!(lru.stats().evictions, 0);
        assert_accounting(&lru);

        let mut disabled = ByteLru::new(0);
        assert!(!disabled.insert(Key("a", 0), value(0)));
        assert!(disabled.is_empty() && disabled.get(&Key("a", 0)).is_none());
    }

    #[test]
    fn batches_are_admitted_whole_or_not_at_all() {
        let mut lru = ByteLru::new(35);
        lru.insert(Key("b", 0), value(8));
        lru.insert(Key("a", 1), value(8));
        // 3 × 10 bytes fit only by evicting b0 (the LRU): admitted whole.
        assert!(lru.insert_all((1..4).map(|id| (Key("a", id), value(8))).collect()));
        assert!((1..4).all(|id| lru.contains(&Key("a", id))));
        assert!(!lru.contains(&Key("b", 0)));
        assert_eq!(lru.stats().evictions, 1, "the replaced a1 is not an eviction");
        // 5 × 10 bytes exceed the budget: refused, nothing evicted, and the
        // batch's old entries (a1..a3) dropped.
        assert!(!lru.insert_all((1..6).map(|id| (Key("a", id), value(8))).collect()));
        assert!(lru.is_empty());
        assert_eq!(lru.stats().evictions, 1);
        assert_accounting(&lru);
    }

    #[test]
    fn only_retain_counts_its_removals() {
        let mut lru = ByteLru::new(100);
        for id in 0..3 {
            lru.insert(Key("a", id), value(4));
        }
        lru.insert(Key("bb", 0), value(4));
        assert_eq!(lru.remove(&Key("a", 0)), Some(value(4)));
        assert_eq!(lru.retain(|k, _| k.0 != "a"), 2);
        assert_eq!(lru.len(), 1);
        let s = lru.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.invalidated), (0, 0, 0, 2));
        assert_accounting(&lru);
    }

    mod accounting_props {
        use super::*;
        use proptest::prelude::*;
        use std::sync::Mutex;

        const SERIES: [&str; 6] = ["a", "bb", "ccc", "dddd", "e5", "f6"];

        /// One randomized operation against the LRU holding `series`:
        /// inserts (a live key with a new size is a size-changing
        /// replacement), batches, lookups, removals and series purges.
        fn apply(lru: &mut ByteLru<Key, Vec<u8>>, (op, s, id, size): (usize, usize, u8, usize)) {
            let series = SERIES[s];
            match op {
                0 | 1 => {
                    lru.insert(Key(series, id), value(size));
                }
                2 => {
                    let evictions = lru.stats().evictions;
                    let batch: Vec<_> = (0..=id % 4)
                        .map(|i| (Key(series, id + i), value(size + i as usize)))
                        .collect();
                    let keys: Vec<Key> = batch.iter().map(|(k, _)| k.clone()).collect();
                    if lru.insert_all(batch) {
                        assert!(keys.iter().all(|k| lru.contains(k)), "admitted whole");
                    } else {
                        assert!(keys.iter().all(|k| !lru.contains(k)), "refused whole");
                        assert_eq!(lru.stats().evictions, evictions, "a refusal evicts nothing");
                    }
                }
                3 => {
                    lru.get(&Key(series, id));
                }
                4 => {
                    lru.remove(&Key(series, id));
                }
                _ => {
                    lru.retain(|k, _| k.0 != series);
                }
            }
        }

        fn op() -> impl Strategy<Value = (usize, usize, u8, usize)> {
            (0usize..6, 0usize..SERIES.len(), 0u8..8, 0usize..48)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// After any operation sequence, each entry charges its key and
            /// value's weight, the tracked total equals their sum, and the
            /// budget holds.
            #[test]
            fn used_bytes_equals_recomputed_sum(
                ops in prop::collection::vec(op(), 1..120),
                budget in 0usize..512,
            ) {
                let mut lru = ByteLru::new(budget);
                for o in ops {
                    apply(&mut lru, o);
                    assert_accounting(&lru);
                }
            }

            /// The striped form, as the engine runs it: a total budget split
            /// across per-stripe LRUs with `split_budget`, mutated from
            /// several threads with every operation routed to its series'
            /// stripe by `stripe_of`. Whatever the interleaving, each stripe
            /// keeps the invariant within its slice, and the slices sum to
            /// the configured total.
            #[test]
            fn striped_accounting_survives_concurrent_mutation(
                per_thread_ops in prop::collection::vec(prop::collection::vec(op(), 1..60), 2..5),
                total_budget in 256usize..4096,
            ) {
                const STRIPES: usize = 4;
                let budgets = crate::engine::split_budget(total_budget, STRIPES);
                prop_assert_eq!(budgets.iter().sum::<usize>(), total_budget);
                let stripes: Vec<Mutex<ByteLru<Key, Vec<u8>>>> =
                    budgets.iter().map(|b| Mutex::new(ByteLru::new(*b))).collect();
                std::thread::scope(|scope| {
                    for ops in per_thread_ops {
                        let stripes = &stripes;
                        scope.spawn(move || {
                            for o in ops {
                                let stripe = crate::store::stripe_of(SERIES[o.1], STRIPES);
                                apply(&mut stripes[stripe].lock().unwrap(), o);
                            }
                        });
                    }
                });
                for (lru, budget) in stripes.iter().zip(&budgets) {
                    let lru = lru.lock().unwrap();
                    prop_assert_eq!(lru.budget_bytes(), *budget);
                    assert_accounting(&lru);
                }
            }
        }
    }
}
