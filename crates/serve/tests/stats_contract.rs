//! The `STATS` contract of the two serve caches, pinned by one scripted
//! in-process session: every `cache.*` and `planner.*` number after every
//! step. perfbench and `valmod stats` read these keys, so a change to the
//! caches' internals must leave every number here as it is.
//!
//! The session covers two series in two stripes, repeated and overlapping
//! MOTIFS/DISCORDS ranges, a partial-segment miss revived by replay, an
//! APPEND followed by queries that extend parked states, a `load
//! --replace`, and budgets small enough that both caches evict. Every
//! eviction it forces picks an entry no other entry shares a recency with,
//! so the victims do not depend on map iteration order.
//!
//! Result-cache bytes include the reply's wall-clock `compute_ms`, so the
//! expected `used_bytes` is summed from the payloads the session received
//! (key bytes plus encoded payload); fragment bytes are exact constants.

use std::collections::HashMap;

use valmod_data::generators::{plant_motif, random_walk};
use valmod_mp::ExclusionPolicy;
use valmod_serve::engine::{EngineConfig, QueryEngine, QueryKind, QuerySpec};
use valmod_serve::{stripe_of, Value};

const STRIPES: usize = 2;
/// Per-stripe result-cache slice: room for two answers, not three.
const CACHE_BYTES: usize = 1400;
/// Per-stripe fragment slice of 290 000 bytes: series `a`'s four parked
/// states and 20 fragments overflow it, so the two oldest states go.
const FRAGMENT_BYTES: usize = 580_000;

struct Session {
    eng: QueryEngine,
    /// `(stripe, result-cache bytes)` of every computed answer, by label.
    answers: HashMap<&'static str, (usize, usize)>,
}

impl Session {
    fn query(&mut self, label: &'static str, series: &str, motifs: bool, lo: usize, hi: usize) {
        let spec = QuerySpec {
            series: series.into(),
            kind: if motifs {
                QueryKind::Motifs { top: 2 }
            } else {
                QueryKind::Discords { top: 2 }
            },
            l_min: lo,
            l_max: hi,
            p: 4,
            policy: ExclusionPolicy::HALF,
            deadline: None,
        };
        let out = self.eng.query(spec.clone()).unwrap();
        let bytes = series.len()
            + std::mem::size_of::<u64>()
            + spec.query_key().len()
            + out.payload.encode().len();
        if out.cached {
            assert_eq!(self.answers[label].1, bytes, "{label}: a hit returns the cached answer");
        } else {
            assert!(self.answers.insert(label, (stripe_of(series, STRIPES), bytes)).is_none());
        }
    }

    /// Asserts every contract number after `step`. `live` names the answers
    /// the result cache must hold; `cache` is `[hits, misses, evictions,
    /// invalidated]`; `stripe_hits_misses` is `[hits, misses]` per stripe;
    /// `planner` is `[fragment_entries, fragment_used_bytes,
    /// fragment_budget_bytes, fragment_hits, fragment_misses,
    /// fragment_evictions, fragment_invalidated, fragments_extended,
    /// parked_states]`.
    fn check(
        &self,
        step: &str,
        live: &[&str],
        cache: [usize; 4],
        stripe_hits_misses: [[usize; 2]; STRIPES],
        planner: [usize; 9],
    ) {
        let stats = self.eng.stats();
        let num = |v: &Value, key: &str| {
            v.get(key).and_then(Value::as_usize).unwrap_or_else(|| panic!("{step}: no {key}"))
        };
        let mut stripe_entries = [0usize; STRIPES];
        let mut stripe_used = [0usize; STRIPES];
        for label in live {
            let (stripe, bytes) = self.answers[label];
            stripe_entries[stripe] += 1;
            stripe_used[stripe] += bytes;
        }
        let c = stats.get("cache").unwrap();
        let got: Vec<usize> = ["entries", "used_bytes", "budget_bytes"]
            .iter()
            .chain(&["hits", "misses", "evictions", "invalidated"])
            .map(|k| num(c, k))
            .collect();
        let mut want = vec![live.len(), stripe_used.iter().sum(), CACHE_BYTES];
        want.extend(cache);
        assert_eq!(got, want, "{step}: cache");
        let per_stripe = c.get("per_stripe").and_then(Value::as_arr).unwrap();
        assert_eq!(per_stripe.len(), STRIPES, "{step}: per_stripe");
        for (i, s) in per_stripe.iter().enumerate() {
            let got: Vec<usize> =
                ["stripe", "entries", "used_bytes", "budget_bytes", "hits", "misses"]
                    .iter()
                    .map(|k| num(s, k))
                    .collect();
            let want = vec![
                i,
                stripe_entries[i],
                stripe_used[i],
                CACHE_BYTES / STRIPES,
                stripe_hits_misses[i][0],
                stripe_hits_misses[i][1],
            ];
            assert_eq!(got, want, "{step}: cache.per_stripe[{i}]");
        }
        let p = stats.get("planner").unwrap();
        let got: Vec<usize> = [
            "fragment_entries",
            "fragment_used_bytes",
            "fragment_budget_bytes",
            "fragment_hits",
            "fragment_misses",
            "fragment_evictions",
            "fragment_invalidated",
            "fragments_extended",
            "parked_states",
        ]
        .iter()
        .map(|k| num(p, k))
        .collect();
        assert_eq!(got, planner, "{step}: planner");
    }
}

#[test]
fn stats_contract_over_a_scripted_session() {
    assert_eq!((stripe_of("a", STRIPES), stripe_of("b", STRIPES)), (0, 1));
    let eng = QueryEngine::new(
        EngineConfig::builder()
            .workers(1)
            .stripes(STRIPES)
            .kernel_threads(1)
            .cache_bytes(CACHE_BYTES)
            .fragment_cache_bytes(FRAGMENT_BYTES)
            .build()
            .unwrap(),
    );
    let (values, _) = plant_motif(360, 20, 2, 0.001, 5);
    eng.load("a", values, &[], ExclusionPolicy::HALF, false).unwrap();
    eng.load("b", random_walk(300, 6), &[], ExclusionPolicy::HALF, false).unwrap();
    let mut s = Session { eng, answers: HashMap::new() };
    const F: usize = FRAGMENT_BYTES;

    // Cold: segments 16..18 and 19..24, each parking its state.
    s.query("a1 motifs 16..24", "a", true, 16, 24);
    s.check(
        "cold a",
        &["a1 motifs 16..24"],
        [0, 2, 0, 0],
        [[0, 2], [0, 0]],
        [9, 197_727, F, 0, 9, 0, 0, 0, 2],
    );
    s.query("a1 motifs 16..24", "a", true, 16, 24);
    s.check(
        "result hit",
        &["a1 motifs 16..24"],
        [1, 2, 0, 0],
        [[1, 2], [0, 0]],
        [9, 197_727, F, 0, 9, 0, 0, 0, 2],
    );
    // Same range, other kind: every fragment hits.
    s.query("a1 discords 16..24", "a", false, 16, 24);
    s.check(
        "fragment hit",
        &["a1 motifs 16..24", "a1 discords 16..24"],
        [1, 4, 0, 0],
        [[1, 4], [0, 0]],
        [9, 197_727, F, 9, 9, 0, 0, 0, 2],
    );
    // Two new anchors: the oldest two parked states and the oldest answer
    // are evicted.
    s.query("a1 motifs 20..30", "a", true, 20, 30);
    s.check(
        "evictions",
        &["a1 discords 16..24", "a1 motifs 20..30"],
        [1, 6, 1, 0],
        [[1, 6], [0, 0]],
        [20, 254_414, F, 9, 20, 2, 0, 0, 2],
    );
    s.query("b1 motifs 16..24", "b", true, 16, 24);
    s.check(
        "cold b",
        &["a1 discords 16..24", "a1 motifs 20..30", "b1 motifs 16..24"],
        [1, 8, 1, 0],
        [[1, 6], [0, 2]],
        [29, 417_581, F, 9, 29, 2, 0, 0, 4],
    );
    // 19..27 holds 19..24 only: three misses, revived from the parked state.
    s.query("b1 discords 19..27", "b", false, 19, 27);
    s.check(
        "partial segment",
        &["a1 discords 16..24", "a1 motifs 20..30", "b1 motifs 16..24", "b1 discords 19..27"],
        [1, 10, 1, 0],
        [[1, 6], [0, 4]],
        [32, 430_892, F, 9, 32, 2, 0, 0, 4],
    );
    // APPEND purges a's answers but leaves its fragments for lazy GC.
    s.eng.append("a", &random_walk(20, 7)).unwrap();
    s.check(
        "append",
        &["b1 motifs 16..24", "b1 discords 19..27"],
        [1, 10, 1, 2],
        [[1, 6], [0, 4]],
        [32, 430_892, F, 9, 32, 2, 0, 0, 4],
    );
    // The surviving states (anchors 20 and 28) are extended, not recomputed.
    s.query("a2 motifs 20..30", "a", true, 20, 30);
    s.check(
        "revive",
        &["b1 motifs 16..24", "b1 discords 19..27", "a2 motifs 20..30"],
        [1, 12, 1, 2],
        [[1, 8], [0, 4]],
        [23, 393_615, F, 9, 43, 2, 20, 2, 4],
    );
    s.query("a2 discords 20..30", "a", false, 20, 30);
    s.check(
        "revived fragments hit",
        &["b1 motifs 16..24", "b1 discords 19..27", "a2 motifs 20..30", "a2 discords 20..30"],
        [1, 14, 1, 2],
        [[1, 10], [0, 4]],
        [23, 393_615, F, 20, 43, 2, 20, 2, 4],
    );
    // A replace purges b's answers, fragments and states.
    s.eng.load("b", random_walk(280, 8), &[], ExclusionPolicy::HALF, true).unwrap();
    s.check(
        "replace",
        &["a2 motifs 20..30", "a2 discords 20..30"],
        [1, 14, 1, 4],
        [[1, 10], [0, 4]],
        [11, 217_137, F, 20, 43, 2, 32, 2, 2],
    );
    s.query("b2 motifs 16..24", "b", true, 16, 24);
    s.check(
        "cold b after replace",
        &["a2 motifs 20..30", "a2 discords 20..30", "b2 motifs 16..24"],
        [1, 16, 1, 4],
        [[1, 10], [0, 6]],
        [20, 368_784, F, 20, 52, 2, 32, 2, 4],
    );
    // States 16 and 19 were evicted before the append: a cold recompute
    // that evicts the states parked by the revival.
    s.query("a2 motifs 16..24", "a", true, 16, 24);
    s.check(
        "cold a after append",
        &["a2 discords 20..30", "b2 motifs 16..24", "a2 motifs 16..24"],
        [1, 18, 2, 4],
        [[1, 12], [0, 6]],
        [29, 423_957, F, 20, 61, 4, 32, 2, 4],
    );
    s.eng.shutdown();
    s.eng.join();
}
