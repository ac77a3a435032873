//! In-process per-layer timings for the traced pass: the `mp` kernels, the
//! `core` anchor/harvest/walk/compose/extend steps, the serve store and
//! persistence calls, and the wire codec. Each runs on the workload's own
//! series and lengths, so the numbers line up with its end-to-end figures.

use std::path::Path;

use valmod_core::{compose_output, LengthMethod, Valmod};
use valmod_mp::diagonal::{stomp_diagonal_parallel_ws, stomp_diagonal_ws};
use valmod_mp::streaming::StreamingProfile;
use valmod_mp::workspace::Workspace;
use valmod_mp::{ExclusionPolicy, ProfiledSeries};
use valmod_serve::protocol::Request;
use valmod_serve::{
    EngineConfig, Persistence, QueryEngine, SharedRecorder, SnapshotMeta, Value,
    DEFAULT_WAL_COMPACT_BYTES,
};

use crate::util::{median, median_ms, timed, Tracer};
use crate::Metrics;

const POLICY: ExclusionPolicy = ExclusionPolicy::HALF;
const REPS: usize = 3;

/// What the in-process layer pass runs on.
pub struct LayerInput<'a> {
    pub values: &'a [f64],
    /// The workload's length range; the anchor is `lengths.0`.
    pub lengths: (usize, usize),
    /// The hot length streaming profiles are seeded at.
    pub hot: usize,
    /// One APPEND batch.
    pub batch: &'a [f64],
    pub p: usize,
    pub threads: usize,
    /// Already-measured `(threads(1), threads(n))` VALMOD times in ms, if
    /// the workload timed them itself.
    pub valmod_ms: Option<(f64, f64)>,
    /// The largest reply line the workload received.
    pub largest_reply: Option<String>,
}

/// Fills every `mp.*`, `core.*`, `serve.store.*`, `serve.persist.*` metric
/// and `serve.protocol.codec_us`.
pub fn measure(input: &LayerInput, work: &Path, tracer: &mut Tracer, out: &mut Metrics) {
    let ps = ProfiledSeries::from_values(input.values).expect("finite series");
    let (lo, hi) = input.lengths;
    tracer.span("mp", |_| mp_layer(input, &ps, out));
    tracer.span("core", |_| core_layer(input, &ps, lo, hi, out));
    tracer.span("serve.store", |_| store_layer(input, out));
    tracer.span("serve.persist", |_| persist_layer(input, work, out));
    tracer.span("serve.protocol", |_| codec_layer(input, out));
}

fn mp_layer(input: &LayerInput, ps: &ProfiledSeries, out: &mut Metrics) {
    let l = input.lengths.0;
    let mut ws = Workspace::new();
    let _ = stomp_diagonal_ws(ps, l, POLICY, &mut ws);
    let stomp = median_ms(REPS, || {
        stomp_diagonal_ws(ps, l, POLICY, &mut ws).expect("stomp");
    });
    let par = median_ms(REPS, || {
        stomp_diagonal_parallel_ws(ps, l, POLICY, input.threads, &mut ws).expect("stomp");
    });
    let ndp = ps.num_subsequences(l) as f64;
    out.put("mp.stomp_ms", stomp);
    out.put("mp.cells_per_s", ndp * ndp / 2.0 / (stomp / 1e3));
    out.put("mp.stomp_par_speedup", stomp / par);

    let seed_ms = median_ms(REPS, || {
        StreamingProfile::new(input.values, input.hot, POLICY).expect("seed");
    });
    let mut sp = StreamingProfile::new(input.values, input.hot, POLICY).expect("seed");
    let extends: Vec<f64> =
        (0..10).map(|_| timed(|| sp.extend(input.batch).expect("extend")).1 * 1e3).collect();
    out.put("mp.hot_seed_ms", seed_ms);
    out.put("mp.streaming_extend_us", median(&extends));
}

fn core_layer(input: &LayerInput, ps: &ProfiledSeries, lo: usize, hi: usize, out: &mut Metrics) {
    let anchor = median_ms(REPS, || {
        Valmod::new(lo, lo).p(input.p).run_lengths_on(ps, lo, lo).expect("anchor");
    });
    out.put("core.anchor_ms", anchor);
    out.put("core.harvest_ratio", anchor / out.get("mp.stomp_ms"));

    let runner = Valmod::new(lo, hi).p(input.p);
    let (_, state) = runner.run_lengths_capturing(ps, lo, hi).expect("capture");
    let state = state.expect("sequential runs capture their segment");
    let noop = SharedRecorder::noop();
    let walk = median_ms(REPS, || {
        state.replay(ps, hi, &noop).expect("replay");
    });
    let frags = state.replay(ps, hi, &noop).expect("replay");
    let walked = &frags[1..];
    let fallbacks = walked.iter().filter(|f| f.method == LengthMethod::Fallback).count();
    let valid: usize = walked.iter().map(|f| f.valid_rows).sum();
    let nonvalid: usize = walked.iter().map(|f| f.nonvalid_rows).sum();
    let recomputed: usize = walked.iter().map(|f| f.recomputed_rows).sum();
    out.put("core.walk_ms", walk);
    out.put("core.fallback_lengths", fallbacks as f64);
    out.put("core.valid_row_frac", crate::util::ratio(valid as f64, (valid + nonvalid) as f64));
    out.put("core.recomputed_rows", recomputed as f64);
    out.put(
        "core.compose_ms",
        median_ms(5, || {
            compose_output(frags.iter()).expect("compose");
        }),
    );

    let grown: Vec<f64> = input.values.iter().chain(input.batch).copied().collect();
    let gps = ProfiledSeries::with_offset(&grown, ps.offset()).expect("grown series");
    let extend: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut s = state.clone();
            timed(|| s.extend(&gps, &noop).expect("extend")).1
        })
        .collect();
    out.put("core.segment_extend_ms", median(&extend));

    let (t1, tn) = input.valmod_ms.unwrap_or_else(|| {
        let run = |threads: usize| {
            median_ms(REPS, || {
                runner.clone().threads(threads).run_on(ps).expect("valmod");
            })
        };
        (run(1), run(input.threads))
    });
    out.put("core.thread_speedup", t1 / tn);
}

fn store_layer(input: &LayerInput, out: &mut Metrics) {
    let engine = QueryEngine::new(EngineConfig::builder().build().expect("default config"));
    let hot = [input.hot];
    let load = median_ms(REPS, || {
        engine.load("s", input.values.to_vec(), &hot, POLICY, true).expect("load");
    });
    let appends: Vec<f64> =
        (0..10).map(|_| timed(|| engine.append("s", input.batch).expect("append")).1).collect();
    engine.shutdown();
    engine.join();
    out.put("serve.store.load_ms", load);
    out.put("serve.store.append_ms", median(&appends));
}

fn persist_layer(input: &LayerInput, work: &Path, out: &mut Metrics) {
    let p = Persistence::open(work.join("persist-layer"), DEFAULT_WAL_COMPACT_BYTES)
        .expect("open persistence");
    let meta =
        SnapshotMeta { version: 1, policy: POLICY, hot_lengths: vec![input.hot], base_offset: 0.0 };
    let snapshot = median_ms(5, || p.write_snapshot("s", &meta, input.values).expect("snapshot"));
    let wal: Vec<f64> =
        (2..22u64).map(|v| timed(|| p.log_append("s", v, input.batch).expect("wal")).1).collect();
    out.put("serve.persist.snapshot_ms", snapshot);
    out.put("serve.persist.wal_append_ms", median(&wal));
}

fn codec_layer(input: &LayerInput, out: &mut Metrics) {
    let append =
        Request::Append { name: "s".into(), values: input.batch.to_vec() }.to_value().encode();
    let per_op_us = |line: &str| {
        let reps = 200;
        let (_, ms) = timed(|| {
            for _ in 0..reps {
                let v = Value::parse(line).expect("parse");
                std::hint::black_box(v.encode());
            }
        });
        ms * 1e3 / reps as f64
    };
    let reply = input.largest_reply.as_deref().map_or(0.0, per_op_us);
    out.put("serve.protocol.codec_us", reply + per_op_us(&append));
}
