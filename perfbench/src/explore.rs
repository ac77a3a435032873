//! `explore`: the interactive analyst. A `valmod serve` at its default
//! flags holds one ECG series; one closed-loop client replays a seeded
//! session of overlapping MOTIFS/DISCORDS range queries without writes.
//! Every session runs on a freshly started server with its own seeded
//! series and query kinds, so its first-time queries are cold and a run's
//! figures pool several inputs.
//!
//! primary = server on-CPU time of a query whose range holds a length not
//! requested earlier in the session, secondary = the same for a query
//! whose lengths were all requested before. Wall times and the warm
//! replay by `nproc` clients print on the `explore:` line.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use valmod_core::{top_variable_length_motifs, variable_length_discords, Valmod};
use valmod_data::datasets::Dataset;
use valmod_data::rng::Xoshiro256;
use valmod_mp::{ExclusionPolicy, ProfiledSeries};
use valmod_serve::{
    BodyShape, Client, DiscordHit, DiscordsBody, EngineConfig, MotifHit, MotifsBody, QueryEngine,
    QueryKind, QuerySpec, SeriesStore, SharedRecorder, Value,
};

use crate::layers::{self, LayerInput};
use crate::server::{ServerProc, StatsDelta};
use crate::util::{
    matches, mean, median, ms_since, quantile, ratio, timed, Tally, Tracer, FAILED_LATENCY_MS,
};
use crate::{Ctx, Outcome, Scale};

const P: usize = 50;
const TOP: usize = 3;
const POLICY: ExclusionPolicy = ExclusionPolicy::HALF;

/// One session query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Query {
    discords: bool,
    lo: usize,
    hi: usize,
    /// The range holds a length no earlier query of the session asked for.
    first: bool,
}

impl Query {
    fn spec(&self) -> QuerySpec {
        QuerySpec {
            series: "ecg".into(),
            kind: if self.discords {
                QueryKind::Discords { top: TOP }
            } else {
                QueryKind::Motifs { top: TOP }
            },
            l_min: self.lo,
            l_max: self.hi,
            p: P,
            policy: POLICY,
            deadline: None,
        }
    }
}

struct Size {
    n: usize,
    /// Consecutive windows tiling the explored lengths; each is the range
    /// of one first-time query.
    windows: [(usize, usize); 4],
    queries: usize,
    /// Session positions of the first-time queries.
    first_at: [usize; 4],
    /// Width range of the repeat queries.
    widths: (usize, usize),
    /// The dashboard's fixed length, a hot length outside the explored range.
    dashboard: usize,
    /// How long the warm-replay rate phase runs.
    rate_seconds: f64,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size {
            n: 2048,
            windows: [(32, 47), (48, 63), (64, 79), (80, 96)],
            queries: 24,
            first_at: [0, 5, 11, 17],
            widths: (4, 24),
            dashboard: 100,
            rate_seconds: 1.0,
        },
        Scale::Tiny => Size {
            n: 500,
            windows: [(16, 19), (20, 23), (24, 27), (28, 31)],
            queries: 10,
            first_at: [0, 2, 4, 6],
            widths: (2, 6),
            dashboard: 40,
            rate_seconds: 0.1,
        },
    }
}

/// Seed of the analyst's path through the lengths. It is fixed, so every
/// session asks for the same ranges in the same order and the fragment
/// cache sees the same traffic; which ranges reuse fragments and which
/// pay for a new anchor then does not change from one seed to the next.
const PATH_SEED: u64 = 0x5e55_1011;

/// One session: the windows in a shuffled order at fixed positions, and
/// between them repeat queries over sub-ranges of the lengths visited so
/// far, all drawn from [`PATH_SEED`]; the session seed decides whether
/// each query asks for MOTIFS or DISCORDS.
fn session(seed: u64, scale: Scale) -> Vec<Query> {
    let size = size(scale);
    let mut kinds = Xoshiro256::seed_from_u64(seed);
    let mut rng = Xoshiro256::seed_from_u64(PATH_SEED);
    let mut windows = size.windows.to_vec();
    rng.shuffle(&mut windows);
    let mut windows = windows.into_iter();
    let mut visited = BTreeSet::new();
    let mut out = Vec::with_capacity(size.queries);
    for pos in 0..size.queries {
        let discords = kinds.next_u64() & 1 == 1;
        let (lo, hi) = if size.first_at.contains(&pos) {
            windows.next().expect("one window per first-time slot")
        } else {
            let lengths: Vec<usize> = visited.iter().copied().collect();
            let lo = lengths[rng.uniform_usize(0, lengths.len())];
            let mut run_hi = lo;
            while visited.contains(&(run_hi + 1)) {
                run_hi += 1;
            }
            let width = rng.uniform_usize(size.widths.0, size.widths.1 + 1);
            (lo, (lo + width - 1).min(run_hi))
        };
        let first = (lo..=hi).any(|l| !visited.contains(&l));
        visited.extend(lo..=hi);
        out.push(Query { discords, lo, hi, first });
    }
    out
}

/// A server with one session's series loaded. Set-up is the server's
/// on-CPU time from listening to the dashboard reply: LOAD with the
/// dashboard's hot length (which seeds its streaming profile), then the
/// dashboard MOTIFS at that length.
fn start(
    ctx: &Ctx,
    values: &[f64],
    tally: &mut Tally,
) -> Result<(ServerProc, Client, f64), String> {
    let dash = size(ctx.scale).dashboard;
    let server = ServerProc::start(&ctx.valmod, &[])?;
    let listening = server.cpu_ms();
    let mut client = server.client()?;
    tally.record("explore load", client.load("ecg", values.to_vec(), vec![dash], false));
    tally.record("explore dashboard", client.motifs("ecg", dash, dash, TOP));
    let setup_s = (server.cpu_ms() - listening) / 1e3;
    Ok((server, client, setup_s))
}

/// One answered (or failed) query.
struct Answer {
    body: Option<String>,
    wall_ms: f64,
    /// The server's on-CPU time while it handled the query.
    cpu_ms: f64,
}

/// Sends one query and waits for its reply. A failed query enters the
/// latency samples as [`FAILED_LATENCY_MS`].
fn ask(server: &ServerProc, client: &mut Client, q: &Query, tally: &mut Tally) -> Answer {
    let cpu = server.cpu_ms();
    let (r, wall_ms) = timed(|| client.query(q.spec()));
    let cpu_ms = server.cpu_ms() - cpu;
    let body = tally
        .record(&format!("explore {q:?}"), r)
        .and_then(|resp| resp.result.get("body").map(Value::encode));
    match body {
        Some(_) => Answer { body, wall_ms, cpu_ms },
        None => Answer { body, wall_ms: FAILED_LATENCY_MS, cpu_ms: FAILED_LATENCY_MS },
    }
}

/// Distinct served bodies per query with how often each was served, for
/// the correctness gate.
#[derive(Default)]
struct Served(BTreeMap<Query, BTreeMap<String, u64>>);

impl Served {
    fn add(&mut self, q: Query, body: Option<String>) {
        if let Some(b) = body {
            *self.0.entry(q).or_default().entry(b).or_default() += 1;
        }
    }

    fn merge(&mut self, other: Served) {
        for (q, bodies) in other.0 {
            for (b, n) in bodies {
                *self.0.entry(q).or_default().entry(b).or_default() += n;
            }
        }
    }
}

/// One session's input and what the server answered.
struct SessionRun {
    values: Vec<f64>,
    served: Served,
}

/// The seed of session `k` of a run: every session has its own series and
/// its own query sequence.
fn session_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let runs = if ctx.trace { traced(ctx, &mut out)? } else { untraced(ctx, &mut out)? };
    let t1 = Instant::now();
    for (k, r) in runs.iter().enumerate() {
        gate(ctx, r, k == 0, &mut out)?;
    }
    out.notes.push(format!(
        "explore phases (wall): sessions {:.1} s, gate {:.1} s",
        (t1 - t0).as_secs_f64(),
        t1.elapsed().as_secs_f64()
    ));
    out.metrics.put("ok_frac", out.tally.ok_frac());
    Ok(out)
}

/// Sessions on fresh servers until the run's time is up (at least two),
/// each followed by the warm-replay rate phase.
fn untraced(ctx: &Ctx, out: &mut Outcome) -> Result<Vec<SessionRun>, String> {
    let size = size(ctx.scale);
    let (mut setups, mut rss, mut rates, mut contended) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut first, mut repeat) = (Vec::new(), Vec::new());
    let (mut first_totals, mut repeat_totals) = (Vec::new(), Vec::new());
    let mut runs = Vec::new();
    let deadline = crate::util::after(ctx.seconds);
    while runs.len() < 2 || Instant::now() < deadline {
        let seed = session_seed(ctx.seed, runs.len() as u64);
        let values = Dataset::Ecg.generate(size.n, seed).into_values();
        let queries = session(seed, ctx.scale);
        let mut served = Served::default();
        let (server, mut client, setup_s) = start(ctx, &values, &mut out.tally)?;
        setups.push(setup_s);
        let (mut f_total, mut r_total) = (0.0, 0.0);
        for q in &queries {
            let a = ask(&server, &mut client, q, &mut out.tally);
            served.add(*q, a.body);
            if q.first {
                first.push(a.cpu_ms);
                f_total += a.wall_ms;
            } else {
                repeat.push(a.cpu_ms);
                r_total += a.wall_ms;
            }
        }
        first_totals.push(f_total / 1e3);
        repeat_totals.push(r_total / 1e3);
        let (rate, cpu) = rate_phase(ctx, &server, &queries, &mut served, &mut out.tally)?;
        rates.push(rate);
        contended.push(cpu);
        rss.push(server.peak_rss_mb());
        server.stop();
        runs.push(SessionRun { values, served });
    }
    // Set-up is measured at least five times per run.
    while setups.len() < 5 {
        let (server, _, setup_s) = start(ctx, &runs[0].values, &mut out.tally)?;
        setups.push(setup_s);
        server.stop();
    }
    let m = &mut out.metrics;
    m.put("setup_s", median(&setups));
    m.put("peak_rss_mb", median(&rss));
    m.put("primary_mean_cpu_ms", mean(&first));
    m.put("primary_p90_cpu_ms", quantile(&first, 0.9));
    m.put("secondary_mean_cpu_ms", mean(&repeat));
    m.put("secondary_p90_cpu_ms", quantile(&repeat, 0.9));
    out.notes.push(format!(
        "explore: n={} sessions={} queries/session={} (first {} / repeat {}) wall per session: \
         explore_first_s={:.4} s explore_repeat_s={:.4} s; warm replay {:.1} queries/s at \
         {:.4} server cpu_ms each",
        size.n,
        runs.len(),
        size.queries,
        first.len() / runs.len(),
        repeat.len() / runs.len(),
        median(&first_totals),
        median(&repeat_totals),
        median(&rates),
        median(&contended)
    ));
    Ok(runs)
}

/// `nproc` clients replay the session on the warm server, closed loop,
/// for a fixed time. Returns the queries answered per second and the
/// server's on-CPU time per answered query.
fn rate_phase(
    ctx: &Ctx,
    server: &ServerProc,
    queries: &[Query],
    served: &mut Served,
    tally: &mut Tally,
) -> Result<(f64, f64), String> {
    let clients: Vec<Client> =
        (0..ctx.threads).map(|_| server.client()).collect::<Result<_, _>>()?;
    let seconds = size(ctx.scale).rate_seconds;
    let cpu = server.cpu_ms();
    let t = Instant::now();
    let deadline = crate::util::after(seconds);
    // Clients come back from their threads and disconnect only after the
    // CPU reading, so their server-side connection threads still count.
    let results: Vec<(Client, Tally, Served)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut c| {
                s.spawn(move || {
                    let (mut tally, mut served) = (Tally::default(), Served::default());
                    while Instant::now() < deadline {
                        for q in queries {
                            let (r, _) = timed(|| c.query(q.spec()));
                            let body = tally
                                .record(&format!("explore {q:?}"), r)
                                .and_then(|resp| resp.result.get("body").map(Value::encode));
                            served.add(*q, body);
                        }
                    }
                    (c, tally, served)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rate client")).collect()
    });
    let wall_s = ms_since(t) / 1e3;
    let cpu_ms = server.cpu_ms() - cpu;
    let mut answered = 0u64;
    for (_, t, s) in results {
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        answered += t.attempted - t.failed;
        served.merge(s);
    }
    Ok((answered as f64 / wall_s, ratio(cpu_ms, answered as f64)))
}

/// The traced pass: one session untraced and the same session traced
/// (STATS around every query), each on a fresh server, for the tracing
/// overhead and the served-layer deltas; then the in-process layers on
/// the same series.
fn traced(ctx: &Ctx, out: &mut Outcome) -> Result<Vec<SessionRun>, String> {
    let size = size(ctx.scale);
    let seed = session_seed(ctx.seed, 0);
    let values = Dataset::Ecg.generate(size.n, seed).into_values();
    let queries = session(seed, ctx.scale);
    let mut served = Served::default();
    let mut tracer = Tracer::new();

    let (server, mut client, _) = start(ctx, &values, &mut out.tally)?;
    let (_, untraced_ms) = timed(|| {
        for q in &queries {
            served.add(*q, ask(&server, &mut client, q, &mut out.tally).body);
        }
    });
    server.stop();

    let (server, mut client, _) = start(ctx, &values, &mut out.tally)?;
    let pings: Vec<f64> = (0..50)
        .map(|_| {
            let (r, ms) = timed(|| client.ping());
            out.tally.record("explore ping", r);
            ms * 1e3
        })
        .collect();
    let mut delta = StatsDelta::default();
    let mut largest = String::new();
    let t = Instant::now();
    for q in &queries {
        let before = client.stats().map_err(|e| e.to_string())?;
        let a = tracer.span("serve.request", |_| ask(&server, &mut client, q, &mut out.tally));
        let after = client.stats().map_err(|e| e.to_string())?;
        delta.add(&before, &after, a.wall_ms, false);
        let body = a.body;
        if let Some(b) = &body {
            if b.len() > largest.len() {
                largest = b.clone();
            }
        }
        served.add(*q, body);
    }
    let traced_ms = ms_since(t);
    server.stop();
    let m = &mut out.metrics;
    m.put("serve.server.ping_us", median(&pings));
    m.put("bench.trace_overhead_frac", ratio(traced_ms, untraced_ms) - 1.0);
    m.put("bench.gen_late_p95_ms", crate::util::timer_late_p95_ms());
    delta.metrics(m);

    let batch = Dataset::Ecg.generate(64, seed ^ 0xa99e).into_values();
    let window = size.windows[0];
    let reply = format!("{{\"ok\":true,\"result\":{{\"body\":{largest}}}}}");
    let input = LayerInput {
        values: &values,
        lengths: window,
        hot: size.dashboard,
        batch: &batch,
        p: P,
        threads: ctx.threads,
        valmod_ms: None,
        largest_reply: Some(reply),
    };
    layers::measure(&input, &ctx.work, &mut tracer, m);
    out.notes.extend(tracer.notes());
    Ok(vec![SessionRun { values, served }])
}

/// The body a direct `Valmod::run_on` over `q`'s range gives, ranked as
/// the server ranks it.
fn direct_body(ps: &ProfiledSeries, q: &Query) -> Result<Value, String> {
    let out = Valmod::new(q.lo, q.hi).p(P).run_on(ps).map_err(|e| e.to_string())?;
    Ok(if q.discords {
        DiscordsBody {
            discords: variable_length_discords(&out.valmp, TOP, POLICY)
                .iter()
                .map(|d| DiscordHit {
                    offset: d.offset,
                    l: d.l,
                    nn: (d.nn != usize::MAX).then_some(d.nn),
                    score: d.score,
                })
                .collect(),
        }
        .to_value()
    } else {
        MotifsBody {
            motifs: top_variable_length_motifs(&out.valmp, TOP, POLICY)
                .iter()
                .map(MotifHit::from_pair)
                .collect(),
            source: "cold".into(),
        }
        .to_value()
    })
}

/// The body a fresh in-process engine holding only `values` gives for `q`
/// as its first query.
fn cold_engine_body(values: &[f64], q: &Query) -> Result<Value, String> {
    let engine = QueryEngine::new(EngineConfig::builder().build().map_err(|e| e.to_string())?);
    let body = engine
        .load("ecg", values.to_vec(), &[], POLICY, false)
        .and_then(|_| engine.query(q.spec()))
        .map_err(|e| e.to_string())
        .and_then(|o| o.payload.get("body").cloned().ok_or_else(|| "reply without body".into()));
    engine.shutdown();
    engine.join();
    body
}

/// Correctness gate, outside the timed region. Every served body must be
/// byte-identical to the body a cold in-process engine computes for the
/// same query — the serving stack's own contract, which holds whatever
/// the fragment cache held. With `direct`, agreement with a direct
/// `Valmod::run_on` over the same range (same hits, numbers within
/// `DIST_TOL`) is counted and reported but not failed: the planner anchors
/// the lengths past ℓ_min's grid block at the block start, so a range that
/// crosses a block boundary gets a different VALMP, and often different
/// discords.
fn gate(ctx: &Ctx, run: &SessionRun, direct: bool, out: &mut Outcome) -> Result<(), String> {
    let store = SeriesStore::with_stripes(1);
    store
        .load("ecg", run.values.clone(), &[], POLICY, false, &SharedRecorder::noop())
        .map_err(|e| e.to_string())?;
    let slot = store.get("ecg").map_err(|e| e.to_string())?;
    let (ps, _) = slot.write().profiled().map_err(|e| e.to_string())?;
    let mut ranges: Vec<Query> =
        run.served.0.keys().map(|q| Query { first: false, ..*q }).collect();
    ranges.dedup();
    let reference = |q: &Query| -> Result<(Value, Option<Value>), String> {
        let cold = cold_engine_body(&run.values, q)?;
        Ok((cold, if direct { Some(direct_body(&ps, q)?) } else { None }))
    };
    let computed: Vec<Result<(Value, Option<Value>), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.threads)
            .map(|t| {
                let (ranges, reference) = (&ranges, &reference);
                s.spawn(move || {
                    ranges.iter().skip(t).step_by(ctx.threads).map(reference).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut per_thread: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("gate worker").into_iter()).collect();
        // Undo the round-robin split.
        (0..ranges.len()).map(|i| per_thread[i % ctx.threads].next().expect("result")).collect()
    });
    let mut references = BTreeMap::new();
    let (mut agree, mut total) = ([0usize; 2], [0usize; 2]);
    for (q, r) in ranges.iter().zip(computed) {
        let (cold, direct) = r?;
        if let Some(direct) = direct {
            total[usize::from(q.discords)] += 1;
            agree[usize::from(q.discords)] += usize::from(matches(&cold, &direct));
        }
        references.insert(*q, cold.encode());
    }
    let mut corrupt = ctx.corrupt;
    for (q, bodies) in &run.served.0 {
        let want = &references[&Query { first: false, ..*q }];
        for (got, &count) in bodies {
            let mut got = got.clone();
            if std::mem::take(&mut corrupt) {
                got.push(' ');
            }
            if got != *want {
                eprintln!(
                    "perfbench: explore {q:?} served {count}x\n  served {got}\n  cold   {want}"
                );
                for _ in 0..count {
                    out.tally.gate(&format!("explore {q:?}: served body vs cold engine"), false);
                }
            }
        }
    }
    if direct {
        out.notes.push(format!(
            "explore: served bodies that match a direct Valmod::run_on within DIST_TOL \
             (first session): motifs {}/{} discords {}/{} distinct ranges",
            agree[0], total[0], agree[1], total[1]
        ));
    }
    Ok(())
}
