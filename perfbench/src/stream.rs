//! `stream`: monitoring with writes beside reads. A durable `valmod serve
//! --data-dir` holds several ECG series, each with a hot length, and its
//! fragment cache is sized so that every stripe keeps the parked states of
//! its series. Each cycle is APPEND → MOTIFS at the hot length → DISCORDS
//! over a short variable range. Cycles first run open loop at a fixed rate
//! (latency counted from each cycle's due time), then closed loop with
//! `nproc` clients and no think time.
//!
//! primary = server on-CPU time of a post-append DISCORDS, secondary = the
//! same for an APPEND, both from the open-loop phase, whose single sender
//! keeps the server on one request at a time. Wall latencies (freshness
//! from the due time, APPEND acknowledgement) and the closed-loop capacity
//! print on the `stream:` line.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use valmod_data::datasets::Dataset;
use valmod_mp::ExclusionPolicy;
use valmod_serve::{Client, EngineConfig, QueryEngine, QueryKind, QuerySpec, ServeError, Value};

use crate::layers::{self, LayerInput};
use crate::server::{ServerProc, StatsDelta};
use crate::util::{
    after, mean, median, ms_since, quantile, ratio, sleep_until, timed, Tally, Tracer,
    FAILED_LATENCY_MS,
};
use crate::{Ctx, Outcome, Scale};

const P: usize = 50;
const TOP: usize = 3;
const POLICY: ExclusionPolicy = ExclusionPolicy::HALF;

#[derive(Clone, Copy)]
struct Size {
    series: usize,
    n: usize,
    hot: usize,
    discords: (usize, usize),
    batch: usize,
    /// Open-loop schedule: cycles per second, and the fewest cycles a run
    /// sends open loop (it sends more when `--seconds` leaves room).
    rate: f64,
    open_cycles: usize,
    /// How long the closed-loop phase runs at the least.
    closed_seconds: f64,
    fragment_cache_mb: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size {
            series: 8,
            n: 2048,
            hot: 64,
            discords: (48, 51),
            batch: 64,
            rate: 12.0,
            open_cycles: 200,
            closed_seconds: 2.0,
            fragment_cache_mb: 256,
        },
        Scale::Tiny => Size {
            series: 4,
            n: 400,
            hot: 16,
            discords: (12, 14),
            batch: 16,
            rate: 50.0,
            open_cycles: 24,
            closed_seconds: 0.2,
            fragment_cache_mb: 16,
        },
    }
}

/// Batches kept per series; a run wraps around after this many.
const TAIL_BATCHES: usize = 1024;

/// One series: its initial samples, its append tail, and the batches the
/// server acknowledged, in order.
struct SeriesRun {
    name: String,
    initial: Vec<f64>,
    tail: Vec<f64>,
    applied: Vec<usize>,
    next: usize,
}

impl SeriesRun {
    fn batch(&self, j: usize, k: usize) -> &[f64] {
        let j = j % TAIL_BATCHES;
        &self.tail[j * k..(j + 1) * k]
    }
}

fn make_series(ctx: &Ctx, size: &Size) -> Vec<SeriesRun> {
    (0..size.series)
        .map(|s| {
            let salt = (s as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            SeriesRun {
                name: format!("ecg{s}"),
                initial: Dataset::Ecg.generate(size.n, ctx.seed ^ salt).into_values(),
                tail: Dataset::Ecg
                    .generate(size.batch * TAIL_BATCHES, ctx.seed ^ salt.rotate_left(17))
                    .into_values(),
                applied: Vec::new(),
                next: 0,
            }
        })
        .collect()
}

fn spec(name: &str, kind: QueryKind, lengths: (usize, usize)) -> QuerySpec {
    QuerySpec {
        series: name.into(),
        kind,
        l_min: lengths.0,
        l_max: lengths.1,
        p: P,
        policy: POLICY,
        deadline: None,
    }
}

fn motifs(size: &Size, name: &str) -> QuerySpec {
    spec(name, QueryKind::Motifs { top: TOP }, (size.hot, size.hot))
}

fn discords(size: &Size, name: &str) -> QuerySpec {
    spec(name, QueryKind::Discords { top: TOP }, size.discords)
}

/// Starts a durable server on a fresh data directory, loads every series
/// with its hot length and primes the dashboard (MOTIFS at the hot length
/// and DISCORDS over the range on every series). Returns the server, a
/// client and the set-up cost: the server's on-CPU seconds from listening
/// until then.
fn start(
    ctx: &Ctx,
    size: &Size,
    series: &[SeriesRun],
    attempt: usize,
    tally: &mut Tally,
) -> Result<(ServerProc, Client, f64), String> {
    let dir = ctx.work.join(format!("stream-data-{attempt}"));
    let _ = std::fs::remove_dir_all(&dir);
    let args = vec![
        "--data-dir".to_string(),
        dir.display().to_string(),
        "--fragment-cache-mb".to_string(),
        size.fragment_cache_mb.to_string(),
    ];
    let server = ServerProc::start(&ctx.valmod, &args)?;
    let listening = server.cpu_ms();
    let mut client = server.client()?;
    for s in series {
        tally.record("stream load", client.load(&s.name, s.initial.clone(), vec![size.hot], false));
    }
    for s in series {
        tally.record("stream prime motifs", client.query(motifs(size, &s.name)));
        tally.record("stream prime discords", client.query(discords(size, &s.name)));
    }
    let setup_s = (server.cpu_ms() - listening) / 1e3;
    Ok((server, client, setup_s))
}

/// Latencies and server on-CPU times of one cycle.
#[derive(Default, Clone, Copy)]
struct CycleTimes {
    append_ms: f64,
    fresh_ms: f64,
    append_cpu_ms: f64,
    discords_cpu_ms: f64,
}

/// One request of a cycle, with STATS around it when traced. Returns the
/// client-side latency and the server's on-CPU time while it ran (0 when
/// no server is given, as when several clients share it), or `None` when
/// the request failed.
fn step(
    client: &mut Client,
    server: Option<&ServerProc>,
    trace: &mut Option<(&mut StatsDelta, &mut Tracer)>,
    after_append: bool,
    what: &str,
    tally: &mut Tally,
    f: impl FnOnce(&mut Client) -> Result<(), ServeError>,
) -> Option<(f64, f64)> {
    let before = trace.as_ref().and_then(|_| client.stats().ok());
    let cpu = server.map_or(0.0, ServerProc::cpu_ms);
    let (r, ms) = match trace.as_mut() {
        Some((_, tracer)) => tracer.span("serve.request", |_| timed(|| f(client))),
        None => timed(|| f(client)),
    };
    let cpu = server.map_or(0.0, |s| s.cpu_ms() - cpu);
    if let (Some(before), Some((delta, _))) = (before, trace.as_mut()) {
        if let Ok(after) = client.stats() {
            delta.add(&before, &after, ms, after_append);
        }
    }
    tally.record(what, r).map(|_| (ms, cpu))
}

/// One cycle on `s`: APPEND the next batch, MOTIFS at the hot length,
/// DISCORDS over the range. Freshness counts from `due`. A failed request
/// enters the latency samples as [`FAILED_LATENCY_MS`].
fn cycle(
    client: &mut Client,
    server: Option<&ServerProc>,
    size: &Size,
    s: &mut SeriesRun,
    due: Instant,
    tally: &mut Tally,
    mut trace: Option<(&mut StatsDelta, &mut Tracer)>,
) -> CycleTimes {
    let j = s.next;
    s.next += 1;
    let batch = s.batch(j, size.batch).to_vec();
    let appended = step(client, server, &mut trace, false, "stream append", tally, |c| {
        c.append(&s.name, batch).map(|_| ())
    });
    if appended.is_some() {
        s.applied.push(j);
    }
    let m = motifs(size, &s.name);
    step(client, server, &mut trace, true, "stream motifs", tally, |c| c.query(m).map(|_| ()));
    let d = discords(size, &s.name);
    let fresh = step(client, server, &mut trace, true, "stream discords", tally, |c| {
        c.query(d).map(|_| ())
    });
    let failed = (FAILED_LATENCY_MS, FAILED_LATENCY_MS);
    let (append_ms, append_cpu_ms) = appended.unwrap_or(failed);
    let (fresh_ms, discords_cpu_ms) = match fresh {
        Some((_, cpu)) => (ms_since(due), cpu),
        None => failed,
    };
    CycleTimes { append_ms, fresh_ms, append_cpu_ms, discords_cpu_ms }
}

/// Splits the series across `threads` senders: sender `t` owns series
/// `s` with `s % threads == t`, so each series' cycles stay in order.
fn split(series: Vec<SeriesRun>, threads: usize) -> Vec<Vec<SeriesRun>> {
    let mut out: Vec<Vec<SeriesRun>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, s) in series.into_iter().enumerate() {
        out[i % threads].push(s);
    }
    out
}

fn join(groups: Vec<Vec<SeriesRun>>) -> Vec<SeriesRun> {
    let mut all: Vec<SeriesRun> = groups.into_iter().flatten().collect();
    all.sort_by_key(|s| s.name.clone());
    all
}

struct OpenLoop {
    times: Vec<CycleTimes>,
    late_ms: Vec<f64>,
}

/// The open-loop phase: a generator emits cycle `i` at `start + i / rate`
/// to one sender, which runs the cycles in order on series `i % count`;
/// latencies count from the due time. With one sender the server handles
/// one request at a time, so each request's server CPU is its own.
fn open_loop(
    server: &ServerProc,
    size: &Size,
    mut series: Vec<SeriesRun>,
    cycles: usize,
    tally: &mut Tally,
) -> Result<(OpenLoop, Vec<SeriesRun>), String> {
    let count = series.len();
    let mut client = server.client()?;
    let start = Instant::now() + Duration::from_millis(20);
    let mut late_ms = Vec::with_capacity(cycles);
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let (sender_tally, times) = std::thread::scope(|sc| {
        let sender = sc.spawn(|| {
            let mut tally = Tally::default();
            let mut times = Vec::new();
            for (i, due) in rx {
                let s = &mut series[i % count];
                times.push(cycle(&mut client, Some(server), size, s, due, &mut tally, None));
            }
            (tally, times)
        });
        for i in 0..cycles {
            let due = start + Duration::from_secs_f64(i as f64 / size.rate);
            sleep_until(due);
            late_ms.push(ms_since(due));
            let _ = tx.send((i, due));
        }
        drop(tx);
        sender.join().expect("sender thread")
    });
    tally.attempted += sender_tally.attempted;
    tally.failed += sender_tally.failed;
    Ok((OpenLoop { times, late_ms }, series))
}

/// The closed-loop phase: `threads` clients cycle over their own series
/// with no think time until `seconds` pass. Returns cycles per second and
/// the server's on-CPU time per cycle.
fn closed_loop(
    server: &ServerProc,
    size: &Size,
    series: Vec<SeriesRun>,
    threads: usize,
    seconds: f64,
    tally: &mut Tally,
) -> Result<(f64, f64, Vec<SeriesRun>), String> {
    let senders = threads.min(series.len()).max(1);
    let groups = split(series, senders);
    let clients: Vec<Client> = (0..senders).map(|_| server.client()).collect::<Result<_, _>>()?;
    let cpu = server.cpu_ms();
    let t0 = Instant::now();
    let deadline = after(seconds);
    // Clients come back from their threads and disconnect only after the
    // CPU reading, so their server-side connection threads still count.
    let results: Vec<(Vec<SeriesRun>, Tally, usize, Client)> = std::thread::scope(|sc| {
        let handles: Vec<_> = groups
            .into_iter()
            .zip(clients)
            .map(|(mut group, mut client)| {
                sc.spawn(move || {
                    let mut tally = Tally::default();
                    let mut done = 0usize;
                    while Instant::now() < deadline {
                        let k = done % group.len();
                        let s = &mut group[k];
                        cycle(&mut client, None, size, s, Instant::now(), &mut tally, None);
                        done += 1;
                    }
                    (group, tally, done, client)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop client")).collect()
    });
    let wall_s = ms_since(t0) / 1e3;
    let cpu_ms = server.cpu_ms() - cpu;
    let mut groups = Vec::new();
    let mut cycles = 0;
    for (g, t, done, _) in results {
        groups.push(g);
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        cycles += done;
    }
    Ok((cycles as f64 / wall_s, ratio(cpu_ms, cycles as f64), join(groups)))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let size = size(ctx.scale);
    let mut series = make_series(ctx, &size);
    let mut out = Outcome::default();
    let t0 = Instant::now();
    // Set-up is measured three times: two throwaway servers, then the one
    // the phases run on.
    let mut setups = Vec::new();
    for attempt in 0..2 {
        let (server, _, setup_s) = start(ctx, &size, &series, attempt, &mut out.tally)?;
        setups.push(setup_s);
        server.stop();
    }
    let (server, mut client, setup_s) = start(ctx, &size, &series, 2, &mut out.tally)?;
    setups.push(setup_s);
    out.metrics.put("setup_s", median(&setups));
    let t1 = Instant::now();

    if ctx.trace {
        series = traced(ctx, &size, &server, &mut client, series, &mut out)?;
    } else {
        let cycles = ((ctx.seconds - size.closed_seconds) * size.rate) as usize;
        let cycles = cycles.max(size.open_cycles);
        let (open, s) = open_loop(&server, &size, series, cycles, &mut out.tally)?;
        let closed_s = (ctx.seconds - cycles as f64 / size.rate).max(size.closed_seconds);
        let (capacity, per_cycle, s) =
            closed_loop(&server, &size, s, ctx.threads, closed_s, &mut out.tally)?;
        series = s;
        let pick = |f: fn(&CycleTimes) -> f64| open.times.iter().map(f).collect::<Vec<f64>>();
        let (append, fresh) = (pick(|t| t.append_ms), pick(|t| t.fresh_ms));
        let (append_cpu, discords_cpu) = (pick(|t| t.append_cpu_ms), pick(|t| t.discords_cpu_ms));
        let m = &mut out.metrics;
        m.put("primary_mean_cpu_ms", mean(&discords_cpu));
        m.put("primary_p90_cpu_ms", quantile(&discords_cpu, 0.9));
        m.put("secondary_mean_cpu_ms", mean(&append_cpu));
        m.put("secondary_p90_cpu_ms", quantile(&append_cpu, 0.9));
        out.notes.push(format!(
            "stream: series={} n0={} hot={} discords={}..{} batch={} rate={} cps open_cycles={} \
             wall: append_p50_ms={:.4} append_p95_ms={:.4} fresh_p50_ms={:.4} \
             fresh_p95_ms={:.4} stream_capacity_cps={:.4} gen_late_p95_ms={:.4}; closed loop \
             {:.4} server cpu_ms per cycle",
            size.series,
            size.n,
            size.hot,
            size.discords.0,
            size.discords.1,
            size.batch,
            size.rate,
            open.times.len(),
            median(&append),
            quantile(&append, 0.95),
            median(&fresh),
            quantile(&fresh, 0.95),
            capacity,
            quantile(&open.late_ms, 0.95),
            per_cycle
        ));
    }

    // The final replies, then the server's peak memory.
    let mut finals = Vec::new();
    for s in &series {
        for q in [motifs(&size, &s.name), discords(&size, &s.name)] {
            let body = out
                .tally
                .record("stream final query", client.query(q))
                .and_then(|r| r.result.get("body").map(Value::encode));
            finals.push(body);
        }
    }
    out.metrics.put("peak_rss_mb", server.peak_rss_mb());
    drop(client);
    server.stop();
    let t2 = Instant::now();
    gate(ctx, &size, &series, finals, &mut out.tally);
    out.metrics.put("ok_frac", out.tally.ok_frac());
    out.notes.push(format!(
        "stream phases (wall): setups {:.1} s, load {:.1} s, gate {:.1} s",
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        t2.elapsed().as_secs_f64()
    ));
    Ok(out)
}

/// Correctness gate, outside the timed region: a cold in-process engine
/// replays each series' LOAD + APPEND history and must answer the final
/// queries with byte-identical bodies.
fn gate(
    ctx: &Ctx,
    size: &Size,
    series: &[SeriesRun],
    mut finals: Vec<Option<String>>,
    tally: &mut Tally,
) {
    if ctx.corrupt {
        if let Some(Some(b)) = finals.first_mut() {
            b.push(' ');
        }
    }
    let engine = QueryEngine::new(EngineConfig::builder().build().expect("default config"));
    let mut finals = finals.into_iter();
    for s in series {
        let replayed =
            engine.load(&s.name, s.initial.clone(), &[size.hot], POLICY, false).and_then(|_| {
                s.applied
                    .iter()
                    .try_for_each(|&j| engine.append(&s.name, s.batch(j, size.batch)).map(|_| ()))
            });
        for q in [motifs(size, &s.name), discords(size, &s.name)] {
            let served = finals.next().flatten();
            let want = replayed
                .as_ref()
                .ok()
                .and_then(|_| engine.query(q.clone()).ok())
                .and_then(|o| o.payload.get("body").map(Value::encode));
            let ok = served.is_some() && served == want;
            tally.gate(&format!("stream {} {:?}: served vs cold replay", s.name, q.kind), ok);
        }
    }
    engine.shutdown();
    engine.join();
}

/// The traced pass: an untraced open-loop stretch (generator lateness) and
/// untraced sequential cycles, then the same number of traced sequential
/// cycles with STATS around every request, then the in-process layers.
fn traced(
    ctx: &Ctx,
    size: &Size,
    server: &ServerProc,
    client: &mut Client,
    series: Vec<SeriesRun>,
    out: &mut Outcome,
) -> Result<Vec<SeriesRun>, String> {
    let mut tracer = Tracer::new();
    let (open, mut series) = open_loop(server, size, series, size.open_cycles / 4, &mut out.tally)?;
    let cycles = size.series * 8;
    let count = series.len();
    let (_, untraced_ms) = timed(|| {
        for i in 0..cycles {
            cycle(client, None, size, &mut series[i % count], Instant::now(), &mut out.tally, None);
        }
    });
    let mut delta = StatsDelta::default();
    let (_, traced_ms) = timed(|| {
        for i in 0..cycles {
            let trace = Some((&mut delta, &mut tracer));
            cycle(
                client,
                None,
                size,
                &mut series[i % count],
                Instant::now(),
                &mut out.tally,
                trace,
            );
        }
    });
    let pings: Vec<f64> = (0..50)
        .map(|_| {
            let (r, ms) = timed(|| client.ping());
            out.tally.record("stream ping", r);
            ms * 1e3
        })
        .collect();
    let largest = out
        .tally
        .record("stream discords", client.query(discords(size, &series[0].name)))
        .map(|r| Value::obj(vec![("ok", Value::Bool(true)), ("result", r.result)]).encode());
    let m = &mut out.metrics;
    m.put("bench.gen_late_p95_ms", quantile(&open.late_ms, 0.95));
    m.put("bench.trace_overhead_frac", ratio(traced_ms, untraced_ms) - 1.0);
    m.put("serve.server.ping_us", median(&pings));
    delta.metrics(m);

    let s0 = &series[0];
    let input = LayerInput {
        values: &s0.initial,
        lengths: size.discords,
        hot: size.hot,
        batch: s0.batch(0, size.batch),
        p: P,
        threads: ctx.threads,
        valmod_ms: None,
        largest_reply: largest,
    };
    layers::measure(&input, &ctx.work, &mut tracer, m);
    out.notes.extend(tracer.notes());
    Ok(series)
}
