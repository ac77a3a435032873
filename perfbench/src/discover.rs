//! `discover`: the offline user. One `Valmod::run` over a length range on
//! an ECG series, at one thread and at `nproc` threads. No server is
//! involved. A run cycles over several seeded series, so its figures pool
//! several inputs.
//!
//! primary = on-CPU time of one `threads(1)` run, secondary = on-CPU time
//! of one `threads(nproc)` run (all its threads). Wall times print on the
//! `discover:` line.

use std::time::Instant;

use valmod_core::{Valmod, ValmodOutput};
use valmod_data::datasets::Dataset;
use valmod_data::io::{load_text, save_text};
use valmod_mp::{ExclusionPolicy, MotifPair, ProfiledSeries};
use valmod_obs::{Registry, SharedRecorder};
use valmod_serve::{BodyShape, Value};

use crate::layers::{self, LayerInput};
use crate::server::{ServerProc, StatsDelta};
use crate::util::{
    close, cpu_timed, mean, median, peak_rss_mb, process_cpu_ms, quantile, timed, Tally, Tracer,
};
use crate::{Ctx, Outcome, Scale};

const P: usize = 50;

struct Size {
    n: usize,
    lengths: (usize, usize),
    /// Distinct seeded series per run.
    inputs: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size { n: 2048, lengths: (64, 96), inputs: 8 },
        Scale::Tiny => Size { n: 600, lengths: (16, 24), inputs: 2 },
    }
}

/// One input of a run: a seeded ECG series, its file and, computed before
/// any timed call, the reference motif of every length.
struct Input {
    csv: std::path::PathBuf,
    ps: ProfiledSeries,
    values: Vec<f64>,
    reference: Vec<Option<MotifPair>>,
}

/// The seed of input `k` of a run.
fn input_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let size = size(ctx.scale);
    let (lo, hi) = size.lengths;
    let runner = Valmod::new(lo, hi).p(P);
    let mut out = Outcome::default();

    // The reference motifs come from one independent STOMP per length,
    // outside every timed region.
    let mut inputs = Vec::new();
    for k in 0..size.inputs {
        let series = Dataset::Ecg.generate(size.n, input_seed(ctx.seed, k as u64));
        let csv = ctx.work.join(format!("discover-{k}.csv"));
        save_text(&series, &csv).map_err(|e| e.to_string())?;
        let ps = ProfiledSeries::new(&series);
        // The traced pass runs on the first input only.
        let reference = if ctx.trace && k > 0 {
            Vec::new()
        } else {
            valmod_baselines::stomp_range(&ps, lo, hi, ExclusionPolicy::HALF, ctx.threads)
                .map_err(|e| format!("reference stomp_range: {e}"))?
        };
        inputs.push(Input { csv, ps, values: series.into_values(), reference });
    }
    if ctx.trace {
        traced(ctx, &runner, &inputs[0], &mut out)?;
        return Ok(out);
    }

    // Calls cycle over the inputs until the run's time is up; each output
    // is checked against its reference right after its call. Every visit
    // of an input first repeats its set-up — what the offline user pays
    // before a run: read, validate and profile the series file — so the
    // set-up samples spread over the whole run like the calls do.
    let (mut setups, mut seq, mut par) = (Vec::new(), Vec::new(), Vec::new());
    let (mut seq_wall, mut par_wall) = (Vec::new(), Vec::new());
    let mut corrupt = ctx.corrupt;
    let mut check = |tally: &mut Tally, input: &Input, what: &str, r: Result<ValmodOutput, _>| {
        if let Some(mut o) = tally.record(what, r) {
            if std::mem::take(&mut corrupt) {
                self::corrupt(&mut o);
            }
            tally.gate(
                &format!("{what}: motif distances vs stomp_range"),
                agrees(&o, &input.reference),
            );
        }
    };
    // Whole passes over the inputs, so every input weighs the same.
    let deadline = crate::util::after(ctx.seconds);
    let mut k = 0;
    while k % inputs.len() != 0 || k == 0 || Instant::now() < deadline {
        let input = &inputs[k % inputs.len()];
        k += 1;
        let (r, cpu, _) = cpu_timed(|| load_text(&input.csv).map(|s| ProfiledSeries::new(&s)));
        out.tally.record("discover set-up", r);
        setups.push(cpu / 1e3);
        let (r, cpu, wall) = cpu_timed(|| runner.clone().threads(1).run_on(&input.ps));
        seq.push(cpu);
        seq_wall.push(wall);
        check(&mut out.tally, input, "discover threads(1)", r);
        // The parallel call's workers exit inside it, so its CPU comes from
        // the process counters.
        let cpu = process_cpu_ms();
        let (r, wall) = timed(|| runner.clone().threads(ctx.threads).run_on(&input.ps));
        par.push(process_cpu_ms() - cpu);
        par_wall.push(wall);
        check(&mut out.tally, input, "discover threads(n)", r);
    }
    let m = &mut out.metrics;
    m.put("setup_s", median(&setups));
    m.put("peak_rss_mb", peak_rss_mb("self"));
    m.put("ok_frac", out.tally.ok_frac());
    m.put("primary_mean_cpu_ms", mean(&seq));
    m.put("primary_p90_cpu_ms", quantile(&seq, 0.9));
    m.put("secondary_mean_cpu_ms", mean(&par));
    m.put("secondary_p90_cpu_ms", quantile(&par, 0.9));
    out.notes.push(format!(
        "discover: n={} lengths={lo}..{hi} p={P} inputs={} calls per kind={k} (threads 1 / {}) \
         wall: discover_s={:.4} s discover_par_s={:.4} s; cpu medians {:.4} / {:.4} ms; \
         failed_frac={:.4}",
        size.n,
        inputs.len(),
        ctx.threads,
        median(&seq_wall) / 1e3,
        median(&par_wall) / 1e3,
        median(&seq),
        median(&par),
        1.0 - out.tally.ok_frac()
    ));
    Ok(out)
}

/// Whether every length's motif distance agrees with the reference.
fn agrees(o: &ValmodOutput, reference: &[Option<MotifPair>]) -> bool {
    o.per_length.len() == reference.len()
        && o.per_length.iter().zip(reference).all(|(got, want)| match (got.motif, want) {
            (Some(g), Some(w)) => close(g.dist, w.dist),
            (None, None) => true,
            _ => false,
        })
}

/// Self-test hook: makes one length's motif distance wrong.
fn corrupt(o: &mut ValmodOutput) {
    if let Some(m) = o.per_length.iter_mut().find_map(|r| r.motif.as_mut()) {
        m.dist += 1e-3;
    }
}

/// The traced pass: untraced and traced sequential runs (for the tracing
/// overhead), the in-process layers, and one served cold query over the
/// same range on a probe server, with STATS around it.
fn traced(ctx: &Ctx, runner: &Valmod, input: &Input, out: &mut Outcome) -> Result<(), String> {
    let (ps, values) = (&input.ps, &input.values);
    let mut tracer = Tracer::new();
    let call = |tally: &mut Tally, what: &str, runner: &Valmod| {
        let (r, ms) = timed(|| runner.run_on(ps));
        if let Some(o) = tally.record(what, r) {
            tally.gate(
                &format!("{what}: motif distances vs stomp_range"),
                agrees(&o, &input.reference),
            );
        }
        ms
    };
    let reps = 2;
    let untraced: Vec<f64> =
        (0..reps).map(|_| call(&mut out.tally, "discover threads(1)", runner)).collect();
    let traced_runner = runner.clone().recorder(SharedRecorder::from(Registry::new()));
    let traced: Vec<f64> = (0..reps)
        .map(|_| {
            tracer
                .span("core.valmod", |_| call(&mut out.tally, "traced threads(1)", &traced_runner))
        })
        .collect();
    let par = call(&mut out.tally, "discover threads(n)", &runner.clone().threads(ctx.threads));
    let m = &mut out.metrics;
    m.put("bench.trace_overhead_frac", median(&traced) / median(&untraced) - 1.0);
    m.put("bench.gen_late_p95_ms", crate::util::timer_late_p95_ms());

    // Probe server: the same range as a cold served query.
    let server = ServerProc::start(&ctx.valmod, &[])?;
    let mut client = server.client()?;
    let mut delta = StatsDelta::default();
    out.tally.record("probe load", client.load("s", values.to_vec(), vec![], false));
    let pings: Vec<f64> = (0..50)
        .map(|_| {
            let (r, ms) = timed(|| client.ping());
            out.tally.record("probe ping", r);
            ms * 1e3
        })
        .collect();
    let (lo, hi) = (runner.config().l_min, runner.config().l_max);
    let mut largest = None;
    for _ in 0..2 {
        let before = client.stats().map_err(|e| e.to_string())?;
        let (r, ms) = tracer
            .span("serve.request", |_| timed(|| client.motifs("s", lo, hi, 3).map(|q| q.body)));
        let after = client.stats().map_err(|e| e.to_string())?;
        if let Some(body) = out.tally.record("probe motifs", r) {
            largest = Some(
                Value::obj(vec![("ok", Value::Bool(true)), ("result", body.to_value())]).encode(),
            );
        }
        delta.add(&before, &after, ms, false);
    }
    server.stop();
    m.put("serve.server.ping_us", median(&pings));
    delta.metrics(m);

    let batch: Vec<f64> = Dataset::Ecg.generate(64, ctx.seed ^ 0xa99e).into_values();
    let input = LayerInput {
        values,
        lengths: (lo, hi),
        hot: lo,
        batch: &batch,
        p: P,
        threads: ctx.threads,
        valmod_ms: Some((median(&untraced), par)),
        largest_reply: largest,
    };
    layers::measure(&input, &ctx.work, &mut tracer, m);
    out.notes.extend(tracer.notes());
    Ok(())
}
