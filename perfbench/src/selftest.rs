//! `--self-test`: runs every workload at tiny sizes in both modes and
//! checks that each prints every metric named in `BENCHMARK.json` with its
//! unit, and that a deliberately corrupted answer is caught as a failure.

use std::path::Path;
use std::process::ExitCode;

use valmod_serve::Value;

use crate::{result_line, run_workload, Ctx, Scale, END_TO_END, PER_LAYER, WORKLOADS};

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn same(table: &[(&str, &str)], decl: &[(String, String)]) -> bool {
    table.len() == decl.len() && table.iter().zip(decl).all(|((n, u), (dn, du))| n == dn && u == du)
}

pub fn run(valmod: &Path, work: &Path, threads: usize) -> ExitCode {
    let mut failures = Vec::new();
    let mut check = |what: String, ok: bool| {
        println!("self-test {}: {what}", if ok { "ok" } else { "FAILED" });
        if !ok {
            failures.push(what);
        }
    };

    let doc = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|s| Value::parse(&s).map_err(|e| e.to_string()));
    match &doc {
        Ok(doc) => {
            let names: Vec<String> =
                declared(doc, "workloads").into_iter().map(|(n, _)| n).collect();
            check("BENCHMARK.json workloads match".into(), names == WORKLOADS);
            check(
                "BENCHMARK.json end_to_end match".into(),
                same(END_TO_END, &declared(doc, "end_to_end")),
            );
            check(
                "BENCHMARK.json per_layer match".into(),
                same(PER_LAYER, &declared(doc, "per_layer")),
            );
        }
        Err(e) => check(format!("BENCHMARK.json readable ({e})"), false),
    }

    let ctx = |trace: bool, corrupt: bool| Ctx {
        seed: 7,
        seconds: 1.0,
        trace,
        threads,
        valmod: valmod.to_path_buf(),
        work: work.to_path_buf(),
        scale: Scale::Tiny,
        corrupt,
    };
    for workload in WORKLOADS {
        for trace in [false, true] {
            let what = format!("{workload} --trace {}", u8::from(trace));
            match run_workload(workload, &ctx(trace, false)) {
                Ok(o) => {
                    let line = result_line(&o, trace);
                    if let Err(missing) = &line {
                        println!("  missing metrics: {missing:?}");
                    }
                    let parsed = line.as_ref().ok().and_then(|l| Value::parse(l).ok());
                    check(format!("{what}: every metric present with its unit"), parsed.is_some());
                    check(
                        format!("{what}: correct, no failures ({} attempted)", o.tally.attempted),
                        o.tally.wrong.is_empty() && o.tally.failed == 0 && o.tally.attempted > 0,
                    );
                }
                Err(e) => check(format!("{what}: ran ({e})"), false),
            }
        }
        match run_workload(workload, &ctx(false, true)) {
            Ok(o) => {
                let line = result_line(&o, false).unwrap_or_default();
                check(
                    format!("{workload}: a corrupted answer is caught"),
                    !o.tally.wrong.is_empty()
                        && o.tally.failed >= 1
                        && line.starts_with("{\"correct\": false"),
                );
            }
            Err(e) => check(format!("{workload} corrupted: ran ({e})"), false),
        }
    }
    println!("self-test: {} failed", failures.len());
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
