//! End-to-end DMatch + resident serving benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tpch-batch|dblp-ml|all> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Run from the repository root. Each run generates its workload from the
//! seed, measures for `--seconds`, checks every result against a reference
//! and prints a table of metrics (name, value, unit) on stderr, a run record
//! line and, last, one JSON result line on stdout: the end-to-end metrics
//! with `--trace 0`, the per-layer ones with `--trace 1`.

mod catalogue;
mod run;
mod spec;
mod stats;

use catalogue::MetricDef;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    catalogue: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
        catalogue: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--self-test" => args.self_test = true,
            "--catalogue" => args.catalogue = true,
            _ => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                set_flag(&mut args, &flag, &value)?;
            }
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range (0, 600]", args.seconds));
    }
    if !args.self_test && !args.catalogue && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn set_flag(args: &mut Args, flag: &str, value: &str) -> Result<(), String> {
    let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
    match flag {
        "--workload" => args.workload = value.to_string(),
        "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
        "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
        "--trace" => {
            args.trace = match value {
                "0" => false,
                "1" => true,
                _ => return Err(bad(&"expected 0 or 1")),
            }
        }
        _ => return Err(format!("unknown flag {flag}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> | --self-test | --catalogue",
                spec::WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.self_test {
        self_test()
    } else if args.catalogue {
        print_catalogue()
    } else {
        bench(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args) -> Result<(), String> {
    if args.workload == "all" {
        return bench_all(args);
    }
    let spec =
        spec::find(&args.workload).ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let opts = run::Options { seed: args.seed, seconds: args.seconds, trace: args.trace };
    let defs = catalogue::declared()?;
    let outcome = run::run(&spec, &opts)?;
    print_table(&spec, &outcome, &defs);
    println!("{}", record_json(&spec, &opts, &outcome));
    println!("{}", result_json(&outcome, &defs, args.trace));
    Ok(())
}

/// Run every workload, each in a process of its own so that no workload's
/// figures (peak RSS above all) carry another's.
fn bench_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    for spec in spec::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("start {}: {e}", spec.name))?;
        if !status.success() {
            return Err(format!("{} failed: {status}", spec.name));
        }
    }
    Ok(())
}

/// Every metric the run computed, by name with its unit and layer.
fn print_table(spec: &spec::Spec, outcome: &run::Outcome, defs: &[MetricDef]) {
    eprintln!("== {} ==", spec.name);
    for d in defs {
        if let Some(v) = outcome.metrics.get(&d.name) {
            let layer = catalogue::describe(&d.name).map_or("?", |(layer, _)| layer);
            eprintln!("{:<42} {:>16.6} {:<13} {layer}", d.name, v, d.unit);
        }
    }
    let rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    eprintln!("{:<42} {rate:>16.6} {:<13} end-to-end", "error_rate", "ratio");
    for f in &outcome.failures {
        eprintln!("FAILED: {f}");
    }
}

/// Every metric with its unit, direction, layer and what it should move.
fn print_catalogue() -> Result<(), String> {
    for d in catalogue::declared()? {
        let (layer, moves) = catalogue::describe(&d.name).unwrap_or(("?", "?"));
        println!("{:<42} {:<13} {:<7} {layer:<14} {moves}", d.name, d.unit, d.better);
    }
    Ok(())
}

/// The run record: host, build, workload and the sample counts and paths
/// behind the figures.
fn record_json(spec: &spec::Spec, opts: &run::Options, outcome: &run::Outcome) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields: BTreeMap<&str, String> = outcome.record.clone();
    fields.insert("workload", spec.name.to_string());
    fields.insert("seed", opts.seed.to_string());
    fields.insert("seconds", opts.seconds.to_string());
    fields.insert("trace", u8::from(opts.trace).to_string());
    fields.insert("cores", cores.to_string());
    fields.insert("commit", commit());
    fields.insert("workers", spec.workers.to_string());
    fields.insert("bsp_execution", spec.execution().to_string());
    fields.insert("attempted", outcome.attempted.to_string());
    fields.insert("failed", outcome.failed.to_string());
    let mut s = String::from("{\"run_record\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(s, "{sep}{}:{}", json_str(k), json_str(v));
    }
    s.push_str("}}");
    s
}

fn result_json(outcome: &run::Outcome, defs: &[MetricDef], trace: bool) -> String {
    let mut metrics = String::new();
    let mut complete = true;
    for d in defs.iter().filter(|d| d.end_to_end != trace) {
        let value = outcome.metrics.get(&d.name).copied().filter(|v| v.is_finite());
        complete &= value.is_some();
        let sep = if metrics.is_empty() { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            json_str(&d.name),
            value.unwrap_or(0.0),
            json_str(&d.unit)
        );
    }
    if !complete {
        eprintln!("FAILED: a metric had no samples");
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        complete && outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The checked-out commit, read from `.git` in the working directory only.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".into()
    } else {
        hash.to_string()
    }
}

/// Toy-size run of every workload that fails on a declared metric the
/// catalogue has no layer for, on an undeclared or missing metric, and on a
/// correctness check that does not fire when handed a wrong reference.
fn self_test() -> Result<(), String> {
    let defs = catalogue::declared()?;
    let mut problems = Vec::new();
    for d in &defs {
        if catalogue::describe(&d.name).is_none() {
            problems.push(format!("{}: declared, but the catalogue has no layer for it", d.name));
        }
    }
    let declared: BTreeSet<&str> = defs.iter().map(|d| d.name.as_str()).collect();

    let opts = run::Options { seed: 7, seconds: 1.0, trace: true };
    for spec in spec::WORKLOADS {
        let toy = spec.scaled(0.05);
        let outcome = run::run(&toy, &opts)?;
        for name in outcome.metrics.keys() {
            if !declared.contains(name.as_str()) {
                problems.push(format!("{}: emitted undeclared metric {name}", spec.name));
            }
        }
        for name in &declared {
            if !outcome.metrics.contains_key(*name) {
                problems.push(format!("{}: metric {name} missing", spec.name));
            }
        }
        if outcome.failed > 0 {
            problems.push(format!(
                "{}: {} failed operations: {:?}",
                spec.name, outcome.failed, outcome.failures
            ));
        }
        problems.extend(
            run::check_fires_on_wrong_reference(&toy, opts.seed)?
                .into_iter()
                .map(|p| format!("{}: {p}", spec.name)),
        );
        eprintln!("self-test: {} ran {} operations", spec.name, outcome.attempted);
    }
    if problems.is_empty() {
        eprintln!("self-test: {} metrics declared, emitted and checked", defs.len());
        Ok(())
    } else {
        Err(format!("self-test failed:\n  {}", problems.join("\n  ")))
    }
}
