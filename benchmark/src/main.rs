//! `capy-benchmark`: see the library docs for what it measures.
//!
//! ```text
//! capy-benchmark [--seed N] [--out DIR] [--seconds S] [--smoke]
//! capy-benchmark --workload NAME [--seed N] [--out DIR] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Without `--workload` it runs every workload in a child process of
//! its own, traced, and collects `<out>/benchmark.json`. Without
//! `--seconds` each workload runs 5 timed trials.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use capy_benchmark::{
    run, Budget, Config, Report, Workload, DEFAULT_TRIALS, END_TO_END, PER_LAYER, WORKERS,
};
use capy_manifest::{parse_json, JsonValue};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    budget: Budget,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        budget: Budget::Trials(DEFAULT_TRIALS),
        trace: false,
        smoke: false,
        out: PathBuf::from("target/benchmark"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::from_name(&value).ok_or_else(|| bad(&"no such workload"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.budget = Budget::Seconds(value.parse().map_err(|e| bad(&e))?);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                };
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("capy-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("capy-benchmark: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    match args.workload {
        Some(workload) => run_one(&args, workload),
        None => run_all(&args),
    }
}

/// Runs one workload in this process and prints its result line last.
fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let config = Config {
        workload,
        seed: args.seed,
        budget: args.budget,
        trace: args.trace,
        smoke: args.smoke,
        out: args.out.clone(),
    };
    let report = match run(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("capy-benchmark: {}: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    print_report(&report, args.seed);
    let record = args.out.join(format!("{}.json", workload.name()));
    if let Err(e) = std::fs::write(&record, report.to_json().pretty()) {
        eprintln!("capy-benchmark: cannot write {}: {e}", record.display());
        return ExitCode::from(2);
    }
    println!("{}", report.result_line(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_report(report: &Report, seed: u64) {
    let t = &report.throughput;
    println!(
        "# {} seed={seed} workers={WORKERS} trials={} ops/trial={}",
        report.workload.name(),
        t.n,
        report.attempted / t.n as u64
    );
    println!(
        "ops_per_s = {} 1/s (median of {}; q1 {}, q3 {})",
        t.median, t.n, t.q1, t.q3
    );
    println!("# trial_s = {:?}", report.trial_s);
    let s = &report.setup;
    println!(
        "setup_s = {} s (median of {}; q1 {}, q3 {})",
        s.median, s.n, s.q1, s.q3
    );
    println!("peak_rss_mb = {} MB", report.peak_rss_mb);
    println!(
        "error_rate = {} ratio ({} of {} operations failed)",
        report.error_rate(),
        report.failed,
        report.attempted
    );
    for m in report.per_layer.iter().flatten() {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    if let Some(k) = report.sample_every {
        println!("# spans written for every {k}-th operation");
    }
    for failure in &report.failures {
        println!("CHECK FAILED: {failure}");
    }
}

/// Runs every workload in a child process of its own and collects
/// `benchmark.json`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("capy-benchmark: cannot find its own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut workloads = Vec::new();
    let mut ok = true;
    for workload in Workload::ALL {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload.name(), "--trace", "1"])
            .args(["--seed", &args.seed.to_string()])
            .arg("--out")
            .arg(&args.out);
        if let Budget::Seconds(s) = args.budget {
            child.args(["--seconds", &s.to_string()]);
        }
        if args.smoke {
            child.arg("--smoke");
        }
        let record = args.out.join(format!("{}.json", workload.name()));
        // A record left by an earlier run must not stand in for this one.
        let _ = std::fs::remove_file(&record);
        let status = child.status();
        if !matches!(&status, Ok(s) if s.success()) {
            eprintln!("capy-benchmark: {} failed: {status:?}", workload.name());
            ok = false;
        }
        match std::fs::read_to_string(&record)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_json(&text).map_err(|e| e.to_string()))
        {
            Ok(doc) => workloads.push((workload.name().to_string(), doc)),
            Err(e) => {
                eprintln!("capy-benchmark: {}: {e}", record.display());
                ok = false;
            }
        }
    }
    let metric_defs = |defs: &[capy_benchmark::MetricDef]| {
        JsonValue::Object(
            defs.iter()
                .map(|d| {
                    let mut fields = vec![
                        ("unit".to_string(), JsonValue::String(d.unit.to_string())),
                        (
                            "better".to_string(),
                            JsonValue::String(d.better.keyword().to_string()),
                        ),
                    ];
                    if let Some(bound) = d.bound {
                        fields.push(("bound".to_string(), JsonValue::Number(bound)));
                    }
                    (d.name.to_string(), JsonValue::Object(fields))
                })
                .collect(),
        )
    };
    let doc = JsonValue::Object(vec![
        (
            "schema".to_string(),
            JsonValue::String("capy-benchmark/v1".to_string()),
        ),
        ("seed".to_string(), JsonValue::Number(args.seed as f64)),
        ("workers".to_string(), JsonValue::Number(WORKERS as f64)),
        ("end_to_end".to_string(), metric_defs(&END_TO_END)),
        ("per_layer".to_string(), metric_defs(&PER_LAYER)),
        ("workloads".to_string(), JsonValue::Object(workloads)),
    ]);
    let path = args.out.join("benchmark.json");
    if let Err(e) = std::fs::write(&path, doc.pretty()) {
        eprintln!("capy-benchmark: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("# wrote {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
