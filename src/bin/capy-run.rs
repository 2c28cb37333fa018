//! `capy-run`: the headless batch runner of the `capy-scenario/v1`
//! protocol.
//!
//! ```text
//! capy-run [--workers N] [--out-dir DIR] <manifest.capy | dir>...
//! capy-run --validate-json <file.json> [--schema NAME]
//! ```
//!
//! Each path is a manifest file or a directory (every `*.capy` inside,
//! sorted by name). Every manifest is compiled, run to its limits, and
//! judged by its assertions; a deterministic `<stem>.result.json`
//! artifact is written next to each manifest (or into `--out-dir`).
//! Batches shard across worker threads on the sweep engine, a `[fleet]`
//! manifest runs its population on the same worker count, and every
//! artifact is bit-identical for any worker count.
//!
//! Exit codes (the batch exits with the maximum across its manifests):
//! `0` pass, `1` assertion failed, `2` execution limit hit, `3` manifest
//! error, `4` internal or usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use capy_manifest::{run_batch, validate_json, EXIT_INTERNAL, EXIT_MANIFEST, EXIT_PASS};
use capybara::sweep::available_workers;

const USAGE: &str = "\
capy-run: headless runner for capy-scenario/v1 manifests

USAGE:
    capy-run [--workers N] [--out-dir DIR] <manifest.capy | dir>...
    capy-run --validate-json <file.json> [--schema NAME]

OPTIONS:
    --workers N          shard the batch, and each [fleet] population, over
                         N threads (default: all cores)
    --out-dir DIR        write <stem>.result.json artifacts into DIR
                         (default: next to each manifest)
    --validate-json F    check that F is well-formed JSON; with --schema,
                         also check it structurally matches a known schema
    --schema NAME        expected top-level schema of --validate-json
    --help               print this help

EXIT CODES:
    0  every manifest ran to its outcome and every assertion held
    1  at least one assertion failed
    2  an execution limit tripped (step / sim-time / energy budget)
    3  a manifest was unreadable, unparseable, or invalid
    4  internal or usage error";

fn fail_usage(message: &str) -> ExitCode {
    eprintln!("capy-run: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(EXIT_INTERNAL as u8)
}

fn collect_manifests(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_dir() {
        let mut found: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("cannot read directory {}: {e}", path.display()))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "capy"))
            .collect();
        found.sort();
        if found.is_empty() {
            return Err(format!("no *.capy manifests in {}", path.display()));
        }
        Ok(found)
    } else if path.is_file() {
        Ok(vec![path.to_path_buf()])
    } else {
        Err(format!("no such file or directory: {}", path.display()))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        println!("{USAGE}");
        return ExitCode::from(if args.is_empty() {
            EXIT_INTERNAL as u8
        } else {
            0
        });
    }

    let mut workers: Option<usize> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut validate: Option<PathBuf> = None;
    let mut schema: Option<String> = None;
    let mut inputs: Vec<PathBuf> = Vec::new();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => workers = Some(n),
                _ => return fail_usage("--workers needs a positive integer"),
            },
            "--out-dir" => match it.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => return fail_usage("--out-dir needs a directory"),
            },
            "--validate-json" => match it.next() {
                Some(file) => validate = Some(PathBuf::from(file)),
                None => return fail_usage("--validate-json needs a file"),
            },
            "--schema" => match it.next() {
                Some(name) => schema = Some(name),
                None => return fail_usage("--schema needs a schema name"),
            },
            flag if flag.starts_with("--") => {
                return fail_usage(&format!("unknown option `{flag}`"));
            }
            _ => inputs.push(PathBuf::from(arg)),
        }
    }

    if let Some(file) = validate {
        if !inputs.is_empty() {
            return fail_usage("--validate-json takes no manifest inputs");
        }
        let text = match std::fs::read_to_string(&file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("capy-run: cannot read {}: {e}", file.display());
                return ExitCode::from(EXIT_MANIFEST as u8);
            }
        };
        return match validate_json(&text, schema.as_deref()) {
            Ok(()) => {
                println!("{}: valid", file.display());
                ExitCode::from(EXIT_PASS as u8)
            }
            Err(e) => {
                eprintln!("capy-run: {}: {e}", file.display());
                ExitCode::from(EXIT_MANIFEST as u8)
            }
        };
    }

    if inputs.is_empty() {
        return fail_usage("no manifests given");
    }
    let mut manifests: Vec<PathBuf> = Vec::new();
    for input in &inputs {
        match collect_manifests(input) {
            Ok(mut found) => manifests.append(&mut found),
            Err(e) => {
                eprintln!("capy-run: {e}");
                return ExitCode::from(EXIT_MANIFEST as u8);
            }
        }
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("capy-run: cannot create {}: {e}", dir.display());
            return ExitCode::from(EXIT_INTERNAL as u8);
        }
    }

    let workers = workers.unwrap_or_else(available_workers);
    let started = Instant::now();
    let batch = run_batch(&manifests, workers, out_dir.as_deref());
    let wall = started.elapsed();

    for entry in &batch.entries {
        match &entry.result {
            Ok(r) => println!(
                "{}: {} (exit {}) — outcome {}, {} assertion(s), {}",
                entry.path.display(),
                if r.passed { "pass" } else { "FAIL" },
                entry.exit_code,
                r.outcome,
                r.assertions.len(),
                entry.result_path.display(),
            ),
            Err(e) => println!(
                "{}: MANIFEST ERROR (exit {}) — {e}",
                entry.path.display(),
                entry.exit_code,
            ),
        }
    }
    // Wall time goes to the console only — never into the artifacts,
    // which must stay bit-identical across reruns.
    println!(
        "{} manifest(s) on {} worker(s) in {:.2?}; batch exit {}",
        batch.entries.len(),
        workers,
        wall,
        batch.exit_code,
    );
    ExitCode::from(batch.exit_code as u8)
}
