//! `scenario_batch`: seeded single-device manifests through
//! `run_batch` (the `capy-run` path), and its replica.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use capy_manifest::{
    compile, parse_manifest, result_path_for, run_batch, run_manifest_on, validate_json,
    BatchOutcome, ScenarioResult, EXIT_PASS, RESULT_SCHEMA,
};

use crate::inputs;
use crate::trace::{Layer, Trace, Tracer};
use crate::{create_dir, read, write_input, Bench, Config, Counts, WORKERS};

/// The batch workload, set up: manifests written, artifacts directory
/// ready.
pub(crate) struct Batch {
    paths: Vec<PathBuf>,
    results: PathBuf,
}

/// What a batch trial left on disk.
#[derive(PartialEq)]
pub(crate) struct BatchRun {
    exit_codes: Vec<i32>,
    artifacts: Vec<String>,
}

impl Bench for Batch {
    type Raw = BatchOutcome;
    type Output = BatchRun;
    const OP: &'static str = "manifest";
    const SPANS_PER_OP: u64 = 6;

    fn setup(config: &Config) -> Result<Batch, String> {
        let count = if config.smoke { 16 } else { 1024 };
        let dir = config.dir();
        let inputs_dir = dir.join("inputs");
        let results = dir.join("results");
        create_dir(&inputs_dir)?;
        create_dir(&results)?;
        let paths = (0..count)
            .map(|i| {
                let path = inputs_dir.join(format!("alarm-{i:04}.capy"));
                write_input(&path, &inputs::batch_manifest(config.seed, i))?;
                Ok(path)
            })
            .collect::<Result<_, String>>()?;
        Ok(Batch { paths, results })
    }

    fn trial(&self) -> Result<BatchOutcome, String> {
        Ok(run_batch(&self.paths, WORKERS, Some(&self.results)))
    }

    fn observe(&self, outcome: BatchOutcome) -> Result<BatchRun, String> {
        let mut run = BatchRun {
            exit_codes: Vec::with_capacity(outcome.entries.len()),
            artifacts: Vec::with_capacity(outcome.entries.len()),
        };
        for entry in &outcome.entries {
            run.exit_codes.push(entry.exit_code);
            run.artifacts.push(read(&entry.result_path)?);
        }
        Ok(run)
    }

    fn ops(&self, run: &BatchRun) -> u64 {
        run.exit_codes.len() as u64
    }

    fn failed(&self, run: &BatchRun) -> u64 {
        run.exit_codes.iter().filter(|&&c| c != EXIT_PASS).count() as u64
    }

    fn checks(&self, run: &BatchRun) -> Vec<String> {
        self.paths
            .iter()
            .zip(&run.artifacts)
            .filter_map(|(path, text)| {
                validate_json(text, Some(RESULT_SCHEMA))
                    .err()
                    .map(|e| format!("artifact of {}: {e}", path.display()))
            })
            .collect()
    }

    fn traced(&self, reference: &BatchRun, trace: &Trace) -> Result<Counts, String> {
        // Phase 1, like `run_batch`'s sweep: read, parse and run every
        // manifest on the workers, results kept in input order.
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, ScenarioResult)>> = Mutex::new(Vec::new());
        thread::scope(|scope| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|worker| {
                    let (next, done) = (&next, &done);
                    scope.spawn(move || -> Result<(), String> {
                        let mut t = trace.tracer(worker);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(path) = self.paths.get(i) else {
                                break;
                            };
                            let result = t.op(i as u64, |t| run_one(t, i as u64, path))?;
                            done.lock()
                                .expect("no batch worker panicked holding the results")
                                .push((i, result));
                        }
                        t.finish();
                        Ok(())
                    })
                })
                .collect();
            workers
                .into_iter()
                .try_for_each(|w| w.join().expect("batch replica worker panicked"))
        })?;
        let mut results = done.into_inner().expect("batch workers finished");
        results.sort_by_key(|(i, _)| *i);

        // Phase 2, like `run_batch`'s tail: render and write each
        // artifact in input order on the calling thread.
        let mut t = trace.tracer(WORKERS);
        let mut counts = Counts::default();
        for ((i, result), path) in results.iter().zip(&self.paths) {
            let index = *i as u64;
            let json = t.op(index, |t| {
                let json = t.time(Layer::ManifestEmit, index, |_| result.to_json().pretty());
                let target = result_path_for(path, Some(&self.results));
                t.time(Layer::ManifestWrite, index, |_| fs::write(&target, &json))
                    .map_err(|e| format!("cannot write {}: {e}", target.display()))?;
                Ok::<_, String>(json)
            })?;
            if reference.artifacts.get(*i) != Some(&json) {
                return Err(format!("replica artifact of {} differs", path.display()));
            }
            counts.add_run(&result.summary, 0);
            counts.artifacts += 1;
            counts.artifact_bytes += json.len() as u64;
        }
        t.finish();
        Ok(counts)
    }
}

/// Phase 1 of one manifest: read, parse, an extra compile (dropped) that
/// splits compile time out of run time, and the run.
fn run_one(
    t: &mut Tracer<'_>,
    index: u64,
    path: &std::path::Path,
) -> Result<ScenarioResult, String> {
    let text = t.time(Layer::ManifestRead, index, |_| read(path))?;
    let manifest = t
        .time(Layer::ManifestParse, index, |_| parse_manifest(&text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    t.time(Layer::ManifestCompile, index, |_| {
        compile(&manifest).map(drop)
    })
    .map_err(|e| format!("{}: {e}", path.display()))?;
    t.time(Layer::ManifestRun, index, |_| {
        run_manifest_on(&manifest, &path.display().to_string(), WORKERS)
    })
    .map_err(|e| format!("{}: {e}", path.display()))
}
