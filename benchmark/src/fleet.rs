//! `fleet_short_leg` and `fleet_long_orbital`: a `[fleet]` manifest run
//! through `run_manifest_on`, and its replica.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;

use capy_manifest::{
    compile_with, parse_manifest, run_manifest_on, validate_json, DeviceTweak, FleetStanza,
    LeakedNames, ScenarioManifest, ScenarioResult, EXIT_PASS, RESULT_SCHEMA,
};
use capy_units::rng::derive_seed;
use capy_units::{Joules, SimDuration, SimTime};
use capybara::fleet::{
    parse_harvest_trace, DeviceOutcome, FleetAccumulator, FleetSpec, SharedEnvironment,
    TemplateSpec, FLEET_SHARDS,
};
use capybara::sweep::DEFAULT_BASE_SEED;

use crate::inputs;
use crate::trace::{Layer, Trace, Tracer};
use crate::{create_dir, read, write_input, Bench, Config, Counts, Workload, WORKERS};

/// One fleet workload, set up.
pub(crate) struct Fleet {
    manifest: ScenarioManifest,
    /// The manifest's path, which its trace file resolves against.
    file: String,
    /// The parsed harvest trace, when the manifest names one.
    trace: Option<Vec<(SimTime, f64)>>,
    /// A smaller population of the same fleet, for the worker-count
    /// identity check.
    reduced: ScenarioManifest,
    /// Run the generator-fidelity check (the short-leg generator is the
    /// one with a golden artifact).
    fidelity: bool,
}

/// A trial's result and its artifact text.
pub(crate) struct FleetRun {
    result: ScenarioResult,
    json: String,
}

impl PartialEq for FleetRun {
    fn eq(&self, other: &Self) -> bool {
        self.json == other.json
    }
}

impl Bench for Fleet {
    type Raw = ScenarioResult;
    type Output = FleetRun;
    const OP: &'static str = "device";
    const SPANS_PER_OP: u64 = 5;

    fn setup(config: &Config) -> Result<Fleet, String> {
        let orbital = config.workload == Workload::FleetLongOrbital;
        let seed = inputs::fleet_seed(config.seed, orbital);
        let (text, reduced) = match (orbital, config.smoke) {
            (false, false) => (
                inputs::short_leg_manifest(seed, 1_024_000, 10.0),
                inputs::short_leg_manifest(seed, 10_240, 10.0),
            ),
            (false, true) => (
                inputs::short_leg_manifest(seed, 4_096, 10.0),
                inputs::short_leg_manifest(seed, 512, 10.0),
            ),
            (true, false) => (
                inputs::orbital_manifest(seed, 1_024, 3600.0),
                inputs::orbital_manifest(seed, 64, 3600.0),
            ),
            (true, true) => (
                inputs::orbital_manifest(seed, 32, 3600.0),
                inputs::orbital_manifest(seed, 8, 3600.0),
            ),
        };

        let dir = config.dir();
        create_dir(&dir.join("traces"))?;
        let path = dir.join(format!("{}.capy", config.workload.name()));
        write_input(&path, &text)?;
        write_input(
            &dir.join(inputs::CLOUDY_DAY_TRACE_PATH),
            inputs::CLOUDY_DAY_TRACE,
        )?;

        let text = read(&path)?;
        let manifest = parse_manifest(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let trace = match manifest.fleet.as_ref().and_then(|f| f.trace.as_ref()) {
            Some(name) => {
                let trace_path = dir.join(name);
                Some(
                    parse_harvest_trace(&read(&trace_path)?)
                        .map_err(|e| format!("{}: {e}", trace_path.display()))?,
                )
            }
            None => None,
        };
        Ok(Fleet {
            manifest,
            file: path.display().to_string(),
            trace,
            reduced: parse_manifest(&reduced).map_err(|e| e.to_string())?,
            fidelity: !orbital,
        })
    }

    fn trial(&self) -> Result<ScenarioResult, String> {
        run_manifest_on(&self.manifest, &self.file, WORKERS).map_err(|e| e.to_string())
    }

    fn observe(&self, result: ScenarioResult) -> Result<FleetRun, String> {
        let json = result.to_json().pretty();
        Ok(FleetRun { result, json })
    }

    fn ops(&self, output: &FleetRun) -> u64 {
        output.result.fleet.as_ref().map_or(0, |f| f.devices)
    }

    fn failed(&self, output: &FleetRun) -> u64 {
        output.result.fleet.as_ref().map_or(0, |f| f.dead_devices)
    }

    fn checks(&self, reference: &FleetRun) -> Vec<String> {
        let mut failures = Vec::new();
        if reference.result.exit_code != EXIT_PASS {
            failures.push(format!(
                "fleet scenario exited {}: {:?}",
                reference.result.exit_code, reference.result.assertions
            ));
        }
        if let Err(e) = validate_json(&reference.json, Some(RESULT_SCHEMA)) {
            failures.push(format!("fleet artifact: {e}"));
        }
        let by_workers = [1, WORKERS].map(|workers| {
            run_manifest_on(&self.reduced, &self.file, workers).map(|r| r.to_json().pretty())
        });
        match by_workers {
            [Ok(one), Ok(two)] if one == two => {}
            [Ok(_), Ok(_)] => failures.push(format!(
                "run_manifest_on differs between 1 and {WORKERS} workers"
            )),
            [Err(e), _] | [_, Err(e)] => failures.push(format!("reduced fleet: {e}")),
        }
        if self.fidelity {
            if let Err(e) = self.golden_fidelity() {
                failures.push(e);
            }
        }
        failures
    }

    fn traced(&self, reference: &FleetRun, trace: &Trace) -> Result<Counts, String> {
        let (acc, counts) = self.replica(trace)?;
        matches_result(&acc, &reference.result, &self.manifest)?;
        Ok(Counts {
            artifacts: 1,
            artifact_bytes: reference.json.len() as u64,
            ..counts
        })
    }
}

impl Fleet {
    /// The generator at seed 17, 10,240 devices and 75 s must reproduce
    /// the checked-in golden artifact byte for byte.
    fn golden_fidelity(&self) -> Result<(), String> {
        let text = inputs::short_leg_manifest(17, 10_240, 75.0);
        let manifest = parse_manifest(&text).map_err(|e| e.to_string())?;
        // The trace resolves beside the generated manifest; the artifact
        // records the checked-in manifest's path, as the golden does.
        let mut result =
            run_manifest_on(&manifest, &self.file, WORKERS).map_err(|e| e.to_string())?;
        result.file = inputs::FLEET_TRACE_FILE.to_string();
        if result.to_json().pretty() == inputs::FLEET_TRACE_GOLDEN {
            Ok(())
        } else {
            Err("the fleet generator no longer reproduces fleet_trace.result.json".to_string())
        }
    }

    /// The shared environment `run_manifest_on` builds for `stanza`.
    fn environment(
        &self,
        stanza: &FleetStanza,
        run_seed: u64,
    ) -> Result<SharedEnvironment, String> {
        let time = |s: f64| SimDuration::from_micros((s * 1e6).round() as u64);
        let mut env = match stanza.eclipse_period_s {
            Some(period) => SharedEnvironment::orbital(time(period), stanza.eclipse_sunlit),
            None => SharedEnvironment::steady(),
        };
        if let Some(samples) = &self.trace {
            env = env.with_trace(samples.clone()).map_err(|e| e.to_string())?;
        }
        if stanza.dips > 0 {
            let horizon_s = self.manifest.limits.max_sim_seconds;
            env = env.with_dips(
                derive_seed(run_seed, 0xD19),
                stanza.dips as usize,
                time(horizon_s / f64::from(stanza.dips + 1)),
                time(stanza.dip_hold_s),
                stanza.dip_factor,
            );
        }
        env.shading(stanza.shading).map_err(|e| e.to_string())
    }

    /// The production fleet loop, traced: devices striped over the
    /// fixed shards, claimed by [`WORKERS`] threads, each folded into
    /// its shard's accumulator, and the shards merged in order.
    fn replica(&self, trace: &Trace) -> Result<(FleetAccumulator, Counts), String> {
        let manifest = &self.manifest;
        let stanza = manifest
            .fleet
            .as_ref()
            .ok_or("the manifest has no [fleet]")?;
        let run_seed = derive_seed(DEFAULT_BASE_SEED, manifest.seed);
        let horizon = SimTime::from_micros((manifest.limits.max_sim_seconds * 1e6).round() as u64);
        let env = self.environment(stanza, run_seed)?;
        let names = LeakedNames::from_manifest(manifest);
        let fleet_name: &'static str = Box::leak(manifest.name.clone().into_boxed_str());
        let entries: Vec<&'static str> = stanza
            .mix
            .iter()
            .map(|(task, _)| {
                let index = manifest.tasks.iter().position(|t| t.name == *task);
                names.task(index.expect("the parser resolved mix references"))
            })
            .collect();
        let spec = if stanza.mix.is_empty() {
            FleetSpec::new(fleet_name, stanza.devices, horizon)
        } else {
            let templates = entries
                .iter()
                .zip(&stanza.mix)
                .map(|(&name, (_, count))| TemplateSpec::new(name, *count))
                .collect();
            FleetSpec::mixed(fleet_name, horizon, templates)
        }
        .fleet_seed(run_seed)
        .panel_jitter(stanza.panel_jitter_pct / 100.0)
        .rate_jitter(stanza.rate_jitter_pct / 100.0)
        .environment(env.clone());

        let devices = spec.devices();
        let shards = FLEET_SHARDS.min(devices).max(1);
        let next = AtomicU64::new(0);
        let done: Mutex<Vec<(u64, FleetAccumulator, Counts)>> = Mutex::new(Vec::new());
        let device = |t: &mut Tracer<'_>, index: u64, acc: &mut FleetAccumulator| {
            let point = t.time(Layer::FleetDerive, index, |_| spec.device(index));
            let tweak = DeviceTweak {
                env: &env,
                point: &point,
                entry: entries.get(point.template).copied(),
            };
            let compiled = t.time(Layer::ManifestCompile, index, |_| {
                compile_with(manifest, &names, Some(&tweak))
            });
            let compiled = compiled.map_err(|e| e.to_string())?;
            let mut sim = compiled.sim;
            t.time(Layer::SimRun, index, |_| sim.run_limited(&compiled.limits));
            let outcome = t.time(Layer::FleetOutcome, index, |_| {
                let completions = (0..manifest.tasks.len())
                    .map(|i| sim.ctx().completions(i))
                    .collect();
                DeviceOutcome::from_sim(&sim).with_task_completions(completions)
            });
            t.time(Layer::FleetFold, index, |_| acc.fold(horizon, &outcome));
            Ok::<_, String>((outcome.summary, sim.power().charge_segments()))
        };

        thread::scope(|scope| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|worker| {
                    let (next, done, device) = (&next, &done, &device);
                    scope.spawn(move || -> Result<(), String> {
                        let mut t = trace.tracer(worker);
                        loop {
                            let shard = next.fetch_add(1, Ordering::Relaxed);
                            if shard >= shards {
                                break;
                            }
                            let mut acc = FleetAccumulator::new();
                            let mut counts = Counts::default();
                            let mut index = shard;
                            while index < devices {
                                let (summary, segments) =
                                    t.op(index, |t| device(t, index, &mut acc))?;
                                counts.add_run(&summary, segments);
                                index += shards;
                            }
                            done.lock()
                                .expect("no fleet worker panicked holding the shard list")
                                .push((shard, acc, counts));
                        }
                        t.finish();
                        Ok(())
                    })
                })
                .collect();
            workers
                .into_iter()
                .try_for_each(|w| w.join().expect("fleet replica worker panicked"))
        })?;

        let mut shards_done = done.into_inner().expect("fleet workers finished");
        shards_done.sort_by_key(|(shard, _, _)| *shard);
        let mut t = trace.tracer(WORKERS);
        let mut merged = FleetAccumulator::new();
        let mut counts = Counts::default();
        for (shard, acc, shard_counts) in &shards_done {
            t.time(Layer::FleetMerge, *shard, |_| merged.merge(acc));
            counts.absorb(shard_counts);
        }
        t.finish();
        Ok((merged, counts))
    }
}

/// Checks the replica's merged accumulator against the fields
/// `run_manifest_on` derived from its own.
fn matches_result(
    acc: &FleetAccumulator,
    result: &ScenarioResult,
    manifest: &ScenarioManifest,
) -> Result<(), String> {
    let fleet = result
        .fleet
        .as_ref()
        .ok_or("the result has no fleet object")?;
    let s = &result.summary;
    let min_completions = if acc.min_device_completions == u64::MAX {
        0
    } else {
        acc.min_device_completions
    };
    let charge_micros = u64::try_from(acc.charge_micros).unwrap_or(u64::MAX);
    let fields = [
        ("devices", acc.devices, fleet.devices),
        ("dead_devices", acc.dead_devices, fleet.dead_devices),
        (
            "stalled_devices",
            acc.stalled_devices,
            fleet.stalled_devices,
        ),
        (
            "min_device_completions",
            min_completions,
            fleet.min_device_completions,
        ),
        (
            "max_device_completions",
            acc.max_device_completions,
            fleet.max_device_completions,
        ),
        (
            "latency_p50_us",
            acc.latency.quantile(0.5).unwrap_or(0),
            fleet.latency_p50_us,
        ),
        (
            "latency_p99_us",
            acc.latency.quantile(0.99).unwrap_or(0),
            fleet.latency_p99_us,
        ),
        ("boots", acc.boots, s.boots),
        ("charges", acc.charges, s.charges),
        ("precharges", acc.precharges, s.precharges),
        ("reconfigurations", acc.reconfigurations, s.reconfigurations),
        ("bursts", acc.bursts, s.bursts),
        ("power_failures", acc.power_failures, s.power_failures),
        ("bank_failures", acc.bank_failures, s.bank_failures),
        ("mode_remaps", acc.mode_remaps, s.mode_remaps),
        ("attempts", acc.attempts, s.attempts),
        ("completions", acc.completions, s.completions),
        ("failures", acc.failures, s.failures),
        ("reboots", acc.reboots, s.reboots),
        ("charge_micros", charge_micros, s.charge_time.as_micros()),
    ];
    for (name, replica, production) in fields {
        if replica != production {
            return Err(format!(
                "replica {name} = {replica}, run_manifest_on reported {production}"
            ));
        }
    }
    let delivered = Joules::new(acc.delivered_nanojoules as f64 / 1e9);
    if delivered != s.delivered_energy {
        return Err("replica delivered energy differs".to_string());
    }
    if acc.survival != fleet.survival {
        return Err("replica survival histogram differs".to_string());
    }
    if acc.availability().to_bits() != result.availability.to_bits() {
        return Err("replica availability differs".to_string());
    }
    for (i, (task, count)) in result.task_completions.iter().enumerate() {
        let replica = acc.task_completions.get(i).copied().unwrap_or(0);
        if replica != *count || manifest.tasks[i].name != *task {
            return Err(format!(
                "replica task `{task}` completions {replica}, expected {count}"
            ));
        }
    }
    Ok(())
}
