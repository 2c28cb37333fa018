//! Executes compiled scenarios and renders `capy-result/v1` artifacts.
//!
//! A run is **deterministic**: the artifact contains no wall-clock or
//! host-specific data, so the same manifest produces a bit-identical
//! `result.json` on every rerun and for any batch worker count (the
//! golden-determinism tests of the protocol suite). Exit codes are part
//! of the protocol:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | ran to its outcome, every assertion held |
//! | 1    | at least one assertion failed |
//! | 2    | an execution limit tripped ([`RunOutcome::is_limit`]) |
//! | 3    | the manifest is unreadable, unparseable, or invalid |
//! | 4    | internal error (a bug in the runner itself) |

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use capy_units::rng::derive_seed;
use capy_units::{Joules, SimDuration, SimTime};
use capybara::fleet::{
    parse_harvest_trace, run_fleet_on, DeviceOutcome, DevicePoint, FleetReport, FleetSpec,
    SharedEnvironment, TemplateSpec, SURVIVAL_BUCKETS,
};
use capybara::sim::{RunOutcome, SimEvent};
use capybara::sweep::{map_on, RunSummary, DEFAULT_BASE_SEED};

use crate::compile::{compile, stamp, template, CompiledScenario, LeakedNames};
use crate::json::JsonValue;
use crate::model::{AssertionSpec, EventKind, FleetStanza, Keyword, Num, ScenarioManifest};
use crate::parse::{parse_manifest, ManifestError};

/// Exit code: ran to its outcome and every assertion held.
pub const EXIT_PASS: i32 = 0;
/// Exit code: at least one assertion failed.
pub const EXIT_ASSERT: i32 = 1;
/// Exit code: an execution limit tripped.
pub const EXIT_LIMIT: i32 = 2;
/// Exit code: the manifest is unreadable, unparseable, or invalid.
pub const EXIT_MANIFEST: i32 = 3;
/// Exit code: internal runner error.
pub const EXIT_INTERNAL: i32 = 4;

/// The `result.json` schema identifier.
pub const RESULT_SCHEMA: &str = "capy-result/v1";

/// One evaluated assertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssertionResult {
    /// The assertion, re-rendered in manifest syntax.
    pub check: String,
    /// Whether it held.
    pub passed: bool,
    /// The observed value, human-readable.
    pub detail: String,
}

/// The complete, deterministic outcome of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The manifest's declared name.
    pub name: String,
    /// The manifest file, as given to the runner.
    pub file: String,
    /// The manifest's declared seed.
    pub seed: u64,
    /// The run seed derived from the protocol base seed and the declared
    /// seed — provenance for future stochastic harvest models
    /// (independent of batch position, so single-file and batch runs
    /// agree).
    pub run_seed: u64,
    /// The variant keyword.
    pub variant: &'static str,
    /// The terminal [`RunOutcome`], as its protocol keyword.
    pub outcome: &'static str,
    /// The protocol exit code for this scenario alone.
    pub exit_code: i32,
    /// `exit_code == 0`.
    pub passed: bool,
    /// The run's aggregate counters.
    pub summary: RunSummary,
    /// Fraction of simulated time the device was not charging.
    pub availability: f64,
    /// Committed completions per task, manifest order.
    pub task_completions: Vec<(String, u64)>,
    /// Every assertion, in manifest order.
    pub assertions: Vec<AssertionResult>,
    /// Population aggregates when the manifest declared a `[fleet]`
    /// stanza; `None` for single-device scenarios.
    pub fleet: Option<FleetResult>,
}

/// The population-level aggregate a `[fleet]` scenario reports — all
/// integer quantities, so the artifact stays bit-identical for any
/// worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetResult {
    /// Devices simulated.
    pub devices: u64,
    /// Devices that died (bank failure or stall) before the horizon.
    pub dead_devices: u64,
    /// Devices whose run ended in a harvester stall.
    pub stalled_devices: u64,
    /// Fewest completions any single device committed.
    pub min_device_completions: u64,
    /// Most completions any single device committed.
    pub max_device_completions: u64,
    /// Cross-device median charge-pause latency, microseconds (0 when no
    /// pause occurred anywhere in the fleet).
    pub latency_p50_us: u64,
    /// Cross-device p99 charge-pause latency, microseconds.
    pub latency_p99_us: u64,
    /// Deaths per horizon bucket (the wear-out survival histogram).
    pub survival: [u64; SURVIVAL_BUCKETS],
    /// The heterogeneous mix, echoed from the manifest (empty for a
    /// homogeneous fleet).
    pub mix: Vec<(String, u64)>,
    /// The harvest-trace file, echoed from the manifest.
    pub trace: Option<String>,
}

fn outcome_keyword(outcome: RunOutcome) -> &'static str {
    match outcome {
        RunOutcome::HorizonReached => "horizon",
        RunOutcome::Stopped => "stopped",
        RunOutcome::Stalled { .. } => "stalled",
        RunOutcome::NoProgress { .. } => "no-progress",
        RunOutcome::StepBudget { .. } => "step-budget",
        RunOutcome::EnergyBudget { .. } => "energy-budget",
    }
}

fn event_matches(kind: EventKind, event: &SimEvent) -> bool {
    matches!(
        (kind, event),
        (EventKind::Boot, SimEvent::Boot { .. })
            | (
                EventKind::Charge,
                SimEvent::Charge {
                    precharge: false,
                    ..
                }
            )
            | (
                EventKind::Precharge,
                SimEvent::Charge {
                    precharge: true,
                    ..
                }
            )
            | (EventKind::Reconfigure, SimEvent::Reconfigure { .. })
            | (EventKind::Burst, SimEvent::BurstActivated { .. })
            | (EventKind::PowerFailure, SimEvent::PowerFailure { .. })
            | (EventKind::BankFailed, SimEvent::BankFailed { .. })
            | (EventKind::ModeRemapped, SimEvent::ModeRemapped { .. })
            | (EventKind::Stalled, SimEvent::Stalled { .. })
    )
}

/// Runs `manifest` to its limits and evaluates its assertions.
/// `file` is recorded verbatim in the artifact. A manifest with a
/// `[fleet]` stanza runs the whole population on `workers` threads
/// (`0` = every core) and reports the aggregate; single-device
/// scenarios ignore the count. The result is bit-identical for any
/// worker count.
///
/// # Errors
///
/// Returns [`ManifestError::Build`] when the scenario does not compile.
pub fn run_manifest_on(
    manifest: &ScenarioManifest,
    file: &str,
    workers: usize,
) -> Result<ScenarioResult, ManifestError> {
    if let Some(stanza) = &manifest.fleet {
        return run_fleet_manifest(manifest, stanza, file, workers);
    }
    let compiled = compile(manifest)?;
    let mut sim = compiled.sim;
    let outcome = sim.run_limited(&compiled.limits);

    // Wall time is deliberately zeroed: the artifact must be
    // bit-identical across reruns and hosts.
    let summary = RunSummary::from_sim(&sim, Duration::ZERO);
    let availability = 1.0 - summary.charge_fraction();
    let ctx = sim.ctx();

    let task_completions: Vec<(String, u64)> = manifest
        .tasks
        .iter()
        .enumerate()
        .map(|(i, t)| (t.name.clone(), ctx.completions(i)))
        .collect();

    let task_index = |name: &str| -> usize {
        manifest
            .tasks
            .iter()
            .position(|t| t.name == name)
            .expect("parser resolved task references")
    };

    let assertions: Vec<AssertionResult> = manifest
        .assertions
        .iter()
        .map(|a| match a {
            AssertionSpec::TaskCompletions { task, op, count } => {
                let got = ctx.completions(task_index(task));
                AssertionResult {
                    check: format!("completions = {task} {} {count}", op.keyword()),
                    passed: op.holds(got, *count),
                    detail: format!("task `{task}` committed {got} completions"),
                }
            }
            AssertionSpec::TotalCompletions { op, count } => {
                let got = ctx.total_completions();
                AssertionResult {
                    check: format!("total_completions = {} {count}", op.keyword()),
                    passed: op.holds(got, *count),
                    detail: format!("{got} completions committed in total"),
                }
            }
            AssertionSpec::Failures { op, count } => {
                let got = summary.failures;
                AssertionResult {
                    check: format!("failures = {} {count}", op.keyword()),
                    passed: op.holds(got, *count),
                    detail: format!("{got} attempts were cut short by power failure"),
                }
            }
            AssertionSpec::RequireEvent(kind) => {
                let got = sim
                    .events()
                    .iter()
                    .filter(|e| event_matches(*kind, e))
                    .count();
                AssertionResult {
                    check: format!("require_event = {}", kind.keyword()),
                    passed: got > 0,
                    detail: format!("{got} `{}` events on the timeline", kind.keyword()),
                }
            }
            AssertionSpec::ForbidEvent(kind) => {
                let got = sim
                    .events()
                    .iter()
                    .filter(|e| event_matches(*kind, e))
                    .count();
                AssertionResult {
                    check: format!("forbid_event = {}", kind.keyword()),
                    passed: got == 0,
                    detail: format!("{got} `{}` events on the timeline", kind.keyword()),
                }
            }
            AssertionSpec::FinalMode(mode) => {
                let current = sim
                    .runtime_state()
                    .current_mode()
                    .map(|m| manifest.modes[m.0].name.as_str());
                AssertionResult {
                    check: format!("final_mode = {mode}"),
                    passed: current == Some(mode.as_str()),
                    detail: format!(
                        "final mode is {}",
                        current.map_or_else(|| "(none)".to_string(), |m| format!("`{m}`"))
                    ),
                }
            }
            AssertionSpec::MinAvailability(min) => AssertionResult {
                check: format!("min_availability = {}", Num(*min)),
                passed: availability >= *min,
                detail: format!(
                    "device was available {:.1}% of simulated time",
                    availability * 100.0
                ),
            },
        })
        .collect();

    let exit_code = if outcome.is_limit() {
        EXIT_LIMIT
    } else if assertions.iter().any(|a| !a.passed) {
        EXIT_ASSERT
    } else {
        EXIT_PASS
    };

    Ok(ScenarioResult {
        name: manifest.name.clone(),
        file: file.to_string(),
        seed: manifest.seed,
        run_seed: derive_seed(DEFAULT_BASE_SEED, manifest.seed),
        variant: manifest.variant.keyword(),
        outcome: outcome_keyword(outcome),
        exit_code,
        passed: exit_code == EXIT_PASS,
        summary,
        availability,
        task_completions,
        assertions,
        fleet: None,
    })
}

/// Builds the shared environment a `[fleet]` stanza describes. Dip
/// onsets derive from the run seed, with mean spacing that spreads the
/// requested count across the horizon. A `trace` file resolves relative
/// to the manifest's directory.
fn fleet_environment(
    stanza: &FleetStanza,
    run_seed: u64,
    horizon_s: f64,
    manifest_file: &str,
) -> Result<SharedEnvironment, ManifestError> {
    let build_err = |message: String| ManifestError::Build { message };
    let time = |s: f64| SimDuration::from_micros((s * 1e6).round() as u64);
    let mut env = match stanza.eclipse_period_s {
        Some(period) => SharedEnvironment::orbital(time(period), stanza.eclipse_sunlit),
        None => SharedEnvironment::steady(),
    };
    if let Some(trace_file) = &stanza.trace {
        let path = Path::new(manifest_file)
            .parent()
            .unwrap_or_else(|| Path::new("."))
            .join(trace_file);
        let text = fs::read_to_string(&path)
            .map_err(|e| build_err(format!("cannot read trace {}: {e}", path.display())))?;
        let samples = parse_harvest_trace(&text)
            .map_err(|e| build_err(format!("trace {}: {e}", path.display())))?;
        env = env
            .with_trace(samples)
            .map_err(|e| build_err(format!("trace {}: {e}", path.display())))?;
    }
    if stanza.dips > 0 {
        env = env.with_dips(
            derive_seed(run_seed, 0xD19),
            stanza.dips as usize,
            dip_mean_gap(horizon_s, stanza.dips),
            time(stanza.dip_hold_s),
            stanza.dip_factor,
        );
    }
    env.shading(stanza.shading)
        .map_err(|e| build_err(e.to_string()))
}

/// The mean spacing of `dips` dip onsets spread across a `horizon_s`
/// run, rounded to whole microseconds. The parser rejects a count whose
/// gap rounds to zero.
pub(crate) fn dip_mean_gap(horizon_s: f64, dips: u32) -> SimDuration {
    SimDuration::from_micros((horizon_s / (f64::from(dips) + 1.0) * 1e6).round() as u64)
}

/// A `[fleet]` manifest compiled once: the population's [`FleetSpec`]
/// and one template per entry task (one for `devices =`, one per `mix`
/// entry). A device is a clone of its template, stamped; it equals the
/// device [`compile_with`](crate::compile_with) builds alone, bit for bit.
pub struct CompiledFleet {
    spec: FleetSpec,
    templates: Vec<CompiledScenario>,
}

impl CompiledFleet {
    /// Compiles `manifest`'s fleet; a `trace` file resolves against the
    /// manifest's path `file`. Build errors surface here, before any
    /// device runs.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError::Build`] when the manifest has no
    /// `[fleet]` stanza, its trace cannot be read, or a template does not
    /// compile.
    pub fn new(manifest: &ScenarioManifest, file: &str) -> Result<Self, ManifestError> {
        let Some(stanza) = &manifest.fleet else {
            let message = "the manifest has no [fleet] stanza".to_string();
            return Err(ManifestError::Build { message });
        };
        let run_seed = derive_seed(DEFAULT_BASE_SEED, manifest.seed);
        let horizon = SimTime::from_micros((manifest.limits.max_sim_seconds * 1e6).round() as u64);
        let env = fleet_environment(stanza, run_seed, manifest.limits.max_sim_seconds, file)?;
        let names = LeakedNames::from_manifest(manifest);
        let fleet_name: &'static str = Box::leak(manifest.name.clone().into_boxed_str());

        // A mix template's entry task gives its name to the template, so a
        // device's template index maps straight to its boot task.
        let entries: Vec<&'static str> = stanza
            .mix
            .iter()
            .map(|(task, _)| {
                let index = manifest
                    .tasks
                    .iter()
                    .position(|t| t.name == *task)
                    .expect("parser resolved mix references");
                names.task(index)
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
        .environment(env);

        // Perturbations never add modes or annotations, so a template
        // that compiles compiles for every device.
        let templates = if entries.is_empty() {
            vec![template(manifest, &names, None)?]
        } else {
            entries
                .iter()
                .map(|&entry| template(manifest, &names, Some(entry)))
                .collect::<Result<_, _>>()?
        };
        Ok(Self { spec, templates })
    }

    /// The population: its size, horizon, environment and devices.
    #[must_use]
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// The device at `point`, ready to run: a clone of its template with
    /// the device's panel scale, placement and task rate stamped on.
    #[must_use]
    pub fn device(&self, point: &DevicePoint) -> CompiledScenario {
        let mut device = self.templates[point.template].clone();
        stamp(&mut device.sim, self.spec.env(), point);
        device
    }
}

/// The fleet path of [`run_manifest_on`]: the manifest compiles once
/// ([`CompiledFleet`]), every device runs from a clone of its template,
/// and only the streamed aggregate survives. Count assertions evaluate
/// against the population totals; event and final-mode assertions have
/// no aggregate meaning and are rejected.
fn run_fleet_manifest(
    manifest: &ScenarioManifest,
    stanza: &FleetStanza,
    file: &str,
    workers: usize,
) -> Result<ScenarioResult, ManifestError> {
    for a in &manifest.assertions {
        if matches!(
            a,
            AssertionSpec::RequireEvent(_)
                | AssertionSpec::ForbidEvent(_)
                | AssertionSpec::FinalMode(_)
        ) {
            return Err(ManifestError::Build {
                message: "event and final-mode assertions are per-device; a [fleet] scenario \
                          supports only count and availability assertions"
                    .to_string(),
            });
        }
    }

    let compiled = CompiledFleet::new(manifest, file)?;
    let report: FleetReport = run_fleet_on(compiled.spec(), workers, |point| {
        let CompiledScenario { mut sim, limits } = compiled.device(point);
        let _ = sim.run_limited(&limits);
        let completions = (0..manifest.tasks.len())
            .map(|i| sim.ctx().completions(i))
            .collect();
        DeviceOutcome::from_sim(&sim).with_task_completions(completions)
    });
    let acc = &report.acc;
    let availability = acc.availability();

    // The aggregate in RunSummary clothing, so the artifact's `summary`
    // object keeps its shape: counters are population totals, `end` is
    // the per-device horizon, wall stays zero.
    #[allow(clippy::cast_precision_loss)]
    let summary = RunSummary {
        boots: acc.boots,
        charges: acc.charges,
        precharges: acc.precharges,
        reconfigurations: acc.reconfigurations,
        bursts: acc.bursts,
        power_failures: acc.power_failures,
        bank_failures: acc.bank_failures,
        mode_remaps: acc.mode_remaps,
        stalled: acc.stalled_devices > 0,
        charge_time: SimDuration::from_micros(acc.charge_micros.min(u128::from(u64::MAX)) as u64),
        attempts: acc.attempts,
        completions: acc.completions,
        failures: acc.failures,
        reboots: acc.reboots,
        delivered_energy: Joules::new(acc.delivered_nanojoules as f64 / 1e9),
        end: compiled.spec().horizon(),
        wall: Duration::ZERO,
    };

    let task_completions: Vec<(String, u64)> = manifest
        .tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            (
                t.name.clone(),
                acc.task_completions.get(i).copied().unwrap_or(0),
            )
        })
        .collect();

    let assertions: Vec<AssertionResult> = manifest
        .assertions
        .iter()
        .map(|a| match a {
            AssertionSpec::TaskCompletions { task, op, count } => {
                let index = manifest
                    .tasks
                    .iter()
                    .position(|t| t.name == *task)
                    .expect("parser resolved task references");
                let got = acc.task_completions.get(index).copied().unwrap_or(0);
                AssertionResult {
                    check: format!("completions = {task} {} {count}", op.keyword()),
                    passed: op.holds(got, *count),
                    detail: format!("task `{task}` committed {got} completions fleet-wide"),
                }
            }
            AssertionSpec::TotalCompletions { op, count } => AssertionResult {
                check: format!("total_completions = {} {count}", op.keyword()),
                passed: op.holds(acc.completions, *count),
                detail: format!("{} completions committed fleet-wide", acc.completions),
            },
            AssertionSpec::Failures { op, count } => AssertionResult {
                check: format!("failures = {} {count}", op.keyword()),
                passed: op.holds(acc.failures, *count),
                detail: format!(
                    "{} attempts were cut short by power failure fleet-wide",
                    acc.failures
                ),
            },
            AssertionSpec::MinAvailability(min) => AssertionResult {
                check: format!("min_availability = {}", Num(*min)),
                passed: availability >= *min,
                detail: format!(
                    "fleet was available {:.1}% of simulated device time",
                    availability * 100.0
                ),
            },
            AssertionSpec::RequireEvent(_)
            | AssertionSpec::ForbidEvent(_)
            | AssertionSpec::FinalMode(_) => unreachable!("rejected above"),
        })
        .collect();

    let exit_code = if assertions.iter().any(|a| !a.passed) {
        EXIT_ASSERT
    } else {
        EXIT_PASS
    };

    let fleet = FleetResult {
        devices: acc.devices,
        dead_devices: acc.dead_devices,
        stalled_devices: acc.stalled_devices,
        min_device_completions: if acc.min_device_completions == u64::MAX {
            0
        } else {
            acc.min_device_completions
        },
        max_device_completions: acc.max_device_completions,
        latency_p50_us: acc.latency.quantile(0.5).unwrap_or(0),
        latency_p99_us: acc.latency.quantile(0.99).unwrap_or(0),
        survival: acc.survival,
        mix: stanza.mix.clone(),
        trace: stanza.trace.clone(),
    };

    Ok(ScenarioResult {
        name: manifest.name.clone(),
        file: file.to_string(),
        seed: manifest.seed,
        run_seed: derive_seed(DEFAULT_BASE_SEED, manifest.seed),
        variant: manifest.variant.keyword(),
        outcome: "fleet",
        exit_code,
        passed: exit_code == EXIT_PASS,
        summary,
        availability,
        task_completions,
        assertions,
        fleet: Some(fleet),
    })
}

impl ScenarioResult {
    /// Renders the `capy-result/v1` artifact. Key order is fixed and no
    /// host-specific value appears, so the text is bit-identical across
    /// reruns.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let num = |v: u64| JsonValue::Number(v as f64);
        let summary = JsonValue::Object(vec![
            ("boots".to_string(), num(self.summary.boots)),
            ("charges".to_string(), num(self.summary.charges)),
            ("precharges".to_string(), num(self.summary.precharges)),
            (
                "reconfigurations".to_string(),
                num(self.summary.reconfigurations),
            ),
            ("bursts".to_string(), num(self.summary.bursts)),
            (
                "power_failures".to_string(),
                num(self.summary.power_failures),
            ),
            ("bank_failures".to_string(), num(self.summary.bank_failures)),
            ("mode_remaps".to_string(), num(self.summary.mode_remaps)),
            ("stalled".to_string(), JsonValue::Bool(self.summary.stalled)),
            (
                "charge_seconds".to_string(),
                JsonValue::Number(self.summary.charge_time.as_secs_f64()),
            ),
            ("attempts".to_string(), num(self.summary.attempts)),
            ("completions".to_string(), num(self.summary.completions)),
            ("failures".to_string(), num(self.summary.failures)),
            ("reboots".to_string(), num(self.summary.reboots)),
            (
                "delivered_joules".to_string(),
                JsonValue::Number(self.summary.delivered_energy.get()),
            ),
            (
                "availability".to_string(),
                JsonValue::Number(self.availability),
            ),
        ]);
        let tasks = JsonValue::Object(
            self.task_completions
                .iter()
                .map(|(name, n)| (name.clone(), num(*n)))
                .collect(),
        );
        let assertions = JsonValue::Array(
            self.assertions
                .iter()
                .map(|a| {
                    JsonValue::Object(vec![
                        ("check".to_string(), JsonValue::String(a.check.clone())),
                        ("passed".to_string(), JsonValue::Bool(a.passed)),
                        ("detail".to_string(), JsonValue::String(a.detail.clone())),
                    ])
                })
                .collect(),
        );
        let fleet = self.fleet.as_ref().map(|f| {
            let mut doc = vec![
                ("devices".to_string(), num(f.devices)),
                ("dead_devices".to_string(), num(f.dead_devices)),
                ("stalled_devices".to_string(), num(f.stalled_devices)),
                (
                    "min_device_completions".to_string(),
                    num(f.min_device_completions),
                ),
                (
                    "max_device_completions".to_string(),
                    num(f.max_device_completions),
                ),
                ("latency_p50_us".to_string(), num(f.latency_p50_us)),
                ("latency_p99_us".to_string(), num(f.latency_p99_us)),
                (
                    "survival_deaths".to_string(),
                    JsonValue::Array(f.survival.iter().map(|&d| num(d)).collect()),
                ),
            ];
            if !f.mix.is_empty() {
                doc.push((
                    "mix".to_string(),
                    JsonValue::Object(
                        f.mix
                            .iter()
                            .map(|(name, count)| (name.clone(), num(*count)))
                            .collect(),
                    ),
                ));
            }
            if let Some(trace) = &f.trace {
                doc.push(("trace".to_string(), JsonValue::String(trace.clone())));
            }
            JsonValue::Object(doc)
        });
        let mut doc = vec![
            (
                "schema".to_string(),
                JsonValue::String(RESULT_SCHEMA.to_string()),
            ),
            ("name".to_string(), JsonValue::String(self.name.clone())),
            ("file".to_string(), JsonValue::String(self.file.clone())),
            ("seed".to_string(), num(self.seed)),
            // A u64 does not survive the f64 JSON number type; hex text
            // keeps the full 64 bits.
            (
                "run_seed".to_string(),
                JsonValue::String(format!("{:#018x}", self.run_seed)),
            ),
            (
                "variant".to_string(),
                JsonValue::String(self.variant.to_string()),
            ),
            (
                "outcome".to_string(),
                JsonValue::String(self.outcome.to_string()),
            ),
            (
                "exit_code".to_string(),
                JsonValue::Number(f64::from(self.exit_code)),
            ),
            ("passed".to_string(), JsonValue::Bool(self.passed)),
            (
                "sim_seconds".to_string(),
                JsonValue::Number(self.summary.end.as_secs_f64()),
            ),
            ("summary".to_string(), summary),
            ("task_completions".to_string(), tasks),
        ];
        if let Some(fleet) = fleet {
            doc.push(("fleet".to_string(), fleet));
        }
        doc.push(("assertions".to_string(), assertions));
        JsonValue::Object(doc)
    }
}

/// A minimal `capy-result/v1` artifact for a manifest that never ran
/// (exit 3): records the error so a batch directory still documents
/// every input.
#[must_use]
pub fn error_result_json(file: &str, error: &ManifestError) -> JsonValue {
    JsonValue::Object(vec![
        (
            "schema".to_string(),
            JsonValue::String(RESULT_SCHEMA.to_string()),
        ),
        ("file".to_string(), JsonValue::String(file.to_string())),
        ("error".to_string(), JsonValue::String(error.to_string())),
        (
            "exit_code".to_string(),
            JsonValue::Number(f64::from(EXIT_MANIFEST)),
        ),
        ("passed".to_string(), JsonValue::Bool(false)),
    ])
}

/// One manifest's batch entry: where it came from, where its artifact
/// went, and how it ended.
#[derive(Debug)]
pub struct BatchEntry {
    /// The manifest path.
    pub path: PathBuf,
    /// The artifact path (written unless the manifest file itself was
    /// unreadable or the artifact could not be written).
    pub result_path: PathBuf,
    /// The scenario result, or the error that prevented one.
    pub result: Result<ScenarioResult, ManifestError>,
    /// This entry's exit code.
    pub exit_code: i32,
}

/// A finished batch.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-manifest entries, in input order.
    pub entries: Vec<BatchEntry>,
    /// The batch exit code: the maximum across entries (so one failure
    /// fails the batch, and the most severe class wins).
    pub exit_code: i32,
}

/// Where a manifest's artifact goes: `<out_dir>/<stem>.result.json`, or
/// next to the manifest when no `out_dir` is given.
#[must_use]
pub fn result_path_for(manifest_path: &Path, out_dir: Option<&Path>) -> PathBuf {
    let stem = manifest_path
        .file_stem()
        .map_or_else(|| "result".to_string(), |s| s.to_string_lossy().to_string());
    let dir = out_dir.map_or_else(
        || {
            manifest_path
                .parent()
                .unwrap_or_else(|| Path::new("."))
                .to_path_buf()
        },
        Path::to_path_buf,
    );
    dir.join(format!("{stem}.result.json"))
}

/// Loads, runs, and evaluates one manifest file (no artifact written);
/// a `[fleet]` population runs on `workers` threads (`0` = every core).
///
/// # Errors
///
/// Returns a [`ManifestError`] when the file is unreadable, does not
/// parse, or does not compile.
pub fn run_file(path: &Path, workers: usize) -> Result<ScenarioResult, ManifestError> {
    let text = fs::read_to_string(path).map_err(|e| ManifestError::Build {
        message: format!("cannot read {}: {e}", path.display()),
    })?;
    let manifest = parse_manifest(&text)?;
    run_manifest_on(&manifest, &path.display().to_string(), workers)
}

/// Runs a batch of manifest files sharded over `workers` threads on the
/// sweep engine (`0` = every core) and writes each artifact; a
/// `[fleet]` manifest also runs its population on `workers` threads.
/// Results come back in input order and each artifact is bit-identical
/// for any worker count.
#[must_use]
pub fn run_batch(paths: &[PathBuf], workers: usize, out_dir: Option<&Path>) -> BatchOutcome {
    let results = map_on(paths, workers, |path| run_file(path, workers));

    let mut entries = Vec::with_capacity(paths.len());
    let mut batch_exit = EXIT_PASS;
    for (path, result) in paths.iter().zip(results) {
        let result_path = result_path_for(path, out_dir);
        let (exit_code, artifact) = match &result {
            Ok(r) => (r.exit_code, r.to_json()),
            Err(e) => (
                EXIT_MANIFEST,
                error_result_json(&path.display().to_string(), e),
            ),
        };
        let exit_code = match fs::write(&result_path, artifact.pretty()) {
            Ok(()) => exit_code,
            Err(_) => EXIT_INTERNAL,
        };
        batch_exit = batch_exit.max(exit_code);
        entries.push(BatchEntry {
            path: path.clone(),
            result_path,
            result,
            exit_code,
        });
    }
    BatchOutcome {
        entries,
        exit_code: batch_exit,
    }
}

/// Validates that `text` is well-formed JSON and, when `schema` names a
/// known schema, that the document structurally matches it.
///
/// Known schemas: `capy-result/v1` (requires `name`/`outcome`/
/// `exit_code`/`passed`/`summary`/`assertions`, or the error form with
/// `error`) and `capybara-sim-throughput/v1` (requires a non-empty
/// `cases` array).
///
/// # Errors
///
/// Returns a human-readable description of the first problem.
pub fn validate_json(text: &str, schema: Option<&str>) -> Result<(), String> {
    let doc = crate::json::parse(text).map_err(|e| e.to_string())?;
    let Some(expected) = schema else {
        return Ok(());
    };
    let declared = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "document has no top-level `schema` string".to_string())?;
    if declared != expected {
        return Err(format!("schema is `{declared}`, expected `{expected}`"));
    }
    match expected {
        RESULT_SCHEMA => {
            if doc.get("error").is_some() {
                for key in ["file", "exit_code", "passed"] {
                    if doc.get(key).is_none() {
                        return Err(format!("error result is missing `{key}`"));
                    }
                }
                return Ok(());
            }
            for key in [
                "name",
                "file",
                "variant",
                "outcome",
                "exit_code",
                "passed",
                "sim_seconds",
                "summary",
                "task_completions",
                "assertions",
            ] {
                if doc.get(key).is_none() {
                    return Err(format!("result is missing `{key}`"));
                }
            }
            Ok(())
        }
        "capybara-sim-throughput/v1" => {
            let cases = doc
                .get("cases")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| "document has no `cases` array".to_string())?;
            if cases.is_empty() {
                return Err("`cases` array is empty".to_string());
            }
            if !cases.iter().any(|c| c.get("fleet_devices_per_s").is_some()) {
                return Err(
                    "no case reports `fleet_devices_per_s` (the fleet population series)"
                        .to_string(),
                );
            }
            if !cases.iter().any(|c| {
                c.get("fleet_devices_per_s").is_some()
                    && c.get("trace").and_then(JsonValue::as_bool) == Some(true)
            }) {
                return Err(
                    "no trace-driven `fleet_devices_per_s` case (a fleet case with \
                            `\"trace\": true`)"
                        .to_string(),
                );
            }
            Ok(())
        }
        _ => Ok(()),
    }
}
