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

use std::collections::HashMap;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use capy_units::rng::derive_seed;
use capy_units::{Joules, SimDuration, SimTime};
use capybara::fleet::{
    parse_harvest_trace, run_fleet_on, DeviceOutcome, DevicePoint, FleetReport, FleetSpec,
    SharedEnvironment, TemplateSpec, SURVIVAL_BUCKETS,
};
use capybara::sim::RunOutcome;
use capybara::sweep::{map_on, RunSummary, DEFAULT_BASE_SEED};

use crate::compile::{compile, policy, resolve, stamp, template, CompiledScenario, LeakedNames};
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

/// How many `kind` events the run recorded, as its summary counted
/// them (a run stalls at most once).
fn event_count(summary: &RunSummary, kind: EventKind) -> u64 {
    match kind {
        EventKind::Boot => summary.boots,
        EventKind::Charge => summary.charges,
        EventKind::Precharge => summary.precharges,
        EventKind::Reconfigure => summary.reconfigurations,
        EventKind::Burst => summary.bursts,
        EventKind::PowerFailure => summary.power_failures,
        EventKind::BankFailed => summary.bank_failures,
        EventKind::ModeRemapped => summary.mode_remaps,
        EventKind::Stalled => u64::from(summary.stalled),
    }
}

/// A finished run reduced to what the assertions read. The device and
/// the fleet path both end here, so one evaluator, one exit-code rule
/// and one [`ScenarioResult`] serve them.
struct Finished<'a> {
    /// The terminal outcome's protocol keyword.
    outcome: &'static str,
    /// Whether an execution limit tripped.
    limit: bool,
    summary: RunSummary,
    availability: f64,
    task_completions: Vec<(String, u64)>,
    /// A device's final energy mode; `None` before its first
    /// reconfiguration, and for a fleet, whose runner refuses
    /// `final_mode` before running.
    final_mode: Option<&'a str>,
    /// A fleet's aggregate, whose counts are totals over its devices;
    /// `None` for one device.
    fleet: Option<FleetResult>,
}

impl Finished<'_> {
    fn check(&self, assertion: &AssertionSpec) -> AssertionResult {
        let fleet = self.fleet.is_some();
        let wide = if fleet { " fleet-wide" } else { "" };
        let (check, passed, detail) = match assertion {
            AssertionSpec::TaskCompletions { task, op, count } => {
                let got = self
                    .task_completions
                    .iter()
                    .find(|(name, _)| name == task)
                    .map_or(0, |&(_, n)| n);
                (
                    format!("completions = {task} {} {count}", op.keyword()),
                    op.holds(got, *count),
                    format!("task `{task}` committed {got} completions{wide}"),
                )
            }
            AssertionSpec::TotalCompletions { op, count } => {
                let got = self.summary.completions;
                (
                    format!("total_completions = {} {count}", op.keyword()),
                    op.holds(got, *count),
                    if fleet {
                        format!("{got} completions committed fleet-wide")
                    } else {
                        format!("{got} completions committed in total")
                    },
                )
            }
            AssertionSpec::Failures { op, count } => {
                let got = self.summary.failures;
                (
                    format!("failures = {} {count}", op.keyword()),
                    op.holds(got, *count),
                    format!("{got} attempts were cut short by power failure{wide}"),
                )
            }
            AssertionSpec::RequireEvent(kind) => {
                let got = event_count(&self.summary, *kind);
                (
                    format!("require_event = {}", kind.keyword()),
                    got > 0,
                    format!("{got} `{}` events on the timeline", kind.keyword()),
                )
            }
            AssertionSpec::ForbidEvent(kind) => {
                let got = event_count(&self.summary, *kind);
                (
                    format!("forbid_event = {}", kind.keyword()),
                    got == 0,
                    format!("{got} `{}` events on the timeline", kind.keyword()),
                )
            }
            AssertionSpec::FinalMode(mode) => (
                format!("final_mode = {mode}"),
                self.final_mode == Some(mode.as_str()),
                format!(
                    "final mode is {}",
                    self.final_mode
                        .map_or_else(|| "(none)".to_string(), |m| format!("`{m}`"))
                ),
            ),
            AssertionSpec::MinAvailability(min) => {
                let percent = self.availability * 100.0;
                (
                    format!("min_availability = {}", Num(*min)),
                    self.availability >= *min,
                    if fleet {
                        format!("fleet was available {percent:.1}% of simulated device time")
                    } else {
                        format!("device was available {percent:.1}% of simulated time")
                    },
                )
            }
        };
        AssertionResult {
            check,
            passed,
            detail,
        }
    }

    /// Evaluates `manifest`'s assertions in order and assembles the
    /// result: a tripped limit exits 2 whatever the assertions say.
    fn into_result(self, manifest: &ScenarioManifest, file: &str) -> ScenarioResult {
        let assertions: Vec<AssertionResult> =
            manifest.assertions.iter().map(|a| self.check(a)).collect();
        let exit_code = if self.limit {
            EXIT_LIMIT
        } else if assertions.iter().any(|a| !a.passed) {
            EXIT_ASSERT
        } else {
            EXIT_PASS
        };
        ScenarioResult {
            name: manifest.name.clone(),
            file: file.to_string(),
            seed: manifest.seed,
            run_seed: derive_seed(DEFAULT_BASE_SEED, manifest.seed),
            variant: manifest.variant.keyword(),
            outcome: self.outcome,
            exit_code,
            passed: exit_code == EXIT_PASS,
            summary: self.summary,
            availability: self.availability,
            task_completions: self.task_completions,
            assertions,
            fleet: self.fleet,
        }
    }
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
    let task_completions = (0..)
        .zip(&manifest.tasks)
        .map(|(i, t)| (t.name.clone(), sim.ctx().completions(i)))
        .collect();
    let final_mode = sim
        .runtime_state()
        .current_mode()
        .map(|m| manifest.modes[m.0].name.as_str());
    Ok(Finished {
        outcome: outcome_keyword(outcome),
        limit: outcome.is_limit(),
        availability: 1.0 - summary.charge_fraction(),
        summary,
        task_completions,
        final_mode,
        fleet: None,
    }
    .into_result(manifest, file))
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
    /// `[fleet]` stanza, its trace cannot be read, a `mix` entry names a
    /// task it does not declare, or a template does not compile.
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
        let entries = stanza
            .mix
            .iter()
            .map(|(task, _)| {
                let tasks = manifest.tasks.iter().map(|t| t.name.as_str());
                resolve("task", tasks, task).map(|index| names.task(index))
            })
            .collect::<Result<Vec<&'static str>, _>>()?;
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
        let policy = policy(manifest)?;
        let templates = if entries.is_empty() {
            vec![template(manifest, &names, None, policy)?]
        } else {
            entries
                .iter()
                .map(|&entry| template(manifest, &names, Some(entry), policy.clone()))
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
/// against the population totals; event and final-mode assertions are
/// per-device and rejected before anything runs.
fn run_fleet_manifest(
    manifest: &ScenarioManifest,
    stanza: &FleetStanza,
    file: &str,
    workers: usize,
) -> Result<ScenarioResult, ManifestError> {
    if manifest.assertions.iter().any(|a| {
        matches!(
            a,
            AssertionSpec::RequireEvent(_)
                | AssertionSpec::ForbidEvent(_)
                | AssertionSpec::FinalMode(_)
        )
    }) {
        return Err(ManifestError::Build {
            message: "event and final-mode assertions are per-device; a [fleet] scenario \
                      supports only count and availability assertions"
                .to_string(),
        });
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

    let task_completions = (0..)
        .zip(&manifest.tasks)
        .map(|(i, t)| {
            let got = acc.task_completions.get(i).copied().unwrap_or(0);
            (t.name.clone(), got)
        })
        .collect();
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
    Ok(Finished {
        outcome: "fleet",
        limit: false,
        summary,
        availability: acc.availability(),
        task_completions,
        final_mode: None,
        fleet: Some(fleet),
    }
    .into_result(manifest, file))
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
    /// The artifact path, written on every run: the entry's result, or
    /// an [`error_result_json`] artifact when the manifest could not be
    /// read, parsed or compiled (exit 3). A write that fails makes the
    /// exit code 4. Entries that share one path share one write, of the
    /// last such entry's artifact, and its failure counts for each.
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

/// Runs a batch of manifest files and writes each one's artifact.
///
/// Every manifest is first read, run and judged, sharded over `workers`
/// threads on the sweep engine (`0` = every core); a `[fleet]` manifest
/// also runs its population on `workers` threads. Only then are the
/// artifacts rendered and written, on the same workers, so no artifact
/// can overwrite an input before it is read. Each artifact is written
/// in place over the file a previous run left, then cut to its length:
/// truncating the old file first is several times slower on a rerun.
///
/// Entries come back in input order and each artifact is bit-identical
/// for any worker count. Inputs whose result paths name one file (two
/// manifests with one stem and one `out_dir`, or one manifest named
/// twice) write it once, with the last such input's artifact, as a
/// serial loop would leave it, and every one of them reports that
/// write's outcome.
#[must_use]
pub fn run_batch(paths: &[PathBuf], workers: usize, out_dir: Option<&Path>) -> BatchOutcome {
    let results = map_on(paths, workers, |path| run_file(path, workers));

    let result_paths: Vec<PathBuf> = paths.iter().map(|p| result_path_for(p, out_dir)).collect();
    let writer = last_writers(&result_paths);
    let inputs: Vec<usize> = (0..paths.len()).collect();
    let written = map_on(&inputs, workers, |&i| {
        if writer[i] != i {
            return true;
        }
        let artifact = match &results[i] {
            Ok(r) => r.to_json(),
            Err(e) => error_result_json(&paths[i].display().to_string(), e),
        };
        write_in_place(&result_paths[i], artifact.pretty().as_bytes()).is_ok()
    });

    let entries: Vec<BatchEntry> = paths
        .iter()
        .zip(result_paths)
        .zip(results)
        .zip(writer)
        .map(|(((path, result_path), result), writer)| {
            let exit_code = match (&result, written[writer]) {
                (_, false) => EXIT_INTERNAL,
                (Ok(r), true) => r.exit_code,
                (Err(_), true) => EXIT_MANIFEST,
            };
            BatchEntry {
                path: path.clone(),
                result_path,
                result,
                exit_code,
            }
        })
        .collect();
    let exit_code = entries
        .iter()
        .map(|e| e.exit_code)
        .fold(EXIT_PASS, i32::max);
    BatchOutcome { entries, exit_code }
}

/// For each result path, the index of the last input whose result path
/// names the same file: the input whose artifact that file keeps.
/// Directories compare in canonical form, so `a/x.result.json` and
/// `./a/x.result.json` are one file, written once and never by two
/// workers at a time.
fn last_writers(result_paths: &[PathBuf]) -> Vec<usize> {
    let mut canonical: HashMap<&Path, PathBuf> = HashMap::new();
    let files: Vec<PathBuf> = result_paths
        .iter()
        .map(|path| {
            let dir = path
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
                .unwrap_or(Path::new("."));
            canonical
                .entry(dir)
                .or_insert_with(|| fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf()))
                .join(path.file_name().unwrap_or_default())
        })
        .collect();
    let last: HashMap<&Path, usize> = files
        .iter()
        .enumerate()
        .map(|(i, file)| (file.as_path(), i))
        .collect();
    files.iter().map(|file| last[file.as_path()]).collect()
}

/// Writes `bytes` as the whole content of the file at `path`, in place:
/// opens it without truncating (creating it if missing), writes every
/// byte from the start, then cuts the file to `bytes.len()`, so no tail
/// of a longer old version survives.
///
/// `fs::write` truncates to zero first, and on a rerun that costs
/// several times the write itself: ext4 waits for the old version's
/// writeback before freeing its blocks, and on close starts writeback
/// again (`auto_da_alloc`). Writing over the old bytes skips both.
///
/// Not atomic: an interrupted write can leave old and new bytes mixed,
/// just as an interrupted `fs::write` can leave a half-written file.
fn write_in_place(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    file.write_all(bytes)?;
    file.set_len(bytes.len() as u64)
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

#[cfg(test)]
mod tests {
    use capybara::sim::SimEvent;

    use super::*;
    use crate::model::Keyword;

    /// The reference for [`event_count`]: a walk of the log.
    fn walk(kind: EventKind, log: &[SimEvent]) -> u64 {
        let matches = |e: &&SimEvent| match (kind, e) {
            (EventKind::Boot, SimEvent::Boot { .. })
            | (EventKind::Reconfigure, SimEvent::Reconfigure { .. })
            | (EventKind::Burst, SimEvent::BurstActivated { .. })
            | (EventKind::PowerFailure, SimEvent::PowerFailure { .. })
            | (EventKind::BankFailed, SimEvent::BankFailed { .. })
            | (EventKind::ModeRemapped, SimEvent::ModeRemapped { .. })
            | (EventKind::Stalled, SimEvent::Stalled { .. }) => true,
            (EventKind::Charge, SimEvent::Charge { precharge, .. }) => !precharge,
            (EventKind::Precharge, SimEvent::Charge { precharge, .. }) => *precharge,
            _ => false,
        };
        log.iter().filter(matches).count() as u64
    }

    #[test]
    fn event_counts_equal_a_walk_of_the_log_for_every_device_manifest() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files: Vec<PathBuf> = ["manifests", "tests/fixtures"]
            .iter()
            .flat_map(|dir| fs::read_dir(root.join(dir)).expect("directory reads"))
            .map(|entry| entry.expect("entry reads").path())
            .filter(|p| p.extension().is_some_and(|e| e == "capy"))
            .collect();
        files.sort();
        let mut devices = 0;
        for file in &files {
            let text = fs::read_to_string(file).expect("manifest reads");
            let manifest = parse_manifest(&text).expect("manifest parses");
            if manifest.fleet.is_some() {
                continue;
            }
            let CompiledScenario { mut sim, limits } = compile(&manifest).expect("compiles");
            sim.run_limited(&limits);
            let summary = RunSummary::from_sim(&sim, Duration::ZERO);
            for &kind in EventKind::ALL {
                assert_eq!(
                    event_count(&summary, kind),
                    walk(kind, sim.events()),
                    "{}: `{}` events",
                    file.display(),
                    kind.keyword()
                );
            }
            // `total_completions` reads the summary; the tasks' own
            // counters must agree with it.
            assert_eq!(summary.completions, sim.ctx().total_completions());
            devices += 1;
        }
        assert!(devices >= 5, "only {devices} device manifests found");
    }

    /// Two spellings of one directory name one file, which the last
    /// input naming it writes; a missing directory compares as given.
    #[test]
    fn result_paths_naming_one_file_keep_the_last_input() {
        let dir = std::env::temp_dir().join(format!("capy-last-writers-{}", std::process::id()));
        fs::create_dir_all(dir.join("a")).expect("temp dir");
        let paths: Vec<PathBuf> = [
            "a/x.result.json",
            "a/y.result.json",
            "a/../a/x.result.json",
            "missing/x.result.json",
            "a/y.result.json",
        ]
        .iter()
        .map(|p| dir.join(p))
        .collect();
        assert_eq!(last_writers(&paths), [2, 4, 2, 3, 4]);
        fs::remove_dir_all(&dir).ok();
    }
}
