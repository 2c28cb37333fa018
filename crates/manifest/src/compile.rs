//! Compiles a [`ScenarioManifest`] into a ready-to-run
//! [`Simulator`] plus [`RunLimits`].
//!
//! The manifest's names become the `&'static str` names the builder
//! APIs require via a bounded `Box::leak` per manifest — fine for a
//! runner process, which compiles each scenario once.

use std::mem;

use capy_device::load::TaskLoad;
use capy_device::mcu::Mcu;
use capy_intermittent::nv::{NvState, NvVar};
use capy_intermittent::task::{TaskId, Transition};
use capy_power::bank::{Bank, BankId};
use capy_power::harvester::{
    ConstantHarvester, Harvester, RegulatedSupply, SolarPanel, TraceHarvester,
};
use capy_power::technology::parts;
use capy_units::{Joules, SimDuration, SimTime, Volts, Watts};
use capybara::faults::FaultPlan;
use capybara::fleet::{DevicePoint, FleetHarvester, SharedEnvironment};
use capybara::policy::{EwmaAdaptive, Pinned, ReactiveDownsize, ReconfigPolicy, StaticAnnotation};
use capybara::sim::{RunLimits, SimContext, Simulator};
use capybara::{EnergyMode, TaskEnergy};

use crate::model::{
    EnergySpec, FaultSpec, HarvesterSpec, McuKind, PartKind, PolicySpec, ScenarioManifest, ThenSpec,
};
use crate::parse::ManifestError;

/// The harvester a manifest can declare: a closed enum dispatching to
/// the concrete sources, so the compiled simulator has one concrete
/// type.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestHarvester {
    /// `kind = dark | constant`.
    Constant(ConstantHarvester),
    /// `kind = regulated`.
    Regulated(RegulatedSupply),
    /// `kind = square-wave`.
    Trace(TraceHarvester),
    /// `kind = solar-trisolx`.
    Solar(SolarPanel),
    /// Any of the above wrapped with one fleet device's panel scale and
    /// the population's shared environment.
    Fleet(Box<FleetHarvester<ManifestHarvester>>),
}

impl Harvester for ManifestHarvester {
    fn power_at(&self, t: SimTime) -> Watts {
        match self {
            Self::Constant(h) => h.power_at(t),
            Self::Regulated(h) => h.power_at(t),
            Self::Trace(h) => h.power_at(t),
            Self::Solar(h) => h.power_at(t),
            Self::Fleet(h) => h.power_at(t),
        }
    }

    fn valid_until(&self, t: SimTime) -> SimTime {
        match self {
            Self::Constant(h) => h.valid_until(t),
            Self::Regulated(h) => h.valid_until(t),
            Self::Trace(h) => h.valid_until(t),
            Self::Solar(h) => h.valid_until(t),
            Self::Fleet(h) => h.valid_until(t),
        }
    }

    fn open_voltage(&self, t: SimTime) -> Volts {
        match self {
            Self::Constant(h) => h.open_voltage(t),
            Self::Regulated(h) => h.open_voltage(t),
            Self::Trace(h) => h.open_voltage(t),
            Self::Solar(h) => h.open_voltage(t),
            Self::Fleet(h) => h.open_voltage(t),
        }
    }
}

/// The synthetic application context every compiled scenario runs: one
/// non-volatile completion counter per task, committed and rolled back
/// with the intermittent runtime like real application state, plus the
/// device's task-rate scale, which divides every declared sleep.
#[derive(Debug, Clone)]
pub struct ManifestCtx {
    completions: Vec<NvVar<u64>>,
    /// A faster fleet device (scale > 1) sleeps less; compute time is
    /// the task's physics and does not scale.
    rate_scale: f64,
}

impl ManifestCtx {
    fn new(tasks: usize) -> Self {
        Self {
            completions: (0..tasks).map(|_| NvVar::new(0)).collect(),
            rate_scale: 1.0,
        }
    }

    /// Committed completions of task `index` (manifest order).
    #[must_use]
    pub fn completions(&self, index: usize) -> u64 {
        self.completions[index].get()
    }

    /// Committed completions across every task.
    #[must_use]
    pub fn total_completions(&self) -> u64 {
        self.completions.iter().map(NvVar::get).sum()
    }

    /// The device's task-rate scale: every declared sleep is divided by
    /// it (`1.0` outside a fleet).
    #[must_use]
    pub fn rate_scale(&self) -> f64 {
        self.rate_scale
    }
}

impl NvState for ManifestCtx {
    fn commit_all(&mut self) {
        for c in &mut self.completions {
            c.commit();
        }
    }

    fn abort_all(&mut self) {
        for c in &mut self.completions {
            c.abort();
        }
    }
}

impl SimContext for ManifestCtx {
    fn set_now(&mut self, _now: SimTime) {}
}

/// A compiled scenario: the simulator plus the manifest's limits ready
/// for [`Simulator::run_limited`]. A clone shares the compiled program
/// and copies the device state, so a fleet compiles each template once
/// and stamps its devices from it.
#[derive(Clone)]
pub struct CompiledScenario {
    /// The ready-to-run simulator.
    pub sim: Simulator<ManifestHarvester, ManifestCtx>,
    /// The `[limits]` section as typed run limits.
    pub limits: RunLimits,
}

fn leak(s: &str) -> &'static str {
    Box::leak(s.to_string().into_boxed_str())
}

/// A manifest's names leaked to the `&'static str` the builder APIs
/// require — **once per manifest**, so callers compiling many devices
/// from one manifest do not grow the leak with the device count.
pub struct LeakedNames {
    banks: Vec<&'static str>,
    modes: Vec<&'static str>,
    tasks: Vec<&'static str>,
}

impl LeakedNames {
    /// Leaks `manifest`'s bank, mode, and task names.
    #[must_use]
    pub fn from_manifest(manifest: &ScenarioManifest) -> Self {
        Self {
            banks: manifest.banks.iter().map(|b| leak(&b.name)).collect(),
            modes: manifest.modes.iter().map(|m| leak(&m.name)).collect(),
            tasks: manifest.tasks.iter().map(|t| leak(&t.name)).collect(),
        }
    }

    /// The leaked name of task `index` (manifest order).
    #[must_use]
    pub fn task(&self, index: usize) -> &'static str {
        self.tasks[index]
    }
}

/// The per-device perturbation a fleet applies on top of the template
/// manifest: the device's [`DevicePoint`] plus the population's shared
/// environment.
pub struct DeviceTweak<'a> {
    /// The shared environment the device's harvester samples.
    pub env: &'a SharedEnvironment,
    /// The device's derived placement/scales.
    pub point: &'a DevicePoint,
    /// Task this device boots into instead of the manifest's first task
    /// (a heterogeneous fleet's per-template entry point).
    pub entry: Option<&'static str>,
}

pub(crate) fn duration_ms(ms: f64) -> SimDuration {
    SimDuration::from_micros((ms * 1_000.0).round() as u64)
}

fn time_s(s: f64) -> SimTime {
    SimTime::from_micros((s * 1_000_000.0).round() as u64)
}

fn part(kind: PartKind) -> capy_power::capacitor::CapacitorSpec {
    match kind {
        PartKind::CeramicX5r22uf => parts::ceramic_x5r_22uf(),
        PartKind::CeramicX5r100uf => parts::ceramic_x5r_100uf(),
        PartKind::CeramicX5r300uf => parts::ceramic_x5r_300uf(),
        PartKind::CeramicX5r400uf => parts::ceramic_x5r_400uf(),
        PartKind::Tantalum100uf => parts::tantalum_100uf(),
        PartKind::Tantalum330uf => parts::tantalum_330uf(),
        PartKind::Tantalum1000uf => parts::tantalum_1000uf(),
        PartKind::EdlcCph3225a => parts::edlc_cph3225a(),
        PartKind::Edlc7_5mf => parts::edlc_7_5mf(),
        PartKind::Edlc22_5mf => parts::edlc_22_5mf(),
    }
}

fn harvester(spec: &HarvesterSpec) -> ManifestHarvester {
    match spec {
        HarvesterSpec::Dark => ManifestHarvester::Constant(ConstantHarvester::dark()),
        HarvesterSpec::Constant { power_mw, voltage } => ManifestHarvester::Constant(
            ConstantHarvester::new(Watts::from_milli(*power_mw), Volts::new(*voltage)),
        ),
        HarvesterSpec::Regulated {
            max_power_mw,
            voltage,
        } => ManifestHarvester::Regulated(RegulatedSupply::new(
            Watts::from_milli(*max_power_mw),
            Volts::new(*voltage),
        )),
        HarvesterSpec::SquareWave {
            power_mw,
            voltage,
            on_ms,
            off_ms,
            cycles,
        } => ManifestHarvester::Trace(TraceHarvester::square_wave(
            Watts::from_milli(*power_mw),
            Volts::new(*voltage),
            duration_ms(*on_ms),
            duration_ms(*off_ms),
            *cycles,
        )),
        HarvesterSpec::SolarTrisolx => ManifestHarvester::Solar(SolarPanel::trisolx_pair_halogen()),
    }
}

/// Compiles `manifest` into a simulator and limits.
///
/// Name resolution cannot fail here — the parser already checked every
/// cross-reference — but the simulator builder can still reject
/// semantically impossible scenarios (for example, burst annotations
/// under the continuously-powered variant), surfaced as
/// [`ManifestError::Build`].
///
/// # Errors
///
/// Returns [`ManifestError::Build`] when the simulator builder rejects
/// the scenario.
pub fn compile(manifest: &ScenarioManifest) -> Result<CompiledScenario, ManifestError> {
    compile_with(manifest, &LeakedNames::from_manifest(manifest), None)
}

/// [`compile`] with the leak amortized across calls ([`LeakedNames`])
/// and an optional fleet device: the template for the tweak's entry
/// task, then the device's stamp — its harvester wrapped in a
/// [`FleetHarvester`] and its sleeps divided by its task rate. It is the
/// device a [`CompiledFleet`](crate::CompiledFleet) stamps, bit for bit.
///
/// # Errors
///
/// Returns [`ManifestError::Build`] when the simulator builder rejects
/// the scenario.
pub fn compile_with(
    manifest: &ScenarioManifest,
    names: &LeakedNames,
    tweak: Option<&DeviceTweak<'_>>,
) -> Result<CompiledScenario, ManifestError> {
    let mut compiled = template(manifest, names, tweak.and_then(|t| t.entry))?;
    if let Some(t) = tweak {
        stamp(&mut compiled.sim, t.env, t.point);
    }
    Ok(compiled)
}

/// Makes a device of a compiled template: wraps its harvester in the
/// device's [`FleetHarvester`] and sets its task-rate scale. A template
/// never steps, so the device starts with cold kernel caches either way.
pub(crate) fn stamp(
    sim: &mut Simulator<ManifestHarvester, ManifestCtx>,
    env: &SharedEnvironment,
    point: &DevicePoint,
) {
    let harvester = sim.power_mut().harvester_mut();
    let inner = mem::replace(
        harvester,
        ManifestHarvester::Constant(ConstantHarvester::dark()),
    );
    let scaled = FleetHarvester::new(inner, point.panel_scale, env.clone(), point.placement);
    *harvester = ManifestHarvester::Fleet(Box::new(scaled));
    sim.ctx_mut().rate_scale = point.task_rate_scale;
}

/// Compiles the device-independent part of `manifest`, booting into
/// `entry` (the first task when `None`): everything except a fleet
/// device's [`stamp`]. Faults and the startup margin are armed here.
pub(crate) fn template(
    manifest: &ScenarioManifest,
    names: &LeakedNames,
    entry: Option<&'static str>,
) -> Result<CompiledScenario, ManifestError> {
    let bank_id = |name: &str| -> BankId {
        BankId(
            manifest
                .banks
                .iter()
                .position(|b| b.name == name)
                .expect("parser resolved bank references"),
        )
    };
    let mode_id = |name: &str| -> EnergyMode {
        EnergyMode(
            manifest
                .modes
                .iter()
                .position(|m| m.name == name)
                .expect("parser resolved mode references"),
        )
    };
    let task_id = |name: &str| -> TaskId {
        TaskId(
            manifest
                .tasks
                .iter()
                .position(|t| t.name == name)
                .expect("parser resolved task references"),
        )
    };

    let mut power =
        capy_power::system::PowerSystem::builder().harvester(harvester(&manifest.harvester));
    for (i, spec) in manifest.banks.iter().enumerate() {
        let mut bank = Bank::builder(names.banks[i]);
        for &p in &spec.parts {
            bank = bank.with(part(p));
        }
        power = power.bank(bank.build(), spec.switch);
    }
    let power = power.build();

    let mcu = match manifest.mcu {
        McuKind::Msp430fr5969 => Mcu::msp430fr5969(),
        McuKind::Msp430fr5969FullSpeed => Mcu::msp430fr5969_full_speed(),
        McuKind::Cc2650 => Mcu::cc2650(),
    };

    let mut builder = Simulator::builder(manifest.variant, power, mcu);
    for (i, mode) in manifest.modes.iter().enumerate() {
        let banks: Vec<BankId> = mode.banks.iter().map(|n| bank_id(n)).collect();
        builder = builder.mode(names.modes[i], &banks);
    }

    for (index, task) in manifest.tasks.iter().enumerate() {
        let energy = match &task.energy {
            EnergySpec::Unannotated => TaskEnergy::Unannotated,
            EnergySpec::Config(m) => TaskEnergy::Config(mode_id(m)),
            EnergySpec::Burst(m) => TaskEnergy::Burst(mode_id(m)),
            EnergySpec::Preburst { burst, exec } => TaskEnergy::Preburst {
                burst: mode_id(burst),
                exec: mode_id(exec),
            },
        };
        let compute = duration_ms(task.compute_ms);
        let load =
            move |_ctx: &ManifestCtx, mcu: &Mcu| TaskLoad::new().then(mcu.compute_for(compute));

        let then = match &task.then {
            ThenSpec::Stay => None,
            ThenSpec::Stop => Some(None),
            ThenSpec::To(name) => Some(Some(task_id(name))),
        };
        let sleep_ms = task.sleep_ms;
        let repeat = task.repeat;
        let this = TaskId(index);
        // The synthetic body: count the completion, then take the
        // declared transition — every `repeat`-th time if counted,
        // through a sleep if one is declared, scaled by the device's rate.
        let body = move |ctx: &mut ManifestCtx| {
            ctx.completions[index].update(|c| c + 1);
            let advance = repeat.is_none_or(|r| ctx.completions[index].get().is_multiple_of(r));
            let target = if advance { then } else { None };
            let sleep = sleep_ms.map(|ms| duration_ms(ms / ctx.rate_scale));
            match (target, sleep) {
                (Some(None), _) => Transition::Stop,
                (Some(Some(next)), None) => Transition::To(next),
                (Some(Some(next)), Some(d)) => Transition::Sleep {
                    duration: d,
                    then: next,
                },
                (None, None) => Transition::Stay,
                (None, Some(d)) => Transition::Sleep {
                    duration: d,
                    then: this,
                },
            }
        };
        builder = builder.task(names.tasks[index], energy, load, body);
    }
    if let Some(entry) = entry {
        builder = builder.entry(entry);
    }

    let policy: Box<dyn ReconfigPolicy> = match &manifest.policy {
        PolicySpec::Static => Box::new(StaticAnnotation),
        PolicySpec::Pinned { mode } => Box::new(Pinned::new(mode_id(mode))),
        PolicySpec::Reactive { ladder, timeout_ms } => Box::new(ReactiveDownsize::new(
            ladder.iter().map(|m| mode_id(m)).collect(),
            duration_ms(*timeout_ms),
        )),
        PolicySpec::Ewma {
            ladder,
            thresholds_mw,
            alpha,
        } => {
            // EwmaAdaptive::new panics on non-ascending thresholds;
            // report that as a manifest problem instead.
            if !thresholds_mw.windows(2).all(|w| w[0] < w[1]) {
                return Err(ManifestError::Build {
                    message: "ewma thresholds_mw must strictly ascend".to_string(),
                });
            }
            Box::new(EwmaAdaptive::new(
                ladder.iter().map(|m| mode_id(m)).collect(),
                thresholds_mw
                    .iter()
                    .map(|t| Watts::from_milli(*t))
                    .collect(),
                *alpha,
            ))
        }
    };

    let mut sim = builder
        .policy(policy)
        .degradation(manifest.degradation)
        .harvest_during_operation(manifest.harvest_during_operation)
        .try_build(ManifestCtx::new(manifest.tasks.len()))
        .map_err(|e| ManifestError::Build {
            message: e.to_string(),
        })?;

    let mut plan = FaultPlan::new();
    for fault in &manifest.faults {
        plan = match fault {
            FaultSpec::StuckOpen { bank, at_s } => {
                plan.switch_stuck_open(time_s(*at_s), bank_id(bank))
            }
            FaultSpec::StuckClosed { bank, at_s } => {
                plan.switch_stuck_closed(time_s(*at_s), bank_id(bank))
            }
            FaultSpec::WeakLatch { bank, factor, at_s } => {
                plan.weak_latch(time_s(*at_s), bank_id(bank), *factor)
            }
            FaultSpec::Degraded {
                bank,
                cap_derate,
                esr_scale,
                at_s,
            } => plan.bank_degraded(time_s(*at_s), bank_id(bank), *cap_derate, *esr_scale),
        };
    }
    if let Some(margin) = manifest.startup_margin_v {
        plan = plan.startup_margin(Volts::new(margin));
    }
    if !plan.is_empty() {
        plan.arm(&mut sim);
    }

    let limits = RunLimits {
        max_sim: Some(time_s(manifest.limits.max_sim_seconds)),
        max_steps: manifest.limits.max_steps,
        no_progress_steps: manifest.limits.no_progress_steps,
        max_energy: manifest.limits.max_energy_joules.map(Joules::new),
    };

    Ok(CompiledScenario { sim, limits })
}
