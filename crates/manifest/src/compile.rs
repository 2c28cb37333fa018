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
use capy_units::cycle::Cycle;
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

    fn period(&self, t: SimTime) -> Option<(SimDuration, SimTime)> {
        match self {
            Self::Constant(h) => h.period(t),
            Self::Regulated(h) => h.period(t),
            Self::Trace(h) => h.period(t),
            Self::Solar(h) => h.period(t),
            Self::Fleet(h) => h.period(t),
        }
    }
}

/// The synthetic application context every compiled scenario runs: one
/// non-volatile completion counter per task, committed and rolled back
/// with the intermittent runtime like real application state, plus the
/// device's task-rate scale, which divides every declared sleep.
#[derive(Debug, Clone)]
pub struct ManifestCtx {
    completions: Vec<Completions>,
    /// A faster fleet device (scale > 1) sleeps less; compute time is
    /// the task's physics and does not scale.
    rate_scale: f64,
}

/// One task's completion counter and its declared `repeat`: the body
/// takes its transition on every `repeat`-th completion.
#[derive(Debug, Clone)]
struct Completions {
    count: NvVar<u64>,
    repeat: Option<u64>,
}

impl Completions {
    /// Whether the count that just completed takes the declared
    /// transition.
    fn advances(&self) -> bool {
        self.repeat
            .is_none_or(|r| self.count.get().is_multiple_of(r))
    }
}

impl ManifestCtx {
    fn new(repeats: impl Iterator<Item = Option<u64>>) -> Self {
        Self {
            completions: repeats
                .map(|repeat| Completions {
                    count: NvVar::new(0),
                    repeat,
                })
                .collect(),
            rate_scale: 1.0,
        }
    }

    /// Committed completions of task `index` (manifest order).
    #[must_use]
    pub fn completions(&self, index: usize) -> u64 {
        self.completions[index].count.get()
    }

    /// Committed completions across every task.
    #[must_use]
    pub fn total_completions(&self) -> u64 {
        self.completions.iter().map(|c| c.count.get()).sum()
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
            c.count.commit();
        }
    }

    fn abort_all(&mut self) {
        for c in &mut self.completions {
            c.count.abort();
        }
    }
}

impl SimContext for ManifestCtx {
    fn set_now(&mut self, _now: SimTime) {}

    /// A body reads its task's count only through `count % repeat`, and
    /// the rate scale: those are the words, and the counts are counters.
    fn steady_state(&mut self, c: &mut Cycle<'_>) -> bool {
        let Self {
            completions,
            rate_scale,
        } = self;
        for Completions { count, repeat } in completions {
            count.cycle_counter(c);
            if let Some(r) = *repeat {
                count.cycle_words(c, |&n, c| c.word(n.checked_rem(r).unwrap_or(n)));
            }
        }
        c.bits(*rate_scale);
        true
    }
}

/// A compiled scenario: the simulator plus the manifest's limits ready
/// for [`Simulator::run_limited`]. A clone shares the compiled program
/// and copies the device state, so a fleet compiles each template once
/// and stamps its devices from it. The simulator keeps counts and pause
/// runs, not the event log: a caller that reads
/// [`Simulator::events`] calls [`Simulator::keep_log`] before running
/// it.
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
/// The parser already checked every cross-reference of the text it
/// read, but a manifest built or edited in code can name a bank, mode or
/// task it never declares, and the simulator builder can still reject
/// semantically impossible scenarios (for example, burst annotations
/// under the continuously-powered variant). Both surface as
/// [`ManifestError::Build`].
///
/// # Errors
///
/// Returns [`ManifestError::Build`] when a reference names nothing
/// declared or the simulator builder rejects the scenario.
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
/// As [`compile`].
pub fn compile_with(
    manifest: &ScenarioManifest,
    names: &LeakedNames,
    tweak: Option<&DeviceTweak<'_>>,
) -> Result<CompiledScenario, ManifestError> {
    let entry = tweak.and_then(|t| t.entry);
    let mut compiled = template(manifest, names, entry, policy(manifest)?)?;
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

/// The position of the `kind` named `name` among `declared`. The parser
/// resolves every reference in the text it reads, but the manifest's
/// fields are public, so one built or edited in code can name a bank,
/// mode or task it never declares: a [`ManifestError::Build`].
pub(crate) fn resolve<'a>(
    kind: &str,
    mut declared: impl Iterator<Item = &'a str>,
    name: &str,
) -> Result<usize, ManifestError> {
    declared
        .position(|n| n == name)
        .ok_or_else(|| ManifestError::Build {
            message: format!("{kind} `{name}` is referenced but not declared"),
        })
}

fn mode_id(manifest: &ScenarioManifest, name: &str) -> Result<EnergyMode, ManifestError> {
    let modes = manifest.modes.iter().map(|m| m.name.as_str());
    resolve("mode", modes, name).map(EnergyMode)
}

/// The reconfiguration policy `manifest` declares.
///
/// # Errors
///
/// Returns [`ManifestError::Build`] when `ewma` thresholds do not
/// strictly ascend.
pub(crate) fn policy(
    manifest: &ScenarioManifest,
) -> Result<Box<dyn ReconfigPolicy>, ManifestError> {
    let tiers = |ladder: &[String]| -> Result<Vec<EnergyMode>, ManifestError> {
        ladder.iter().map(|m| mode_id(manifest, m)).collect()
    };
    Ok(match &manifest.policy {
        PolicySpec::Static => Box::new(StaticAnnotation),
        PolicySpec::Pinned { mode } => Box::new(Pinned::new(mode_id(manifest, mode)?)),
        PolicySpec::Reactive { ladder, timeout_ms } => Box::new(ReactiveDownsize::new(
            tiers(ladder)?,
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
                tiers(ladder)?,
                thresholds_mw
                    .iter()
                    .map(|t| Watts::from_milli(*t))
                    .collect(),
                *alpha,
            ))
        }
    })
}

/// Compiles the device-independent part of `manifest` around `policy`,
/// booting into `entry` (the first task when `None`): everything except
/// a fleet device's [`stamp`]. Faults and the startup margin are armed
/// here.
pub(crate) fn template(
    manifest: &ScenarioManifest,
    names: &LeakedNames,
    entry: Option<&'static str>,
    policy: Box<dyn ReconfigPolicy>,
) -> Result<CompiledScenario, ManifestError> {
    let bank_id = |name: &str| {
        let banks = manifest.banks.iter().map(|b| b.name.as_str());
        resolve("bank", banks, name).map(BankId)
    };
    let task_id = |name: &str| {
        let tasks = manifest.tasks.iter().map(|t| t.name.as_str());
        resolve("task", tasks, name).map(TaskId)
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
        let banks = mode
            .banks
            .iter()
            .map(|n| bank_id(n))
            .collect::<Result<Vec<_>, _>>()?;
        builder = builder.mode(names.modes[i], &banks);
    }

    for (index, task) in manifest.tasks.iter().enumerate() {
        let energy = match &task.energy {
            EnergySpec::Unannotated => TaskEnergy::Unannotated,
            EnergySpec::Config(m) => TaskEnergy::Config(mode_id(manifest, m)?),
            EnergySpec::Burst(m) => TaskEnergy::Burst(mode_id(manifest, m)?),
            EnergySpec::Preburst { burst, exec } => TaskEnergy::Preburst {
                burst: mode_id(manifest, burst)?,
                exec: mode_id(manifest, exec)?,
            },
        };
        let compute = duration_ms(task.compute_ms);
        let load = move |mcu: &Mcu| TaskLoad::new().then(mcu.compute_for(compute));

        let then = match &task.then {
            ThenSpec::Stay => None,
            ThenSpec::Stop => Some(None),
            ThenSpec::To(name) => Some(Some(task_id(name)?)),
        };
        let sleep_ms = task.sleep_ms;
        let this = TaskId(index);
        // The synthetic body: count the completion, then take the
        // declared transition — every `repeat`-th time if counted,
        // through a sleep if one is declared, scaled by the device's rate.
        let body = move |ctx: &mut ManifestCtx| {
            let completions = &mut ctx.completions[index];
            completions.count.update(|c| c + 1);
            let target = if completions.advances() { then } else { None };
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

    let mut sim = builder
        .policy(policy)
        .degradation(manifest.degradation)
        .harvest_during_operation(manifest.harvest_during_operation)
        .try_build(ManifestCtx::new(manifest.tasks.iter().map(|t| t.repeat)))
        .map_err(|e| ManifestError::Build {
            message: e.to_string(),
        })?;
    // A run reports counts, never the log, so a compiled device keeps its
    // pauses as runs in the log's place, which a jump extends by counts
    // instead of copies.
    sim.keep_log(false);

    let mut plan = FaultPlan::new();
    for fault in &manifest.faults {
        plan = match fault {
            FaultSpec::StuckOpen { bank, at_s } => {
                plan.switch_stuck_open(time_s(*at_s), bank_id(bank)?)
            }
            FaultSpec::StuckClosed { bank, at_s } => {
                plan.switch_stuck_closed(time_s(*at_s), bank_id(bank)?)
            }
            FaultSpec::WeakLatch { bank, factor, at_s } => {
                plan.weak_latch(time_s(*at_s), bank_id(bank)?, *factor)
            }
            FaultSpec::Degraded {
                bank,
                cap_derate,
                esr_scale,
                at_s,
            } => plan.bank_degraded(time_s(*at_s), bank_id(bank)?, *cap_derate, *esr_scale),
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

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use capy_apps::adaptive::{reactive_policy, TrackerScenario};
    use capy_apps::ta;
    use capybara::policy::PolicyObservation;
    use capybara::sim::SimEvent;
    use capybara::Variant;

    use super::*;
    use crate::parse::parse_manifest;

    /// The pauses each decision was offered, with the decision instant.
    type Offers = Arc<Mutex<Vec<(SimTime, Vec<SimDuration>)>>>;

    /// Wraps a policy and records the charge pauses every observation
    /// offers it; the decisions are the wrapped policy's.
    struct PauseProbe {
        inner: Box<dyn ReconfigPolicy>,
        offers: Offers,
    }

    impl PauseProbe {
        fn wrap(inner: Box<dyn ReconfigPolicy>) -> (Box<dyn ReconfigPolicy>, Offers) {
            let offers = Offers::default();
            let probe = Self {
                inner,
                offers: Arc::clone(&offers),
            };
            (Box::new(probe), offers)
        }
    }

    impl ReconfigPolicy for PauseProbe {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn decide(&mut self, obs: &PolicyObservation<'_>, annotation: TaskEnergy) -> TaskEnergy {
            let pauses = obs.charge_pauses().collect();
            self.offers.lock().unwrap().push((obs.now, pauses));
            self.inner.decide(obs, annotation)
        }
        fn commit(&mut self) {
            self.inner.commit();
        }
        fn abort(&mut self) {
            self.inner.abort();
        }
        fn clone_box(&self) -> Box<dyn ReconfigPolicy> {
            Box::new(Self {
                inner: self.inner.clone_box(),
                offers: Arc::clone(&self.offers),
            })
        }
    }

    /// The offered pauses, concatenated, are the log's on-path charge
    /// pauses in order, apart from those that ended after the last
    /// decision; each was offered no earlier than it ended.
    fn assert_offers_match_log(label: &str, offers: &Offers, log: &[SimEvent]) {
        let on_path: Vec<(SimDuration, SimTime)> = log
            .iter()
            .filter_map(|e| match *e {
                SimEvent::Charge {
                    start,
                    end,
                    precharge: false,
                    ..
                } => Some((end - start, end)),
                _ => None,
            })
            .collect();
        let offers = offers.lock().unwrap();
        let mut next = 0;
        for (now, pauses) in offers.iter() {
            for &pause in pauses {
                let Some(&(want, end)) = on_path.get(next) else {
                    panic!("{label}: pause {next} offered at {now} is not on the log");
                };
                assert_eq!(pause, want, "{label}: pause {next} offered at {now}");
                assert!(
                    end <= *now,
                    "{label}: pause {next} ends at {end}, after {now}"
                );
                next += 1;
            }
        }
        let last = offers.last().map(|&(now, _)| now).expect("decisions ran");
        for (i, &(_, end)) in on_path.iter().enumerate().skip(next) {
            assert!(
                end >= last,
                "{label}: pause {i} ended at {end} but was never offered"
            );
        }
        assert!(next > 1, "{label}: too few pauses were offered ({next})");
    }

    #[test]
    fn observation_offers_each_on_path_pause_once_after_it_ends() {
        let alarms: Vec<SimTime> = (1..=4).map(|i| SimTime::from_secs(i * 140)).collect();
        for variant in [Variant::CapyR, Variant::CapyP] {
            let (probe, offers) = PauseProbe::wrap(Box::new(StaticAnnotation));
            let mut sim = ta::build_with_policy(variant, alarms.clone(), 7, probe);
            sim.run_until(SimTime::from_secs(600));
            assert_offers_match_log(&format!("TA {variant:?}"), &offers, sim.events());
        }

        let tracker = TrackerScenario::benchmark(3);
        let (probe, offers) = PauseProbe::wrap(Box::new(reactive_policy()));
        let sim = tracker.run(probe);
        assert_offers_match_log("tracker", &offers, sim.events());

        // adaptive_faults runs the degradation self-test, so one step can
        // recharge more than once. A compiled device keeps no log, and is
        // offered the same pauses as one that does.
        for file in ["quickstart", "adaptive_faults"] {
            let path = format!("{}/../../manifests/{file}.capy", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(path).expect("manifest reads");
            let manifest = parse_manifest(&text).expect("manifest parses");
            let names = LeakedNames::from_manifest(&manifest);
            let probed = |keep_log: bool| {
                let (probe, offers) = PauseProbe::wrap(policy(&manifest).expect("policy builds"));
                let CompiledScenario { mut sim, limits } =
                    template(&manifest, &names, None, probe).expect("compiles");
                sim.keep_log(keep_log);
                sim.run_limited(&limits);
                (sim, offers)
            };
            let (sim, offers) = probed(true);
            assert_offers_match_log(file, &offers, sim.events());
            let (_, unlogged) = probed(false);
            assert_eq!(
                *offers.lock().unwrap(),
                *unlogged.lock().unwrap(),
                "{file}: offers without the log"
            );
            // The probe only watches: the run is the manifest's own.
            let mut plain = compile(&manifest).expect("compiles");
            plain.sim.keep_log(true);
            plain.sim.run_limited(&plain.limits);
            assert_eq!(sim.events(), plain.sim.events(), "{file}");
        }
    }
}
