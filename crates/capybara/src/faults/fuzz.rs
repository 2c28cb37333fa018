//! Seeded randomized fault fuzzing: the probabilistic complement to the
//! exhaustive kill grid.
//!
//! [`explore_kill_grid`](super::explore_kill_grid) covers every
//! *single* power kill at every distinct boundary; this module explores
//! what it cannot enumerate — *compound* schedules: several kills in one
//! mission, kills composed with hardware faults, and correlated
//! multi-bank rail surges ([`FaultPlan::rail_surge`]). Coverage is
//! randomized but **replay is exact**: every [`FuzzCase`] is re-derived
//! from `(master_seed, case_index)` alone through [`derive_case`], so a
//! violation report *is* its own reproducer — no schedule needs to be
//! serialized, and [`replay_case`] rebuilds and re-runs any case in
//! isolation, bit for bit.
//!
//! # Seed → schedule derivation
//!
//! `case.seed = derive_seed(master_seed, index)`; the case's kill
//! instants and fault plan are then drawn from a fresh
//! `DetRng::seed_from_u64(case.seed)` in a fixed draw order. The
//! derivation never depends on other cases, worker scheduling, or wall
//! time, so reports are bit-identical for any worker count (cases are
//! sharded with [`map_on`]) and any case subset. The policy-grid fuzzer
//! ([`fuzz_policy_grid_on`]) shards every `(policy, scenario, case)`
//! triple the same way, each cell deriving its cases from
//! `derive_seed(master_seed, cell)`.
//!
//! # Survivable faults only
//!
//! The generator draws only fault classes a healthy Capybara runtime is
//! expected to *survive*: stuck-closed switches, weak latches (decay
//! factor bounded to 1.2–2.2×), bounded capacitor derating, and surges
//! composed of those. Stuck-*open* faults can sever a scenario's only
//! viable energy bank, and latch factors ≳2.5× can make a configured
//! task physically unable to finish before its latch expires —
//! dead physics, not software bugs — so those are reserved for directed
//! experiments ([`FaultPlan::switch_stuck_open`],
//! [`FaultPlan::weak_latch`]) where the caller opts into degraded-mode
//! checking. A fuzz violation therefore always indicates a robustness
//! bug, never dead physics.

use capy_power::bank::BankId;
use capy_power::harvester::Harvester;
use capy_units::rng::{derive_seed, DetRng};
use capy_units::SimTime;

use super::{conservation_violation, FaultPlan, SurgeEffect};
use crate::policy::{NamedPolicy, ReconfigPolicy, Scenario};
use crate::sim::{validate_event_log, SimContext, Simulator, StepResult};
use crate::sweep::{map_on, RunSummary};

/// Tuning knobs of the fault fuzzer.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzOptions {
    /// Randomized cases to derive and run (per cell, for the grid
    /// fuzzer).
    pub cases: usize,
    /// Mission horizon every case runs to (per-scenario horizons
    /// override this in [`fuzz_policy_grid_on`]).
    pub horizon: SimTime,
    /// Upper bound on power kills per case (each case draws 1..=this).
    pub max_kills: usize,
    /// Probability that a case also schedules one single-bank hardware
    /// fault.
    pub fault_probability: f64,
    /// Probability that a case also schedules one correlated multi-bank
    /// rail surge (needs ≥ 2 banks).
    pub surge_probability: f64,
    /// Livelock threshold, as in
    /// [`KillGridOptions::zeno_boot_limit`](super::KillGridOptions).
    pub zeno_boot_limit: u64,
    /// Worker threads for [`fuzz_faults`]; `0` = every core, resolved
    /// by the sweep engine ([`map_on`]). [`fuzz_policy_grid_on`] takes
    /// its count as an argument instead.
    pub workers: usize,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        Self {
            cases: 32,
            horizon: SimTime::from_secs(30),
            max_kills: 4,
            fault_probability: 0.5,
            surge_probability: 0.25,
            zeno_boot_limit: 64,
            workers: 0,
        }
    }
}

impl FuzzOptions {
    /// A small fixed budget for CI smoke gates.
    #[must_use]
    pub fn smoke(cases: usize, horizon: SimTime) -> Self {
        Self {
            cases,
            horizon,
            ..Self::default()
        }
    }
}

/// One derived fuzz case: a kill schedule plus a fault plan, fully
/// determined by `(master_seed, index)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Position in the master sequence — with the master seed, the
    /// complete reproducer.
    pub index: usize,
    /// The per-case seed (`derive_seed(master_seed, index)`).
    pub seed: u64,
    /// Power-kill instants, sorted and deduplicated, all inside
    /// `(0, horizon)`.
    pub kills: Vec<SimTime>,
    /// Hardware faults armed before the run (possibly empty).
    pub plan: FaultPlan,
}

/// Derives case `index` of `master_seed`'s sequence against a power
/// system with `bank_count` banks. Pure: no simulation, no global
/// state — the same arguments always produce the same case.
#[must_use]
pub fn derive_case(
    master_seed: u64,
    index: usize,
    options: &FuzzOptions,
    bank_count: usize,
) -> FuzzCase {
    let seed = derive_seed(master_seed, index as u64);
    let mut rng = DetRng::seed_from_u64(seed);
    let horizon_us = options.horizon.as_micros().max(2);
    let draw_instant = |rng: &mut DetRng| SimTime::from_micros(rng.gen_range(1..horizon_us));

    let n_kills = rng.gen_range(1..options.max_kills.max(1) + 1);
    let mut kills: Vec<SimTime> = (0..n_kills).map(|_| draw_instant(&mut rng)).collect();
    kills.sort_unstable();
    kills.dedup();

    let mut plan = FaultPlan::new();
    if bank_count > 0 && rng.gen_bool(options.fault_probability) {
        let bank = BankId(rng.gen_range(0..bank_count));
        let at = draw_instant(&mut rng);
        plan = match rng.gen_range(0..3u32) {
            0 => plan.switch_stuck_closed(at, bank),
            // The latch-decay factor stays below ~2.5x: past that, a
            // bank whose configured task charges right up to the latch
            // deadline physically cannot finish — a dead scenario, not
            // a robustness bug (TA's alarm bank stalls at 3x even with
            // degradation handling on, because the alarm has no other
            // bank with enough capacity to remap onto).
            1 => plan.weak_latch(at, bank, rng.gen_range(1.2..2.2)),
            _ => plan.bank_degraded(at, bank, rng.gen_range(0.3..0.9), rng.gen_range(1.0..3.0)),
        };
    }
    if bank_count >= 2 && rng.gen_bool(options.surge_probability) {
        let struck = rng.gen_range(2..bank_count + 1);
        let first = rng.gen_range(0..bank_count);
        let banks: Vec<BankId> = (0..struck)
            .map(|j| BankId((first + j) % bank_count))
            .collect();
        let at = draw_instant(&mut rng);
        let effect = if rng.gen_bool(0.5) {
            SurgeEffect::StickClosed
        } else {
            SurgeEffect::Derate {
                cap_derate: rng.gen_range(0.4..0.8),
                esr_scale: rng.gen_range(1.0..2.0),
            }
        };
        plan = plan.rail_surge(at, &banks, effect);
    }
    FuzzCase {
        index,
        seed,
        kills,
        plan,
    }
}

/// One fuzz experiment's result.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzOutcome {
    /// The schedule that ran (its `index` + the report's master seed is
    /// the reproducer).
    pub case: FuzzCase,
    /// The run's full observability record.
    pub summary: RunSummary,
    /// The first violated check, if any — same check chain as the kill
    /// grid: stall, event log, conservation, caller invariant, Zeno
    /// livelock.
    pub violation: Option<String>,
}

/// The result of one [`fuzz_faults`] campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport {
    /// The campaign's master seed — with a violation's `case.index`,
    /// the complete reproducer.
    pub master_seed: u64,
    /// One outcome per case, in case-index order.
    pub outcomes: Vec<FuzzOutcome>,
}

impl FuzzReport {
    /// The outcomes whose checks failed.
    #[must_use]
    pub fn violations(&self) -> Vec<&FuzzOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.violation.is_some())
            .collect()
    }

    /// `true` when every case passed all checks.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.outcomes.iter().all(|o| o.violation.is_none())
    }

    /// A one-line digest for logs, naming the master seed and the
    /// violating case indices (each one a standalone reproducer).
    #[must_use]
    pub fn digest(&self) -> String {
        let bad: Vec<usize> = self
            .outcomes
            .iter()
            .filter(|o| o.violation.is_some())
            .map(|o| o.case.index)
            .collect();
        format!(
            "{} fuzz cases under master seed {:#x}, {} violations{}",
            self.outcomes.len(),
            self.master_seed,
            bad.len(),
            if bad.is_empty() {
                String::new()
            } else {
                format!(" (replay case indices {bad:?})")
            }
        )
    }
}

/// Runs one derived case: arm its fault plan, execute its kill
/// schedule, recover to the horizon, then run the full check chain.
fn run_case<H, C, B, V>(
    build: &B,
    invariant: &V,
    case: &FuzzCase,
    options: &FuzzOptions,
) -> FuzzOutcome
where
    H: Harvester,
    C: SimContext,
    B: Fn() -> Simulator<H, C>,
    V: Fn(&Simulator<H, C>) -> Result<(), String>,
{
    let mut sim = build();
    case.plan.arm(&mut sim);
    let mut violation = None;
    let mut stats_at_last_kill = None;
    for &kill_at in &case.kills {
        match sim.run_until(kill_at) {
            StepResult::Stalled { steps } => {
                violation = Some(format!(
                    "stalled before the kill at {kill_at} ({steps} stuck steps)"
                ));
                break;
            }
            StepResult::Stopped => break,
            StepResult::Progress => {
                stats_at_last_kill = Some(sim.exec_stats());
                sim.inject_power_failure();
            }
        }
    }
    if violation.is_none() {
        if let StepResult::Stalled { steps } = sim.run_until(options.horizon) {
            violation = Some(format!(
                "stalled after the kill schedule ({steps} stuck steps)"
            ));
        }
    }
    let summary = RunSummary::from_sim(&sim, std::time::Duration::ZERO);
    let violation = violation
        .or_else(|| validate_event_log(sim.events()))
        .or_else(|| conservation_violation(&summary))
        .or_else(|| invariant(&sim).err())
        .or_else(|| {
            let at_kill = stats_at_last_kill?;
            let reboots = summary.reboots - at_kill.reboots;
            let completions = summary.completions - at_kill.completions;
            (reboots >= options.zeno_boot_limit && completions == 0).then(|| {
                format!(
                    "Zeno livelock after the last kill: \
                     {reboots} reboots with zero completions"
                )
            })
        });
    FuzzOutcome {
        case: case.clone(),
        summary,
        violation,
    }
}

/// Runs a fuzz campaign of [`FuzzOptions::cases`] derived cases against
/// one deterministic scenario.
///
/// `build` constructs the scenario from scratch (same seed every time);
/// `invariant` checks application-level consistency on each finished
/// run. Cases are sharded across worker threads on the sweep engine;
/// the report is bit-identical for any worker count.
pub fn fuzz_faults<H, C, B, V>(
    master_seed: u64,
    options: &FuzzOptions,
    build: B,
    invariant: V,
) -> FuzzReport
where
    H: Harvester,
    C: SimContext,
    B: Fn() -> Simulator<H, C> + Sync,
    V: Fn(&Simulator<H, C>) -> Result<(), String> + Sync,
{
    // One probe build tells the generator how many banks it can strike.
    let bank_count = build().power().bank_count();
    let cases: Vec<usize> = (0..options.cases).collect();
    let outcomes = map_on(&cases, options.workers, |&index| {
        let case = derive_case(master_seed, index, options, bank_count);
        run_case(&build, &invariant, &case, options)
    });
    FuzzReport {
        master_seed,
        outcomes,
    }
}

/// Re-derives and re-runs one case of `master_seed`'s sequence — the
/// reproducer for any violation [`fuzz_faults`] reports. Deterministic:
/// the returned outcome is bit-identical to the campaign's.
pub fn replay_case<H, C, B, V>(
    master_seed: u64,
    case_index: usize,
    options: &FuzzOptions,
    build: B,
    invariant: V,
) -> FuzzOutcome
where
    H: Harvester,
    C: SimContext,
    B: Fn() -> Simulator<H, C>,
    V: Fn(&Simulator<H, C>) -> Result<(), String>,
{
    let bank_count = build().power().bank_count();
    let case = derive_case(master_seed, case_index, options, bank_count);
    run_case(&build, &invariant, &case, options)
}

/// The result of one [`fuzz_policy_grid_on`] campaign: fuzz outcomes
/// for every {policy × scenario} cell, cell-major
/// (`(policy * scenarios + scenario) * cases + case`).
#[derive(Debug, Clone)]
pub struct FuzzGrid {
    /// The campaign's master seed.
    pub master_seed: u64,
    /// Policy labels, in row order.
    pub policies: Vec<&'static str>,
    /// Scenario labels, in column order.
    pub scenarios: Vec<String>,
    /// Cases derived per cell.
    pub cases_per_cell: usize,
    /// All outcomes, cell-major.
    pub outcomes: Vec<FuzzOutcome>,
}

impl FuzzGrid {
    /// The outcomes of `policy` on `scenario`.
    #[must_use]
    pub fn cell(&self, policy: usize, scenario: usize) -> &[FuzzOutcome] {
        let start = (policy * self.scenarios.len() + scenario) * self.cases_per_cell;
        &self.outcomes[start..start + self.cases_per_cell]
    }

    /// Every violation as `(policy, scenario, outcome)`; the outcome's
    /// `case.index` with the cell's derived seed reproduces it (the
    /// whole grid re-derives from `master_seed`, so re-running the
    /// campaign reproduces every entry bit for bit).
    #[must_use]
    pub fn violations(&self) -> Vec<(usize, usize, &FuzzOutcome)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.violation.is_some())
            .map(|(i, o)| {
                let cell = i / self.cases_per_cell;
                (cell / self.scenarios.len(), cell % self.scenarios.len(), o)
            })
            .collect()
    }

    /// `true` when every case of every cell passed all checks.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.outcomes.iter().all(|o| o.violation.is_none())
    }

    /// A one-line digest naming the violating cells.
    #[must_use]
    pub fn digest(&self) -> String {
        let bad: Vec<String> = self
            .violations()
            .iter()
            .map(|(p, s, o)| {
                format!(
                    "{}/{}#{}",
                    self.policies[*p], self.scenarios[*s], o.case.index
                )
            })
            .collect();
        format!(
            "{} fuzz cases over {}x{} policy grid under master seed {:#x}, {} violations{}",
            self.outcomes.len(),
            self.policies.len(),
            self.scenarios.len(),
            self.master_seed,
            bad.len(),
            if bad.is_empty() {
                String::new()
            } else {
                format!(" ({bad:?})")
            }
        )
    }
}

/// Fuzzes every {policy × scenario} cell with
/// [`FuzzOptions::cases`] derived cases each, sharded on the sweep
/// engine with an explicit worker count (`0` = every core). Each
/// cell's case sequence derives from
/// `derive_seed(master_seed, policy * scenarios + scenario)`, so cells
/// are independent and the whole grid reproduces from `master_seed`
/// alone; the report is bit-identical for any worker count.
///
/// `build` receives the scenario's value and a fresh policy instance,
/// exactly as in
/// [`run_policy_sweep_on`](crate::policy::run_policy_sweep_on);
/// per-scenario horizons ([`Scenario::at_horizon`]) override
/// [`FuzzOptions::horizon`].
pub fn fuzz_policy_grid_on<T, H, C, F, V>(
    master_seed: u64,
    options: &FuzzOptions,
    policies: &[NamedPolicy],
    scenarios: &[Scenario<T>],
    workers: usize,
    build: F,
    invariant: V,
) -> FuzzGrid
where
    T: Sync,
    H: Harvester,
    C: SimContext,
    F: Fn(&T, Box<dyn ReconfigPolicy>) -> Simulator<H, C> + Sync,
    V: Fn(&Simulator<H, C>) -> Result<(), String> + Sync,
{
    let runs: Vec<(usize, usize, usize)> = (0..policies.len())
        .flat_map(|pi| (0..scenarios.len()).map(move |si| (pi, si)))
        .flat_map(|(pi, si)| (0..options.cases).map(move |ci| (pi, si, ci)))
        .collect();
    let outcomes = map_on(&runs, workers, |&(pi, si, ci)| {
        let scenario = &scenarios[si];
        let cell_options = FuzzOptions {
            horizon: scenario.horizon.unwrap_or(options.horizon),
            ..options.clone()
        };
        let build_sim = || build(&scenario.value, policies[pi].instantiate(si));
        let bank_count = build_sim().power().bank_count();
        let cell_seed = derive_seed(master_seed, (pi * scenarios.len() + si) as u64);
        let case = derive_case(cell_seed, ci, &cell_options, bank_count);
        run_case(&build_sim, &invariant, &case, &cell_options)
    });
    FuzzGrid {
        master_seed,
        policies: policies.iter().map(|p| p.label).collect(),
        scenarios: scenarios.iter().map(|s| s.label.clone()).collect(),
        cases_per_cell: options.cases,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::TaskEnergy;
    use crate::mode::EnergyMode;
    use crate::policy::StaticAnnotation;
    use crate::variant::Variant;
    use capy_device::load::TaskLoad;
    use capy_device::mcu::Mcu;
    use capy_intermittent::nv::{NvState, NvVar};
    use capy_intermittent::task::Transition;
    use capy_power::bank::Bank;
    use capy_power::harvester::{ConstantHarvester, TraceHarvester};
    use capy_power::switch::SwitchKind;
    use capy_power::system::PowerSystem;
    use capy_power::technology::parts;
    use capy_units::{SimDuration, Volts, Watts};

    #[derive(Clone)]
    struct Ctx {
        n: NvVar<u64>,
    }

    impl NvState for Ctx {
        fn commit_all(&mut self) {
            self.n.commit();
        }
        fn abort_all(&mut self) {
            self.n.abort();
        }
    }

    impl SimContext for Ctx {
        fn set_now(&mut self, _now: SimTime) {}
    }

    fn two_bank_power<H: Harvester>(harvester: H) -> PowerSystem<H> {
        PowerSystem::builder()
            .harvester(harvester)
            .bank(
                Bank::builder("small")
                    .with(parts::ceramic_x5r_400uf())
                    .build(),
                SwitchKind::NormallyClosed,
            )
            .bank(
                Bank::builder("big").with(parts::edlc_7_5mf()).build(),
                SwitchKind::NormallyOpen,
            )
            .build()
    }

    fn sampler<H: Harvester>(
        power: PowerSystem<H>,
        policy: Option<Box<dyn ReconfigPolicy>>,
    ) -> Simulator<H, Ctx> {
        let mut b = Simulator::builder(Variant::CapyR, power, Mcu::msp430fr5969())
            .mode("small", &[BankId(0)])
            .mode("big", &[BankId(1)])
            .task(
                "sample",
                TaskEnergy::Config(EnergyMode(0)),
                |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(10))),
                |c: &mut Ctx| {
                    c.n.update(|x| x + 1);
                    Transition::Stay
                },
            );
        if let Some(p) = policy {
            b = b.policy(p);
        }
        b.build(Ctx { n: NvVar::new(0) })
    }

    fn steady() -> Simulator<ConstantHarvester, Ctx> {
        sampler(
            two_bank_power(ConstantHarvester::new(
                Watts::from_milli(2.0),
                Volts::new(3.0),
            )),
            None,
        )
    }

    fn counter_invariant(sim: &Simulator<impl Harvester, Ctx>) -> Result<(), String> {
        let committed = sim.ctx().n.get();
        let completed = sim.exec_stats().completions;
        if committed == completed {
            Ok(())
        } else {
            Err(format!(
                "committed counter {committed} != completions {completed}"
            ))
        }
    }

    const MASTER: u64 = 0xFA57;

    fn smoke_options() -> FuzzOptions {
        FuzzOptions {
            workers: 1,
            ..FuzzOptions::smoke(12, SimTime::from_secs(5))
        }
    }

    #[test]
    fn derive_case_is_pure_and_well_formed() {
        let options = smoke_options();
        for index in 0..32 {
            let a = derive_case(MASTER, index, &options, 2);
            let b = derive_case(MASTER, index, &options, 2);
            assert_eq!(a, b, "same (seed, index) must derive the same case");
            assert_eq!(a.index, index);
            assert_eq!(a.seed, derive_seed(MASTER, index as u64));
            assert!(!a.kills.is_empty() && a.kills.len() <= options.max_kills);
            assert!(a.kills.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
            assert!(a
                .kills
                .iter()
                .all(|&t| t > SimTime::ZERO && t < options.horizon));
        }
        // Distinct indices diverge (at least somewhere in a batch).
        let cases: Vec<FuzzCase> = (0..8)
            .map(|i| derive_case(MASTER, i, &options, 2))
            .collect();
        assert!(cases.windows(2).any(|w| w[0].kills != w[1].kills));
        // Some derived case exercises the fault and surge paths.
        let with_faults = (0..64)
            .map(|i| derive_case(MASTER, i, &options, 2))
            .filter(|c| !c.plan.is_empty())
            .count();
        assert!(with_faults > 0, "fault probability never fired in 64 cases");
    }

    #[test]
    fn fuzz_is_clean_and_worker_count_invariant_on_a_healthy_scenario() {
        let serial = fuzz_faults(MASTER, &smoke_options(), steady, counter_invariant);
        assert_eq!(serial.outcomes.len(), 12);
        assert!(serial.is_clean(), "violations: {:?}", serial.violations());
        // Kills really happened: every case saw its injected failures.
        assert!(serial
            .outcomes
            .iter()
            .all(|o| o.summary.power_failures >= 1));
        let parallel = fuzz_faults(
            MASTER,
            &FuzzOptions {
                workers: 4,
                ..smoke_options()
            },
            steady,
            counter_invariant,
        );
        assert_eq!(serial, parallel, "worker count must be invisible");
        assert!(serial.digest().contains("12 fuzz cases"));
    }

    #[test]
    fn a_fuzz_violation_replays_from_seed_and_index_alone() {
        // Harvest dies at t=2s, so cases whose last kill lands after
        // that stall — guaranteed violations.
        let build = || {
            sampler(
                two_bank_power(TraceHarvester::new(vec![
                    (SimTime::ZERO, Watts::from_milli(2.0), Volts::new(3.0)),
                    (SimTime::from_secs(2), Watts::ZERO, Volts::ZERO),
                ])),
                None,
            )
        };
        let options = smoke_options();
        let report = fuzz_faults(MASTER, &options, build, counter_invariant);
        let violations = report.violations();
        assert!(!violations.is_empty(), "dead harvest must surface");
        for bad in violations {
            let replayed = replay_case(
                report.master_seed,
                bad.case.index,
                &options,
                build,
                counter_invariant,
            );
            assert_eq!(&replayed, bad, "replay must be bit-identical");
        }
    }

    #[test]
    fn policy_grid_fuzz_is_clean_and_worker_count_invariant() {
        let policies = [
            NamedPolicy::new("static", |_| Box::new(StaticAnnotation)),
            NamedPolicy::new("pinned-big", |_| {
                Box::new(crate::policy::Pinned::new(EnergyMode(1)))
            }),
        ];
        let scenarios = [
            Scenario::new("steady", ()),
            Scenario::new("short", ()).at_horizon(SimTime::from_secs(3)),
        ];
        let options = FuzzOptions {
            cases: 4,
            ..smoke_options()
        };
        let run = |workers| {
            fuzz_policy_grid_on(
                MASTER,
                &options,
                &policies,
                &scenarios,
                workers,
                |_, policy| {
                    sampler(
                        two_bank_power(ConstantHarvester::new(
                            Watts::from_milli(2.0),
                            Volts::new(3.0),
                        )),
                        Some(policy),
                    )
                },
                counter_invariant,
            )
        };
        let serial = run(1);
        assert_eq!(serial.outcomes.len(), 2 * 2 * 4);
        assert!(serial.is_clean(), "violations: {:?}", serial.digest());
        assert_eq!(serial.cell(1, 1).len(), 4);
        // The short scenario's cases honor its own horizon.
        assert!(serial.cell(0, 1).iter().all(|o| o
            .case
            .kills
            .iter()
            .all(|&t| t < SimTime::from_secs(3))));
        let parallel = run(4);
        assert_eq!(serial.outcomes, parallel.outcomes);
        assert!(serial.digest().contains("2x2 policy grid"));
    }
}
