//! The adaptive-buffering tracker: the policy engine's benchmark
//! workload.
//!
//! A single periodic task tracks an external quantity on a CC2650-class
//! device fed by a two-level, seeded square-wave harvest trace: *strong*
//! phases (bench-supply-grade milliwatts) alternate with *weak* phases
//! (RF-harvest-grade microwatts), with each phase duration jittered
//! ±20 % by a deterministic RNG. The storage ladder has two tiers:
//!
//! * **small** — a 400 µF ceramic bank (normally-closed switch): boots
//!   often, wastes a boot's energy per cycle, but charges in tens of
//!   milliseconds even from weak input;
//! * **big** — small plus a 45 mF EDLC bank (normally-open switch):
//!   amortizes boot overhead over hundreds of task executions, but needs
//!   seconds of strong input to fill — and in a weak phase cannot fill
//!   before its switch latch decays (~3 minutes), at which point the
//!   hardware reverts the bank to disconnected and a static
//!   configuration never commands it back.
//!
//! No static tier wins both phases, which is exactly the regime where
//! online adaptation pays (Williams & Hicks): [`capybara::policy`]'s
//! `EwmaAdaptive` rides big through strong phases and sheds to small for
//! weak ones, strictly beating every static configuration on event
//! completions, while the offline `Oracle` bounds every policy from
//! above on the recorded trace. The `fig_policy` bench, the
//! `policy_compare` example, and the acceptance tests all run the
//! comparison grid assembled here.

use capy_device::load::TaskLoad;
use capy_device::mcu::Mcu;
use capy_intermittent::nv::{NvState, NvVar};
use capy_intermittent::task::Transition;
use capy_power::bank::{Bank, BankId};
use capy_power::harvester::TraceHarvester;
use capy_power::switch::SwitchKind;
use capy_power::system::PowerSystem;
use capy_power::technology::parts;
use capy_units::rng::DetRng;
use capy_units::{SimDuration, SimTime, Volts, Watts};
use capybara::annotation::TaskEnergy;
use capybara::mode::EnergyMode;
use capybara::policy::{
    oracle_offline, run_policy_sweep_on, EwmaAdaptive, NamedPolicy, Oracle, OracleReport, Pinned,
    PolicyComparison, ReactiveDownsize, ReconfigPolicy, Scenario, StaticAnnotation,
};
use capybara::sim::{SimContext, Simulator};
use capybara::sweep::DEFAULT_BASE_SEED;
use capybara::variant::Variant;

/// The small (ceramic-only) energy mode — the task's static annotation.
pub const M_SMALL: EnergyMode = EnergyMode(0);
/// The big (ceramic + 45 mF EDLC) energy mode.
pub const M_BIG: EnergyMode = EnergyMode(1);

/// The capacity ladder the adaptive policies climb, smallest tier first.
#[must_use]
pub fn ladder() -> Vec<EnergyMode> {
    vec![M_SMALL, M_BIG]
}

/// The reactive baseline: shed a tier when an on-path charge exceeds
/// 30 s, regrow after 8 consecutive fast charges.
#[must_use]
pub fn reactive_policy() -> ReactiveDownsize {
    ReactiveDownsize::new(ladder(), SimDuration::from_secs(30))
}

/// The EWMA policy tuned for this workload: the big tier engages once
/// the average harvest clears 1 mW (between the weak and strong phase
/// levels), with a smoothing weight of 0.25.
#[must_use]
pub fn ewma_policy() -> EwmaAdaptive {
    EwmaAdaptive::new(ladder(), vec![Watts::from_milli(1.0)], 0.25)
}

/// The standard policy lineup of the comparison grid, oracle excluded
/// (the oracle is computed per scenario by [`compare_policies`]).
/// The first three are the static configurations the adaptive policies
/// must beat.
#[must_use]
pub fn lineup() -> Vec<NamedPolicy> {
    vec![
        NamedPolicy::new("static", |_| Box::new(StaticAnnotation)),
        NamedPolicy::new("pin-small", |_| Box::new(Pinned::new(M_SMALL))),
        NamedPolicy::new("pin-big", |_| Box::new(Pinned::new(M_BIG))),
        NamedPolicy::new("reactive", |_| Box::new(reactive_policy())),
        NamedPolicy::new("ewma", |_| Box::new(ewma_policy())),
    ]
}

/// How many of the lineup's leading policies are static configurations
/// (`static`, `pin-small`, `pin-big`).
pub const STATIC_POLICIES: usize = 3;

/// Fresh labeled policy instances for the oracle's offline first pass —
/// the same lineup as [`lineup`], unwrapped (no lineup factory reads
/// its scenario index).
#[must_use]
pub fn candidates() -> Vec<(String, Box<dyn ReconfigPolicy>)> {
    lineup()
        .into_iter()
        .map(|np| (np.label.to_string(), np.instantiate(0)))
        .collect()
}

/// Application context: one non-volatile counter of tracked readings.
pub struct TrackerCtx {
    /// Committed readings (non-volatile).
    pub readings: NvVar<u64>,
}

impl NvState for TrackerCtx {
    fn commit_all(&mut self) {
        self.readings.commit();
    }
    fn abort_all(&mut self) {
        self.readings.abort();
    }
}

impl SimContext for TrackerCtx {
    fn set_now(&mut self, _now: SimTime) {}
}

/// One tracker scenario: the harvest trace's shape plus the task's work
/// quantum. [`compare_policies`] hands it, unchanged, to every run of
/// its column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerScenario {
    /// Strong-phase harvest power.
    pub strong: Watts,
    /// Weak-phase harvest power.
    pub weak: Watts,
    /// Nominal duration of each phase (jittered ±20 % per phase).
    pub phase: SimDuration,
    /// Strong/weak alternations in the trace.
    pub cycles: u32,
    /// Compute time of one tracker task execution.
    pub work: SimDuration,
    /// Seed of the phase-duration jitter.
    pub seed: u64,
}

impl TrackerScenario {
    /// The seeded variable-power benchmark trace of the acceptance
    /// criteria: 10 mW strong phases (nominal 60 s) alternating with
    /// 200 µW weak phases (nominal 240 s — longer than the switch-latch
    /// retention, so a stranded big-bank charge loses the bank).
    #[must_use]
    pub fn benchmark(seed: u64) -> Self {
        Self {
            strong: Watts::from_milli(50.0),
            weak: Watts::from_micro(200.0),
            phase: SimDuration::from_secs(60),
            cycles: 4,
            work: SimDuration::from_millis(16),
            seed,
        }
    }

    /// A steady trace at `power` (no alternation, no jitter).
    #[must_use]
    pub fn steady(power: Watts) -> Self {
        Self {
            strong: power,
            weak: power,
            phase: SimDuration::from_secs(150),
            cycles: 2,
            work: SimDuration::from_millis(16),
            seed: 0,
        }
    }

    /// The trace's breakpoints and end time. Strong phases keep the
    /// nominal duration; weak phases run four times longer (they model
    /// the long lulls between bursts of harvestable energy).
    fn segments(&self) -> (Vec<(SimTime, Watts, Volts)>, SimTime) {
        let mut rng = DetRng::seed_from_u64(self.seed ^ 0xadab);
        let mut jitter = |d: SimDuration| {
            let factor = 0.8 + 0.4 * rng.gen_f64();
            SimDuration::from_micros((d.as_micros() as f64 * factor) as u64)
        };
        let mut points = Vec::with_capacity(self.cycles as usize * 2);
        let mut t = SimTime::ZERO;
        let voltage = Volts::new(3.0);
        for _ in 0..self.cycles {
            points.push((t, self.strong, voltage));
            t += jitter(self.phase);
            points.push((t, self.weak, voltage));
            t += jitter(self.phase * 4);
        }
        (points, t)
    }

    /// The scenario's harvest trace.
    #[must_use]
    pub fn trace(&self) -> TraceHarvester {
        TraceHarvester::new(self.segments().0)
    }

    /// The simulated horizon: the end of the (jittered) trace.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        self.segments().1
    }

    /// Builds the tracker simulator with `policy` installed.
    #[must_use]
    pub fn build(&self, policy: Box<dyn ReconfigPolicy>) -> Simulator<TraceHarvester, TrackerCtx> {
        let power = PowerSystem::builder()
            .harvester(self.trace())
            .bank(
                Bank::builder("tracker-small")
                    .with(parts::ceramic_x5r_400uf())
                    .build(),
                SwitchKind::NormallyClosed,
            )
            .bank(
                Bank::builder("tracker-big")
                    .with_n(parts::edlc_22_5mf(), 2)
                    .build(),
                SwitchKind::NormallyOpen,
            )
            .build();
        let work = self.work;
        Simulator::builder(Variant::CapyP, power, Mcu::cc2650())
            .mode("small", &[BankId(0)])
            .mode("big", &[BankId(0), BankId(1)])
            .task(
                "track",
                TaskEnergy::Config(M_SMALL),
                move |mcu| TaskLoad::new().then(mcu.compute_for(work)),
                |ctx: &mut TrackerCtx| {
                    ctx.readings.update(|n| n + 1);
                    Transition::Stay
                },
            )
            .policy(policy)
            .build(TrackerCtx {
                readings: NvVar::new(0),
            })
    }

    /// Builds and runs the tracker to the scenario's horizon.
    #[must_use]
    pub fn run(&self, policy: Box<dyn ReconfigPolicy>) -> Simulator<TraceHarvester, TrackerCtx> {
        let mut sim = self.build(policy);
        sim.run_until(self.horizon());
        sim
    }

    /// Computes this scenario's offline oracle: every lineup candidate
    /// runs once with its decisions recorded; the oracle replays the
    /// winner (scored by event completions).
    #[must_use]
    pub fn oracle(&self) -> OracleReport {
        let scenario = *self;
        oracle_offline(
            candidates(),
            self.horizon(),
            move |policy| scenario.build(policy),
            |sim| sim.exec_stats().completions as f64,
        )
    }
}

/// Runs the full {policy × scenario} comparison grid on `workers` sweep
/// workers (`0` = every core): the [`lineup`] plus one per-scenario [`Oracle`] (always the
/// last policy row). Returns the comparison and each scenario's oracle
/// provenance (candidate scores, winner).
#[must_use]
pub fn compare_policies(
    scenarios: &[(&'static str, TrackerScenario)],
    workers: usize,
) -> (PolicyComparison, Vec<OracleReport>) {
    let oracle_reports: Vec<OracleReport> = scenarios.iter().map(|(_, sc)| sc.oracle()).collect();
    let oracles: Vec<Oracle> = oracle_reports.iter().map(|r| r.oracle.clone()).collect();

    let mut policies = lineup();
    policies.push(NamedPolicy::new("oracle", move |scenario| {
        Box::new(oracles[scenario].clone())
    }));
    let columns: Vec<Scenario<TrackerScenario>> = scenarios
        .iter()
        .map(|(label, sc)| Scenario::new(*label, *sc).at_horizon(sc.horizon()))
        .collect();
    // Every column carries its own (jittered) horizon, so the spec-wide
    // default is never consulted.
    let comparison = run_policy_sweep_on(
        "policy-grid",
        SimTime::ZERO,
        DEFAULT_BASE_SEED,
        &policies,
        &columns,
        workers,
        |sc, policy| sc.build(policy),
    );
    (comparison, oracle_reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use capybara::sweep::available_workers;

    #[test]
    fn policy_grid_runs_the_scenario_it_is_given() {
        // A seed past 2^53 has no exact f64, so any round trip of the
        // scenario through floating point would run a different trace.
        let sc = TrackerScenario::benchmark((1 << 53) + 1);
        let (cmp, _) = compare_policies(&[("big-seed", sc)], 0);
        assert_eq!(cmp.policies[0], "static");
        let direct = sc.run(Box::new(StaticAnnotation));
        assert_eq!(cmp.completions(0, 0), direct.exec_stats().completions);
        assert_eq!(cmp.summary(0, 0).end, direct.now());
        // Jitter is deterministic per seed and actually jitters.
        assert_eq!(sc.horizon(), sc.horizon());
        assert_ne!(
            TrackerScenario::benchmark(1).horizon(),
            TrackerScenario::benchmark(2).horizon()
        );
    }

    #[test]
    fn ewma_beats_every_static_configuration_on_the_benchmark_trace() {
        let sc = TrackerScenario::benchmark(7);
        let completions = |policy: Box<dyn ReconfigPolicy>| {
            let sim = sc.run(policy);
            sim.exec_stats().completions
        };
        let ewma = completions(Box::new(ewma_policy()));
        let statics = [
            ("static", completions(Box::new(StaticAnnotation))),
            ("pin-small", completions(Box::new(Pinned::new(M_SMALL)))),
            ("pin-big", completions(Box::new(Pinned::new(M_BIG)))),
        ];
        for (label, n) in statics {
            assert!(
                ewma > n,
                "EwmaAdaptive ({ewma}) must strictly beat {label} ({n})"
            );
        }
    }

    #[test]
    fn oracle_bounds_every_policy_from_above() {
        let sc = TrackerScenario::benchmark(7);
        let report = sc.oracle();
        let oracle_score = sc
            .run(Box::new(report.oracle.clone()))
            .exec_stats()
            .completions as f64;
        for (label, score) in &report.scores {
            assert!(
                oracle_score >= *score,
                "oracle ({oracle_score}) must bound {label} ({score})"
            );
        }
        // The replay reproduces the winner exactly.
        assert_eq!(oracle_score, report.scores[report.winner].1);
    }

    #[test]
    fn comparison_grid_is_deterministic_across_worker_counts() {
        let scenarios = [
            ("square", TrackerScenario::benchmark(3)),
            (
                "steady-weak",
                TrackerScenario::steady(Watts::from_micro(200.0)),
            ),
        ];
        let (serial, _) = compare_policies(&scenarios, 1);
        let (parallel, _) = compare_policies(&scenarios, available_workers().max(4));
        assert_eq!(serial.report, parallel.report);
        // Oracle is the last row and never loses its own scenario.
        let oracle = serial.policies.len() - 1;
        assert_eq!(serial.policies[oracle], "oracle");
        for s in 0..serial.scenarios.len() {
            for p in 0..serial.policies.len() {
                assert!(
                    serial.completions(oracle, s) >= serial.completions(p, s),
                    "oracle must bound {} on {}",
                    serial.policies[p],
                    serial.scenarios[s]
                );
            }
        }
    }
}
