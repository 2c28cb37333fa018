//! Property-based integration tests: the whole-device simulator must be
//! robust (no panics, no hangs, conserved accounting) across randomized
//! hardware configurations, harvester strengths, and task shapes.

use capy_units::rng::DetRng;
use capy_units::{SimDuration, SimTime, Volts, Watts};
use capybara_suite::prelude::*;

#[derive(Default)]
struct Ctx {
    done: NvVar<u64>,
}

impl NvState for Ctx {
    fn commit_all(&mut self) {
        self.done.commit();
    }
    fn abort_all(&mut self) {
        self.done.abort();
    }
}

impl SimContext for Ctx {
    fn set_now(&mut self, _now: SimTime) {}
}

fn build(
    harvest_uw: f64,
    small_units: usize,
    big_units: usize,
    task_ms: u64,
    variant: Variant,
) -> Simulator<ConstantHarvester, Ctx> {
    let power = PowerSystem::builder()
        .harvester(ConstantHarvester::new(
            Watts::from_micro(harvest_uw),
            Volts::new(3.0),
        ))
        .bank(
            Bank::builder("small")
                .with_n(parts::ceramic_x5r_100uf(), small_units)
                .build(),
            SwitchKind::NormallyClosed,
        )
        .bank(
            Bank::builder("big")
                .with_n(parts::edlc_7_5mf(), big_units)
                .build(),
            SwitchKind::NormallyOpen,
        )
        .build();
    Simulator::builder(variant, power, Mcu::msp430fr5969())
        .mode("small", &[BankId(0)])
        .mode("big", &[BankId(1)])
        .task(
            "work",
            TaskEnergy::Preburst {
                burst: EnergyMode(1),
                exec: EnergyMode(0),
            },
            move |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(task_ms))),
            |c: &mut Ctx| {
                c.done.update(|n| n + 1);
                Transition::To(TaskId(1))
            },
        )
        .task(
            "spend",
            TaskEnergy::Burst(EnergyMode(1)),
            move |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(task_ms * 4))),
            |c: &mut Ctx| {
                c.done.update(|n| n + 1);
                Transition::To(TaskId(0))
            },
        )
        .build(Ctx::default())
}

/// Any configuration either stalls cleanly or makes progress; it never
/// hangs, never panics, and commits exactly one increment per
/// completion.
#[test]
fn prop_sim_is_robust_across_configurations() {
    let mut rng = DetRng::seed_from_u64(0x9051);
    for _ in 0..24 {
        let harvest_uw = rng.gen_range(1.0f64..20_000.0);
        let small_units = rng.gen_range(1usize..8);
        let big_units = rng.gen_range(1usize..4);
        let task_ms = rng.gen_range(1u64..500);
        let variant = Variant::ALL[rng.gen_range(0usize..4)];
        let mut sim = build(harvest_uw, small_units, big_units, task_ms, variant);
        let result = sim.run_until(SimTime::from_secs(120));
        assert!(matches!(
            result,
            StepResult::Progress | StepResult::Stalled { .. }
        ));
        assert_eq!(sim.ctx().done.get(), sim.exec_stats().completions);
        // Time moved (even a stall takes simulated time to detect) unless
        // the device stalled immediately on a dead harvester.
        if result == StepResult::Progress {
            assert!(sim.now() >= SimTime::from_secs(120));
        }
    }
}

/// Attempt accounting is conserved: attempts = completions + failures.
#[test]
fn prop_attempt_accounting_conserved() {
    let mut rng = DetRng::seed_from_u64(0x9052);
    for _ in 0..24 {
        let harvest_uw = rng.gen_range(100.0f64..10_000.0);
        let task_ms = rng.gen_range(1u64..300);
        let mut sim = build(harvest_uw, 4, 1, task_ms, Variant::CapyP);
        sim.run_until(SimTime::from_secs(90));
        let s = sim.exec_stats();
        assert_eq!(s.attempts, s.completions + s.failures);
    }
}

/// The continuous variant never fails and is strictly an upper bound
/// on intermittent completions over the same horizon.
#[test]
fn prop_continuous_dominates_intermittent() {
    let mut rng = DetRng::seed_from_u64(0x9053);
    for _ in 0..24 {
        let harvest_uw = rng.gen_range(100.0f64..10_000.0);
        let task_ms = rng.gen_range(10u64..300);
        let horizon = SimTime::from_secs(60);
        let mut cont = build(harvest_uw, 4, 1, task_ms, Variant::Continuous);
        cont.run_until(horizon);
        assert_eq!(cont.exec_stats().failures, 0);
        let mut capy = build(harvest_uw, 4, 1, task_ms, Variant::CapyP);
        capy.run_until(horizon);
        assert!(capy.exec_stats().completions <= cont.exec_stats().completions);
    }
}

/// Rail voltage never exceeds the limiter clamp or the weakest rating.
#[test]
fn prop_rail_voltage_respects_limits() {
    let mut rng = DetRng::seed_from_u64(0x9054);
    for _ in 0..24 {
        let harvest_uw = rng.gen_range(100.0f64..50_000.0);
        let task_ms = rng.gen_range(1u64..100);
        let mut sim = build(harvest_uw, 2, 1, task_ms, Variant::CapyR);
        for _ in 0..200 {
            if sim.step() != StepResult::Progress {
                break;
            }
            let v = sim.power().rail_voltage(sim.now());
            assert!(v <= Volts::new(2.8 + 1e-9), "rail = {v}");
        }
    }
}
