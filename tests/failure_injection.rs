//! Failure-injection tests: randomized harvester outages injected into
//! full application runs. The suite must never panic, never hang, never
//! violate the event-log invariants, and never double-report an event —
//! no matter how adversarial the input-power timing (§5.2 worries about
//! exactly such adversarial timing).

use capy_units::rng::DetRng;
use capy_units::{SimDuration, SimTime, Volts, Watts};
use capybara_suite::apps::ta;
use capybara_suite::core::sim::validate_event_log;
use capybara_suite::policy::{EwmaAdaptive, ReactiveDownsize, ReconfigPolicy, StaticAnnotation};
use capybara_suite::prelude::*;

/// Builds an outage-ridden harvester: random on/off segments.
fn outage_trace(seed: u64, segments: usize) -> TraceHarvester {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut points = Vec::new();
    let mut t = SimTime::ZERO;
    for i in 0..segments {
        let on = i % 2 == 0;
        let power = if on {
            Watts::from_micro(rng.gen_range(100.0..8_000.0))
        } else {
            Watts::ZERO
        };
        points.push((t, power, Volts::new(2.8)));
        t += SimDuration::from_secs(rng.gen_range(5u64..400));
    }
    TraceHarvester::new(points)
}

struct Ctx {
    alarms: NvVar<u32>,
    armed: NvVar<bool>,
}

impl NvState for Ctx {
    fn commit_all(&mut self) {
        self.alarms.commit();
        self.armed.commit();
    }
    fn abort_all(&mut self) {
        self.alarms.abort();
        self.armed.abort();
    }
}

impl SimContext for Ctx {
    fn set_now(&mut self, _now: SimTime) {}
}

fn outage_sim(seed: u64, variant: Variant) -> Simulator<TraceHarvester, Ctx> {
    let power = PowerSystem::builder()
        .harvester(outage_trace(seed, 24))
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
        .build();
    Simulator::builder(variant, power, Mcu::msp430fr5969())
        .mode("small", &[BankId(0)])
        .mode("big", &[BankId(1)])
        .task(
            "sense",
            TaskEnergy::Preburst {
                burst: EnergyMode(1),
                exec: EnergyMode(0),
            },
            |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(15))),
            |c: &mut Ctx| {
                // Fire one alarm, once, partway through.
                if !c.armed.get() {
                    c.armed.set(true);
                    Transition::To(TaskId(1))
                } else {
                    Transition::Stay
                }
            },
        )
        .task(
            "alarm",
            TaskEnergy::Burst(EnergyMode(1)),
            |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_secs(1))),
            |c: &mut Ctx| {
                c.alarms.update(|n| n + 1);
                Transition::To(TaskId(0))
            },
        )
        .build(Ctx {
            alarms: NvVar::new(0),
            armed: NvVar::new(false),
        })
}

/// Under arbitrary outage patterns: no panic, valid event log,
/// conserved attempt accounting, and exactly-once alarm commit.
#[test]
fn prop_outages_never_corrupt_execution() {
    let mut rng = DetRng::seed_from_u64(0xfa17);
    for _ in 0..16 {
        let seed = rng.gen_range(0u64..5_000);
        let variant = Variant::ALL[rng.gen_range(0usize..4)];
        let mut sim = outage_sim(seed, variant);
        let result = sim.run_until(SimTime::from_secs(2_500));
        assert!(matches!(
            result,
            StepResult::Progress | StepResult::Stalled { .. }
        ));
        if let Some(violation) = validate_event_log(sim.events()) {
            panic!("seed {seed} variant {variant}: {violation}");
        }
        let s = sim.exec_stats();
        assert_eq!(s.attempts, s.completions + s.failures);
        // The alarm committed at most once (exactly-once under retries).
        assert!(sim.ctx().alarms.get() <= 1);
    }
}

/// Like [`outage_sim`] but with a `Config`-annotated sense task (so an
/// adaptive policy can override its capacity tier) and `policy`
/// installed.
fn adaptive_outage_sim(
    seed: u64,
    policy: Box<dyn ReconfigPolicy>,
) -> Simulator<TraceHarvester, Ctx> {
    let power = PowerSystem::builder()
        .harvester(outage_trace(seed, 24))
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
        .build();
    Simulator::builder(Variant::CapyP, power, Mcu::msp430fr5969())
        .mode("small", &[BankId(0)])
        .mode("big", &[BankId(1)])
        .task(
            "sense",
            TaskEnergy::Config(EnergyMode(0)),
            |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(15))),
            |c: &mut Ctx| {
                if !c.armed.get() {
                    c.armed.set(true);
                    Transition::To(TaskId(1))
                } else {
                    Transition::Stay
                }
            },
        )
        .task(
            "alarm",
            TaskEnergy::Burst(EnergyMode(1)),
            |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_secs(1))),
            |c: &mut Ctx| {
                c.alarms.update(|n| n + 1);
                Transition::To(TaskId(0))
            },
        )
        .policy(policy)
        .build(Ctx {
            alarms: NvVar::new(0),
            armed: NvVar::new(false),
        })
}

type PolicyCtor = fn() -> Box<dyn ReconfigPolicy>;

fn adaptive_policies() -> Vec<(&'static str, PolicyCtor)> {
    fn ladder() -> Vec<EnergyMode> {
        vec![EnergyMode(0), EnergyMode(1)]
    }
    vec![
        ("reactive", || {
            Box::new(ReactiveDownsize::new(ladder(), SimDuration::from_secs(60)))
        }),
        ("ewma", || {
            Box::new(EwmaAdaptive::new(
                ladder(),
                vec![Watts::from_micro(900.0)],
                0.3,
            ))
        }),
    ]
}

/// Randomized outages kill power around and inside policy decision
/// windows. The decision's non-volatile state must abort cleanly: the
/// run never panics, the timeline stays valid, the accounting conserves
/// attempts — and the whole run (including every aborted decision)
/// replays bit-for-bit, which it only can if the policy's NV cells
/// resume from their last committed value after every failure.
#[test]
fn prop_power_failure_mid_decision_resumes_policy_state() {
    let mut rng = DetRng::seed_from_u64(0x901c);
    for _ in 0..8 {
        let seed = rng.gen_range(0u64..5_000);
        for (label, make) in adaptive_policies() {
            let run = |policy: Box<dyn ReconfigPolicy>| {
                let mut sim = adaptive_outage_sim(seed, policy);
                let result = sim.run_until(SimTime::from_secs(2_500));
                assert!(
                    matches!(result, StepResult::Progress | StepResult::Stalled { .. }),
                    "policy {label} seed {seed}: unexpected {result:?}"
                );
                if let Some(violation) = validate_event_log(sim.events()) {
                    panic!("policy {label} seed {seed}: {violation}");
                }
                let s = sim.exec_stats();
                assert_eq!(s.attempts, s.completions + s.failures);
                assert!(sim.ctx().alarms.get() <= 1);
                sim
            };
            let first = run(make());
            let second = run(make());
            assert_eq!(
                first.events(),
                second.events(),
                "policy {label} seed {seed}: outage replay diverged — \
                 aborted decisions leaked into the policy's committed state"
            );
            assert!(
                first.exec_stats().failures > 0,
                "policy {label} seed {seed}: the outage trace never killed a task"
            );
        }
    }
}

/// Installing the default `StaticAnnotation` policy explicitly is
/// indistinguishable from building without a policy, down to the full
/// event log of a real application run.
#[test]
fn static_policy_matches_unpoliced_ta_run_bit_for_bit() {
    let events: Vec<SimTime> = (1..=6).map(|i| SimTime::from_secs(i * 150)).collect();
    let horizon = SimTime::from_secs(1_000);
    let mut plain = ta::build(Variant::CapyP, events.clone(), 77);
    let mut policed = ta::build_with_policy(Variant::CapyP, events, 77, Box::new(StaticAnnotation));
    plain.run_until(horizon);
    policed.run_until(horizon);
    assert_eq!(plain.events(), policed.events());
    assert_eq!(plain.exec_stats(), policed.exec_stats());
    assert_eq!(
        plain.ctx().packets.packets(),
        policed.ctx().packets.packets()
    );
}

/// The full TA application under a long run also keeps a valid timeline.
#[test]
fn ta_event_logs_are_valid_across_variants() {
    let events: Vec<SimTime> = (1..=6).map(|i| SimTime::from_secs(i * 150)).collect();
    for variant in Variant::ALL {
        let mut sim = ta::build(variant, events.clone(), 77);
        sim.run_until(SimTime::from_secs(1_000));
        assert_eq!(
            validate_event_log(sim.events()),
            None,
            "variant {variant} produced an inconsistent timeline"
        );
    }
}

/// A 24-hour TA endurance run: no stall, no drift, sane rates.
#[test]
fn twenty_four_hour_endurance() {
    let events: Vec<SimTime> = (1..=200).map(|i| SimTime::from_secs(i * 430)).collect();
    let day = SimTime::from_secs(24 * 3_600);
    let mut sim = ta::build(Variant::CapyP, events, 99);
    let result = sim.run_until(day);
    assert_eq!(result, StepResult::Progress);
    assert!(sim.now() >= day);
    let stats = sim.exec_stats();
    assert!(
        stats.completions > 100_000,
        "completions = {}",
        stats.completions
    );
    assert_eq!(validate_event_log(sim.events()), None);
    // Alarm count tracks the event count to within losses.
    let alarms = sim.ctx().packets.len();
    assert!((150..=200).contains(&alarms), "alarms = {alarms}");
}
