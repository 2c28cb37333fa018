//! Cross-crate tests of the Capybara runtime's semantics: pre-charge
//! ceilings, burst consumption, energy accounting, and switch-decay
//! interactions — exercised through the full simulator rather than module
//! unit tests.

use capy_units::{Joules, SimDuration, SimTime, Volts, Watts};
use capybara_suite::prelude::*;

struct Ctx {
    bursts: NvVar<u32>,
}

impl NvState for Ctx {
    fn commit_all(&mut self) {
        self.bursts.commit();
    }
    fn abort_all(&mut self) {
        self.bursts.abort();
    }
}

impl SimContext for Ctx {
    fn set_now(&mut self, _now: SimTime) {}
}

fn two_bank_power(harvest_mw: f64) -> PowerSystem<ConstantHarvester> {
    PowerSystem::builder()
        .harvester(ConstantHarvester::new(
            Watts::from_milli(harvest_mw),
            Volts::new(3.0),
        ))
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

fn looping_burst_sim(harvest_mw: f64) -> Simulator<ConstantHarvester, Ctx> {
    Simulator::builder(
        Variant::CapyP,
        two_bank_power(harvest_mw),
        Mcu::msp430fr5969(),
    )
    .mode("small", &[BankId(0)])
    .mode("big", &[BankId(1)])
    .task(
        "prep",
        TaskEnergy::Preburst {
            burst: EnergyMode(1),
            exec: EnergyMode(0),
        },
        |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(20))),
        |_c: &mut Ctx| Transition::To(TaskId(1)),
    )
    .task(
        "burst",
        TaskEnergy::Burst(EnergyMode(1)),
        |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_secs(2))),
        |c: &mut Ctx| {
            c.bursts.update(|n| n + 1);
            Transition::To(TaskId(0))
        },
    )
    .build(Ctx {
        bursts: NvVar::new(0),
    })
}

#[test]
fn every_burst_is_preceded_by_its_own_precharge() {
    let mut sim = looping_burst_sim(5.0);
    sim.run_until(SimTime::from_secs(400));
    let bursts = sim.ctx().bursts.get() as usize;
    assert!(bursts >= 3, "need several burst cycles, got {bursts}");
    let precharges = sim
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                SimEvent::Charge {
                    precharge: true,
                    ..
                }
            )
        })
        .count();
    let activations = sim
        .events()
        .iter()
        .filter(|e| matches!(e, SimEvent::BurstActivated { .. }))
        .count();
    // One pre-charge per activation: the burst consumes its reservation.
    assert_eq!(precharges, activations);
    assert!(activations >= bursts);
}

#[test]
fn precharge_ceiling_is_below_normal_full() {
    let mut sim = looping_burst_sim(5.0);
    sim.run_until(SimTime::from_secs(400));
    let mut pre_to = Vec::new();
    let mut full_to = Vec::new();
    for e in sim.events() {
        if let SimEvent::Charge { to, precharge, .. } = e {
            if *precharge {
                pre_to.push(*to);
            } else {
                full_to.push(*to);
            }
        }
    }
    let max_pre = pre_to.iter().copied().fold(Volts::ZERO, Volts::max);
    let max_full = full_to.iter().copied().fold(Volts::ZERO, Volts::max);
    assert!(
        max_full.get() - max_pre.get() > 0.25,
        "pre-charge ceiling {max_pre} should sit ~0.3 V below full {max_full}"
    );
}

#[test]
fn delivered_energy_is_bounded_by_harvested_energy() {
    let mut sim = looping_burst_sim(2.0);
    sim.run_until(SimTime::from_secs(600));
    let harvested = Watts::from_milli(2.0) * (sim.now() - SimTime::ZERO);
    let delivered = sim.power().energy_delivered();
    assert!(delivered > Joules::ZERO);
    assert!(
        delivered.get() < harvested.get(),
        "delivered {delivered} must not exceed harvested {harvested}"
    );
    // And conversion losses are material: well under 90% end-to-end.
    assert!(delivered.get() < harvested.get() * 0.9);
}

#[test]
fn burst_failure_consumes_the_precharge_and_recovers() {
    // A burst whose cost exceeds even a full big bank: first attempt
    // fails, recovery recharges on the critical path and fails again —
    // but the machine never advances past the task and never double
    // counts.
    let mut sim: Simulator<ConstantHarvester, Ctx> =
        Simulator::builder(Variant::CapyP, two_bank_power(5.0), Mcu::msp430fr5969())
            .mode("small", &[BankId(0)])
            .mode("big", &[BankId(1)])
            .task(
                "prep",
                TaskEnergy::Preburst {
                    burst: EnergyMode(1),
                    exec: EnergyMode(0),
                },
                |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(20))),
                |_c: &mut Ctx| Transition::To(TaskId(1)),
            )
            .task(
                "burst",
                TaskEnergy::Burst(EnergyMode(1)),
                // 60 s at active power ≈ 64 mJ: beyond the 7.5 mF bank.
                |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_secs(60))),
                |c: &mut Ctx| {
                    c.bursts.update(|n| n + 1);
                    Transition::To(TaskId(0))
                },
            )
            .build(Ctx {
                bursts: NvVar::new(0),
            });
    sim.run_until(SimTime::from_secs(300));
    assert_eq!(
        sim.ctx().bursts.get(),
        0,
        "infeasible burst must never commit"
    );
    assert!(sim.exec_stats().failures > 2);
    // The precharge reservation was consumed by the failed attempt.
    assert!(!sim
        .runtime_state()
        .is_precharged(capybara_suite::core::mode::EnergyMode(1)));
}

#[test]
fn switch_latch_decay_during_long_charge_falls_back_to_defaults() {
    // With a feeble harvester, charging the big bank takes far longer than
    // the ~3 min latch retention; the NO switch reverts mid-charge and the
    // device ends up running on the small default bank.
    let mut sim: Simulator<ConstantHarvester, Ctx> =
        Simulator::builder(Variant::CapyP, two_bank_power(0.05), Mcu::msp430fr5969())
            .mode("small", &[BankId(0)])
            .mode("big", &[BankId(1)])
            .task(
                "big_task",
                TaskEnergy::Config(EnergyMode(1)),
                |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(100))),
                |c: &mut Ctx| {
                    c.bursts.update(|n| n + 1);
                    Transition::Stay
                },
            )
            .build(Ctx {
                bursts: NvVar::new(0),
            });
    sim.run_until(SimTime::from_secs(4_000));
    // The big bank's switch decayed back open at some point.
    let closed = sim.power().closed_banks(sim.now());
    assert!(
        closed.contains(&BankId(0)),
        "small NC bank must be on the rail, closed = {closed:?}"
    );
    // Despite the runtime believing mode big is configured, progress (if
    // any) happened on whatever the hardware actually connected — and the
    // simulation never panicked or hung.
}
