//! Quickstart: build an intermittently-powered device with a
//! reconfigurable energy store, annotate a two-task application with
//! energy modes, and watch Capybara's burst pre-charging eliminate the
//! recharge pause on the critical path.
//!
//! Run with: `cargo run --release --example quickstart`

use capy_units::{SimDuration, SimTime, Volts, Watts};
use capybara_suite::prelude::*;

/// Application state: a count of alerts delivered, kept in non-volatile
/// memory so power failures cannot double- or under-count.
#[derive(Default)]
struct App {
    alerts: NvVar<u32>,
}

impl NvState for App {
    fn commit_all(&mut self) {
        self.alerts.commit();
    }
    fn abort_all(&mut self) {
        self.alerts.abort();
    }
}

impl SimContext for App {
    fn set_now(&mut self, _now: SimTime) {}
}

fn build_sim(variant: Variant) -> Simulator<ConstantHarvester, App> {
    // Hardware: a small always-on bank for cheap sampling and a large
    // EDLC bank for the expensive alert, behind latch-retained switches.
    let small = Bank::builder("small")
        .with(parts::ceramic_x5r_400uf())
        .with(parts::tantalum_330uf())
        .build();
    let big = Bank::builder("big").with(parts::edlc_7_5mf()).build();
    let power = PowerSystem::builder()
        .harvester(ConstantHarvester::new(
            Watts::from_milli(5.0),
            Volts::new(3.0),
        ))
        .bank(small, SwitchKind::NormallyClosed)
        .bank(big, SwitchKind::NormallyOpen)
        .build();

    Simulator::builder(variant, power, Mcu::msp430fr5969())
        .mode("sense-mode", &[BankId(0)])
        .mode("alert-mode", &[BankId(1)])
        // The sampling task pre-charges the alert bank off the critical
        // path, then runs in the small, quickly-recharging mode.
        .task(
            "sense",
            TaskEnergy::Preburst {
                burst: EnergyMode(1),
                exec: EnergyMode(0),
            },
            |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(10))),
            |_app: &mut App| Transition::To(TaskId(1)),
        )
        // The alert spends the pre-charged bank instantly.
        .task(
            "alert",
            TaskEnergy::Burst(EnergyMode(1)),
            |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(200))),
            |app: &mut App| {
                app.alerts.update(|n| n + 1);
                Transition::Stop
            },
        )
        .build(App::default())
}

fn main() {
    println!("== Capybara quickstart: sense once, then fire one alert ==\n");
    for variant in [Variant::CapyR, Variant::CapyP] {
        let mut sim = build_sim(variant);
        sim.run_until(SimTime::from_secs(600));
        let alert_charges: Vec<String> = sim
            .events()
            .iter()
            .filter_map(|e| match e {
                SimEvent::Charge {
                    start,
                    end,
                    precharge,
                    ..
                } => Some(format!(
                    "    charge {}{}",
                    *end - *start,
                    if *precharge { " (pre-charge)" } else { "" }
                )),
                SimEvent::BurstActivated { .. } => {
                    Some("    burst activated — no charging pause".to_string())
                }
                _ => None,
            })
            .collect();
        println!("{variant}: alert delivered at t = {}", sim.now());
        println!("  alerts = {}", sim.ctx().alerts.get());
        for line in alert_charges {
            println!("{line}");
        }
        println!();
    }
    println!("CB-R charges the big bank on the critical path between the");
    println!("sense task and the alert; CB-P paid that latency in advance.");
}
