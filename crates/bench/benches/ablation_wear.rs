//! Ablation (§5.2): natural wear levelling of the switched-bank design.
//!
//! "Taking inspiration from the concept of caching, dense but fragile
//! capacitors can be dedicated to a bank and used only when another bank
//! with less dense but more robust capacitors is insufficient."
//!
//! Under the Fixed design, the EDLC bulk cycles with *every* recharge;
//! under Capybara the EDLC alarm bank cycles only around actual alarm
//! events, so the fragile parts see orders of magnitude fewer deep cycles
//! for the same workload.

use capy_apps::events::ta_schedule;
use capy_apps::ta;
use capy_bench::{figure_header, sweep_footer, FIGURE_SEED};
use capy_power::bank::BankId;
use capy_power::lifetime::{projected_lifetime, typical_cycle_life, WearReport};
use capy_power::technology::Technology;
use capy_units::rng::DetRng;
use capybara::sweep::{run_sweep_on, SweepSpec};
use capybara::variant::Variant;

/// The two systems compared: the paper's fixed bulk vs Capy-P.
const SYSTEMS: [Variant; 2] = [Variant::Fixed, Variant::CapyP];

fn main() {
    figure_header(
        "Ablation (5.2)",
        "EDLC deep cycles per 2 h of TempAlarm: Fixed vs Capybara",
    );
    let events = ta_schedule(&mut DetRng::seed_from_u64(FIGURE_SEED));
    println!(
        "{:<8} {:>12} {:>14} {:>22}",
        "system", "bank", "deep cycles", "projected EDLC life"
    );
    let spec = SweepSpec::new("ablation-wear", ta::HORIZON)
        .base_seed(FIGURE_SEED)
        .axis("system", &SYSTEMS);
    let events_ref = &events;
    let (report, rows) = run_sweep_on(
        &spec,
        0,
        |point| {
            let v = point.expect_axis::<Variant>("system");
            ta::build(v, events_ref.clone(), FIGURE_SEED)
        },
        // Per-bank deep-cycle counts from the finished run (§5.2 wear
        // accounting).
        |sim, _| {
            (0..sim.power().bank_count())
                .map(|i| {
                    let bank = sim.power().bank(BankId(i)).expect("index in range");
                    (bank.name(), bank.cycles())
                })
                .collect::<Vec<_>>()
        },
    );
    for (v, bank_cycles) in SYSTEMS.iter().zip(rows) {
        for (name, cycles) in &bank_cycles {
            // Only banks containing EDLC parts wear; the fixed bank and
            // the Capybara large bank both do.
            let edlc = name.contains("fixed") || name.contains("large");
            let life = if edlc {
                let wear = WearReport {
                    cycles: *cycles,
                    cycle_life: typical_cycle_life(Technology::Edlc),
                    consumed: *cycles as f64 / typical_cycle_life(Technology::Edlc).unwrap() as f64,
                };
                projected_lifetime(&wear, ta::HORIZON.elapsed_since_origin())
                    .map_or("unlimited".to_string(), |d| {
                        format!("{:.1} years", d.as_secs_f64() / 86_400.0 / 365.0)
                    })
            } else {
                "n/a (robust)".to_string()
            };
            println!("{:<8} {:>12} {:>14} {:>22}", v.label(), name, cycles, life);
        }
    }
    sweep_footer(&report);
    println!();
    println!("Expected shape: the Capybara large (EDLC) bank deep-cycles only");
    println!("around alarm events (tens over two hours) while the Fixed bank's");
    println!("EDLC content cycles with every sampling recharge — hundreds of");
    println!("times — so wear-levelled EDLC life is years, not months.");
}
