//! Related-work baseline (§7): UFoP-style federated energy storage vs
//! Capybara on the GRC workload.
//!
//! Federation dedicates a store to each hardware unit; Capybara dedicates
//! energy modes to software tasks. Both avoid charging a worst-case
//! buffer before doing any work — the difference shows on a peripheral
//! that hosts tasks of very different energies (the gesture sensor doing
//! both cheap proximity samples and expensive gesture reads).
//!
//! The three systems are the points of a typed [`BaselineSystem`] sweep
//! axis run in parallel by `capy_bench::figures::baseline_federated_sweep`;
//! the printed rows are identical for any worker count.

use capy_apps::events::grc_schedule;
use capy_apps::grc;
use capy_bench::figures::baseline_federated_sweep;
use capy_bench::{figure_header, pct, sweep_footer, FIGURE_SEED};
use capy_units::rng::DetRng;

fn main() {
    figure_header(
        "Baseline (7)",
        "UFoP-style federated storage vs Capybara on GRC",
    );
    let events = grc_schedule(&mut DetRng::seed_from_u64(FIGURE_SEED));
    let (report, rows) = baseline_federated_sweep(&events, FIGURE_SEED, grc::HORIZON, 0);

    println!(
        "{:<22} {:>10} {:>16} {:>14}",
        "system", "correct", "passes sampled", "mcu work"
    );
    for (run, row) in report.runs.iter().zip(&rows) {
        println!(
            "{:<22} {:>10} {:>16} {:>14}",
            run.point.label,
            pct(row.correct),
            pct(row.sampled),
            row.mcu_work
                .map_or_else(|| "-".to_string(), |n| n.to_string()),
        );
    }
    sweep_footer(&report);
    println!();
    println!("Expected shape: federation keeps MCU-side work alive (its small");
    println!("store cycles independently) but the sensor peripheral's single");
    println!("gesture-sized store makes cheap proximity sampling as sluggish");
    println!("as a fixed-capacity design; Capybara's task-level modes detect");
    println!("and report far more events.");
}
