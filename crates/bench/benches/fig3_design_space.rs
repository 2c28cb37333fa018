//! Figure 3: the design space for energy buffer capacity.
//!
//! "We connected a MSP430FR5969 microcontroller to capacitors of different
//! size … For each capacitor, we measured the longest span of ALU
//! operations that the device could execute before a power failure."
//!
//! The printed curve is the feasibility frontier: configurations to its
//! left are infeasible (the atomicity requirement exceeds the buffer);
//! configurations to its right are not reactive (charging longer than
//! necessary).
//!
//! The capacitance axis is evaluated in parallel by the sweep engine's
//! `map_on` (the per-point computation is analytic — no simulator — so
//! the summary-producing `run_sweep_on` form does not apply); results
//! are collected in input order, so output is identical for any worker
//! count.

use capy_bench::figure_header;
use capy_device::mcu::Mcu;
use capy_power::booster::OutputBooster;
use capy_power::capacitor;
use capy_units::{Farads, Ohms, Volts, Watts};
use capybara::sweep::map_on;

fn main() {
    figure_header(
        "Figure 3",
        "atomicity (Mops) vs energy buffer capacitance (uF)",
    );
    let mcu = Mcu::msp430fr5969_full_speed();
    let booster = OutputBooster::prototype();
    let v_full = Volts::new(2.8);
    let v_min = booster.min_operating_voltage();
    let p = booster.input_power_for(mcu.active_power());

    println!("{:>12} {:>12} {:>16}", "C(uF)", "Mops", "recharge@1mW(s)");
    // Log sweep over 10² .. 10⁴ µF, the paper's x-axis.
    let caps: Vec<f64> = (0..=24)
        .map(|i| 100.0 * 10f64.powf(f64::from(i) / 12.0))
        .collect();
    let rows: Vec<(f64, f64, f64)> = map_on(&caps, 0, |&c_uf| {
        let c = Farads::from_micro(c_uf);
        let (on_time, _) = capacitor::sustain_time(c, Ohms::ZERO, v_full, p, v_min);
        let mops = on_time.as_secs_f64() * mcu.ops_per_second() / 1e6;
        let recharge = capacitor::time_to_charge(c, v_min, v_full, Watts::from_milli(1.0) * 0.8);
        (c_uf, mops, recharge.as_secs_f64())
    });
    for &(c_uf, mops, recharge) in &rows {
        println!("{c_uf:>12.0} {mops:>12.3} {recharge:>16.1}");
    }

    // Anchor checks against the paper's curve.
    let at = |target: f64| {
        rows.iter()
            .min_by(|a, b| {
                (a.0 - target)
                    .abs()
                    .partial_cmp(&(b.0 - target).abs())
                    .expect("finite")
            })
            .expect("rows nonempty")
            .1
    };
    println!();
    println!(
        "anchors: ~10^4 uF -> {:.2} Mops (paper: ~4); ~10^3 uF -> {:.2} Mops (paper: <1)",
        at(10_000.0),
        at(1_000.0)
    );
    println!("Expected shape: Mops grows linearly with capacitance; the");
    println!("frontier separates infeasible (left) from non-reactive (right)");
    println!("configurations.");
}
