//! Fleet-scale population simulation: thousands of devices drawn from a
//! heterogeneous mix of templates (duty-cycle sensors plus heavier
//! relays), each perturbed by seed-derived placement, panel scale, and
//! task-rate jitter, all under a shared day/night cycle with correlated
//! harvest dips and spatial shading. Devices are folded into a streaming
//! [`FleetAccumulator`] as they finish, so peak memory is O(workers) —
//! never O(devices) — and the merged [`FleetReport`] is bit-identical
//! for any worker count.
//!
//! Run with: `cargo run --release --example fleet -- [--devices N] [--check]`
//!
//! `--check` re-runs the fleet serially and asserts the parallel and
//! serial reports are identical (the determinism contract).

use std::time::Instant;

use capy_units::{SimDuration, SimTime, Volts, Watts};
use capybara_suite::prelude::*;

/// One device of the population: a 4 mW panel (scaled by the device's
/// derived panel factor and the shared environment) feeding a two-part
/// bank. Template 0 ("sense") runs an 8 ms task on a ~200 ms duty
/// cycle; template 1 ("relay") runs a heavier 25 ms task on a ~500 ms
/// cycle — both scaled by the device's derived rate factor.
fn simulate_device(spec: &FleetSpec, point: &DevicePoint, horizon: SimTime) -> DeviceOutcome {
    let power = PowerSystem::builder()
        .harvester(spec.harvester_for(
            ConstantHarvester::new(Watts::from_milli(4.0), Volts::new(3.0)),
            point,
        ))
        .bank(
            Bank::builder("store")
                .with(parts::ceramic_x5r_400uf())
                .with(parts::tantalum_330uf())
                .build(),
            SwitchKind::NormallyClosed,
        )
        .build();
    let (name, compute_ms, cycle_s) = if point.template == 0 {
        ("sense", 8, 0.2)
    } else {
        ("relay", 25, 0.5)
    };
    let sleep = SimDuration::from_secs_f64(cycle_s / point.task_rate_scale);
    let mut sim = Simulator::builder(Variant::CapyR, power, Mcu::msp430fr5969())
        .task(
            name,
            TaskEnergy::Unannotated,
            move |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(compute_ms))),
            move |_c: &mut ()| Transition::Sleep {
                duration: sleep,
                then: TaskId(0),
            },
        )
        .build(());
    sim.run_until(horizon);
    DeviceOutcome::from_sim(&sim)
}

fn main() {
    let mut devices: u64 = 5_000;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--devices" => {
                if let Some(n) = args.next().and_then(|s| s.parse().ok()) {
                    devices = n;
                }
            }
            "--check" => check = true,
            other => {
                eprintln!("unknown argument `{other}` (use --devices N, --check)");
                std::process::exit(2);
            }
        }
    }

    let horizon = SimTime::from_secs(300);
    let env = SharedEnvironment::orbital(SimDuration::from_secs(90), 0.7)
        .with_dips(
            0xD19,
            3,
            SimDuration::from_secs(80),
            SimDuration::from_secs(6),
            0.25,
        )
        .shading(0.3)
        .expect("shading in range");
    // Four sensors for every relay, in one index space: appending a
    // template never reshuffles earlier devices.
    let relays = devices / 5;
    let sensors = devices - relays;
    let spec = FleetSpec::mixed(
        "fleet-example",
        horizon,
        vec![
            TemplateSpec::new("sense", sensors),
            TemplateSpec::new("relay", relays.max(1)),
        ],
    )
    .panel_jitter(0.15)
    .rate_jitter(0.10)
    .environment(env);
    let devices = spec.devices();

    println!(
        "== Fleet population: {sensors} sensors + {} relays ==\n",
        relays.max(1)
    );
    let t0 = Instant::now();
    let report = run_fleet_on(&spec, 0, |point| simulate_device(&spec, point, horizon));
    let wall = t0.elapsed();

    let acc = &report.acc;
    #[allow(clippy::cast_precision_loss)]
    let rate = devices as f64 / wall.as_secs_f64().max(1e-9);
    println!(
        "simulated {} devices on {} workers in {:.2} s  ({:.0} devices/s)",
        report.devices,
        report.workers,
        wall.as_secs_f64(),
        rate
    );
    println!(
        "streaming accumulator: {} bytes (constant in the device count)\n",
        acc.footprint_bytes()
    );

    println!(
        "fleet availability     {:>8.2} %",
        report.availability() * 100.0
    );
    println!("committed completions  {:>8}", acc.completions);
    println!(
        "per-device completions {:>8} min / {:>2} max",
        if acc.min_device_completions == u64::MAX {
            0
        } else {
            acc.min_device_completions
        },
        acc.max_device_completions
    );
    println!(
        "dead / stalled devices {:>8} / {}",
        acc.dead_devices, acc.stalled_devices
    );
    for q in [0.5, 0.9, 0.99] {
        if let Some(lat) = report.latency_quantile(q) {
            println!(
                "event latency p{:<5} {:>9.1} ms",
                q * 100.0,
                lat.as_secs_f64() * 1e3
            );
        }
    }

    let curve = report.survival_curve();
    print!("\nsurvival curve         ");
    for alive in curve {
        let glyph = match (alive * 8.0).round() as u32 {
            0 => ' ',
            1 => '.',
            2 | 3 => ':',
            4 | 5 => '|',
            6 | 7 => '#',
            _ => '@',
        };
        print!("{glyph}");
    }
    println!("  (fraction alive per horizon slice)");

    if check {
        println!("\n--check: re-running serially to verify bit-identity...");
        let serial = run_fleet_on(&spec, 1, |point| simulate_device(&spec, point, horizon));
        assert_eq!(
            report, serial,
            "parallel and serial fleet reports must be identical"
        );
        println!("identical on {} vs 1 worker(s): OK", report.workers);
    }
}
