//! Figure 9: report latency for detected events.
//!
//! "We measured the latency between when the event occurs and when the
//! packet is received on a laptop. For TA, latency is the time difference
//! between the packets from the reference board and the DUT board that
//! correspond to the same temperature alarm event. For GRC and CSR,
//! latency is the time between the pendulum actuation command and the BLE
//! packet reception."
//!
//! Each application's four variants run as one parallel [`SweepSpec`]
//! (`run_sweep_on`: the engine advances every run to the spec's
//! horizon, then the extract reads the finished simulator); the TA rows
//! compare against a continuously-powered reference run computed up
//! front and shared by every worker.

use capy_apps::events::{grc_schedule, ta_schedule};
use capy_apps::grc::{self, GrcVariant};
use capy_apps::metrics::{event_latencies, latency_stats, LatencyStats};
use capy_apps::observer::PacketLog;
use capy_apps::{csr, ta};
use capy_bench::{figure_header, sweep_footer, FIGURE_SEED};
use capy_units::rng::DetRng;
use capy_units::{SimDuration, SimTime};
use capybara::sweep::{run_sweep_on, SweepSpec};
use capybara::variant::Variant;

fn print_row(system: &str, stats: Option<LatencyStats>) {
    match stats {
        Some(s) => println!(
            "  {:<8} {:>6} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            system, s.count, s.mean, s.median, s.p95, s.max
        ),
        None => println!(
            "  {:<8} {:>6} {:>10} {:>10} {:>10} {:>10}",
            system, 0, "-", "-", "-", "-"
        ),
    }
}

/// TA latency against the continuously-powered reference board: for every
/// event both boards reported, `t_dut − t_reference`.
fn ta_latency_vs_reference(
    events: &[SimTime],
    reference: &PacketLog,
    dut: &PacketLog,
) -> Vec<SimDuration> {
    (0..events.len())
        .filter_map(|id| {
            let r = reference.first_for_event(id)?;
            let d = dut.first_for_event(id)?;
            Some(d.at.saturating_since(r.at))
        })
        .collect()
}

/// One sweep point per power-system variant, on a typed axis.
fn variant_spec(name: &'static str, horizon: SimTime) -> SweepSpec {
    SweepSpec::new(name, horizon)
        .base_seed(FIGURE_SEED)
        .axis("variant", &Variant::ALL)
}

fn print_variant_rows(rows: Vec<Option<LatencyStats>>) {
    for (v, stats) in Variant::ALL.iter().zip(rows) {
        print_row(v.label(), stats);
    }
}

fn main() {
    figure_header("Figure 9", "report latency for detected events (seconds)");
    println!(
        "  {:<8} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "system", "n", "mean", "median", "p95", "max"
    );

    let ta_events = ta_schedule(&mut DetRng::seed_from_u64(FIGURE_SEED));
    let reference = ta::run(Variant::Continuous, ta_events.clone(), FIGURE_SEED);
    println!("TempAlarm (latency vs continuously-powered reference):");
    let events = &ta_events;
    let ref_packets = &reference.packets;
    let (report, rows) = run_sweep_on(
        &variant_spec("fig9-ta", ta::HORIZON),
        0,
        |point| {
            let v = point.expect_axis::<Variant>("variant");
            ta::build(v, events.clone(), FIGURE_SEED)
        },
        |sim, _| {
            let lats = ta_latency_vs_reference(events, ref_packets, &sim.ctx().packets);
            latency_stats(&lats)
        },
    );
    print_variant_rows(rows);
    sweep_footer(&report);

    let grc_events = grc_schedule(&mut DetRng::seed_from_u64(FIGURE_SEED));
    let events = &grc_events;
    for gv in [GrcVariant::Fast, GrcVariant::Compact] {
        println!("{} (latency vs pendulum actuation):", gv.label());
        let name = match gv {
            GrcVariant::Fast => "fig9-grc-fast",
            GrcVariant::Compact => "fig9-grc-compact",
        };
        let (report, rows) = run_sweep_on(
            &variant_spec(name, grc::HORIZON),
            0,
            |point| {
                let v = point.expect_axis::<Variant>("variant");
                grc::build(v, gv, events.clone(), FIGURE_SEED)
            },
            |sim, _| latency_stats(&event_latencies(events, &sim.ctx().packets)),
        );
        print_variant_rows(rows);
        sweep_footer(&report);
    }

    println!("CorrSense (latency vs pendulum actuation):");
    let (report, rows) = run_sweep_on(
        &variant_spec("fig9-csr", grc::HORIZON),
        0,
        |point| {
            let v = point.expect_axis::<Variant>("variant");
            csr::build(v, events.clone(), FIGURE_SEED)
        },
        |sim, _| latency_stats(&event_latencies(events, &sim.ctx().packets)),
    );
    print_variant_rows(rows);
    sweep_footer(&report);

    println!();
    println!("Paper anchors: TA CB-R pays the full alarm-bank charge on the");
    println!("critical path (~64 s); CB-P cuts it to ~2.5 s by pre-charging.");
    println!("GRC-Fast reports as fast as continuous power; GRC-Compact adds");
    println!("the cold radio task between gesture and packet.");
}
