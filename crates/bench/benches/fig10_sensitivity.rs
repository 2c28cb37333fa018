//! Figure 10: sensitivity of detection accuracy to event inter-arrival
//! time.
//!
//! "We assess the sensitivity of accuracy to event inter-arrival times by
//! repeating the measurement for event sequences drawn from Poisson
//! distributions with decreasing means. … the farther apart the events
//! are in time the more events are successfully recognized and reported.
//! A lower event frequency, however, does not benefit a Fixed-Capacity
//! system as much as it benefits a Capybara system."
//!
//! Left panel: TA, means 100–400 s. Right panel: GRC-Fast, means 10–30 s.
//!
//! Each (mean, variant) cell is one point of a [`SweepSpec`] grid run in
//! parallel by `run_sweep_on`; event schedules are regenerated inside
//! each point from the same legacy seeds the serial loop used, so the
//! printed numbers are unchanged and identical for any worker count.
//! Each point's mission ends a fixed margin after its last event, so
//! `build` runs the simulator to that instant itself (the spec's horizon
//! is zero) and `extract` scores the finished run.

use capy_apps::events::poisson_events;
use capy_apps::grc::{self, GrcVariant};
use capy_apps::metrics::{accuracy_fractions, classify_reported};
use capy_apps::ta;
use capy_bench::{figure_header, sweep_footer, FIGURE_SEED};
use capy_units::rng::DetRng;
use capy_units::{SimDuration, SimTime};
use capybara::sweep::{run_sweep_on, SweepSpec};
use capybara::variant::Variant;

const TA_MEANS: [u64; 6] = [100, 150, 200, 250, 300, 400];
const GRC_MEANS: [u64; 5] = [10, 15, 20, 25, 30];
const GRC_VARIANTS: [Variant; 3] = [Variant::Continuous, Variant::Fixed, Variant::CapyP];
/// Events per TempAlarm sequence (`poisson_events` yields exactly this
/// many).
const TA_EVENTS: usize = 50;
/// Events per GestureFast sequence.
const GRC_EVENTS: usize = 80;

fn grid(name: &'static str, means: &[u64], variants: &[Variant]) -> SweepSpec {
    SweepSpec::new(name, SimTime::ZERO)
        .base_seed(FIGURE_SEED)
        .axis("mean_s", means)
        .axis("variant", variants)
}

fn main() {
    figure_header(
        "Figure 10",
        "fraction of reported events vs mean event inter-arrival time",
    );

    println!("TempAlarm (50 events per sequence):");
    println!(
        "  {:>10} {:>8} {:>8} {:>8} {:>8}",
        "mean(s)", "Pwr", "Fixed", "CB-R", "CB-P"
    );
    let ta_spec = grid("fig10-ta", &TA_MEANS, &Variant::ALL);
    let (ta_report, ta_correct) = run_sweep_on(
        &ta_spec,
        0,
        |point| {
            let mean_s: u64 = point.expect_axis("mean_s");
            let v = point.expect_axis::<Variant>("variant");
            let events = poisson_events(
                &mut DetRng::seed_from_u64(FIGURE_SEED ^ mean_s),
                SimDuration::from_secs(mean_s),
                TA_EVENTS,
                SimDuration::from_secs(45),
            );
            let horizon =
                events.last().copied().unwrap_or(SimTime::ZERO) + SimDuration::from_secs(120);
            let mut sim = ta::build(v, events, FIGURE_SEED);
            sim.run_until(horizon);
            sim
        },
        |sim, _| accuracy_fractions(&classify_reported(TA_EVENTS, &sim.ctx().packets)).correct,
    );
    for (row, &mean_s) in TA_MEANS.iter().enumerate() {
        let cols = &ta_correct[row * Variant::ALL.len()..(row + 1) * Variant::ALL.len()];
        println!(
            "  {:>10} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            mean_s, cols[0], cols[1], cols[2], cols[3]
        );
    }
    sweep_footer(&ta_report);

    println!("GestureFast (80 events per sequence; Pwr / Fixed / CB-P as in the paper):");
    println!(
        "  {:>10} {:>8} {:>8} {:>8}",
        "mean(s)", "Pwr", "Fixed", "CB-P"
    );
    let grc_spec = grid("fig10-grc", &GRC_MEANS, &GRC_VARIANTS);
    let (grc_report, grc_reported) = run_sweep_on(
        &grc_spec,
        0,
        |point| {
            let mean_s: u64 = point.expect_axis("mean_s");
            let v = point.expect_axis::<Variant>("variant");
            let events = poisson_events(
                &mut DetRng::seed_from_u64(FIGURE_SEED ^ (mean_s << 8)),
                SimDuration::from_secs(mean_s),
                GRC_EVENTS,
                SimDuration::from_secs(3),
            );
            let horizon =
                events.last().copied().unwrap_or(SimTime::ZERO) + SimDuration::from_secs(60);
            let mut sim = grc::build(v, GrcVariant::Fast, events, FIGURE_SEED);
            sim.run_until(horizon);
            sim
        },
        |sim, _| {
            let classes = grc::classify_run(GRC_EVENTS, &sim.ctx().packets, &sim.ctx().attempts);
            let f = accuracy_fractions(&classes);
            // "Fraction of reported events": correct + misclassified
            // both produce packets.
            f.correct + f.misclassified
        },
    );
    for (row, &mean_s) in GRC_MEANS.iter().enumerate() {
        let cols = &grc_reported[row * GRC_VARIANTS.len()..(row + 1) * GRC_VARIANTS.len()];
        println!(
            "  {:>10} {:>8.2} {:>8.2} {:>8.2}",
            mean_s, cols[0], cols[1], cols[2]
        );
    }
    sweep_footer(&grc_report);

    println!();
    println!("Expected shape: every curve rises with sparser events, but the");
    println!("Fixed system gains least — it must recharge its large buffer");
    println!("after every discharge whether or not an event arrived.");
}
