//! Bit-identity gates for the kernel-tuning optimizations.
//!
//! Every gated fast path in the power kernel ([`KernelTuning`]'s rail
//! derived-quantity cache and discharge memo) is pure memoization: it must
//! return *bitwise* the same floats the un-memoized code computes. These
//! tests run figure-8/figure-9/TA-shaped scenarios once per tuning and
//! require the event logs, run summaries, final rail voltages, and sweep
//! reports to compare equal. Any optimization that drifts by even one ulp
//! fails here and must either be made exact or moved to the unconditional
//! (tuning-independent) part of the kernel.

use std::time::Duration;

use capy_units::rng::DetRng;
use capy_units::{SimDuration, SimTime};
use capybara_suite::apps::events::{fit_span, poisson_events};
use capybara_suite::apps::grc::{self, GrcVariant};
use capybara_suite::apps::ta;
use capybara_suite::power::harvester::Harvester;
use capybara_suite::power::prelude::KernelTuning;
use capybara_suite::prelude::*;
use capybara_suite::sweep::{run_sweep_on, RunSummary, SweepSpec};

const SEED: u64 = 0xB171D;

/// Runs the same scenario under both kernel tunings and asserts the two
/// executions are observationally identical, bit for bit.
fn assert_bit_identical<H, C>(build: impl Fn() -> Simulator<H, C>, horizon: SimTime, label: &str)
where
    H: Harvester,
    C: SimContext,
{
    let run = |tuning: KernelTuning| {
        let mut sim = build();
        sim.power_mut().set_tuning(tuning);
        sim.run_until(horizon);
        sim
    };
    let opt = run(KernelTuning::optimized());
    let base = run(KernelTuning::baseline());

    assert_eq!(opt.events(), base.events(), "{label}: event logs diverge");
    assert_eq!(
        RunSummary::from_sim(&opt, Duration::ZERO),
        RunSummary::from_sim(&base, Duration::ZERO),
        "{label}: run summaries diverge"
    );
    assert_eq!(opt.now(), base.now(), "{label}: simulated clocks diverge");
    assert_eq!(
        opt.power().rail_voltage(opt.now()).get().to_bits(),
        base.power().rail_voltage(base.now()).get().to_bits(),
        "{label}: final rail voltage diverges"
    );
}

fn ta_events() -> Vec<SimTime> {
    let mut ev = poisson_events(
        &mut DetRng::seed_from_u64(SEED),
        SimDuration::from_secs(80),
        6,
        SimDuration::from_secs(45),
    );
    fit_span(&mut ev, SimDuration::from_secs(500));
    ev
}

/// TA (figure-8 left half / figure-11) shape: every variant's minute-scale
/// temperature-alarm run is bit-identical across tunings.
#[test]
fn ta_scenarios_bit_identical_across_tunings() {
    let events = ta_events();
    for v in Variant::ALL {
        assert_bit_identical(
            || ta::build(v, events.clone(), SEED),
            SimTime::from_secs(600),
            &format!("ta/{v:?}"),
        );
    }
}

/// GRC (figure-8 right half / figure-9) shape: the gesture-recognition
/// pipeline — bursty, precharge-driven, heavy on back-to-back draws — is
/// bit-identical across tunings for every variant.
#[test]
fn grc_scenarios_bit_identical_across_tunings() {
    let mut events = poisson_events(
        &mut DetRng::seed_from_u64(SEED),
        SimDuration::from_micros(31_500_000),
        8,
        SimDuration::from_secs(4),
    );
    fit_span(&mut events, SimDuration::from_secs(300));
    for v in Variant::ALL {
        assert_bit_identical(
            || grc::build(v, GrcVariant::Fast, events.clone(), SEED),
            SimTime::from_secs(360),
            &format!("grc/{v:?}"),
        );
    }
}

/// Sweep-level gate: a figure-8-shaped variant sweep produces an identical
/// [`capybara_suite::sweep::SweepReport`] (including every per-run summary)
/// whichever tuning the workers run with.
#[test]
fn variant_sweep_reports_bit_identical_across_tunings() {
    let events = ta_events();
    let horizon = SimTime::from_secs(400);
    let run = |tuning: KernelTuning| {
        let spec = SweepSpec::new("bit-identity-ta", horizon)
            .base_seed(SEED)
            .axis("variant", &Variant::ALL);
        run_sweep_on(
            &spec,
            0,
            |point| {
                let v = point.expect_axis::<Variant>("variant");
                let mut sim = ta::build(v, events.clone(), SEED);
                sim.power_mut().set_tuning(tuning);
                sim
            },
            |sim, _| RunSummary::from_sim(sim, Duration::ZERO),
        )
    };
    let (report_opt, summaries_opt) = run(KernelTuning::optimized());
    let (report_base, summaries_base) = run(KernelTuning::baseline());
    assert_eq!(report_opt, report_base, "sweep reports diverge");
    assert_eq!(summaries_opt, summaries_base, "per-run summaries diverge");
}
