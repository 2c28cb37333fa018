//! Ablation (§6.4): sleep-paced sampling on a fixed-capacity buffer.
//!
//! "An alternative implementation might put the processor to sleep in
//! between samples to introduce a delay. However, the batches will still
//! be separated by the long charge time of the large capacitor, because
//! it will discharge during sampling despite the sleep mode, due to the
//! power overhead of the power system that remains on."
//!
//! This bench runs the TA sampling loop on the fixed bank with 1 s sleep
//! pacing and shows that the §6.4 argument holds: pacing spreads the
//! samples but the long full-bank charge gaps — and the events they
//! swallow — remain.

use capy_apps::prelude::*;
use capy_bench::{figure_header, sweep_footer, FIGURE_SEED};
use capy_power::harvester::SolarPanel;
use capy_power::prelude::{Bank, PowerSystem};
use capy_units::{SimDuration, SimTime, Watts};
use capybara::sweep::{run_sweep_on, SweepSpec};

struct Ctx {
    now: SimTime,
    samples: Vec<SimTime>,
    paced: bool,
}

impl NvState for Ctx {
    fn commit_all(&mut self) {}
    fn abort_all(&mut self) {}
}

impl SimContext for Ctx {
    fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }
}

fn build(paced: bool) -> Simulator<SolarPanel, Ctx> {
    let power = PowerSystem::builder()
        .harvester(SolarPanel::trisolx_pair_halogen())
        .bank(
            Bank::builder("ta-fixed")
                .with(parts::ceramic_x5r_300uf())
                .with(parts::tantalum_100uf())
                .with(parts::tantalum_1000uf())
                .with(parts::edlc_7_5mf())
                .build(),
            SwitchKind::NormallyClosed,
        )
        .build();
    Simulator::builder(Variant::Fixed, power, Mcu::msp430fr5969())
        .task(
            "sample",
            TaskEnergy::Unannotated,
            |mcu| {
                capy_device::peripherals::Tmp36::new()
                    .sample()
                    .plus_power(mcu.active_power())
                    .then(mcu.compute_for(SimDuration::from_millis(3)))
            },
            |c: &mut Ctx| {
                c.samples.push(c.now);
                if c.paced {
                    Transition::Sleep {
                        duration: SimDuration::from_secs(1),
                        then: TaskId(0),
                    }
                } else {
                    Transition::Stay
                }
            },
        )
        .build(Ctx {
            now: SimTime::ZERO,
            samples: Vec::new(),
            paced,
        })
}

/// Sample-gap statistics of a finished run: count, gaps over 30 s, and
/// the longest gap in seconds.
fn gap_stats(samples: &[SimTime]) -> (usize, usize, f64) {
    let gaps: Vec<f64> = samples
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    let long_gaps = gaps.iter().filter(|&&g| g > 30.0).count();
    let longest = gaps.iter().copied().fold(0.0, f64::max);
    (samples.len(), long_gaps, longest)
}

fn main() {
    figure_header(
        "Ablation (6.4)",
        "sleep-paced sampling on the fixed TA bank (40 min)",
    );
    println!(
        "{:<18} {:>10} {:>16} {:>14}",
        "pacing", "samples", "gaps > 30 s", "longest gap"
    );
    let _ = Watts::ZERO;
    let spec = SweepSpec::new("ablation-sleep-pacing", SimTime::from_secs(40 * 60))
        .base_seed(FIGURE_SEED)
        .declare_axis("paced", &[false, true])
        .point("tight loop", &[("paced", 0)])
        .point("1 s sleep pacing", &[("paced", 1)]);
    let (report, rows) = run_sweep_on(
        &spec,
        0,
        |point| build(point.expect_axis("paced")),
        |sim, _| gap_stats(&sim.ctx().samples),
    );
    for (run, (n, long_gaps, longest)) in report.runs.iter().zip(rows) {
        println!(
            "{:<18} {:>10} {:>16} {:>13.0}s",
            run.point.label, n, long_gaps, longest
        );
    }
    sweep_footer(&report);
    println!();
    println!("Expected shape: pacing thins the wasteful back-to-back samples");
    println!("by two orders of magnitude, but the full-bank charge gaps do");
    println!("not go away — the power system's quiescent overhead drains the");
    println!("buffer through sleep, exactly as §6.4 argues. Reconfigurable");
    println!("small-bank sampling, not sleep, is what removes the long gaps.");
}
