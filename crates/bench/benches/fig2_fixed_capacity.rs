//! Figure 2: execution with a fixed-capacity energy buffer.
//!
//! "The application attempts to collect a time series of 15 sensor
//! samples to cover a time interval and transmit the data by radio. …
//! With a small energy buffer (left), the application collects sensor
//! samples reactively, with short recharge periods between sampling
//! bursts. However, this system buffers insufficient energy to completely
//! transmit by radio. With a large energy buffer (right), the application
//! buffers sufficient energy to transmit [but] spends a much longer period
//! of time charging and fails to sample the sensor reactively."
//!
//! This bench runs that exact application on a low- and a high-capacity
//! fixed buffer and prints the rail-voltage trace with charge/sample/
//! packet annotations. The two panels are the two points of a
//! [`SweepSpec`] run in parallel by `run_sweep_on`; the charge counts
//! and mean charge time come straight from each run's [`RunSummary`].

use capy_apps::prelude::*;
use capy_bench::figures::Fig2Panel;
use capy_bench::{figure_header, sweep_footer, FIGURE_SEED};
use capy_device::peripherals::{BleRadio, Tmp36};
use capy_power::prelude::{Bank, ConstantHarvester, PowerSystem, SwitchKind};
use capy_units::{SimDuration, SimTime, Volts, Watts};
use capybara::sweep::{run_sweep_on, SweepSpec};

struct Fig2Ctx {
    now: SimTime,
    samples_in_series: NvVar<u32>,
    completed_packets: NvVar<u32>,
    sample_times: Vec<SimTime>,
    packet_times: Vec<SimTime>,
}

impl NvState for Fig2Ctx {
    fn commit_all(&mut self) {
        self.samples_in_series.commit();
        self.completed_packets.commit();
    }
    fn abort_all(&mut self) {
        self.samples_in_series.abort();
        self.completed_packets.abort();
    }
}

impl SimContext for Fig2Ctx {
    fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }
}

const HORIZON: SimTime = SimTime::from_secs(60);

fn panel_bank(panel: Fig2Panel) -> Bank {
    match panel {
        Fig2Panel::Low => Bank::builder("low")
            .with(parts::ceramic_x5r_400uf())
            .with(parts::tantalum_330uf())
            .build(),
        Fig2Panel::High => Bank::builder("high")
            .with(parts::ceramic_x5r_300uf())
            .with(parts::tantalum_100uf())
            .with(parts::tantalum_1000uf())
            .with(parts::edlc_7_5mf())
            .build(),
    }
}

/// Per-panel data the summary alone cannot carry: application counters
/// and the rail-voltage trace.
struct PanelDetail {
    samples: usize,
    packets_completed: u32,
    packets_failed: usize,
    trace: Vec<(f64, f64)>,
}

fn build_panel(panel: Fig2Panel) -> Simulator<ConstantHarvester, Fig2Ctx> {
    let power = PowerSystem::builder()
        .harvester(ConstantHarvester::new(
            Watts::from_milli(10.0),
            Volts::new(3.0),
        ))
        .bank(panel_bank(panel), SwitchKind::NormallyClosed)
        .build();
    let ctx = Fig2Ctx {
        now: SimTime::ZERO,
        samples_in_series: NvVar::new(0),
        completed_packets: NvVar::new(0),
        sample_times: Vec::new(),
        packet_times: Vec::new(),
    };
    Simulator::builder(Variant::Fixed, power, Mcu::msp430fr5969())
        .mode("only", &[BankId(0)])
        .task(
            "sample",
            TaskEnergy::Unannotated,
            |mcu| {
                Tmp36::new()
                    .sample()
                    .plus_power(mcu.active_power())
                    .then(mcu.compute_for(SimDuration::from_millis(300)))
            },
            |ctx: &mut Fig2Ctx| {
                ctx.sample_times.push(ctx.now);
                let n = ctx.samples_in_series.get() + 1;
                ctx.samples_in_series.set(n);
                if n >= 15 {
                    Transition::To(TaskId(1))
                } else {
                    Transition::Stay
                }
            },
        )
        .task(
            "radio_tx",
            TaskEnergy::Unannotated,
            |mcu| {
                BleRadio::cc2650()
                    .tx_packet(25)
                    .plus_power(mcu.active_power())
            },
            |ctx: &mut Fig2Ctx| {
                ctx.packet_times.push(ctx.now);
                ctx.completed_packets.update(|n| n + 1);
                ctx.samples_in_series.set(0);
                Transition::To(TaskId(0))
            },
        )
        .record_trace(true)
        .build(ctx)
}

/// Reads a panel's detail from its finished run.
fn panel_detail(sim: &Simulator<ConstantHarvester, Fig2Ctx>) -> PanelDetail {
    let packets_failed = sim
        .events()
        .iter()
        .filter(|e| matches!(e, SimEvent::PowerFailure { task, .. } if task.0 == 1))
        .count();
    let trace = sim
        .trace()
        .expect("tracing enabled")
        .iter()
        .map(|(t, v)| (t.as_secs_f64(), v.get()))
        .collect();
    PanelDetail {
        samples: sim.ctx().sample_times.len(),
        packets_completed: sim.ctx().completed_packets.get(),
        packets_failed,
        trace,
    }
}

fn main() {
    let _ = FIGURE_SEED;
    figure_header(
        "Figure 2",
        "fixed-capacity execution: 15-sample series + radio packet",
    );
    let spec = SweepSpec::new("fig2", HORIZON).axis("panel", &Fig2Panel::ALL);
    let (report, details) = run_sweep_on(
        &spec,
        0,
        |point| build_panel(point.expect_axis("panel")),
        |sim, _| panel_detail(sim),
    );

    for (run, detail) in report.runs.iter().zip(&details) {
        let s = &run.summary;
        println!("-- {} --", run.point.label);
        println!(
            "samples={} packets_completed={} packets_failed={} charge_intervals={}",
            detail.samples,
            detail.packets_completed,
            detail.packets_failed,
            s.charges + s.precharges,
        );
        println!("mean_charge_s={:.2}", s.mean_charge_time().as_secs_f64());
        println!("rail voltage over 60 s:");
        print!(
            "{}",
            capy_bench::plot::line_chart(&[("V(t)", detail.trace.clone())], 64, 10)
        );
        println!();
    }
    sweep_footer(&report);
    println!("Expected shape: the low-capacity panel shows short charge");
    println!("cycles, steady samples, and only failed packets; the");
    println!("high-capacity panel completes packets but spends long spans");
    println!("charging with no samples.");
}
