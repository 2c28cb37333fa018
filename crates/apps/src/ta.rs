//! The Temperature Monitor with Alarm (TA) application (§6.1.2).
//!
//! TA "senses the temperature of an object using an external analog
//! sensor and collects a time series of the samples. If the temperature
//! leaves a specified range, the application sends a BLE packet that
//! indicates an alarm and contains the most recent time series."
//!
//! Atomicity requirements: (1) acquire one temperature sample; (2)
//! transmit a 25-byte BLE packet. Temporal requirements: minimize charging
//! intervals between samples; send the alarm immediately upon anomaly
//! detection.
//!
//! Bank provisioning (from the paper):
//!
//! * Fixed: one bank of 300 µF ceramic + 1100 µF tantalum + 7.5 mF EDLC.
//! * Capybara mode 1 (sampling): 300 µF ceramic + 100 µF tantalum.
//! * Capybara mode 2 (alarm): 1000 µF tantalum + 7.5 mF EDLC.
//! * Capy-P pre-charges mode 2 "prior to the energy burst in the
//!   temperature alarm task".

use capy_device::load::TaskLoad;
use capy_device::mcu::Mcu;
use capy_device::peripherals::{BleRadio, Tmp36};
use capy_intermittent::machine::ExecStats;
use capy_intermittent::nv::{NvState, NvVar, NvVec};
use capy_intermittent::task::{TaskId, Transition};
use capy_power::bank::{Bank, BankId};
use capy_power::harvester::SolarPanel;
use capy_power::switch::SwitchKind;
use capy_power::system::PowerSystem;
use capy_power::technology::parts;
use capy_units::cycle::Cycle;
use capy_units::rng::DetRng;
use capy_units::{SimDuration, SimTime};
use capybara::annotation::TaskEnergy;
use capybara::mode::EnergyMode;
use capybara::policy::ReconfigPolicy;
use capybara::sim::{SimContext, Simulator, SimulatorBuilder};
use capybara::variant::Variant;

use crate::env::HeatsinkRig;
use crate::observer::{PacketLog, SampleLog};

/// Length of the retained sample window (the paper's motivating example
/// collects "a time series of 15 sensor samples", §2.1).
pub const SERIES_LEN: usize = 15;

/// Fraction of BLE packets lost to interference even on continuous power
/// (§6.2: "BLE packets lost due to interference").
pub const BLE_LOSS: f64 = 0.02;

/// The TA experiment horizon: 120 minutes (§6.2).
pub const HORIZON: SimTime = SimTime::from_secs(120 * 60);

/// The sampling energy mode (small banks; policy ladders start here).
pub const M_SAMPLE: EnergyMode = EnergyMode(0);
/// The alarm energy mode (large banks).
pub const M_ALARM: EnergyMode = EnergyMode(1);

/// Application context: device-resident non-volatile state, the stimulus
/// rig, and the external measurement instrumentation.
#[derive(Debug, Clone, PartialEq)]
pub struct TaCtx {
    now: SimTime,
    rig: HeatsinkRig,
    rng: DetRng,
    /// Rolling sample window (non-volatile).
    series: NvVec<f32>,
    /// Last excursion already alarmed (non-volatile).
    last_reported: NvVar<Option<usize>>,
    /// Excursion pending alarm transmission (non-volatile).
    pending: NvVar<Option<usize>>,
    /// Sniffer log (external instrumentation).
    pub packets: PacketLog,
    /// Sample-instant log (external instrumentation).
    pub samples: SampleLog,
}

impl NvState for TaCtx {
    fn commit_all(&mut self) {
        self.series.commit();
        self.last_reported.commit();
        self.pending.commit();
    }
    fn abort_all(&mut self) {
        self.series.abort();
        self.last_reported.abort();
        self.pending.abort();
    }
}

impl SimContext for TaCtx {
    fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// The bodies decide on the sample series, the alarm latches and the
    /// rig's readings, which [`TaCtx::steady_until`] bounds; the generator
    /// draws only on an alarm. The packet count is a word, so a cycle
    /// that sends an alarm never repeats, the sample log is a log and
    /// the clock an instant.
    fn steady_state(&mut self, c: &mut Cycle<'_>) -> bool {
        let Self {
            now,
            rig: _,
            rng,
            series,
            last_reported,
            pending,
            packets,
            samples,
        } = self;
        series.cycle_words(c, |x, c| c.word(u64::from(x.to_bits())));
        for latch in [&*last_reported, &*pending] {
            latch.cycle_words(c, |id, c| {
                c.word(u64::from(id.is_some()));
                c.word(id.map_or(0, |id| id as u64));
            });
        }
        rng.steady_state(c);
        c.word(packets.len() as u64);
        samples.steady_state(c);
        c.instant(now);
        true
    }

    fn steady_until(&self, now: SimTime) -> SimTime {
        self.rig.steady_until(now)
    }
}

impl TaCtx {
    fn new(rig: HeatsinkRig, seed: u64) -> Self {
        Self {
            now: SimTime::ZERO,
            rig,
            rng: DetRng::seed_from_u64(seed),
            series: NvVec::new(),
            last_reported: NvVar::new(None),
            pending: NvVar::new(None),
            packets: PacketLog::new(),
            samples: SampleLog::new(),
        }
    }
}

/// Everything an experiment needs from one TA run.
#[derive(Debug)]
pub struct TaReport {
    /// The variant that executed.
    pub variant: Variant,
    /// Packets received by the sniffer.
    pub packets: PacketLog,
    /// Temperature-sample instants.
    pub samples: SampleLog,
    /// The stimulus excursion instants.
    pub events: Vec<SimTime>,
    /// The experiment horizon.
    pub horizon: SimTime,
    /// Execution statistics.
    pub exec: ExecStats,
}

/// Builds the TA power system for `variant`.
fn power_system(variant: Variant) -> PowerSystem<SolarPanel> {
    let harvester = SolarPanel::trisolx_pair_halogen();
    match variant {
        Variant::Continuous | Variant::Fixed => PowerSystem::builder()
            .harvester(harvester)
            .bank(
                Bank::builder("ta-fixed")
                    .with(parts::ceramic_x5r_300uf())
                    .with(parts::tantalum_1000uf())
                    .with(parts::tantalum_100uf())
                    .with(parts::edlc_7_5mf())
                    .build(),
                SwitchKind::NormallyClosed,
            )
            .build(),
        Variant::CapyR | Variant::CapyP => PowerSystem::builder()
            .harvester(harvester)
            .bank(
                Bank::builder("ta-small")
                    .with(parts::ceramic_x5r_300uf())
                    .with(parts::tantalum_100uf())
                    .build(),
                SwitchKind::NormallyClosed,
            )
            .bank(
                Bank::builder("ta-large")
                    .with(parts::tantalum_1000uf())
                    .with(parts::edlc_7_5mf())
                    .build(),
                SwitchKind::NormallyOpen,
            )
            .build(),
    }
}

fn mode_banks(variant: Variant) -> ([BankId; 1], Vec<BankId>) {
    match variant {
        // Single-bank systems: both modes alias the one bank so the
        // annotations validate; the planner never acts on them.
        Variant::Continuous | Variant::Fixed => ([BankId(0)], vec![BankId(0)]),
        Variant::CapyR | Variant::CapyP => ([BankId(0)], vec![BankId(1)]),
    }
}

/// Builds a ready-to-run TA simulator for `variant` over the excursion
/// schedule `events`.
#[must_use]
pub fn build(variant: Variant, events: Vec<SimTime>, seed: u64) -> Simulator<SolarPanel, TaCtx> {
    let (builder, ctx) = assemble(variant, events, seed);
    builder.build(ctx)
}

/// Like [`build`] but with an adaptive reconfiguration policy installed
/// (see [`capybara::policy`]); [`build`] keeps the paper's static
/// annotations.
#[must_use]
pub fn build_with_policy(
    variant: Variant,
    events: Vec<SimTime>,
    seed: u64,
    policy: Box<dyn ReconfigPolicy>,
) -> Simulator<SolarPanel, TaCtx> {
    let (builder, ctx) = assemble(variant, events, seed);
    builder.policy(policy).build(ctx)
}

fn assemble(
    variant: Variant,
    events: Vec<SimTime>,
    seed: u64,
) -> (SimulatorBuilder<SolarPanel, TaCtx>, TaCtx) {
    let rig = HeatsinkRig::new(events);
    let ctx = TaCtx::new(rig, seed ^ 0x7a);
    let power = power_system(variant);
    let mcu = Mcu::msp430fr5969();
    let (sample_banks, alarm_banks) = mode_banks(variant);

    let builder = Simulator::builder(variant, power, mcu)
        .mode("sample-mode", &sample_banks)
        .mode("alarm-mode", &alarm_banks)
        .task(
            "sense",
            TaskEnergy::Config(M_SAMPLE),
            |mcu| {
                Tmp36::new()
                    .sample()
                    .plus_power(mcu.active_power())
                    .then(mcu.compute_for(SimDuration::from_millis(3)))
            },
            |ctx: &mut TaCtx| {
                let temp = ctx.rig.temperature_at(ctx.now);
                ctx.samples.record(ctx.now);
                ctx.series.push(temp.get() as f32);
                ctx.series.keep_last(SERIES_LEN);
                Transition::To(TaskId(1))
            },
        )
        .task(
            "proc",
            TaskEnergy::Preburst {
                burst: M_ALARM,
                exec: M_SAMPLE,
            },
            |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(3))),
            |ctx: &mut TaCtx| {
                let out_of_band = ctx.rig.out_of_band_at(ctx.now);
                let excursion = ctx.rig.excursion_at(ctx.now);
                match excursion {
                    Some(id) if out_of_band && ctx.last_reported.get() != Some(id) => {
                        ctx.pending.set(Some(id));
                        Transition::To(TaskId(2))
                    }
                    _ => Transition::To(TaskId(0)),
                }
            },
        )
        .task(
            "alarm",
            TaskEnergy::Burst(M_ALARM),
            |mcu| {
                BleRadio::cc2650()
                    .tx_packet(25)
                    .plus_power(mcu.active_power())
            },
            |ctx: &mut TaCtx| {
                let id = ctx.pending.get();
                if let Some(id) = id {
                    // The packet leaves the antenna; the sniffer may lose it
                    // to interference, but the device considers it sent.
                    if ctx.rng.gen_f64() >= BLE_LOSS {
                        ctx.packets.record(ctx.now, Some(id), true);
                    }
                    ctx.last_reported.set(Some(id));
                    ctx.pending.set(None);
                }
                Transition::To(TaskId(0))
            },
        )
        .entry("sense");
    (builder, ctx)
}

/// Runs TA under `variant` for the full §6.2 experiment and reports.
#[must_use]
pub fn run(variant: Variant, events: Vec<SimTime>, seed: u64) -> TaReport {
    run_for(variant, events, seed, HORIZON)
}

/// Runs TA under `variant` until `horizon`.
#[must_use]
pub fn run_for(variant: Variant, events: Vec<SimTime>, seed: u64, horizon: SimTime) -> TaReport {
    let mut sim = build(variant, events.clone(), seed);
    sim.run_until(horizon);
    let ctx = sim.ctx();
    TaReport {
        variant,
        packets: ctx.packets.clone(),
        samples: ctx.samples.clone(),
        events,
        horizon,
        exec: sim.exec_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::ta_schedule;
    use crate::metrics;

    fn short_schedule() -> Vec<SimTime> {
        // A handful of excursions in the first ten minutes.
        vec![
            SimTime::from_secs(60),
            SimTime::from_secs(180),
            SimTime::from_secs(310),
            SimTime::from_secs(450),
        ]
    }

    const TEN_MIN: SimTime = SimTime::from_secs(600);

    #[test]
    fn continuous_reports_every_event() {
        let report = run_for(Variant::Continuous, short_schedule(), 1, TEN_MIN);
        assert_eq!(report.packets.len(), 4);
        assert!(report.exec.failures == 0);
        // Sampling is dense on continuous power.
        assert!(report.samples.len() > 10_000);
    }

    #[test]
    fn capy_p_reports_events_with_low_latency() {
        let report = run_for(Variant::CapyP, short_schedule(), 1, TEN_MIN);
        assert!(
            report.packets.len() >= 3,
            "packets = {}",
            report.packets.len()
        );
        // Each alarm followed its event quickly (within the 40 s hold).
        for p in report.packets.packets() {
            let ev = report.events[p.event_id.unwrap()];
            assert!(p.at >= ev);
            assert!(
                p.at - ev < SimDuration::from_secs(20),
                "latency {}",
                p.at - ev
            );
        }
    }

    #[test]
    fn capy_r_reports_events_but_slower() {
        let rep_r = run_for(Variant::CapyR, short_schedule(), 1, TEN_MIN);
        let rep_p = run_for(Variant::CapyP, short_schedule(), 1, TEN_MIN);
        assert!(!rep_r.packets.is_empty());
        // Capy-R charges the alarm bank on the critical path: its first
        // alarm is strictly later than Capy-P's.
        let lat = |r: &TaReport| {
            r.packets
                .packets()
                .iter()
                .map(|p| (p.at - r.events[p.event_id.unwrap()]).as_secs_f64())
                .sum::<f64>()
                / r.packets.len() as f64
        };
        assert!(
            lat(&rep_r) > 2.0 * lat(&rep_p),
            "CB-R {} vs CB-P {}",
            lat(&rep_r),
            lat(&rep_p)
        );
    }

    #[test]
    fn fixed_samples_in_widely_spaced_batches() {
        let report = run_for(Variant::Fixed, short_schedule(), 1, TEN_MIN);
        let intervals = report.samples.intervals();
        assert!(!intervals.is_empty());
        let max_gap = intervals
            .iter()
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max);
        // The fixed bank's recharge dwarfs the Capybara small bank's.
        let capy = run_for(Variant::CapyP, short_schedule(), 1, TEN_MIN);
        let capy_secs: Vec<f64> = capy
            .samples
            .intervals()
            .iter()
            .map(|d| d.as_secs_f64())
            .collect();
        // Compare against the 95th percentile rather than the max so the
        // handful of long gaps where CB-P pauses to charge the alarm
        // bank don't dominate the comparison.
        let capy_p95 = metrics::percentile(&capy_secs, 0.95).unwrap();
        assert!(
            max_gap > 3.0 * capy_p95,
            "fixed max gap {max_gap} vs capy p95 {capy_p95}"
        );
    }

    #[test]
    fn sampling_is_denser_under_capybara_than_fixed() {
        // The Figure 11 claim: "total counts of NON-back-to-back samples
        // show that sampling is denser with Capybara compared to a fixed
        // capacity." (Total sample counts are harvest-power-limited and
        // similar across systems; what Capybara changes is how evenly the
        // samples cover time — many short recharge gaps instead of a few
        // enormous ones.)
        let fixed = run_for(Variant::Fixed, short_schedule(), 1, TEN_MIN);
        let capy = run_for(Variant::CapyP, short_schedule(), 1, TEN_MIN);
        let spread = |r: &TaReport| {
            r.samples
                .intervals()
                .iter()
                .filter(|d| d.as_secs_f64() >= 1.0)
                .count()
        };
        assert!(
            spread(&capy) > 3 * spread(&fixed),
            "capy {} vs fixed {} non-back-to-back intervals",
            spread(&capy),
            spread(&fixed)
        );
    }

    #[test]
    fn full_experiment_runs_to_horizon() {
        let mut rng = DetRng::seed_from_u64(9);
        let events = ta_schedule(&mut rng);
        let report = run(Variant::CapyP, events, 9);
        assert_eq!(report.horizon, HORIZON);
        assert!(report.exec.completions > 1_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_for(Variant::CapyP, short_schedule(), 5, TEN_MIN);
        let b = run_for(Variant::CapyP, short_schedule(), 5, TEN_MIN);
        assert_eq!(a.packets.packets(), b.packets.packets());
        assert_eq!(a.samples.times(), b.samples.times());
    }
}
