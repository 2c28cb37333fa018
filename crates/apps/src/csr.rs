//! The Correlated Sensing and Report (CSR) application (§6.1.3).
//!
//! "CSR samples the magnetometer and triggers the proximity sensor to
//! measure distance to the source of magnetic flux. The MCU then lights an
//! LED and sends sensor data by BLE. CSR's tasks are: (1) sample the
//! magnetometer, (2) collect 32 distance samples, (3) power the LED for
//! 250 ms, and (4) send an 8 byte BLE packet." Tasks (2)–(4) "must execute
//! immediately and atomically after a magnetic field event".
//!
//! Banks: the Fixed system reuses the GRC fixed bank (400 µF + 330 µF +
//! 67.5 mF); Capybara uses 400 µF ceramic + 330 µF tantalum for the
//! magnetometer mode and the 45 mF GRC-Fast bank for the report mode.

use capy_device::mcu::Mcu;
use capy_device::peripherals::{BleRadio, Led, Magnetometer, ProximitySensor};
use capy_intermittent::machine::ExecStats;
use capy_intermittent::nv::{NvState, NvVar};
use capy_intermittent::task::{TaskId, Transition};
use capy_power::bank::{Bank, BankId};
use capy_power::harvester::RegulatedSupply;
use capy_power::switch::SwitchKind;
use capy_power::system::PowerSystem;
use capy_power::technology::parts;
use capy_units::rng::DetRng;
use capy_units::{SimDuration, SimTime};
use capybara::annotation::TaskEnergy;
use capybara::mode::EnergyMode;
use capybara::policy::ReconfigPolicy;
use capybara::sim::{SimContext, Simulator, SimulatorBuilder};
use capybara::variant::Variant;

use crate::env::PendulumRig;
use crate::observer::PacketLog;

/// Magnetic-flux detection threshold (normalized field units).
pub const FIELD_THRESHOLD: f64 = 0.15;

/// Fraction of BLE packets lost to interference.
pub const BLE_LOSS: f64 = 0.02;

/// Number of distance samples per report (§6.1.3).
pub const DISTANCE_SAMPLES: u32 = 32;

/// The magnetometer-sampling energy mode (small banks).
pub const M_SAMPLE: EnergyMode = EnergyMode(0);
/// The report energy mode (45 mF EDLC bank).
pub const M_REPORT: EnergyMode = EnergyMode(1);

/// Application context.
#[derive(Clone)]
pub struct CsrCtx {
    now: SimTime,
    rig: PendulumRig,
    rng: DetRng,
    /// Magnet pass awaiting report (non-volatile).
    pending: NvVar<Option<usize>>,
    /// Pass already reported (non-volatile).
    last_reported: NvVar<Option<usize>>,
    /// Sniffer log.
    pub packets: PacketLog,
    /// Magnetometer sample instants (reactivity instrumentation).
    pub samples: crate::observer::SampleLog,
}

impl NvState for CsrCtx {
    fn commit_all(&mut self) {
        self.pending.commit();
        self.last_reported.commit();
    }
    fn abort_all(&mut self) {
        self.pending.abort();
        self.last_reported.abort();
    }
}

impl SimContext for CsrCtx {
    fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }
}

/// Everything an experiment needs from one CSR run.
#[derive(Debug)]
pub struct CsrReport {
    /// The power-system variant that executed.
    pub variant: Variant,
    /// Packets received by the sniffer.
    pub packets: PacketLog,
    /// Magnetometer sample instants.
    pub samples: crate::observer::SampleLog,
    /// The magnet pass schedule.
    pub events: Vec<SimTime>,
    /// The experiment horizon.
    pub horizon: SimTime,
    /// Execution statistics.
    pub exec: ExecStats,
}

fn power_system(variant: Variant) -> PowerSystem<RegulatedSupply> {
    let harvester = RegulatedSupply::grc_bench();
    match variant {
        Variant::Continuous | Variant::Fixed => PowerSystem::builder()
            .harvester(harvester)
            .bank(
                Bank::builder("csr-fixed")
                    .with(parts::ceramic_x5r_400uf())
                    .with(parts::tantalum_330uf())
                    .with_n(parts::edlc_22_5mf(), 3)
                    .build(),
                SwitchKind::NormallyClosed,
            )
            .build(),
        Variant::CapyR | Variant::CapyP => PowerSystem::builder()
            .harvester(harvester)
            .bank(
                Bank::builder("csr-small")
                    .with(parts::ceramic_x5r_400uf())
                    .with(parts::tantalum_330uf())
                    .build(),
                SwitchKind::NormallyClosed,
            )
            .bank(
                Bank::builder("csr-report")
                    .with_n(parts::edlc_22_5mf(), 2)
                    .build(),
                SwitchKind::NormallyOpen,
            )
            .build(),
    }
}

fn mode_banks(variant: Variant) -> (Vec<BankId>, Vec<BankId>) {
    match variant {
        Variant::Continuous | Variant::Fixed => (vec![BankId(0)], vec![BankId(0)]),
        Variant::CapyR | Variant::CapyP => (vec![BankId(0)], vec![BankId(1)]),
    }
}

/// Builds a ready-to-run CSR simulator.
#[must_use]
pub fn build(
    variant: Variant,
    events: Vec<SimTime>,
    seed: u64,
) -> Simulator<RegulatedSupply, CsrCtx> {
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
) -> Simulator<RegulatedSupply, CsrCtx> {
    let (builder, ctx) = assemble(variant, events, seed);
    builder.policy(policy).build(ctx)
}

fn assemble(
    variant: Variant,
    events: Vec<SimTime>,
    seed: u64,
) -> (SimulatorBuilder<RegulatedSupply, CsrCtx>, CsrCtx) {
    let rig = PendulumRig::new(events);
    let power = power_system(variant);
    let mcu = Mcu::cc2650();
    let (sample_banks, report_banks) = mode_banks(variant);

    let ctx = CsrCtx {
        now: SimTime::ZERO,
        rig,
        rng: DetRng::seed_from_u64(seed ^ 0xc5),
        pending: NvVar::new(None),
        last_reported: NvVar::new(None),
        packets: PacketLog::new(),
        samples: crate::observer::SampleLog::new(),
    };

    let builder = Simulator::builder(variant, power, mcu)
        .mode("sample-mode", &sample_banks)
        .mode("report-mode", &report_banks)
        .task(
            "sample_mag",
            TaskEnergy::Preburst {
                burst: M_REPORT,
                exec: M_SAMPLE,
            },
            |mcu| {
                Magnetometer::new()
                    .sample()
                    .plus_power(mcu.active_power())
                    .then(mcu.compute_for(SimDuration::from_millis(3)))
            },
            |ctx: &mut CsrCtx| {
                ctx.samples.record(ctx.now);
                match ctx.rig.pass_at(ctx.now) {
                    Some(id)
                        if ctx.rig.field_at(ctx.now) > FIELD_THRESHOLD
                            && ctx.last_reported.get() != Some(id) =>
                    {
                        ctx.pending.set(Some(id));
                        Transition::To(TaskId(1))
                    }
                    _ => Transition::Stay,
                }
            },
        )
        .task(
            "report",
            TaskEnergy::Burst(M_REPORT),
            |mcu| {
                ProximitySensor::new()
                    .burst(DISTANCE_SAMPLES)
                    .chain(Led::new().flash(SimDuration::from_millis(250)))
                    .chain(BleRadio::cc2650().tx_packet_warm(8))
                    .plus_power(mcu.active_power())
            },
            |ctx: &mut CsrCtx| {
                if let Some(id) = ctx.pending.get() {
                    if ctx.rng.gen_f64() >= BLE_LOSS {
                        ctx.packets.record(ctx.now, Some(id), true);
                    }
                    ctx.last_reported.set(Some(id));
                    ctx.pending.set(None);
                }
                Transition::To(TaskId(0))
            },
        )
        .entry("sample_mag");
    (builder, ctx)
}

/// Runs CSR for the full §6.2 experiment (42 minutes).
#[must_use]
pub fn run(variant: Variant, events: Vec<SimTime>, seed: u64) -> CsrReport {
    run_for(variant, events, seed, crate::grc::HORIZON)
}

/// Runs CSR until `horizon`.
#[must_use]
pub fn run_for(variant: Variant, events: Vec<SimTime>, seed: u64, horizon: SimTime) -> CsrReport {
    let mut sim = build(variant, events.clone(), seed);
    sim.run_until(horizon);
    let ctx = sim.ctx();
    CsrReport {
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
    use crate::metrics::{accuracy_fractions, classify_reported, event_latencies, latency_stats};

    fn short_schedule() -> Vec<SimTime> {
        (1..=8).map(|i| SimTime::from_secs(i * 45)).collect()
    }

    const SIX_MIN: SimTime = SimTime::from_secs(390);

    #[test]
    fn continuous_reports_nearly_all() {
        let r = run_for(Variant::Continuous, short_schedule(), 5, SIX_MIN);
        let f = accuracy_fractions(&classify_reported(r.events.len(), &r.packets));
        assert!(f.correct > 0.85, "correct = {}", f.correct);
    }

    #[test]
    fn both_capybara_variants_beat_fixed() {
        let fixed = run_for(Variant::Fixed, short_schedule(), 5, SIX_MIN);
        let capy_r = run_for(Variant::CapyR, short_schedule(), 5, SIX_MIN);
        let capy_p = run_for(Variant::CapyP, short_schedule(), 5, SIX_MIN);
        let frac = |r: &CsrReport| {
            accuracy_fractions(&classify_reported(r.events.len(), &r.packets)).correct
        };
        assert!(
            frac(&capy_p) > frac(&fixed),
            "capy-p {} vs fixed {}",
            frac(&capy_p),
            frac(&fixed)
        );
        assert!(
            frac(&capy_r) >= frac(&fixed),
            "capy-r {} vs fixed {}",
            frac(&capy_r),
            frac(&fixed)
        );
    }

    #[test]
    fn capy_p_latency_beats_capy_r() {
        // Capy-R charges the 45 mF report bank on the critical path.
        let capy_r = run_for(Variant::CapyR, short_schedule(), 5, SIX_MIN);
        let capy_p = run_for(Variant::CapyP, short_schedule(), 5, SIX_MIN);
        let mean = |r: &CsrReport| {
            latency_stats(&event_latencies(&r.events, &r.packets))
                .map(|s| s.mean)
                .unwrap_or(f64::INFINITY)
        };
        assert!(
            mean(&capy_p) * 3.0 < mean(&capy_r),
            "capy-p {} vs capy-r {}",
            mean(&capy_p),
            mean(&capy_r)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_for(Variant::CapyP, short_schedule(), 6, SIX_MIN);
        let b = run_for(Variant::CapyP, short_schedule(), 6, SIX_MIN);
        assert_eq!(a.packets.packets(), b.packets.packets());
    }
}
