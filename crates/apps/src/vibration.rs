//! A vibration/structural monitor — a fourth application in the spirit of
//! the paper's motivating deployments ("harsh, remote environments, like
//! glaciers and in Earth's orbit", §1), built to exercise the parts of
//! the API surface the three paper applications do not:
//!
//! * **Sleep pacing** ([`Transition::Sleep`]) — the monitor samples its
//!   accelerometer at a deliberate 2 Hz instead of a tight loop;
//! * **crash-consistent queues** ([`NvQueue`]) — samples accumulate in a
//!   non-volatile FIFO that the upload task drains, with Chain's
//!   exactly-once semantics across power failures;
//! * **windowed analysis + burst upload** — every
//!   [`WINDOW`] samples, a compute task scans the window; an anomaly
//!   (driven by the stimulus schedule) triggers a pre-charged radio
//!   burst that uploads and drains the window.
//!
//! The headline invariant — checked by [`VibrationReport::verify`] and the
//! module tests — is *sample conservation*: every committed sample is
//! either still queued or was uploaded exactly once, no matter how many
//! power failures interleaved.

use capy_device::mcu::Mcu;
use capy_device::peripherals::{Accelerometer, BleRadio};
use capy_intermittent::channel::NvQueue;
use capy_intermittent::machine::ExecStats;
use capy_intermittent::nv::{NvState, NvVar};
use capy_intermittent::task::{TaskId, Transition};
use capy_power::bank::{Bank, BankId};
use capy_power::harvester::SolarPanel;
use capy_power::switch::SwitchKind;
use capy_power::system::PowerSystem;
use capy_power::technology::parts;
use capy_units::{SimDuration, SimTime};
use capybara::annotation::TaskEnergy;
use capybara::mode::EnergyMode;
use capybara::sim::{SimContext, Simulator};
use capybara::variant::Variant;

use crate::env::PendulumRig;
use crate::observer::PacketLog;

/// Samples per analysis window.
pub const WINDOW: usize = 32;

/// Pacing between samples.
pub const PACE: SimDuration = SimDuration::from_millis(500);

const M_SAMPLE: EnergyMode = EnergyMode(0);
const M_UPLOAD: EnergyMode = EnergyMode(1);

/// Application context.
pub struct VibCtx {
    now: SimTime,
    /// Vibration stimulus (reusing the pendulum rig's pass windows as
    /// shake events).
    rig: PendulumRig,
    /// Sample FIFO (non-volatile, crash-consistent).
    queue: NvQueue<(u64, f32)>,
    /// Total samples committed (non-volatile sequence counter).
    seq: NvVar<u64>,
    /// Samples uploaded (committed at upload).
    uploaded_count: NvVar<u64>,
    /// Samples discarded with quiet windows (committed at analyze).
    dropped_count: NvVar<u64>,
    /// Whether the pending window contains an anomaly.
    anomaly: NvVar<bool>,
    /// Sniffer log (external).
    pub packets: PacketLog,
    /// Sequence numbers seen by the ground station (external).
    pub uploaded_seqs: Vec<u64>,
}

impl NvState for VibCtx {
    fn commit_all(&mut self) {
        self.queue.commit();
        self.seq.commit();
        self.uploaded_count.commit();
        self.dropped_count.commit();
        self.anomaly.commit();
    }
    fn abort_all(&mut self) {
        self.queue.abort();
        self.seq.abort();
        self.uploaded_count.abort();
        self.dropped_count.abort();
        self.anomaly.abort();
    }
}

impl SimContext for VibCtx {
    fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }
}

/// Everything an experiment needs from one run.
#[derive(Debug)]
pub struct VibrationReport {
    /// Samples committed by the device.
    pub committed: u64,
    /// Samples still queued at the end.
    pub retained: usize,
    /// Samples uploaded (device-side count).
    pub uploaded: u64,
    /// Samples discarded with quiet windows.
    pub dropped: u64,
    /// Sequence numbers received by the ground station.
    pub uploaded_seqs: Vec<u64>,
    /// Upload packets received.
    pub packets: PacketLog,
    /// Execution statistics.
    pub exec: ExecStats,
}

impl VibrationReport {
    /// The sample-conservation invariant: every committed sample is still
    /// queued or was uploaded, uploads never duplicate, and uploads arrive
    /// in sequence order.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify(&self) -> Result<(), String> {
        if self.uploaded + self.dropped + self.retained as u64 != self.committed {
            return Err(format!(
                "conservation violated: {} uploaded + {} dropped + {} retained != {} committed",
                self.uploaded, self.dropped, self.retained, self.committed
            ));
        }
        let mut seen = self.uploaded_seqs.clone();
        seen.dedup();
        if seen.len() != self.uploaded_seqs.len() {
            return Err("duplicate sequence numbers uploaded".to_string());
        }
        if !self.uploaded_seqs.windows(2).all(|w| w[0] < w[1]) {
            return Err("uploads out of order".to_string());
        }
        Ok(())
    }
}

/// Builds the monitor for `variant` over a shake-event schedule.
#[must_use]
pub fn build(variant: Variant, events: Vec<SimTime>) -> Simulator<SolarPanel, VibCtx> {
    // Fixed/Continuous hardware statically connects everything; the
    // Capybara variants split the same capacitors into switchable banks.
    let harvester = SolarPanel::trisolx_pair_halogen();
    let (power, sample_banks, upload_banks) = match variant {
        Variant::Continuous | Variant::Fixed => (
            PowerSystem::builder()
                .harvester(harvester)
                .bank(
                    Bank::builder("vib-fixed")
                        .with(parts::ceramic_x5r_300uf())
                        .with(parts::tantalum_100uf())
                        .with(parts::tantalum_1000uf())
                        .with(parts::edlc_7_5mf())
                        .build(),
                    SwitchKind::NormallyClosed,
                )
                .build(),
            vec![BankId(0)],
            vec![BankId(0)],
        ),
        Variant::CapyR | Variant::CapyP => (
            PowerSystem::builder()
                .harvester(harvester)
                .bank(
                    Bank::builder("vib-small")
                        .with(parts::ceramic_x5r_300uf())
                        .with(parts::tantalum_100uf())
                        .build(),
                    SwitchKind::NormallyClosed,
                )
                .bank(
                    Bank::builder("vib-upload")
                        .with(parts::tantalum_1000uf())
                        .with(parts::edlc_7_5mf())
                        .build(),
                    SwitchKind::NormallyOpen,
                )
                .build(),
            vec![BankId(0)],
            vec![BankId(1)],
        ),
    };
    let ctx = VibCtx {
        now: SimTime::ZERO,
        rig: PendulumRig::new(events),
        queue: NvQueue::new(),
        seq: NvVar::new(0),
        uploaded_count: NvVar::new(0),
        dropped_count: NvVar::new(0),
        anomaly: NvVar::new(false),
        packets: PacketLog::new(),
        uploaded_seqs: Vec::new(),
    };

    Simulator::builder(variant, power, Mcu::msp430fr5969())
        .mode("sample-mode", &sample_banks)
        .mode("upload-mode", &upload_banks)
        .task(
            "sample",
            TaskEnergy::Preburst {
                burst: M_UPLOAD,
                exec: M_SAMPLE,
            },
            |mcu| {
                Accelerometer::new()
                    .sample()
                    .plus_power(mcu.active_power())
                    .then(mcu.compute_for(SimDuration::from_millis(2)))
            },
            |ctx: &mut VibCtx| {
                let seq = ctx.seq.get();
                let magnitude = ctx.rig.field_at(ctx.now) as f32;
                ctx.queue.push((seq, magnitude));
                ctx.seq.set(seq + 1);
                if ctx.queue.len() >= WINDOW {
                    Transition::To(TaskId(1))
                } else {
                    Transition::Sleep {
                        duration: PACE,
                        then: TaskId(0),
                    }
                }
            },
        )
        .task(
            "analyze",
            TaskEnergy::Config(M_SAMPLE),
            |mcu| {
                // A windowed magnitude scan: ~50 ms of compute.
                capy_device::load::TaskLoad::new()
                    .then(mcu.compute_for(SimDuration::from_millis(50)))
            },
            |ctx: &mut VibCtx| {
                // Anomaly: any sample in the window saw a shake.
                let shaken = ctx
                    .queue
                    .front()
                    .map(|_| ctx.rig.pass_at(ctx.now).is_some())
                    .unwrap_or(false)
                    || {
                        // Scan without consuming: pops are staged and then
                        // aborted by inspecting a clone.
                        let mut probe = ctx.queue.clone();
                        std::iter::from_fn(|| probe.pop()).any(|(_, magnitude)| magnitude > 0.5)
                    };
                ctx.anomaly.set(shaken);
                if shaken {
                    Transition::To(TaskId(2))
                } else {
                    // Quiet window: drop it and keep monitoring.
                    let mut n = 0u64;
                    while ctx.queue.pop().is_some() {
                        n += 1;
                    }
                    ctx.dropped_count.update(|d| d + n);
                    Transition::To(TaskId(0))
                }
            },
        )
        .task(
            "upload",
            TaskEnergy::Burst(M_UPLOAD),
            |mcu| {
                BleRadio::cc2650()
                    .tx_packet(25)
                    .plus_power(mcu.active_power())
            },
            |ctx: &mut VibCtx| {
                let mut n = 0u64;
                while let Some((seq, _)) = ctx.queue.pop() {
                    ctx.uploaded_seqs.push(seq);
                    n += 1;
                }
                ctx.uploaded_count.update(|u| u + n);
                ctx.packets.record(ctx.now, None, true);
                ctx.anomaly.set(false);
                Transition::To(TaskId(0))
            },
        )
        .entry("sample")
        .build(ctx)
}

/// Runs the monitor until `horizon` and reports.
#[must_use]
pub fn run_for(variant: Variant, events: Vec<SimTime>, horizon: SimTime) -> VibrationReport {
    let mut sim = build(variant, events);
    sim.run_until(horizon);
    let ctx = sim.ctx();
    VibrationReport {
        committed: ctx.seq.get(),
        retained: ctx.queue.len(),
        uploaded: ctx.uploaded_count.get(),
        dropped: ctx.dropped_count.get(),
        uploaded_seqs: ctx.uploaded_seqs.clone(),
        packets: ctx.packets.clone(),
        exec: sim.exec_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shake_schedule() -> Vec<SimTime> {
        (1..=5).map(|i| SimTime::from_secs(i * 120)).collect()
    }

    const HORIZON: SimTime = SimTime::from_secs(700);

    #[test]
    fn samples_are_conserved_across_power_failures() {
        let report = run_for(Variant::CapyP, shake_schedule(), HORIZON);
        assert!(report.exec.failures > 0 || report.exec.reboots > 1);
        report.verify().expect("sample conservation");
        assert!(report.committed > 500, "committed = {}", report.committed);
    }

    #[test]
    fn anomalies_trigger_uploads() {
        let report = run_for(Variant::CapyP, shake_schedule(), HORIZON);
        assert!(
            !report.packets.is_empty(),
            "shake events must produce uploads"
        );
        assert!(report.uploaded > 0);
    }

    #[test]
    fn quiet_monitor_uploads_nothing() {
        let report = run_for(Variant::CapyP, vec![SimTime::from_secs(100_000)], HORIZON);
        assert_eq!(report.packets.len(), 0);
        report
            .verify()
            .expect("conservation holds with zero uploads");
    }

    #[test]
    fn conservation_holds_for_every_variant() {
        for variant in Variant::ALL {
            let report = run_for(variant, shake_schedule(), HORIZON);
            report.verify().unwrap_or_else(|e| panic!("{variant}: {e}"));
        }
    }

    #[test]
    fn pacing_spreads_samples() {
        // ~2 Hz pacing: committed samples ≈ horizon / 0.5 s, far below a
        // tight loop's rate, and bounded above by it.
        let report = run_for(Variant::CapyP, shake_schedule(), HORIZON);
        let max_paced = HORIZON.as_secs_f64() / PACE.as_secs_f64() * 1.2;
        assert!(
            (report.committed as f64) < max_paced,
            "committed = {} exceeds paced bound {max_paced}",
            report.committed
        );
    }
}
