//! The Wireless Gesture-activated Remote Control (GRC) application
//! (§6.1.1).
//!
//! "Each time the MCU turns on, the application samples the
//! phototransistor to detect if there is an object above the board. If an
//! object is detected, the application activates the APDS sensor for
//! gesture recognition. If the sensor successfully decodes a gesture, the
//! gesture direction is broadcast over BLE radio."
//!
//! Two variants trade peak bank capacity against critical-path latency:
//!
//! * **GRC-Fast** joins gesture recognition and transmission into one
//!   atomic task (the radio stack stays warm, so the joined task is
//!   cheaper); the burst bank is 45 mF.
//! * **GRC-Compact** keeps them as separate atomic tasks (the radio
//!   re-initializes cold in its own task); the bank must satisfy the
//!   combined atomicity of both tasks — 67.5 mF.
//!
//! The Fixed system provisions 400 µF ceramic + 330 µF tantalum + 67.5 mF
//! EDLC for the maximum atomicity requirement; Capybara variants use
//! 400 µF + 330 µF as the low mode in both GRC variants.

use capy_device::load::TaskLoad;
use capy_device::mcu::Mcu;
use capy_device::peripherals::{Apds9960, BleRadio, Phototransistor};
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
use crate::metrics::EventOutcome;
use crate::observer::{GestureOutcome, PacketLog};

/// Which GRC task decomposition runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GrcVariant {
    /// Joined gesture+TX atomic task; 45 mF burst bank.
    Fast,
    /// Separate gesture and TX tasks; 67.5 mF bank for their combined
    /// atomicity.
    Compact,
}

impl GrcVariant {
    /// Figure label ("GestureFast" / "GestureCompact").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            GrcVariant::Fast => "GestureFast",
            GrcVariant::Compact => "GestureCompact",
        }
    }
}

impl capybara::sweep::AxisValue for GrcVariant {
    fn axis_label(&self) -> String {
        self.label().to_string()
    }
}

/// Fraction of BLE packets lost to interference.
pub const BLE_LOSS: f64 = 0.02;

/// The GRC/CSR experiment horizon: 42 minutes (§6.2).
pub const HORIZON: SimTime = SimTime::from_secs(42 * 60);

/// The low (proximity-sampling) energy mode.
pub const M_LOW: EnergyMode = EnergyMode(0);
/// The high (gesture/report burst) energy mode.
pub const M_HIGH: EnergyMode = EnergyMode(1);

/// APDS decode probabilities when the gesture window opens early enough to
/// observe the motion's direction.
const P_EARLY_CORRECT: f64 = 0.85;
const P_EARLY_MISCLASSIFIED: f64 = 0.05;
/// ...and when it opens too late in the swing (§6.2: "gesture motions are
/// misclassified when the proximity detection occurs too late in the
/// pendulum's swing").
const P_LATE_MISCLASSIFIED: f64 = 0.55;

/// Application context.
#[derive(Clone)]
pub struct GrcCtx {
    now: SimTime,
    rig: PendulumRig,
    rng: DetRng,
    /// How long before a task body runs its gesture window opened (the
    /// APDS observation starts near the task's beginning, but bodies
    /// execute at task end).
    gesture_lead: SimDuration,
    /// Pass currently awaiting transmission (GRC-Compact): `(pass id,
    /// decoded-direction-correct)`.
    pending: NvVar<Option<(usize, bool)>>,
    /// Pass already fully handled (non-volatile).
    last_handled: NvVar<Option<usize>>,
    /// Sniffer log.
    pub packets: PacketLog,
    /// Every APDS activation and what it reported (ground-truth side
    /// instrumentation).
    pub attempts: Vec<(Option<usize>, GestureOutcome, SimTime)>,
}

impl NvState for GrcCtx {
    fn commit_all(&mut self) {
        self.pending.commit();
        self.last_handled.commit();
    }
    fn abort_all(&mut self) {
        self.pending.abort();
        self.last_handled.abort();
    }
}

impl SimContext for GrcCtx {
    fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }
}

impl GrcCtx {
    /// Rolls the APDS decode outcome for a gesture window that opened at
    /// `start`.
    fn decode_at(&mut self, start: SimTime) -> (Option<usize>, GestureOutcome) {
        match self.rig.gesture_read_at(start) {
            None => (
                self.rig.last_pass_before(start),
                GestureOutcome::ProximityOnly,
            ),
            Some((id, decodable)) => {
                let roll = self.rng.gen_f64();
                let outcome = if decodable {
                    if roll < P_EARLY_CORRECT {
                        GestureOutcome::Correct
                    } else if roll < P_EARLY_CORRECT + P_EARLY_MISCLASSIFIED {
                        GestureOutcome::Misclassified
                    } else {
                        GestureOutcome::ProximityOnly
                    }
                } else if roll < P_LATE_MISCLASSIFIED {
                    GestureOutcome::Misclassified
                } else {
                    GestureOutcome::ProximityOnly
                };
                (Some(id), outcome)
            }
        }
    }
}

/// Everything an experiment needs from one GRC run.
#[derive(Debug)]
pub struct GrcReport {
    /// The power-system variant that executed.
    pub variant: Variant,
    /// The task decomposition that executed.
    pub grc_variant: GrcVariant,
    /// Packets received by the sniffer.
    pub packets: PacketLog,
    /// APDS activations and their outcomes.
    pub attempts: Vec<(Option<usize>, GestureOutcome, SimTime)>,
    /// The pendulum pass schedule.
    pub events: Vec<SimTime>,
    /// The experiment horizon.
    pub horizon: SimTime,
    /// Execution statistics.
    pub exec: ExecStats,
}

impl GrcReport {
    /// Classifies every pendulum pass per the Figure 8 taxonomy.
    #[must_use]
    pub fn classify(&self) -> Vec<EventOutcome> {
        classify_run(self.events.len(), &self.packets, &self.attempts)
    }
}

/// Classifies `n_events` pendulum passes per the Figure 8 taxonomy from
/// the sniffer log and the APDS activation record. Shared by
/// [`GrcReport::classify`] and experiment drivers that hold a live
/// simulator instead of a report.
#[must_use]
pub fn classify_run(
    n_events: usize,
    packets: &PacketLog,
    attempts: &[(Option<usize>, GestureOutcome, SimTime)],
) -> Vec<EventOutcome> {
    (0..n_events)
        .map(|id| {
            if let Some(p) = packets.first_for_event(id) {
                if p.correct {
                    EventOutcome::Correct
                } else {
                    EventOutcome::Misclassified
                }
            } else if attempts.iter().any(|(e, _, _)| *e == Some(id)) {
                EventOutcome::ProximityOnly
            } else {
                EventOutcome::Missed
            }
        })
        .collect()
}

fn power_system(variant: Variant, grc: GrcVariant) -> PowerSystem<RegulatedSupply> {
    let harvester = RegulatedSupply::grc_bench();
    let small = || {
        Bank::builder("grc-small")
            .with(parts::ceramic_x5r_400uf())
            .with(parts::tantalum_330uf())
            .build()
    };
    match variant {
        Variant::Continuous | Variant::Fixed => PowerSystem::builder()
            .harvester(harvester)
            .bank(
                Bank::builder("grc-fixed")
                    .with(parts::ceramic_x5r_400uf())
                    .with(parts::tantalum_330uf())
                    .with_n(parts::edlc_22_5mf(), 3)
                    .build(),
                SwitchKind::NormallyClosed,
            )
            .build(),
        Variant::CapyR | Variant::CapyP => {
            let high_units = match grc {
                GrcVariant::Fast => 2,    // 45 mF
                GrcVariant::Compact => 3, // 67.5 mF
            };
            PowerSystem::builder()
                .harvester(harvester)
                .bank(small(), SwitchKind::NormallyClosed)
                .bank(
                    Bank::builder("grc-high")
                        .with_n(parts::edlc_22_5mf(), high_units)
                        .build(),
                    SwitchKind::NormallyOpen,
                )
                .build()
        }
    }
}

fn mode_banks(variant: Variant) -> (Vec<BankId>, Vec<BankId>) {
    match variant {
        Variant::Continuous | Variant::Fixed => (vec![BankId(0)], vec![BankId(0)]),
        Variant::CapyR | Variant::CapyP => (vec![BankId(0)], vec![BankId(1)]),
    }
}

fn sense_load(mcu: &Mcu) -> TaskLoad {
    Phototransistor::new()
        .sample()
        .plus_power(mcu.active_power())
        .then(mcu.compute_for(SimDuration::from_millis(2)))
}

fn sense_body(ctx: &mut GrcCtx) -> Transition {
    match ctx.rig.pass_at(ctx.now) {
        Some(id) if ctx.last_handled.get() != Some(id) => Transition::To(TaskId(1)),
        _ => Transition::Stay,
    }
}

/// Builds a ready-to-run GRC simulator.
#[must_use]
pub fn build(
    variant: Variant,
    grc: GrcVariant,
    events: Vec<SimTime>,
    seed: u64,
) -> Simulator<RegulatedSupply, GrcCtx> {
    build_with_model(variant, grc, events, seed, false)
}

/// Builds a GRC simulator, optionally modelling harvesting that continues
/// while tasks run (relaxing the §2 "charging is negligible during
/// operation" simplification — significant on this platform, where the
/// CC2650's ~9 mW draw barely exceeds the 10 mW bench harvester).
#[must_use]
pub fn build_with_model(
    variant: Variant,
    grc: GrcVariant,
    events: Vec<SimTime>,
    seed: u64,
    harvest_during_operation: bool,
) -> Simulator<RegulatedSupply, GrcCtx> {
    let (builder, ctx) = assemble(variant, grc, events, seed, harvest_during_operation);
    builder.build(ctx)
}

/// Like [`build`] but with an adaptive reconfiguration policy installed
/// (see [`capybara::policy`]); [`build`] keeps the paper's static
/// annotations.
#[must_use]
pub fn build_with_policy(
    variant: Variant,
    grc: GrcVariant,
    events: Vec<SimTime>,
    seed: u64,
    policy: Box<dyn ReconfigPolicy>,
) -> Simulator<RegulatedSupply, GrcCtx> {
    let (builder, ctx) = assemble(variant, grc, events, seed, false);
    builder.policy(policy).build(ctx)
}

fn assemble(
    variant: Variant,
    grc: GrcVariant,
    events: Vec<SimTime>,
    seed: u64,
    harvest_during_operation: bool,
) -> (SimulatorBuilder<RegulatedSupply, GrcCtx>, GrcCtx) {
    let rig = PendulumRig::new(events);
    let power = power_system(variant, grc);
    let mcu = Mcu::cc2650();
    let (low, high) = mode_banks(variant);

    // The APDS engine starts observing after its init phase; bodies run at
    // task end. Lead = (task duration) − (init duration).
    let gesture_task_duration = match grc {
        GrcVariant::Fast => {
            Apds9960::new().recognize_gesture().duration()
                + BleRadio::cc2650().tx_packet_warm(8).duration()
        }
        GrcVariant::Compact => Apds9960::new().recognize_gesture().duration(),
    };
    let gesture_lead = gesture_task_duration - SimDuration::from_millis(25);

    let ctx = GrcCtx {
        now: SimTime::ZERO,
        rig,
        rng: DetRng::seed_from_u64(seed ^ 0x6c),
        gesture_lead,
        pending: NvVar::new(None),
        last_handled: NvVar::new(None),
        packets: PacketLog::new(),
        attempts: Vec::new(),
    };

    let builder = Simulator::builder(variant, power, mcu)
        .harvest_during_operation(harvest_during_operation)
        .mode("low", &low)
        .mode("high", &high)
        .task(
            "sense",
            TaskEnergy::Preburst {
                burst: M_HIGH,
                exec: M_LOW,
            },
            sense_load,
            sense_body,
        );

    let sim = match grc {
        GrcVariant::Fast => builder.task(
            "gesture_tx",
            TaskEnergy::Burst(M_HIGH),
            |mcu| {
                Apds9960::new()
                    .recognize_gesture()
                    .chain(BleRadio::cc2650().tx_packet_warm(8))
                    .plus_power(mcu.active_power())
            },
            |ctx: &mut GrcCtx| {
                let start = ctx.now.saturating_sub(ctx.gesture_lead);
                let (id, outcome) = ctx.decode_at(start);
                ctx.attempts.push((id, outcome, ctx.now));
                match outcome {
                    GestureOutcome::Correct | GestureOutcome::Misclassified => {
                        if let Some(id) = id {
                            if ctx.rng.gen_f64() >= BLE_LOSS {
                                ctx.packets.record(
                                    ctx.now,
                                    Some(id),
                                    outcome == GestureOutcome::Correct,
                                );
                            }
                            ctx.last_handled.set(Some(id));
                        }
                        Transition::To(TaskId(0))
                    }
                    GestureOutcome::ProximityOnly => Transition::To(TaskId(0)),
                }
            },
        ),
        GrcVariant::Compact => builder
            .task(
                "gesture",
                TaskEnergy::Burst(M_HIGH),
                |mcu| {
                    Apds9960::new()
                        .recognize_gesture()
                        .plus_power(mcu.active_power())
                },
                |ctx: &mut GrcCtx| {
                    let start = ctx.now.saturating_sub(ctx.gesture_lead);
                    let (id, outcome) = ctx.decode_at(start);
                    ctx.attempts.push((id, outcome, ctx.now));
                    match (outcome, id) {
                        (GestureOutcome::Correct, Some(id)) => {
                            ctx.pending.set(Some((id, true)));
                            Transition::To(TaskId(2))
                        }
                        (GestureOutcome::Misclassified, Some(id)) => {
                            ctx.pending.set(Some((id, false)));
                            Transition::To(TaskId(2))
                        }
                        _ => Transition::To(TaskId(0)),
                    }
                },
            )
            .task(
                "radio_tx",
                TaskEnergy::Config(M_HIGH),
                |mcu| {
                    BleRadio::cc2650()
                        .tx_packet(8)
                        .plus_power(mcu.active_power())
                },
                |ctx: &mut GrcCtx| {
                    if let Some((id, correct)) = ctx.pending.get() {
                        if ctx.rng.gen_f64() >= BLE_LOSS {
                            ctx.packets.record(ctx.now, Some(id), correct);
                        }
                        ctx.last_handled.set(Some(id));
                        ctx.pending.set(None);
                    }
                    Transition::To(TaskId(0))
                },
            ),
    };
    (sim.entry("sense"), ctx)
}

/// Runs GRC for the full §6.2 experiment.
#[must_use]
pub fn run(variant: Variant, grc: GrcVariant, events: Vec<SimTime>, seed: u64) -> GrcReport {
    run_for(variant, grc, events, seed, HORIZON)
}

/// Runs GRC until `horizon`.
#[must_use]
pub fn run_for(
    variant: Variant,
    grc: GrcVariant,
    events: Vec<SimTime>,
    seed: u64,
    horizon: SimTime,
) -> GrcReport {
    let mut sim = build(variant, grc, events.clone(), seed);
    sim.run_until(horizon);
    let ctx = sim.ctx();
    GrcReport {
        variant,
        grc_variant: grc,
        packets: ctx.packets.clone(),
        attempts: ctx.attempts.clone(),
        events,
        horizon,
        exec: sim.exec_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy_fractions, event_latencies, latency_stats};

    fn short_schedule() -> Vec<SimTime> {
        (1..=8).map(|i| SimTime::from_secs(i * 45)).collect()
    }

    const SIX_MIN: SimTime = SimTime::from_secs(390);

    #[test]
    fn continuous_detects_most_gestures() {
        let report = run_for(
            Variant::Continuous,
            GrcVariant::Fast,
            short_schedule(),
            3,
            SIX_MIN,
        );
        let f = accuracy_fractions(&report.classify());
        assert!(f.correct > 0.6, "correct = {}", f.correct);
        assert!(f.missed < 0.05, "missed = {}", f.missed);
    }

    #[test]
    fn capy_p_fast_detects_most_and_quickly() {
        let report = run_for(
            Variant::CapyP,
            GrcVariant::Fast,
            short_schedule(),
            3,
            SIX_MIN,
        );
        let f = accuracy_fractions(&report.classify());
        assert!(
            f.correct + f.misclassified > 0.4,
            "reported = {}",
            f.correct + f.misclassified
        );
        let lats = event_latencies(&report.events, &report.packets);
        let stats = latency_stats(&lats).expect("some packets");
        assert!(stats.median < 3.0, "median latency = {}", stats.median);
    }

    #[test]
    fn capy_r_reports_no_gestures() {
        // §6.2: "Capy-R is not suitable for GRC, because it incurs a
        // charging delay between proximity detection and the gesture
        // recognition task, during which the gesture motion completes."
        let report = run_for(
            Variant::CapyR,
            GrcVariant::Fast,
            short_schedule(),
            3,
            SIX_MIN,
        );
        let f = accuracy_fractions(&report.classify());
        assert!(f.correct < 0.15, "correct = {}", f.correct);
        // The attempts it does make are proximity-only.
        assert!(report
            .attempts
            .iter()
            .all(|(_, o, _)| *o == GestureOutcome::ProximityOnly));
    }

    #[test]
    fn fixed_misses_many_events_to_charging() {
        let fixed = run_for(
            Variant::Fixed,
            GrcVariant::Fast,
            short_schedule(),
            3,
            SIX_MIN,
        );
        let capy = run_for(
            Variant::CapyP,
            GrcVariant::Fast,
            short_schedule(),
            3,
            SIX_MIN,
        );
        let f_fixed = accuracy_fractions(&fixed.classify());
        let f_capy = accuracy_fractions(&capy.classify());
        assert!(
            f_capy.correct > f_fixed.correct,
            "capy {} vs fixed {}",
            f_capy.correct,
            f_fixed.correct
        );
    }

    #[test]
    fn compact_variant_also_works_under_capy_p() {
        let report = run_for(
            Variant::CapyP,
            GrcVariant::Compact,
            short_schedule(),
            3,
            SIX_MIN,
        );
        let f = accuracy_fractions(&report.classify());
        assert!(
            f.correct + f.misclassified > 0.3,
            "reported = {}",
            f.correct + f.misclassified
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_for(
            Variant::CapyP,
            GrcVariant::Fast,
            short_schedule(),
            11,
            SIX_MIN,
        );
        let b = run_for(
            Variant::CapyP,
            GrcVariant::Fast,
            short_schedule(),
            11,
            SIX_MIN,
        );
        assert_eq!(a.packets.packets(), b.packets.packets());
        assert_eq!(a.classify(), b.classify());
    }

    #[test]
    fn labels() {
        assert_eq!(GrcVariant::Fast.label(), "GestureFast");
        assert_eq!(GrcVariant::Compact.label(), "GestureCompact");
    }
}
