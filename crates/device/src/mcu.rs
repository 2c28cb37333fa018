//! The microcontroller model: an MSP430FR5969-class MCU with FRAM
//! non-volatile memory, as used on both Capybara prototypes and in the
//! design-space experiments of Figures 3–4.
//!
//! # Calibration
//!
//! The design-space experiments measure *atomicity* in "Mops": the longest
//! span of ALU work the device completes on one full energy buffer. The
//! model's `(active_power, ops_per_second)` pair is calibrated so that the
//! prototype power system reproduces the paper's frontier — about 4 Mops
//! from a 10 mF buffer (Figure 3). One "op" is an iteration of the paper's
//! ALU benchmark loop, not a single instruction.

use capy_units::{SimDuration, Volts, Watts};

use crate::load::{LoadPhase, TaskLoad};

/// An MSP430-class microcontroller.
///
/// # Examples
///
/// ```
/// use capy_device::mcu::Mcu;
/// use capy_units::SimDuration;
///
/// let mcu = Mcu::msp430fr5969();
/// // 1 Mop of ALU work at the calibrated rate takes ~6.25 s.
/// let load = mcu.compute_ops(1_000_000);
/// assert!((load.duration().as_secs_f64() - 6.25).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mcu {
    active_power: Watts,
    sleep_power: Watts,
    ops_per_second: f64,
    boot_time: SimDuration,
    min_voltage: Volts,
}

impl Mcu {
    /// Creates an MCU model.
    ///
    /// # Panics
    ///
    /// Panics if `ops_per_second` is not strictly positive.
    #[must_use]
    pub fn new(
        active_power: Watts,
        sleep_power: Watts,
        ops_per_second: f64,
        boot_time: SimDuration,
        min_voltage: Volts,
    ) -> Self {
        assert!(ops_per_second > 0.0, "ops_per_second must be positive");
        Self {
            active_power,
            sleep_power,
            ops_per_second,
            boot_time,
            min_voltage,
        }
    }

    /// The MSP430FR5969 as deployed on the prototype: ~0.9 mW active
    /// (MCU core + board overhead at the regulated rail), 6 µW in LPM3
    /// sleep, 160 kops/s of benchmark-loop throughput, 5 ms boot
    /// (including FRAM state restore), 1.8 V minimum.
    #[must_use]
    pub fn msp430fr5969() -> Self {
        Self::new(
            Watts::from_micro(900.0),
            Watts::from_micro(6.0),
            160_000.0,
            SimDuration::from_millis(5),
            Volts::new(1.8),
        )
    }

    /// The MSP430FR5969 running its ALU benchmark at full clock speed
    /// (16 MHz), the configuration of the Figures 3–4 design-space
    /// measurements. Energy per op matches [`Mcu::msp430fr5969`] (the
    /// silicon is the same); only power and throughput scale, which is
    /// what exposes the ESR-droop stranding of high-ESR supercapacitors
    /// under load (§2.2.2).
    #[must_use]
    pub fn msp430fr5969_full_speed() -> Self {
        Self::new(
            Watts::from_milli(3.6),
            Watts::from_micro(6.0),
            640_000.0,
            SimDuration::from_millis(5),
            Volts::new(1.8),
        )
    }

    /// The CC2650 wireless MCU used as the main processor on the GRC/CSR
    /// platform (§6.1.1): a Cortex-M3 at 48 MHz drawing ~9 mW active.
    /// Its much higher active power is what keeps the device intermittent
    /// under the 10 mW bench harvester ("harvested power is much lower
    /// than active power consumption", §2).
    #[must_use]
    pub fn cc2650() -> Self {
        Self::new(
            Watts::from_milli(9.0),
            Watts::from_micro(3.0),
            2_000_000.0,
            SimDuration::from_millis(10),
            Volts::new(1.8),
        )
    }

    /// Power drawn while actively computing.
    #[must_use]
    pub fn active_power(&self) -> Watts {
        self.active_power
    }

    /// Power drawn in the deepest memory-retaining sleep state.
    #[must_use]
    pub fn sleep_power(&self) -> Watts {
        self.sleep_power
    }

    /// Calibrated ALU benchmark throughput (ops per second).
    #[must_use]
    pub fn ops_per_second(&self) -> f64 {
        self.ops_per_second
    }

    /// Minimum supply voltage.
    #[must_use]
    pub fn min_voltage(&self) -> Volts {
        self.min_voltage
    }

    /// The boot phase executed on every power-on.
    #[must_use]
    pub fn boot_load(&self) -> LoadPhase {
        LoadPhase::with_min_voltage(
            "mcu-boot",
            self.boot_time,
            self.active_power,
            self.min_voltage,
        )
    }

    /// A pure-compute load of `ops` benchmark iterations.
    #[must_use]
    pub fn compute_ops(&self, ops: u64) -> TaskLoad {
        let secs = ops as f64 / self.ops_per_second;
        TaskLoad::new().then(LoadPhase::with_min_voltage(
            "alu",
            SimDuration::from_secs_f64(secs),
            self.active_power,
            self.min_voltage,
        ))
    }

    /// A compute load of the given duration at active power (for task
    /// bodies whose cost is expressed in time rather than ops).
    #[must_use]
    pub fn compute_for(&self, duration: SimDuration) -> LoadPhase {
        LoadPhase::with_min_voltage("compute", duration, self.active_power, self.min_voltage)
    }

    /// Number of benchmark ops that fit in an energy budget `e` at the
    /// regulated rail — the quantity plotted on the Figure 3/4 y-axes.
    #[must_use]
    pub fn ops_for_energy(&self, e: capy_units::Joules) -> u64 {
        if e.get() <= 0.0 {
            return 0;
        }
        let secs = e.get() / self.active_power.get();
        (secs * self.ops_per_second) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capy_units::Joules;

    #[test]
    fn calibration_matches_figure_3_anchor() {
        // A 10 mF buffer (2.8 → 0.9 V through an 85%-efficient booster)
        // stores ~30 mJ of deliverable energy; the paper's Figure 3 shows
        // ~4 Mops at 10⁴ µF. Check the model lands in that neighbourhood.
        let mcu = Mcu::msp430fr5969();
        let deliverable = Joules::new(0.5 * 10e-3 * (2.8f64.powi(2) - 0.9f64.powi(2)) * 0.85);
        let mops = mcu.ops_for_energy(deliverable) as f64 / 1e6;
        assert!((3.0..=6.0).contains(&mops), "mops = {mops}");
    }

    #[test]
    fn compute_ops_duration_scales_linearly() {
        let mcu = Mcu::msp430fr5969();
        let one = mcu.compute_ops(160_000);
        assert_eq!(one.duration(), SimDuration::from_secs(1));
        let ten = mcu.compute_ops(1_600_000);
        assert_eq!(ten.duration(), SimDuration::from_secs(10));
    }

    #[test]
    fn sleep_draws_far_less_than_active() {
        let mcu = Mcu::msp430fr5969();
        assert!(mcu.sleep_power().get() * 100.0 < mcu.active_power().get());
    }

    #[test]
    fn boot_load_carries_min_voltage() {
        let mcu = Mcu::msp430fr5969();
        assert_eq!(mcu.boot_load().min_voltage(), Volts::new(1.8));
        assert_eq!(mcu.boot_load().duration(), SimDuration::from_millis(5));
    }

    #[test]
    fn zero_energy_runs_zero_ops() {
        assert_eq!(Mcu::msp430fr5969().ops_for_energy(Joules::ZERO), 0);
        assert_eq!(Mcu::msp430fr5969().ops_for_energy(Joules::new(-1.0)), 0);
    }

    #[test]
    fn cc2650_is_power_hungry_relative_to_msp430() {
        // The property the GRC platform depends on: CC2650 active power
        // (~9 mW) exceeds the 10 mW bench harvester's deliverable input
        // after conversion loss, keeping the device intermittent.
        let cc = Mcu::cc2650();
        let msp = Mcu::msp430fr5969();
        assert!(cc.active_power().get() > 8.0 * msp.active_power().get());
        assert!(cc.active_power() > Watts::from_milli(8.0) * 0.8);
    }

    #[test]
    fn full_speed_preserves_energy_per_op() {
        // Same silicon, higher clock: energy/op identical, so the Fig. 3
        // anchor is clock-independent.
        let slow = Mcu::msp430fr5969();
        let fast = Mcu::msp430fr5969_full_speed();
        let e_slow = slow.active_power().get() / slow.ops_per_second();
        let e_fast = fast.active_power().get() / fast.ops_per_second();
        assert!((e_slow - e_fast).abs() / e_slow < 1e-9);
        assert!(fast.ops_per_second() > slow.ops_per_second());
    }

    #[test]
    fn ops_for_energy_inverts_compute_ops() {
        let mcu = Mcu::msp430fr5969();
        let load = mcu.compute_ops(500_000);
        let ops = mcu.ops_for_energy(load.energy());
        assert!((ops as i64 - 500_000).unsigned_abs() < 10);
    }

    #[test]
    #[should_panic(expected = "ops_per_second")]
    fn rejects_zero_throughput() {
        let _ = Mcu::new(
            Watts::from_micro(900.0),
            Watts::ZERO,
            0.0,
            SimDuration::ZERO,
            Volts::new(1.8),
        );
    }
}
