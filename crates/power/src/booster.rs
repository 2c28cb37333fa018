//! The power-distribution circuit: voltage limiter, input booster with
//! cold-start bypass, and output booster (§5.1).
//!
//! * The **voltage limiter** lets the harvester string rise above component
//!   ratings in bright light while clamping the charging voltage.
//! * The **input booster** charges capacitors from harvester voltages too
//!   low to use directly. Below its *cold-start threshold* the booster runs
//!   at drastically reduced efficiency; the **bypass** optimization routes
//!   harvester current directly into the capacitors through a keeper diode
//!   until the booster can start, which the paper measured to cut charge
//!   time "by at least an order of magnitude".
//! * The **output booster** regulates the load voltage while the capacitor
//!   voltage falls, extracting energy down to ~10% of capacity and
//!   compensating the ESR droop of dense supercapacitors.

use capy_units::{Volts, Watts};

/// Input clamp protecting downstream components from high harvester
/// voltages (series solar strings in bright light).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageLimiter {
    clamp: Volts,
}

impl VoltageLimiter {
    /// Creates a limiter clamping at `clamp`.
    #[must_use]
    pub fn new(clamp: Volts) -> Self {
        Self { clamp }
    }

    /// The prototype's clamp: 2.8 V storage-rail ceiling.
    #[must_use]
    pub fn prototype() -> Self {
        Self::new(Volts::new(2.8))
    }

    /// The clamped storage-rail ceiling.
    #[must_use]
    pub fn clamp(&self) -> Volts {
        self.clamp
    }

    /// Limits an input voltage to the clamp.
    #[must_use]
    pub fn limit(&self, v: Volts) -> Volts {
        v.min(self.clamp)
    }
}

/// The charging regime the input path is operating in at a given capacitor
/// voltage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeRegime {
    /// Direct harvester→capacitor charging through the keeper diode
    /// (bypass active, booster not yet started).
    Bypass,
    /// Booster cold-start: severely reduced transfer efficiency.
    ColdStart,
    /// Booster running normally.
    Boost,
}

/// The input booster and its cold-start behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputBooster {
    /// Capacitor voltage above which the booster has started and converts
    /// at full efficiency.
    cold_start_threshold: Volts,
    /// Transfer efficiency once started.
    efficiency: f64,
    /// Transfer efficiency during cold start (very poor; the motivation
    /// for the bypass).
    cold_efficiency: f64,
    /// Minimum harvester power below which no net charging occurs.
    min_input: Watts,
}

impl InputBooster {
    /// Creates an input booster.
    ///
    /// # Panics
    ///
    /// Panics if either efficiency is outside `(0, 1]`.
    #[must_use]
    pub fn new(
        cold_start_threshold: Volts,
        efficiency: f64,
        cold_efficiency: f64,
        min_input: Watts,
    ) -> Self {
        assert!((0.0..=1.0).contains(&efficiency) && efficiency > 0.0);
        assert!((0.0..=1.0).contains(&cold_efficiency) && cold_efficiency > 0.0);
        Self {
            cold_start_threshold,
            efficiency,
            cold_efficiency,
            min_input,
        }
    }

    /// The prototype's input booster (bq25504-class): cold start below
    /// 1.0 V on the storage rail, ~80% efficient once started, ~1%
    /// effective during cold start (the charge-pump trickle that motivates
    /// the bypass), 10 µW minimum input.
    #[must_use]
    pub fn prototype() -> Self {
        Self::new(Volts::new(1.0), 0.80, 0.01, Watts::from_micro(10.0))
    }

    /// Capacitor voltage above which the booster is started.
    #[must_use]
    pub fn cold_start_threshold(&self) -> Volts {
        self.cold_start_threshold
    }

    /// Normal-operation transfer efficiency.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }

    /// Net power delivered into the capacitors for harvester power `p_in`
    /// with the storage rail at `v_cap`, given whether a bypass circuit is
    /// fitted and the harvester's open-circuit voltage.
    ///
    /// Returns the power and the regime it was computed under.
    #[must_use]
    pub fn charge_power(
        &self,
        p_in: Watts,
        v_cap: Volts,
        bypass: Option<&Bypass>,
        harvester_voltage: Volts,
    ) -> (Watts, ChargeRegime) {
        if p_in < self.min_input {
            return (Watts::ZERO, ChargeRegime::Boost);
        }
        if v_cap < self.cold_start_threshold {
            if let Some(bp) = bypass {
                // The bypass charges directly from the harvester while the
                // capacitor sits below what the diode-dropped harvester
                // voltage can push.
                if v_cap < bp.ceiling(harvester_voltage) {
                    return (p_in * bp.efficiency(), ChargeRegime::Bypass);
                }
            }
            (p_in * self.cold_efficiency, ChargeRegime::ColdStart)
        } else {
            (p_in * self.efficiency, ChargeRegime::Boost)
        }
    }
}

/// The keeper-diode bypass circuit (§5.1): charges capacitors directly from
/// the harvester until the booster starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bypass {
    diode_drop: Volts,
    efficiency: f64,
}

impl Bypass {
    /// Creates a bypass with the given keeper-diode forward drop and direct
    /// transfer efficiency.
    #[must_use]
    pub fn new(diode_drop: Volts, efficiency: f64) -> Self {
        assert!((0.0..=1.0).contains(&efficiency) && efficiency > 0.0);
        Self {
            diode_drop,
            efficiency,
        }
    }

    /// The prototype bypass: Schottky keeper (0.3 V drop), near-lossless
    /// direct charging.
    #[must_use]
    pub fn prototype() -> Self {
        Self::new(Volts::new(0.3), 0.95)
    }

    /// Transfer efficiency of the direct path.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }

    /// Highest capacitor voltage the bypass can charge to for a given
    /// harvester open-circuit voltage.
    #[must_use]
    pub fn ceiling(&self, harvester_voltage: Volts) -> Volts {
        (harvester_voltage - self.diode_drop).max(Volts::ZERO)
    }
}

/// The output booster/regulator (§5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputBooster {
    /// Regulated output voltage delivered to the load.
    output_voltage: Volts,
    /// Capacitor voltage required to start the booster from a dead system
    /// ("the minimum for the output booster (1.6 V)", §5.2).
    startup_voltage: Volts,
    /// Capacitor terminal voltage at which a running booster cuts out.
    /// With a 2.8 V full rail, 0.9 V leaves ~10% of the stored energy —
    /// "discharged nearly completely (down to about 10% of capacity)".
    min_operating_voltage: Volts,
    /// Conversion efficiency.
    efficiency: f64,
    /// Quiescent draw of the booster itself while the device operates.
    quiescent: Watts,
}

impl OutputBooster {
    /// Creates an output booster.
    ///
    /// # Panics
    ///
    /// Panics if `efficiency` is outside `(0, 1]` or
    /// `min_operating_voltage > startup_voltage`.
    #[must_use]
    pub fn new(
        output_voltage: Volts,
        startup_voltage: Volts,
        min_operating_voltage: Volts,
        efficiency: f64,
        quiescent: Watts,
    ) -> Self {
        assert!((0.0..=1.0).contains(&efficiency) && efficiency > 0.0);
        assert!(
            min_operating_voltage <= startup_voltage,
            "a booster cannot need less voltage to start than to run"
        );
        Self {
            output_voltage,
            startup_voltage,
            min_operating_voltage,
            efficiency,
            quiescent,
        }
    }

    /// The prototype output booster: 3.0 V regulated output (enough for the
    /// 2.5 V gesture sensor and 2.0 V BLE radio), 1.6 V startup, 0.9 V
    /// running minimum, 85% efficient, 15 µW quiescent.
    #[must_use]
    pub fn prototype() -> Self {
        Self::new(
            Volts::new(3.0),
            Volts::new(1.6),
            Volts::new(0.9),
            0.85,
            Watts::from_micro(15.0),
        )
    }

    /// Regulated output voltage.
    #[must_use]
    pub fn output_voltage(&self) -> Volts {
        self.output_voltage
    }

    /// Capacitor voltage needed to start from cold.
    #[must_use]
    pub fn startup_voltage(&self) -> Volts {
        self.startup_voltage
    }

    /// Terminal voltage at which a running booster drops out.
    #[must_use]
    pub fn min_operating_voltage(&self) -> Volts {
        self.min_operating_voltage
    }

    /// Conversion efficiency.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }

    /// Power that must be drawn from the capacitors to deliver `load` at
    /// the regulated output, including conversion loss and quiescent draw.
    #[must_use]
    pub fn input_power_for(&self, load: Watts) -> Watts {
        Watts::new(load.get() / self.efficiency) + self.quiescent
    }

    /// Fraction of the energy stored between `full` and ground that remains
    /// stranded below the operating minimum — ~0.10 for the prototype's
    /// 2.8 V rail, matching the paper's "about 10% of capacity".
    #[must_use]
    pub fn stranded_fraction(&self, full: Volts) -> f64 {
        if full.get() <= 0.0 {
            return 0.0;
        }
        self.min_operating_voltage.squared() / full.squared()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limiter_clamps_high_input_only() {
        let lim = VoltageLimiter::prototype();
        assert_eq!(lim.limit(Volts::new(6.0)), Volts::new(2.8));
        assert_eq!(lim.limit(Volts::new(2.0)), Volts::new(2.0));
    }

    #[test]
    fn input_booster_regimes() {
        let ib = InputBooster::prototype();
        let bp = Bypass::prototype();
        let p = Watts::from_milli(10.0);
        let hv = Volts::new(3.0);

        // Below cold start with bypass fitted: direct path.
        let (pw, regime) = ib.charge_power(p, Volts::new(0.2), Some(&bp), hv);
        assert_eq!(regime, ChargeRegime::Bypass);
        assert!((pw.get() - 9.5e-3).abs() < 1e-12);

        // Below cold start without bypass: crawling.
        let (pw, regime) = ib.charge_power(p, Volts::new(0.2), None, hv);
        assert_eq!(regime, ChargeRegime::ColdStart);
        assert!((pw.get() - 0.1e-3).abs() < 1e-12);

        // Above cold start: boosting.
        let (pw, regime) = ib.charge_power(p, Volts::new(1.5), Some(&bp), hv);
        assert_eq!(regime, ChargeRegime::Boost);
        assert!((pw.get() - 8.0e-3).abs() < 1e-12);
    }

    #[test]
    fn bypass_ceiling_respects_diode_drop() {
        let bp = Bypass::prototype();
        assert_eq!(bp.ceiling(Volts::new(3.0)), Volts::new(2.7));
        assert_eq!(bp.ceiling(Volts::new(0.1)), Volts::ZERO);
    }

    #[test]
    fn bypass_unavailable_when_harvester_voltage_below_cap() {
        // Harvester open voltage 0.5 V, cap already at 0.4 V: the diode
        // cannot push charge; falls back to cold start.
        let ib = InputBooster::prototype();
        let bp = Bypass::prototype();
        let (_, regime) = ib.charge_power(
            Watts::from_milli(1.0),
            Volts::new(0.4),
            Some(&bp),
            Volts::new(0.5),
        );
        assert_eq!(regime, ChargeRegime::ColdStart);
    }

    #[test]
    fn no_charging_below_min_input() {
        let ib = InputBooster::prototype();
        let (pw, _) = ib.charge_power(
            Watts::from_micro(5.0),
            Volts::new(2.0),
            None,
            Volts::new(3.0),
        );
        assert_eq!(pw, Watts::ZERO);
    }

    #[test]
    fn output_booster_overheads() {
        let ob = OutputBooster::prototype();
        let p = ob.input_power_for(Watts::from_milli(8.5));
        assert!((p.get() - (8.5e-3 / 0.85 + 15e-6)).abs() < 1e-12);
    }

    #[test]
    fn stranded_fraction_is_about_ten_percent() {
        let ob = OutputBooster::prototype();
        let f = ob.stranded_fraction(Volts::new(2.8));
        assert!((0.08..=0.12).contains(&f), "stranded = {f}");
    }

    #[test]
    #[should_panic(expected = "cannot need less voltage")]
    fn output_booster_rejects_inverted_thresholds() {
        let _ = OutputBooster::new(
            Volts::new(3.0),
            Volts::new(0.5),
            Volts::new(1.6),
            0.85,
            Watts::ZERO,
        );
    }
}
