//! Capacitor physics: specifications, state, and the charge/discharge
//! integration used throughout the simulator.
//!
//! The stored-energy model is the one the paper states in §5.2,
//! `E = ½·C·(V_top² − V_bottom²)`, extended with the two non-idealities the
//! evaluation depends on:
//!
//! * **Equivalent series resistance (ESR).** Under a load current `I`, the
//!   terminal voltage sags to `V − I·ESR`. The output booster cuts out when
//!   the *terminal* voltage crosses its minimum, so high-ESR parts strand
//!   energy — the effect behind the supercapacitor curve in Figure 4.
//! * **Leakage.** A small constant current discharges idle capacitors,
//!   which bounds both long-term energy retention and the latch-switch
//!   retention time (§6.5).

use capy_units::cycle::Cycle;
use capy_units::{Amps, Farads, Joules, Ohms, SimDuration, Volts, Watts};

use crate::technology::Technology;

/// Immutable electrical specification of a single capacitor component.
///
/// Construct via [`CapacitorSpec::new`] or the datasheet-derived parts in
/// [`crate::technology::parts`].
#[derive(Debug, Clone, PartialEq)]
pub struct CapacitorSpec {
    name: &'static str,
    capacitance: Farads,
    esr: Ohms,
    rated_voltage: Volts,
    leakage: Amps,
    volume_mm3: f64,
    technology: Technology,
}

impl CapacitorSpec {
    /// Creates a capacitor specification.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance`, `rated_voltage`, or `volume_mm3` are not
    /// strictly positive, or if `esr`/`leakage` are negative.
    #[must_use]
    pub fn new(
        name: &'static str,
        capacitance: Farads,
        esr: Ohms,
        rated_voltage: Volts,
        leakage: Amps,
        volume_mm3: f64,
        technology: Technology,
    ) -> Self {
        assert!(capacitance.get() > 0.0, "capacitance must be positive");
        assert!(rated_voltage.get() > 0.0, "rated voltage must be positive");
        assert!(volume_mm3 > 0.0, "volume must be positive");
        assert!(esr.get() >= 0.0, "ESR must be non-negative");
        assert!(leakage.get() >= 0.0, "leakage must be non-negative");
        Self {
            name,
            capacitance,
            esr,
            rated_voltage,
            leakage,
            volume_mm3,
            technology,
        }
    }

    /// Human-readable part name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Nominal capacitance.
    #[must_use]
    pub fn capacitance(&self) -> Farads {
        self.capacitance
    }

    /// Equivalent series resistance.
    #[must_use]
    pub fn esr(&self) -> Ohms {
        self.esr
    }

    /// Maximum safe charging voltage.
    #[must_use]
    pub fn rated_voltage(&self) -> Volts {
        self.rated_voltage
    }

    /// Self-discharge (leakage) current.
    #[must_use]
    pub fn leakage(&self) -> Amps {
        self.leakage
    }

    /// Physical volume in cubic millimetres (design-space axis of Fig. 4).
    #[must_use]
    pub fn volume_mm3(&self) -> f64 {
        self.volume_mm3
    }

    /// The capacitor technology family.
    #[must_use]
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// Energy density in joules per cubic millimetre at the rated voltage.
    #[must_use]
    pub fn energy_density(&self) -> f64 {
        self.capacitance
            .energy_between(self.rated_voltage, Volts::ZERO)
            .get()
            / self.volume_mm3
    }

    /// Returns a derated copy whose usable capacitance is reduced by
    /// `margin` (0.0–1.0), the standard over-provisioning practice the
    /// paper mentions in §3 to absorb capacitor ageing.
    ///
    /// # Panics
    ///
    /// Panics if `margin` is outside `[0.0, 1.0)`.
    #[must_use]
    pub fn derated(mut self, margin: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&margin),
            "derating margin must be in [0, 1)"
        );
        self.capacitance = self.capacitance * (1.0 - margin);
        self
    }

    /// Effective capacitance at an operating temperature — the constraint
    /// that drives the CapySat component exclusions (§6.6: −40 °C
    /// "disqualifying all batteries … and many supercapacitors").
    ///
    /// Datasheet-shaped curves per family:
    ///
    /// * **X5R ceramic**: ±15% over −55…85 °C; mild roll-off in the cold.
    /// * **Tantalum**: nearly flat; −8% at −55 °C.
    /// * **EDLC**: the aqueous electrolyte thickens below 0 °C and
    ///   freezes near −25 °C — capacitance collapses to zero there.
    #[must_use]
    pub fn capacitance_at(&self, temp: capy_units::Celsius) -> Farads {
        let t = temp.get();
        let factor = match self.technology {
            crate::technology::Technology::CeramicX5r => {
                if t >= 25.0 {
                    1.0 - 0.002 * (t - 25.0)
                } else {
                    1.0 - 0.0025 * (25.0 - t)
                }
            }
            crate::technology::Technology::Tantalum => 1.0 - 0.001 * (25.0 - t).max(0.0),
            crate::technology::Technology::Edlc => {
                if t <= -25.0 {
                    0.0
                } else if t < 0.0 {
                    // Linear collapse from 60% at 0 °C to 0 at −25 °C.
                    0.6 * (t + 25.0) / 25.0
                } else {
                    1.0 - 0.016 * (25.0 - t).max(0.0)
                }
            }
        };
        self.capacitance * factor.clamp(0.0, 1.2)
    }
}

/// Mutable electrical state of one capacitor (or parallel group sharing a
/// voltage node): its voltage and lifetime charge/discharge cycle count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CapacitorState {
    voltage: Volts,
    /// Completed deep charge/discharge cycles, for EDLC wear accounting
    /// (the wear-levelling motivation in §5.2).
    cycles: u64,
}

impl CapacitorState {
    /// A fully discharged capacitor.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// A capacitor pre-charged to `voltage`.
    #[must_use]
    pub fn at(voltage: Volts) -> Self {
        Self { voltage, cycles: 0 }
    }

    /// Current open-circuit voltage.
    #[must_use]
    pub fn voltage(&self) -> Volts {
        self.voltage
    }

    /// Sets the open-circuit voltage directly (used by charge-sharing when
    /// banks connect in parallel).
    pub fn set_voltage(&mut self, v: Volts) {
        self.voltage = v.max(Volts::ZERO);
    }

    /// Number of completed discharge cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Records one completed deep-discharge cycle.
    pub fn record_cycle(&mut self) {
        self.cycles += 1;
    }

    /// Seeds the lifetime cycle count wholesale — resuming a device
    /// whose wear history was recorded by an earlier mission leg.
    pub fn seed_cycles(&mut self, cycles: u64) {
        self.cycles = cycles;
    }

    /// Visits this state's steady state: the voltage bits, replayed
    /// ([`Cycle::replayed_bits`]) when `leaking` says that only leaks
    /// moved it and a jump replays them, and the cycle count as a word
    /// when `wear` makes it feed the derating or as a counter otherwise.
    pub fn steady_state(&mut self, wear: bool, leaking: bool, c: &mut Cycle<'_>) {
        let Self { voltage, cycles } = self;
        if leaking {
            c.replayed_bits(voltage.get());
        } else {
            c.bits(voltage.get());
        }
        if wear {
            c.word(*cycles);
        } else {
            c.counter(cycles);
        }
    }
}

/// Closed-form charging: the voltage reached after pushing constant power
/// `power` into capacitance `c` for `dt`, starting from `v0`.
///
/// From `d(½CV²)/dt = P`: `V(t) = sqrt(V0² + 2·P·t / C)`.
#[must_use]
pub fn voltage_after_charge(c: Farads, v0: Volts, power: Watts, dt: SimDuration) -> Volts {
    if power.get() <= 0.0 || dt.is_zero() {
        return v0;
    }
    Volts::new((v0.squared() + 2.0 * power.get() * dt.as_secs_f64() / c.get()).sqrt())
}

/// Closed-form charging time from `v0` up to `target` at constant power.
///
/// Returns [`SimDuration::ZERO`] when already at or above `target`, and
/// [`SimDuration::MAX`] when `power` is non-positive (charging never
/// completes).
#[must_use]
pub fn time_to_charge(c: Farads, v0: Volts, target: Volts, power: Watts) -> SimDuration {
    if target <= v0 {
        return SimDuration::ZERO;
    }
    if power.get() <= 0.0 {
        return SimDuration::MAX;
    }
    let secs = c.get() * (target.squared() - v0.squared()) / (2.0 * power.get());
    SimDuration::from_secs_f64(secs)
}

/// The current a load drawing `power` at the booster input imposes on a
/// capacitor at open-circuit voltage `v` through series resistance `esr`.
///
/// Solves `I·(v − I·esr) = power` for the smaller root (the stable
/// operating point). Returns `None` when the operating point is infeasible,
/// i.e. `v² < 4·esr·power` — the capacitor cannot deliver that much power
/// through its ESR at any current.
#[must_use]
pub fn load_current(v: Volts, esr: Ohms, power: Watts) -> Option<Amps> {
    let p = power.get();
    if p <= 0.0 {
        return Some(Amps::ZERO);
    }
    let r = esr.get();
    if r <= 0.0 {
        if v.get() <= 0.0 {
            return None;
        }
        return Some(Amps::new(p / v.get()));
    }
    let disc = v.squared() - 4.0 * r * p;
    if disc < 0.0 {
        return None;
    }
    Some(Amps::new((v.get() - disc.sqrt()) / (2.0 * r)))
}

/// Outcome of a discharge integration step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Discharge {
    /// The full duration was sustained; the field is the final open-circuit
    /// voltage.
    Sustained(Volts),
    /// The terminal voltage crossed `v_min` (or the operating point became
    /// infeasible) after the given duration; the field pair is
    /// `(time_survived, final_voltage)`.
    Failed(SimDuration, Volts),
}

/// Integrates a constant-power discharge of capacitance `c` (series
/// resistance `esr`) from open-circuit voltage `v0`, drawing `power` at the
/// capacitor terminals, until either `dt` elapses or the terminal voltage
/// `V − I·ESR` falls below `v_min`.
///
/// The ESR makes the ODE non-linear, so this uses adaptive forward
/// integration: each step removes at most ~2% of the remaining usable
/// energy, so a draw that barely dents the buffer costs one step while a
/// deep discharge resolves the cutoff crossing precisely. For `esr == 0`
/// the per-step update is the exact closed form (the drain rate `V·I`
/// equals the constant load power).
#[must_use]
pub fn discharge(
    c: Farads,
    esr: Ohms,
    v0: Volts,
    power: Watts,
    v_min: Volts,
    dt: SimDuration,
) -> Discharge {
    if power.get() <= 0.0 || dt.is_zero() {
        return Discharge::Sustained(v0);
    }
    // Immediate infeasibility: cannot even start.
    let Some(i0) = load_current(v0, esr, power) else {
        return Discharge::Failed(SimDuration::ZERO, v0);
    };
    if v0 - i0 * esr < v_min {
        return Discharge::Failed(SimDuration::ZERO, v0);
    }

    // ESR-free loads admit an exact closed form: the stored energy drains at
    // exactly `power`, so V(t) = sqrt(V0² − 2Pt/C) and v_min is reached at
    // t = C·(V0² − V_min²)/(2P). No integration needed, regardless of dt.
    if esr.get() <= 0.0 {
        let total = dt.as_secs_f64();
        let v_floor = v_min.get().max(0.0);
        let t_fail = 0.5 * c.get() * (v0.squared() - v_floor * v_floor) / power.get();
        if total <= t_fail {
            let v2 = (v0.squared() - 2.0 * power.get() * total / c.get()).max(0.0);
            return Discharge::Sustained(Volts::new(v2.sqrt()));
        }
        return Discharge::Failed(
            SimDuration::from_secs_f64(t_fail.max(0.0)),
            Volts::new(v_floor),
        );
    }

    let total = dt.as_secs_f64();
    let mut v = v0.get();
    let mut elapsed = 0.0f64;
    // 2%-of-usable steps with a relative floor bound the loop to ~10⁴
    // iterations even in pathological cases.
    const MAX_STEPS: u32 = 50_000;
    for _ in 0..MAX_STEPS {
        if elapsed >= total {
            break;
        }
        let Some(i) = load_current(Volts::new(v), esr, power) else {
            return Discharge::Failed(SimDuration::from_secs_f64(elapsed), Volts::new(v));
        };
        if Volts::new(v) - i * esr < v_min {
            return Discharge::Failed(SimDuration::from_secs_f64(elapsed), Volts::new(v));
        }
        // Stored energy drains at the full V·I rate (load power plus ESR
        // dissipation).
        let drain = v * i.get();
        let usable = (0.5 * c.get() * (v * v - v_min.squared())).max(0.0);
        let remaining = total - elapsed;
        let step = remaining
            .min((0.02 * usable / drain).max(remaining * 2.5e-4))
            .max(1e-9);
        let v2 = v * v - 2.0 * drain * step / c.get();
        if v2 <= 0.0 {
            return Discharge::Failed(SimDuration::from_secs_f64(elapsed), Volts::ZERO);
        }
        v = v2.sqrt();
        elapsed += step;
    }
    // Final check at the end point.
    match load_current(Volts::new(v), esr, power) {
        Some(i) if Volts::new(v) - i * esr >= v_min && elapsed >= total => {
            Discharge::Sustained(Volts::new(v))
        }
        Some(_) | None => Discharge::Failed(SimDuration::from_secs_f64(elapsed), Volts::new(v)),
    }
}

/// How long a constant-power load can be sustained from `v0` before the
/// terminal voltage reaches `v_min`, together with the final voltage.
///
/// This is the "operating time" axis of the paper's design space (§2.2.1).
#[must_use]
pub fn sustain_time(
    c: Farads,
    esr: Ohms,
    v0: Volts,
    power: Watts,
    v_min: Volts,
) -> (SimDuration, Volts) {
    // Probe with an upper bound: the ESR-free energy budget plus margin.
    let ideal = c.energy_between(v0, v_min);
    if power.get() <= 0.0 || ideal.get() <= 0.0 {
        return (SimDuration::ZERO, v0);
    }
    let bound = SimDuration::from_secs_f64(ideal.get() / power.get() * 1.25 + 1e-6);
    match discharge(c, esr, v0, power, v_min, bound) {
        Discharge::Sustained(v) => (bound, v),
        Discharge::Failed(t, v) => (t, v),
    }
}

/// Voltage decay from constant-current leakage over `dt`:
/// `V(t) = V0 − I_leak·t / C`, floored at zero.
#[must_use]
pub fn leak(c: Farads, v0: Volts, leakage: Amps, dt: SimDuration) -> Volts {
    if leakage.get() <= 0.0 || dt.is_zero() {
        return v0;
    }
    let drop = leakage.get() * dt.as_secs_f64() / c.get();
    Volts::new((v0.get() - drop).max(0.0))
}

/// Time for leakage to pull the voltage from `v0` down to `target`.
///
/// Returns [`SimDuration::MAX`] when there is no leakage, and
/// [`SimDuration::ZERO`] when already at or below `target`.
#[must_use]
pub fn leak_time(c: Farads, v0: Volts, leakage: Amps, target: Volts) -> SimDuration {
    if v0 <= target {
        return SimDuration::ZERO;
    }
    if leakage.get() <= 0.0 {
        return SimDuration::MAX;
    }
    SimDuration::from_secs_f64(c.get() * (v0.get() - target.get()) / leakage.get())
}

/// Extractable energy from `v0` down to the ESR-limited cutoff under a
/// constant-power load: the integral the Figure 4 sweep relies on.
#[must_use]
pub fn extractable_energy(c: Farads, esr: Ohms, v0: Volts, power: Watts, v_min: Volts) -> Joules {
    let (t, _) = sustain_time(c, esr, v0, power, v_min);
    power * t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technology::parts;
    use capy_units::rng::DetRng;

    const C: Farads = Farads::new(100e-6);

    #[test]
    fn charge_reaches_expected_voltage() {
        // 1 mW into 100 µF for 1 s: V = sqrt(2·1e-3·1 / 1e-4) = sqrt(20).
        let v = voltage_after_charge(
            C,
            Volts::ZERO,
            Watts::from_milli(1.0),
            SimDuration::from_secs(1),
        );
        assert!((v.get() - 20f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn charge_time_inverts_voltage_after_charge() {
        let p = Watts::from_micro(250.0);
        let t = time_to_charge(C, Volts::new(1.0), Volts::new(2.8), p);
        let v = voltage_after_charge(C, Volts::new(1.0), p, t);
        assert!((v.get() - 2.8).abs() < 1e-4);
    }

    #[test]
    fn charge_time_zero_when_already_charged() {
        assert_eq!(
            time_to_charge(C, Volts::new(3.0), Volts::new(2.8), Watts::from_milli(1.0)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn charge_time_is_never_with_no_power() {
        assert_eq!(
            time_to_charge(C, Volts::ZERO, Volts::new(2.8), Watts::ZERO),
            SimDuration::MAX
        );
    }

    #[test]
    fn load_current_without_esr_is_p_over_v() {
        let i = load_current(Volts::new(2.0), Ohms::ZERO, Watts::from_milli(10.0)).unwrap();
        assert!((i.as_milli() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn load_current_with_esr_exceeds_ideal() {
        // The stable root draws more current than P/V to cover ESR loss...
        // actually the current satisfies I(V - I R) = P, so I > P/V.
        let i = load_current(Volts::new(2.0), Ohms::new(20.0), Watts::from_milli(10.0)).unwrap();
        assert!(i.get() > 10e-3 / 2.0);
        // And the delivered power checks out.
        let delivered = (Volts::new(2.0) - i * Ohms::new(20.0)) * i;
        assert!((delivered.as_milli() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn load_current_infeasible_when_esr_too_high() {
        // Max deliverable power through R from V is V²/4R = 4/640 ≈ 6.25 mW.
        assert!(load_current(Volts::new(2.0), Ohms::new(160.0), Watts::from_milli(10.0)).is_none());
    }

    #[test]
    fn discharge_without_esr_matches_energy_budget() {
        let p = Watts::from_milli(5.0);
        let (t, v_end) = sustain_time(C, Ohms::ZERO, Volts::new(2.8), p, Volts::new(0.9));
        let e = C.energy_between(Volts::new(2.8), Volts::new(0.9));
        let expected = e.get() / p.get();
        assert!((t.as_secs_f64() - expected).abs() / expected < 0.01);
        assert!((v_end.get() - 0.9).abs() < 0.05);
    }

    #[test]
    fn discharge_sustained_when_duration_short() {
        let out = discharge(
            C,
            Ohms::ZERO,
            Volts::new(2.8),
            Watts::from_milli(1.0),
            Volts::new(0.9),
            SimDuration::from_millis(10),
        );
        match out {
            Discharge::Sustained(v) => assert!(v < Volts::new(2.8) && v > Volts::new(2.7)),
            Discharge::Failed(..) => panic!("should sustain a 10 ms load"),
        }
    }

    #[test]
    fn esr_strands_energy() {
        // Same capacitance, same load: high ESR must extract strictly less.
        let lo = extractable_energy(
            Farads::from_milli(11.0),
            Ohms::new(0.1),
            Volts::new(2.8),
            Watts::from_milli(10.0),
            Volts::new(0.9),
        );
        let hi = extractable_energy(
            Farads::from_milli(11.0),
            Ohms::new(60.0),
            Volts::new(2.8),
            Watts::from_milli(10.0),
            Volts::new(0.9),
        );
        assert!(hi.get() < lo.get() * 0.8, "hi={hi} lo={lo}");
    }

    #[test]
    fn leakage_decays_linearly_and_floors_at_zero() {
        let v = leak(
            C,
            Volts::new(2.0),
            Amps::from_micro(1.0),
            SimDuration::from_secs(100),
        );
        assert!((v.get() - 1.0).abs() < 1e-9);
        let v = leak(
            C,
            Volts::new(2.0),
            Amps::from_micro(1.0),
            SimDuration::from_secs(10_000),
        );
        assert_eq!(v, Volts::ZERO);
    }

    #[test]
    fn leak_time_round_trips() {
        let t = leak_time(C, Volts::new(2.0), Amps::from_micro(1.0), Volts::new(1.5));
        assert_eq!(t, SimDuration::from_secs(50));
        assert_eq!(
            leak_time(C, Volts::new(1.0), Amps::from_micro(1.0), Volts::new(1.5)),
            SimDuration::ZERO
        );
        assert_eq!(
            leak_time(C, Volts::new(2.0), Amps::ZERO, Volts::new(1.5)),
            SimDuration::MAX
        );
    }

    #[test]
    fn spec_constructor_validates() {
        let spec = parts::ceramic_x5r_100uf();
        assert_eq!(spec.technology(), Technology::CeramicX5r);
        assert!(spec.energy_density() > 0.0);
    }

    #[test]
    #[should_panic(expected = "capacitance must be positive")]
    fn spec_rejects_zero_capacitance() {
        let _ = CapacitorSpec::new(
            "bad",
            Farads::ZERO,
            Ohms::ZERO,
            Volts::new(6.3),
            Amps::ZERO,
            1.0,
            Technology::CeramicX5r,
        );
    }

    #[test]
    fn derating_reduces_capacitance() {
        let spec = parts::edlc_cph3225a().derated(0.2);
        assert!((spec.capacitance().as_milli() - 11.0 * 0.8).abs() < 1e-9);
    }

    #[test]
    fn edlc_capacitance_collapses_in_the_cold() {
        use capy_units::Celsius;
        let edlc = parts::edlc_cph3225a();
        let nominal = edlc.capacitance_at(Celsius::new(25.0));
        assert!((nominal.get() - edlc.capacitance().get()).abs() < 1e-12);
        assert_eq!(edlc.capacitance_at(Celsius::new(-40.0)), Farads::ZERO);
        let chilly = edlc.capacitance_at(Celsius::new(-10.0));
        assert!(chilly.get() < 0.5 * nominal.get());
    }

    #[test]
    fn ceramic_and_tantalum_survive_minus_forty() {
        use capy_units::Celsius;
        for spec in [parts::ceramic_x5r_100uf(), parts::tantalum_330uf()] {
            let cold = spec.capacitance_at(Celsius::new(-40.0));
            assert!(
                cold.get() > 0.8 * spec.capacitance().get(),
                "{} at -40C keeps most capacitance",
                spec.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "derating margin")]
    fn derating_rejects_full_margin() {
        let _ = parts::edlc_cph3225a().derated(1.0);
    }

    #[test]
    fn state_cycle_accounting() {
        let mut st = CapacitorState::at(Volts::new(2.0));
        assert_eq!(st.cycles(), 0);
        st.record_cycle();
        st.record_cycle();
        assert_eq!(st.cycles(), 2);
        st.set_voltage(Volts::new(-1.0));
        assert_eq!(st.voltage(), Volts::ZERO);
    }

    #[test]
    fn prop_charge_monotonic_in_time() {
        let mut rng = DetRng::seed_from_u64(0xc0);
        for _ in 0..256 {
            let p = Watts::from_milli(rng.gen_range(0.01f64..100.0));
            let t1 = rng.gen_range(1u64..1_000_000);
            let t2 = rng.gen_range(1u64..1_000_000);
            let (lo, hi) = (t1.min(t2), t1.max(t2));
            let v_lo = voltage_after_charge(C, Volts::ZERO, p, SimDuration::from_micros(lo));
            let v_hi = voltage_after_charge(C, Volts::ZERO, p, SimDuration::from_micros(hi));
            assert!(v_hi >= v_lo);
        }
    }

    #[test]
    fn prop_sustain_time_decreases_with_power() {
        let mut rng = DetRng::seed_from_u64(0xc1);
        for _ in 0..256 {
            let p1 = rng.gen_range(0.5f64..50.0);
            let p2 = rng.gen_range(0.5f64..50.0);
            if (p1 - p2).abs() <= 1e-6 {
                continue;
            }
            let (lo, hi) = (p1.min(p2), p1.max(p2));
            let (t_lo, _) = sustain_time(
                C,
                Ohms::new(0.5),
                Volts::new(2.8),
                Watts::from_milli(hi),
                Volts::new(0.9),
            );
            let (t_hi, _) = sustain_time(
                C,
                Ohms::new(0.5),
                Volts::new(2.8),
                Watts::from_milli(lo),
                Volts::new(0.9),
            );
            assert!(t_hi >= t_lo);
        }
    }

    #[test]
    fn prop_discharge_never_gains_energy() {
        let mut rng = DetRng::seed_from_u64(0xc2);
        for _ in 0..256 {
            let v0 = rng.gen_range(1.0f64..3.3);
            let out = discharge(
                C,
                Ohms::new(rng.gen_range(0.0f64..10.0)),
                Volts::new(v0),
                Watts::from_milli(rng.gen_range(0.1f64..30.0)),
                Volts::new(0.9),
                SimDuration::from_millis(rng.gen_range(1u64..5_000)),
            );
            let v_end = match out {
                Discharge::Sustained(v) | Discharge::Failed(_, v) => v,
            };
            assert!(v_end.get() <= v0 + 1e-12);
        }
    }

    #[test]
    fn prop_extractable_energy_bounded_by_ideal() {
        let mut rng = DetRng::seed_from_u64(0xc3);
        for _ in 0..256 {
            let v0 = rng.gen_range(1.5f64..3.3);
            let p_mw = rng.gen_range(0.5f64..20.0);
            let esr = rng.gen_range(0.0f64..50.0);
            let e = extractable_energy(
                C,
                Ohms::new(esr),
                Volts::new(v0),
                Watts::from_milli(p_mw),
                Volts::new(0.9),
            );
            let ideal = C
                .energy_between(Volts::new(v0), Volts::new(0.9))
                .get()
                .max(0.0);
            // Allow integration slack of 2%.
            assert!(e.get() <= ideal * 1.02 + 1e-12);
        }
    }
}
