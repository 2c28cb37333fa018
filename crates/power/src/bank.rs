//! Capacitor banks: named parallel compositions of capacitors that form one
//! switchable unit of the reconfigurable energy reservoir.
//!
//! A bank is provisioned at design time (§3: "partition a set of capacitors
//! into one or more banks such that the capacitance needs of all energy
//! modes can be met by activating some subset of the banks") and is the
//! granularity at which the runtime reconfigures capacity.

use capy_units::cycle::Cycle;
use capy_units::{Amps, Farads, Joules, Ohms, SimDuration, Volts};

use crate::capacitor::{self, CapacitorSpec, CapacitorState};

/// Index of a bank within a [`crate::system::PowerSystem`]'s array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BankId(pub usize);

impl core::fmt::Display for BankId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "bank{}", self.0)
    }
}

/// A named parallel group of capacitors sharing one voltage node.
///
/// # Examples
///
/// ```
/// use capy_power::prelude::*;
/// use capy_units::Volts;
///
/// // The Temperature Alarm small bank: 300 µF ceramic + 100 µF tantalum.
/// let bank = Bank::builder("ta-small")
///     .with(parts::ceramic_x5r_300uf())
///     .with(parts::tantalum_100uf())
///     .build();
/// assert!((bank.capacitance().as_micro() - 400.0).abs() < 1e-6);
/// assert!(bank.rated_voltage() >= Volts::new(3.3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bank {
    name: &'static str,
    members: Vec<CapacitorSpec>,
    state: CapacitorState,
    /// Capacitance derating factor (1.0 = as-built, 0.8 = 20% fade).
    /// Driven by wear models and injected degradation faults.
    cap_derate: f64,
    /// ESR growth factor (1.0 = as-built, 2.0 = doubled ESR).
    esr_scale: f64,
    /// The electrical constants the kernel reads on every operation.
    constants: BankConstants,
}

/// A bank's derived electrical constants. They are a pure function of
/// the member specs (fixed at build) and the derating factors (changed
/// only by [`Bank::set_derating`]), so they are stored rather than
/// re-summed over the members on every kernel operation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BankConstants {
    capacitance: Farads,
    esr: Ohms,
    leakage: Amps,
    rated_voltage: Volts,
}

impl BankConstants {
    /// Computes the constants from `members` under the given derating,
    /// summing in member order.
    fn derive(members: &[CapacitorSpec], cap_derate: f64, esr_scale: f64) -> Self {
        let nominal: Farads = members.iter().map(CapacitorSpec::capacitance).sum();
        Self {
            capacitance: Farads::new(nominal.get() * cap_derate),
            esr: scaled_parallel_esr(members, esr_scale),
            leakage: members.iter().map(CapacitorSpec::leakage).sum(),
            rated_voltage: members
                .iter()
                .map(CapacitorSpec::rated_voltage)
                .fold(Volts::new(f64::INFINITY), Volts::min),
        }
    }
}

/// `esr_scale ×` the parallel ESR of `members` (`1/R = Σ 1/Rᵢ`). Members
/// with zero ESR short the combination to zero.
fn scaled_parallel_esr(members: &[CapacitorSpec], esr_scale: f64) -> Ohms {
    let mut inv = 0.0f64;
    for m in members {
        let r = m.esr().get();
        if r <= 0.0 {
            return Ohms::ZERO;
        }
        inv += 1.0 / r;
    }
    if inv == 0.0 {
        Ohms::ZERO
    } else {
        Ohms::new(esr_scale / inv)
    }
}

impl Bank {
    /// Starts building a bank with the given design-time name.
    #[must_use]
    pub fn builder(name: &'static str) -> BankBuilder {
        BankBuilder {
            name,
            members: Vec::new(),
        }
    }

    /// The bank's design-time name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The member capacitor specifications.
    #[must_use]
    pub fn members(&self) -> &[CapacitorSpec] {
        &self.members
    }

    /// Total parallel capacitance, after any wear/fault derating.
    #[must_use]
    pub fn capacitance(&self) -> Farads {
        self.constants.capacitance
    }

    /// Total parallel capacitance as built, before derating — the design
    /// value a health probe compares the effective capacitance against.
    #[must_use]
    pub fn nominal_capacitance(&self) -> Farads {
        self.members.iter().map(CapacitorSpec::capacitance).sum()
    }

    /// Combined ESR of the parallel group (`1/R = Σ 1/Rᵢ`), after any
    /// wear/fault growth. Members with zero ESR short the combination to
    /// zero.
    #[must_use]
    pub fn esr(&self) -> Ohms {
        self.constants.esr
    }

    /// Applies a wear/fault derating: effective capacitance becomes
    /// `cap_derate ×` nominal and ESR grows by `esr_scale ×`. Values are
    /// clamped to physically sensible ranges (`cap_derate ∈ [0, 1]`,
    /// `esr_scale ≥ 1`). Stored charge `Q = C·V` is conserved across the
    /// change: the open-circuit voltage rises as plates effectively shrink.
    pub fn set_derating(&mut self, cap_derate: f64, esr_scale: f64) {
        let q = self.charge();
        self.cap_derate = cap_derate.clamp(0.0, 1.0);
        self.esr_scale = esr_scale.max(1.0);
        self.constants = BankConstants::derive(&self.members, self.cap_derate, self.esr_scale);
        let c = self.capacitance().get();
        if c > 0.0 {
            self.set_voltage(Volts::new(q / c));
        } else {
            self.state.set_voltage(Volts::ZERO);
        }
    }

    /// The current derating factors `(cap_derate, esr_scale)`.
    #[must_use]
    pub fn derating(&self) -> (f64, f64) {
        (self.cap_derate, self.esr_scale)
    }

    /// Total leakage current.
    #[must_use]
    pub fn leakage(&self) -> Amps {
        self.constants.leakage
    }

    /// The lowest member voltage rating — the bank's safe charging limit.
    #[must_use]
    pub fn rated_voltage(&self) -> Volts {
        self.constants.rated_voltage
    }

    /// Total board volume in mm³.
    #[must_use]
    pub fn volume_mm3(&self) -> f64 {
        self.members.iter().map(CapacitorSpec::volume_mm3).sum()
    }

    /// Current open-circuit voltage.
    #[must_use]
    pub fn voltage(&self) -> Volts {
        self.state.voltage()
    }

    /// Sets the open-circuit voltage (charge sharing, charging steps).
    pub fn set_voltage(&mut self, v: Volts) {
        self.state
            .set_voltage(v.min(self.rated_voltage()).max(Volts::ZERO));
    }

    /// Completed deep-discharge cycle count (EDLC wear accounting).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.state.cycles()
    }

    /// Records a completed deep-discharge cycle.
    pub fn record_cycle(&mut self) {
        self.state.record_cycle();
    }

    /// Seeds the lifetime cycle count wholesale (wear carryover from an
    /// earlier mission leg). Does not touch the derating — callers that
    /// model wear electrically re-derive it from the seeded count.
    pub fn seed_cycles(&mut self, cycles: u64) {
        self.state.seed_cycles(cycles);
    }

    /// Stored charge `Q = C·V` in coulombs — the conserved quantity when
    /// banks are connected in parallel.
    #[must_use]
    pub fn charge(&self) -> f64 {
        self.capacitance().get() * self.voltage().get()
    }

    /// Energy stored above the reference voltage `bottom`.
    #[must_use]
    pub fn energy_above(&self, bottom: Volts) -> Joules {
        self.capacitance().energy_between(self.voltage(), bottom)
    }

    /// Applies leakage decay over an idle interval.
    pub fn apply_leakage(&mut self, dt: SimDuration) {
        let v = capacitor::leak(self.capacitance(), self.voltage(), self.leakage(), dt);
        self.state.set_voltage(v);
    }

    /// Visits this bank's steady state: its charge state (see
    /// [`CapacitorState::steady_state`]; `wear` says whether a wear
    /// model turns cycle counts into deratings, `leaking` whether the
    /// voltage is replayed rather than keyed) and its derating bits.
    /// Name and members are fixed at build, and the constants derive
    /// from them and the derating.
    pub fn steady_state(&mut self, wear: bool, leaking: bool, c: &mut Cycle<'_>) {
        let Self {
            name: _,
            members: _,
            state,
            cap_derate,
            esr_scale,
            constants: _,
        } = self;
        state.steady_state(wear, leaking, c);
        c.bits(*cap_derate);
        c.bits(*esr_scale);
    }
}

/// Incremental builder for [`Bank`] (§C-BUILDER).
#[derive(Debug)]
pub struct BankBuilder {
    name: &'static str,
    members: Vec<CapacitorSpec>,
}

impl BankBuilder {
    /// Adds one capacitor to the parallel group.
    #[must_use]
    pub fn with(mut self, spec: CapacitorSpec) -> Self {
        self.members.push(spec);
        self
    }

    /// Adds `n` copies of a capacitor to the parallel group.
    #[must_use]
    pub fn with_n(mut self, spec: CapacitorSpec, n: usize) -> Self {
        for _ in 0..n {
            self.members.push(spec.clone());
        }
        self
    }

    /// Finishes the bank, initially fully discharged.
    ///
    /// # Panics
    ///
    /// Panics if no capacitors were added.
    #[must_use]
    pub fn build(self) -> Bank {
        assert!(
            !self.members.is_empty(),
            "a bank must contain at least one capacitor"
        );
        Bank {
            name: self.name,
            constants: BankConstants::derive(&self.members, 1.0, 1.0),
            members: self.members,
            state: CapacitorState::empty(),
            cap_derate: 1.0,
            esr_scale: 1.0,
        }
    }
}

/// Merges the charge of several parallel-connected banks onto a common
/// voltage: `V = ΣQᵢ / ΣCᵢ`. Charge is conserved; energy is not (the
/// resistive redistribution loss when closing a switch between banks at
/// different voltages).
///
/// Returns the common voltage; callers apply it to each participating bank.
#[must_use]
pub fn share_charge(banks: &[&Bank]) -> Volts {
    let total_c: f64 = banks.iter().map(|b| b.capacitance().get()).sum();
    if total_c <= 0.0 {
        return Volts::ZERO;
    }
    let total_q: f64 = banks.iter().map(|b| b.charge()).sum();
    Volts::new(total_q / total_c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technology::parts;
    use capy_units::rng::DetRng;

    fn small_bank() -> Bank {
        Bank::builder("small")
            .with(parts::ceramic_x5r_400uf())
            .with(parts::tantalum_330uf())
            .build()
    }

    #[test]
    fn capacitance_sums_members() {
        assert!((small_bank().capacitance().as_micro() - 730.0).abs() < 1e-6);
    }

    #[test]
    fn esr_combines_in_parallel() {
        let bank = Bank::builder("pair")
            .with_n(parts::edlc_cph3225a(), 2)
            .build();
        assert!((bank.esr().get() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn rated_voltage_is_weakest_member() {
        let bank = Bank::builder("mixed")
            .with(parts::ceramic_x5r_100uf()) // 6.3 V
            .with(parts::edlc_cph3225a()) // 3.3 V
            .build();
        assert_eq!(bank.rated_voltage(), Volts::new(3.3));
    }

    #[test]
    fn set_voltage_clamps_to_rating() {
        let mut bank = Bank::builder("edlc").with(parts::edlc_cph3225a()).build();
        bank.set_voltage(Volts::new(9.0));
        assert_eq!(bank.voltage(), Volts::new(3.3));
        bank.set_voltage(Volts::new(-2.0));
        assert_eq!(bank.voltage(), Volts::ZERO);
    }

    #[test]
    fn leakage_decay_applies() {
        let mut bank = small_bank();
        bank.set_voltage(Volts::new(2.8));
        bank.apply_leakage(SimDuration::from_secs(60));
        assert!(bank.voltage() < Volts::new(2.8));
        assert!(bank.voltage() > Volts::new(2.0));
    }

    #[test]
    #[should_panic(expected = "at least one capacitor")]
    fn empty_bank_rejected() {
        let _ = Bank::builder("empty").build();
    }

    #[test]
    fn charge_sharing_conserves_charge() {
        let mut a = Bank::builder("a").with(parts::ceramic_x5r_100uf()).build();
        let mut b = Bank::builder("b").with(parts::tantalum_330uf()).build();
        a.set_voltage(Volts::new(2.8));
        b.set_voltage(Volts::new(1.0));
        let q_before = a.charge() + b.charge();
        let v = share_charge(&[&a, &b]);
        a.set_voltage(v);
        b.set_voltage(v);
        let q_after = a.charge() + b.charge();
        assert!((q_before - q_after).abs() < 1e-12);
        // Final voltage lies between the inputs.
        assert!(v > Volts::new(1.0) && v < Volts::new(2.8));
    }

    #[test]
    fn charge_sharing_loses_energy() {
        let mut a = Bank::builder("a").with(parts::ceramic_x5r_100uf()).build();
        let mut b = Bank::builder("b").with(parts::ceramic_x5r_100uf()).build();
        a.set_voltage(Volts::new(2.8));
        b.set_voltage(Volts::ZERO);
        let e_before = a.energy_above(Volts::ZERO) + b.energy_above(Volts::ZERO);
        let v = share_charge(&[&a, &b]);
        a.set_voltage(v);
        b.set_voltage(v);
        let e_after = a.energy_above(Volts::ZERO) + b.energy_above(Volts::ZERO);
        // Equal caps: half the energy is dissipated in the interconnect.
        assert!((e_after.get() - e_before.get() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn derating_scales_capacitance_and_esr_conserving_charge() {
        let mut bank = Bank::builder("edlc").with(parts::edlc_cph3225a()).build();
        bank.set_voltage(Volts::new(2.0));
        let q_before = bank.charge();
        let esr_before = bank.esr();
        bank.set_derating(0.8, 2.0);
        assert!((bank.capacitance().get() - 0.8 * bank.nominal_capacitance().get()).abs() < 1e-15);
        assert!((bank.esr().get() - 2.0 * esr_before.get()).abs() < 1e-12);
        // Q = C·V conserved: voltage rises as capacitance fades.
        assert!((bank.charge() - q_before).abs() < 1e-12);
        assert!(bank.voltage() > Volts::new(2.0));
    }

    #[test]
    fn derating_clamps_to_physical_ranges() {
        let mut bank = Bank::builder("edlc").with(parts::edlc_cph3225a()).build();
        bank.set_voltage(Volts::new(1.0));
        bank.set_derating(-0.5, 0.1);
        assert_eq!(bank.derating(), (0.0, 1.0));
        // Fully dead bank: no capacitance, no stored charge.
        assert_eq!(bank.capacitance().get(), 0.0);
        assert_eq!(bank.voltage(), Volts::ZERO);
    }

    /// Asserts that the stored constants equal a recomputation from
    /// `members()` and `derating()`, bit for bit, summing in member order
    /// exactly as the accessors did before the constants were stored.
    fn assert_constants_fresh(bank: &Bank) {
        let (cap_derate, esr_scale) = bank.derating();
        let members = bank.members();
        let nominal: Farads = members.iter().map(CapacitorSpec::capacitance).sum();
        let mut inv = 0.0f64;
        let mut shorted = false;
        for m in members {
            let r = m.esr().get();
            if r <= 0.0 {
                shorted = true;
                break;
            }
            inv += 1.0 / r;
        }
        let esr = if shorted || inv == 0.0 {
            0.0
        } else {
            esr_scale / inv
        };
        let leakage: Amps = members.iter().map(CapacitorSpec::leakage).sum();
        let rated = members
            .iter()
            .map(CapacitorSpec::rated_voltage)
            .fold(Volts::new(f64::INFINITY), Volts::min);
        let pairs = [
            (
                "capacitance",
                bank.capacitance().get(),
                nominal.get() * cap_derate,
            ),
            ("esr", bank.esr().get(), esr),
            ("leakage", bank.leakage().get(), leakage.get()),
            ("rated_voltage", bank.rated_voltage().get(), rated.get()),
        ];
        for (what, stored, fresh) in pairs {
            assert_eq!(
                stored.to_bits(),
                fresh.to_bits(),
                "{}: stored {what} {stored} != recomputed {fresh}",
                bank.name()
            );
        }
    }

    fn random_bank(rng: &mut DetRng) -> Bank {
        let catalog = [
            parts::ceramic_x5r_22uf,
            parts::ceramic_x5r_100uf,
            parts::ceramic_x5r_400uf,
            parts::tantalum_100uf,
            parts::tantalum_1000uf,
            parts::edlc_cph3225a,
            parts::edlc_7_5mf,
            parts::edlc_22_5mf,
        ];
        let mut builder = Bank::builder("random");
        for _ in 0..rng.gen_range(1..4usize) {
            let part = catalog[rng.gen_range(0..catalog.len())]();
            builder = builder.with_n(part, rng.gen_range(1..4usize));
        }
        builder.build()
    }

    #[test]
    fn prop_stored_constants_track_every_derating_route() {
        use crate::harvester::ConstantHarvester;
        use crate::lifetime::WearModel;
        use crate::switch::SwitchKind;
        use crate::system::{HardwareFault, PowerSystem};
        use capy_units::{SimTime, Watts};

        let mut rng = DetRng::seed_from_u64(0xc0457);
        let mut worn = 0;
        for _ in 0..64 {
            // Build, then `set_derating` directly (out-of-range factors
            // exercise its clamps).
            let mut bank = random_bank(&mut rng);
            assert_constants_fresh(&bank);
            bank.set_voltage(Volts::new(rng.gen_range(0.0..3.3)));
            bank.set_derating(rng.gen_range(-0.2..1.2), rng.gen_range(0.5..3.0));
            assert_constants_fresh(&bank);

            // The power-system routes: wear carried into a leg, the wear
            // model inside `charge_until`, and an injected fault.
            let mut sys = PowerSystem::builder()
                .harvester(ConstantHarvester::new(
                    Watts::from_milli(10.0),
                    Volts::new(3.0),
                ))
                .bank(random_bank(&mut rng), SwitchKind::NormallyClosed)
                .bank(random_bank(&mut rng), SwitchKind::NormallyClosed)
                .build();
            let check = |sys: &PowerSystem<ConstantHarvester>| {
                for i in 0..sys.bank_count() {
                    assert_constants_fresh(sys.bank(BankId(i)).expect("in range"));
                }
            };
            sys.set_wear_model(Some(WearModel::prototype()));
            sys.seed_wear(&[rng.gen_range(0..400_000u64), rng.gen_range(0..400_000u64)]);
            check(&sys);
            let before: Vec<_> = (0..2)
                .map(|i| sys.bank(BankId(i)).expect("in range").derating())
                .collect();
            let mut now = SimTime::ZERO;
            sys.charge_until_full(&mut now).expect("charges");
            check(&sys);
            worn += (0..2)
                .filter(|&i| sys.bank(BankId(i)).expect("in range").derating() != before[i])
                .count();
            let fault = HardwareFault::BankDegraded {
                bank: BankId(rng.gen_range(0..2usize)),
                cap_derate: rng.gen_range(0.0..1.0),
                esr_scale: rng.gen_range(1.0..4.0),
            };
            sys.inject_fault(fault, now).expect("bank in range");
            check(&sys);
        }
        assert!(
            worn > 0,
            "the charge_until wear route never moved a derating"
        );
    }

    #[test]
    fn display_of_bank_id() {
        assert_eq!(BankId(2).to_string(), "bank2");
    }

    #[test]
    fn prop_share_charge_bounded_by_extremes() {
        let mut rng = DetRng::seed_from_u64(0xba7c0);
        for _ in 0..256 {
            let (v1, v2) = (rng.gen_range(0.0f64..3.3), rng.gen_range(0.0f64..3.3));
            let mut a = Bank::builder("a").with(parts::edlc_cph3225a()).build();
            let mut b = Bank::builder("b").with(parts::ceramic_x5r_100uf()).build();
            a.set_voltage(Volts::new(v1));
            b.set_voltage(Volts::new(v2));
            let v = share_charge(&[&a, &b]);
            let lo = v1.min(v2);
            let hi = v1.max(v2);
            assert!(v.get() >= lo - 1e-12 && v.get() <= hi + 1e-12);
        }
    }

    #[test]
    fn prop_share_charge_never_gains_energy() {
        let mut rng = DetRng::seed_from_u64(0xba7c1);
        for _ in 0..256 {
            let (v1, v2) = (rng.gen_range(0.0f64..3.3), rng.gen_range(0.0f64..3.3));
            let mut a = Bank::builder("a").with(parts::edlc_7_5mf()).build();
            let mut b = Bank::builder("b").with(parts::tantalum_1000uf()).build();
            a.set_voltage(Volts::new(v1));
            b.set_voltage(Volts::new(v2));
            let e_before = a.energy_above(Volts::ZERO) + b.energy_above(Volts::ZERO);
            let v = share_charge(&[&a, &b]);
            a.set_voltage(v);
            b.set_voltage(v);
            let e_after = a.energy_above(Volts::ZERO) + b.energy_above(Volts::ZERO);
            assert!(e_after.get() <= e_before.get() + 1e-12);
        }
    }
}
