//! The composed reconfigurable power system (Figure 6(a)): harvester →
//! limiter → input booster (with bypass) → switched capacitor-bank array →
//! output booster → load.
//!
//! [`PowerSystem`] owns the bank array and the distribution circuits and
//! provides the three primitive operations the device simulator is built
//! from:
//!
//! * [`PowerSystem::charge_until`] — advance simulated time while the
//!   harvester charges the *connected* banks to a target voltage, in
//!   closed form per piecewise-constant segment;
//! * [`PowerSystem::draw`] — drain a constant load through the output
//!   booster, detecting brown-out (intermittent power failure);
//! * [`PowerSystem::idle`] — let everything leak while the device is off
//!   and the harvester is dark.
//!
//! All three maintain the parallel-connection invariant: every bank whose
//! switch is closed shares one rail voltage, with charge-conserving (and
//! therefore lossy) redistribution whenever the closed set changes —
//! including implicit changes when an unpowered switch's latch decays.

use capy_units::cycle::Cycle;
use capy_units::{Farads, Joules, Ohms, SimDuration, SimTime, Volts, Watts};

use crate::bank::{Bank, BankId};
use crate::booster::{Bypass, ChargeRegime, InputBooster, OutputBooster, VoltageLimiter};
use crate::capacitor::{self, Discharge};
use crate::harvester::Harvester;
use crate::lifetime::{bank_wear, WearModel};
use crate::switch::{BankSwitch, SwitchFault, SwitchKind, SwitchState};
use crate::PowerError;

/// A hardware fault that can strike the power system, either injected
/// immediately or scheduled for a future instant. Faults are first-class
/// simulated physics: once applied they persist and every subsequent
/// operation observes their effects, while the MCU keeps issuing commands
/// that silently stop working (§5.2 — switch state is unobservable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HardwareFault {
    /// The named bank's switch suffers a channel/latch fault.
    Switch {
        /// Which bank's switch fails.
        bank: BankId,
        /// The failure mode.
        fault: SwitchFault,
    },
    /// The named bank's capacitors degrade: effective capacitance becomes
    /// `cap_derate ×` nominal and ESR grows by `esr_scale ×` (a dead bank
    /// is `cap_derate = 0.0`).
    BankDegraded {
        /// Which bank degrades.
        bank: BankId,
        /// Remaining capacitance fraction, `[0, 1]`.
        cap_derate: f64,
        /// ESR growth factor, `>= 1`.
        esr_scale: f64,
    },
}

/// Result of a charging operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChargeOutcome {
    /// The target voltage was reached after the given span.
    Reached(SimDuration),
    /// Charging stalled (no usable input power) at the given rail voltage.
    Stalled(Volts),
}

impl ChargeOutcome {
    /// The elapsed charging time, if the target was reached.
    #[must_use]
    pub fn elapsed(self) -> Option<SimDuration> {
        match self {
            ChargeOutcome::Reached(d) => Some(d),
            ChargeOutcome::Stalled(_) => None,
        }
    }
}

/// Result of a load-draw operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DrawOutcome {
    /// The load ran for the full requested duration.
    Complete,
    /// The rail browned out after the given span — an intermittent power
    /// failure.
    Failed(SimDuration),
}

impl DrawOutcome {
    /// `true` when the load ran to completion.
    #[must_use]
    pub fn is_complete(self) -> bool {
        matches!(self, DrawOutcome::Complete)
    }

    /// The span survived before failure, or `None` if complete.
    #[must_use]
    pub fn failed_after(self) -> Option<SimDuration> {
        match self {
            DrawOutcome::Complete => None,
            DrawOutcome::Failed(d) => Some(d),
        }
    }
}

/// Derived rail quantities that are a pure function of the bank specs,
/// their deratings, and the closed switch set — not of rail voltage or
/// time. Invalidated on any closed-set change, hardware fault, or wear
/// derating (see DESIGN.md, "Kernel memoization").
#[derive(Debug, Clone, Copy)]
struct RailDerived {
    capacitance: Farads,
    esr: Ohms,
    /// Σ bank leakage current over the closed set, in amps.
    leak_current: f64,
    full_voltage: Volts,
}

impl RailDerived {
    /// The raw bits of every field, for exact cache-hit checks.
    fn bits(self) -> [u64; 4] {
        [
            self.capacitance.get().to_bits(),
            self.esr.get().to_bits(),
            self.leak_current.to_bits(),
            self.full_voltage.get().to_bits(),
        ]
    }
}

/// A complete Capybara-style power system.
///
/// See the [crate-level example](crate) for typical construction and use.
#[derive(Debug, Clone)]
pub struct PowerSystem<H> {
    harvester: H,
    limiter: VoltageLimiter,
    input_booster: InputBooster,
    bypass: Option<Bypass>,
    output_booster: OutputBooster,
    banks: Vec<Slot>,
    /// Cached closed set used to detect implicit reconfiguration (latch
    /// decay) between operations. It holds the switch states at
    /// `synced_at`, and kernel work at that instant reads it instead of
    /// re-evaluating every latch.
    closed_cache: Vec<bool>,
    /// The instant of the last [`PowerSystem::sync`].
    synced_at: SimTime,
    /// Cumulative energy delivered to loads, for efficiency accounting.
    delivered: Joules,
    /// While the run that skips cycles is taping, what its jumps replay
    /// (see [`PowerSystem::mark_tape`]).
    tape: Option<SkipTape>,
    /// How many `sync`s have run: the clock a [`TapeMark`] reads.
    syncs: u64,
    /// The `syncs` reading from which banks are watched for leaking (see
    /// [`PowerSystem::watch_leaks`]).
    watch: u64,
    /// Faults scheduled to strike at a future instant; applied (and
    /// drained) by [`PowerSystem::sync`] once their time arrives.
    pending_faults: Vec<(SimTime, HardwareFault)>,
    /// When set, deep-discharge cycles recorded by `charge_until` feed the
    /// wear model, continuously derating worn banks.
    wear_model: Option<WearModel>,
    /// Extra rail voltage required above the booster's startup threshold
    /// before a cold boot succeeds (brownout-prone supervisors).
    startup_margin: Volts,
    /// Cached derived rail quantities (`None` = recompute on next use).
    rail_derived: Option<RailDerived>,
    /// Cumulative analytic charge segments integrated by `charge_until`,
    /// for O(1)-segment assertions and bench reporting.
    charge_segments: u64,
}

#[derive(Debug, Clone)]
struct Slot {
    bank: Bank,
    switch: BankSwitch,
    /// The `syncs` reading of the last `sync` that found the bank closed
    /// (zero: none has). A bank that is open and was not found closed
    /// since the watch began is *leaking*: only leaks have touched its
    /// voltage since.
    closed_at: u64,
}

impl Slot {
    fn new(bank: Bank, switch: BankSwitch) -> Self {
        Self {
            bank,
            switch,
            closed_at: 0,
        }
    }

    /// Whether only leaks have touched this bank's voltage since the
    /// watch that began at `watch`, and it is still open at `now`.
    fn leaking(&self, watch: u64, now: SimTime) -> bool {
        self.closed_at <= watch && !self.switch.state(now).is_closed()
    }
}

/// A point on a power system's skip tape ([`PowerSystem::mark_tape`]):
/// where the tape stood, and the `sync` count a leak watch from there
/// starts at ([`PowerSystem::watch_leaks`]). It stays valid while the
/// tape reaches back to it ([`PowerSystem::tape_from`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapeMark {
    at: TapePos,
    syncs: u64,
}

/// A position on a tape: how many deliveries, step ends and leaks it
/// had taken by then, counted from its start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TapePos {
    deliveries: usize,
    step_ends: usize,
    leaks: usize,
}

/// What jumps replay instead of matching by key: every addition to the
/// delivered-energy total, where each step's additions end, and the
/// interval of every leak, each in order, from the oldest mark a jump
/// may still replay from.
#[derive(Debug, Clone, Default)]
struct SkipTape {
    deliveries: Vec<Joules>,
    /// The delivery count, from the tape's start, after each step.
    step_ends: Vec<usize>,
    leaks: Vec<SimDuration>,
    /// The position of the first entry kept.
    front: TapePos,
}

impl SkipTape {
    /// The position after the last entry.
    fn end(&self) -> TapePos {
        TapePos {
            deliveries: self.front.deliveries + self.deliveries.len(),
            step_ends: self.front.step_ends + self.step_ends.len(),
            leaks: self.front.leaks + self.leaks.len(),
        }
    }

    /// Where `pos` lies in the kept entries.
    fn index(&self, pos: TapePos) -> TapePos {
        TapePos {
            deliveries: pos.deliveries - self.front.deliveries,
            step_ends: pos.step_ends - self.front.step_ends,
            leaks: pos.leaks - self.front.leaks,
        }
    }
}

/// Builder for [`PowerSystem`] (§C-BUILDER).
#[derive(Debug)]
pub struct PowerSystemBuilder<H> {
    harvester: Option<H>,
    bypass: Option<Bypass>,
    output_booster: OutputBooster,
    banks: Vec<Slot>,
}

impl<H: Harvester> PowerSystem<H> {
    /// Starts building a power system with prototype distribution circuits.
    #[must_use]
    pub fn builder() -> PowerSystemBuilder<H> {
        PowerSystemBuilder {
            harvester: None,
            bypass: Some(Bypass::prototype()),
            output_booster: OutputBooster::prototype(),
            banks: Vec::new(),
        }
    }

    /// The output booster configuration.
    #[must_use]
    pub fn output_booster(&self) -> &OutputBooster {
        &self.output_booster
    }

    /// The harvester driving this system.
    #[must_use]
    pub fn harvester(&self) -> &H {
        &self.harvester
    }

    /// Mutable access to the harvester (e.g. to vary solar irradiance).
    pub fn harvester_mut(&mut self) -> &mut H {
        &mut self.harvester
    }

    /// Number of banks in the array.
    #[must_use]
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// The bank at `id`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::UnknownBank`] for an out-of-range id.
    pub fn bank(&self, id: BankId) -> Result<&Bank, PowerError> {
        self.banks
            .get(id.0)
            .map(|s| &s.bank)
            .ok_or(PowerError::UnknownBank { index: id.0 })
    }

    /// The switch guarding bank `id`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::UnknownBank`] for an out-of-range id.
    pub fn switch(&self, id: BankId) -> Result<&BankSwitch, PowerError> {
        self.banks
            .get(id.0)
            .map(|s| &s.switch)
            .ok_or(PowerError::UnknownBank { index: id.0 })
    }

    /// Commands the switch of bank `id` at `now`, then re-equalizes the
    /// closed set (closing a switch onto a rail at a different voltage
    /// redistributes charge).
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::UnknownBank`] for an out-of-range id.
    pub fn command_switch(
        &mut self,
        id: BankId,
        state: SwitchState,
        now: SimTime,
    ) -> Result<(), PowerError> {
        let slot = self
            .banks
            .get_mut(id.0)
            .ok_or(PowerError::UnknownBank { index: id.0 })?;
        slot.switch.command(state, now);
        self.sync(now);
        Ok(())
    }

    /// Tops up every switch latch; call whenever the device is powered.
    pub fn refresh_switches(&mut self, now: SimTime) {
        for slot in &mut self.banks {
            slot.switch.refresh(now);
        }
    }

    /// Applies a hardware fault right now.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::UnknownBank`] when the fault names an
    /// out-of-range bank.
    pub fn inject_fault(&mut self, fault: HardwareFault, now: SimTime) -> Result<(), PowerError> {
        let bank = match fault {
            HardwareFault::Switch { bank, .. } | HardwareFault::BankDegraded { bank, .. } => bank,
        };
        if bank.0 >= self.banks.len() {
            return Err(PowerError::UnknownBank { index: bank.0 });
        }
        self.apply_fault(fault);
        self.sync(now);
        Ok(())
    }

    /// Schedules a hardware fault to strike at `at`; it is applied by the
    /// first operation whose `sync` sees `now >= at` (fault application is
    /// part of the simulated physics, not a test-harness callback).
    pub fn schedule_fault(&mut self, at: SimTime, fault: HardwareFault) {
        self.pending_faults.push((at, fault));
    }

    /// Installs (or removes) the wear model that maps recorded
    /// deep-discharge cycles to capacitance fade and ESR growth.
    pub fn set_wear_model(&mut self, model: Option<WearModel>) {
        self.wear_model = model;
    }

    /// Seeds per-bank lifetime cycle counts from an earlier mission leg
    /// (wear carryover): bank `i` resumes with `cycles[i]` deep cycles
    /// already on the clock. When a wear model is installed the
    /// electrical derating implied by the seeded count is applied
    /// immediately, so the leg starts on aged capacitors rather than
    /// discovering the wear at its first deep cycle. Extra entries
    /// beyond the bank count are ignored; missing entries leave the
    /// bank untouched.
    pub fn seed_wear(&mut self, cycles: &[u64]) {
        let model = self.wear_model;
        for (slot, &n) in self.banks.iter_mut().zip(cycles) {
            slot.bank.seed_cycles(n);
            if let Some(model) = model {
                let (cap, esr) = model.derating(&bank_wear(&slot.bank));
                slot.bank.set_derating(cap, esr);
            }
        }
        // Deratings may have moved; the derived rail cache is stale.
        self.rail_derived = None;
    }

    /// Requires `margin` extra rail voltage above the output booster's
    /// startup threshold before [`PowerSystem::can_boot`] reports true
    /// (models cold-start brownout on marginal supervisors).
    pub fn set_startup_margin(&mut self, margin: Volts) {
        self.startup_margin = margin.max(Volts::ZERO);
    }

    /// Cumulative number of analytic segments integrated by
    /// [`PowerSystem::charge_until`] since construction. Crossing a long
    /// constant-harvest interval must cost O(1) segments, not
    /// O(duration) — tests pin this.
    #[must_use]
    pub fn charge_segments(&self) -> u64 {
        self.charge_segments
    }

    /// Indices of banks whose switches are effectively closed at `now`.
    #[must_use]
    pub fn closed_banks(&self, now: SimTime) -> Vec<BankId> {
        self.banks
            .iter()
            .enumerate()
            .filter(|(_, s)| s.switch.state(now).is_closed())
            .map(|(i, _)| BankId(i))
            .collect()
    }

    /// Total capacitance currently on the rail.
    #[must_use]
    pub fn rail_capacitance(&self, now: SimTime) -> Farads {
        capacitance_of(self.closed_slots(now))
    }

    /// Combined ESR of the rail (parallel combination of closed banks).
    #[must_use]
    pub fn rail_esr(&self, now: SimTime) -> Ohms {
        esr_of(self.closed_slots(now))
    }

    /// The shared rail voltage (zero when no bank is connected).
    ///
    /// Callers should have invoked an operation (or [`PowerSystem::sync`])
    /// at `now` so the closed set is equalized.
    #[must_use]
    pub fn rail_voltage(&self, now: SimTime) -> Volts {
        voltage_of(self.closed_slots(now))
    }

    /// The "full" voltage for the current configuration: the limiter clamp
    /// or the weakest connected bank rating, whichever is lower.
    #[must_use]
    pub fn full_voltage(&self, now: SimTime) -> Volts {
        self.limiter.clamp().min(rating_of(self.closed_slots(now)))
    }

    /// Cumulative energy delivered to loads since construction.
    #[must_use]
    pub fn energy_delivered(&self) -> Joules {
        self.delivered
    }

    /// Reconciles implicit switch-state changes (latch decay), applies any
    /// scheduled hardware faults whose time has come, and equalizes the
    /// closed set at `now`.
    pub fn sync(&mut self, now: SimTime) {
        if !self.pending_faults.is_empty() {
            let mut due: Vec<HardwareFault> = Vec::new();
            self.pending_faults.retain(|&(at, fault)| {
                if at <= now {
                    due.push(fault);
                    false
                } else {
                    true
                }
            });
            for fault in due {
                self.apply_fault(fault);
            }
        }
        // In-place closed-set comparison: `sync` runs on every kernel
        // operation, so it must not allocate.
        let mut changed = false;
        self.syncs += 1;
        for i in 0..self.banks.len() {
            let slot = &mut self.banks[i];
            let closed = slot.switch.state(now).is_closed();
            if closed {
                slot.closed_at = self.syncs;
            }
            if self.closed_cache[i] != closed {
                self.closed_cache[i] = closed;
                changed = true;
            }
        }
        if changed {
            self.rail_derived = None;
        }
        self.synced_at = now;
        self.equalize(now);
    }

    /// Charges the connected banks until the rail reaches `target` (clamped
    /// to [`PowerSystem::full_voltage`]), advancing `now`.
    ///
    /// Integration is exact within each piecewise-constant segment;
    /// segments break at harvester changes, charging-regime boundaries
    /// (bypass ceiling, cold-start threshold), and latch-decay instants —
    /// the device is unpowered while charging, so commanded switch states
    /// may be lost mid-charge, implicitly reconfiguring the rail (§5.2).
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::NoActiveBank`] when no switch is closed, and
    /// [`PowerError::SegmentBudgetExhausted`] if the defensive segment
    /// bound runs out before the target or a stall is reached (a kernel
    /// regression, not a physical condition).
    pub fn charge_until(
        &mut self,
        target: Volts,
        now: &mut SimTime,
    ) -> Result<ChargeOutcome, PowerError> {
        self.sync(*now);
        if !self.closed_cache.contains(&true) {
            return Err(PowerError::NoActiveBank);
        }
        let start = *now;
        let target = target.min(self.synced_full_voltage(*now));
        // Wear accounting: recharging a deeply-discharged bank completes
        // one charge-discharge cycle (relevant to EDLC lifetime, §5.2).
        if self.synced_rail_voltage(*now) < target * 0.6 {
            let wear_model = self.wear_model;
            for bank in self.synced_banks_mut(*now) {
                if bank.voltage() < target * 0.6 {
                    bank.record_cycle();
                    // Wear is physics, not bookkeeping: each deep cycle
                    // immediately fades capacitance and grows ESR.
                    if let Some(model) = wear_model {
                        let (cap, esr) = model.derating(&bank_wear(bank));
                        bank.set_derating(cap, esr);
                    }
                }
            }
            // Deratings may have moved; the derived cache is stale.
            self.rail_derived = None;
        }
        // Bound the number of analytic segments defensively; real runs use
        // a handful.
        for _ in 0..100_000 {
            self.sync(*now);
            let v = self.synced_rail_voltage(*now);
            if v >= target {
                return Ok(ChargeOutcome::Reached(*now - start));
            }
            self.charge_segments += 1;
            let derived = self.rail_derived_at(*now);
            let c = derived.capacitance;
            if c.get() <= 0.0 {
                return Err(PowerError::NoActiveBank);
            }

            let p_raw = self.harvester.power_at(*now);
            let hv = self.harvester.open_voltage(*now);
            let (p_charge, regime) =
                self.input_booster
                    .charge_power(p_raw, v, self.bypass.as_ref(), hv);
            let p_net = p_charge - Watts::new(v.get() * derived.leak_current);
            if p_net.get() <= 0.0 {
                // Stalled in this segment; if the harvester will change,
                // leak until then and retry, otherwise report the stall.
                let until = self.harvester.valid_until(*now);
                if until == SimTime::MAX {
                    return Ok(ChargeOutcome::Stalled(v));
                }
                let dt = until - *now;
                self.leak_all(dt);
                *now = until;
                continue;
            }

            // Segment milestone: the lowest voltage boundary above v.
            let mut milestone = target;
            if regime == ChargeRegime::Bypass {
                if let Some(bp) = &self.bypass {
                    let ceiling = bp
                        .ceiling(hv)
                        .min(self.input_booster.cold_start_threshold());
                    if ceiling > v {
                        milestone = milestone.min(ceiling);
                    }
                }
            } else if regime == ChargeRegime::ColdStart {
                let thr = self.input_booster.cold_start_threshold();
                if thr > v {
                    milestone = milestone.min(thr);
                }
            }
            // Epsilon past the boundary so the regime flips next iteration.
            let t_to_milestone = capacitor::time_to_charge(c, v, milestone, p_net)
                .saturating_add(SimDuration::from_micros(1));
            let seg_end = self
                .harvester
                .valid_until(*now)
                .min(self.next_latch_decay(*now))
                .min(now.saturating_add(t_to_milestone));
            let dt = seg_end
                .saturating_since(*now)
                .max(SimDuration::from_micros(1));

            let v_new = capacitor::voltage_after_charge(c, v, p_net, dt).min(milestone);
            self.set_rail_voltage(*now, v_new);
            self.leak_open(dt, *now);
            *now = now.saturating_add(dt);
        }
        // Distinct from a genuine stall: a skip-ahead regression must not
        // masquerade as "no input power".
        Err(PowerError::SegmentBudgetExhausted { at: *now })
    }

    /// Charges until the configuration's full voltage.
    ///
    /// # Errors
    ///
    /// As [`PowerSystem::charge_until`]; additionally maps a stall to
    /// [`PowerError::NoInputPower`].
    pub fn charge_until_full(&mut self, now: &mut SimTime) -> Result<SimDuration, PowerError> {
        let target = {
            self.sync(*now);
            self.synced_full_voltage(*now)
        };
        match self.charge_until(target, now)? {
            ChargeOutcome::Reached(d) => Ok(d),
            ChargeOutcome::Stalled(_) => Err(PowerError::NoInputPower { at: *now }),
        }
    }

    /// Draws `load` at the regulated output for `duration`, advancing
    /// `now`. While drawing, the device is powered, so switch latches are
    /// refreshed. Harvested input during operation is ignored: "charging is
    /// negligible during operation" (§2).
    ///
    /// Browns out — returning [`DrawOutcome::Failed`] — when the rail
    /// terminal voltage (after ESR droop) crosses the output booster's
    /// operating minimum.
    pub fn draw(&mut self, load: Watts, duration: SimDuration, now: &mut SimTime) -> DrawOutcome {
        self.sync(*now);
        let derived = self.rail_derived_at(*now);
        let c = derived.capacitance;
        if c.get() <= 0.0 {
            return DrawOutcome::Failed(SimDuration::ZERO);
        }
        let esr = derived.esr;
        let v0 = self.synced_rail_voltage(*now);
        let p_in = self.output_booster.input_power_for(load);
        let v_min = self.output_booster.min_operating_voltage();

        let out = capacitor::discharge(c, esr, v0, p_in, v_min, duration);
        let (survived, v_end, outcome) = match out {
            Discharge::Sustained(v) => (duration, v, DrawOutcome::Complete),
            Discharge::Failed(t, v) => (t, v, DrawOutcome::Failed(t)),
        };
        self.set_rail_voltage(*now, v_end);
        self.leak_open(survived, *now);
        *now = now.saturating_add(survived);
        self.refresh_switches(*now);
        self.deliver(load * survived);
        outcome
    }

    /// Like [`PowerSystem::draw`], but models concurrent harvesting: the
    /// input booster keeps feeding the rail while the load runs, so the
    /// effective drain is the load minus the harvested contribution. This
    /// relaxes the paper's "charging is negligible during operation"
    /// simplification (§2) for platforms where load and harvest are of the
    /// same order (the CC2650 at ~9 mW under the 10 mW bench harvester).
    pub fn draw_with_harvesting(
        &mut self,
        load: Watts,
        duration: SimDuration,
        now: &mut SimTime,
    ) -> DrawOutcome {
        self.sync(*now);
        let derived = self.rail_derived_at(*now);
        let c = derived.capacitance;
        if c.get() <= 0.0 {
            return DrawOutcome::Failed(SimDuration::ZERO);
        }
        let esr = derived.esr;
        let v0 = self.synced_rail_voltage(*now);
        let p_load = self.output_booster.input_power_for(load);
        let p_raw = self.harvester.power_at(*now);
        let hv = self.harvester.open_voltage(*now);
        let (p_charge, _) = self
            .input_booster
            .charge_power(p_raw, v0, self.bypass.as_ref(), hv);
        let v_min = self.output_booster.min_operating_voltage();

        let (survived, v_end, outcome) = if p_charge >= p_load {
            // Net surplus: the rail holds or climbs toward full.
            let v = capacitor::voltage_after_charge(c, v0, p_charge - p_load, duration)
                .min(derived.full_voltage);
            (duration, v, DrawOutcome::Complete)
        } else {
            match capacitor::discharge(c, esr, v0, p_load - p_charge, v_min, duration) {
                Discharge::Sustained(v) => (duration, v, DrawOutcome::Complete),
                Discharge::Failed(t, v) => (t, v, DrawOutcome::Failed(t)),
            }
        };
        self.set_rail_voltage(*now, v_end);
        self.leak_open(survived, *now);
        *now = now.saturating_add(survived);
        self.refresh_switches(*now);
        self.deliver(load * survived);
        outcome
    }

    /// Lets every bank (and latch) decay for `duration` with the device off
    /// and no charging, advancing `now`.
    pub fn idle(&mut self, duration: SimDuration, now: &mut SimTime) {
        self.leak_all(duration);
        *now = now.saturating_add(duration);
        self.sync(*now);
    }

    /// Whether the rail can start the output booster (cold boot condition,
    /// including any configured brownout [`startup
    /// margin`](PowerSystem::set_startup_margin)).
    #[must_use]
    pub fn can_boot(&self, now: SimTime) -> bool {
        self.rail_voltage(now) >= self.output_booster.startup_voltage() + self.startup_margin
    }

    /// Hard power kill: everything connected to the rail is drained to
    /// zero, as if the load shorted the rail at `now`. Banks whose switches
    /// are open keep their charge — only the connected set discharges —
    /// which is exactly what makes adversarial kill-point exploration
    /// interesting for a reconfigurable array.
    pub fn blackout(&mut self, now: SimTime) {
        self.sync(now);
        for bank in self.synced_banks_mut(now) {
            bank.set_voltage(Volts::ZERO);
        }
    }

    // --- steady-state cycles ---------------------------------------------

    /// Visits this power system's steady state at `now` (see
    /// [`capy_units::cycle`]). Every field is one of:
    ///
    /// * **keyed**: each bank and switch, and the number of pending
    ///   faults (a fault that strikes inside a cycle changes it). A
    ///   *leaking* bank, open now and found closed by no `sync` since
    ///   the mark [`PowerSystem::watch_leaks`] watches from, visits its
    ///   voltage bits as replayed: nothing reads an open bank's voltage,
    ///   only leaks move it, and a jump replays those leaks from the tape;
    /// * **an instant**: `synced_at`;
    /// * **an accumulator**: `charge_segments` is a counter, and
    ///   `delivered` is replayed addition by addition from the tape
    ///   ([`PowerSystem::mark_tape`]);
    /// * **an exact cache**: `closed_cache` and `rail_derived`, which
    ///   equal recomputation at any instant;
    /// * **detection only**: the tape, the `sync` count and the leak
    ///   watch, which decide nothing the device does;
    /// * **fixed** during a run: the harvester (whose segments and period
    ///   bound a skip), the distribution circuits, the wear model and the
    ///   startup margin.
    ///
    /// An advance leaves `delivered` and the leaking banks' voltages
    /// alone: replay them first with [`PowerSystem::replay_cycles`],
    /// which decides how many cycles the energy budget allows.
    pub fn steady_state(&mut self, now: SimTime, c: &mut Cycle<'_>) {
        let Self {
            harvester: _,
            limiter: _,
            input_booster: _,
            bypass: _,
            output_booster: _,
            banks,
            closed_cache: _,
            synced_at,
            delivered: _,
            tape: _,
            syncs: _,
            watch,
            pending_faults,
            wear_model,
            startup_margin: _,
            rail_derived: _,
            charge_segments,
        } = self;
        let wear = wear_model.is_some();
        for slot in banks {
            let leaking = slot.leaking(*watch, now);
            let Slot {
                bank,
                switch,
                closed_at: _,
            } = slot;
            bank.steady_state(wear, leaking, c);
            switch.steady_state(now, c);
        }
        c.word(pending_faults.len() as u64);
        c.counter(charge_segments);
        c.instant(synced_at);
    }

    /// The instant until which this hardware lets a cycle that began at
    /// `since` repeat unchanged, as seen at `now`: the earliest pending
    /// fault, and the decay deadline of any latch the cycle did not
    /// refresh (a latch it refreshes decays at the same point of every
    /// repetition, which its keyed age covers). The harvest bounds a
    /// repeat too, by its segment or its period ([`Harvester::period`]);
    /// that is the caller's to add.
    #[must_use]
    pub fn steady_until(&self, now: SimTime, since: SimTime) -> SimTime {
        let faults = self.pending_faults.iter().map(|&(at, _)| at);
        let latches = self
            .banks
            .iter()
            .map(|s| &s.switch)
            .filter(|sw| sw.last_refresh() < since)
            .map(BankSwitch::decay_deadline)
            .filter(|&t| t > now);
        faults.chain(latches).fold(SimTime::MAX, SimTime::min)
    }

    /// Starts taping unless the tape is already running, and marks where
    /// it stands. From then on the tape takes every addition to the
    /// delivered-energy total, every step end ([`PowerSystem::end_taped_step`])
    /// and the interval of every leak, until [`PowerSystem::stop_taping`].
    pub fn mark_tape(&mut self) -> TapeMark {
        let tape = self.tape.get_or_insert_with(SkipTape::default);
        TapeMark {
            at: tape.end(),
            syncs: self.syncs,
        }
    }

    /// Watches for leaking banks from `from`: a bank is *leaking* while
    /// it is open and no `sync` since the mark has found it closed (see
    /// [`PowerSystem::steady_state`]). Keys and
    /// [`PowerSystem::replay_cycles`] read the watch.
    pub fn watch_leaks(&mut self, from: TapeMark) {
        self.watch = from.syncs;
    }

    /// Marks the end of one taped step (nothing when not taping).
    pub fn end_taped_step(&mut self) {
        if let Some(tape) = &mut self.tape {
            tape.step_ends.push(tape.end().deliveries);
        }
    }

    /// How many entries the tape holds from `from` on: deliveries, step
    /// ends and leaks.
    #[must_use]
    pub fn taped_since(&self, from: TapeMark) -> usize {
        let entries = |p: TapePos| p.deliveries + p.step_ends + p.leaks;
        self.tape
            .as_ref()
            .map_or(0, |tape| entries(tape.end()) - entries(from.at))
    }

    /// Drops what the tape holds before `from`; marks at or after it stay
    /// valid.
    pub fn tape_from(&mut self, from: TapeMark) {
        if let Some(tape) = &mut self.tape {
            let drop = tape.index(from.at);
            tape.deliveries.drain(..drop.deliveries);
            tape.step_ends.drain(..drop.step_ends);
            tape.leaks.drain(..drop.leaks);
            tape.front = from.at;
        }
    }

    /// Stops taping and drops the tape.
    pub fn stop_taping(&mut self) {
        self.tape = None;
    }

    /// Appends `times` copies of the tape from `from` on, as if stepping
    /// had taped that many more repetitions of it.
    pub fn repeat_tape(&mut self, from: TapeMark, times: u64) {
        let Some(tape) = &mut self.tape else {
            return;
        };
        let (from, end) = (tape.index(from.at), tape.index(tape.end()));
        let mut shift = 0;
        for _ in 0..times {
            shift += end.deliveries - from.deliveries;
            tape.deliveries
                .extend_from_within(from.deliveries..end.deliveries);
            for i in from.step_ends..end.step_ends {
                let step_end = tape.step_ends[i] + shift;
                tape.step_ends.push(step_end);
            }
            tape.leaks.extend_from_within(from.leaks..end.leaks);
        }
    }

    /// Replays the tape from `from` on, as one cycle, up to `cycles`
    /// times, so every replayed float keeps the bits stepping would give,
    /// and returns the repetitions applied. First the delivered-energy
    /// total: its additions, in order; with a `budget`, a repetition in
    /// which some step would leave the total above it is not applied,
    /// nor any after it, because stepping stops at that step. Then each
    /// bank leaking at `now` (watched from `from` or earlier): the taped
    /// leak intervals, in order, through the same [`capacitor::leak`] as
    /// stepping, once per applied repetition.
    ///
    /// # Panics
    ///
    /// Panics if the power system is not taping.
    pub fn replay_cycles(
        &mut self,
        from: TapeMark,
        cycles: u64,
        now: SimTime,
        budget: Option<Joules>,
    ) -> u64 {
        let tape = self.tape.as_ref().expect("a replay reads the tape");
        let at = tape.index(from.at);
        let mut total = self.delivered;
        let mut applied = cycles;
        'cycles: for done in 0..cycles {
            let mut next = total;
            let mut taken = at.deliveries;
            for &step_end in &tape.step_ends[at.step_ends..] {
                let to = step_end - tape.front.deliveries;
                for &e in &tape.deliveries[taken..to] {
                    next += e;
                }
                taken = to;
                if budget.is_some_and(|max| next > max) {
                    applied = done;
                    break 'cycles;
                }
            }
            total = next;
        }
        self.delivered = total;
        let leaks = &tape.leaks[at.leaks..];
        for slot in &mut self.banks {
            if !slot.leaking(self.watch, now) {
                continue;
            }
            for _ in 0..applied {
                for &dt in leaks {
                    slot.bank.apply_leakage(dt);
                }
                // Leaking never lifts a bank off the 0 V floor.
                if slot.bank.voltage() == Volts::ZERO {
                    break;
                }
            }
        }
        applied
    }

    // --- internals -------------------------------------------------------

    fn deliver(&mut self, energy: Joules) {
        self.delivered += energy;
        if let Some(tape) = &mut self.tape {
            tape.deliveries.push(energy);
        }
    }

    fn apply_fault(&mut self, fault: HardwareFault) {
        // Faults change switch behavior or bank deratings; either way the
        // derived rail quantities are stale.
        self.rail_derived = None;
        match fault {
            HardwareFault::Switch { bank, fault } => {
                if let Some(slot) = self.banks.get_mut(bank.0) {
                    slot.switch.inject_fault(fault);
                }
            }
            HardwareFault::BankDegraded {
                bank,
                cap_derate,
                esr_scale,
            } => {
                if let Some(slot) = self.banks.get_mut(bank.0) {
                    slot.bank.set_derating(cap_derate, esr_scale);
                }
            }
        }
    }

    /// The banks whose switches are closed at `now`, evaluating every
    /// latch — for the public accessors, whose callers may pass any
    /// instant.
    fn closed_slots(&self, now: SimTime) -> impl Iterator<Item = &Slot> {
        self.banks
            .iter()
            .filter(move |s| s.switch.state(now).is_closed())
    }

    /// Kernel work reads the closed set cached by the operation's own
    /// `sync` instead of re-evaluating every latch. That is exact only at
    /// the synced instant: a latch may decay by any later one.
    fn assert_synced(&self, now: SimTime) {
        debug_assert_eq!(
            now, self.synced_at,
            "cached closed set read at {now}, but it was synced at {}",
            self.synced_at
        );
    }

    /// The banks closed at the synced instant `now`.
    fn synced_slots(&self, now: SimTime) -> impl Iterator<Item = &Slot> {
        self.assert_synced(now);
        self.banks
            .iter()
            .zip(&self.closed_cache)
            .filter_map(|(s, &closed)| closed.then_some(s))
    }

    /// Mutable access to the banks closed at the synced instant `now`.
    fn synced_banks_mut(&mut self, now: SimTime) -> impl Iterator<Item = &mut Bank> {
        self.assert_synced(now);
        self.banks
            .iter_mut()
            .zip(&self.closed_cache)
            .filter_map(|(s, &closed)| closed.then_some(&mut s.bank))
    }

    fn synced_rail_voltage(&self, now: SimTime) -> Volts {
        voltage_of(self.synced_slots(now))
    }

    fn synced_full_voltage(&self, now: SimTime) -> Volts {
        self.limiter.clamp().min(rating_of(self.synced_slots(now)))
    }

    fn equalize(&mut self, now: SimTime) {
        // Exact no-op early-out: with fewer than two closed banks, or with
        // every closed bank already at one voltage, redistribution has
        // nothing to move.
        let mut count = 0usize;
        let mut v_first = Volts::ZERO;
        let mut uniform = true;
        for s in self.synced_slots(now) {
            if count == 0 {
                v_first = s.bank.voltage();
            } else if s.bank.voltage() != v_first {
                uniform = false;
            }
            count += 1;
        }
        if count < 2 || uniform {
            return;
        }
        // `share_charge` semantics, allocation-free: total charge over
        // total capacitance across the closed set, in bank order.
        let total_c: f64 = self
            .synced_slots(now)
            .map(|s| s.bank.capacitance().get())
            .sum();
        let v = if total_c <= 0.0 {
            Volts::ZERO
        } else {
            let total_q: f64 = self.synced_slots(now).map(|s| s.bank.charge()).sum();
            Volts::new(total_q / total_c)
        };
        for bank in self.synced_banks_mut(now) {
            bank.set_voltage(v);
        }
    }

    fn set_rail_voltage(&mut self, now: SimTime, v: Volts) {
        for bank in self.synced_banks_mut(now) {
            bank.set_voltage(v);
        }
    }

    fn leak_open(&mut self, dt: SimDuration, now: SimTime) {
        self.assert_synced(now);
        self.tape_leak(dt);
        for (slot, &closed) in self.banks.iter_mut().zip(&self.closed_cache) {
            if !closed {
                slot.bank.apply_leakage(dt);
            }
        }
    }

    fn leak_all(&mut self, dt: SimDuration) {
        self.tape_leak(dt);
        for slot in &mut self.banks {
            slot.bank.apply_leakage(dt);
        }
    }

    /// Every leak reaches every leaking bank (it is open at the leak's
    /// `sync`), so the tape needs only the interval.
    fn tape_leak(&mut self, dt: SimDuration) {
        if let Some(tape) = &mut self.tape {
            tape.leaks.push(dt);
        }
    }

    /// Derived rail quantities at `now`, memoized. The cached value is
    /// bitwise identical to recomputation: it is only ever filled from
    /// `compute_rail_derived`, and every mutation that can change an input
    /// (closed set, faults, wear derating) clears it. Debug builds check
    /// every hit against a fresh recomputation.
    fn rail_derived_at(&mut self, now: SimTime) -> RailDerived {
        if let Some(d) = self.rail_derived {
            debug_assert_eq!(
                d.bits(),
                self.compute_rail_derived(now).bits(),
                "stale rail cache at {now}: {d:?}"
            );
            return d;
        }
        let d = self.compute_rail_derived(now);
        self.rail_derived = Some(d);
        d
    }

    fn compute_rail_derived(&self, now: SimTime) -> RailDerived {
        RailDerived {
            capacitance: capacitance_of(self.synced_slots(now)),
            esr: esr_of(self.synced_slots(now)),
            leak_current: self.synced_slots(now).map(|s| s.bank.leakage().get()).sum(),
            full_voltage: self.synced_full_voltage(now),
        }
    }

    fn next_latch_decay(&self, now: SimTime) -> SimTime {
        self.banks
            .iter()
            .map(|s| s.switch.decay_deadline())
            .filter(|&t| t > now)
            .min()
            .unwrap_or(SimTime::MAX)
    }
}

/// Total capacitance of a closed set.
fn capacitance_of<'a>(closed: impl Iterator<Item = &'a Slot>) -> Farads {
    closed.map(|s| s.bank.capacitance()).sum()
}

/// Parallel ESR of a closed set (`1/R = Σ 1/Rᵢ`); a zero-ESR bank shorts
/// the combination to zero.
fn esr_of<'a>(closed: impl Iterator<Item = &'a Slot>) -> Ohms {
    let mut inv = 0.0;
    for s in closed {
        let r = s.bank.esr().get();
        if r <= 0.0 {
            return Ohms::ZERO;
        }
        inv += 1.0 / r;
    }
    if inv == 0.0 {
        Ohms::ZERO
    } else {
        Ohms::new(1.0 / inv)
    }
}

/// The shared voltage of a closed set (zero when it is empty).
fn voltage_of<'a>(closed: impl Iterator<Item = &'a Slot>) -> Volts {
    closed
        .map(|s| s.bank.voltage())
        .fold(Volts::ZERO, Volts::max)
}

/// The weakest rating in a closed set (infinite when it is empty).
fn rating_of<'a>(closed: impl Iterator<Item = &'a Slot>) -> Volts {
    closed
        .map(|s| s.bank.rated_voltage())
        .fold(Volts::new(f64::INFINITY), Volts::min)
}

impl<H: Harvester> PowerSystemBuilder<H> {
    /// Sets the harvester (required).
    #[must_use]
    pub fn harvester(mut self, h: H) -> Self {
        self.harvester = Some(h);
        self
    }

    /// Removes or replaces the bypass circuit (set `None` to measure the
    /// cold-start penalty the bypass exists to avoid).
    #[must_use]
    pub fn bypass(mut self, bypass: Option<Bypass>) -> Self {
        self.bypass = bypass;
        self
    }

    /// Overrides the output booster.
    #[must_use]
    pub fn output_booster(mut self, booster: OutputBooster) -> Self {
        self.output_booster = booster;
        self
    }

    /// Adds a bank behind a fresh switch of the given kind.
    #[must_use]
    pub fn bank(mut self, bank: Bank, kind: SwitchKind) -> Self {
        self.banks.push(Slot::new(bank, BankSwitch::new(kind)));
        self
    }

    /// Finishes the system.
    ///
    /// # Panics
    ///
    /// Panics if no harvester was provided or the bank array is empty.
    #[must_use]
    pub fn build(self) -> PowerSystem<H> {
        let harvester = self.harvester.expect("a harvester is required");
        assert!(!self.banks.is_empty(), "at least one bank is required");
        let closed_cache = self
            .banks
            .iter()
            .map(|s| s.switch.state(SimTime::ZERO).is_closed())
            .collect();
        PowerSystem {
            harvester,
            limiter: VoltageLimiter::prototype(),
            input_booster: InputBooster::prototype(),
            bypass: self.bypass,
            output_booster: self.output_booster,
            banks: self.banks,
            closed_cache,
            synced_at: SimTime::ZERO,
            delivered: Joules::ZERO,
            tape: None,
            syncs: 0,
            watch: 0,
            pending_faults: Vec::new(),
            wear_model: None,
            startup_margin: Volts::ZERO,
            rail_derived: None,
            charge_segments: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harvester::ConstantHarvester;
    use crate::technology::parts;
    use capy_units::cycle::CycleKey;

    fn ten_mw() -> ConstantHarvester {
        ConstantHarvester::new(Watts::from_milli(10.0), Volts::new(3.0))
    }

    fn small_bank() -> Bank {
        Bank::builder("small")
            .with(parts::ceramic_x5r_400uf())
            .with(parts::tantalum_330uf())
            .build()
    }

    fn big_bank() -> Bank {
        Bank::builder("big").with_n(parts::edlc_22_5mf(), 3).build()
    }

    fn one_bank_system() -> PowerSystem<ConstantHarvester> {
        PowerSystem::builder()
            .harvester(ten_mw())
            .bank(small_bank(), SwitchKind::NormallyClosed)
            .build()
    }

    #[test]
    fn charges_to_full_in_expected_time() {
        let mut sys = one_bank_system();
        let mut now = SimTime::ZERO;
        let elapsed = sys.charge_until_full(&mut now).unwrap();
        // 730 µF to 2.8 V ≈ 2.9 mJ; bypass to 1.0 V then boost at 8 mW.
        // Expect well under a second.
        assert!(elapsed < SimDuration::from_secs(1), "elapsed = {elapsed}");
        assert!(elapsed > SimDuration::from_micros(100));
        assert!((sys.rail_voltage(now).get() - 2.8).abs() < 1e-3);
    }

    #[test]
    fn bypass_cuts_charge_time_by_an_order_of_magnitude() {
        // §5.1: "the bypass optimization reduces charge time by at least an
        // order of magnitude" at low input power with a large capacitor.
        let dim = ConstantHarvester::new(Watts::from_micro(500.0), Volts::new(2.5));
        let mut with = PowerSystem::builder()
            .harvester(dim)
            .bank(big_bank(), SwitchKind::NormallyClosed)
            .build();
        let mut without = PowerSystem::builder()
            .harvester(dim)
            .bypass(None)
            .bank(big_bank(), SwitchKind::NormallyClosed)
            .build();
        let mut t1 = SimTime::ZERO;
        let mut t2 = SimTime::ZERO;
        let fast = with.charge_until_full(&mut t1).unwrap();
        let slow = without.charge_until_full(&mut t2).unwrap();
        assert!(
            slow.as_secs_f64() > 10.0 * fast.as_secs_f64(),
            "bypass {fast} vs no-bypass {slow}"
        );
    }

    #[test]
    fn draw_completes_within_energy_budget() {
        let mut sys = one_bank_system();
        let mut now = SimTime::ZERO;
        sys.charge_until_full(&mut now).unwrap();
        // 730 µF from 2.8 to 0.9 V ≈ 2.6 mJ stored; at 85% the budget
        // sustains ~2.2 mJ of load. A 1 mW × 50 ms load (50 µJ) must pass.
        let out = sys.draw(
            Watts::from_milli(1.0),
            SimDuration::from_millis(50),
            &mut now,
        );
        assert!(out.is_complete());
        assert!(sys.energy_delivered() > Joules::from_micro(49.0));
    }

    #[test]
    fn draw_fails_when_energy_exhausted() {
        let mut sys = one_bank_system();
        let mut now = SimTime::ZERO;
        sys.charge_until_full(&mut now).unwrap();
        let out = sys.draw(Watts::from_milli(10.0), SimDuration::from_secs(5), &mut now);
        let survived = out.failed_after().expect("must brown out");
        assert!(survived > SimDuration::ZERO);
        assert!(survived < SimDuration::from_secs(1));
        // Rail left near the booster minimum.
        let v = sys.rail_voltage(now);
        assert!(v < Volts::new(1.1), "v = {v}");
    }

    #[test]
    fn deep_recharge_records_a_cycle() {
        let mut sys = one_bank_system();
        let mut now = SimTime::ZERO;
        // Initial charge from empty counts as the first cycle's charge.
        sys.charge_until_full(&mut now).unwrap();
        assert_eq!(sys.bank(BankId(0)).unwrap().cycles(), 1);
        // Deep discharge, then recharge: one more cycle.
        let _ = sys.draw(Watts::from_milli(10.0), SimDuration::from_secs(5), &mut now);
        sys.charge_until_full(&mut now).unwrap();
        assert_eq!(sys.bank(BankId(0)).unwrap().cycles(), 2);
        // A shallow top-up does not count.
        let _ = sys.draw(
            Watts::from_milli(1.0),
            SimDuration::from_millis(20),
            &mut now,
        );
        sys.charge_until_full(&mut now).unwrap();
        assert_eq!(sys.bank(BankId(0)).unwrap().cycles(), 2);
    }

    #[test]
    fn reconfiguration_changes_rail_capacitance() {
        let mut sys = PowerSystem::builder()
            .harvester(ten_mw())
            .bank(small_bank(), SwitchKind::NormallyClosed)
            .bank(big_bank(), SwitchKind::NormallyOpen)
            .build();
        let now = SimTime::ZERO;
        let c_small = sys.rail_capacitance(now);
        assert!((c_small.as_micro() - 730.0).abs() < 1.0);
        sys.command_switch(BankId(1), SwitchState::Closed, now)
            .unwrap();
        let c_both = sys.rail_capacitance(now);
        assert!((c_both.as_milli() - 68.23).abs() < 0.1, "c = {c_both}");
    }

    #[test]
    fn closing_a_switch_equalizes_voltages() {
        let mut sys = PowerSystem::builder()
            .harvester(ten_mw())
            .bank(small_bank(), SwitchKind::NormallyClosed)
            .bank(big_bank(), SwitchKind::NormallyOpen)
            .build();
        let mut now = SimTime::ZERO;
        sys.charge_until_full(&mut now).unwrap();
        let v_before = sys.rail_voltage(now);
        sys.command_switch(BankId(1), SwitchState::Closed, now)
            .unwrap();
        let v_after = sys.rail_voltage(now);
        // The big empty bank swallows the small bank's charge.
        assert!(v_after < v_before * 0.05, "v_after = {v_after}");
    }

    #[test]
    fn deactivated_bank_retains_energy_minus_leakage() {
        // "a de-activated mode's energy buffers retain their stored energy,
        // except the energy lost to leakage" (§4.2).
        let mut sys = PowerSystem::builder()
            .harvester(ten_mw())
            .bank(big_bank(), SwitchKind::NormallyClosed)
            .bank(small_bank(), SwitchKind::NormallyOpen)
            .build();
        let mut now = SimTime::ZERO;
        sys.charge_until_full(&mut now).unwrap();
        let v_full = sys.bank(BankId(0)).unwrap().voltage();
        // Disconnect the big bank, connect the small one.
        sys.command_switch(BankId(0), SwitchState::Open, now)
            .unwrap();
        sys.command_switch(BankId(1), SwitchState::Closed, now)
            .unwrap();
        // Keep switches alive while idling briefly (device powered).
        sys.refresh_switches(now);
        let mut t = now;
        sys.idle(SimDuration::from_secs(30), &mut t);
        // NB: latch retention is ~3 min, so 30 s idle does not revert.
        let v_after = sys.bank(BankId(0)).unwrap().voltage();
        assert!(
            v_after > v_full * 0.99,
            "leakage too aggressive: {v_after} vs {v_full}"
        );
        assert!(v_after <= v_full);
    }

    #[test]
    fn latch_decay_during_long_charge_reverts_no_switch() {
        // A NO switch commanded closed reverts to open if the charge period
        // exceeds retention; the rail then loses that bank implicitly.
        let weak = ConstantHarvester::new(Watts::from_micro(40.0), Volts::new(2.5));
        let mut sys = PowerSystem::builder()
            .harvester(weak)
            .bank(small_bank(), SwitchKind::NormallyClosed)
            .bank(big_bank(), SwitchKind::NormallyOpen)
            .build();
        let mut now = SimTime::ZERO;
        sys.command_switch(BankId(1), SwitchState::Closed, now)
            .unwrap();
        // Charging 68 mF at ~30 µW takes hours; the latch (≈3 min) decays
        // long before, after which only the small bank charges.
        let outcome = sys.charge_until(Volts::new(2.8), &mut now).unwrap();
        assert!(matches!(outcome, ChargeOutcome::Reached(_)));
        assert!(!sys.switch(BankId(1)).unwrap().state(now).is_closed());
        // Total time is dominated by the small bank at ~32 µW, far less
        // than charging the full 68 mF would need.
        assert!(now < SimTime::from_secs(3_600), "now = {now}");
    }

    #[test]
    fn nc_switch_reverts_to_closed_guaranteeing_capacity() {
        let mut sys = PowerSystem::builder()
            .harvester(ten_mw())
            .bank(small_bank(), SwitchKind::NormallyClosed)
            .bank(big_bank(), SwitchKind::NormallyClosed)
            .build();
        let mut now = SimTime::ZERO;
        // Software trims to the small bank only.
        sys.command_switch(BankId(1), SwitchState::Open, now)
            .unwrap();
        assert_eq!(sys.closed_banks(now).len(), 1);
        // Long unpowered stretch: NC latch decays, bank reconnects.
        sys.idle(SimDuration::from_secs(600), &mut now);
        assert_eq!(sys.closed_banks(now).len(), 2);
    }

    #[test]
    fn stalled_when_dark() {
        let mut sys = PowerSystem::builder()
            .harvester(ConstantHarvester::dark())
            .bank(small_bank(), SwitchKind::NormallyClosed)
            .build();
        let mut now = SimTime::ZERO;
        let out = sys.charge_until(Volts::new(2.8), &mut now).unwrap();
        assert!(matches!(out, ChargeOutcome::Stalled(_)));
        assert!(sys.charge_until_full(&mut now).is_err());
    }

    #[test]
    fn no_active_bank_is_an_error() {
        let mut sys = PowerSystem::builder()
            .harvester(ten_mw())
            .bank(small_bank(), SwitchKind::NormallyOpen)
            .build();
        let mut now = SimTime::ZERO;
        assert_eq!(
            sys.charge_until(Volts::new(2.8), &mut now).unwrap_err(),
            PowerError::NoActiveBank
        );
    }

    #[test]
    fn unknown_bank_is_an_error() {
        let sys = one_bank_system();
        assert_eq!(
            sys.bank(BankId(7)).unwrap_err(),
            PowerError::UnknownBank { index: 7 }
        );
    }

    #[test]
    fn harvesting_draw_extends_operation() {
        // A load slightly above the harvested input drains far slower
        // with concurrent harvesting modeled.
        let mut a = one_bank_system();
        let mut b = one_bank_system();
        let mut ta = SimTime::ZERO;
        let mut tb = SimTime::ZERO;
        a.charge_until_full(&mut ta).unwrap();
        b.charge_until_full(&mut tb).unwrap();
        let load = Watts::from_milli(9.0);
        let long = SimDuration::from_secs(10);
        let plain = a.draw(load, long, &mut ta);
        let assisted = b.draw_with_harvesting(load, long, &mut tb);
        let t_plain = plain.failed_after().expect("must brown out unassisted");
        let t_assisted = assisted
            .failed_after()
            .expect("9 mW load still exceeds the ~7 mW net input");
        assert!(
            t_assisted.as_secs_f64() > 3.0 * t_plain.as_secs_f64(),
            "assisted {t_assisted} vs plain {t_plain}"
        );
    }

    #[test]
    fn harvesting_draw_never_fails_under_net_surplus() {
        let mut sys = one_bank_system();
        let mut now = SimTime::ZERO;
        sys.charge_until_full(&mut now).unwrap();
        // 2 mW load under 8 mW net input: surplus keeps the rail full.
        let out =
            sys.draw_with_harvesting(Watts::from_milli(2.0), SimDuration::from_secs(30), &mut now);
        assert!(out.is_complete());
        assert!(sys.rail_voltage(now) > Volts::new(2.7));
    }

    #[test]
    fn can_boot_tracks_startup_voltage() {
        let mut sys = one_bank_system();
        let mut now = SimTime::ZERO;
        assert!(!sys.can_boot(now));
        sys.charge_until(Volts::new(1.7), &mut now).unwrap();
        assert!(sys.can_boot(now));
    }

    #[test]
    fn startup_margin_raises_the_boot_bar() {
        let mut sys = one_bank_system();
        sys.set_startup_margin(Volts::new(0.5));
        let mut now = SimTime::ZERO;
        sys.charge_until(Volts::new(1.7), &mut now).unwrap();
        assert!(!sys.can_boot(now), "margin must delay cold boot");
        sys.charge_until(Volts::new(2.3), &mut now).unwrap();
        assert!(sys.can_boot(now));
    }

    #[test]
    fn stuck_open_switch_starves_the_rail() {
        let mut sys = one_bank_system();
        let mut now = SimTime::ZERO;
        sys.charge_until_full(&mut now).unwrap();
        sys.inject_fault(
            HardwareFault::Switch {
                bank: BankId(0),
                fault: SwitchFault::StuckOpen,
            },
            now,
        )
        .unwrap();
        assert!(sys.closed_banks(now).is_empty());
        assert_eq!(
            sys.charge_until(Volts::new(2.8), &mut now).unwrap_err(),
            PowerError::NoActiveBank
        );
    }

    #[test]
    fn scheduled_fault_applies_as_simulated_physics() {
        let mut sys = PowerSystem::builder()
            .harvester(ten_mw())
            .bank(small_bank(), SwitchKind::NormallyClosed)
            .bank(big_bank(), SwitchKind::NormallyOpen)
            .build();
        sys.schedule_fault(
            SimTime::from_secs(10),
            HardwareFault::BankDegraded {
                bank: BankId(0),
                cap_derate: 0.0,
                esr_scale: 1.0,
            },
        );
        let mut now = SimTime::ZERO;
        sys.charge_until_full(&mut now).unwrap();
        // Before the fault's instant the bank is healthy...
        assert!(sys.rail_capacitance(now).get() > 0.0);
        // ...after it, the next operation's sync applies the degradation.
        sys.idle(SimDuration::from_secs(20), &mut now);
        assert_eq!(sys.rail_capacitance(now).get(), 0.0);
        assert_eq!(sys.bank(BankId(0)).unwrap().derating().0, 0.0);
    }

    #[test]
    fn fault_on_unknown_bank_is_an_error() {
        let mut sys = one_bank_system();
        assert_eq!(
            sys.inject_fault(
                HardwareFault::Switch {
                    bank: BankId(9),
                    fault: SwitchFault::StuckOpen
                },
                SimTime::ZERO,
            )
            .unwrap_err(),
            PowerError::UnknownBank { index: 9 }
        );
    }

    #[test]
    fn wear_model_derates_cycled_banks() {
        use crate::lifetime::WearModel;
        // An aggressive synthetic wear model so a handful of cycles shows
        // measurable fade: 50% capacitance loss at "end of life".
        let mut sys = PowerSystem::builder()
            .harvester(ten_mw())
            .bank(
                Bank::builder("edlc").with(parts::edlc_7_5mf()).build(),
                SwitchKind::NormallyClosed,
            )
            .build();
        sys.set_wear_model(Some(WearModel {
            cap_fade_at_eol: 0.5,
            esr_growth_at_eol: 2.0,
        }));
        let nominal = sys.bank(BankId(0)).unwrap().nominal_capacitance();
        let mut now = SimTime::ZERO;
        for _ in 0..3 {
            sys.charge_until_full(&mut now).unwrap();
            let _ = sys.draw(
                Watts::from_milli(10.0),
                SimDuration::from_secs(60),
                &mut now,
            );
        }
        let bank = sys.bank(BankId(0)).unwrap();
        assert!(bank.cycles() >= 2);
        assert!(
            bank.capacitance() < nominal,
            "cycled EDLC must show capacitance fade under the wear model"
        );
        assert!(bank.derating().1 > 1.0, "ESR must grow with wear");
    }

    /// A pathological dark source whose piecewise-constant segments creep
    /// one microsecond at a time, so `charge_until` can never reach the
    /// target, never sees an infinite stall, and must exhaust its segment
    /// budget.
    #[derive(Debug, Clone, Copy)]
    struct CreepingDark;

    impl Harvester for CreepingDark {
        fn power_at(&self, _t: SimTime) -> Watts {
            Watts::ZERO
        }

        fn valid_until(&self, t: SimTime) -> SimTime {
            t.saturating_add(SimDuration::from_micros(1))
        }

        fn open_voltage(&self, _t: SimTime) -> Volts {
            Volts::ZERO
        }
    }

    #[test]
    fn segment_budget_exhaustion_is_a_typed_error() {
        let mut sys = PowerSystem::builder()
            .harvester(CreepingDark)
            .bank(small_bank(), SwitchKind::NormallyClosed)
            .build();
        let mut now = SimTime::ZERO;
        let err = sys.charge_until(Volts::new(2.8), &mut now).unwrap_err();
        assert!(
            matches!(err, PowerError::SegmentBudgetExhausted { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn long_constant_harvest_charges_in_constant_segments() {
        // Crossing a multi-minute constant-harvest charge must cost O(1)
        // analytic segments, not O(duration).
        let weak = ConstantHarvester::new(Watts::from_micro(500.0), Volts::new(2.5));
        let mut sys = PowerSystem::builder()
            .harvester(weak)
            .bank(big_bank(), SwitchKind::NormallyClosed)
            .build();
        let mut now = SimTime::ZERO;
        let before = sys.charge_segments();
        sys.charge_until_full(&mut now).unwrap();
        let used = sys.charge_segments() - before;
        assert!(
            now > SimTime::from_secs(60),
            "expected a long charge, now = {now}"
        );
        assert!(used <= 10, "segments = {used}");
    }

    /// A small always-closed bank and a big open one at `big_at`.
    fn open_big_bank_system(big_at: Volts) -> PowerSystem<ConstantHarvester> {
        let mut big = big_bank();
        big.set_voltage(big_at);
        PowerSystem::builder()
            .harvester(ten_mw())
            .bank(small_bank(), SwitchKind::NormallyClosed)
            .bank(big, SwitchKind::NormallyOpen)
            .build()
    }

    /// One duty cycle on the small bank: a charge to full, a draw and an
    /// idle stretch, then the end of a taped step.
    fn duty_cycle(sys: &mut PowerSystem<ConstantHarvester>, now: &mut SimTime) {
        sys.charge_until_full(now).unwrap();
        let out = sys.draw(Watts::from_milli(3.0), SimDuration::from_millis(20), now);
        assert!(out.is_complete());
        sys.idle(SimDuration::from_millis(7), now);
        sys.end_taped_step();
    }

    /// Marks the tape and watches leaking banks from there.
    fn watch_from_here(sys: &mut PowerSystem<ConstantHarvester>) -> TapeMark {
        let mark = sys.mark_tape();
        sys.watch_leaks(mark);
        mark
    }

    /// Runs the settling duty cycle and one taped cycle; returns the mark
    /// at the taped cycle's start.
    fn settle_and_tape(sys: &mut PowerSystem<ConstantHarvester>, now: &mut SimTime) -> TapeMark {
        duty_cycle(sys, now);
        let mark = watch_from_here(sys);
        duty_cycle(sys, now);
        mark
    }

    #[test]
    fn replaying_an_open_banks_taped_leaks_equals_stepping_them() {
        const K: u64 = 40;
        type Sys = PowerSystem<ConstantHarvester>;
        // The second start leaks to the 0 V floor about ten cycles into
        // the replay, which must stop there exactly where stepping does.
        let mut probe = open_big_bank_system(Volts::new(2.1));
        let big = |sys: &Sys| sys.bank(BankId(1)).unwrap().voltage();
        let mut t = SimTime::ZERO;
        settle_and_tape(&mut probe, &mut t);
        let taped = Volts::new(2.1) - big(&probe);
        let at = big(&probe);
        duty_cycle(&mut probe, &mut t);
        let near_empty = taped + (at - big(&probe)) * 10.5;
        let bits = |sys: &Sys| {
            let bank = |i| sys.bank(BankId(i)).unwrap().voltage().get().to_bits();
            [bank(0), bank(1), sys.energy_delivered().get().to_bits()]
        };
        for start in [Volts::new(2.1), near_empty] {
            let mut sys = open_big_bank_system(start);
            let mut now = SimTime::ZERO;
            let mark = settle_and_tape(&mut sys, &mut now);
            assert!(!sys.tape.as_ref().expect("taping").leaks.is_empty());
            assert!(big(&sys) > Volts::ZERO);

            let mut stepped = sys.clone();
            let mut t = now;
            for _ in 0..K {
                duty_cycle(&mut stepped, &mut t);
            }
            // The taped cycle, K times.
            let mut once = sys.clone();
            assert_eq!(once.replay_cycles(mark, K, now, None), K);
            // One more cycle stepped from a mark of its own, the tape's
            // front up to that mark dropped, and that cycle K - 1 times.
            let mut trimmed = sys.clone();
            let mut t = now;
            let second = watch_from_here(&mut trimmed);
            duty_cycle(&mut trimmed, &mut t);
            trimmed.tape_from(second);
            assert_eq!(trimmed.taped_since(second), sys.taped_since(mark));
            assert_eq!(trimmed.replay_cycles(second, K - 1, t, None), K - 1);
            // Four cycles replayed and three more copies of the taped one
            // appended, then that four-cycle tape nine times.
            let mut repeated = sys.clone();
            assert_eq!(repeated.replay_cycles(mark, 4, now, None), 4);
            repeated.repeat_tape(mark, 3);
            assert_eq!(repeated.taped_since(mark), 4 * sys.taped_since(mark));
            assert_eq!(repeated.replay_cycles(mark, 9, now, None), 9);

            for (label, replayed) in [("once", once), ("trimmed", trimmed), ("repeated", repeated)]
            {
                assert_eq!(bits(&replayed), bits(&stepped), "{label} from {start}");
            }
            if start == near_empty {
                assert_eq!(big(&stepped), Volts::ZERO);
            }
        }
    }

    #[test]
    fn a_bank_closed_since_the_watch_keys_its_voltage() {
        let key = |sys: &mut PowerSystem<ConstantHarvester>, now| {
            let mut key = CycleKey::default();
            sys.steady_state(now, &mut Cycle::key(&mut key));
            key
        };
        let mut a = open_big_bank_system(Volts::new(2.0));
        let mut b = open_big_bank_system(Volts::new(2.05));
        let now = SimTime::ZERO;
        watch_from_here(&mut a);
        watch_from_here(&mut b);
        // Open since the watch: the open bank's voltage is not compared.
        assert!(key(&mut a, now).same_state(&key(&mut b, now)));
        assert!(key(&mut b, now).same_state(&key(&mut a, now)));
        // Closed alone at a `sync` (so nothing equalizes) and open
        // again: it is compared.
        for sys in [&mut a, &mut b] {
            for (bank, state) in [
                (0, SwitchState::Open),
                (1, SwitchState::Closed),
                (1, SwitchState::Open),
                (0, SwitchState::Closed),
            ] {
                sys.command_switch(BankId(bank), state, now).unwrap();
                if bank == 1 && state == SwitchState::Closed {
                    sys.sync(now);
                }
            }
        }
        assert!(!key(&mut a, now).same_state(&key(&mut b, now)));
        // A fresh watch forgets the close.
        watch_from_here(&mut a);
        watch_from_here(&mut b);
        assert!(key(&mut a, now).same_state(&key(&mut b, now)));
    }

    /// Every route that can change a cached rail quantity is followed by
    /// more charges and draws. Had a route left the rail cache standing,
    /// the next operation would serve a stale hit, and debug builds check
    /// every hit against recomputation.
    #[test]
    fn every_invalidation_route_is_followed_by_checked_hits() {
        type Sys = PowerSystem<ConstantHarvester>;
        type Route = fn(&mut Sys, &mut SimTime);
        fn charge_and_draw(sys: &mut Sys, now: &mut SimTime) {
            for _ in 0..2 {
                sys.charge_until(Volts::new(2.5), now).unwrap();
                let out = sys.draw(Watts::from_milli(1.0), SimDuration::from_millis(150), now);
                assert!(out.is_complete());
            }
        }
        fn rail(sys: &Sys, now: SimTime) -> [u64; 2] {
            [
                sys.rail_capacitance(now).get().to_bits(),
                sys.rail_esr(now).get().to_bits(),
            ]
        }
        let routes: [(&str, Route); 5] = [
            ("switch command", |sys, now| {
                sys.command_switch(BankId(1), SwitchState::Closed, *now)
                    .unwrap();
            }),
            // Unpowered for longer than the latch retention, the
            // normally-open switch reverts.
            ("latch decay", |sys, now| {
                sys.idle(SimDuration::from_secs(600), now);
            }),
            // A deep discharge makes the next charge record a cycle, which
            // the wear model turns into a derating.
            ("wear inside charge_until", |sys, now| {
                sys.set_wear_model(Some(WearModel {
                    cap_fade_at_eol: 0.5,
                    esr_growth_at_eol: 2.0,
                }));
                let _ = sys.draw(Watts::from_milli(10.0), SimDuration::from_secs(60), now);
                sys.charge_until(Volts::new(2.5), now).unwrap();
            }),
            ("seed_wear", |sys, _| sys.seed_wear(&[250_000])),
            ("scheduled fault", |sys, now| {
                sys.schedule_fault(
                    now.saturating_add(SimDuration::from_secs(1)),
                    HardwareFault::BankDegraded {
                        bank: BankId(0),
                        cap_derate: 0.5,
                        esr_scale: 3.0,
                    },
                );
                sys.idle(SimDuration::from_secs(2), now);
            }),
        ];
        let mut sys: Sys = PowerSystem::builder()
            .harvester(ten_mw())
            .bank(
                Bank::builder("edlc").with(parts::edlc_7_5mf()).build(),
                SwitchKind::NormallyClosed,
            )
            .bank(small_bank(), SwitchKind::NormallyOpen)
            .build();
        let mut now = SimTime::ZERO;
        charge_and_draw(&mut sys, &mut now);
        for (route, apply) in routes {
            let before = rail(&sys, now);
            apply(&mut sys, &mut now);
            assert_ne!(rail(&sys, now), before, "{route} must move the rail");
            charge_and_draw(&mut sys, &mut now);
        }
    }

    /// A draw ends where [`capacitor::discharge`] puts it, given the
    /// rail's own capacitance, ESR and voltage, and the ESR droop is part
    /// of it: a fault that changes only the ESR changes the draw.
    #[test]
    fn a_draw_follows_the_esr_droop_discharge() {
        let mut sys = one_bank_system();
        let mut now = SimTime::ZERO;
        let (load, span) = (Watts::from_milli(8.0), SimDuration::from_millis(150));
        sys.charge_until_full(&mut now).unwrap();
        assert!(sys.draw(load, span, &mut now).is_complete());
        let v_healthy = sys.rail_voltage(now);

        sys.inject_fault(
            HardwareFault::BankDegraded {
                bank: BankId(0),
                cap_derate: 1.0,
                esr_scale: 4.0,
            },
            now,
        )
        .unwrap();
        sys.charge_until_full(&mut now).unwrap();
        let booster = sys.output_booster();
        let expected = capacitor::discharge(
            sys.rail_capacitance(now),
            sys.rail_esr(now),
            sys.rail_voltage(now),
            booster.input_power_for(load),
            booster.min_operating_voltage(),
            span,
        );
        assert!(sys.draw(load, span, &mut now).is_complete());
        let v_degraded = sys.rail_voltage(now);

        let Discharge::Sustained(v_expected) = expected else {
            panic!("the reference draw must complete: {expected:?}");
        };
        assert_eq!(v_degraded.get().to_bits(), v_expected.get().to_bits());
        assert_ne!(
            v_degraded.get().to_bits(),
            v_healthy.get().to_bits(),
            "a 4x ESR must change the draw"
        );
    }
}
