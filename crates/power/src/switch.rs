//! The state-retaining capacitor-bank switch (§5.2, Figure 6(b)).
//!
//! Each bank connects to the storage rail through a P-channel MOSFET
//! high-side switch whose gate state is held by a small *latch capacitor*
//! (`C_latch`, 4.7 µF on the prototype). While the device is powered, a
//! replenishment circuit keeps the latch topped up, so the commanded state
//! persists indefinitely. When input power is lost, the latch leaks; after
//! the *retention time* (~3 minutes on the prototype, §6.5) the switch
//! reverts to its technology-determined default:
//!
//! * **Normally-open (NO)** — reverts to *disconnected*. On reboot only the
//!   small default bank is active; it charges quickly, but a task needing a
//!   bigger mode wastes its first execution attempt (and can livelock under
//!   adversarial input power).
//! * **Normally-closed (NC)** — reverts to *connected*. On reboot the
//!   maximum capacity is active; first charge is slow but the first
//!   execution attempt is guaranteed to have enough energy.

use capy_units::cycle::Cycle;
use capy_units::{Amps, Farads, SimDuration, SimTime, SquareMm, Volts};

/// Which default the switch falls back to when its latch capacitor decays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchKind {
    /// Open (bank disconnected) by default.
    NormallyOpen,
    /// Closed (bank connected) by default.
    NormallyClosed,
}

impl SwitchKind {
    /// The connection state this kind reverts to on latch decay.
    #[must_use]
    pub fn default_state(self) -> SwitchState {
        match self {
            SwitchKind::NormallyOpen => SwitchState::Open,
            SwitchKind::NormallyClosed => SwitchState::Closed,
        }
    }
}

/// A hardware fault injected into a bank switch.
///
/// Faults model the physical failure modes of the latch-capacitor switch
/// module: a MOSFET whose channel no longer conducts (stuck open), a
/// shorted channel (stuck closed), or a leaky latch capacitor whose
/// retention collapses (premature decay). Faults are simulated physics:
/// the MCU keeps *commanding* the switch as usual and cannot observe that
/// the commands no longer take effect (§5.2 — an introspection circuit
/// would ruin retention), which is exactly why graceful degradation needs
/// a charge-based self-test rather than a status register.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwitchFault {
    /// The switch channel no longer conducts: the bank is permanently
    /// disconnected regardless of commands or latch state.
    StuckOpen,
    /// The switch channel is shorted: the bank is permanently connected.
    StuckClosed,
    /// The latch capacitor leaks `factor`× faster than rated, scaling the
    /// effective retention down to `retention / factor` (premature decay).
    WeakLatch {
        /// Leakage multiplier, `>= 1.0`; `1.0` is a healthy latch.
        factor: f64,
    },
}

/// Electrical state of a bank switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchState {
    /// Bank disconnected from the storage rail.
    Open,
    /// Bank connected to the storage rail.
    Closed,
}

impl SwitchState {
    /// `true` when the bank is connected.
    #[must_use]
    pub fn is_closed(self) -> bool {
        matches!(self, SwitchState::Closed)
    }
}

/// Board area of one replicable switch module on the prototype, including
/// both NO and NC variants and debug circuitry (§6.5).
pub const SWITCH_AREA: SquareMm = SquareMm::new(80.0);

/// Latch capacitance used on the prototype (§6.5).
pub const LATCH_CAPACITANCE: Farads = Farads::new(4.7e-6);

/// Latch gate threshold: below this latch voltage the MOSFET gate no longer
/// holds the commanded state.
const LATCH_THRESHOLD: Volts = Volts::new(1.0);

/// Latch charge voltage while the device is powered.
const LATCH_FULL: Volts = Volts::new(2.5);

/// Latch leakage chosen so that retention ≈ 3 minutes, matching the
/// prototype measurement in §6.5: `t = C·ΔV/I = 4.7µF·1.5V/39nA ≈ 180 s`.
const LATCH_LEAKAGE: Amps = Amps::new(39.2e-9);

/// A programmable, state-retaining bank switch.
///
/// # Examples
///
/// ```
/// use capy_power::switch::{BankSwitch, SwitchKind, SwitchState};
/// use capy_units::{SimTime, SimDuration};
///
/// let mut sw = BankSwitch::new(SwitchKind::NormallyOpen);
/// let t0 = SimTime::ZERO;
/// sw.command(SwitchState::Closed, t0);
/// // Still closed two minutes after power loss...
/// assert_eq!(sw.state(t0 + SimDuration::from_secs(120)), SwitchState::Closed);
/// // ...but reverted to the default after the latch decays.
/// assert_eq!(sw.state(t0 + SimDuration::from_secs(400)), SwitchState::Open);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BankSwitch {
    kind: SwitchKind,
    commanded: SwitchState,
    /// Last instant at which the latch was known full (a command or a
    /// powered refresh).
    last_refresh: SimTime,
    retention: SimDuration,
    /// An injected hardware fault, if any. Commands still update
    /// `commanded` (the MCU cannot see the fault), but the *effective*
    /// state is governed by the fault.
    fault: Option<SwitchFault>,
}

impl BankSwitch {
    /// Creates a switch in its default state with the prototype's latch
    /// retention (~3 minutes).
    #[must_use]
    pub fn new(kind: SwitchKind) -> Self {
        Self::with_retention(kind, Self::prototype_retention())
    }

    /// Creates a switch with an explicit retention time (for design-space
    /// exploration).
    #[must_use]
    pub fn with_retention(kind: SwitchKind, retention: SimDuration) -> Self {
        Self {
            kind,
            commanded: kind.default_state(),
            last_refresh: SimTime::ZERO,
            retention,
            fault: None,
        }
    }

    /// Injects a hardware fault. The switch keeps accepting commands (the
    /// MCU cannot observe the fault) but its effective state follows the
    /// fault physics from now on.
    pub fn inject_fault(&mut self, fault: SwitchFault) {
        self.fault = Some(fault);
    }

    /// Clears any injected fault (repair / test teardown).
    pub fn clear_fault(&mut self) {
        self.fault = None;
    }

    /// The currently injected fault, if any.
    #[must_use]
    pub fn fault(&self) -> Option<SwitchFault> {
        self.fault
    }

    /// The retention actually delivered by the latch, after any
    /// [`SwitchFault::WeakLatch`] derating.
    #[must_use]
    pub fn effective_retention(&self) -> SimDuration {
        match self.fault {
            Some(SwitchFault::WeakLatch { factor }) if factor > 1.0 => {
                SimDuration::from_secs_f64(self.retention.as_secs_f64() / factor)
            }
            _ => self.retention,
        }
    }

    /// The retention implied by the prototype latch: 4.7 µF decaying from
    /// full to the gate threshold under latch leakage.
    #[must_use]
    pub fn prototype_retention() -> SimDuration {
        crate::capacitor::leak_time(
            LATCH_CAPACITANCE,
            LATCH_FULL,
            LATCH_LEAKAGE,
            LATCH_THRESHOLD,
        )
    }

    /// The switch's default-state variant.
    #[must_use]
    pub fn kind(&self) -> SwitchKind {
        self.kind
    }

    /// The configured latch retention time.
    #[must_use]
    pub fn retention(&self) -> SimDuration {
        self.retention
    }

    /// The last instant the latch was known full (a command or a powered
    /// refresh).
    #[must_use]
    pub fn last_refresh(&self) -> SimTime {
        self.last_refresh
    }

    /// Commands the switch into `state` at time `now` (the MCU charges or
    /// discharges the latch through the GPIO interface circuit).
    pub fn command(&mut self, state: SwitchState, now: SimTime) {
        self.commanded = state;
        self.last_refresh = now;
    }

    /// Tops up the latch capacitor; called periodically while the device is
    /// powered (the replenishment circuit in Figure 6(b)).
    ///
    /// Replenishment can only *maintain* a held state: if the latch already
    /// decayed, the physical switch has reverted to its default, and that
    /// default is what gets maintained from here on. (The runtime cannot
    /// observe this — §5.2 — which is exactly the NO-switch hazard.)
    pub fn refresh(&mut self, now: SimTime) {
        if self.latch_decayed(now) {
            self.commanded = self.kind.default_state();
        }
        self.last_refresh = self.last_refresh.max(now);
    }

    /// The effective state at `now`: the commanded state while the latch
    /// retains charge, the default state once it has decayed — unless a
    /// stuck fault pins the channel regardless of either.
    #[must_use]
    pub fn state(&self, now: SimTime) -> SwitchState {
        match self.fault {
            Some(SwitchFault::StuckOpen) => SwitchState::Open,
            Some(SwitchFault::StuckClosed) => SwitchState::Closed,
            _ => {
                if now.saturating_since(self.last_refresh) > self.effective_retention() {
                    self.kind.default_state()
                } else {
                    self.commanded
                }
            }
        }
    }

    /// Whether the latch has decayed (i.e. the commanded state was lost) by
    /// `now`. The runtime cannot observe this directly on real hardware —
    /// §5.2 notes an introspection circuit would ruin retention — which is
    /// why the NO/NC semantics matter; the simulator exposes it for tests.
    #[must_use]
    pub fn latch_decayed(&self, now: SimTime) -> bool {
        now.saturating_since(self.last_refresh) > self.effective_retention()
    }

    /// The instant at which the latch will decay and the switch revert to
    /// its default, absent further refreshes. Returns [`SimTime::MAX`] when
    /// the commanded state already equals the default (decay would be
    /// unobservable) or a stuck fault makes the latch irrelevant.
    #[must_use]
    pub fn decay_deadline(&self) -> SimTime {
        if matches!(
            self.fault,
            Some(SwitchFault::StuckOpen | SwitchFault::StuckClosed)
        ) || self.commanded == self.kind.default_state()
        {
            SimTime::MAX
        } else {
            self.last_refresh.saturating_add(self.effective_retention())
        }
    }

    /// Visits this switch's steady state at `now`: its kind, commanded
    /// state, fault, retention and latch age as words, and the latch
    /// refresh instant. Past the effective retention the age only says
    /// that the latch has decayed, so it saturates one microsecond
    /// beyond it.
    pub fn steady_state(&mut self, now: SimTime, c: &mut Cycle<'_>) {
        let decayed = self
            .effective_retention()
            .saturating_add(SimDuration::from_micros(1));
        let Self {
            kind,
            commanded,
            last_refresh,
            retention,
            fault,
        } = self;
        c.word(u64::from(kind.default_state().is_closed()));
        c.word(u64::from(commanded.is_closed()));
        match fault {
            None => c.word(0),
            Some(SwitchFault::StuckOpen) => c.word(1),
            Some(SwitchFault::StuckClosed) => c.word(2),
            Some(SwitchFault::WeakLatch { factor }) => {
                c.word(3);
                c.bits(*factor);
            }
        }
        c.span(*retention);
        c.span(now.saturating_since(*last_refresh).min(decayed));
        c.instant(last_refresh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capy_units::rng::DetRng;

    #[test]
    fn prototype_retention_is_about_three_minutes() {
        let r = BankSwitch::prototype_retention();
        let secs = r.as_secs_f64();
        assert!((150.0..=210.0).contains(&secs), "retention = {secs} s");
    }

    #[test]
    fn commanded_state_holds_while_refreshed() {
        let mut sw = BankSwitch::new(SwitchKind::NormallyOpen);
        sw.command(SwitchState::Closed, SimTime::ZERO);
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            t += SimDuration::from_secs(60);
            sw.refresh(t); // device powered: replenishment active
            assert_eq!(sw.state(t), SwitchState::Closed);
        }
    }

    #[test]
    fn no_switch_reverts_to_open() {
        let mut sw = BankSwitch::new(SwitchKind::NormallyOpen);
        sw.command(SwitchState::Closed, SimTime::ZERO);
        assert_eq!(sw.state(SimTime::from_secs(1_000)), SwitchState::Open);
    }

    #[test]
    fn nc_switch_reverts_to_closed() {
        let mut sw = BankSwitch::new(SwitchKind::NormallyClosed);
        sw.command(SwitchState::Open, SimTime::ZERO);
        assert_eq!(sw.state(SimTime::from_secs(170)), SwitchState::Open);
        assert_eq!(sw.state(SimTime::from_secs(1_000)), SwitchState::Closed);
    }

    #[test]
    fn refresh_does_not_move_backwards() {
        let mut sw = BankSwitch::new(SwitchKind::NormallyOpen);
        sw.command(SwitchState::Closed, SimTime::from_secs(100));
        sw.refresh(SimTime::from_secs(50)); // stale refresh must be ignored
        assert!(!sw.latch_decayed(SimTime::from_secs(100) + sw.retention()));
    }

    #[test]
    fn custom_retention_is_respected() {
        let mut sw =
            BankSwitch::with_retention(SwitchKind::NormallyOpen, SimDuration::from_secs(10));
        sw.command(SwitchState::Closed, SimTime::ZERO);
        assert_eq!(sw.state(SimTime::from_secs(9)), SwitchState::Closed);
        assert_eq!(sw.state(SimTime::from_secs(11)), SwitchState::Open);
    }

    #[test]
    fn state_exactly_at_decay_deadline_still_holds_commanded() {
        // The retention comparison is strict: at exactly the deadline the
        // latch voltage sits at the gate threshold and the commanded state
        // still holds; one instant later it is gone.
        let mut sw =
            BankSwitch::with_retention(SwitchKind::NormallyOpen, SimDuration::from_secs(10));
        sw.command(SwitchState::Closed, SimTime::ZERO);
        let deadline = sw.decay_deadline();
        assert_eq!(deadline, SimTime::from_secs(10));
        assert_eq!(sw.state(deadline), SwitchState::Closed);
        assert!(!sw.latch_decayed(deadline));
        assert_eq!(
            sw.state(deadline + SimDuration::from_micros(1)),
            SwitchState::Open
        );
        assert!(sw.latch_decayed(deadline + SimDuration::from_micros(1)));
    }

    #[test]
    fn refresh_immediately_before_decay_extends_retention() {
        let mut sw =
            BankSwitch::with_retention(SwitchKind::NormallyOpen, SimDuration::from_secs(10));
        sw.command(SwitchState::Closed, SimTime::ZERO);
        // Refresh right at the deadline (latch not yet decayed): the hold
        // window restarts from the refresh instant.
        let deadline = sw.decay_deadline();
        sw.refresh(deadline);
        assert_eq!(sw.state(SimTime::from_secs(19)), SwitchState::Closed);
        assert_eq!(sw.decay_deadline(), SimTime::from_secs(20));
    }

    #[test]
    fn refresh_immediately_after_decay_maintains_the_default() {
        let mut sw =
            BankSwitch::with_retention(SwitchKind::NormallyOpen, SimDuration::from_secs(10));
        sw.command(SwitchState::Closed, SimTime::ZERO);
        // One microsecond past the deadline the physical switch has already
        // reverted; replenishment can only maintain the default from here.
        sw.refresh(SimTime::from_secs(10) + SimDuration::from_micros(1));
        assert_eq!(sw.state(SimTime::from_secs(11)), SwitchState::Open);
        // The commanded state was lost for good, not merely suspended.
        assert_eq!(sw.decay_deadline(), SimTime::MAX);
    }

    #[test]
    fn command_during_decay_reasserts_control() {
        let mut sw =
            BankSwitch::with_retention(SwitchKind::NormallyOpen, SimDuration::from_secs(10));
        sw.command(SwitchState::Closed, SimTime::ZERO);
        // Long after decay the switch sits at its default...
        assert_eq!(sw.state(SimTime::from_secs(100)), SwitchState::Open);
        // ...but a fresh command recharges the latch and takes effect.
        sw.command(SwitchState::Closed, SimTime::from_secs(100));
        assert_eq!(sw.state(SimTime::from_secs(105)), SwitchState::Closed);
        assert_eq!(sw.decay_deadline(), SimTime::from_secs(110));
    }

    #[test]
    fn stuck_open_ignores_commands_and_defaults() {
        let mut sw = BankSwitch::new(SwitchKind::NormallyClosed);
        sw.inject_fault(SwitchFault::StuckOpen);
        assert_eq!(sw.state(SimTime::ZERO), SwitchState::Open);
        sw.command(SwitchState::Closed, SimTime::ZERO);
        assert_eq!(sw.state(SimTime::from_secs(1)), SwitchState::Open);
        // Decay is unobservable on a stuck switch.
        assert_eq!(sw.decay_deadline(), SimTime::MAX);
        sw.clear_fault();
        assert_eq!(sw.state(SimTime::from_secs(1)), SwitchState::Closed);
    }

    #[test]
    fn stuck_closed_pins_the_bank_on() {
        let mut sw = BankSwitch::new(SwitchKind::NormallyOpen);
        sw.inject_fault(SwitchFault::StuckClosed);
        sw.command(SwitchState::Open, SimTime::ZERO);
        assert_eq!(sw.state(SimTime::from_secs(1_000)), SwitchState::Closed);
        assert_eq!(sw.fault(), Some(SwitchFault::StuckClosed));
    }

    #[test]
    fn weak_latch_decays_prematurely() {
        let mut sw =
            BankSwitch::with_retention(SwitchKind::NormallyOpen, SimDuration::from_secs(100));
        sw.inject_fault(SwitchFault::WeakLatch { factor: 10.0 });
        sw.command(SwitchState::Closed, SimTime::ZERO);
        assert_eq!(sw.effective_retention(), SimDuration::from_secs(10));
        assert_eq!(sw.state(SimTime::from_secs(9)), SwitchState::Closed);
        assert_eq!(sw.state(SimTime::from_secs(11)), SwitchState::Open);
        assert_eq!(sw.decay_deadline(), SimTime::from_secs(10));
    }

    #[test]
    fn prop_state_is_commanded_before_retention_default_after() {
        let mut rng = DetRng::seed_from_u64(0x5517c);
        for _ in 0..512 {
            let cmd_closed = rng.gen_bool(0.5);
            let kind_nc = rng.gen_bool(0.5);
            let offset_s = rng.gen_range(0u64..10_000);
            let kind = if kind_nc {
                SwitchKind::NormallyClosed
            } else {
                SwitchKind::NormallyOpen
            };
            let cmd = if cmd_closed {
                SwitchState::Closed
            } else {
                SwitchState::Open
            };
            let mut sw = BankSwitch::new(kind);
            sw.command(cmd, SimTime::ZERO);
            let t = SimTime::from_secs(offset_s);
            let expected = if t.elapsed_since_origin() > sw.retention() {
                kind.default_state()
            } else {
                cmd
            };
            assert_eq!(sw.state(t), expected);
        }
    }
}
