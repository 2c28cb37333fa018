//! Steady-state cycle skipping inside [`Simulator::run_limited`].
//!
//! Under steady harvest a duty-cycled device settles into a loop that
//! repeats its state exactly: the same bank voltage bits, latch ages,
//! task pointer, runtime and policy state at the same point of every
//! cycle. The run fingerprints that state at each task boundary
//! ([`State::steady_state`]) and finds a repeat with Brent's method: one
//! saved key, replaced at power-of-two distances up to the longest cycle
//! it skips, so detection memory stays O(1). From each saved key on, the
//! power system tapes what a jump must replay rather than match. When
//! the saved key repeats, the run advances whole cycles at once: instants
//! shift by the cycle length, counters add their per-cycle deltas, the
//! delivered-energy total replays the cycle's additions in order, every
//! leaking bank replays the cycle's leaks in order, and each output log
//! gets shifted copies of the cycle's entries. The same function that
//! fingerprints the state advances it. Every float keeps the bits
//! stepping would give, so a skipped run is the stepped run, bit for bit.
//!
//! Detection runs inside a *steady window*, from a restart to the first
//! of the harvester's segment end and the context's
//! [`SimContext::steady_until`], inside which everything the loop reads
//! from outside the device is constant. A bank that stays open from
//! the saved key on only leaks, and nothing reads its voltage, so the
//! repeating key does not compare that voltage
//! ([`PowerSystem::steady_state`]) and the jump replays its leaks.
//!
//! A jump ends before the first of the horizon, the step and energy
//! budgets, the steady window's end, the next pending fault and any
//! latch decay the cycle does not cover ([`PowerSystem::steady_until`]).
//! A context or policy that declares no steady state never skips.
//!
//! [`Simulator::run_limited`]: super::Simulator::run_limited
//! [`SimContext::steady_until`]: super::SimContext::steady_until
//! [`PowerSystem::steady_state`]: capy_power::system::PowerSystem::steady_state
//! [`PowerSystem::steady_until`]: capy_power::system::PowerSystem::steady_until

use std::mem;

use capy_power::harvester::Harvester;
use capy_power::system::{CycleTape, PowerSystem};
use capy_units::cycle::{Cycle, CycleKey};
use capy_units::SimTime;

use super::{RunLimits, SimContext, SimEvent, State};

/// Boundaries one `run_limited` call steps before it takes its first
/// fingerprint: a run shorter than this pays nothing for skipping.
const WARMUP_BOUNDARIES: u64 = 32;

/// The longest cycle, in steps, that is skipped, and the farthest Brent's
/// saved key reaches, so no tape covers more steps than this.
const MAX_CYCLE_STEPS: u64 = 1024;

/// The distance at which Brent's first saved key is replaced. Brent's
/// method starts at 1, but a fresh steady window opens on a transient
/// whose keys cannot repeat yet; starting at 16 finds a cycle of up to
/// 32 steps that settles within 16 boundaries at its first repeat after
/// the second save (about 17% fewer stepped boundaries on an orbital
/// fleet device than starting at 1).
const FIRST_REACH: u64 = 16;

/// How much cycle skipping a simulator has done, across every run: how
/// often a repeating state was found, and how many whole cycles and
/// steps were advanced without stepping. Counts of simulated work, so
/// deterministic; snapshots carry them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Task boundaries at which a repeat of an earlier state was found.
    pub cycles_detected: u64,
    /// Whole cycles advanced without stepping.
    pub cycles_skipped: u64,
    /// Steps those cycles would have taken.
    pub steps_skipped: u64,
}

/// A key to re-check one cycle after a jump (debug builds).
#[derive(Debug)]
struct Check {
    /// The step count one cycle after the jump.
    at: u64,
    /// The jump's steady bound: past it the cycle may change.
    before: SimTime,
    /// `cycles_skipped` after the jump, so a later jump voids the check.
    skipped: u64,
    key: CycleKey,
}

/// Detection state for one `run_limited` call. It lives on the call's
/// stack, not in the device state, so snapshots never see it.
#[derive(Debug)]
pub(super) struct Skipper {
    /// The step count from which boundaries are fingerprinted;
    /// `u64::MAX` once the context or the policy declared no steady
    /// state.
    pub(super) from: u64,
    /// The key of the current boundary.
    key: CycleKey,
    /// Brent's saved key, and where it was taken: the start of the cycle
    /// the power system is taping.
    saved: CycleKey,
    saved_steps: u64,
    saved_now: SimTime,
    /// Distance from the saved key at which it is replaced.
    reach: u64,
    /// The end of the steady window the saved key lies in. Zero before
    /// the first fingerprint, so that one starts detection.
    window_end: SimTime,
    /// The tape's buffers while the power system is not recording.
    tape: CycleTape,
    check: Option<Check>,
}

impl Skipper {
    /// A skipper that waits out the warm-up; it allocates nothing until
    /// its first fingerprint.
    pub(super) fn new() -> Self {
        Self {
            from: WARMUP_BOUNDARIES,
            key: CycleKey::default(),
            saved: CycleKey::default(),
            saved_steps: 0,
            saved_now: SimTime::ZERO,
            reach: FIRST_REACH,
            window_end: SimTime::ZERO,
            tape: CycleTape::default(),
            check: None,
        }
    }

    /// Ends the call: the power system stops taping.
    pub(super) fn finish<H: Harvester>(self, power: &mut PowerSystem<H>) {
        let _ = power.take_tape();
    }
}

impl<H: Harvester, C: SimContext> State<H, C> {
    /// Called at every task boundary from the warm-up on, with the step
    /// count of this call; returns how many steps a jump advanced.
    // Kept out of line: the step loop around its call stays as compact
    // as it is for a run that never fingerprints.
    #[inline(never)]
    pub(super) fn cycle_boundary(
        &mut self,
        s: &mut Skipper,
        limits: &RunLimits,
        steps: u64,
    ) -> u64 {
        self.power.end_taped_step();
        if !self.steady_state(&mut Cycle::key(&mut s.key)) {
            s.from = u64::MAX;
            let _ = self.power.take_tape();
            return 0;
        }
        if cfg!(debug_assertions) {
            self.check_jump(s, steps);
        }
        if self.now >= s.window_end {
            self.restart(s, steps);
            return 0;
        }
        if s.key.same_state(&s.saved) && self.now > s.saved_now {
            self.skips.cycles_detected += 1;
            let skipped = self.jump(s, limits, steps);
            // Detection starts afresh from where the cycles ended, with
            // the counters they reached.
            self.steady_state(&mut Cycle::key(&mut s.key));
            self.restart(s, steps + skipped);
            return skipped;
        }
        if steps - s.saved_steps >= s.reach {
            self.save(s, steps, (s.reach * 2).min(MAX_CYCLE_STEPS));
        }
        0
    }

    /// Saves the current key as Brent's reference, to be replaced
    /// `reach` steps on, and starts taping the cycle that begins here.
    /// The power system watches for leaking banks from here too: a bank
    /// that stays open until a later key repeats this one has only
    /// leaked, so that key does not compare its voltage, and the jump
    /// replays the taped leaks on it.
    fn save(&mut self, s: &mut Skipper, steps: u64, reach: u64) {
        self.power.watch_leaks();
        s.saved.clone_from(&s.key);
        s.saved_steps = steps;
        s.saved_now = self.now;
        s.reach = reach;
        let tape = self
            .power
            .take_tape()
            .unwrap_or_else(|| mem::take(&mut s.tape));
        self.power.record_cycle(tape);
    }

    /// Starts detection afresh from the current key, in the steady
    /// window that opens here.
    fn restart(&mut self, s: &mut Skipper, steps: u64) {
        s.window_end = self
            .power
            .harvester()
            .valid_until(self.now)
            .min(self.ctx.steady_until(self.now));
        self.save(s, steps, FIRST_REACH);
    }

    /// Advances as many whole repetitions of the cycle from the saved
    /// key to this boundary as every bound allows; returns the steps
    /// advanced.
    fn jump(&mut self, s: &mut Skipper, limits: &RunLimits, steps: u64) -> u64 {
        let cycle_steps = steps - s.saved_steps;
        let period = self.now - s.saved_now;
        let steady = self
            .power
            .steady_until(self.now, s.saved_now)
            .min(s.window_end);
        let until = limits.max_sim.map_or(steady, |end| steady.min(end));
        // Whole cycles whose last boundary, now + k·period, stays before
        // `until`: stepping stops at the first boundary at or past the
        // horizon, and must not reach the window end or a fault.
        let room = until
            .as_micros()
            .saturating_sub(self.now.as_micros())
            .saturating_sub(1);
        let mut cycles = (room / period.as_micros()).min(u64::MAX / cycle_steps);
        if let Some(max) = limits.max_steps {
            // Stepping trips the budget at step `max`; stay below it.
            cycles = cycles.min((max - steps - 1) / cycle_steps);
        }
        let tape = self
            .power
            .take_tape()
            .expect("the saved key's cycle is taped");
        let cycles = self
            .power
            .replay_cycles(&tape, cycles, self.now, limits.max_energy);
        s.tape = tape;
        if cycles == 0 {
            return 0;
        }
        let mut adv = Cycle::advance(&s.saved, &s.key, s.saved_now, period, cycles);
        self.steady_state(&mut adv);
        adv.finish();
        let skipped = cycles * cycle_steps;
        self.skips.cycles_skipped += cycles;
        self.skips.steps_skipped += skipped;
        if cfg!(debug_assertions) {
            s.check = Some(Check {
                at: steps + skipped + cycle_steps,
                before: steady,
                skipped: self.skips.cycles_skipped,
                key: s.key.clone(),
            });
        }
        skipped
    }

    /// One cycle after a jump, the state must be back on the jump's key,
    /// unless the cycle crossed the jump's steady bound or another jump
    /// came first. The idiom of the kernel's cache-hit checks: debug
    /// builds step that cycle and compare.
    fn check_jump(&self, s: &mut Skipper, steps: u64) {
        let Some(check) = s.check.take_if(|c| c.at == steps) else {
            return;
        };
        if check.skipped == self.skips.cycles_skipped && self.now < check.before {
            assert!(
                s.key.same_state(&check.key),
                "a skipped cycle did not repeat: the state one cycle after the jump \
                 differs from the state the jump ended on (at {})",
                self.now
            );
        }
    }

    /// Visits the whole device state's steady state at a boundary (see
    /// [`capy_units::cycle`]), or returns `false` when the context or the
    /// policy declares none. Every field is one of: keyed; an instant or
    /// index that moves with the cycle (`now`, `decided_at`); an output
    /// log (`events`, `trace`), of which the on-path pauses since the
    /// last decision are keyed, since the next decision reads them; or
    /// the skip counters, which count jumps and are neither. An advance
    /// leaves the delivered-energy total and the leaking banks to
    /// [`PowerSystem::replay_cycles`], which runs first.
    fn steady_state(&mut self, c: &mut Cycle<'_>) -> bool {
        let Self {
            power,
            machine,
            modes,
            runtime,
            ctx,
            now,
            on,
            needs_charge,
            stalled,
            consecutive_failures,
            events,
            decided_at,
            trace,
            degradation,
            policy,
            skips: _,
        } = self;
        if !ctx.steady_state(c) || !policy.steady_state(c) {
            return false;
        }
        power.steady_state(*now, c);
        machine.steady_state(c);
        modes.steady_state(c);
        runtime.steady_state(c);
        for flag in [*on, *needs_charge, *stalled, *degradation] {
            c.word(u64::from(flag));
        }
        c.word(u64::from(*consecutive_failures));
        let pauses = || {
            events[*decided_at..]
                .iter()
                .filter_map(SimEvent::on_path_pause)
        };
        c.word(pauses().count() as u64);
        for pause in pauses() {
            c.span(pause);
        }
        let end = events.len();
        let from = c.log(events, SimEvent::shifted);
        // The last decision moves with the cycle if the cycle made it.
        if *decided_at >= from {
            *decided_at += events.len() - end;
        }
        if let Some(trace) = trace {
            c.log(trace, |(t, v), d| (t + d, v));
        }
        c.instant(now);
        true
    }
}
