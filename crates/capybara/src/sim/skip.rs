//! Steady-state cycle skipping inside [`Simulator::run_limited`].
//!
//! Under steady harvest a duty-cycled device settles into a loop that
//! repeats its state exactly: the same bank voltage bits, latch ages,
//! task pointer, runtime and policy state at the same point of every
//! cycle. The run fingerprints that state at each task boundary
//! ([`State::steady_state`]) and finds a repeat with Brent's method: one
//! saved key, replaced at power-of-two distances up to the longest cycle
//! it skips, so detection memory stays O(1). The power system keeps one
//! tape of what a jump must replay rather than match, and the saved key
//! holds a mark on it ([`PowerSystem::mark_tape`]). When the saved key
//! repeats, the run advances whole cycles at once: instants shift by the
//! cycle length, counters add their per-cycle deltas, the
//! delivered-energy total replays the additions taped since the mark in
//! order, every leaking bank replays the leaks taped since the mark in
//! order, and each output log gets shifted copies of the cycle's
//! entries. The same function that fingerprints the state advances it.
//! Every float keeps the bits stepping would give, so a skipped run is
//! the stepped run, bit for bit.
//!
//! Detection runs inside a *steady window*, from a restart to the first
//! of the harvester's segment end and the context's
//! [`SimContext::steady_until`], inside which everything the loop reads
//! from outside the device is constant. A bank that stays open from
//! the saved key on only leaks, and nothing reads its voltage, so the
//! repeating key does not compare that voltage
//! ([`PowerSystem::steady_state`]) and the jump replays its leaks.
//!
//! **Orbits.** A harvest that changes inside every period, like an
//! orbit's day and night, opens a new window at each edge, and Brent's
//! search starts over in each. But when the harvester declares a period
//! `P` ([`Harvester::period`]), the run keeps each window opening of the
//! last period as a start like the saved key's: key, instant, step count
//! and mark. The tape then reaches back to the oldest kept opening, and a
//! cycle jump inside the period appends the repetitions it advanced, as
//! stepping would have taped them. When a window opens on the key of the
//! opening exactly `P` earlier, leaking banks watched from that opening,
//! the period between them repeats: the harvest repeats, and so does
//! everything the device decides. The run then advances whole periods
//! the same way, replaying the tape from that opening's mark. A period
//! that tapes more than [`MAX_ORBIT_TAPE`] entries or opens more than
//! [`MAX_OPENINGS`] windows is not jumped: the run forgets its openings.
//!
//! A jump ends before the first of the horizon, the step and energy
//! budgets, the next pending fault and any latch decay the cycle does not
//! cover ([`PowerSystem::steady_until`]), and also before the steady
//! window's end for a cycle, or before the end of the declared period
//! and the context's [`SimContext::steady_until`] at the orbit's start
//! for an orbit. A context or policy that declares no steady state never
//! skips.
//!
//! [`Simulator::run_limited`]: super::Simulator::run_limited
//! [`SimContext::steady_until`]: super::SimContext::steady_until
//! [`PowerSystem::steady_state`]: capy_power::system::PowerSystem::steady_state
//! [`PowerSystem::steady_until`]: capy_power::system::PowerSystem::steady_until
//! [`PowerSystem::mark_tape`]: capy_power::system::PowerSystem::mark_tape
//! [`Harvester::period`]: capy_power::harvester::Harvester::period

use capy_power::harvester::Harvester;
use capy_power::system::{PowerSystem, TapeMark};
use capy_units::cycle::{Cycle, CycleKey};
use capy_units::{SimDuration, SimTime};

use super::{RunLimits, SimContext, SimEvent, State};

/// Boundaries one `run_limited` call steps before it takes its first
/// fingerprint: a run shorter than this pays nothing for skipping.
const WARMUP_BOUNDARIES: u64 = 32;

/// The longest cycle, in steps, that is skipped, and the farthest Brent's
/// saved key reaches, so no cycle tapes more steps than this.
const MAX_CYCLE_STEPS: u64 = 1024;

/// The distance at which Brent's first saved key is replaced. Brent's
/// method starts at 1, but a fresh steady window opens on a transient
/// whose keys cannot repeat yet; starting at 16 finds a cycle of up to
/// 32 steps that settles within 16 boundaries at its first repeat after
/// the second save (about 17% fewer stepped boundaries on an orbital
/// fleet device than starting at 1).
const FIRST_REACH: u64 = 16;

/// The most entries ([`PowerSystem::taped_since`]) the tape may hold
/// from the oldest kept opening on. A 60 s orbit of the orbital fleet
/// device tapes about a thousand.
const MAX_ORBIT_TAPE: usize = 1 << 15;

/// The most window openings kept for one period. The orbital fleet
/// device opens two per orbit, four with a dip.
const MAX_OPENINGS: usize = 64;

/// How much cycle skipping a simulator has done, across every run: how
/// often a repeating state was found, and how many whole cycles and
/// steps were advanced without stepping. Counts of simulated work, so
/// deterministic; snapshots carry them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Task boundaries at which a repeat of an earlier state was found.
    pub cycles_detected: u64,
    /// Whole cycles advanced without stepping, orbits included.
    pub cycles_skipped: u64,
    /// Whole periods of a periodic harvest advanced by orbit jumps.
    pub orbits_skipped: u64,
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
    /// `cycles_skipped` after a cycle's jump, so a later jump voids the
    /// check; `None` after an orbit's, which the exact jumps inside the
    /// next orbit leave standing.
    skipped: Option<u64>,
    key: CycleKey,
}

/// A boundary a repeat can start from: Brent's saved one, or a window
/// opening inside a declared period.
#[derive(Debug, Default)]
struct Start {
    key: CycleKey,
    at: SimTime,
    /// The call's step count there.
    steps: u64,
    /// The power system's tape there, which a jump replays from, and
    /// the leak watch for a repeat from here.
    mark: TapeMark,
}

/// A window opening inside a declared period: where an orbit can start.
#[derive(Debug, Default)]
struct Opening {
    start: Start,
    /// The context's [`SimContext::steady_until`] there.
    ctx_until: SimTime,
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
    /// Brent's saved start: the cycle that a repeat of its key closes.
    saved: Start,
    /// Distance from the saved key at which it is replaced.
    reach: u64,
    /// The end of the steady window the saved key lies in. Zero before
    /// the first fingerprint, so that one starts detection.
    window_end: SimTime,
    /// The period the harvester declared at the last opening (zero:
    /// none), and the openings of the last such period, oldest first.
    period: SimDuration,
    openings: Vec<Opening>,
    /// Dropped openings, whose keys the next ones reuse.
    spare: Vec<Opening>,
    check: Option<Check>,
    orbit_check: Option<Check>,
}

impl Skipper {
    /// A skipper that waits out the warm-up; it allocates nothing until
    /// its first fingerprint.
    pub(super) fn new() -> Self {
        Self {
            from: WARMUP_BOUNDARIES,
            key: CycleKey::default(),
            saved: Start::default(),
            reach: FIRST_REACH,
            window_end: SimTime::ZERO,
            period: SimDuration::ZERO,
            openings: Vec::new(),
            spare: Vec::new(),
            check: None,
            orbit_check: None,
        }
    }

    /// Ends the call: the power system stops taping.
    pub(super) fn finish<H: Harvester>(self, power: &mut PowerSystem<H>) {
        power.stop_taping();
    }

    /// Drops every kept opening: no orbit can start at one.
    fn forget_openings(&mut self) {
        self.spare.append(&mut self.openings);
    }

    /// Keeps the openings only while the tape from the oldest on, with
    /// `more` entries added (`None`: too many to count), stays within
    /// [`MAX_ORBIT_TAPE`]: a period that tapes more is not jumped.
    /// Returns whether any opening is still kept.
    fn cap_orbit<H: Harvester>(&mut self, power: &PowerSystem<H>, more: Option<usize>) -> bool {
        let Some(first) = self.openings.first() else {
            return false;
        };
        let fits = more
            .and_then(|n| n.checked_add(power.taped_since(first.start.mark)))
            .is_some_and(|n| n <= MAX_ORBIT_TAPE);
        if !fits {
            self.forget_openings();
        }
        fits
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
        s.cap_orbit(&self.power, Some(0));
        let opening = self.now >= s.window_end;
        let orbit_until = if opening { self.find_orbit(s) } else { None };
        if !self.steady_state(&mut Cycle::key(&mut s.key)) {
            s.from = u64::MAX;
            self.power.stop_taping();
            return 0;
        }
        if cfg!(debug_assertions) {
            self.check_jump(s, steps);
        }
        if opening {
            let skipped = match orbit_until {
                Some(until) if s.key.same_state(&s.openings[0].start.key) => {
                    self.skips.cycles_detected += 1;
                    self.jump_orbit(s, limits, steps, until)
                }
                _ => 0,
            };
            if skipped > 0 {
                self.steady_state(&mut Cycle::key(&mut s.key));
            }
            if s.period > SimDuration::ZERO {
                self.keep_opening(s, steps + skipped);
            }
            self.restart(s, steps + skipped);
            return skipped;
        }
        if s.key.same_state(&s.saved.key) && self.now > s.saved.at {
            self.skips.cycles_detected += 1;
            let skipped = self.jump(s, limits, steps);
            // Detection starts afresh from where the cycles ended, with
            // the counters they reached.
            self.steady_state(&mut Cycle::key(&mut s.key));
            self.restart(s, steps + skipped);
            return skipped;
        }
        if steps - s.saved.steps >= s.reach {
            self.save(s, steps, (s.reach * 2).min(MAX_CYCLE_STEPS));
        }
        0
    }

    /// Sets `start` to this boundary, keyed `key`, and marks the tape.
    fn start_here(&mut self, start: &mut Start, key: &CycleKey, steps: u64) {
        start.key.clone_from(key);
        start.at = self.now;
        start.steps = steps;
        start.mark = self.power.mark_tape();
    }

    /// Saves the current key as Brent's reference, to be replaced
    /// `reach` steps on; the cycle that begins here is taped from its
    /// mark. The power system watches for leaking banks from here too:
    /// a bank that stays open until a later key repeats this one has
    /// only leaked, so that key does not compare its voltage, and the
    /// jump replays the taped leaks on it. The tape keeps nothing older
    /// than a jump may replay.
    fn save(&mut self, s: &mut Skipper, steps: u64, reach: u64) {
        self.start_here(&mut s.saved, &s.key, steps);
        self.power.watch_leaks(s.saved.mark);
        s.reach = reach;
        // The saved start is never older than the last kept opening.
        let oldest = s.openings.first().map_or(&s.saved, |o| &o.start);
        self.power.tape_from(oldest.mark);
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

    /// At a window opening, before it is keyed: keeps only the openings
    /// of the period the harvester declares now. When the oldest lies
    /// exactly one period back, watches leaking banks from it, so this
    /// opening's key can be compared with its key, and returns the end
    /// of the declared period.
    fn find_orbit(&mut self, s: &mut Skipper) -> Option<SimTime> {
        let (period, until) = self
            .power
            .harvester()
            .period(self.now)
            .unwrap_or((SimDuration::ZERO, SimTime::ZERO));
        if period != s.period {
            s.forget_openings();
            s.period = period;
        }
        let from = self.now.as_micros().checked_sub(period.as_micros())?;
        let stale = s
            .openings
            .partition_point(|o| o.start.at.as_micros() < from);
        s.spare.extend(s.openings.drain(..stale));
        let first = &s.openings.first()?.start;
        (first.at.as_micros() == from).then(|| {
            self.power.watch_leaks(first.mark);
            until
        })
    }

    /// Keeps this opening, keyed, for the orbits that may start here.
    fn keep_opening(&mut self, s: &mut Skipper, steps: u64) {
        if s.openings.len() >= MAX_OPENINGS {
            s.forget_openings();
        }
        let mut opening = s.spare.pop().unwrap_or_default();
        self.start_here(&mut opening.start, &s.key, steps);
        opening.ctx_until = self.ctx.steady_until(self.now);
        s.openings.push(opening);
    }

    /// Advances as many whole repetitions of the cycle from the saved
    /// key to this boundary as every bound allows; returns the steps
    /// advanced. Inside a kept period the tape gets the repetitions
    /// appended, as stepping would have taped them, unless that takes
    /// the period past the cap; then the period is not jumped.
    fn jump(&mut self, s: &mut Skipper, limits: &RunLimits, steps: u64) -> u64 {
        let cycle_steps = steps - s.saved.steps;
        let steady = self
            .power
            .steady_until(self.now, s.saved.at)
            .min(s.window_end);
        let cycles = self.repeat(&s.saved, &s.key, steady, limits, steps);
        if cycles == 0 {
            return 0;
        }
        let taped = usize::try_from(cycles)
            .ok()
            .and_then(|k| self.power.taped_since(s.saved.mark).checked_mul(k));
        if s.cap_orbit(&self.power, taped) {
            self.power.repeat_tape(s.saved.mark, cycles);
        }
        let skipped = cycles * cycle_steps;
        if cfg!(debug_assertions) {
            s.check = Some(Check {
                at: steps + skipped + cycle_steps,
                before: steady,
                skipped: Some(self.skips.cycles_skipped),
                key: s.key.clone(),
            });
        }
        skipped
    }

    /// Advances as many whole periods from the oldest kept opening, one
    /// period back, to this one as every bound allows, replaying the
    /// tape from that opening on; `until` ends the declared period.
    /// Returns the steps advanced. The kept openings are then out of
    /// date.
    fn jump_orbit(
        &mut self,
        s: &mut Skipper,
        limits: &RunLimits,
        steps: u64,
        until: SimTime,
    ) -> u64 {
        let first = &s.openings[0];
        let orbit_steps = steps - first.start.steps;
        let steady = self
            .power
            .steady_until(self.now, first.start.at)
            .min(first.ctx_until)
            .min(until);
        // An orbit jump runs to its bound, past which the re-check one
        // period on cannot compare; so debug builds leave the last period
        // that fits to stepping when two or more fit.
        let period = self.now - first.start.at;
        let mut jump_until = steady;
        if cfg!(debug_assertions) && self.now + period + period < steady {
            jump_until = steady - period;
        }
        let orbits = self.repeat(&first.start, &s.key, jump_until, limits, steps);
        if orbits == 0 {
            return 0;
        }
        s.forget_openings();
        self.skips.orbits_skipped += orbits;
        let skipped = orbits * orbit_steps;
        if cfg!(debug_assertions) {
            s.orbit_check = Some(Check {
                at: steps + skipped + orbit_steps,
                before: steady,
                skipped: None,
                key: s.key.clone(),
            });
        }
        skipped
    }

    /// Advances whole repetitions of the cycle that began at `start` and
    /// ends here on `end`, as many as fit before `steady`, the horizon
    /// and the step and energy budgets, replaying the tape from `start`'s
    /// mark. Returns the repetitions applied.
    fn repeat(
        &mut self,
        start: &Start,
        end: &CycleKey,
        steady: SimTime,
        limits: &RunLimits,
        steps: u64,
    ) -> u64 {
        let period = self.now - start.at;
        let cycle_steps = steps - start.steps;
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
        let cycles = self
            .power
            .replay_cycles(start.mark, cycles, self.now, limits.max_energy);
        if cycles == 0 {
            return 0;
        }
        let mut adv = Cycle::advance(&start.key, end, start.at, period, cycles);
        self.steady_state(&mut adv);
        adv.finish();
        self.skips.cycles_skipped += cycles;
        self.skips.steps_skipped += cycles * cycle_steps;
        cycles
    }

    /// One cycle after a jump, the state must be back on the jump's key,
    /// unless the cycle crossed the jump's steady bound or another jump
    /// came first; one period after an orbit's jump likewise, whatever
    /// jumps came inside that period. The idiom of the kernel's
    /// cache-hit checks: debug builds step that cycle and compare.
    fn check_jump(&self, s: &mut Skipper, steps: u64) {
        for check in [&mut s.check, &mut s.orbit_check] {
            let Some(check) = check.take_if(|c| c.at == steps) else {
                continue;
            };
            let standing = check.skipped.is_none_or(|n| n == self.skips.cycles_skipped);
            if standing && self.now < check.before {
                assert!(
                    s.key.same_state(&check.key),
                    "a skipped cycle did not repeat: the state one cycle after the jump \
                     differs from the state the jump ended on (at {})",
                    self.now
                );
            }
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
