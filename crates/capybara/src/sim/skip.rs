//! Steady-state cycle skipping inside [`Simulator::run_limited`].
//!
//! Under steady harvest a duty-cycled device settles into a loop that
//! repeats its state exactly: the same bank voltage bits, latch ages,
//! task pointer, runtime and policy state at the same point of every
//! cycle. The run fingerprints that state at each task boundary
//! ([`State::cycle_key`]), finds a repeat with Brent's method (one saved
//! key, replaced at power-of-two distances, so detection memory stays
//! O(1)), steps one more cycle while recording it, and then advances
//! whole cycles at once: instants shift by the cycle length, counters
//! add their per-cycle deltas, the delivered-energy total replays the
//! cycle's additions in order, and the event log gets shifted copies of
//! the cycle's events. Every float keeps the bits stepping would give,
//! so a skipped run is the stepped run, bit for bit.
//!
//! A jump ends before the first of the horizon, the step and energy
//! budgets, the harvester's current segment, the next pending fault and
//! any latch decay the cycle does not cover
//! ([`PowerSystem::steady_until`]). A context or policy that declares no
//! key never skips.
//!
//! [`Simulator::run_limited`]: super::Simulator::run_limited
//! [`PowerSystem::steady_until`]: capy_power::system::PowerSystem::steady_until

use std::mem;

use capy_power::harvester::Harvester;
use capy_power::system::PowerSystem;
use capy_units::cycle::{CycleAdvance, CycleKey};
use capy_units::{Joules, SimDuration, SimTime};

use super::{RunLimits, SimContext, SimEvent, State};

/// Boundaries one `run_limited` call steps before it takes its first
/// fingerprint: a run shorter than this pays nothing for skipping.
const WARMUP_BOUNDARIES: u64 = 32;

/// The longest cycle, in steps, that is recorded and skipped; a longer
/// one is stepped.
const MAX_CYCLE_STEPS: u64 = 1024;

/// The distance at which Brent's first saved key is replaced. Brent's
/// method starts at 1, but a fresh harvester segment opens on a
/// transient whose keys cannot repeat yet; starting at 16 finds a cycle
/// of up to 32 steps that settles within 16 boundaries at its first
/// repeat after the second save (about 17% fewer stepped boundaries on
/// an orbital fleet device than starting at 1).
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

/// The cycle being recorded: where it began.
#[derive(Debug, Clone, Copy)]
struct Recording {
    /// Step count (in this call) at the cycle's first boundary.
    steps: u64,
    since: SimTime,
    /// The cycle's length in steps.
    period: u64,
    events_from: usize,
    trace_from: usize,
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

/// Detection and recording state for one `run_limited` call. It lives on
/// the call's stack, not in the device state, so snapshots never see it.
#[derive(Debug)]
pub(super) struct Skipper {
    /// The step count from which boundaries are fingerprinted;
    /// `u64::MAX` once the context or the policy declared no key.
    pub(super) from: u64,
    /// The key of the current boundary.
    key: CycleKey,
    /// Brent's saved key, and where it was taken.
    saved: CycleKey,
    saved_steps: u64,
    saved_now: SimTime,
    /// Distance from the saved key at which it is replaced.
    reach: u64,
    /// The end of the harvester segment the saved key lies in (its
    /// `valid_until` there): harvest is constant until then. Zero before
    /// the first fingerprint, so that one starts detection.
    segment_end: SimTime,
    recording: Option<Recording>,
    /// The key at the recorded cycle's start.
    start: CycleKey,
    /// The delivery-tape length after each recorded step.
    step_ends: Vec<usize>,
    /// The delivery tape's buffer between recordings.
    tape: Vec<Joules>,
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
            segment_end: SimTime::ZERO,
            recording: None,
            start: CycleKey::default(),
            step_ends: Vec::new(),
            tape: Vec::new(),
            check: None,
        }
    }

    /// Ends the call: a recording cut short stops its tape.
    pub(super) fn finish<H: Harvester>(self, power: &mut PowerSystem<H>) {
        if self.recording.is_some() {
            let _ = power.take_deliveries();
        }
    }

    /// Saves the current key as Brent's reference, `reach` steps ahead.
    fn save(&mut self, steps: u64, now: SimTime, reach: u64) {
        self.saved.clone_from(&self.key);
        self.saved_steps = steps;
        self.saved_now = now;
        self.reach = reach;
    }

    /// Starts detection afresh from the current key, in the harvester
    /// segment that ends at `segment_end`.
    fn restart(&mut self, steps: u64, now: SimTime, segment_end: SimTime) {
        self.save(steps, now, FIRST_REACH);
        self.segment_end = segment_end;
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
        if let Some(rec) = s.recording {
            s.step_ends.push(self.power.deliveries_recorded());
            if steps - rec.steps < rec.period {
                return 0;
            }
            s.recording = None;
            let tape = self.power.take_deliveries();
            // The recorded cycle must end on its start key, inside the
            // segment it was detected in, before anything is replayed.
            let repeats = self.cycle_key(&mut s.key)
                && s.key.same_state(&s.start)
                && self.now < s.segment_end;
            let skipped = if repeats {
                self.jump(s, rec, &tape, limits, steps)
            } else {
                0
            };
            s.tape = tape;
            let segment_end = self.power.harvester().valid_until(self.now);
            s.restart(steps + skipped, self.now, segment_end);
            return skipped;
        }

        if !self.cycle_key(&mut s.key) {
            s.from = u64::MAX;
            return 0;
        }
        if cfg!(debug_assertions) {
            self.check_jump(s, steps);
        }
        if self.now >= s.segment_end {
            let segment_end = self.power.harvester().valid_until(self.now);
            s.restart(steps, self.now, segment_end);
            return 0;
        }
        if s.key.same_state(&s.saved) {
            let period = steps - s.saved_steps;
            if self.now > s.saved_now && period <= MAX_CYCLE_STEPS {
                self.skips.cycles_detected += 1;
                s.start.clone_from(&s.key);
                s.step_ends.clear();
                s.recording = Some(Recording {
                    steps,
                    since: self.now,
                    period,
                    events_from: self.events.len(),
                    trace_from: self.trace.as_ref().map_or(0, Vec::len),
                });
                self.power.record_deliveries(mem::take(&mut s.tape));
                return 0;
            }
        }
        if steps - s.saved_steps >= s.reach {
            s.save(steps, self.now, s.reach.saturating_mul(2));
        }
        0
    }

    /// Advances as many whole repetitions of the recorded cycle as every
    /// bound allows; returns the steps advanced.
    fn jump(
        &mut self,
        s: &mut Skipper,
        rec: Recording,
        tape: &[Joules],
        limits: &RunLimits,
        steps: u64,
    ) -> u64 {
        let period = self.now - rec.since;
        let steady = self.power.steady_until(self.now, rec.since);
        let until = limits.max_sim.map_or(steady, |end| steady.min(end));
        // Whole cycles whose last boundary, now + k·period, stays before
        // `until`: stepping stops at the first boundary at or past the
        // horizon, and must not reach the segment end or a fault.
        let room = until
            .as_micros()
            .saturating_sub(self.now.as_micros())
            .saturating_sub(1);
        let Some(cycles) = room.checked_div(period.as_micros()) else {
            return 0;
        };
        let mut cycles = cycles.min(u64::MAX / rec.period);
        if let Some(max) = limits.max_steps {
            // Stepping trips the budget at step `max`; stay below it.
            cycles = cycles.min((max - steps - 1) / rec.period);
        }
        let cycles = self
            .power
            .replay_deliveries(tape, &s.step_ends, cycles, limits.max_energy);
        if cycles == 0 {
            return 0;
        }
        let mut adv = CycleAdvance::new(&s.start, &s.key, rec.since, period, cycles);
        self.advance_cycles(&mut adv, rec.events_from, rec.trace_from, period);
        adv.finish();
        self.skips.cycles_skipped += cycles;
        self.skips.steps_skipped += cycles * rec.period;
        let skipped = cycles * rec.period;
        if cfg!(debug_assertions) {
            s.check = Some(Check {
                at: steps + skipped + rec.period,
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

    /// The steady-state key of the whole device state at a boundary (see
    /// [`capy_units::cycle`]), or `false` when the context or the policy
    /// declares none. Every field is one of: keyed; an instant or index
    /// the advance shifts (`now`, `decided_at`); an output log the
    /// advance extends (`events`, `trace`), of which the on-path pauses
    /// since the last decision are keyed, since the next decision reads
    /// them; or the skip counters, which count jumps and are neither.
    fn cycle_key(&self, key: &mut CycleKey) -> bool {
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
            trace: _,
            degradation,
            policy,
            skips: _,
        } = self;
        key.clear();
        if !ctx.cycle_key(key) || !policy.cycle_key(key) {
            return false;
        }
        power.cycle_key(*now, key);
        machine.cycle_key(key);
        modes.cycle_key(key);
        runtime.cycle_key(key);
        for flag in [*on, *needs_charge, *stalled, *degradation] {
            key.word(u64::from(flag));
        }
        key.word(u64::from(*consecutive_failures));
        let pauses = || {
            events[*decided_at..]
                .iter()
                .filter_map(SimEvent::on_path_pause)
        };
        key.word(pauses().count() as u64);
        for pause in pauses() {
            key.span(pause);
        }
        true
    }

    /// Advances the state by `adv.cycles()` repetitions of the recorded
    /// cycle, which logged `events[events_from..]` and
    /// `trace[trace_from..]`, in [`State::cycle_key`]'s order. The
    /// delivered-energy total was replayed before.
    fn advance_cycles(
        &mut self,
        adv: &mut CycleAdvance<'_>,
        events_from: usize,
        trace_from: usize,
        period: SimDuration,
    ) {
        let Self {
            power,
            machine,
            modes: _,
            runtime: _,
            ctx,
            now,
            on: _,
            needs_charge: _,
            stalled: _,
            consecutive_failures: _,
            events,
            decided_at,
            trace,
            degradation: _,
            policy: _,
            skips: _,
        } = self;
        ctx.advance_cycles(adv);
        power.advance_cycles(adv);
        machine.advance_cycles(adv);
        adv.instant(now);
        let logged = repeat_tail(events, events_from, adv.cycles(), period, SimEvent::shifted);
        // The last decision moves with the cycle if the cycle made it.
        if *decided_at >= events_from {
            *decided_at += logged;
        }
        if let Some(trace) = trace {
            repeat_tail(trace, trace_from, adv.cycles(), period, |(t, v), d| {
                (t + d, v)
            });
        }
    }
}

/// Appends `cycles` copies of `log[from..]`, the `j`-th shifted by `j`
/// periods, growing the log as pushes do; returns how many entries were
/// appended.
fn repeat_tail<T: Copy>(
    log: &mut Vec<T>,
    from: usize,
    cycles: u64,
    period: SimDuration,
    shift: impl Fn(T, SimDuration) -> T,
) -> usize {
    let end = log.len();
    let mut offset = SimDuration::ZERO;
    for _ in 0..cycles {
        offset += period;
        for i in from..end {
            let entry = shift(log[i], offset);
            log.push(entry);
        }
    }
    log.len() - end
}
