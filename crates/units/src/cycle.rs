//! Steady-state cycle keys: how a simulator recognises that its state
//! repeats from one task boundary to a later one, and how it then
//! advances that state by whole cycles without stepping them.
//!
//! At a boundary, every part of the state writes itself into a
//! [`CycleKey`] in a fixed order. A part writes two kinds of value:
//!
//! * **words**, which decide what happens next (voltage bits, a task
//!   pointer, a latch age). Two boundaries behave the same from then on
//!   only if their words are equal, so keys compare words exactly.
//! * **counters**, which only accumulate (statistics, completion
//!   counts). They never decide behaviour, so keys do not compare them.
//!   A part whose counter does decide behaviour writes what it decides
//!   on (say, the count modulo a period) as a word too.
//!
//! A word may also be written as *replayed*: a value nothing reads, that
//! moves only by operations a jump repeats in order (an open bank's
//! voltage, which only leaks). A later key that marks a word replayed
//! does not compare it with the earlier key's.
//!
//! Once a recorded cycle has ended on its start key, each counter's
//! per-cycle delta is its end reading minus its start reading. A
//! [`CycleAdvance`] then walks the parts in the same order as the key:
//! each adds `k` deltas to its counters, moves each instant it stores by
//! `k` cycle lengths, if the cycle wrote that instant, and extends each
//! output log (whose length it keyed as a counter) by `k` shifted copies
//! of the entries the cycle appended.

use crate::{SimDuration, SimTime};

/// One state's steady-state key at a task boundary: the words that
/// decide its future and the counters it has accumulated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleKey {
    words: Vec<u64>,
    counters: Vec<u64>,
    /// The indices of the replayed words, ascending.
    replayed: Vec<usize>,
}

impl CycleKey {
    /// Empties the key and keeps its buffers.
    pub fn clear(&mut self) {
        self.words.clear();
        self.counters.clear();
        self.replayed.clear();
    }

    /// Appends a word that decides behaviour.
    pub fn word(&mut self, word: u64) {
        self.words.push(word);
    }

    /// Appends a float's exact bits as a word.
    pub fn bits(&mut self, x: f64) {
        self.words.push(x.to_bits());
    }

    /// Appends a float's exact bits as a replayed word, which
    /// [`CycleKey::same_state`] does not compare when this key is the
    /// later one.
    pub fn replayed_bits(&mut self, x: f64) {
        self.replayed.push(self.words.len());
        self.words.push(x.to_bits());
    }

    /// Appends a span as a word (in microseconds).
    pub fn span(&mut self, d: SimDuration) {
        self.words.push(d.as_micros());
    }

    /// Appends an accumulating counter.
    pub fn counter(&mut self, count: u64) {
        self.counters.push(count);
    }

    /// `true` when this key's state behaves from here on as the
    /// `earlier` key's did: equal words, apart from the words this key
    /// marks replayed, and counters of the same layout. Both keys write
    /// the same layout up to their first differing word, so a replayed
    /// word always faces the same value's bits.
    #[must_use]
    pub fn same_state(&self, earlier: &Self) -> bool {
        if self.words.len() != earlier.words.len() || self.counters.len() != earlier.counters.len()
        {
            return false;
        }
        let mut from = 0;
        for &i in &self.replayed {
            if self.words[from..i] != earlier.words[from..i] {
                return false;
            }
            from = i + 1;
        }
        self.words[from..] == earlier.words[from..]
    }
}

/// Advances a state by `cycles` repetitions of a recorded cycle. Every
/// part visits its counters and instants in the order it wrote its key.
#[derive(Debug)]
pub struct CycleAdvance<'a> {
    start: &'a [u64],
    end: &'a [u64],
    next: usize,
    since: SimTime,
    cycles: u64,
    period: SimDuration,
    shift: SimDuration,
}

impl<'a> CycleAdvance<'a> {
    /// An advance by `cycles` repetitions of the cycle that began at
    /// `since`, lasted `period` and led from `start` to `end` (keys with
    /// equal words).
    ///
    /// # Panics
    ///
    /// Panics when the two keys' counters differ in layout, or when
    /// `cycles × period` overflows.
    #[must_use]
    pub fn new(
        start: &'a CycleKey,
        end: &'a CycleKey,
        since: SimTime,
        period: SimDuration,
        cycles: u64,
    ) -> Self {
        assert_eq!(
            start.counters.len(),
            end.counters.len(),
            "cycle keys with different counter layouts"
        );
        let shift = period
            .as_micros()
            .checked_mul(cycles)
            .expect("a cycle advance stays inside the simulated clock");
        Self {
            start: &start.counters,
            end: &end.counters,
            next: 0,
            since,
            cycles,
            period,
            shift: SimDuration::from_micros(shift),
        }
    }

    /// How many whole cycles the advance skips.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Moves a stored instant by `cycles` cycle lengths if the recorded
    /// cycle wrote it (it lies at or after the cycle's start), since
    /// every repetition writes it again one period later. An instant
    /// written before the cycle stays where it is.
    pub fn instant(&mut self, t: &mut SimTime) {
        if *t >= self.since {
            *t += self.shift;
        }
    }

    /// Adds `cycles` per-cycle deltas to the next counter in key order.
    /// The counter must still hold its end-of-cycle reading.
    pub fn counter(&mut self, count: &mut u64) {
        let i = self.next_counter(*count);
        let delta = self.end[i].wrapping_sub(self.start[i]);
        *count = count.wrapping_add(self.cycles.wrapping_mul(delta));
    }

    /// Extends an output log whose length is the next counter in key
    /// order: appends `cycles` copies of the entries the recorded cycle
    /// appended, the `j`-th moved by `j` periods through `shift`, one
    /// push at a time as stepping grows it. Returns the index at which
    /// the recorded cycle's entries begin.
    pub fn log<T: Copy>(&mut self, log: &mut Vec<T>, shift: impl Fn(T, SimDuration) -> T) -> usize {
        let i = self.next_counter(log.len() as u64);
        let from = usize::try_from(self.start[i]).expect("a keyed log length fits in memory");
        let end = log.len();
        let mut offset = SimDuration::ZERO;
        for _ in 0..self.cycles {
            offset += self.period;
            for k in from..end {
                let entry = shift(log[k], offset);
                log.push(entry);
            }
        }
        from
    }

    /// The index of the next counter, which must read `count` (its
    /// end-of-cycle reading).
    fn next_counter(&mut self, count: u64) -> usize {
        let i = self.next;
        self.next += 1;
        assert_eq!(
            count, self.end[i],
            "counter {i} visited out of its key order"
        );
        i
    }

    /// Checks that every counter of the key was advanced.
    ///
    /// # Panics
    ///
    /// Panics when some part advanced fewer counters than it keyed.
    pub fn finish(self) {
        assert_eq!(
            self.next,
            self.end.len(),
            "a cycle advance left counters behind"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_compare_words_not_counters() {
        let mut a = CycleKey::default();
        let mut b = CycleKey::default();
        a.word(7);
        a.bits(1.5);
        a.counter(10);
        b.word(7);
        b.bits(1.5);
        b.counter(99);
        assert!(a.same_state(&b));
        b.clear();
        b.word(7);
        b.bits(-1.5);
        b.counter(99);
        assert!(!a.same_state(&b));
    }

    #[test]
    fn a_later_key_skips_only_the_words_it_replays() {
        let key = |v: f64, replayed: bool| {
            let mut k = CycleKey::default();
            k.word(1);
            if replayed {
                k.replayed_bits(v);
            } else {
                k.bits(v);
            }
            k.word(2);
            k
        };
        assert!(key(0.5, true).same_state(&key(0.7, false)));
        assert!(key(0.5, true).same_state(&key(0.7, true)));
        assert!(!key(0.5, false).same_state(&key(0.7, true)));
        assert!(key(0.5, false).same_state(&key(0.5, true)));
        let mut longer = key(0.5, false);
        longer.word(3);
        assert!(!key(0.5, true).same_state(&longer));
    }

    #[test]
    fn advance_adds_whole_deltas_and_shifts_instants() {
        let mut start = CycleKey::default();
        let mut end = CycleKey::default();
        start.counter(5);
        start.counter(3);
        end.counter(8);
        end.counter(3);
        let since = SimTime::from_secs(1);
        let mut adv = CycleAdvance::new(&start, &end, since, SimDuration::from_millis(250), 4);
        let (mut a, mut b) = (8, 3);
        let mut written = SimTime::from_secs(2);
        let mut older = SimTime::from_micros(500_000);
        adv.counter(&mut a);
        adv.counter(&mut b);
        adv.instant(&mut written);
        adv.instant(&mut older);
        assert_eq!(adv.cycles(), 4);
        adv.finish();
        assert_eq!((a, b), (8 + 4 * 3, 3));
        assert_eq!(written, SimTime::from_secs(3));
        assert_eq!(older, SimTime::from_micros(500_000));
    }

    #[test]
    fn advance_extends_a_log_by_shifted_copies_of_the_cycle() {
        let mut start = CycleKey::default();
        let mut end = CycleKey::default();
        let mut log = vec![1_u64, 10, 12];
        start.counter(1);
        end.counter(log.len() as u64);
        let period = SimDuration::from_micros(5);
        let mut adv = CycleAdvance::new(&start, &end, SimTime::ZERO, period, 3);
        let from = adv.log(&mut log, |t, d| t + d.as_micros());
        adv.finish();
        assert_eq!(from, 1);
        assert_eq!(log, [1, 10, 12, 15, 17, 20, 22, 25, 27]);
    }

    #[test]
    #[should_panic(expected = "out of its key order")]
    fn advance_rejects_a_counter_out_of_order() {
        let mut start = CycleKey::default();
        let mut end = CycleKey::default();
        start.counter(1);
        end.counter(2);
        let mut adv = CycleAdvance::new(&start, &end, SimTime::ZERO, SimDuration::from_secs(1), 1);
        let mut wrong = 5;
        adv.counter(&mut wrong);
    }
}
