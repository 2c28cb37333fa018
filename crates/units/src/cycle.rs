//! Steady-state cycles: how a simulator recognises that its state
//! repeats from one task boundary to a later one, and how it then
//! advances that state by whole cycles without stepping them.
//!
//! Every part of the state has one steady-state function that visits
//! its fields through a [`Cycle`], in a fixed order. The same function
//! both keys the part and advances it, so the two cannot visit the
//! fields in different orders. A part visits four kinds of value:
//!
//! * **words**, which decide what happens next (voltage bits, a task
//!   pointer, a latch age). Two boundaries behave the same from then on
//!   only if their words are equal, so keys compare words exactly.
//! * **counters**, which only accumulate (statistics, completion
//!   counts). They never decide behaviour, so keys do not compare them.
//!   A part whose counter does decide behaviour writes what it decides
//!   on (say, the count modulo a period) as a word too.
//! * **instants** the part stores (a clock, a latch refresh), which the
//!   key leaves out: they only move with the clock.
//! * **output logs**, whose length the key holds as a counter.
//!
//! A word may also be visited as *replayed*: a value nothing reads, that
//! moves only by operations a jump repeats in order (an open bank's
//! voltage, which only leaks). A later key that marks a word replayed
//! does not compare it with the earlier key's.
//!
//! A visit either keys or advances. Keying ([`Cycle::key`]) writes the
//! words and counters into a [`CycleKey`]. Once a recorded cycle has
//! ended on its start key, each counter's per-cycle delta is its end
//! reading minus its start reading, and advancing ([`Cycle::advance`])
//! ignores the words: it adds `k` deltas to each counter, moves each
//! instant by `k` cycle lengths if the cycle wrote it, and extends each
//! log by `k` shifted copies of the entries the cycle appended.

use crate::{SimDuration, SimTime};

/// One state's steady-state key at a task boundary: the words that
/// decide its future and the counters it has accumulated. A
/// [`Cycle::key`] visit writes it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleKey {
    words: Vec<u64>,
    counters: Vec<u64>,
    /// The indices of the replayed words, ascending.
    replayed: Vec<usize>,
}

impl CycleKey {
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

/// One visit of a state's parts at a task boundary: it either writes
/// the state's [`CycleKey`] or advances the state by whole repetitions
/// of a recorded cycle. Every part's steady-state function writes
/// through it, in the same order either way.
#[derive(Debug)]
pub struct Cycle<'a>(Visit<'a>);

#[derive(Debug)]
enum Visit<'a> {
    Key(&'a mut CycleKey),
    Advance(Advance<'a>),
}

/// The state of an advance by `cycles` repetitions.
#[derive(Debug)]
struct Advance<'a> {
    start: &'a [u64],
    end: &'a [u64],
    next: usize,
    since: SimTime,
    cycles: u64,
    period: SimDuration,
    shift: SimDuration,
}

impl<'a> Cycle<'a> {
    /// A visit that writes `key`, emptied first (its buffers are kept).
    pub fn key(key: &'a mut CycleKey) -> Self {
        key.words.clear();
        key.counters.clear();
        key.replayed.clear();
        Self(Visit::Key(key))
    }

    /// A visit that advances by `cycles` repetitions of the cycle that
    /// began at `since`, lasted `period` and led from `start` to `end`
    /// (keys with equal words).
    ///
    /// # Panics
    ///
    /// Panics when the two keys' counters differ in layout, or when
    /// `cycles × period` overflows.
    #[must_use]
    pub fn advance(
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
        Self(Visit::Advance(Advance {
            start: &start.counters,
            end: &end.counters,
            next: 0,
            since,
            cycles,
            period,
            shift: SimDuration::from_micros(shift),
        }))
    }

    /// Visits a word that decides behaviour.
    #[inline]
    pub fn word(&mut self, word: u64) {
        if let Visit::Key(key) = &mut self.0 {
            key.words.push(word);
        }
    }

    /// Visits a float's exact bits as a word.
    #[inline]
    pub fn bits(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Visits a span as a word (in microseconds).
    #[inline]
    pub fn span(&mut self, d: SimDuration) {
        self.word(d.as_micros());
    }

    /// Visits a float's exact bits as a replayed word, which
    /// [`CycleKey::same_state`] does not compare when this key is the
    /// later one.
    #[inline]
    pub fn replayed_bits(&mut self, x: f64) {
        if let Visit::Key(key) = &mut self.0 {
            key.replayed.push(key.words.len());
            key.words.push(x.to_bits());
        }
    }

    /// Visits an accumulating counter: keying writes it; advancing adds
    /// `cycles` per-cycle deltas to it, and it must then still hold its
    /// end-of-cycle reading.
    #[inline]
    pub fn counter(&mut self, count: &mut u64) {
        match &mut self.0 {
            Visit::Key(key) => key.counters.push(*count),
            Visit::Advance(adv) => adv.counter(count),
        }
    }

    /// Visits a stored instant, which the key leaves out. Advancing
    /// moves it by `cycles` cycle lengths if the recorded cycle wrote it
    /// (it lies at or after the cycle's start), since every repetition
    /// writes it again one period later; an instant written before the
    /// cycle stays where it is.
    #[inline]
    pub fn instant(&mut self, t: &mut SimTime) {
        if let Visit::Advance(adv) = &mut self.0 {
            if *t >= adv.since {
                *t += adv.shift;
            }
        }
    }

    /// Visits an output log, whose length is a counter. Advancing
    /// appends `cycles` copies of the entries the recorded cycle
    /// appended, the `j`-th moved by `j` periods through `shift`, one
    /// push at a time as stepping grows it. Returns the index at which
    /// the recorded cycle's entries begin; keying returns the length.
    pub fn log<T: Copy>(&mut self, log: &mut Vec<T>, shift: impl Fn(T, SimDuration) -> T) -> usize {
        match &mut self.0 {
            Visit::Key(key) => {
                key.counters.push(log.len() as u64);
                log.len()
            }
            Visit::Advance(adv) => adv.log(log, shift),
        }
    }

    /// Ends the visit.
    ///
    /// # Panics
    ///
    /// Panics when an advance visited fewer counters than its keys hold.
    pub fn finish(self) {
        if let Visit::Advance(adv) = self.0 {
            assert_eq!(
                adv.next,
                adv.end.len(),
                "a cycle advance left counters behind"
            );
        }
    }
}

impl Advance<'_> {
    fn counter(&mut self, count: &mut u64) {
        let i = self.next_counter(*count);
        let delta = self.end[i].wrapping_sub(self.start[i]);
        *count = count.wrapping_add(self.cycles.wrapping_mul(delta));
    }

    fn log<T: Copy>(&mut self, log: &mut Vec<T>, shift: impl Fn(T, SimDuration) -> T) -> usize {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed(visit: impl FnOnce(&mut Cycle<'_>)) -> CycleKey {
        let mut key = CycleKey::default();
        let mut c = Cycle::key(&mut key);
        visit(&mut c);
        c.finish();
        key
    }

    #[test]
    fn keys_compare_words_not_counters() {
        let a = keyed(|c| {
            c.word(7);
            c.bits(1.5);
            c.counter(&mut 10);
        });
        let mut b = keyed(|c| {
            c.word(7);
            c.bits(1.5);
            c.counter(&mut 99);
        });
        assert!(a.same_state(&b));
        let mut c = Cycle::key(&mut b);
        c.word(7);
        c.bits(-1.5);
        c.counter(&mut 99);
        assert!(!a.same_state(&b));
    }

    #[test]
    fn a_later_key_skips_only_the_words_it_replays() {
        let key = |v: f64, replayed: bool| {
            keyed(|c| {
                c.word(1);
                if replayed {
                    c.replayed_bits(v);
                } else {
                    c.bits(v);
                }
                c.word(2);
            })
        };
        assert!(key(0.5, true).same_state(&key(0.7, false)));
        assert!(key(0.5, true).same_state(&key(0.7, true)));
        assert!(!key(0.5, false).same_state(&key(0.7, true)));
        assert!(key(0.5, false).same_state(&key(0.5, true)));
        let longer = keyed(|c| {
            c.word(1);
            c.bits(0.5);
            c.word(2);
            c.word(3);
        });
        assert!(!key(0.5, true).same_state(&longer));
    }

    #[test]
    fn advance_adds_whole_deltas_and_shifts_instants() {
        let start = keyed(|c| {
            c.counter(&mut 5);
            c.counter(&mut 3);
        });
        let end = keyed(|c| {
            c.counter(&mut 8);
            c.counter(&mut 3);
        });
        let since = SimTime::from_secs(1);
        let mut adv = Cycle::advance(&start, &end, since, SimDuration::from_millis(250), 4);
        let (mut a, mut b) = (8, 3);
        let mut written = SimTime::from_secs(2);
        let mut older = SimTime::from_micros(500_000);
        adv.counter(&mut a);
        adv.counter(&mut b);
        adv.instant(&mut written);
        adv.instant(&mut older);
        adv.finish();
        assert_eq!((a, b), (8 + 4 * 3, 3));
        assert_eq!(written, SimTime::from_secs(3));
        assert_eq!(older, SimTime::from_micros(500_000));
    }

    #[test]
    fn advance_extends_a_log_by_shifted_copies_of_the_cycle() {
        let mut log = vec![1_u64, 10, 12];
        let start = keyed(|c| c.counter(&mut 1));
        let end = keyed(|c| c.counter(&mut (log.len() as u64)));
        let period = SimDuration::from_micros(5);
        let mut adv = Cycle::advance(&start, &end, SimTime::ZERO, period, 3);
        let from = adv.log(&mut log, |t, d| t + d.as_micros());
        adv.finish();
        assert_eq!(from, 1);
        assert_eq!(log, [1, 10, 12, 15, 17, 20, 22, 25, 27]);
    }

    #[test]
    fn one_visit_keys_and_advances_in_the_same_order() {
        // A part: a word, a counter, an instant and a log.
        let visit = |c: &mut Cycle<'_>, n: &mut u64, t: &mut SimTime, log: &mut Vec<u64>| {
            c.word(42);
            c.counter(n);
            c.instant(t);
            c.log(log, |x, d| x + d.as_micros());
        };
        let (mut n, mut t, mut log) = (2, SimTime::from_micros(3), vec![0_u64, 3]);
        let mut start = CycleKey::default();
        visit(&mut Cycle::key(&mut start), &mut n, &mut t, &mut log);
        n += 5;
        t = SimTime::from_micros(7);
        log.push(7);
        let mut end = CycleKey::default();
        visit(&mut Cycle::key(&mut end), &mut n, &mut t, &mut log);
        assert!(end.same_state(&start));
        let period = SimDuration::from_micros(4);
        let mut adv = Cycle::advance(&start, &end, SimTime::from_micros(3), period, 2);
        visit(&mut adv, &mut n, &mut t, &mut log);
        adv.finish();
        assert_eq!(n, 7 + 2 * 5);
        assert_eq!(t, SimTime::from_micros(15));
        assert_eq!(log, [0, 3, 7, 11, 15]);
    }

    #[test]
    #[should_panic(expected = "out of its key order")]
    fn advance_rejects_a_counter_out_of_order() {
        let start = keyed(|c| c.counter(&mut 1));
        let end = keyed(|c| c.counter(&mut 2));
        let mut adv = Cycle::advance(&start, &end, SimTime::ZERO, SimDuration::from_secs(1), 1);
        let mut wrong = 5;
        adv.counter(&mut wrong);
    }
}
