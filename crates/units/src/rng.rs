//! Deterministic pseudo-random numbers for stochastic models and tests.
//!
//! The simulator's stochastic components (Poisson event schedules, BLE
//! packet loss, randomized robustness tests) all draw from [`DetRng`], a
//! small self-contained xoshiro256++ generator seeded explicitly by the
//! caller. Keeping the generator in-repo — instead of depending on an
//! external `rand` — guarantees that every experiment is reproducible
//! bit-for-bit from its seed alone, on any toolchain, forever: there is
//! no upstream crate whose stream could change under us.
//!
//! Every constructor takes an explicit seed. There is deliberately no
//! `from_entropy`/`thread_rng` equivalent: a seed that does not appear in
//! the experiment configuration is a reproducibility bug.
//!
//! # Examples
//!
//! ```
//! use capy_units::rng::DetRng;
//!
//! let mut rng = DetRng::seed_from_u64(7);
//! let x = rng.gen_f64();
//! assert!((0.0..1.0).contains(&x));
//! let n = rng.gen_range(5u64..400);
//! assert!((5..400).contains(&n));
//!
//! // Same seed, same stream.
//! let mut a = DetRng::seed_from_u64(42);
//! let mut b = DetRng::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

use core::ops::Range;

use crate::cycle::Cycle;

/// SplitMix64 step: used to expand a 64-bit seed into generator state and
/// to derive statistically independent child seeds (e.g. one seed per
/// sweep point from a base seed).
#[must_use]
pub fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from `base` and `index`, so each member of a
/// family of runs (sweep points, worker shards, per-run models) owns an
/// independent deterministic stream.
#[must_use]
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut s = base ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
    split_mix64(&mut s)
}

/// A deterministic xoshiro256++ pseudo-random generator.
///
/// Not cryptographically secure — it models physical noise and drives
/// tests, nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            split_mix64(&mut sm),
            split_mix64(&mut sm),
            split_mix64(&mut sm),
            split_mix64(&mut sm),
        ];
        Self { s }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform sample from `range`; see [`SampleRange`] for the
    /// supported range types. Panics on an empty range.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Sample {
        range.sample(self)
    }

    /// Forks an independent child generator; the parent stream advances
    /// by one draw.
    pub fn fork(&mut self) -> DetRng {
        DetRng::seed_from_u64(self.next_u64())
    }

    /// Visits the generator's steady state (see [`crate::cycle`]): every
    /// state word, since the stream ahead depends on all of them.
    pub fn steady_state(&self, c: &mut Cycle<'_>) {
        for &word in &self.s {
            c.word(word);
        }
    }
}

/// Range types [`DetRng::gen_range`] can sample uniformly.
pub trait SampleRange {
    /// The sampled value type.
    type Sample;
    /// Draws one uniform sample from the range.
    fn sample(self, rng: &mut DetRng) -> Self::Sample;
}

impl SampleRange for Range<f64> {
    type Sample = f64;
    fn sample(self, rng: &mut DetRng) -> f64 {
        assert!(self.start < self.end, "empty range {:?}", self);
        let span = self.end - self.start;
        // Clamp guards the (theoretically unreachable) rounding case
        // where start + u * span == end.
        let v = self.start + rng.gen_f64() * span;
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Sample = $t;
            fn sample(self, rng: &mut DetRng) -> $t {
                assert!(self.start < self.end, "empty range {:?}", self);
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                // Rejection-free modulo is fine for the simulator's
                // non-adversarial spans (bias < 2^-32 for spans < 2^32).
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_int_range!(u64, usize, u32, i64, i32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(123);
        let mut b = DetRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_stays_in_unit_interval_and_covers_it() {
        let mut rng = DetRng::seed_from_u64(7);
        let (mut lo, mut hi) = (1.0f64, 0.0f64);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x), "x = {x}");
            lo = lo.min(x);
            hi = hi.max(x);
        }
        assert!(lo < 0.01, "lo = {lo}");
        assert!(hi > 0.99, "hi = {hi}");
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut rng = DetRng::seed_from_u64(11);
        let mean = (0..50_000).map(|_| rng.gen_f64()).sum::<f64>() / 50_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn int_ranges_stay_in_bounds_and_hit_endpoints() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let n = rng.gen_range(5u64..12);
            assert!((5..12).contains(&n));
            seen_lo |= n == 5;
            seen_hi |= n == 11;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn usize_and_signed_ranges_work() {
        let mut rng = DetRng::seed_from_u64(4);
        for _ in 0..1_000 {
            let u = rng.gen_range(0usize..4);
            assert!(u < 4);
            let i = rng.gen_range(-10i64..10);
            assert!((-10..10).contains(&i));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = DetRng::seed_from_u64(5);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = DetRng::seed_from_u64(6);
        let _ = rng.gen_range(3.0f64..3.0);
    }

    #[test]
    fn derive_seed_is_stable_and_spread() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = DetRng::seed_from_u64(9);
        let mut child = parent.fork();
        let mut parent2 = DetRng::seed_from_u64(9);
        let mut child2 = parent2.fork();
        assert_eq!(child.next_u64(), child2.next_u64());
        assert_ne!(child.next_u64(), parent.next_u64());
    }
}
