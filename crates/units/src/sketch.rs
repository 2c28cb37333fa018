//! A mergeable streaming quantile sketch over integer microsecond
//! values.
//!
//! Fleet-scale aggregation (`capybara::fleet` in the main crate) folds
//! millions of per-device latencies into one bounded structure per
//! worker and merges the per-worker results. Two properties make that
//! sound:
//!
//! * **Fixed, integer-only state.** The sketch is a log-linear
//!   histogram ("HDR" binning): a value's bucket is computed from its
//!   bit pattern alone (`leading_zeros` + a fixed number of mantissa
//!   bits), never from floating-point `log`, so recording is
//!   bit-deterministic on every host.
//! * **Merge is elementwise `u64` addition** plus `min`/`max`, which is
//!   commutative and associative — the merged sketch is identical for
//!   any partition of the input and any merge order, the property the
//!   fleet engine's worker-count-independence rests on.
//!
//! # Error bound
//!
//! Each power of two is split into `2^SUB_BITS = 16` equal-width
//! buckets, so a bucket's width is at most `2^-4 = 6.25 %` of its lower
//! edge. Quantile queries return the bucket *midpoint*, giving a
//! relative error of at most **3.2 %** for values ≥ 16 µs; values below
//! `2^SUB_BITS` µs occupy one bucket each and are exact. The sketch
//! additionally tracks the exact `min` and `max`, and quantile results
//! are clamped into `[min, max]`, so the extreme quantiles are exact.
//!
//! # Examples
//!
//! ```
//! use capy_units::sketch::QuantileSketch;
//!
//! let mut a = QuantileSketch::new();
//! let mut b = QuantileSketch::new();
//! for v in 1..=1000u64 {
//!     if v % 2 == 0 { a.record(v) } else { b.record(v) }
//! }
//! let mut merged = a.clone();
//! merged.merge(&b);
//! let p50 = merged.quantile(0.5).unwrap();
//! assert!((470..=530).contains(&p50));
//! assert_eq!(merged.quantile(1.0), Some(1000)); // max is exact
//! ```

/// Sub-bucket resolution: each power of two is split into
/// `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 4;
const SUBS: u64 = 1 << SUB_BITS;
/// Bucket count covering every non-zero `u64`: values below
/// `2^(SUB_BITS + 1)` are exact (one bucket per value), and each of the
/// remaining `63 - SUB_BITS` octaves contributes `SUBS` buckets.
const BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + (1 << SUB_BITS);

/// The bucket index of a non-zero value. Continuous at the exact/
/// binned boundary: for `v < 2^(SUB_BITS + 1)` the index is `v` itself.
fn bucket_of(v: u64) -> usize {
    debug_assert!(v > 0);
    let e = 63 - v.leading_zeros();
    if e <= SUB_BITS {
        return v as usize;
    }
    let sub = (v >> (e - SUB_BITS)) & (SUBS - 1);
    ((((e - SUB_BITS + 1) as u64) << SUB_BITS) | sub) as usize
}

/// The representative (midpoint) value of bucket `i` — the inverse of
/// [`bucket_of`] up to the documented error bound.
fn representative(i: usize) -> u64 {
    let i = i as u64;
    if i < 2 * SUBS {
        return i;
    }
    let e = (i >> SUB_BITS) + u64::from(SUB_BITS) - 1;
    let sub = i & (SUBS - 1);
    let width = 1u64 << (e - u64::from(SUB_BITS));
    let lower = (1u64 << e) | (sub * width);
    lower + width / 2
}

/// A mergeable log-linear histogram over `u64` values (the fleet
/// convention: durations in integer microseconds). See the module docs
/// for the determinism and error-bound guarantees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Zero values, counted apart (they have no binary exponent).
    zeros: u64,
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self {
            zeros: 0,
            counts: vec![0; BUCKETS],
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        if v == 0 {
            self.zeros += 1;
        } else {
            self.counts[bucket_of(v)] += 1;
        }
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += u128::from(v);
    }

    /// Folds `other` into `self`: elementwise addition, so the result
    /// is independent of partition and merge order.
    pub fn merge(&mut self, other: &Self) {
        self.zeros += other.zeros;
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The exact smallest recorded value, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// The exact largest recorded value, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// The mean of the recorded values (exact integer sum over count),
    /// or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by the repo's nearest-rank
    /// convention (`round((n − 1) · q)`), within the documented 3.2 %
    /// relative error, clamped into the exact `[min, max]`. `None` when
    /// empty.
    ///
    /// # Panics
    ///
    /// When `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.total == 0 {
            return None;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = ((self.total - 1) as f64 * q).round() as u64;
        if rank < self.zeros {
            return Some(0);
        }
        let mut seen = self.zeros;
        for (i, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen > rank {
                return Some(representative(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The sketch's heap + inline footprint in bytes — constant,
    /// independent of how many values were recorded (the fleet memory
    /// bound test pins this).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.counts.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..32u64 {
            s.record(v);
        }
        assert_eq!(s.quantile(0.0), Some(0));
        assert_eq!(s.quantile(1.0), Some(31));
        // Values below 2^(SUB_BITS+1) occupy one bucket each.
        for v in 1..32u64 {
            let mut one = QuantileSketch::new();
            one.record(v);
            assert_eq!(one.quantile(0.5), Some(v));
        }
    }

    #[test]
    fn bucket_and_representative_are_consistent() {
        let mut rng = DetRng::seed_from_u64(17);
        for _ in 0..10_000 {
            let v = rng.next_u64() >> (rng.next_u64() % 60);
            if v == 0 {
                continue;
            }
            let b = bucket_of(v);
            let r = representative(b);
            // The representative lands in the same bucket…
            assert_eq!(bucket_of(r), b, "v={v} b={b} r={r}");
            // …and within the documented relative error bound.
            #[allow(clippy::cast_precision_loss)]
            let rel = (r as f64 - v as f64).abs() / v as f64;
            assert!(rel <= 1.0 / 16.0, "v={v} r={r} rel={rel}");
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut s = QuantileSketch::new();
        let mut rng = DetRng::seed_from_u64(3);
        let mut values: Vec<u64> = (0..5_000)
            .map(|_| rng.gen_range(16u64..10_000_000))
            .collect();
        for &v in &values {
            s.record(v);
        }
        values.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.99] {
            #[allow(
                clippy::cast_precision_loss,
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss
            )]
            let exact = values[((values.len() - 1) as f64 * q).round() as usize];
            let got = s.quantile(q).unwrap();
            #[allow(clippy::cast_precision_loss)]
            let rel = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(rel <= 0.032, "q={q} exact={exact} got={got} rel={rel}");
        }
        assert_eq!(s.quantile(0.0), Some(*values.first().unwrap()));
        assert_eq!(s.quantile(1.0), Some(*values.last().unwrap()));
    }

    #[test]
    fn merge_is_partition_independent() {
        let mut rng = DetRng::seed_from_u64(7);
        let values: Vec<u64> = (0..2_000).map(|_| rng.next_u64() % 1_000_000).collect();

        let mut serial = QuantileSketch::new();
        for &v in &values {
            serial.record(v);
        }

        // Three shards, merged in both orders.
        let mut shards = [
            QuantileSketch::new(),
            QuantileSketch::new(),
            QuantileSketch::new(),
        ];
        for (i, &v) in values.iter().enumerate() {
            shards[i % 3].record(v);
        }
        let mut fwd = QuantileSketch::new();
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = QuantileSketch::new();
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(serial, fwd);
        assert_eq!(serial, rev);
    }

    #[test]
    fn footprint_is_independent_of_count() {
        let mut small = QuantileSketch::new();
        small.record(1);
        let mut big = QuantileSketch::new();
        let mut rng = DetRng::seed_from_u64(9);
        for _ in 0..100_000 {
            big.record(rng.next_u64() % 1_000_000_000);
        }
        assert_eq!(small.footprint_bytes(), big.footprint_bytes());
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut s = QuantileSketch::new();
        for v in [10u64, 20, 30] {
            s.record(v);
        }
        assert_eq!(s.min(), Some(10));
        assert_eq!(s.max(), Some(30));
        assert!((s.mean().unwrap() - 20.0).abs() < 1e-12);
        assert!(QuantileSketch::new().quantile(0.5).is_none());
    }
}
