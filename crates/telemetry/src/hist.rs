//! Bounded log-linear latency histogram.
//!
//! Replaces the unbounded `request_cycles: Vec<u64>` per-warp recording:
//! memory is O(buckets) instead of O(requests), and merging two warps'
//! stats is a bounded element-wise add instead of a vector concatenation.
//!
//! Bucketing is log-linear with 16 sub-buckets per power-of-two octave:
//! values below 32 get exact unit-width buckets; above that, a value with
//! most significant bit `m` lands in one of 16 equal-width buckets within
//! its octave. Quantiles are reported at the bucket midpoint, so the
//! worst-case relative quantile error is 1/32 ≈ 3.2%. Count, sum, min,
//! and max are additionally tracked exactly, which keeps derived averages
//! and the paper's §8.2 QoS variance identical to the old exact-vector
//! implementation.

const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS; // 16 sub-buckets per octave
const LINEAR_MAX: u64 = 2 * SUB; // exact buckets for v < 32

/// Maximum number of buckets any u64 value can map to.
pub const MAX_BUCKETS: usize = (2 * SUB + (63 - SUB_BITS as u64 - 1) * SUB + SUB) as usize;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleHistogram {
    /// Lazily grown bucket counts (indexed by [`CycleHistogram::bucket_index`]).
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    /// Exact extrema; `min_raw` is meaningless while `count == 0`.
    min_raw: u64,
    max_raw: u64,
}

impl Default for CycleHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl CycleHistogram {
    pub fn new() -> Self {
        CycleHistogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min_raw: u64::MAX,
            max_raw: 0,
        }
    }

    /// Bucket index for a value (log-linear; monotone in `v`).
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v < LINEAR_MAX {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros() as u64;
        let within = (v >> (msb - SUB_BITS as u64)) - SUB;
        (2 * SUB + (msb - SUB_BITS as u64 - 1) * SUB + within) as usize
    }

    /// Inclusive `(low, high)` value bounds of a bucket.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        let i = index as u64;
        if i < LINEAR_MAX {
            return (i, i);
        }
        let octave = (i - LINEAR_MAX) / SUB;
        let pos = (i - LINEAR_MAX) % SUB;
        let shift = octave + 1; // msb - SUB_BITS
        let low = (SUB + pos) << shift;
        (low, low + (1 << shift) - 1)
    }

    /// Midpoint representative reported for quantiles in this bucket.
    fn representative(index: usize) -> u64 {
        let (low, high) = Self::bucket_bounds(index);
        low + (high - low) / 2
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = Self::bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min_raw = self.min_raw.min(v);
        self.max_raw = self.max_raw.max(v);
    }

    pub fn merge(&mut self, other: &CycleHistogram) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min_raw = self.min_raw.min(other.min_raw);
        self.max_raw = self.max_raw.max(other.max_raw);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_raw
        }
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> u64 {
        self.max_raw
    }

    /// Exact mean (0 when empty) — matches the old `Vec<u64>` average.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate: the midpoint of the bucket containing the
    /// `ceil(q * count)`-th smallest recorded value, clamped to the exact
    /// observed `[min, max]`. Monotone in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::representative(idx).clamp(self.min_raw, self.max_raw);
            }
        }
        self.max_raw
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_index_is_monotone_and_exact_below_32() {
        for v in 0..LINEAR_MAX {
            assert_eq!(CycleHistogram::bucket_index(v), v as usize);
            let (lo, hi) = CycleHistogram::bucket_bounds(v as usize);
            assert_eq!((lo, hi), (v, v));
        }
        let mut prev = 0;
        for shift in 0..58 {
            for base in [32u64, 33, 47, 48, 63] {
                let v = base << shift;
                let idx = CycleHistogram::bucket_index(v);
                assert!(idx >= prev, "bucket index must be monotone");
                prev = idx;
            }
        }
        assert!(CycleHistogram::bucket_index(u64::MAX) < MAX_BUCKETS);
    }

    #[test]
    fn bucket_bounds_partition_the_value_space() {
        // Every bucket's bounds must contain exactly the values that map
        // to it, and consecutive buckets must tile without gaps.
        let mut expected_low = 0u64;
        for idx in 0..CycleHistogram::bucket_index(1 << 20) {
            let (lo, hi) = CycleHistogram::bucket_bounds(idx);
            assert_eq!(lo, expected_low, "gap before bucket {idx}");
            assert_eq!(CycleHistogram::bucket_index(lo), idx);
            assert_eq!(CycleHistogram::bucket_index(hi), idx);
            expected_low = hi + 1;
        }
    }

    #[test]
    fn exact_scalars_match_vec_semantics() {
        let values = [8u64, 10, 12, 1000, 3, 0, 77, 77];
        let mut h = CycleHistogram::new();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.sum(), values.iter().sum::<u64>());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        let exact_avg = values.iter().sum::<u64>() as f64 / values.len() as f64;
        assert_eq!(h.mean(), exact_avg);
    }

    #[test]
    fn quantiles_of_small_exact_values() {
        let mut h = CycleHistogram::new();
        for v in [8u64, 10, 12] {
            h.record(v);
        }
        // All three land in exact unit buckets.
        assert_eq!(h.p50(), 10);
        assert_eq!(h.p999(), 12);
        assert_eq!(h.quantile(0.0), 8);
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        let mut h = CycleHistogram::new();
        let n = 10_000u64;
        for i in 0..n {
            // Deterministic spread across several octaves.
            h.record(100 + (i * 7919) % 100_000);
        }
        let mut exact: Vec<u64> = (0..n).map(|i| 100 + (i * 7919) % 100_000).collect();
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n as usize);
            let want = exact[rank - 1] as f64;
            let got = h.quantile(q) as f64;
            let rel = (got - want).abs() / want;
            assert!(
                rel <= 1.0 / 32.0 + 1e-9,
                "q={q}: got {got}, want {want}, rel {rel}"
            );
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = CycleHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p99(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_quantiles_are_monotone_in_q(
            values in proptest::collection::vec(0u64..1_000_000, 1..500),
        ) {
            let mut h = CycleHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
            for w in qs.windows(2) {
                prop_assert!(
                    h.quantile(w[0]) <= h.quantile(w[1]),
                    "quantile({}) > quantile({})", w[0], w[1]
                );
            }
            prop_assert!(h.quantile(0.0) >= h.min());
            prop_assert!(h.quantile(1.0) <= h.max());
        }

        #[test]
        fn prop_merge_is_associative_and_order_free(
            a in proptest::collection::vec(0u64..1_000_000, 0..200),
            b in proptest::collection::vec(0u64..1_000_000, 0..200),
            c in proptest::collection::vec(0u64..1_000_000, 0..200),
        ) {
            let hist = |vs: &[u64]| {
                let mut h = CycleHistogram::new();
                for &v in vs {
                    h.record(v);
                }
                h
            };
            // (a ⊕ b) ⊕ c
            let mut left = hist(&a);
            left.merge(&hist(&b));
            left.merge(&hist(&c));
            // a ⊕ (b ⊕ c)
            let mut bc = hist(&b);
            bc.merge(&hist(&c));
            let mut right = hist(&a);
            right.merge(&bc);
            prop_assert_eq!(&left, &right);
            // Merge must equal recording everything into one histogram.
            let mut all = a.clone();
            all.extend_from_slice(&b);
            all.extend_from_slice(&c);
            prop_assert_eq!(&left, &hist(&all));
        }
    }
}
