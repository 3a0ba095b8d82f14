//! Order statistics: percentiles inside a round, quartiles across rounds,
//! and a continuous quantile read off the simulator's bucketed histogram.

use eirene_sim::CycleHistogram;

/// Nearest-rank percentile of ascending `sorted` samples (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and returns their nearest-rank percentile.
pub fn percentile_of(mut samples: Vec<f64>, q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile(&samples, q)
}

/// Quartiles of a metric's per-round values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// The cut points Python's `statistics.quantiles(values, n=4)` returns
    /// (exclusive method), so a spread computed here equals the one the
    /// acceptance driver computes from the same values. One value is its
    /// own quartiles; none gives zeros.
    pub fn of(values: &[f64]) -> Quartiles {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let m = v.len();
        if m < 2 {
            let x = v.first().copied().unwrap_or(0.0);
            return Quartiles {
                q1: x,
                median: x,
                q3: x,
            };
        }
        let cut = |i: usize| {
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Quartiles {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quantile of a [`CycleHistogram`], interpolated linearly inside the
/// bucket that holds it. `CycleHistogram::quantile` answers with the bucket
/// midpoint, which reads the same for every run whose quantile stays in one
/// 3 %-wide bucket; the bucket counts are private, so the cumulative shares
/// at the bucket's two edges are found by bisecting that public step
/// function.
pub fn hist_quantile(h: &CycleHistogram, q: f64) -> f64 {
    if h.is_empty() {
        return 0.0;
    }
    let mid = h.quantile(q);
    let (lo, hi) = CycleHistogram::bucket_bounds(CycleHistogram::bucket_index(mid));
    // Largest share whose quantile is still below / still inside the bucket.
    let edge = |inside: &dyn Fn(u64) -> bool, mut a: f64, mut b: f64| {
        for _ in 0..48 {
            let p = (a + b) / 2.0;
            if inside(h.quantile(p)) {
                a = p;
            } else {
                b = p;
            }
        }
        a
    };
    let below = if h.quantile(0.0) < mid {
        edge(&|v| v < mid, 0.0, q)
    } else {
        0.0
    };
    let through = edge(&|v| v <= mid, q, 1.0);
    let frac = if through > below {
        (q - below) / (through - below)
    } else {
        0.5
    };
    let x = lo as f64 + frac.clamp(0.0, 1.0) * (hi + 1 - lo) as f64;
    x.clamp(h.min() as f64, h.max() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile_of(vec![3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&ten);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert!((q.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_of_rounds_ignores_one_bad_round() {
        let q = Quartiles::of(&[10.0, 10.2, 9.9, 55.0, 10.1]);
        assert_eq!(q.median, 10.1);
        let single = Quartiles::of(&[7.0]);
        assert_eq!((single.q1, single.median, single.q3), (7.0, 7.0, 7.0));
        assert_eq!(single.spread(), 0.0);
    }

    #[test]
    fn hist_quantile_interpolates_inside_the_bucket() {
        // 1000 values spread evenly over one octave-16 bucket [1024, 1087]
        // and its neighbours: the midpoint estimate is flat inside a
        // bucket, the interpolated one is not.
        let mut h = CycleHistogram::new();
        for v in 1000..2000u64 {
            h.record(v);
        }
        let a = hist_quantile(&h, 0.50);
        let b = hist_quantile(&h, 0.51);
        assert!((a - 1500.0).abs() < 4.0, "p50 {a}");
        assert!(b > a, "p51 {b} must exceed p50 {a}");
        assert_eq!(h.quantile(0.50), h.quantile(0.51));
        // Stays inside the exact extrema.
        assert!(hist_quantile(&h, 0.0) >= 1000.0);
        assert!(hist_quantile(&h, 1.0) <= 1999.0);
        assert_eq!(hist_quantile(&CycleHistogram::new(), 0.5), 0.0);
    }
}
