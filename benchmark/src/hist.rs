//! A dependency-free log-linear histogram of `u64` samples.
//!
//! Values below 64 have a bucket each, so they are recorded exactly. From
//! 64 upward every power of two is split into 32 equal sub-buckets, which
//! bounds the relative error of a reported quantile by 1/32 (3.125 %).
//! Quantiles interpolate linearly inside a bucket, the unit-wide ones
//! included: a sample `v` counts as spread over `v..v+1`, so a quantile of
//! small counts moves smoothly with the distribution instead of jumping
//! between integers, and is never exactly 0.

/// Values below this are recorded exactly.
const EXACT: u64 = 64;
/// Sub-buckets per power of two from [`EXACT`] upward.
const SUB: u64 = 32;
const SUB_BITS: u32 = SUB.trailing_zeros();
const EXACT_BITS: u32 = EXACT.trailing_zeros();
const BUCKETS: usize = EXACT as usize + (64 - EXACT_BITS as usize) * SUB as usize;

#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
    (EXACT + u64::from(exp - EXACT_BITS) * SUB + sub) as usize
}

/// Lowest value and width of bucket `idx`.
fn bucket_range(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < EXACT {
        return (idx, 1);
    }
    let exp = (idx - EXACT) / SUB + u64::from(EXACT_BITS);
    let sub = (idx - EXACT) % SUB;
    let width = 1u64 << (exp - u64::from(SUB_BITS));
    ((1u64 << exp) + sub * width, width)
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The value below which a share `q` (0..=1) of the samples lie; 0.0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (below + count) as f64 >= rank {
                let (lo, width) = bucket_range(idx);
                let inside = (rank - below as f64) / count as f64;
                return lo as f64 + inside * width as f64;
            }
            below += count;
        }
        unreachable!("rank never exceeds the total");
    }
}

/// Median of a set of per-trial values (mean of the middle two for an even
/// count); 0.0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_64_every_value_has_its_own_bucket() {
        for v in 0..64u64 {
            assert_eq!(bucket_range(bucket_of(v)), (v, 1));
            let mut h = Histogram::new();
            for _ in 0..4 {
                h.record(v);
            }
            assert_eq!(h.count(), 4);
            // The samples count as spread over v..v+1.
            assert_eq!(h.quantile(0.0), v as f64);
            assert_eq!(h.quantile(0.5), v as f64 + 0.5);
            assert_eq!(h.quantile(1.0), v as f64 + 1.0);
        }
        assert_eq!(Histogram::new().quantile(0.5), 0.0, "empty");
    }

    #[test]
    fn small_counts_move_smoothly() {
        // 70 % zeros, 20 % fives, 10 % sixes: the median sits inside the
        // zero bucket, the 90th percentile at the top of the five bucket.
        let mut h = Histogram::new();
        for (value, count) in [(0, 70), (5, 20), (6, 10)] {
            for _ in 0..count {
                h.record(value);
            }
        }
        assert!((h.quantile(0.5) - 50.0 / 70.0).abs() < 1e-12);
        assert_eq!(h.quantile(0.9), 6.0);
        assert_eq!(h.quantile(0.8), 5.5);
    }

    #[test]
    fn buckets_tile_the_range() {
        let mut next = 0u64;
        for idx in 0..BUCKETS {
            let (lo, width) = bucket_range(idx);
            assert_eq!(lo, next, "bucket {idx} starts where the last ended");
            assert_eq!(bucket_of(lo), idx);
            assert_eq!(bucket_of(lo + (width - 1)), idx);
            next = lo.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket ends at 2^64");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_above_64_is_bounded() {
        for v in [
            64u64,
            65,
            100,
            999,
            4_097,
            1 << 20,
            123_456_789,
            u64::MAX / 3,
        ] {
            let mut h = Histogram::new();
            h.record(v);
            let got = h.quantile(0.5);
            let err = (got - v as f64).abs() / v as f64;
            assert!(err <= 0.032, "value {v} read back as {got} (error {err})");
        }
    }

    #[test]
    fn interpolates_inside_a_bucket() {
        // 1024..1056 is one bucket of width 32.
        let (lo, width) = bucket_range(bucket_of(1024));
        assert_eq!((lo, width), (1024, 32));
        let mut h = Histogram::new();
        for _ in 0..4 {
            h.record(1030);
        }
        assert_eq!(h.quantile(0.25), 1024.0 + 8.0);
        assert_eq!(h.quantile(0.5), 1024.0 + 16.0);
        assert_eq!(h.quantile(1.0), 1024.0 + 32.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..10 {
            a.record(v);
        }
        for v in 10..20 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 20);
        assert_eq!(a.quantile(0.5), 10.0);
        assert_eq!(a.quantile(1.0), 20.0);
    }

    #[test]
    fn median_of_values() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
