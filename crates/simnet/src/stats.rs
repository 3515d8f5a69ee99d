//! Measurement utilities: streaming summary statistics and a log-bucketed
//! latency histogram.
//!
//! The histogram follows the HDR-histogram idea — exponential major buckets
//! each split into linear sub-buckets — giving a bounded relative error
//! (~1.6% with 32 sub-buckets) over the full `u64` nanosecond range while
//! using a fixed, small amount of memory. The paper reports p99.99 tails
//! (Fig. 8, Fig. 13), which reservoir sampling would estimate poorly.

use crate::time::SimDuration;

/// Number of linear sub-buckets per power-of-two major bucket.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

/// Streaming count/mean/min/max accumulator.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Log-bucketed histogram over `u64` values (nanoseconds by convention).
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max_value: u64,
    min_value: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram covering the full `u64` range.
    pub fn new() -> Self {
        // Major buckets for each leading-bit position above SUB_BITS, plus
        // one linear region for values < SUB_BUCKETS.
        let majors = 64 - SUB_BITS as usize;
        LatencyHistogram {
            counts: vec![0; (majors + 1) * SUB_BUCKETS],
            total: 0,
            max_value: 0,
            min_value: u64::MAX,
        }
    }

    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros(); // >= SUB_BITS
        let major = (msb - SUB_BITS + 1) as usize;
        let shift = msb - SUB_BITS;
        let sub = ((value >> shift) - SUB_BUCKETS as u64) as usize; // 0..SUB_BUCKETS
        major * SUB_BUCKETS + sub
    }

    /// Upper bound of the bucket containing `value` (the value reported for
    /// quantiles falling in that bucket).
    fn bucket_upper(index: usize) -> u64 {
        let major = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if major == 0 {
            return sub;
        }
        let shift = (major - 1) as u32;
        ((SUB_BUCKETS as u64 + sub + 1) << shift) - 1
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let idx = Self::index_of(value);
        self.counts[idx] += 1;
        self.total += 1;
        self.max_value = self.max_value.max(value);
        self.min_value = self.min_value.min(value);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max_value)
    }

    /// Exact minimum recorded value.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min_value)
    }

    /// Value at quantile `q` in `[0, 1]`, with the histogram's relative
    /// error. Returns `None` when empty.
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper(i).min(self.max_value));
            }
        }
        Some(self.max_value)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        debug_assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        if other.total > 0 {
            self.max_value = self.max_value.max(other.max_value);
            self.min_value = self.min_value.min(other.min_value);
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The tail percentiles the paper reports, extracted in one shot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// 99.99th percentile (the paper's headline tail metric).
    pub p9999: f64,
}

impl Percentiles {
    /// Reads the standard percentile set from a histogram, in microseconds.
    /// Returns `None` if the histogram is empty.
    pub fn from_histogram_us(h: &LatencyHistogram) -> Option<Percentiles> {
        let q = |q: f64| h.value_at_quantile(q).map(|ns| ns as f64 / 1_000.0);
        Some(Percentiles {
            p50: q(0.50)?,
            p90: q(0.90)?,
            p99: q(0.99)?,
            p999: q(0.999)?,
            p9999: q(0.9999)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), None);
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), Some(2.5));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn summary_merge() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        a.record(1.0);
        b.record(9.0);
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Some(9.0));
        assert_eq!(a.mean(), Some(5.0));
        let empty = Summary::new();
        a.merge(&empty);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(31));
        // Values below SUB_BUCKETS land in exact buckets.
        assert_eq!(h.value_at_quantile(1.0 / 32.0), Some(0));
        assert_eq!(h.value_at_quantile(1.0), Some(31));
    }

    #[test]
    fn histogram_relative_error_bounded() {
        let mut h = LatencyHistogram::new();
        let vals = [
            1_000u64,
            25_000,
            130_000,
            999_999,
            5_000_000,
            123_456_789,
            u64::from(u32::MAX) * 7,
        ];
        for &v in &vals {
            let mut solo = LatencyHistogram::new();
            solo.record(v);
            let est = solo.value_at_quantile(0.5).unwrap();
            let rel = (est as f64 - v as f64).abs() / v as f64;
            assert!(rel < 0.04, "value {v} estimated {est} rel err {rel}");
            h.record(v);
        }
        assert_eq!(h.count(), vals.len() as u64);
    }

    #[test]
    fn histogram_quantiles_ordered() {
        let mut h = LatencyHistogram::new();
        for i in 1..=100_000u64 {
            h.record(i * 10);
        }
        let p = Percentiles::from_histogram_us(&h).unwrap();
        assert!(p.p50 <= p.p90 && p.p90 <= p.p99 && p.p99 <= p.p999 && p.p999 <= p.p9999);
        // p50 of 10..1_000_000 uniform should be near 500_000ns = 500us.
        assert!((p.p50 - 500.0).abs() / 500.0 < 0.05, "p50={}", p.p50);
        assert!(
            (p.p99 - 9_900.0 / 10.0).abs() / 990.0 < 0.05,
            "p99={}",
            p.p99
        );
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for i in 0..1000u64 {
            let v = i * i + 17;
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            };
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        for q in [0.1, 0.5, 0.9, 0.99, 0.9999] {
            assert_eq!(a.value_at_quantile(q), c.value_at_quantile(q));
        }
        assert_eq!(a.max(), c.max());
    }

    #[test]
    fn empty_histogram_returns_none() {
        let h = LatencyHistogram::new();
        assert_eq!(h.value_at_quantile(0.5), None);
        assert_eq!(h.max(), None);
        assert!(Percentiles::from_histogram_us(&h).is_none());
    }

    #[test]
    fn quantile_never_exceeds_true_max() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_003);
        assert_eq!(h.value_at_quantile(1.0), Some(1_000_003));
        assert!(h.value_at_quantile(0.5).unwrap() <= 1_000_003);
    }
}
