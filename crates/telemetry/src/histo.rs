//! Fixed-bucket log2 latency histogram.
//!
//! 65 power-of-two buckets cover the full `u64` range with no heap and
//! no locks: bucket 0 holds the value 0, bucket `i >= 1` holds values in
//! `[2^(i-1), 2^i - 1]`. Recording is four relaxed atomic RMWs (bucket,
//! count, sum, max) — no allocation, no branching beyond the bucket
//! index computation, safe from any thread.
//!
//! Quantiles are estimated from a [`HistoSnapshot`] as the *upper bound*
//! of the bucket containing the requested rank, clamped to the observed
//! maximum. For a true quantile value `t >= 1` the estimate `e`
//! therefore satisfies `t <= e < 2t`: the log2 scheme trades at most 2x
//! relative error for a record path cheap enough to leave enabled in
//! production.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets: value 0, plus one bucket per power of two.
pub const HISTO_BUCKETS: usize = 65;

/// Bucket index for a recorded value.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

#[derive(Debug)]
struct HistoCell {
    buckets: [AtomicU64; HISTO_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Lock-free log2 histogram handle. Clones share the same cells, so a
/// histogram can be recorded into from a hot path while a registry
/// snapshot reads it from another thread.
#[derive(Clone, Debug)]
pub struct Histo {
    inner: Arc<HistoCell>,
}

impl Default for Histo {
    fn default() -> Self {
        Histo {
            inner: Arc::new(HistoCell {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }
}

impl Histo {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation. Zero allocations, relaxed atomics only.
    #[inline]
    pub fn record(&self, v: u64) {
        let cell = &*self.inner;
        cell.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(v, Ordering::Relaxed);
        cell.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn record_nanos(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    #[inline]
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    pub fn same_as(&self, other: &Histo) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Consistent-enough point-in-time copy. Concurrent recorders may
    /// leave `count`/`sum`/buckets skewed by in-flight updates; the skew
    /// is bounded by the number of racing `record` calls, which is the
    /// usual statistical-counter contract.
    pub fn snapshot(&self) -> HistoSnapshot {
        let cell = &*self.inner;
        HistoSnapshot {
            buckets: std::array::from_fn(|i| cell.buckets[i].load(Ordering::Relaxed)),
            count: cell.count.load(Ordering::Relaxed),
            sum: cell.sum.load(Ordering::Relaxed),
            max: cell.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a histogram, used for quantile math, deltas, and
/// export.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistoSnapshot {
    pub buckets: [u64; HISTO_BUCKETS],
    pub count: u64,
    pub sum: u64,
    /// Lifetime maximum — never reset by `delta`.
    pub max: u64,
}

impl Default for HistoSnapshot {
    fn default() -> Self {
        HistoSnapshot {
            buckets: [0; HISTO_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistoSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound quantile estimate (see module docs for the bracket
    /// guarantee). `p` is clamped to `[0, 1]`; an empty histogram
    /// returns 0.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the order statistic a sorted-vec reference would
        // return: index floor(p * (n - 1)), i.e. 1-based rank + 1.
        let rank = (p.clamp(0.0, 1.0) * (self.count - 1) as f64).floor() as u64 + 1;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Observations since `earlier`. Buckets, count and sum subtract;
    /// `max` stays the lifetime maximum (a high-water mark cannot be
    /// un-observed).
    pub fn delta(&self, earlier: &HistoSnapshot) -> HistoSnapshot {
        HistoSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTO_BUCKETS {
            let hi = bucket_upper(i);
            assert_eq!(bucket_index(hi), i, "upper bound stays in bucket {i}");
            if i > 0 {
                assert_eq!(bucket_index(bucket_upper(i - 1).wrapping_add(1)), i);
            }
        }
    }

    #[test]
    fn record_and_quantiles() {
        let h = Histo::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.max, 1000);
        // p100 clamps to the observed max, not the bucket bound (1023).
        assert_eq!(s.quantile(1.0), 1000);
        // p50 -> rank 3 -> value 3 lives in bucket [2,3] -> estimate 3.
        assert_eq!(s.p50(), 3);
        assert_eq!(s.mean(), 1106.0 / 5.0);
    }

    #[test]
    fn empty_histogram() {
        let s = Histo::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn delta_subtracts_but_keeps_max() {
        let h = Histo::new();
        h.record(8);
        let first = h.snapshot();
        h.record(2);
        let d = h.snapshot().delta(&first);
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 2);
        assert_eq!(d.max, 8);
        assert_eq!(d.buckets[bucket_index(2)], 1);
        assert_eq!(d.buckets[bucket_index(8)], 0);
    }

    #[test]
    fn zero_values_count() {
        let h = Histo::new();
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.buckets[0], 2);
    }
}
