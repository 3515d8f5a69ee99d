//! Fixed log-linear histogram for the hot loop, plus the small order
//! statistics the reports are built from.
//!
//! 64 linear sub-buckets per power of two bound the relative bucket
//! width at 1/64, so a reported quantile (bucket midpoint) is within
//! 1.6 % of the true order statistic. Recording is an index computation
//! and one increment; nothing allocates after construction.

use crate::gen::Rng;

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values are clamped below 2^40 ns (~18 min).
const MAX_EXP: u32 = 40;
const BUCKETS: usize = (MAX_EXP - SUB_BITS + 1) as usize * SUB;

#[inline]
fn bucket_of(v: u64) -> usize {
    let v = v.min((1u64 << MAX_EXP) - 1);
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    (e - SUB_BITS + 1) as usize * SUB + sub
}

/// Midpoint of bucket `i`.
fn bucket_mid(i: usize) -> f64 {
    if i < SUB {
        return i as f64;
    }
    let e = (i / SUB) as u32 + SUB_BITS - 1;
    let sub = (i % SUB) as u64;
    let width = 1u64 << (e - SUB_BITS);
    ((SUB as u64 + sub) * width) as f64 + (width as f64 - 1.0) / 2.0
}

/// Log-linear histogram of nanosecond (or plain count) values.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.n += other.n;
    }

    /// The order statistic a sorted vector would return at index
    /// `floor(p * (n - 1))`, to bucket resolution. `None` when empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = (p.clamp(0.0, 1.0) * (self.n - 1) as f64).floor() as u64 + 1;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += u64::from(c);
            if cum >= rank {
                return Some(bucket_mid(i));
            }
        }
        None
    }
}

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let m = s.len() / 2;
    Some(if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    })
}

/// Interquartile mean of `v`: the mean of what is left after dropping
/// the lowest and the highest quarter (`len / 4` values each side).
///
/// This is the location estimate the end-to-end pass reports across its
/// intervals. Like a median it ignores outlier intervals (a scheduler
/// hiccup cannot own the number); unlike a median it moves smoothly
/// when the system alternates between two speeds for seconds at a time
/// — which this runtime does on a 2-core VM — instead of jumping from
/// one mode to the other when the slower one crosses half the run.
pub fn midmean(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let trim = s.len() / 4;
    let mid = &s[trim..s.len() - trim];
    Some(mid.iter().sum::<f64>() / mid.len() as f64)
}

/// Inter-quartile range of `v` as a share of its median: the spread the
/// reports print beside every median. Quartiles are the exclusive-method
/// cut points (what Python's `statistics.quantiles(v, n=4)` returns).
pub fn rel_iqr(v: &[f64]) -> f64 {
    let Some(med) = median(v) else { return 0.0 };
    if v.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = s.len();
    let cut = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (cut(3) - cut(1)).abs() / med.abs()
}

/// Histogram-vs-sorted-vector oracle: log-uniform values across the
/// latency range, a handful of quantiles, 1.6 % tolerance.
pub fn self_test() -> Result<(), String> {
    let mut rng = Rng::new(0x6869_7374);
    let mut h = Hist::new();
    let mut all = Vec::with_capacity(200_000);
    for _ in 0..200_000 {
        // 2^7 .. 2^33 ns: 128 ns to 8.6 s.
        let e = 7 + rng.below(26);
        let v = (1u64 << e) + rng.next_u64() % (1u64 << e);
        h.record(v);
        all.push(v);
    }
    all.sort_unstable();
    for p in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
        let want = all[(p * (all.len() - 1) as f64).floor() as usize] as f64;
        let got = h.quantile(p).ok_or("empty histogram")?;
        let err = (got - want).abs() / want;
        if err > 0.016 {
            return Err(format!(
                "histogram quantile p={p}: got {got}, oracle {want}, error {err:.4} > 0.016"
            ));
        }
    }
    // Small values are exact.
    let mut small = Hist::new();
    for v in 0..64u64 {
        small.record(v);
    }
    if small.quantile(0.5) != Some(31.0) {
        return Err(format!(
            "small-value median: got {:?}, want 31",
            small.quantile(0.5)
        ));
    }
    let m = midmean(&[9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 100.0]);
    if m != Some(4.5) {
        return Err(format!(
            "midmean drops a quarter each side: got {m:?}, want 4.5"
        ));
    }
    let q = rel_iqr(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    if (q - 1.0).abs() > 1e-9 {
        return Err(format!("rel_iqr of 1..=8: got {q}, want 1.0"));
    }
    Ok(())
}
