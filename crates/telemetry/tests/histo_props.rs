//! Property tests for the log2 latency histogram.
//!
//! The histogram trades per-value precision for a fixed footprint and a
//! lock-free record path; the contract it keeps is the *bracket
//! property*: every quantile estimate `q` for a true (sorted-vec)
//! quantile `t` satisfies `t <= q <= 2t` — the estimate never
//! understates and overstates by at most one power of two.

use oaf_telemetry::Histo;
use proptest::prelude::*;

/// Reference quantile: nearest-rank on a sorted copy, with the same rank
/// convention the histogram uses (`floor(p * (n-1))`, 0-based).
fn reference_quantile(sorted: &[u64], p: f64) -> u64 {
    let idx = (p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).floor() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

proptest! {
    #[test]
    fn quantiles_bracket_sorted_vec_reference(
        values in proptest::collection::vec(0u64..2_000_000_000, 1..400),
        p in 0.0f64..1.0,
    ) {
        let h = Histo::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);

        let t = reference_quantile(&sorted, p);
        let q = snap.quantile(p);
        prop_assert!(q >= t, "estimate {} understates true quantile {}", q, t);
        prop_assert!(
            q <= t.saturating_mul(2).max(1),
            "estimate {} more than 2x true quantile {}",
            q,
            t
        );

        // The named quantiles obey the same bracket.
        for (est, pp) in [(snap.p50(), 0.50), (snap.p95(), 0.95), (snap.p99(), 0.99)] {
            let t = reference_quantile(&sorted, pp);
            prop_assert!(est >= t && est <= t.saturating_mul(2).max(1));
        }
    }

    #[test]
    fn extremes_are_exactly_bracketed(
        // Range chosen so even 100 maximal values cannot overflow the
        // exact `sum` check below.
        values in proptest::collection::vec(1u64..u64::MAX / 256, 1..100),
    ) {
        let h = Histo::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        // quantile(1.0) is clamped to the exact observed maximum.
        prop_assert_eq!(snap.quantile(1.0), *values.iter().max().unwrap());
        // sum and mean are exact, not bucketed.
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
    }
}
