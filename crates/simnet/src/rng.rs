//! Deterministic random variates for the models.
//!
//! Every stochastic element of the simulation draws from a [`SimRng`] seeded
//! by the experiment harness, so a given (seed, parameters) pair reproduces
//! the same figure rows bit-for-bit. Distribution sampling is implemented by
//! inverse transform on top of `rand`'s uniform generator to avoid pulling
//! in a separate distributions crate.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// A small, fast, seedable RNG used by all models.
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child RNG; used to give each stream / device
    /// its own stochastic sequence so adding streams does not perturb
    /// existing ones.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.inner.next_u64() ^ salt.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15;
        SimRng::seed_from_u64(s)
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform sample in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.inner.gen_range(0..n)
    }

    /// Standard normal sample via Box-Muller.
    #[inline]
    pub fn std_normal(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Lognormal sample parameterized by the *median* and the shape `sigma`
    /// (the log-space standard deviation). Device latency jitter in the
    /// models is lognormal: strictly positive with a long right tail.
    #[inline]
    pub fn lognormal_median(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0 && sigma >= 0.0);
        median * (sigma * self.std_normal()).exp()
    }

    /// Bernoulli trial.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn forks_are_decorrelated_from_parent_continuation() {
        let mut parent = SimRng::seed_from_u64(7);
        let mut child = parent.fork(1);
        let a: Vec<u64> = (0..8).map(|_| (parent.unit() * 1e9) as u64).collect();
        let b: Vec<u64> = (0..8).map(|_| (child.unit() * 1e9) as u64).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn lognormal_median_converges() {
        let mut rng = SimRng::seed_from_u64(9);
        let n = 20_001;
        let mut xs: Vec<f64> = (0..n).map(|_| rng.lognormal_median(10.0, 0.5)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[n / 2];
        assert!((med - 10.0).abs() < 0.5, "empirical median {med}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
            let k = rng.below(10);
            assert!(k < 10);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
