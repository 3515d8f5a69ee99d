//! RDMA (InfiniBand / RoCE) parameters and memory-registration cache.
//!
//! RDMA gives the paper its "fast but cumbersome" comparison point: one-digit
//! microsecond message latency, near-wire bandwidth, no payload copies — but
//! memory-registration overhead that inflates tail latency for short-running
//! workloads (§5.4: the paper re-ran Fig. 13 with a 3–4× longer duration and
//! watched the RDMA tail drop below NVMe-oAF's).
//!
//! The memory-registration model is mechanistic: a connection starts with a
//! cold buffer pool, so each of the first `pool_buffers` I/Os pins and
//! registers its buffer (`reg_cost` each); afterwards a small invalidation
//! probability models pool churn/remapping. Short runs therefore see a
//! higher *fraction* of registration-delayed I/Os than long runs — exactly
//! the amortization effect the paper describes.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Static parameters of the RDMA model.
#[derive(Clone, Copy, Debug)]
pub struct RdmaParams {
    /// CPU cost to post a work request and reap its completion.
    pub per_msg_cpu: SimDuration,
    /// Header bytes per message on the wire.
    pub header_bytes: u64,
    /// Cost to register (pin + map) one buffer with the NIC.
    pub reg_cost: SimDuration,
    /// Number of distinct buffers the application pool cycles through
    /// (cold-start registrations).
    pub pool_buffers: u64,
    /// Probability an I/O's buffer was invalidated (remapped/compacted)
    /// since last use and must be re-registered.
    pub invalidation_prob: f64,
}

/// Per-connection memory-registration cache state.
#[derive(Clone, Debug)]
pub struct MrCache {
    registered: u64,
    params: RdmaParams,
    hits: u64,
    misses: u64,
}

impl MrCache {
    /// A cold cache for a new connection.
    pub fn new(params: RdmaParams) -> Self {
        MrCache {
            registered: 0,
            params,
            hits: 0,
            misses: 0,
        }
    }

    /// Charges the registration cost for the buffer used by the next I/O,
    /// if any. Deterministic cold misses first, then stochastic churn.
    pub fn charge(&mut self, rng: &mut SimRng) -> SimDuration {
        if self.registered < self.params.pool_buffers {
            self.registered += 1;
            self.misses += 1;
            return self.params.reg_cost;
        }
        if rng.chance(self.params.invalidation_prob) {
            self.misses += 1;
            self.params.reg_cost
        } else {
            self.hits += 1;
            SimDuration::ZERO
        }
    }

    /// Registration misses so far (cold + churn).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> RdmaParams {
        RdmaParams {
            per_msg_cpu: SimDuration::from_nanos(700),
            header_bytes: 64,
            reg_cost: SimDuration::from_micros(250),
            pool_buffers: 64,
            invalidation_prob: 1e-4,
        }
    }

    #[test]
    fn cold_pool_pays_registration_for_first_buffers() {
        let mut cache = MrCache::new(params());
        let mut rng = SimRng::seed_from_u64(1);
        let mut cold = 0;
        for _ in 0..64 {
            if cache.charge(&mut rng) > SimDuration::ZERO {
                cold += 1;
            }
        }
        assert_eq!(cold, 64);
        assert_eq!(cache.misses(), 64);
    }

    #[test]
    fn warm_pool_mostly_hits() {
        let mut cache = MrCache::new(params());
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..64 {
            cache.charge(&mut rng);
        }
        let mut miss = 0u64;
        let n = 100_000;
        for _ in 0..n {
            if cache.charge(&mut rng) > SimDuration::ZERO {
                miss += 1;
            }
        }
        let rate = miss as f64 / n as f64;
        assert!(rate < 5e-4, "churn miss rate {rate}");
        assert!(cache.hits() > 0);
    }

    #[test]
    fn short_runs_have_higher_miss_fraction_than_long_runs() {
        let run = |n: u64| {
            let mut cache = MrCache::new(params());
            let mut rng = SimRng::seed_from_u64(3);
            let mut miss = 0u64;
            for _ in 0..n {
                if cache.charge(&mut rng) > SimDuration::ZERO {
                    miss += 1;
                }
            }
            miss as f64 / n as f64
        };
        assert!(run(1_000) > run(100_000) * 5.0);
    }
}
