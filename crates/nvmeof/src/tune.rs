//! The chunk-size model of the paper's optimized NVMe/TCP (§4.5).
//!
//! Stock NVMe/TCP statically splits I/O into 128 KiB sub-requests, and
//! the chunk size also sizes the target's buffer pools. Small chunks
//! multiply per-chunk CPU cost, huge chunks waste target memory —
//! Fig. 9 finds 512 KiB optimal for 25 Gbps Ethernet. [`ChunkCostModel`]
//! prices that trade-off and [`ChunkSelector`] picks the best chunk for
//! a link; the discrete-event fabric (`oaf-core`'s `sim::fabric`) and
//! the Fig. 9 harness use them. The real socket path streams writes at
//! the initiator's fixed `write_chunk` (512 KiB, this model's pick for
//! 25 Gbps), and the §4.5 busy-poll budget (Fig. 10) is a parameter of
//! the simulated fabric only: the runtime's blocking waits all descend
//! one spin→yield→sleep ladder (`transport::WaitLadder`).

use std::time::Duration;

/// One kibibyte, for chunk-ladder arithmetic.
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * KIB;

/// Number of `chunk`-sized sub-requests needed to cover `len` bytes.
pub fn chunks_for(len: u64, chunk: u64) -> u64 {
    if chunk == 0 {
        return 0;
    }
    len.div_ceil(chunk)
}

/// Cost model constants for chunk-size selection.
#[derive(Clone, Copy, Debug)]
pub struct ChunkCostModel {
    /// Fixed CPU time per chunk per side (stack traversal, descriptor
    /// handling).
    pub per_chunk_cpu: Duration,
    /// Link goodput in bytes per second.
    pub goodput_bytes_per_sec: f64,
    /// Target-side buffer-pool pressure per chunk, quadratic in the chunk
    /// size and referenced to 512 KiB (models the paper's "choosing a very
    /// large chunk leads to under-utilization of memory" — pool buffers
    /// are chunk-sized, so their cache/TLB footprint grows with the
    /// chunk).
    pub mem_quad_us_at_512k: f64,
}

impl ChunkCostModel {
    /// The paper's testbed model: `gbps` Ethernet at ~94% goodput, 12 µs
    /// of per-chunk CPU per side, Fig. 9's memory penalty.
    pub fn for_gbps(gbps: f64) -> Self {
        ChunkCostModel {
            per_chunk_cpu: Duration::from_micros(12),
            goodput_bytes_per_sec: gbps * 1e9 / 8.0 * 0.94,
            mem_quad_us_at_512k: 14.0,
        }
    }

    /// Effective per-I/O cost of moving `io_size` bytes with `chunk`-sized
    /// sub-requests, in microseconds. Lower is better.
    pub fn cost_us(&self, io_size: u64, chunk: u64) -> f64 {
        let chunks = chunks_for(io_size, chunk) as f64;
        let cpu = chunks * 2.0 * self.per_chunk_cpu.as_secs_f64() * 1e6;
        let wire = io_size as f64 / self.goodput_bytes_per_sec * 1e6;
        let ratio = chunk as f64 / (512.0 * KIB as f64);
        let mem = chunks * self.mem_quad_us_at_512k * ratio * ratio;
        cpu + wire + mem
    }
}

/// Selects the application-level chunk size for a link.
///
/// ```
/// use oaf_nvmeof::tune::{ChunkCostModel, ChunkSelector, KIB, MIB};
///
/// let selector = ChunkSelector::new(ChunkCostModel::for_gbps(25.0));
/// // The paper's Fig. 9 conclusion for 25 Gbps Ethernet:
/// assert_eq!(selector.select(&[128 * KIB, 512 * KIB, MIB, 2 * MIB]), 512 * KIB);
/// ```
pub struct ChunkSelector {
    model: ChunkCostModel,
    candidates: Vec<u64>,
}

impl ChunkSelector {
    /// Candidate ladder used by the paper's sweep (Fig. 9).
    pub fn default_candidates() -> Vec<u64> {
        vec![64 * KIB, 128 * KIB, 256 * KIB, 512 * KIB, MIB, 2 * MIB]
    }

    /// Creates a selector over the default candidate ladder.
    pub fn new(model: ChunkCostModel) -> Self {
        ChunkSelector {
            model,
            candidates: Self::default_candidates(),
        }
    }

    /// Picks the chunk minimizing the summed cost over a representative
    /// I/O-size mix (the paper sweeps 128 KiB – 2 MiB streams).
    pub fn select(&self, io_sizes: &[u64]) -> u64 {
        *self
            .candidates
            .iter()
            .min_by(|&&a, &&b| {
                let ca: f64 = io_sizes.iter().map(|&s| self.model.cost_us(s, a)).sum();
                let cb: f64 = io_sizes.iter().map(|&s| self.model.cost_us(s, b)).sum();
                ca.partial_cmp(&cb).expect("finite costs")
            })
            .expect("non-empty candidates")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_picks_512k_for_25g() {
        let sel = ChunkSelector::new(ChunkCostModel::for_gbps(25.0));
        let mix = [128 * KIB, 256 * KIB, 512 * KIB, MIB, 2 * MIB];
        assert_eq!(sel.select(&mix), 512 * KIB);
    }

    #[test]
    fn tiny_chunks_lose_to_cpu_cost() {
        let m = ChunkCostModel::for_gbps(25.0);
        assert!(m.cost_us(2 * MIB, 64 * KIB) > m.cost_us(2 * MIB, 512 * KIB));
    }

    #[test]
    fn huge_chunks_lose_to_memory_penalty() {
        let m = ChunkCostModel::for_gbps(25.0);
        assert!(m.cost_us(128 * KIB, 2 * MIB) > m.cost_us(128 * KIB, 512 * KIB));
    }

    #[test]
    fn chunks_for_rounds_up() {
        assert_eq!(chunks_for(0, 512), 0);
        assert_eq!(chunks_for(1, 512), 1);
        assert_eq!(chunks_for(512, 512), 1);
        assert_eq!(chunks_for(513, 512), 2);
        assert_eq!(chunks_for(100, 0), 0);
    }
}
