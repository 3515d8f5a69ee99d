//! Runtime tuning knobs for the TCP data path (§4.5).
//!
//! The paper's two inter-node optimizations, expressed on plain
//! [`std::time::Duration`] + `f64` so the *real* socket transport, the
//! discrete-event fabric and the figure harness share one implementation:
//!
//! * **Application-level chunk size.** Stock NVMe/TCP statically splits
//!   I/O into 128 KiB sub-requests, and the chunk size also sizes the
//!   target's buffer pools. Small chunks multiply per-chunk CPU cost,
//!   huge chunks waste target memory — Fig. 9 finds 512 KiB optimal for
//!   25 Gbps Ethernet. [`ChunkSelector`] encodes that trade-off as an
//!   explicit cost model and picks the best chunk for the link.
//! * **Adaptive busy polling.** Static budgets are suboptimal because
//!   read and write waits differ (Fig. 10): writes want long budgets
//!   (~100 µs), reads want 25–50 µs. [`BusyPollController`] tracks an
//!   EWMA of observed wait times per direction and selects a budget
//!   from the candidate ladder.

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
    pub fn for_link_gbps(gbps: f64) -> Self {
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
/// let selector = ChunkSelector::new(ChunkCostModel::for_link_gbps(25.0));
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

/// The workload directions the busy-poll controller distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PollClass {
    /// Waits for read data / read completions.
    Read,
    /// Waits for R2T grants / write completions.
    Write,
}

/// Workload-adaptive busy-poll budget selection.
pub struct BusyPollController {
    ladder: Vec<Duration>,
    ewma_alpha: f64,
    read_wait_us: f64,
    write_wait_us: f64,
    samples: u64,
}

impl BusyPollController {
    /// The candidate budgets the paper evaluates (Fig. 10), plus
    /// interrupt mode (zero).
    pub fn default_ladder() -> Vec<Duration> {
        vec![
            Duration::ZERO,
            Duration::from_micros(25),
            Duration::from_micros(50),
            Duration::from_micros(100),
        ]
    }

    /// Creates a controller with the default ladder.
    pub fn new() -> Self {
        BusyPollController {
            ladder: Self::default_ladder(),
            ewma_alpha: 0.05,
            read_wait_us: 30.0,
            write_wait_us: 80.0,
            samples: 0,
        }
    }

    /// Feeds one observed wait (time between posting a receive and data
    /// arrival) for `class`.
    pub fn observe(&mut self, class: PollClass, wait: Duration) {
        let target = match class {
            PollClass::Read => &mut self.read_wait_us,
            PollClass::Write => &mut self.write_wait_us,
        };
        *target = (1.0 - self.ewma_alpha) * *target + self.ewma_alpha * wait.as_secs_f64() * 1e6;
        self.samples += 1;
    }

    /// Current EWMA estimate for a class, in microseconds.
    pub fn estimate_us(&self, class: PollClass) -> f64 {
        match class {
            PollClass::Read => self.read_wait_us,
            PollClass::Write => self.write_wait_us,
        }
    }

    /// Selects the budget for a class: the smallest ladder rung covering
    /// ~the EWMA wait (catching the arrival without oversizing the spin,
    /// which wastes the core at high queue depth — the Fig. 10 read dip
    /// at 100 µs).
    pub fn budget(&self, class: PollClass) -> Duration {
        let want = self.estimate_us(class) * 1.15; // slack for jitter
        for &rung in &self.ladder[1..] {
            if rung.as_secs_f64() * 1e6 >= want {
                return rung;
            }
        }
        *self.ladder.last().expect("non-empty ladder")
    }

    /// Observations consumed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

impl Default for BusyPollController {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_picks_512k_for_25g() {
        let sel = ChunkSelector::new(ChunkCostModel::for_link_gbps(25.0));
        let mix = [128 * KIB, 256 * KIB, 512 * KIB, MIB, 2 * MIB];
        assert_eq!(sel.select(&mix), 512 * KIB);
    }

    #[test]
    fn tiny_chunks_lose_to_cpu_cost() {
        let m = ChunkCostModel::for_link_gbps(25.0);
        assert!(m.cost_us(2 * MIB, 64 * KIB) > m.cost_us(2 * MIB, 512 * KIB));
    }

    #[test]
    fn huge_chunks_lose_to_memory_penalty() {
        let m = ChunkCostModel::for_link_gbps(25.0);
        assert!(m.cost_us(128 * KIB, 2 * MIB) > m.cost_us(128 * KIB, 512 * KIB));
    }

    #[test]
    fn controller_tracks_waits_and_separates_classes() {
        let mut c = BusyPollController::new();
        for _ in 0..400 {
            c.observe(PollClass::Read, Duration::from_micros(28));
            c.observe(PollClass::Write, Duration::from_micros(85));
        }
        assert_eq!(c.samples(), 800);
        assert!((c.estimate_us(PollClass::Read) - 28.0).abs() < 2.0);
        assert!((c.estimate_us(PollClass::Write) - 85.0).abs() < 3.0);
        // Reads settle on a mid budget, writes on the long one — the
        // paper's "carefully selects the busy polling rate based on the
        // type of workload".
        assert_eq!(c.budget(PollClass::Read), Duration::from_micros(50));
        assert_eq!(c.budget(PollClass::Write), Duration::from_micros(100));
    }

    #[test]
    fn controller_adapts_when_workload_shifts() {
        let mut c = BusyPollController::new();
        for _ in 0..400 {
            c.observe(PollClass::Read, Duration::from_micros(18));
        }
        assert_eq!(c.budget(PollClass::Read), Duration::from_micros(25));
        for _ in 0..800 {
            c.observe(PollClass::Read, Duration::from_micros(70));
        }
        assert_eq!(c.budget(PollClass::Read), Duration::from_micros(100));
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
