//! Per-I/O phase models for every fabric the paper evaluates.
//!
//! Each flow walks one I/O through the contended resources of
//! [`super::world::World`]. Completion times come from the shared
//! calendar servers (so contention, pipelining and saturation emerge);
//! the paper's three-way latency *breakdown* (§3.2) is accumulated from
//! per-phase **service demands** — the time each component takes in
//! isolation — matching the paper's instrumented per-request components:
//! "I/O time" at the device (including device-internal queueing),
//! "communication time" in transit, and "other" (preparation and
//! processing, including the client-side buffer fill and copy-out the
//! zero-copy design removes).

use oaf_simnet::time::{SimDuration, SimTime};
use oaf_simnet::units::{chunks_for, Rate, KIB, MIB};
use oaf_ssd::IoOp;

use super::metrics::Breakdown;
use super::params::SimParams;
use super::workload::Pattern;
use super::world::World;

/// The NVMe-oSHM ablation ladder of §4.4.4 / Fig. 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShmVariant {
    /// Naive shared memory: a lock guards the region; conservative flow.
    Baseline,
    /// Lock-free double buffer (§4.4.1); conservative flow.
    LockFree,
    /// + shared-memory flow control (§4.4.2): in-capsule for all sizes.
    FlowCtl,
    /// + zero-copy transport (§4.4.3): the full NVMe-oAF data path.
    ZeroCopy,
}

/// A fabric an experiment stream can run on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FabricKind {
    /// Stock NVMe/TCP: interrupt-driven, 128 KiB chunks.
    TcpStock {
        /// Link speed in Gbps.
        gbps: f64,
    },
    /// NVMe-oAF's optimized TCP mode: tuned chunk size + busy polling
    /// (§4.5). `busy_poll == 0` means interrupt mode.
    TcpOpt {
        /// Link speed in Gbps.
        gbps: f64,
        /// Application-level chunk size in bytes.
        chunk: u64,
        /// Busy-poll budget (zero = interrupts).
        busy_poll: SimDuration,
    },
    /// NVMe/RDMA over 56 Gbps InfiniBand FDR through SR-IOV.
    RdmaIb,
    /// NVMe/RoCE over 100 Gbps on physical nodes (the paper's upper
    /// bound; pair with [`SimParams::roce_physical`]).
    Roce,
    /// NVMe-oSHM: co-located, payload over shared memory.
    Shm {
        /// Which rung of the ablation ladder.
        variant: ShmVariant,
    },
    /// The adaptive fabric: locality decides between the full
    /// shared-memory path and optimized TCP (§4.2).
    Adaptive {
        /// Whether client and target share a host.
        local: bool,
        /// TCP link speed for the remote case.
        tcp_gbps: f64,
    },
}

impl FabricKind {
    /// The concrete fabric after adaptive channel selection.
    pub fn resolve(self) -> FabricKind {
        match self {
            FabricKind::Adaptive { local: true, .. } => FabricKind::Shm {
                variant: ShmVariant::ZeroCopy,
            },
            FabricKind::Adaptive {
                local: false,
                tcp_gbps,
            } => {
                // The adaptive fabric's TCP fallback: the chunk that
                // minimizes the per-chunk CPU `data_tcp` charges on the
                // paper testbed (§4.5, Fig. 9) — the link rate does not
                // enter it — and a fixed 50 µs busy-poll budget,
                // inside the 25–50 µs band Fig. 10's sweep finds best for
                // reads.
                let mix = [128 * KIB, 512 * KIB, MIB, 2 * MIB];
                FabricKind::TcpOpt {
                    gbps: tcp_gbps,
                    chunk: select_chunk(&SimParams::paper_testbed(), &mix),
                    busy_poll: SimDuration::from_micros(50),
                }
            }
            other => other,
        }
    }

    /// Link speed this fabric needs, if any: `(gbps, is_rdma)`.
    pub fn wire_gbps(self) -> Option<(f64, bool)> {
        match self.resolve() {
            FabricKind::TcpStock { gbps } => Some((gbps, false)),
            FabricKind::TcpOpt { gbps, .. } => Some((gbps, false)),
            FabricKind::RdmaIb => Some((56.0, true)),
            FabricKind::Roce => Some((100.0, true)),
            FabricKind::Shm { .. } => None,
            FabricKind::Adaptive { .. } => unreachable!("resolved above"),
        }
    }
}

/// Outcome of one simulated I/O.
#[derive(Clone, Copy, Debug)]
pub struct IoOutcome {
    /// Completion time as seen by the client.
    pub done: SimTime,
    /// Latency component attribution (service-level, §3.2).
    pub breakdown: Breakdown,
}

/// Identifies a stream's resources inside the world.
#[derive(Clone, Copy, Debug)]
pub struct StreamRes {
    /// Index of the client VM in `world.vms`.
    pub client_vm: usize,
    /// Index of the target VM in `world.vms`.
    pub target_vm: usize,
    /// Pinned core index within each VM.
    pub core: usize,
    /// Wire index in `world.wires`.
    pub wire: usize,
    /// SSD / per-stream state index.
    pub stream: usize,
}

fn us(d: SimDuration) -> f64 {
    d.as_micros_f64()
}

/// Per-chunk app-level processing cost: fixed + per-KiB.
fn chunk_app_cost(p: &SimParams, bytes: u64) -> SimDuration {
    p.tcp_chunk_app_base
        + SimDuration::from_nanos(p.tcp_chunk_app_per_kib.as_nanos() * bytes / 1024)
}

/// Per-chunk softirq processing cost: fixed + per-KiB.
fn chunk_softirq_cost(p: &SimParams, bytes: u64) -> SimDuration {
    p.tcp_chunk_softirq_base
        + SimDuration::from_nanos(p.tcp_chunk_softirq_per_kib.as_nanos() * bytes / 1024)
}

/// Buffer-pool pressure at the receiver: quadratic in the *configured*
/// chunk size (pool buffers are chunk-sized, §4.5), referenced to 512 KiB.
fn chunk_pool_penalty(p: &SimParams, chunk: u64) -> SimDuration {
    let ratio = chunk as f64 / (512.0 * 1024.0);
    SimDuration::from_secs_f64(p.chunk_pool_quad.as_secs_f64() * ratio * ratio)
}

/// The sizes `data_tcp` cuts a `bytes`-long payload into at `chunk`.
fn chunk_pieces(bytes: u64, chunk: u64) -> impl Iterator<Item = u64> {
    let mut remaining = bytes;
    (0..chunks_for(bytes, chunk)).map(move |_| {
        let piece = remaining.min(chunk).max(1);
        remaining = remaining.saturating_sub(piece);
        piece
    })
}

/// Per-chunk CPU service `data_tcp` charges for moving `bytes` at
/// `chunk`: app and softirq cost on both sides, plus the receiver's pool
/// penalty. The wire is left out, so the price does not depend on the
/// link rate; the chunk moves wire time only by its per-chunk header.
fn chunked_cpu_cost(p: &SimParams, bytes: u64, chunk: u64) -> SimDuration {
    chunk_pieces(bytes, chunk)
        .map(|piece| {
            (chunk_app_cost(p, piece) + chunk_softirq_cost(p, piece)).mul_u64(2)
                + chunk_pool_penalty(p, chunk)
        })
        .sum()
}

/// The chunk ladder of the paper's sweep (Fig. 9).
pub const CHUNK_LADDER: [u64; 6] = [64 * KIB, 128 * KIB, 256 * KIB, 512 * KIB, MIB, 2 * MIB];

/// Picks the optimized-TCP chunk (§4.5) from [`CHUNK_LADDER`]: the one
/// whose per-chunk CPU service, summed over the I/O sizes in `mix`, is
/// least. Small chunks multiply the per-chunk cost; large ones pay the
/// pool penalty, which grows with the square of the chunk.
///
/// ```
/// use oaf_core::sim::{fabric::select_chunk, SimParams};
///
/// let mix = [128 << 10, 512 << 10, 1 << 20, 2 << 20];
/// // The paper's Fig. 9 conclusion for 25 Gbps Ethernet:
/// assert_eq!(select_chunk(&SimParams::paper_testbed(), &mix), 512 << 10);
/// ```
pub fn select_chunk(p: &SimParams, mix: &[u64]) -> u64 {
    CHUNK_LADDER
        .into_iter()
        .min_by_key(|&chunk| {
            mix.iter()
                .map(|&bytes| chunked_cpu_cost(p, bytes, chunk))
                .sum::<SimDuration>()
        })
        .expect("non-empty ladder")
}

/// Sentinel budget meaning "dedicated poll-mode reactor" (no kernel
/// busy-poll budget semantics; the core polls continuously).
pub(crate) const REACTOR_POLL: SimDuration = SimDuration::from_nanos(u64::MAX);

/// Message class for busy-poll wait modelling (§4.5).
#[derive(Clone, Copy, PartialEq, Eq)]
enum WaitClass {
    ReadLike,
    WriteLike,
}

/// Receiver wake cost under a busy-poll budget (`ZERO` = interrupts).
/// `wait` is the time between posting the receive and the data arriving,
/// drawn per message from the class's distribution.
fn wake(p: &SimParams, budget: SimDuration, wait: SimDuration) -> (SimDuration, SimDuration) {
    if budget == SimDuration::ZERO {
        return (p.interrupt_extra, p.interrupt_cpu);
    }
    if budget == REACTOR_POLL {
        // Dedicated poll-mode reactor (SPDK): arrivals are noticed on the
        // next poll-loop iteration, no spin budget to burn.
        return (p.poll_hit_extra, p.reactor_poll_cpu);
    }
    let waste = SimDuration::from_secs_f64(budget.as_secs_f64() * p.poll_waste_frac);
    if wait <= budget {
        (p.poll_hit_extra, waste)
    } else {
        // Burned the budget, then slept and paid the interrupt plus the
        // softirq re-arm/reschedule penalty — the paper's explanation
        // for 25 µs hurting writes (Fig. 10).
        let rearm = SimDuration::from_secs_f64(budget.as_secs_f64() * 0.5);
        (p.interrupt_extra + rearm, budget + p.interrupt_cpu)
    }
}

/// Standard normal CDF (Abramowitz–Stegun 7.1.26 via erf approximation).
fn normal_cdf(z: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.2316419 * z.abs());
    let d = 0.3989422804014327 * (-z * z / 2.0).exp();
    let poly = t
        * (0.319381530
            + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429))));
    let p = 1.0 - d * poly;
    if z >= 0.0 {
        p
    } else {
        1.0 - p
    }
}

/// Expected wake *latency* for a class under a budget — used when a
/// phase's duration must be estimated up front (the per-connection R2T
/// rendezvous occupancy).
fn expected_wake_extra(p: &SimParams, budget: SimDuration, median: SimDuration) -> SimDuration {
    if budget == SimDuration::ZERO {
        return p.interrupt_extra;
    }
    let z = (budget.as_secs_f64() / median.as_secs_f64()).ln() / p.wait_sigma;
    let hit = normal_cdf(z);
    let rearm = budget.as_secs_f64() * 0.5;
    SimDuration::from_secs_f64(
        hit * p.poll_hit_extra.as_secs_f64()
            + (1.0 - hit) * (p.interrupt_extra.as_secs_f64() + rearm),
    )
}

/// Draws a per-message receive wait for the given class.
fn draw_wait(world: &mut World, stream: usize, class: WaitClass) -> SimDuration {
    let median = match class {
        WaitClass::ReadLike => world.params.wait_read_median,
        WaitClass::WriteLike => world.params.wait_write_median,
    };
    let sigma = world.params.wait_sigma;
    let rng = &mut world.rngs[stream];
    SimDuration::from_secs_f64(rng.lognormal_median(median.as_secs_f64(), sigma))
}

/// Direction of a hop.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Hop {
    C2T,
    T2C,
}

/// One control PDU over the TCP connection (or the loopback hop for
/// co-located pairs when `use_wire` is false). Returns `(delivered,
/// comm_service_us)`.
fn ctl(
    world: &mut World,
    r: StreamRes,
    hop: Hop,
    now: SimTime,
    use_wire: bool,
    dst_budget: SimDuration,
    class: WaitClass,
) -> (SimTime, f64) {
    let p_ctl_app = world.params.tcp_ctl_app;
    let p_ctl_sirq = world.params.tcp_ctl_softirq;
    let bytes = world.params.ctl_size + world.params.tcp_header;
    let loopback = world.params.shm_ctl_latency;
    let (src_vm, dst_vm) = match hop {
        Hop::C2T => (r.client_vm, r.target_vm),
        Hop::T2C => (r.target_vm, r.client_vm),
    };
    let (_, t1) = world.vms[src_vm].cores[r.core].submit(now, p_ctl_app);
    let (_, t2) = world.vms[src_vm].softirq.submit(t1, p_ctl_sirq);
    // Control PDUs are latency-only on the wire: reserving capacity for
    // a few hundred bytes would fragment the bulk-data schedule.
    let (t3, hop_latency) = if use_wire {
        let t = world.wires[r.wire].transmit_latency_only(t2, bytes);
        (t, t.saturating_since(t2))
    } else {
        (t2 + loopback, loopback)
    };
    let (_, t4) = world.vms[dst_vm].softirq.submit(t3, p_ctl_sirq);
    let wait = draw_wait(world, r.stream, class);
    let (extra, cpu) = wake(&world.params, dst_budget, wait);
    let (_, t5) = world.vms[dst_vm].cores[r.core].submit(t4 + extra, cpu + p_ctl_app);
    let svc = us(p_ctl_app.mul_u64(2)) + us(p_ctl_sirq.mul_u64(2)) + us(hop_latency) + us(extra);
    (t5, svc)
}

/// Bulk payload over TCP, chunked at `chunk`. `src_copy`/`dst_copy`
/// control whether each side performs its payload copy here (the write
/// path performs the client copy-out separately so it can be attributed
/// to "other"). Returns `(delivered, comm_service_us)`.
#[allow(clippy::too_many_arguments)]
fn data_tcp(
    world: &mut World,
    r: StreamRes,
    hop: Hop,
    now: SimTime,
    bytes: u64,
    chunk: u64,
    src_copy: bool,
    dst_copy: bool,
    dst_budget: SimDuration,
    class: WaitClass,
) -> (SimTime, f64) {
    let p = world.params.clone();
    let (src_vm, dst_vm, dir, src_rate, dst_rate) = match hop {
        Hop::C2T => (
            r.client_vm,
            r.target_vm,
            oaf_simnet::link::Direction::H2C,
            p.copy_rate_client,
            p.copy_rate_target,
        ),
        Hop::T2C => (
            r.target_vm,
            r.client_vm,
            oaf_simnet::link::Direction::C2H,
            p.copy_rate_target,
            p.copy_rate_client,
        ),
    };
    let mut last = now;
    let mut svc = 0.0;
    for piece in chunk_pieces(bytes, chunk) {
        let app = chunk_app_cost(&p, piece);
        let sirq = chunk_softirq_cost(&p, piece);
        let pool = chunk_pool_penalty(&p, chunk);
        let (_, t1) = world.vms[src_vm].cores[r.core].submit(now, app);
        let t1b = if src_copy {
            svc += us(copy_service(&p, piece, src_rate));
            copy(world, src_vm, r, t1, piece, src_rate)
        } else {
            t1
        };
        let (_, t2) = world.vms[src_vm].softirq.submit(t1b, sirq);
        let t3 = world.wires[r.wire].transmit(t2, dir, piece + p.tcp_header);
        let (_, t4) = world.vms[dst_vm].softirq.submit(t3, sirq);
        let t4b = if dst_copy {
            svc += us(copy_service(&p, piece, dst_rate));
            copy(world, dst_vm, r, t4, piece, dst_rate)
        } else {
            t4
        };
        let (_, t5) = world.vms[dst_vm].cores[r.core].submit(t4b, app + pool);
        last = last.max(t5);
        svc += us(app.mul_u64(2)) + us(sirq.mul_u64(2)) + us(pool);
        svc += world.wires[r.wire]
            .params
            .serialize_time(piece + p.tcp_header)
            .as_micros_f64()
            + world.wires[r.wire].params.propagation.as_micros_f64();
    }
    // One wake at the receiving application per I/O.
    let wait = draw_wait(world, r.stream, class);
    let (extra, cpu) = wake(&p, dst_budget, wait);
    let (_, done) = world.vms[dst_vm].cores[r.core].submit(last + extra, cpu);
    svc += us(extra);
    (done, svc)
}

/// Service time of a payload copy at a given per-core rate.
fn copy_service(p: &SimParams, bytes: u64, rate: Rate) -> SimDuration {
    p.copy_cpu + SimDuration::from_secs_f64(rate.transfer_secs(bytes))
}

/// A payload copy constrained by the copying core and the VM memory bus.
fn copy(
    world: &mut World,
    vm: usize,
    r: StreamRes,
    now: SimTime,
    bytes: u64,
    rate: Rate,
) -> SimTime {
    let p = world.params.clone();
    let rng = &mut world.rngs[r.stream];
    let vmh = &mut world.vms[vm];
    World::copy_payload(
        vmh,
        r.core,
        now,
        bytes,
        rate,
        p.membus_rate,
        p.copy_cpu,
        p.copy_tail_prob,
        p.copy_tail_cost,
        rng,
    )
}

/// The device phase. Returns `(completion, io_time_us)` where the I/O
/// time spans submission to device completion (including device-internal
/// queueing — the paper's "time remote SSD takes to execute an I/O
/// request submitted by NVMe-oF target").
fn ssd(
    world: &mut World,
    r: StreamRes,
    now: SimTime,
    op: IoOp,
    bytes: u64,
    pattern: Pattern,
) -> (SimTime, f64) {
    let penalty = world.params.random_penalty;
    let base = match op {
        IoOp::Read => world.params.ssd.read_base,
        IoOp::Write => world.params.ssd.write_base,
    };
    let mut done = world.ssds[r.stream].submit(now, op, bytes);
    if pattern == Pattern::Random && penalty > 1.0 {
        done += SimDuration::from_secs_f64(base.as_secs_f64() * (penalty - 1.0));
    }
    let io_us = us(done.saturating_since(now));
    (done, io_us)
}

/// Simulates one I/O on `fabric`, starting (submitted by the
/// application) at `start`.
pub fn simulate_io(
    world: &mut World,
    fabric: FabricKind,
    r: StreamRes,
    op: IoOp,
    bytes: u64,
    pattern: Pattern,
    start: SimTime,
) -> IoOutcome {
    match fabric.resolve() {
        FabricKind::TcpStock { .. } => {
            let chunk = world.params.chunk_size;
            tcp_flow(
                world,
                r,
                op,
                bytes,
                pattern,
                start,
                chunk,
                SimDuration::ZERO,
            )
        }
        FabricKind::TcpOpt {
            chunk, busy_poll, ..
        } => tcp_flow(world, r, op, bytes, pattern, start, chunk, busy_poll),
        FabricKind::RdmaIb | FabricKind::Roce => rdma_flow(world, r, op, bytes, pattern, start),
        FabricKind::Shm { variant } => shm_flow(world, r, op, bytes, pattern, start, variant),
        FabricKind::Adaptive { .. } => unreachable!("resolved"),
    }
}

/// NVMe/TCP flow (stock or optimized).
#[allow(clippy::too_many_arguments)]
fn tcp_flow(
    world: &mut World,
    r: StreamRes,
    op: IoOp,
    bytes: u64,
    pattern: Pattern,
    start: SimTime,
    chunk: u64,
    budget: SimDuration,
) -> IoOutcome {
    let p = world.params.clone();
    let in_capsule = 8 * KIB;
    let mut bd = Breakdown::default();
    match op {
        IoOp::Read => {
            // prep [other]
            let (_, t1) = world.vms[r.client_vm].cores[r.core].submit(start, p.prep);
            bd.other_us += us(p.prep);
            // CMD [comm]
            let (t2, c) = ctl(world, r, Hop::C2T, t1, true, budget, WaitClass::ReadLike);
            bd.comm_us += c;
            // device [io]
            let (t3, io) = ssd(world, r, t2, IoOp::Read, bytes, pattern);
            bd.io_us += io;
            // data + RESP [comm]
            let (t4, c) = data_tcp(
                world,
                r,
                Hop::T2C,
                t3,
                bytes,
                chunk,
                true,
                true,
                budget,
                WaitClass::ReadLike,
            );
            bd.comm_us += c;
            let (t5, c) = ctl(world, r, Hop::T2C, t4, true, budget, WaitClass::ReadLike);
            bd.comm_us += c;
            // completion processing [other]
            let (_, t6) = world.vms[r.client_vm].cores[r.core].submit(t5, p.complete);
            bd.other_us += us(p.complete);
            IoOutcome {
                done: t6,
                breakdown: bd,
            }
        }
        IoOp::Write => {
            // prep + application buffer fill [other]
            let fill = SimDuration::from_secs_f64(p.fill_rate.transfer_secs(bytes));
            let (_, t1) = world.vms[r.client_vm].cores[r.core].submit(start, p.prep + fill);
            bd.other_us += us(p.prep + fill);
            let t_data_start = if bytes <= in_capsule {
                // In-capsule: client copy-out [other], then CMD+data in
                // one exchange [comm].
                bd.other_us += us(copy_service(&p, bytes, p.copy_rate_client));
                copy(world, r.client_vm, r, t1, bytes, p.copy_rate_client)
            } else {
                // Conservative: CMD → R2T rendezvous [comm], then client
                // copy-out [other]. The per-connection R2T data phase is
                // serialized (one outstanding transfer per connection in
                // the SPDK target of the paper's vintage), which is what
                // keeps NVMe/TCP writes latency-sensitive (Fig. 10).
                let r2t_occ = {
                    let ctl_fixed = SimDuration::from_micros(14).mul_u64(2);
                    let wakes = expected_wake_extra(&p, budget, p.wait_write_median).mul_u64(2);
                    // Stack processing of the first chunk; the buffer
                    // frees once the payload is on the wire, so wire
                    // serialization is not part of the occupancy.
                    let data_est = chunk_app_cost(&p, chunk.min(bytes))
                        + chunk_softirq_cost(&p, chunk.min(bytes));
                    copy_service(&p, bytes, p.copy_rate_client) + ctl_fixed + wakes + data_est
                };
                let (grant, _) = world.slots[r.stream].submit(t1, r2t_occ);
                let t1g = grant.max(t1);
                let (t2, c1) = ctl(world, r, Hop::C2T, t1g, true, budget, WaitClass::WriteLike);
                let (t3, c2) = ctl(world, r, Hop::T2C, t2, true, budget, WaitClass::WriteLike);
                bd.comm_us += c1 + c2;
                bd.other_us += us(copy_service(&p, bytes, p.copy_rate_client));
                copy(world, r.client_vm, r, t3, bytes, p.copy_rate_client)
            };
            // H2C data (client copy already done above) [comm]
            let (t4, c) = data_tcp(
                world,
                r,
                Hop::C2T,
                t_data_start,
                bytes,
                chunk,
                false,
                true,
                budget,
                WaitClass::WriteLike,
            );
            bd.comm_us += c;
            // device [io]
            let (t5, io) = ssd(world, r, t4, IoOp::Write, bytes, pattern);
            bd.io_us += io;
            // RESP [comm]
            let (t6, c) = ctl(world, r, Hop::T2C, t5, true, budget, WaitClass::WriteLike);
            bd.comm_us += c;
            // completion [other]
            let (_, t7) = world.vms[r.client_vm].cores[r.core].submit(t6, p.complete);
            bd.other_us += us(p.complete);
            IoOutcome {
                done: t7,
                breakdown: bd,
            }
        }
    }
}

/// NVMe/RDMA flow: one-sided data, memory-registration tails, no copies.
fn rdma_flow(
    world: &mut World,
    r: StreamRes,
    op: IoOp,
    bytes: u64,
    pattern: Pattern,
    start: SimTime,
) -> IoOutcome {
    let p = world.params.clone();
    let msg_cpu = p.rdma.per_msg_cpu;
    let hdr = p.rdma.header_bytes;
    let mut bd = Breakdown::default();
    // prep (+ fill for writes) [other]
    let fill = match op {
        IoOp::Write => SimDuration::from_secs_f64(p.fill_rate.transfer_secs(bytes)),
        IoOp::Read => SimDuration::ZERO,
    };
    let (_, t1) = world.vms[r.client_vm].cores[r.core].submit(start, p.prep + fill);
    bd.other_us += us(p.prep + fill);
    // Memory registration, if this buffer is cold (tail source, §5.4)
    // [comm].
    let reg = {
        let rng = &mut world.rngs[r.stream];
        world.mr[r.stream].charge(rng)
    };
    let (_, t1b) = world.vms[r.client_vm].cores[r.core].submit(t1, reg);
    bd.comm_us += us(reg);
    // Command capsule (RDMA SEND) [comm].
    let (_, tpost) = world.vms[r.client_vm].cores[r.core].submit(t1b, msg_cpu);
    let tland = world.wires[r.wire].transmit_latency_only(tpost, p.ctl_size + hdr);
    let (_, t2) = world.vms[r.target_vm].cores[r.core].submit(tland, msg_cpu);
    bd.comm_us += us(msg_cpu.mul_u64(2)) + us(tland.saturating_since(tpost));
    // One-sided data movement and the device phase. Reads: SSD first,
    // then RDMA WRITE of the data to the client's registered buffer.
    // Writes: the target RDMA-READs the payload *before* submitting.
    let data_wire_svc = world.wires[r.wire].params.serialize_time(bytes + hdr)
        + world.wires[r.wire].params.propagation;
    let tdata = match op {
        IoOp::Read => {
            let (t3, io) = ssd(world, r, t2, IoOp::Read, bytes, pattern);
            bd.io_us += io;
            let (_, tp) = world.vms[r.target_vm].cores[r.core].submit(t3, msg_cpu);
            let td =
                world.wires[r.wire].transmit(tp, oaf_simnet::link::Direction::C2H, bytes + hdr);
            bd.comm_us += us(msg_cpu) + us(data_wire_svc);
            td
        }
        IoOp::Write => {
            let (_, tp) = world.vms[r.target_vm].cores[r.core].submit(t2, msg_cpu);
            let tfetch =
                world.wires[r.wire].transmit(tp, oaf_simnet::link::Direction::H2C, bytes + hdr);
            bd.comm_us += us(msg_cpu) + us(data_wire_svc);
            let (t3, io) = ssd(world, r, tfetch, IoOp::Write, bytes, pattern);
            bd.io_us += io;
            t3
        }
    };
    // Completion capsule [comm].
    let (_, tp2) = world.vms[r.target_vm].cores[r.core].submit(tdata, msg_cpu);
    let tl2 = world.wires[r.wire].transmit_latency_only(tp2, p.ctl_size + hdr);
    let (_, t4) = world.vms[r.client_vm].cores[r.core].submit(tl2, msg_cpu);
    bd.comm_us += us(msg_cpu.mul_u64(2)) + us(tl2.saturating_since(tp2));
    let (_, t5) = world.vms[r.client_vm].cores[r.core].submit(t4, p.complete);
    bd.other_us += us(p.complete);
    IoOutcome {
        done: t5,
        breakdown: bd,
    }
}

/// NVMe-oSHM flow (all four ablation variants).
fn shm_flow(
    world: &mut World,
    r: StreamRes,
    op: IoOp,
    bytes: u64,
    pattern: Pattern,
    start: SimTime,
    variant: ShmVariant,
) -> IoOutcome {
    let p = world.params.clone();
    // The co-located control path is serviced by the SPDK-style poll-mode
    // reactors on both sides (§4.6): wakes are a poll-loop iteration.
    let budget = REACTOR_POLL;
    let conservative = matches!(variant, ShmVariant::Baseline | ShmVariant::LockFree);
    let locked = variant == ShmVariant::Baseline;
    let zero_copy = variant == ShmVariant::ZeroCopy;
    let mut bd = Breakdown::default();

    // A copy through the region; under the baseline it holds the channel
    // lock for the full duration (§4.4.4), serializing both directions.
    let shm_copy = |world: &mut World, vm: usize, now: SimTime, rate: Rate| -> SimTime {
        let service = SimDuration::from_secs_f64(rate.transfer_secs(bytes));
        let tail = {
            let rng = &mut world.rngs[r.stream];
            let mut extra = SimDuration::ZERO;
            if p.copy_tail_prob > 0.0 && rng.chance(p.copy_tail_prob) {
                extra += p.copy_tail_cost;
            }
            if locked && rng.chance(p.shm_preempt_prob) {
                extra += p.shm_preempt_cost;
            }
            extra
        };
        if locked {
            // The lock serializes both directions' copies for the whole
            // copy duration; the memory bus is charged in parallel so
            // the aggregate ceiling still applies.
            let (lock_start, lock_done) =
                world.locks[r.stream].submit(now, p.shm_lock_overhead + service + tail);
            let bus_service = SimDuration::from_secs_f64(p.membus_rate.transfer_secs(bytes));
            let (_, bus_done) = world.vms[vm].membus.submit(lock_start, bus_service);
            lock_done.max(bus_done)
        } else {
            let core_service = p.copy_cpu + service + tail;
            let bus_service = SimDuration::from_secs_f64(p.membus_rate.transfer_secs(bytes));
            let (_, core_done) = world.vms[vm].cores[r.core].submit(now, core_service);
            let (_, bus_done) = world.vms[vm].membus.submit(now, bus_service);
            core_done.max(bus_done)
        }
    };
    let copy_svc_t = copy_service(&p, bytes, p.copy_rate_target);
    let copy_svc_c = copy_service(&p, bytes, p.copy_rate_client);
    // Analytic per-payload channel occupancy for the conservative
    // variants (grant-gating; see below).
    let conservative_occ = copy_svc_t + copy_svc_c + SimDuration::from_micros(45);

    match op {
        IoOp::Read => {
            let (_, t1) = world.vms[r.client_vm].cores[r.core].submit(start, p.prep);
            bd.other_us += us(p.prep);
            // CMD over loopback control path [comm].
            let (t2, c) = ctl(world, r, Hop::C2T, t1, false, budget, WaitClass::ReadLike);
            bd.comm_us += c;
            // Device [io].
            let (t3, io) = ssd(world, r, t2, IoOp::Read, bytes, pattern);
            bd.io_us += io;
            // Conservative variants predate the per-queue-entry slot
            // partitioning (§4.4.1 + §4.4.2): one payload occupies the
            // un-partitioned channel from copy-in to the client's ack,
            // so payloads serialize. The grant gates the data phase.
            let t3 = if conservative {
                let (grant, _) = world.slots[r.stream].submit(t3, conservative_occ);
                grant.max(t3)
            } else {
                t3
            };
            // Target copies payload into the region [comm].
            let t4 = shm_copy(world, r.target_vm, t3, p.copy_rate_target);
            bd.comm_us += us(copy_svc_t);
            // Slot notification (doubles as completion under optimized
            // flow control) [comm].
            let (t5, c) = ctl(world, r, Hop::T2C, t4, false, budget, WaitClass::ReadLike);
            bd.comm_us += c;
            // Conservative flow needs the consumed-ack + separate RESP
            // round (§4.4.2 analog for reads).
            let t5 = if conservative {
                let (ta, c1) = ctl(world, r, Hop::C2T, t5, false, budget, WaitClass::ReadLike);
                let (tb, c2) = ctl(world, r, Hop::T2C, ta, false, budget, WaitClass::ReadLike);
                bd.comm_us += c1 + c2;
                tb
            } else {
                t5
            };
            // Client copy-out — eliminated by zero-copy leases [comm].
            let t6 = if zero_copy {
                t5
            } else {
                bd.comm_us += us(copy_svc_c);
                shm_copy(world, r.client_vm, t5, p.copy_rate_client)
            };
            let (_, t7) = world.vms[r.client_vm].cores[r.core].submit(t6, p.complete);
            bd.other_us += us(p.complete);
            IoOutcome {
                done: t7,
                breakdown: bd,
            }
        }
        IoOp::Write => {
            let fill = SimDuration::from_secs_f64(p.fill_rate.transfer_secs(bytes));
            let (_, t1) = world.vms[r.client_vm].cores[r.core].submit(start, p.prep + fill);
            bd.other_us += us(p.prep + fill);
            let t_ready = if conservative {
                // Fig. 7: CMD ① → R2T ② [comm], then copy-in ③ [other],
                // then H2C notify ④ [comm]. The un-partitioned channel
                // admits one payload at a time (grant-gated).
                let (t2, c1) = ctl(world, r, Hop::C2T, t1, false, budget, WaitClass::WriteLike);
                let (t3, c2) = ctl(world, r, Hop::T2C, t2, false, budget, WaitClass::WriteLike);
                bd.comm_us += c1 + c2;
                let t3 = {
                    let (grant, _) = world.slots[r.stream].submit(t3, conservative_occ);
                    grant.max(t3)
                };
                bd.other_us += us(copy_svc_c);
                let t3b = shm_copy(world, r.client_vm, t3, p.copy_rate_client);
                let (t4, c3) = ctl(world, r, Hop::C2T, t3b, false, budget, WaitClass::WriteLike);
                bd.comm_us += c3;
                t4
            } else {
                // §4.4.2: copy (or build, for zero-copy) the payload in
                // the region first, then a single CMD carries the slot.
                let t1b = if zero_copy {
                    t1 // the application built the data in place
                } else {
                    bd.other_us += us(copy_svc_c);
                    shm_copy(world, r.client_vm, t1, p.copy_rate_client)
                };
                let (t2, c) = ctl(world, r, Hop::C2T, t1b, false, budget, WaitClass::WriteLike);
                bd.comm_us += c;
                t2
            };
            // Target copies region → DPDK buffer (the unavoidable copy,
            // §4.4.3) [comm].
            let t5 = shm_copy(world, r.target_vm, t_ready, p.copy_rate_target);
            bd.comm_us += us(copy_svc_t);
            // Device [io].
            let (t6, io) = ssd(world, r, t5, IoOp::Write, bytes, pattern);
            bd.io_us += io;
            // RESP [comm].
            let (t7, c) = ctl(world, r, Hop::T2C, t6, false, budget, WaitClass::WriteLike);
            bd.comm_us += c;
            let (_, t8) = world.vms[r.client_vm].cores[r.core].submit(t7, p.complete);
            bd.other_us += us(p.complete);
            IoOutcome {
                done: t8,
                breakdown: bd,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_resolves_by_locality() {
        assert_eq!(
            FabricKind::Adaptive {
                local: true,
                tcp_gbps: 25.0
            }
            .resolve(),
            FabricKind::Shm {
                variant: ShmVariant::ZeroCopy
            }
        );
        // The remote chunk is priced on the testbed's CPU costs, so it is
        // the same at every link rate.
        for tcp_gbps in [10.0, 25.0, 100.0] {
            match (FabricKind::Adaptive {
                local: false,
                tcp_gbps,
            })
            .resolve()
            {
                FabricKind::TcpOpt { gbps, chunk, .. } => {
                    assert_eq!(gbps, tcp_gbps);
                    assert_eq!(chunk, 512 * KIB, "{tcp_gbps} Gb/s");
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn select_chunk_picks_512k() {
        let p = SimParams::paper_testbed();
        assert_eq!(
            select_chunk(&p, &[128 * KIB, 512 * KIB, MIB, 2 * MIB]),
            512 * KIB
        );
        assert_eq!(
            select_chunk(&p, &[128 * KIB, 256 * KIB, 512 * KIB, MIB, 2 * MIB]),
            512 * KIB
        );
    }

    #[test]
    fn tiny_chunks_lose_to_per_chunk_cpu() {
        let p = SimParams::paper_testbed();
        assert!(chunked_cpu_cost(&p, 2 * MIB, 64 * KIB) > chunked_cpu_cost(&p, 2 * MIB, 512 * KIB));
    }

    #[test]
    fn huge_chunks_lose_to_the_pool_penalty() {
        let p = SimParams::paper_testbed();
        assert!(
            chunked_cpu_cost(&p, 128 * KIB, 2 * MIB) > chunked_cpu_cost(&p, 128 * KIB, 512 * KIB)
        );
    }

    #[test]
    fn wire_requirements() {
        assert_eq!(
            FabricKind::Shm {
                variant: ShmVariant::ZeroCopy
            }
            .wire_gbps(),
            None
        );
        assert_eq!(FabricKind::RdmaIb.wire_gbps(), Some((56.0, true)));
        assert_eq!(
            FabricKind::TcpStock { gbps: 10.0 }.wire_gbps(),
            Some((10.0, false))
        );
    }

    #[test]
    fn wake_costs() {
        let p = SimParams::paper_testbed();
        // Interrupt mode.
        let (extra, cpu) = wake(&p, SimDuration::ZERO, SimDuration::from_micros(500));
        assert_eq!(extra, p.interrupt_extra);
        assert_eq!(cpu, p.interrupt_cpu);
        // Poll hit: near-free latency, small waste.
        let (extra, cpu) = wake(
            &p,
            SimDuration::from_micros(50),
            SimDuration::from_micros(10),
        );
        assert_eq!(extra, p.poll_hit_extra);
        assert!(cpu < SimDuration::from_micros(10));
        // Poll miss: worse than a plain interrupt on both axes.
        let (extra, cpu) = wake(
            &p,
            SimDuration::from_micros(25),
            SimDuration::from_micros(90),
        );
        assert!(extra > p.interrupt_extra);
        assert!(cpu >= SimDuration::from_micros(25));
    }

    #[test]
    fn chunk_costs_scale_with_size() {
        let p = SimParams::paper_testbed();
        assert!(chunk_app_cost(&p, 128 * KIB) > chunk_app_cost(&p, 4 * KIB).mul_u64(2));
        assert!(chunk_softirq_cost(&p, 128 * KIB) > chunk_softirq_cost(&p, 4 * KIB));
        // Pool penalty is quadratic: a 2 MiB chunk costs 16x the 512 KiB
        // reference.
        let q512 = chunk_pool_penalty(&p, 512 * KIB);
        let q2m = chunk_pool_penalty(&p, 2048 * KIB);
        let ratio = q2m.as_secs_f64() / q512.as_secs_f64();
        assert!((ratio - 16.0).abs() < 0.01, "ratio {ratio}");
    }
}
