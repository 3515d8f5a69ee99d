//! The closed-loop experiment driver.
//!
//! Reproduces the SPDK `perf` methodology (§5.1): each stream keeps
//! `queue_depth` I/Os in flight against its SSD for the duration of the
//! run; streams are interleaved in virtual-time order so contention on
//! shared resources (wires, softirq cores, memory buses) is resolved
//! consistently.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use oaf_simnet::calendar::CalendarServer;
use oaf_simnet::rng::SimRng;
use oaf_simnet::time::SimTime;
use oaf_ssd::{IoOp, QueuePair, SsdDevice};

use super::fabric::{simulate_io, FabricKind, StreamRes};
use super::metrics::Metrics;
use super::params::SimParams;
use super::workload::WorkloadSpec;
use super::world::{ethernet_wire, rdma_wire, VmHost, World};

/// One stream's placement and fabric.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Fabric the stream runs on.
    pub fabric: FabricKind,
    /// Client VM index (streams sharing a VM share its softirq core and
    /// memory bus).
    pub client_vm: usize,
    /// Target VM index.
    pub target_vm: usize,
    /// Wire index (streams sharing a NIC share its serialization).
    pub wire: usize,
}

/// A complete experiment specification.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// Per-stream placement.
    pub streams: Vec<StreamConfig>,
    /// The workload every stream runs.
    pub workload: WorkloadSpec,
    /// Model calibration.
    pub params: SimParams,
}

impl ExperimentSpec {
    /// The paper's common topology: `n` streams, all in one client VM
    /// talking to one target VM over one shared NIC (Figs. 2, 3, 11, 12).
    pub fn uniform(fabric: FabricKind, n: usize, workload: WorkloadSpec) -> Self {
        ExperimentSpec {
            streams: (0..n)
                .map(|_| StreamConfig {
                    fabric,
                    client_vm: 0,
                    target_vm: 1,
                    wire: 0,
                })
                .collect(),
            workload,
            params: match fabric.resolve() {
                FabricKind::Roce => SimParams::roce_physical(),
                _ => SimParams::paper_testbed(),
            },
        }
    }

    /// Number of VMs referenced.
    fn vm_count(&self) -> usize {
        self.streams
            .iter()
            .flat_map(|s| [s.client_vm, s.target_vm])
            .max()
            .map(|m| m + 1)
            .unwrap_or(0)
    }

    /// Number of wires referenced.
    fn wire_count(&self) -> usize {
        self.streams
            .iter()
            .map(|s| s.wire)
            .max()
            .map(|m| m + 1)
            .unwrap_or(0)
    }
}

/// Builds the contended world for a spec (public so external replayers —
/// e.g. the h5bench trace replay — can drive `simulate_io` directly).
pub fn build_world(spec: &ExperimentSpec) -> World {
    let n = spec.streams.len();
    let mut seed_rng = SimRng::seed_from_u64(spec.workload.seed);
    // Size each VM's core array to the number of streams (each stream
    // pins core index = its position).
    let vms = (0..spec.vm_count()).map(|_| VmHost::new(n)).collect();
    // Wires: pick speed from the fastest fabric needing each wire.
    let mut wires = Vec::new();
    for w in 0..spec.wire_count() {
        let cfg = spec
            .streams
            .iter()
            .find(|s| s.wire == w && s.fabric.wire_gbps().is_some());
        let wire = match cfg.and_then(|s| s.fabric.wire_gbps()) {
            // IB runs in VMs over SR-IOV (derated); RoCE runs on
            // physical nodes (§5.1).
            Some((gbps, true)) if gbps < 100.0 => rdma_wire(gbps, 0.75),
            Some((gbps, true)) => rdma_wire(gbps, 0.85),
            Some((gbps, false)) => ethernet_wire(gbps),
            // Wire unused (pure shared-memory experiment): a fast dummy.
            None => ethernet_wire(100.0),
        };
        wires.push(wire);
    }
    let ssds = (0..n)
        .map(|i| SsdDevice::new(spec.params.ssd, spec.workload.seed ^ (i as u64) << 17))
        .collect();
    let mr = (0..n)
        .map(|_| oaf_simnet::rdma::MrCache::new(spec.params.rdma))
        .collect();
    let locks = vec![CalendarServer::new(); n];
    let slots = vec![CalendarServer::new(); n];
    let rngs = (0..n).map(|i| seed_rng.fork(i as u64)).collect();
    World {
        params: spec.params.clone(),
        vms,
        wires,
        ssds,
        mr,
        locks,
        slots,
        rngs,
    }
}

/// Runs the experiment, returning aggregate metrics.
pub fn run(spec: &ExperimentSpec) -> Metrics {
    run_probed(spec).metrics
}

/// Convenience: runs a uniform `n`-stream experiment.
pub fn run_uniform(fabric: FabricKind, n: usize, workload: WorkloadSpec) -> Metrics {
    run(&ExperimentSpec::uniform(fabric, n, workload))
}

/// Result of [`run_probed`]: metrics plus the final world for resource-
/// utilization introspection (used by calibration tooling and tests).
pub struct ProbedRun {
    /// The run's metrics.
    pub metrics: Metrics,
    /// The world after the run (server busy times, device stats).
    pub world: World,
}

impl ProbedRun {
    /// Prints per-resource utilization (VM cores, softirq, membus, wire
    /// directions, SSD channels) over the run's completion horizon.
    pub fn print_utilization(&self) {
        use oaf_simnet::link::Direction;
        let h = self.metrics.last_completion;
        for (i, vm) in self.world.vms.iter().enumerate() {
            let core0 = vm
                .cores
                .first()
                .map(|c| c.utilization(h) * 100.0)
                .unwrap_or(0.0);
            println!(
                "  vm{i}: core0 {core0:.0}% | softirq {:.0}% | membus {:.0}%",
                vm.softirq.utilization(h) * 100.0,
                vm.membus.utilization(h) * 100.0,
            );
        }
        for (i, w) in self.world.wires.iter().enumerate() {
            println!(
                "  wire{i}: h2c {:.0}% | c2h {:.0}% ({:.2} GB/s goodput)",
                w.utilization(Direction::H2C, h) * 100.0,
                w.utilization(Direction::C2H, h) * 100.0,
                w.goodput().as_bytes_per_sec() / 1e9,
            );
        }
        for (i, s) in self.world.ssds.iter().enumerate() {
            println!("  ssd{i}: channels {:.0}%", s.utilization(h) * 100.0);
        }
    }
}

/// Like [`run`], but also returns the world so callers can inspect
/// utilization of wires, cores, buses and devices.
pub fn run_probed(spec: &ExperimentSpec) -> ProbedRun {
    spec.workload.validate();
    assert!(!spec.streams.is_empty(), "at least one stream");
    let wl = spec.workload;
    let mut world = build_world(spec);
    let mut metrics = Metrics::new(spec.streams.len());
    let mut qps: Vec<QueuePair> = (0..spec.streams.len())
        .map(|_| QueuePair::new(wl.queue_depth))
        .collect();
    let mut op_rngs: Vec<SimRng> = (0..spec.streams.len())
        .map(|i| SimRng::seed_from_u64(wl.seed.wrapping_mul(0x9e37_79b9) ^ i as u64))
        .collect();
    let horizon = SimTime::ZERO + wl.duration;
    // Resolve adaptive fabrics once (the chunk selector etc. are pure
    // but not free; simulate_io re-resolving per I/O would be wasteful).
    let fabrics: Vec<FabricKind> = spec.streams.iter().map(|c| c.fabric.resolve()).collect();
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = (0..spec.streams.len())
        .map(|i| Reverse((SimTime::ZERO, i)))
        .collect();
    while let Some(Reverse((cursor, s))) = heap.pop() {
        if cursor > horizon {
            continue;
        }
        let issue = qps[s].admit(cursor);
        if issue > horizon {
            continue;
        }
        let cfg = spec.streams[s];
        let res = StreamRes {
            client_vm: cfg.client_vm,
            target_vm: cfg.target_vm,
            core: s,
            wire: cfg.wire,
            stream: s,
        };
        let op = if op_rngs[s].chance(wl.read_fraction) {
            IoOp::Read
        } else {
            IoOp::Write
        };
        let outcome = simulate_io(
            &mut world, fabrics[s], res, op, wl.io_size, wl.pattern, issue,
        );
        if std::env::var_os("OAF_SIM_TRACE").is_some() && metrics.total_ops() < 40 {
            eprintln!(
                "io{} issue {:.1} done {:.1} lat {:.1}",
                metrics.total_ops(),
                issue.as_micros_f64(),
                outcome.done.as_micros_f64(),
                (outcome.done - issue).as_micros_f64()
            );
        }
        qps[s].complete(outcome.done);
        metrics.record(
            s,
            op == IoOp::Read,
            outcome.done - issue,
            outcome.breakdown,
            wl.io_size,
            outcome.done,
        );
        heap.push(Reverse((issue + world.params.submit_gap, s)));
    }
    ProbedRun { metrics, world }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::fabric::ShmVariant;
    use oaf_simnet::time::SimDuration;
    use oaf_simnet::units::KIB;

    fn quick(io: u64, reads: f64) -> WorkloadSpec {
        // Debug builds run the simulation ~15-20x slower; shorter virtual
        // runs keep `cargo test` (no --release) usable. The assertions
        // here have wide margins, so fewer samples are fine.
        let ms = if cfg!(debug_assertions) { 40 } else { 120 };
        WorkloadSpec::new(io, reads).with_duration(SimDuration::from_millis(ms))
    }

    #[test]
    fn tcp_runs_and_moves_bytes() {
        let m = run_uniform(
            FabricKind::TcpStock { gbps: 25.0 },
            1,
            quick(128 * KIB, 1.0),
        );
        assert!(m.total_ops() > 100, "ops {}", m.total_ops());
        assert!(m.bandwidth_mib() > 100.0, "bw {}", m.bandwidth_mib());
        assert_eq!(m.writes.count(), 0);
    }

    #[test]
    fn faster_wire_is_faster_overall() {
        let a = run_uniform(
            FabricKind::TcpStock { gbps: 10.0 },
            4,
            quick(128 * KIB, 1.0),
        );
        let b = run_uniform(
            FabricKind::TcpStock { gbps: 100.0 },
            4,
            quick(128 * KIB, 1.0),
        );
        assert!(
            b.bandwidth_mib() > a.bandwidth_mib() * 1.5,
            "10G {} vs 100G {}",
            a.bandwidth_mib(),
            b.bandwidth_mib()
        );
    }

    #[test]
    fn shm_beats_tcp() {
        let tcp = run_uniform(
            FabricKind::TcpStock { gbps: 25.0 },
            4,
            quick(128 * KIB, 1.0),
        );
        let shm = run_uniform(
            FabricKind::Shm {
                variant: ShmVariant::ZeroCopy,
            },
            4,
            quick(128 * KIB, 1.0),
        );
        assert!(
            shm.bandwidth_mib() > tcp.bandwidth_mib() * 2.0,
            "tcp {} shm {}",
            tcp.bandwidth_mib(),
            shm.bandwidth_mib()
        );
    }

    #[test]
    fn rdma_beats_tcp_at_latency() {
        let tcp = run_uniform(FabricKind::TcpStock { gbps: 100.0 }, 1, quick(4 * KIB, 1.0));
        let rdma = run_uniform(FabricKind::RdmaIb, 1, quick(4 * KIB, 1.0));
        assert!(
            rdma.reads.mean_lat_us() < tcp.reads.mean_lat_us(),
            "tcp {} rdma {}",
            tcp.reads.mean_lat_us(),
            rdma.reads.mean_lat_us()
        );
    }

    #[test]
    fn mixed_workload_produces_both_ops() {
        let m = run_uniform(
            FabricKind::TcpStock { gbps: 25.0 },
            1,
            quick(128 * KIB, 0.7),
        );
        let r = m.reads.count() as f64;
        let w = m.writes.count() as f64;
        let frac = r / (r + w);
        assert!((frac - 0.7).abs() < 0.05, "read fraction {frac}");
    }

    #[test]
    fn breakdown_sums_to_latency() {
        let m = run_uniform(
            FabricKind::TcpStock { gbps: 25.0 },
            1,
            quick(128 * KIB, 1.0),
        );
        let b = m.reads.mean_breakdown();
        let lat = m.reads.mean_lat_us();
        // Queue-pair admission waits are not part of the breakdown, so
        // the breakdown may be smaller than end-to-end latency, never
        // larger (beyond rounding).
        assert!(
            b.total_us() <= lat * 1.01,
            "breakdown {} lat {lat}",
            b.total_us()
        );
        assert!(b.total_us() > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let m1 = run_uniform(FabricKind::RdmaIb, 2, quick(64 * KIB, 0.5));
        let m2 = run_uniform(FabricKind::RdmaIb, 2, quick(64 * KIB, 0.5));
        assert_eq!(m1.total_ops(), m2.total_ops());
        assert_eq!(m1.total_bytes(), m2.total_bytes());
        assert_eq!(m1.last_completion, m2.last_completion);
    }

    #[test]
    fn queue_depth_increases_bandwidth() {
        let qd1 = run_uniform(
            FabricKind::Shm {
                variant: ShmVariant::ZeroCopy,
            },
            1,
            quick(128 * KIB, 1.0).with_queue_depth(1),
        );
        let qd16 = run_uniform(
            FabricKind::Shm {
                variant: ShmVariant::ZeroCopy,
            },
            1,
            quick(128 * KIB, 1.0).with_queue_depth(16),
        );
        assert!(
            qd16.bandwidth_mib() > qd1.bandwidth_mib() * 3.0,
            "qd1 {} qd16 {}",
            qd1.bandwidth_mib(),
            qd16.bandwidth_mib()
        );
    }

    #[test]
    fn roce_is_bound_by_its_real_ssd() {
        // RoCE runs on physical nodes with one real NVMe-SSD (§5.1): its
        // 100G wire is not the limit, the media is — so it lands *below*
        // IB-56G on the RAM-backed emulated devices.
        let roce = run_uniform(FabricKind::Roce, 1, quick(128 * KIB, 1.0));
        let rdma = run_uniform(FabricKind::RdmaIb, 1, quick(128 * KIB, 1.0));
        assert!(
            roce.bandwidth_mib() < rdma.bandwidth_mib(),
            "roce {} rdma {}",
            roce.bandwidth_mib(),
            rdma.bandwidth_mib()
        );
        let ceiling = SimParams::roce_physical().ssd.bandwidth_ceiling() / (1 << 20) as f64;
        assert!(roce.bandwidth_mib() < ceiling * 1.01);
    }

    #[test]
    fn explicit_busy_poll_changes_tcp_behaviour() {
        let interrupt = run_uniform(
            FabricKind::TcpOpt {
                gbps: 10.0,
                chunk: 128 * KIB,
                busy_poll: SimDuration::ZERO,
            },
            1,
            quick(128 * KIB, 1.0),
        );
        let polled = run_uniform(
            FabricKind::TcpOpt {
                gbps: 10.0,
                chunk: 128 * KIB,
                busy_poll: SimDuration::from_micros(25),
            },
            1,
            quick(128 * KIB, 1.0),
        );
        // Reads with a well-sized budget beat interrupts.
        assert!(
            polled.bandwidth_mib() > interrupt.bandwidth_mib(),
            "polled {} interrupt {}",
            polled.bandwidth_mib(),
            interrupt.bandwidth_mib()
        );
    }

    #[test]
    fn per_stream_bandwidth_sums_to_aggregate() {
        let m = run_uniform(
            FabricKind::TcpStock { gbps: 25.0 },
            4,
            quick(128 * KIB, 1.0),
        );
        let sum: f64 = (0..4).map(|s| m.stream_bandwidth_mib(s)).sum();
        assert!(
            (sum / m.bandwidth_mib() - 1.0).abs() < 1e-9,
            "sum {sum} vs aggregate {}",
            m.bandwidth_mib()
        );
        // Symmetric streams get roughly equal shares.
        for s in 0..4 {
            let share = m.stream_bandwidth_mib(s) / m.bandwidth_mib();
            assert!((share - 0.25).abs() < 0.05, "stream {s} share {share}");
        }
    }

    #[test]
    fn scale_out_topology_runs() {
        // Two streams on separate node pairs (own VMs and wires), one
        // local, one remote — the Fig. 18/19 shape.
        let spec = ExperimentSpec {
            streams: vec![
                StreamConfig {
                    fabric: FabricKind::Adaptive {
                        local: true,
                        tcp_gbps: 25.0,
                    },
                    client_vm: 0,
                    target_vm: 1,
                    wire: 0,
                },
                StreamConfig {
                    fabric: FabricKind::Adaptive {
                        local: false,
                        tcp_gbps: 25.0,
                    },
                    client_vm: 0,
                    target_vm: 2,
                    wire: 1,
                },
            ],
            workload: quick(128 * KIB, 1.0),
            params: SimParams::paper_testbed(),
        };
        let m = run(&spec);
        assert!(m.total_ops() > 0);
        // The local stream moves more bytes than the remote one.
        assert!(m.stream_bandwidth_mib(0) > m.stream_bandwidth_mib(1));
    }
}
