//! The workload and metric catalogue: names, units, directions, bounds,
//! and — for every per-layer metric — the end-to-end metric and workload
//! it is expected to move. `oafbench list` prints this; `BENCHMARK.json`
//! repeats the names and the smoke run checks the two agree.

/// Which fabric a workload runs on, i.e. which runtime entry point and
/// locality verdict set it up.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fabric {
    /// Co-located, default `launch`: control PDUs on a real TCP socket,
    /// payload in shared memory (the paper's NVMe-oSHM).
    Oshm,
    /// Co-located, `ControlPath::InRegion`: control on shm byte rings.
    InRegion,
    /// Remote, `launch`: everything on a real loopback socket.
    Tcp,
    /// Remote, `launch_many`: two connections on one multi-connection
    /// reactor, both driven by the one client thread.
    Tcp2,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    Ram,
    /// `FileDisk` on the data-dir filesystem with a block cache of this
    /// many blocks and the sync worker attached.
    File {
        cache_blocks: usize,
    },
}

pub struct Workload {
    pub name: &'static str,
    pub fabric: Fabric,
    pub backend: Backend,
    /// Prefilled working set, MiB.
    pub set_mib: u64,
    pub io_bytes: usize,
    /// Queue depth per connection.
    pub qd: usize,
    pub read_pct: u32,
    /// Writes carry Force Unit Access.
    pub fua: bool,
    /// One blocking `Flush` per this many completions.
    pub flush_every: Option<u64>,
    pub why: &'static str,
}

impl Workload {
    pub fn conns(&self) -> usize {
        if self.fabric == Fabric::Tcp2 {
            2
        } else {
            1
        }
    }

    pub fn nlb(&self) -> u32 {
        (self.io_bytes / crate::gen::BLOCK) as u32
    }

    pub fn blocks(&self) -> u64 {
        self.set_mib * 1024 * 1024 / crate::gen::BLOCK as u64
    }

    /// I/O-sized slots in the working set.
    pub fn slots(&self) -> u32 {
        (self.blocks() / u64::from(self.nlb())) as u32
    }

    pub fn is_file(&self) -> bool {
        matches!(self.backend, Backend::File { .. })
    }
}

const CACHE_BLOCKS: usize = 4096;

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "oshm_4k_qd1",
        fabric: Fabric::Oshm,
        backend: Backend::Ram,
        set_mib: 64,
        io_bytes: 4096,
        qd: 1,
        read_pct: 50,
        fua: false,
        flush_every: None,
        why: "latency floor of NVMe-oSHM: control-PDU syscalls and the cross-thread hand-off dominate, payload cost is ~0",
    },
    Workload {
        name: "inregion_4k_qd32",
        fabric: Fabric::InRegion,
        backend: Backend::Ram,
        set_mib: 64,
        io_bytes: 4096,
        qd: 32,
        read_pct: 70,
        fua: false,
        flush_every: None,
        why: "no syscalls at all, so per-op CPU in core, initiator, PDU codec, ring and target is everything; socket work must show nothing",
    },
    Workload {
        name: "oshm_128k_qd32",
        fabric: Fabric::Oshm,
        backend: Backend::Ram,
        set_mib: 64,
        io_bytes: 128 * 1024,
        qd: 32,
        read_pct: 50,
        fua: false,
        flush_every: None,
        why: "the paper's bandwidth point: slot leases, zero-copy publish and device-slot memcpy dominate; control is amortised 32x",
    },
    Workload {
        name: "tcp2_4k_qd16",
        fabric: Fabric::Tcp2,
        backend: Backend::Ram,
        set_mib: 64,
        io_bytes: 4096,
        qd: 16,
        read_pct: 70,
        fua: false,
        flush_every: None,
        why: "small-op socket path (in-capsule writes, CRC over payload, syscalls/op) on the multi-connection reactor, 2 connections x QD16",
    },
    Workload {
        name: "tcp_128k_qd16",
        fabric: Fabric::Tcp,
        backend: Backend::Ram,
        set_mib: 64,
        io_bytes: 128 * 1024,
        qd: 16,
        read_pct: 50,
        fua: false,
        flush_every: None,
        why: "R2T + chunked H2C/C2H, CRC32 over every payload byte, partial-I/O resumption and socket back-pressure; shm layers idle",
    },
    Workload {
        name: "file_fua_4k_qd32",
        fabric: Fabric::Oshm,
        backend: Backend::File {
            cache_blocks: CACHE_BLOCKS,
        },
        set_mib: 8,
        io_bytes: 4096,
        qd: 32,
        read_pct: 50,
        fua: true,
        flush_every: None,
        why: "barrier path: journal append, group-commit tickets, sync worker, parked completions; 8 MiB set fits the 4096-block cache",
    },
    Workload {
        name: "file_wb_4k_qd32",
        fabric: Fabric::Oshm,
        backend: Backend::File {
            cache_blocks: CACHE_BLOCKS,
        },
        set_mib: 64,
        io_bytes: 4096,
        qd: 32,
        read_pct: 30,
        fua: false,
        flush_every: Some(512),
        why: "write-back cache under eviction, read misses, checkpoints and log folding; 64 MiB set is 4x the cache, one Flush per 512 ops",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct E2eMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression. `fail_ratio` is
    /// the exception: its bound is absolute (any failure regresses).
    pub bound: f64,
    pub def: &'static str,
}

pub const FAIL_RATIO: &str = "fail_ratio";

pub const E2E: [E2eMetric; 8] = [
    E2eMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        def: "backend create + launch* + full working-set prefill, up to the first warm-up op (median of the run's set-ups)",
    },
    E2eMetric {
        name: "iops",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        def: "completed reads+writes per second, interquartile mean of the 1 s interval rates",
    },
    E2eMetric {
        name: "read_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        def: "submit-call entry to completion returned by poll, reads; per-interval p50, interquartile mean across intervals",
    },
    E2eMetric {
        name: "read_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        def: "as read_p50_us, 95th percentile",
    },
    E2eMetric {
        name: "write_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        def: "as read_p50_us for writes (FUA writes on file_fua_4k_qd32); buffer alloc+fill precede the timed span",
    },
    E2eMetric {
        name: "write_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        def: "as write_p50_us, 95th percentile",
    },
    E2eMetric {
        name: FAIL_RATIO,
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        def: "(non-OK status + content mismatch + ops stuck at the 5 s watchdog + fabric/backend assertion violations) / ops attempted",
    },
    E2eMetric {
        name: "rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        def: "VmRSS at the end of the measured window",
    },
];

pub fn e2e(name: &str) -> Option<&'static E2eMetric> {
    E2E.iter().find(|m| m.name == name)
}

/// How a per-layer number is obtained.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// Isolated probe: single-threaded timed calls into the layer's
    /// public functions at the workload's I/O size.
    Probe,
    /// Span around a call in the live traced run.
    Span,
    /// Telemetry-snapshot delta over the traced window.
    Telemetry,
    /// Derived from other measurements of the traced pass.
    Derived,
}

impl Source {
    pub fn tag(self) -> &'static str {
        match self {
            Source::Probe => "P",
            Source::Span => "S",
            Source::Telemetry => "T",
            Source::Derived => "D",
        }
    }
}

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    pub def: &'static str,
    /// Which end-to-end metric on which workload this should move.
    pub moves: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    def: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        source,
        def,
        moves,
    }
}

use Better::{Higher, Lower};
use Source::{Derived, Probe, Span, Telemetry};

const MV_CORE: &str = "iops on inregion_4k_qd32, *_p50_us on oshm_4k_qd1; ~nothing on *_128k_*";
const MV_RING: &str = "iops and p50 on inregion_4k_qd32; zero on tcp*";
const MV_TCP: &str = "iops on tcp2_4k_qd16 and tcp_128k_qd16, *_p50_us on oshm_4k_qd1 (its control PDUs ride the socket); none on inregion_4k_qd32";
const MV_SHM: &str = "iops on oshm_128k_qd32; none on tcp*";
const MV_PARK: &str = "write_p50_us and read_p95_us on file_fua_4k_qd32";
const MV_BARRIER: &str =
    "write_p50_us, read_p95_us, iops on file_fua_4k_qd32; none on RAM workloads";
const MV_CACHE: &str = "iops, read_p50_us, write_p95_us on file_wb_4k_qd32; none on RAM workloads";
const MV_NOISE: &str = "explains spread; not a target";

pub const LAYER: [LayerMetric; 59] = [
    // core (AfClient, runtime)
    lm("core.alloc_ns", "ns", Lower, Span, "AfClient::alloc per write, p50", MV_CORE),
    lm("core.submit_ns", "ns", Lower, Span, "AfClient::submit_* call, p50 over reads and writes", MV_CORE),
    lm("core.poll_hit_ns", "ns", Lower, Span, "AfClient::poll calls that returned completions, span / completions, p50", MV_CORE),
    lm("core.poll_empty_ns", "ns", Lower, Span, "AfClient::poll calls that returned nothing, p50", MV_CORE),
    lm("core.polls_per_op", "count", Lower, Span, "poll calls / completed ops", MV_CORE),
    lm("core.client_allocs_per_op", "count", Lower, Span, "heap allocations on the client thread / completed ops (thread-local counting allocator)", MV_CORE),
    lm("core.zero_copy_frac", "ratio", Higher, Telemetry, "app*.zero_copy_writes / app*.writes", "iops on oshm_128k_qd32"),
    lm("core.establish_ms", "ms", Lower, Span, "the launch / launch_many call", "setup_s everywhere"),
    // fabric (derived residue)
    lm("fabric.wait_ns", "ns", Lower, Span, "op span - submit span - the poll span that returned it: transit + target + wait-to-be-polled, p50", "the residue the probes explain; at QD1 it is *_p50_us minus client time"),
    lm("fabric.wait_read_ns", "ns", Lower, Span, "fabric.wait_ns over reads only", "read_p50_us; reads queued behind barriers on file_fua_4k_qd32"),
    lm("fabric.wait_write_ns", "ns", Lower, Span, "fabric.wait_ns over writes only", "write_p50_us; the parked-barrier wait on file_fua_4k_qd32"),
    // nvmeof.transport
    lm("transport.frames_per_op", "count", Lower, Telemetry, "client transport frames sent+received / ops", "every 4K workload (4 -> 2 control messages per write shows here)"),
    lm("transport.batch_p50", "count", Higher, Telemetry, "client recv_batch burst size, log2-bucket p50", MV_RING),
    lm("transport.ring_full_per_kop", "1/kop", Lower, Telemetry, "ring_full events, both endpoints, per 1000 ops", MV_RING),
    lm("transport.backoff_yields_per_kop", "1/kop", Lower, Telemetry, "backoff_yields, both endpoints, per 1000 ops", MV_RING),
    lm("transport.ring_rt_ns", "ns", Lower, Probe, "ShmTransport::pair: capsule-sized frame there and back, send_frame + recv_batch", MV_RING),
    // nvmeof.tcp
    lm("tcp.syscalls_per_op", "count", Lower, Telemetry, "tx_syscalls + rx_syscalls, both endpoints, / ops (rx includes empty polls)", MV_TCP),
    lm("tcp.vectored_frac", "ratio", Higher, Telemetry, "vectored_sends / socket frames sent, both endpoints", "iops on tcp_128k_qd16"),
    lm("tcp.partial_resumptions_per_kop", "1/kop", Lower, Telemetry, "partial read+write resumptions, both endpoints, per 1000 ops", "iops on tcp_128k_qd16"),
    lm("tcp.h2c_chunks_per_op", "count", Lower, Telemetry, "client*.h2c_chunks / ops", "iops on tcp_128k_qd16"),
    lm("tcp.rt_ns", "ns", Lower, Probe, "TcpTransport::loopback_pair: capsule-sized frame there and back", MV_TCP),
    lm("tcp.stream_mib_s", "MiB/s", Higher, Probe, "I/O-sized data PDUs one way over loopback, encode_split_into + send_split", "iops on tcp_128k_qd16"),
    // nvmeof.pdu
    lm("pdu.cmd_codec_ns", "ns", Lower, Probe, "encode_into + decode_slice of a header-only command capsule, CRC included", "all 4K workloads"),
    lm("pdu.data_codec_gib_s", "GiB/s", Higher, Probe, "encode_into + decode_slice of a data PDU carrying the workload's payload", "iops on tcp_128k_qd16, tcp2_4k_qd16; none on shm workloads"),
    // shmem
    lm("shmem.lease_cycle_ns", "ns", Lower, Probe, "ShmPayloadChannel alloc -> publish_lease -> consume_with -> drop at the I/O size", MV_SHM),
    lm("shmem.leases_live_hwm", "count", Lower, Telemetry, "bufmgr_client*.leases_live high-water mark", MV_SHM),
    lm("shmem.lease_denied_per_kop", "1/kop", Lower, Telemetry, "bufmgr lease_denied, both sides, per 1000 ops", MV_SHM),
    // nvmeof.target
    lm("target.handle_ns", "ns", Lower, Probe, "TargetConnection::handle fed alternating read/write capsules, RAM namespace, no transport", "iops on inregion_4k_qd32, tcp2_4k_qd16"),
    lm("target.r2t_per_kop", "1/kop", Lower, Telemetry, "r2t_grants per 1000 ops", "iops on tcp_128k_qd16"),
    lm("target.shm_payload_frac", "ratio", Higher, Telemetry, "shm_payloads / (shm_payloads + inline_payloads)", MV_SHM),
    lm("target.parked_per_kop", "1/kop", Lower, Telemetry, "barriers_parked per 1000 ops", MV_PARK),
    lm("target.park_p50_us", "us", Lower, Telemetry, "barrier_park_ns, log2-bucket p50", MV_PARK),
    // nvmeof.controller (+ ssd RAM disk)
    lm("controller.read_ns", "ns", Lower, Probe, "Controller::read_into at the workload's size and backend (the paper's I/O time)", "iops on oshm_128k_qd32 and file_*"),
    lm("controller.write_ns", "ns", Lower, Probe, "Controller::execute(write) at the workload's size and backend", "iops on oshm_128k_qd32 and file_*"),
    // store
    lm("store.write_ns", "ns", Lower, Probe, "FileDisk write, one block, no FUA (0 on RAM workloads)", MV_CACHE),
    lm("store.write_fua_ns", "ns", Lower, Probe, "FileDisk write with FUA: journal append + inline fdatasync", MV_BARRIER),
    lm("store.read_hit_ns", "ns", Lower, Probe, "FileDisk read served by the block cache", MV_CACHE),
    lm("store.read_miss_ns", "ns", Lower, Probe, "FileDisk read missing a 64-block cache", MV_CACHE),
    lm("store.flush_ns", "ns", Lower, Probe, "FileDisk flush after one dirty write", MV_BARRIER),
    lm("store.fsyncs_per_kop", "1/kop", Lower, Telemetry, "fsyncs per 1000 ops", MV_BARRIER),
    lm("store.coalesced_frac", "ratio", Higher, Telemetry, "fsyncs_coalesced / (fsyncs + fsyncs_coalesced)", MV_BARRIER),
    lm("store.fsync_p50_us", "us", Lower, Telemetry, "fsync_ns, log2-bucket p50", MV_BARRIER),
    lm("store.commit_batch_p50", "count", Higher, Telemetry, "tickets retired per sync, log2-bucket p50", MV_BARRIER),
    lm("store.cache_hit_frac", "ratio", Higher, Telemetry, "cache_hits / (cache_hits + cache_misses)", MV_CACHE),
    lm("store.writebacks_per_kop", "1/kop", Lower, Telemetry, "cache_writebacks per 1000 ops", MV_CACHE),
    lm("store.evictions_per_kop", "1/kop", Lower, Telemetry, "cache_evictions per 1000 ops", MV_CACHE),
    lm("store.checkpoints_per_kop", "1/kop", Lower, Telemetry, "checkpoints per 1000 ops", MV_CACHE),
    lm("store.log_bytes_per_user_byte", "ratio", Lower, Telemetry, "log_bytes / bytes written by the workload", MV_CACHE),
    lm("store.sync_queue_hwm", "count", Lower, Telemetry, "sync_queue_depth high-water mark", MV_BARRIER),
    lm("store.flush_p50_us", "us", Lower, Span, "client-visible AfClient::flush, p50 (file_wb_4k_qd32 only)", "write_p95_us on file_wb_4k_qd32"),
    // telemetry
    lm("telemetry.record_ns", "ns", Lower, Probe, "Counter::inc + Histo::record", "x ~10-20 records/op -> iops on inregion_4k_qd32 only"),
    // proc / harness / trace
    lm("proc.cpu_util", "ratio", Lower, Derived, "process CPU time / (wall x nproc) over the traced window", MV_NOISE),
    lm("proc.invol_ctx_per_s", "1/s", Lower, Derived, "involuntary context switches, all threads, per second of traced window", MV_NOISE),
    lm("harness.overhead_ns", "ns", Lower, Probe, "the client loop with submit/poll stubbed: op generation, fill, verify, timestamps, histograms", "must stay < 5 % of the inregion_4k_qd32 op budget"),
    lm("trace.overhead_frac", "ratio", Lower, Derived, "1 - traced iops / untraced iops of the same session", "must stay <= 0.10"),
    lm("trace.reconstruct_err_frac", "ratio", Lower, Derived, "|p50(submit)+p50(poll_hit)+p50(wait) - p50(op)| / p50(op), reads of the traced window", "must stay <= 0.10 on oshm_4k_qd1"),
    lm("trace.iops", "1/s", Higher, Derived, "ops per second of the traced window (full-buffer verification on)", "follows iops"),
    lm("trace.read_p50_us", "us", Lower, Span, "op span p50, reads of the traced window", "follows read_p50_us"),
    lm("trace.write_p50_us", "us", Lower, Span, "op span p50, writes of the traced window", "follows write_p50_us"),
];
