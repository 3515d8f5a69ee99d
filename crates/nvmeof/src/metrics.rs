//! Metric bundles for the NVMe-oF data plane.
//!
//! Each bundle is a plain struct of `Arc`-backed [`oaf_telemetry`]
//! handles, created *detached* alongside the subsystem it instruments
//! (transport endpoint, initiator, target connection) so the hot path
//! never branches on "is telemetry enabled" — recording is always a few
//! relaxed atomics. `register` publishes the same handles into a
//! [`Scope`] at wiring time; until then the numbers simply accumulate
//! unobserved.

use crate::nvme::command::Opcode;
use oaf_telemetry::{Counter, Gauge, Histo, Scope};
use std::sync::Arc;

/// Per-endpoint transport counters: frame/byte flow, batch shape, and
/// congestion/backoff behavior.
#[derive(Default, Debug)]
pub struct TransportMetrics {
    /// Frames successfully handed to the peer.
    pub frames_sent: Counter,
    /// Payload bytes successfully handed to the peer.
    pub bytes_sent: Counter,
    /// Frames received from the peer.
    pub frames_received: Counter,
    /// Payload bytes received from the peer.
    pub bytes_received: Counter,
    /// `recv_batch` burst sizes (only non-empty batches are recorded,
    /// so idle polls don't swamp the distribution).
    pub batch_sizes: Histo,
    /// Sends that exhausted the full-ring backoff and gave up with
    /// [`crate::error::NvmeofError::RingFull`].
    pub ring_full: Counter,
    /// `yield_now` calls spent waiting out a full ring.
    pub backoff_yields: Counter,
}

impl TransportMetrics {
    /// Fresh, detached bundle.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Publish every metric of this bundle into `scope`.
    pub fn register(&self, scope: &Scope) {
        scope.adopt_counter("frames_sent", &self.frames_sent);
        scope.adopt_counter("bytes_sent", &self.bytes_sent);
        scope.adopt_counter("frames_received", &self.frames_received);
        scope.adopt_counter("bytes_received", &self.bytes_received);
        scope.adopt_histo("batch_sizes", &self.batch_sizes);
        scope.adopt_counter("ring_full", &self.ring_full);
        scope.adopt_counter("backoff_yields", &self.backoff_yields);
    }

    #[inline]
    pub(crate) fn on_send(&self, bytes: usize) {
        self.frames_sent.inc();
        self.bytes_sent.add(bytes as u64);
    }

    /// Record `frames` borrowed frames of `bytes` bytes in total.
    #[inline]
    pub(crate) fn on_recv_borrowed(&self, frames: usize, bytes: usize) {
        self.frames_received.add(frames as u64);
        self.bytes_received.add(bytes as u64);
    }

    /// Record a completed wait (successful or not) on a full ring.
    #[inline]
    pub(crate) fn on_backoff(&self, yields: u64) {
        if yields > 0 {
            self.backoff_yields.add(yields);
        }
    }
}

/// Number of distinct opcodes the per-opcode latency table covers.
pub const OPCODES: usize = 7;

/// Dense index for the per-opcode latency table.
#[inline]
pub fn opcode_index(op: Opcode) -> usize {
    match op {
        Opcode::Flush => 0,
        Opcode::Write => 1,
        Opcode::Read => 2,
        Opcode::Compare => 3,
        Opcode::Identify => 4,
        Opcode::WriteZeroes => 5,
        Opcode::Dsm => 6,
    }
}

const OPCODE_NAMES: [&str; OPCODES] = [
    "flush",
    "write",
    "read",
    "compare",
    "identify",
    "write_zeroes",
    "dsm",
];

/// Initiator-side view of the command stream: queue depth, volume, and
/// per-opcode submit→completion latency distributions (nanoseconds).
#[derive(Debug)]
pub struct InitiatorMetrics {
    /// Commands submitted (all opcodes).
    pub submitted: Counter,
    /// Completions received.
    pub completions: Counter,
    /// Completions carrying a non-success NVMe status.
    pub errors: Counter,
    /// Commands currently in flight; `hwm()` is the deepest the queue
    /// has ever been.
    pub inflight: Gauge,
    /// Payload bytes moved without an application-side copy (lease-based
    /// writes published in place, reads borrowed from the slot).
    pub zero_copy_bytes: Counter,
    /// Application-side copies the lease path avoided versus the
    /// one-copy publish/consume path.
    pub copies_avoided: Counter,
    /// Commands resubmitted after a deadline expiry (reads directly,
    /// writes after an abort round-trip).
    pub retries: Counter,
    /// Commands whose retry budget ran out and were surfaced as
    /// [`crate::error::NvmeofError::Timeout`].
    pub timeouts: Counter,
    /// Keep-alive heartbeats that went unanswered past the interval.
    pub keepalive_misses: Counter,
    /// Mid-flight shm→TCP payload-path degradations.
    pub degradations: Counter,
    /// Frames for already-retired commands (late duplicates or
    /// completions that raced a retry) dropped instead of erroring.
    pub stale_frames: Counter,
    /// Received frames dropped for failing CRC or structural decode.
    pub corrupt_frames: Counter,
    /// Abort requests sent as part of write-retry round-trips.
    pub aborts_sent: Counter,
    /// H2C sub-requests (chunks) emitted per chunked write transfer
    /// (§4.5, Fig. 9). Only transfers that actually split are recorded.
    pub chunks_per_io: Histo,
    /// H2C data PDUs sent in response to R2T grants (chunked or not).
    pub h2c_chunks: Counter,
    latency: [Histo; OPCODES],
}

impl Default for InitiatorMetrics {
    fn default() -> Self {
        InitiatorMetrics {
            submitted: Counter::new(),
            completions: Counter::new(),
            errors: Counter::new(),
            inflight: Gauge::new(),
            zero_copy_bytes: Counter::new(),
            copies_avoided: Counter::new(),
            retries: Counter::new(),
            timeouts: Counter::new(),
            keepalive_misses: Counter::new(),
            degradations: Counter::new(),
            stale_frames: Counter::new(),
            corrupt_frames: Counter::new(),
            aborts_sent: Counter::new(),
            chunks_per_io: Histo::new(),
            h2c_chunks: Counter::new(),
            latency: std::array::from_fn(|_| Histo::new()),
        }
    }
}

impl InitiatorMetrics {
    /// Fresh, detached bundle.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Submit→completion latency distribution for one opcode.
    #[inline]
    pub fn latency(&self, op: Opcode) -> &Histo {
        &self.latency[opcode_index(op)]
    }

    /// Publish every metric of this bundle into `scope`.
    pub fn register(&self, scope: &Scope) {
        scope.adopt_counter("submitted", &self.submitted);
        scope.adopt_counter("completions", &self.completions);
        scope.adopt_counter("errors", &self.errors);
        scope.adopt_gauge("inflight", &self.inflight);
        scope.adopt_counter("zero_copy_bytes", &self.zero_copy_bytes);
        scope.adopt_counter("copies_avoided", &self.copies_avoided);
        scope.adopt_counter("retries", &self.retries);
        scope.adopt_counter("timeouts", &self.timeouts);
        scope.adopt_counter("keepalive_misses", &self.keepalive_misses);
        scope.adopt_counter("degradations", &self.degradations);
        scope.adopt_counter("stale_frames", &self.stale_frames);
        scope.adopt_counter("corrupt_frames", &self.corrupt_frames);
        scope.adopt_counter("aborts_sent", &self.aborts_sent);
        scope.adopt_histo("chunks_per_io", &self.chunks_per_io);
        scope.adopt_counter("h2c_chunks", &self.h2c_chunks);
        for (i, h) in self.latency.iter().enumerate() {
            scope.adopt_histo(&format!("lat_{}_ns", OPCODE_NAMES[i]), h);
        }
    }
}

/// Socket-level counters for the real TCP transport (§4.5): syscall
/// pressure, partial-I/O resumptions, and receive-buffer behavior.
/// Syscalls-per-frame falls out as `tx_syscalls / frames_sent` (resp.
/// rx) against the paired [`TransportMetrics`].
#[derive(Default, Debug)]
pub struct TcpMetrics {
    /// `write`/`writev` calls issued on the socket.
    pub tx_syscalls: Counter,
    /// `read` calls issued on the socket (including empty polls).
    pub rx_syscalls: Counter,
    /// Vectored `[prefix, payload]` sends that skipped the coalescing
    /// copy.
    pub vectored_sends: Counter,
    /// Sends that could not finish in one call and parked bytes in the
    /// resumable backlog.
    pub partial_write_resumptions: Counter,
    /// Receive fills that ended mid-frame and had to resume on a later
    /// poll.
    pub partial_read_resumptions: Counter,
    /// Frames accepted by `queue_frame` instead of being written at once.
    pub frames_queued: Counter,
    /// Queued frames released per flush decision — how much each
    /// `write` of the corked path amortises. Flushes that found nothing
    /// queued are not recorded.
    pub frames_per_flush: Histo,
    /// Which frame-digest (CRC32C) implementation this host runs —
    /// 0 = slicing-by-8 tables, 1 = x86-64 SSE4.2 instruction, 2 =
    /// AArch64 `crc` instructions, 3 = x86-64 AVX-512 VPCLMULQDQ fold for
    /// payloads of 512 B and up, the instruction below that
    /// ([`oaf_store::crc32::DigestImpl`]). A socket path an order of
    /// magnitude slower than its peers reads 0.
    pub digest_hw: Gauge,
}

impl TcpMetrics {
    /// Fresh, detached bundle.
    pub fn new() -> Arc<Self> {
        let m = Self::default();
        m.digest_hw.set(oaf_store::crc32::digest_impl() as i64);
        Arc::new(m)
    }

    /// Publish every metric of this bundle into `scope`.
    pub fn register(&self, scope: &Scope) {
        scope.adopt_counter("tx_syscalls", &self.tx_syscalls);
        scope.adopt_counter("rx_syscalls", &self.rx_syscalls);
        scope.adopt_counter("vectored_sends", &self.vectored_sends);
        scope.adopt_counter("partial_write_resumptions", &self.partial_write_resumptions);
        scope.adopt_counter("partial_read_resumptions", &self.partial_read_resumptions);
        scope.adopt_counter("frames_queued", &self.frames_queued);
        scope.adopt_histo("frames_per_flush", &self.frames_per_flush);
        scope.adopt_gauge("digest_hw", &self.digest_hw);
    }
}

/// Target-side view of one connection: commands served by opcode class,
/// flow-control events, and payload placement.
#[derive(Default, Debug)]
pub struct TargetMetrics {
    /// Commands executed against the namespace (all opcodes).
    pub ops: Counter,
    /// Response capsules produced.
    pub responses: Counter,
    /// R2T grants issued (conservative write flow).
    pub r2t_grants: Counter,
    /// Write payloads that arrived as shared-memory slot references.
    pub shm_payloads: Counter,
    /// Write payloads that arrived inline in the capsule/H2C stream.
    pub inline_payloads: Counter,
    /// Payload bytes served without an intermediate copy (writes
    /// consumed borrowed from the slot, reads published from a lease).
    pub zero_copy_bytes: Counter,
    /// Target-side copies the lease path avoided versus materializing
    /// payloads into a `Vec`.
    pub copies_avoided: Counter,
    /// Commands that completed with a non-success NVMe status.
    pub errors: Counter,
    /// Keep-alive heartbeats echoed back to the client.
    pub keepalives: Counter,
    /// Received frames dropped by the reactor for failing CRC or
    /// structural decode.
    pub corrupt_frames: Counter,
    /// Barrier-class completions parked on an offloaded sync ticket
    /// instead of blocking the reactor in `fdatasync`.
    pub barriers_parked: Counter,
    /// Wall time a parked barrier completion waited for its sync ticket
    /// to retire, nanoseconds.
    pub barrier_park_ns: Histo,
    /// Idle sleeps the reactor entered while this connection held a
    /// parked completion — each one a release left to a timer. A parked
    /// completion keeps the reactor yielding where it would sleep, so
    /// this stays 0.
    pub timer_wakeups: Counter,
    /// Payload bytes moved at the device copy (reads and writes, inline
    /// or shared-memory) — the counter the serve pass's mid-pass flush
    /// budget reads.
    pub payload_bytes: Counter,
}

impl TargetMetrics {
    /// Fresh, detached bundle.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Publish every metric of this bundle into `scope`.
    pub fn register(&self, scope: &Scope) {
        scope.adopt_counter("ops", &self.ops);
        scope.adopt_counter("responses", &self.responses);
        scope.adopt_counter("r2t_grants", &self.r2t_grants);
        scope.adopt_counter("shm_payloads", &self.shm_payloads);
        scope.adopt_counter("inline_payloads", &self.inline_payloads);
        scope.adopt_counter("zero_copy_bytes", &self.zero_copy_bytes);
        scope.adopt_counter("copies_avoided", &self.copies_avoided);
        scope.adopt_counter("errors", &self.errors);
        scope.adopt_counter("keepalives", &self.keepalives);
        scope.adopt_counter("corrupt_frames", &self.corrupt_frames);
        scope.adopt_counter("barriers_parked", &self.barriers_parked);
        scope.adopt_histo("barrier_park_ns", &self.barrier_park_ns);
        scope.adopt_counter("timer_wakeups", &self.timer_wakeups);
        scope.adopt_counter("payload_bytes", &self.payload_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaf_telemetry::Registry;

    #[test]
    fn opcode_table_is_dense_and_total() {
        let ops = [
            Opcode::Flush,
            Opcode::Write,
            Opcode::Read,
            Opcode::Compare,
            Opcode::Identify,
            Opcode::WriteZeroes,
            Opcode::Dsm,
        ];
        let mut seen = [false; OPCODES];
        for op in ops {
            let i = opcode_index(op);
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn initiator_metrics_register_per_opcode_histos() {
        let m = InitiatorMetrics::new();
        m.latency(Opcode::Read).record(500);
        m.latency(Opcode::Write).record(900);
        let registry = Registry::new();
        m.register(&registry.scope("client"));
        let snap = registry.snapshot();
        assert_eq!(snap.histo("client", "lat_read_ns").unwrap().count, 1);
        assert_eq!(snap.histo("client", "lat_write_ns").unwrap().count, 1);
        assert_eq!(snap.histo("client", "lat_flush_ns").unwrap().count, 0);
    }

    #[test]
    fn transport_metrics_register_all() {
        let m = TransportMetrics::new();
        m.on_send(64);
        m.on_recv_borrowed(1, 64);
        m.batch_sizes.record(1);
        let registry = Registry::new();
        m.register(&registry.scope("transport"));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("transport", "frames_sent"), 1);
        assert_eq!(snap.counter("transport", "bytes_received"), 64);
        assert_eq!(snap.counter("transport", "frames_received"), 1);
        assert_eq!(snap.histo("transport", "batch_sizes").unwrap().count, 1);
    }
}
