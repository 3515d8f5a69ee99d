//! Per-layer numbers read from the runtime's own telemetry: the delta of
//! two `Registry::snapshot` calls around the traced window, divided by
//! the ops that window completed.
//!
//! `launch` registers flat scope names (`client`, `tcp_client`, ...),
//! `launch_many` suffixes the connection index (`client0`, ...) and names
//! the target side `target_conn<i>`; the helpers here take the base
//! names a layer may appear under and match any numeric suffix.

use nvme_oaf::telemetry::{HistoSnapshot, MetricValue, Snapshot};

const APP: &[&str] = &["app"];
const CLIENT: &[&str] = &["client"];
const TRANSPORT_CLIENT: &[&str] = &["transport_client"];
const TRANSPORT_BOTH: &[&str] = &["transport_client", "transport_target"];
const TCP_BOTH: &[&str] = &["tcp_client", "tcp_target"];
const BUFMGR_CLIENT: &[&str] = &["bufmgr_client"];
const BUFMGR_BOTH: &[&str] = &["bufmgr_client", "bufmgr_target"];
const TARGET: &[&str] = &["target", "target_conn"];
const STORE: &[&str] = &["store_ns"];

fn scope_matches(scope: &str, bases: &[&str]) -> bool {
    bases.iter().any(|base| {
        scope
            .strip_prefix(base)
            .is_some_and(|rest| rest.chars().all(|c| c.is_ascii_digit()))
    })
}

/// Whether a scope `base` or `base<digits>` exists.
pub fn has_scope(snap: &Snapshot, base: &str) -> bool {
    snap.scopes.iter().any(|s| scope_matches(&s.name, &[base]))
}

fn values<'a>(
    snap: &'a Snapshot,
    bases: &'a [&'a str],
    name: &'a str,
) -> impl Iterator<Item = &'a MetricValue> {
    snap.scopes
        .iter()
        .filter(move |s| scope_matches(&s.name, bases))
        .flat_map(move |s| s.metrics.iter().filter(move |m| m.name == name))
        .map(|m| &m.value)
}

/// Sum of a counter over every scope matching one of `bases`.
pub fn counter(snap: &Snapshot, bases: &[&str], name: &str) -> u64 {
    values(snap, bases, name)
        .map(|v| match v {
            MetricValue::Counter(c) => *c,
            _ => 0,
        })
        .sum()
}

/// Largest high-water mark of a gauge over the matching scopes.
fn gauge_hwm(snap: &Snapshot, bases: &[&str], name: &str) -> f64 {
    values(snap, bases, name)
        .map(|v| match v {
            MetricValue::Gauge { max, .. } => *max,
            _ => 0,
        })
        .max()
        .unwrap_or(0) as f64
}

/// A histogram merged over the matching scopes.
fn histo(snap: &Snapshot, bases: &[&str], name: &str) -> HistoSnapshot {
    let mut merged = HistoSnapshot::default();
    for v in values(snap, bases, name) {
        if let MetricValue::Histo(h) = v {
            for (a, b) in merged.buckets.iter_mut().zip(h.buckets.iter()) {
                *a += *b;
            }
            merged.count += h.count;
            merged.sum += h.sum;
            merged.max = merged.max.max(h.max);
        }
    }
    merged
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Telemetry-sourced metrics for a traced window. `delta` is
/// `after.delta(&before)`; `after` supplies the gauges' high-water
/// marks. `ops` and `writes` are the window's completed ops; `io_bytes`
/// the workload's I/O size.
pub fn from_telemetry(
    delta: &Snapshot,
    after: &Snapshot,
    ops: u64,
    writes: u64,
    io_bytes: usize,
) -> Vec<(&'static str, f64)> {
    let c = |bases: &[&str], name: &str| counter(delta, bases, name);
    let per_op = |n: u64| ratio(n, ops);
    let per_kop = |n: u64| ratio(n, ops) * 1e3;
    let p50 = |bases: &[&str], name: &str| histo(delta, bases, name).p50();
    let us = |ns: u64| ns as f64 / 1e3;

    let frames = c(TRANSPORT_CLIENT, "frames_sent") + c(TRANSPORT_CLIENT, "frames_received");
    // Frames either endpoint put on a socket: `launch_many` registers no
    // target-side transport scope, and the target's sends are the
    // client's receives.
    let socket_frames = if has_scope(delta, "tcp_client") {
        frames
    } else {
        0
    };
    let payloads = c(TARGET, "shm_payloads") + c(TARGET, "inline_payloads");
    let fsyncs = c(STORE, "fsyncs");
    let coalesced = c(STORE, "fsyncs_coalesced");
    let lookups = c(STORE, "cache_hits") + c(STORE, "cache_misses");

    vec![
        (
            "core.zero_copy_frac",
            ratio(c(APP, "zero_copy_writes"), c(APP, "writes")),
        ),
        ("transport.frames_per_op", per_op(frames)),
        (
            "transport.batch_p50",
            p50(TRANSPORT_CLIENT, "batch_sizes") as f64,
        ),
        (
            "transport.ring_full_per_kop",
            per_kop(c(TRANSPORT_BOTH, "ring_full")),
        ),
        (
            "transport.backoff_yields_per_kop",
            per_kop(c(TRANSPORT_BOTH, "backoff_yields")),
        ),
        (
            "tcp.syscalls_per_op",
            per_op(c(TCP_BOTH, "tx_syscalls") + c(TCP_BOTH, "rx_syscalls")),
        ),
        (
            "tcp.vectored_frac",
            ratio(c(TCP_BOTH, "vectored_sends"), socket_frames),
        ),
        (
            "tcp.partial_resumptions_per_kop",
            per_kop(
                c(TCP_BOTH, "partial_write_resumptions") + c(TCP_BOTH, "partial_read_resumptions"),
            ),
        ),
        ("tcp.h2c_chunks_per_op", per_op(c(CLIENT, "h2c_chunks"))),
        (
            "shmem.leases_live_hwm",
            gauge_hwm(after, BUFMGR_CLIENT, "leases_live"),
        ),
        (
            "shmem.lease_denied_per_kop",
            per_kop(c(BUFMGR_BOTH, "lease_denied")),
        ),
        ("target.r2t_per_kop", per_kop(c(TARGET, "r2t_grants"))),
        (
            "target.shm_payload_frac",
            ratio(c(TARGET, "shm_payloads"), payloads),
        ),
        (
            "target.parked_per_kop",
            per_kop(c(TARGET, "barriers_parked")),
        ),
        ("target.park_p50_us", us(p50(TARGET, "barrier_park_ns"))),
        ("store.fsyncs_per_kop", per_kop(fsyncs)),
        ("store.coalesced_frac", ratio(coalesced, fsyncs + coalesced)),
        ("store.fsync_p50_us", us(p50(STORE, "fsync_ns"))),
        ("store.commit_batch_p50", p50(STORE, "commit_batch") as f64),
        (
            "store.cache_hit_frac",
            ratio(c(STORE, "cache_hits"), lookups),
        ),
        (
            "store.writebacks_per_kop",
            per_kop(c(STORE, "cache_writebacks")),
        ),
        (
            "store.evictions_per_kop",
            per_kop(c(STORE, "cache_evictions")),
        ),
        (
            "store.checkpoints_per_kop",
            per_kop(c(STORE, "checkpoints")),
        ),
        (
            "store.log_bytes_per_user_byte",
            ratio(c(STORE, "log_bytes"), writes * io_bytes as u64),
        ),
        (
            "store.sync_queue_hwm",
            gauge_hwm(after, STORE, "sync_queue_depth"),
        ),
    ]
}
