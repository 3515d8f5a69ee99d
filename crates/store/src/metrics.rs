//! Metric bundle for the durable store, in the workspace's detached
//! style: plain `Arc`-backed [`oaf_telemetry`] handles created with the
//! store and published into a [`Scope`] at wiring time. Recording is
//! always a few relaxed atomics — the write path never branches on
//! whether telemetry is live.

use oaf_telemetry::{Counter, Gauge, Histo, Scope};
use std::sync::Arc;

/// Counters and distributions for one [`FileDisk`](crate::disk::FileDisk)
/// (shared by every queue view of a
/// [`SharedFileDisk`](crate::disk::SharedFileDisk)).
#[derive(Default, Debug)]
pub struct StoreMetrics {
    /// Intent-log records appended.
    pub log_appends: Counter,
    /// Bytes appended to the intent log (headers + payloads + CRCs).
    pub log_bytes: Counter,
    /// Dirty bytes made durable by sync barriers (flush, FUA,
    /// checkpoint).
    pub flushed_bytes: Counter,
    /// Durability barriers issued (`fsync`/`fdatasync`).
    pub fsyncs: Counter,
    /// Latency of each durability barrier, nanoseconds.
    pub fsync_ns: Histo,
    /// TRIM (Dataset Management) ranges deallocated.
    pub trims: Counter,
    /// Torn tail records detected (and truncated) during recovery.
    pub torn_records: Counter,
    /// Log records replayed on open.
    pub replay_ops: Counter,
    /// Checkpoints taken (log full → fold into data region, bump epoch).
    pub checkpoints: Counter,
    /// Wall time of each checkpoint — cache drain, both syncs and the
    /// superblock write — nanoseconds. The append that fills the log
    /// waits all of it out.
    pub checkpoint_ns: Histo,
    /// Durability barriers retired by an `fdatasync` some other barrier
    /// started (a sync-worker round run for an earlier ticket) instead
    /// of one of their own. `fsyncs` +
    /// `fsyncs_coalesced` counts every barrier once when no checkpoint
    /// syncs in between.
    pub fsyncs_coalesced: Counter,
    /// Tickets retired per group-commit sync (batch size).
    pub commit_batch: Histo,
    /// Block-cache read hits (blocks served with zero syscalls).
    pub cache_hits: Counter,
    /// Block-cache read misses (blocks fetched from the data region).
    pub cache_misses: Counter,
    /// Dirty cache blocks written back to the data region (eviction,
    /// resize or checkpoint drain).
    pub cache_writebacks: Counter,
    /// Cache entries evicted to make room (clean or dirty).
    pub cache_evictions: Counter,
    /// Dirty blocks currently resident in the cache.
    pub cache_dirty: Gauge,
    /// Bytes of live (written, not deallocated) data in the store.
    pub live_bytes: Gauge,
    /// Barrier tickets submitted to the sync worker and not yet retired
    /// (durable or failed). `hwm()` is the deepest the queue has been.
    pub sync_queue_depth: Gauge,
    /// Barriers handed to the sync worker (every FUA/Flush on a shared
    /// disk; none runs `fdatasync` on the calling thread).
    pub barriers_offloaded: Counter,
    /// Current block-cache capacity, in blocks (moves when the adaptive
    /// controller resizes the arena).
    pub cache_capacity: Gauge,
    /// Adaptive cache grow decisions taken.
    pub cache_grows: Counter,
    /// Adaptive cache shrink decisions taken.
    pub cache_shrinks: Counter,
    /// Page-cache write-outs the sync worker started between barriers
    /// (`Vfs::start_writeback`), so a barrier's `fdatasync` finds less
    /// to push. A kick makes nothing durable and retires no ticket.
    pub writeback_kicks: Counter,
}

impl StoreMetrics {
    /// Fresh, detached bundle.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Publish every metric of this bundle into `scope`.
    pub fn register(&self, scope: &Scope) {
        scope.adopt_counter("log_appends", &self.log_appends);
        scope.adopt_counter("log_bytes", &self.log_bytes);
        scope.adopt_counter("flushed_bytes", &self.flushed_bytes);
        scope.adopt_counter("fsyncs", &self.fsyncs);
        scope.adopt_histo("fsync_ns", &self.fsync_ns);
        scope.adopt_counter("trims", &self.trims);
        scope.adopt_counter("torn_records", &self.torn_records);
        scope.adopt_counter("replay_ops", &self.replay_ops);
        scope.adopt_counter("checkpoints", &self.checkpoints);
        scope.adopt_histo("checkpoint_ns", &self.checkpoint_ns);
        scope.adopt_counter("fsyncs_coalesced", &self.fsyncs_coalesced);
        scope.adopt_histo("commit_batch", &self.commit_batch);
        scope.adopt_counter("cache_hits", &self.cache_hits);
        scope.adopt_counter("cache_misses", &self.cache_misses);
        scope.adopt_counter("cache_writebacks", &self.cache_writebacks);
        scope.adopt_counter("cache_evictions", &self.cache_evictions);
        scope.adopt_gauge("cache_dirty", &self.cache_dirty);
        scope.adopt_gauge("live_bytes", &self.live_bytes);
        scope.adopt_gauge("sync_queue_depth", &self.sync_queue_depth);
        scope.adopt_counter("barriers_offloaded", &self.barriers_offloaded);
        scope.adopt_gauge("cache_capacity", &self.cache_capacity);
        scope.adopt_counter("cache_grows", &self.cache_grows);
        scope.adopt_counter("cache_shrinks", &self.cache_shrinks);
        scope.adopt_counter("writeback_kicks", &self.writeback_kicks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaf_telemetry::Registry;

    #[test]
    fn registers_under_store_scope() {
        let m = StoreMetrics::new();
        m.log_appends.inc();
        m.fsync_ns.record(1500);
        let registry = Registry::new();
        m.register(&registry.scope("store"));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("store", "log_appends"), 1);
        assert_eq!(snap.histo("store", "fsync_ns").unwrap().count, 1);
        assert_eq!(snap.counter("store", "torn_records"), 0);
    }

    #[test]
    fn cache_and_commit_metrics_register() {
        let m = StoreMetrics::new();
        m.fsyncs_coalesced.inc();
        m.commit_batch.record(4);
        m.cache_hits.add(10);
        m.cache_dirty.set(3);
        m.live_bytes.set(8192);
        let registry = Registry::new();
        m.register(&registry.scope("store"));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("store", "fsyncs_coalesced"), 1);
        assert_eq!(snap.histo("store", "commit_batch").unwrap().count, 1);
        assert_eq!(snap.counter("store", "cache_hits"), 10);
        assert_eq!(snap.gauge("store", "cache_dirty").unwrap().0, 3);
        assert_eq!(snap.gauge("store", "live_bytes").unwrap().0, 8192);
    }

    #[test]
    fn offload_and_adaptive_cache_metrics_register() {
        let m = StoreMetrics::new();
        m.sync_queue_depth.set(2);
        m.barriers_offloaded.add(5);
        m.cache_capacity.set(256);
        m.cache_grows.inc();
        m.writeback_kicks.add(3);
        m.checkpoint_ns.record(7_500_000);
        let registry = Registry::new();
        m.register(&registry.scope("store"));
        let snap = registry.snapshot();
        assert_eq!(snap.histo("store", "checkpoint_ns").unwrap().count, 1);
        assert_eq!(snap.gauge("store", "sync_queue_depth").unwrap().0, 2);
        assert_eq!(snap.counter("store", "barriers_offloaded"), 5);
        assert_eq!(snap.gauge("store", "cache_capacity").unwrap().0, 256);
        assert_eq!(snap.counter("store", "cache_grows"), 1);
        assert_eq!(snap.counter("store", "cache_shrinks"), 0);
        assert_eq!(snap.counter("store", "writeback_kicks"), 3);
    }
}
