//! Thread-per-core sharded target runtime: multi-queue scale-out.
//!
//! [`spawn_sharded`] is the one way a target starts. It runs N of the
//! same poll-mode reactor — one for `launch`, `launch_many` and
//! [`spawn_target`] (a single SPDK poll group), more to scale the
//! storage service out the way NVMe itself scales — each exclusively
//! owning
//!
//! * a disjoint set of connections (steered at accept time, never
//!   migrated),
//! * its own controller view over the one storage service
//!   ([`Controller::share`] — the multi-queue model),
//!
//! so that **no lock crosses cores on the data path**. Telemetry needs
//! no per-shard copy: every reactor registers its `Arc`'d counters
//! straight into the caller's one [`Registry`] (connection `i` under
//! `target_conn<i>`, shard `n` under `reactor<n>`), whose lock is taken
//! only at registration and snapshot time. The only cross-shard
//! structure is one bounded SPSC admin mailbox per shard
//! ([`crate::spsc`]) through which the control plane delivers the
//! connections accepted at runtime; the reactor drains it between poll
//! passes with a wait-free `pop`, never a mutex.
//!
//! [`spawn_target`]: crate::target::spawn_target

use std::sync::Arc;

use crate::error::NvmeofError;
use crate::nvme::controller::Controller;
use crate::server::{ConnectionSpec, LiveConnection};
use crate::target::TargetHandle;
use oaf_telemetry::{Counter, Gauge, Registry, Scope};

/// Per-shard reactor telemetry, registered under scope `reactor<n>` for
/// shard `n`.
#[derive(Default, Debug)]
pub struct ShardStats {
    /// Frames drained and executed by this shard.
    pub ops: Counter,
    /// Poll passes (idle or not) the reactor has run.
    pub polls: Counter,
    /// Connections adopted from the admin mailbox.
    pub admin_cmds: Counter,
    /// Live connections currently owned by the shard.
    pub conns: Gauge,
}

impl ShardStats {
    pub(crate) fn register(&self, scope: &Scope) {
        scope.adopt_counter("ops", &self.ops);
        scope.adopt_counter("polls", &self.polls);
        scope.adopt_counter("admin_cmds", &self.admin_cmds);
        scope.adopt_gauge("conns", &self.conns);
    }
}

/// Per-thread setup hook of a reactor, called with the shard index.
pub type ThreadHook = Arc<dyn Fn(usize) + Send + Sync>;

/// Configuration for [`spawn_sharded`].
pub struct ShardConfig {
    /// Reactor threads to run. On a machine with fewer cores the shards
    /// oversubscribe; correctness is unaffected (each shard still owns
    /// its connections exclusively), only parallel speed-up is.
    pub shards: usize,
    /// Optional per-thread setup hook, called first thing on each shard
    /// thread with the shard index (CPU pinning, allocator tracking in
    /// tests, …).
    pub thread_hook: Option<ThreadHook>,
}

impl ShardConfig {
    /// `shards` reactors, no thread hook.
    pub fn new(shards: usize) -> Self {
        ShardConfig {
            shards,
            thread_hook: None,
        }
    }
}

/// Spawns `cfg.shards` reactor threads, each exclusively owning the
/// connections steered to it and its own shared-storage controller view.
///
/// Connection `i` goes to shard `i % shards` and registers into
/// `registry` under `target_conn<i>`; shard `n`'s [`ShardStats`] under
/// `reactor<n>`. The handle keeps `registry`, so connections adopted
/// later ([`TargetHandle::add_connection`]) register into it too.
pub fn spawn_sharded(
    mut controller: Controller,
    conns: Vec<ConnectionSpec>,
    cfg: ShardConfig,
    registry: &Arc<Registry>,
) -> TargetHandle {
    assert!(cfg.shards > 0, "need at least one shard");

    // Global connection numbering keeps the scope names stable
    // regardless of shard count.
    let mut per_shard: Vec<Vec<LiveConnection>> = (0..cfg.shards).map(|_| Vec::new()).collect();
    let next_conn = conns.len();
    for (i, spec) in conns.into_iter().enumerate() {
        per_shard[i % cfg.shards].push(LiveConnection::build(spec, i, registry));
    }

    let mut handle = TargetHandle::new(next_conn, registry.clone());
    for live in per_shard {
        // Every shard gets its own controller view over the one storage
        // service — the NVMe multi-queue model. No `&mut` is shared.
        handle.spawn_reactor(live, controller.share(), cfg.thread_hook.clone());
    }
    handle
}

/// The per-shard view of a running target. Every handle has at least
/// one reactor shard: a [`spawn_target`] handle has exactly one, and
/// adopts connections like any other.
///
/// [`spawn_target`]: crate::target::spawn_target
impl TargetHandle {
    /// Number of reactor shards.
    pub fn shards(&self) -> usize {
        self.ports.len()
    }

    /// Shard `n`'s reactor telemetry.
    pub fn shard_stats(&self, n: usize) -> &Arc<ShardStats> {
        &self.ports[n].stats
    }

    /// Frames executed by each shard so far — the load-balance witness
    /// (`max/min ≤ bound` in the scale tests).
    pub fn ops_per_shard(&self) -> Vec<u64> {
        self.ports.iter().map(|p| p.stats.ops.get()).collect()
    }

    /// The shard connection number `conn` is steered to: `conn % shards`.
    pub fn shard_of(&self, conn: usize) -> usize {
        conn % self.shards()
    }

    /// Steers `spec` to its shard ([`TargetHandle::shard_of`]), registers
    /// it under `target_conn<i>` (`i` counting on from the spawned
    /// connections) in the registry the target was spawned with, and
    /// delivers it through the shard's admin mailbox. Returns the shard
    /// index.
    ///
    /// Fails with [`NvmeofError::RingFull`] if the shard's mailbox is
    /// full (the reactor is wedged or shutdown already drained it).
    pub fn add_connection(&mut self, spec: ConnectionSpec) -> Result<usize, NvmeofError> {
        let conn_index = self.next_conn;
        self.next_conn += 1;
        let shard = self.shard_of(conn_index);
        let live = LiveConnection::build(spec, conn_index, &self.registry);
        self.ports[shard]
            .mailbox
            .push(Box::new(live))
            .map_err(|_| NvmeofError::RingFull)?;
        Ok(shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initiator::{Initiator, InitiatorOptions};
    use crate::nvme::namespace::Namespace;
    use crate::target::TargetConfig;
    use crate::transport::ShmTransport;
    use bytes::Bytes;
    use std::time::Duration;

    const TIMEOUT: Duration = Duration::from_secs(5);
    /// Ring bytes per direction: a 128 KiB inline chunk fits a frame.
    const RING: u64 = 1 << 20;

    fn controller() -> Controller {
        let mut c = Controller::new();
        c.add_namespace(Namespace::new(1, 4096, 2048));
        c
    }

    fn spec(t: ShmTransport) -> ConnectionSpec {
        ConnectionSpec {
            transport: Box::new(t),
            cfg: TargetConfig::default(),
            payload: None,
        }
    }

    #[test]
    fn sharded_target_serves_clients_on_distinct_shards() {
        let (c1, t1) = ShmTransport::pair(RING);
        let (c2, t2) = ShmTransport::pair(RING);
        let registry = Arc::new(Registry::new());
        let target = spawn_sharded(
            controller(),
            vec![spec(t1), spec(t2)],
            ShardConfig::new(2),
            &registry,
        );
        let mut a = Initiator::connect(c1, InitiatorOptions::default(), None, TIMEOUT).unwrap();
        let mut b = Initiator::connect(c2, InitiatorOptions::default(), None, TIMEOUT).unwrap();

        // One storage service behind both shards: a write through shard
        // 0's connection is visible through shard 1's.
        a.write_blocking(1, 0, 1, Bytes::from(vec![0xaa; 4096]), TIMEOUT)
            .unwrap();
        let via_b = b.read_blocking(1, 0, 1, 4096, TIMEOUT).unwrap();
        assert!(via_b.iter().all(|&x| x == 0xaa));

        // Both shards did real work, and the one registry shows the
        // per-shard and per-connection split.
        a.disconnect().unwrap();
        b.disconnect().unwrap();
        let ops = target.ops_per_shard();
        assert!(ops[0] > 0 && ops[1] > 0, "ops split: {ops:?}");
        let snap = registry.snapshot();
        assert!(snap.counter("reactor0", "ops") > 0);
        assert!(snap.counter("reactor1", "ops") > 0);
        assert!(snap.counter("target_conn0", "ops") > 0);
        assert!(snap.counter("target_conn1", "ops") > 0);
        target.shutdown().unwrap();
    }

    #[test]
    fn connection_added_at_runtime_lands_on_its_steered_shard() {
        let registry = Arc::new(Registry::new());
        let mut target = spawn_sharded(controller(), Vec::new(), ShardConfig::new(2), &registry);
        let (c1, t1) = ShmTransport::pair(RING);
        let (c2, t2) = ShmTransport::pair(RING);
        assert_eq!(target.add_connection(spec(t1)).unwrap(), 0);
        assert_eq!(target.add_connection(spec(t2)).unwrap(), 1);
        let mut a = Initiator::connect(c1, InitiatorOptions::default(), None, TIMEOUT).unwrap();
        let mut b = Initiator::connect(c2, InitiatorOptions::default(), None, TIMEOUT).unwrap();
        a.write_blocking(1, 3, 1, Bytes::from(vec![0x42; 4096]), TIMEOUT)
            .unwrap();
        assert!(b
            .read_blocking(1, 3, 1, 4096, TIMEOUT)
            .unwrap()
            .iter()
            .all(|&x| x == 0x42));
        a.disconnect().unwrap();
        b.disconnect().unwrap();
        assert!(target.shard_stats(0).admin_cmds.get() >= 1);
        assert!(target.shard_stats(1).admin_cmds.get() >= 1);
        // Adopted connections report into the registry the target was
        // spawned with, numbered after the spawned ones.
        let snap = registry.snapshot();
        assert!(snap.counter("target_conn0", "ops") > 0);
        assert!(snap.counter("target_conn1", "ops") > 0);
        assert_eq!(snap.counter("reactor0", "admin_cmds"), 1);
        target.shutdown().unwrap();
    }

    #[test]
    fn shard_survives_sibling_client_vanishing() {
        let (c1, t1) = ShmTransport::pair(RING);
        let (c2, t2) = ShmTransport::pair(RING);
        let target = spawn_sharded(
            controller(),
            vec![spec(t1), spec(t2)],
            ShardConfig::new(2),
            &Arc::default(),
        );
        let a = Initiator::connect(c1, InitiatorOptions::default(), None, TIMEOUT).unwrap();
        let mut b = Initiator::connect(c2, InitiatorOptions::default(), None, TIMEOUT).unwrap();
        drop(a); // shard 0's client vanishes without a TermReq
        for i in 0..8 {
            b.write_blocking(1, i, 1, Bytes::from(vec![i as u8; 4096]), TIMEOUT)
                .unwrap();
        }
        b.disconnect().unwrap();
        target.shutdown().unwrap();
    }

    #[test]
    fn dropping_the_handle_stops_every_reactor() {
        use crate::transport::recv_n;
        let (c1, t1) = ShmTransport::pair(RING);
        let (c2, t2) = ShmTransport::pair(RING);
        let target = spawn_sharded(
            controller(),
            vec![spec(t1), spec(t2)],
            ShardConfig::new(2),
            &Arc::default(),
        );
        drop(target); // no shutdown()

        // A stopped reactor drops its transports; a leaked one would keep
        // both connections open (and its thread polling) forever.
        for client in [c1, c2] {
            assert!(matches!(
                recv_n(&client, 1, Duration::from_secs(1)),
                Err(NvmeofError::TransportClosed)
            ));
        }
    }

    #[test]
    fn thread_hook_runs_once_per_shard() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let mut cfg = ShardConfig::new(3);
        cfg.thread_hook = Some(Arc::new(move |n| {
            seen2.lock().unwrap().push(n);
        }));
        let target = spawn_sharded(controller(), Vec::new(), cfg, &Arc::default());
        target.shutdown().unwrap();
        let mut order = seen.lock().unwrap().clone();
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2]);
    }
}
