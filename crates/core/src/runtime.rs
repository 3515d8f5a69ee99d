//! The real (threaded) NVMe-oAF runtime: the co-designed client API.
//!
//! [`AfClient`] is what an application co-designed with the adaptive
//! fabric sees (the paper co-designs SPDK `perf` and h5bench, §4.6): it
//! allocates I/O buffers through the Buffer Manager — which transparently
//! returns zero-copy shared-memory leases when the fabric is local — and
//! submits I/O that rides whichever channel the Connection Manager
//! selected. "The AF write distinguishes the control and data path during
//! the runtime and sends the data over shared memory whereas the control
//! messages over TCP, unbeknownst to the application."

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use oaf_nvmeof::nvme::controller::{Controller, IdentifyInfo};
use oaf_nvmeof::recovery::CidMap;
use oaf_nvmeof::shard::{spawn_sharded, ShardConfig};
use oaf_nvmeof::target::{TargetConfig, TargetHandle};
use oaf_nvmeof::transport::ControlTransport;
use oaf_nvmeof::{Initiator, NvmeofError};

use crate::buf::{BufferManager, DpdkPool, IoBuffer};
use crate::conn::{ConnectionManager, FabricSettings};
use crate::locality::{HostRegistry, ProcessId};
use crate::payload_impl::ShmPayloadChannel;
use oaf_telemetry::{Counter, Registry, Scope};

/// Default I/O timeout for the blocking convenience API.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

/// A connected NVMe-oAF client.
pub struct AfClient {
    initiator: Initiator<ControlTransport>,
    bufmgr: BufferManager,
    app: AppCounters,
    /// Per-command accounting metadata: `(bytes, zero_copy, is_read)`,
    /// consumed when the completion arrives.
    inflight_meta: CidMap<(u64, bool, bool)>,
}

/// The client's application view, in its `app` scope. An op is counted
/// at completion; a failed one counts as an error, not an op.
struct AppCounters {
    writes: Counter,
    reads: Counter,
    bytes_written: Counter,
    bytes_read: Counter,
    /// Writes that published a zero-copy shared-memory lease.
    zero_copy_writes: Counter,
    /// Failed operations (NVMe errors, timeouts, transport errors).
    errors: Counter,
    /// Wall-clock microseconds spent in blocking calls.
    blocking_micros: Counter,
}

impl AppCounters {
    fn new(app: &Scope) -> Self {
        AppCounters {
            writes: app.counter("writes"),
            reads: app.counter("reads"),
            bytes_written: app.counter("bytes_written"),
            bytes_read: app.counter("bytes_read"),
            zero_copy_writes: app.counter("zero_copy_writes"),
            errors: app.counter("errors"),
            blocking_micros: app.counter("blocking_micros"),
        }
    }

    fn blocked_since(&self, t0: std::time::Instant) {
        self.blocking_micros.add(t0.elapsed().as_micros() as u64);
    }
}

/// Handle pair returned by [`launch`]: the client plus the target handle
/// needed for shutdown.
pub struct AfPair {
    /// The connected client.
    pub client: AfClient,
    /// The running target.
    pub target: TargetHandle,
    /// Telemetry registry every layer of this fabric reports into:
    /// initiator (`client`), target (`target_conn0`, `reactor0`), both
    /// transport endpoints, the in-region control rings when active,
    /// fabric decisions (`fabric`), and the client's application view
    /// (`app`).
    pub telemetry: Arc<Registry>,
}

/// One-call setup of a single client↔target pair: the group bring-up of
/// [`launch_many`] with one client and one reactor. Client-side
/// telemetry scopes carry no suffix (`client`, `transport_client`, …);
/// the target side is `target_conn0` and `reactor0`, the same rule as
/// every group's.
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use oaf_core::conn::FabricSettings;
/// use oaf_core::locality::{HostRegistry, ProcessId};
/// use oaf_core::runtime::launch;
/// use oaf_nvmeof::nvme::controller::Controller;
/// use oaf_nvmeof::nvme::namespace::Namespace;
///
/// let mut controller = Controller::new();
/// controller.add_namespace(Namespace::new(1, 4096, 256));
/// let registry = Arc::new(HostRegistry::new());
/// // Same host id on both sides: the connection gets a shared-memory region.
/// let mut pair = launch(&registry, (ProcessId(1), 7), (ProcessId(2), 7),
///                       controller, FabricSettings::default()).unwrap();
/// assert!(pair.client.shm_active());
///
/// let mut buf = pair.client.alloc(4096).unwrap(); // zero-copy lease
/// buf[0] = 42;
/// pair.client.write(1, 0, 1, buf, Duration::from_secs(5)).unwrap();
/// let back = pair.client.read(1, 0, 1, 4096, Duration::from_secs(5)).unwrap();
/// assert_eq!(back[0], 42);
/// # pair.client.disconnect().unwrap();
/// # pair.target.shutdown().unwrap();
/// ```
pub fn launch(
    registry: &Arc<HostRegistry>,
    client: (ProcessId, u64),
    target: (ProcessId, u64),
    controller: Controller,
    settings: FabricSettings,
) -> Result<AfPair, NvmeofError> {
    let AfGroup {
        mut clients,
        target,
        telemetry,
    } = launch_group(registry, &[client], target, controller, settings, 1, |_| {
        String::new()
    })?;
    Ok(AfPair {
        client: clients.pop().expect("one client"),
        target,
        telemetry,
    })
}

/// Handles returned by [`launch_many`] and [`launch_many_sharded`]: the
/// clients plus the shared storage-service handle.
pub struct AfGroup {
    /// One connected client per requested `(ProcessId, host)`.
    pub clients: Vec<AfClient>,
    /// The storage service serving all of them; client `i` is served by
    /// shard `target.shard_of(i)`.
    pub target: TargetHandle,
    /// Telemetry registry with per-connection scopes suffixed by the
    /// client index: `client<i>`, `transport_client<i>`, `app<i>`, … and
    /// `target_conn<i>`, plus `reactor<n>` per reactor shard.
    pub telemetry: Arc<Registry>,
}

/// Registers the durable-store telemetry of every file-backed namespace
/// under a `store_ns<id>` scope, so journal appends, fsync latency and
/// recovery counters land in the same registry as the fabric metrics.
/// RAM-backed namespaces have no store metrics and are skipped.
fn register_store_metrics(controller: &Controller, telemetry: &Registry) {
    for id in controller.namespace_ids() {
        if let Some(m) = controller.namespace(id).and_then(|ns| ns.store_metrics()) {
            m.register(&telemetry.scope(&format!("store_ns{id}")));
        }
    }
}

/// Multi-client setup matching the paper's architecture (Fig. 1): one
/// storage service — a single reactor — and several client applications,
/// each over its own connection with its own isolated shared-memory
/// channel when co-located (§4.2/§6). [`launch`] runs this same
/// bring-up with one client, so the control transport follows
/// `settings.control` and locality the same way; telemetry scopes carry
/// the client index (`client0`, `target_conn0`, …).
pub fn launch_many(
    registry: &Arc<HostRegistry>,
    clients: &[(ProcessId, u64)],
    target: (ProcessId, u64),
    controller: Controller,
    settings: FabricSettings,
) -> Result<AfGroup, NvmeofError> {
    launch_group(registry, clients, target, controller, settings, 1, |i| {
        i.to_string()
    })
}

/// [`launch_many`] scaled out: the storage service runs one reactor
/// thread per shard, each exclusively owning the connections steered to
/// it (round-robin: client `i` → shard `i % shards`, see
/// [`TargetHandle::shard_of`]) and its own controller view over the one
/// storage. No lock crosses shards on the data path; every shard reports
/// into the one returned registry under the same scope names as
/// [`launch_many`], plus `reactor<n>` per shard.
pub fn launch_many_sharded(
    registry: &Arc<HostRegistry>,
    clients: &[(ProcessId, u64)],
    target: (ProcessId, u64),
    controller: Controller,
    settings: FabricSettings,
    shards: usize,
) -> Result<AfGroup, NvmeofError> {
    launch_group(
        registry,
        clients,
        target,
        controller,
        settings,
        shards,
        |i| i.to_string(),
    )
}

/// The one bring-up every entry point runs: wire every client, start the
/// storage service on `shards` reactors over all the target ends, then
/// connect every client. Client `i`'s scopes carry the suffix `tag(i)`.
fn launch_group(
    registry: &Arc<HostRegistry>,
    clients: &[(ProcessId, u64)],
    target: (ProcessId, u64),
    controller: Controller,
    settings: FabricSettings,
    shards: usize,
    tag: fn(usize) -> String,
) -> Result<AfGroup, NvmeofError> {
    registry.register(target.0, target.1);
    let cm = ConnectionManager::new(registry.clone());
    let telemetry = cm.telemetry().clone();
    register_store_metrics(&controller, &telemetry);

    let mut specs = Vec::with_capacity(clients.len());
    let mut sides = Vec::with_capacity(clients.len());
    for (i, &(pid, host)) in clients.iter().enumerate() {
        registry.register(pid, host);
        let tag = tag(i);
        let (served, side) = cm.wire(pid, target.0, &settings, &tag)?;
        specs.push(served.into_spec());
        sides.push((tag, side));
    }
    let target_handle = spawn_sharded(controller, specs, ShardConfig::new(shards), &telemetry);

    let mut afs = Vec::with_capacity(clients.len());
    for (tag, side) in sides {
        let (initiator, shm) = cm.connect(side, &settings, &tag)?;
        let app = telemetry.scope(&format!("app{tag}"));
        afs.push(AfClient::new(initiator, shm, &settings, &app));
    }
    Ok(AfGroup {
        clients: afs,
        target: target_handle,
        telemetry,
    })
}

impl AfClient {
    /// Wraps a connected initiator in the co-designed API: its Buffer
    /// Manager (zero-copy leases over `shm` when local, the pool
    /// otherwise) and its application-view counters under `app`.
    fn new(
        initiator: Initiator<ControlTransport>,
        shm: Option<Arc<ShmPayloadChannel>>,
        settings: &FabricSettings,
        app: &Scope,
    ) -> Self {
        // Pool buffers are sized generously past the slot and read-chunk
        // size so block-level read-modify-write spans (payload +
        // straddled blocks) still fit in one buffer. A written buffer is held until its
        // command completes, so the pool has a queue depth's worth of
        // buffers on top of what the application may hold itself.
        let pool = DpdkPool::new(
            settings.slot_size.max(TargetConfig::default().read_chunk) * 2,
            settings.depth + settings.depth.max(8),
        );
        AfClient {
            initiator,
            bufmgr: BufferManager::new(pool, shm),
            app: AppCounters::new(app),
            inflight_meta: CidMap::default(),
        }
    }

    /// Whether the shared-memory data path is active: true once the
    /// handshake granted it, false for good after a degrade to TCP.
    pub fn shm_active(&self) -> bool {
        self.initiator.shm_active()
    }

    /// Allocates an I/O buffer of `len` bytes through the Buffer Manager;
    /// returns a zero-copy lease when the fabric is local.
    pub fn alloc(&self, len: usize) -> Result<IoBuffer, NvmeofError> {
        self.bufmgr
            .alloc(len)
            .map_err(|e| NvmeofError::Payload(e.to_string()))
    }

    /// The pool [`AfClient::alloc`] falls back to (the only source on a
    /// TCP fabric). A pooled buffer handed to a write is back in it once
    /// the write completes or is given up.
    pub fn pool(&self) -> &Arc<DpdkPool> {
        self.bufmgr.pool()
    }

    /// Largest single buffer [`AfClient::alloc`] can provide; larger
    /// transfers must be split by the caller.
    pub fn max_buffer(&self) -> usize {
        self.bufmgr.max_alloc()
    }

    /// Writes a buffer obtained from [`AfClient::alloc`]. Zero-copy
    /// leases publish in place; pooled buffers take the TCP (or one-copy
    /// shared-memory) path.
    pub fn write(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        buf: IoBuffer,
        timeout: Duration,
    ) -> Result<(), NvmeofError> {
        let t0 = std::time::Instant::now();
        let cid = self.submit_write(nsid, slba, nlb, buf)?;
        let result = self.wait(cid, timeout);
        self.app.blocked_since(t0);
        match result {
            Ok(r) if r.status.is_ok() => Ok(()),
            Ok(r) => Err(NvmeofError::Nvme(r.status)),
            Err(e) => Err(e),
        }
    }

    /// Asynchronous variant of [`AfClient::write`]: returns the command
    /// id; match completions via [`AfClient::poll`]. The command is
    /// queued: on the wire by the next [`AfClient::poll`]/`wait`,
    /// immediately if nothing else was in flight on this connection (or
    /// once 32 KiB of payload is queued) — see
    /// [`Initiator`].
    pub fn submit_write(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        buf: IoBuffer,
    ) -> Result<u16, NvmeofError> {
        let bytes = buf.len() as u64;
        let zero_copy = buf.is_zero_copy();
        let cid = match buf {
            // The lease publishes in place: the slot the application
            // filled is handed to the target untouched (§4.4.3).
            IoBuffer::Shm(lease) => self.initiator.submit_write_lease(nsid, slba, nlb, lease)?,
            // The pool buffer is the wire payload, adopted without a
            // copy; it returns to the pool when the initiator drops the
            // payload (at completion, give-up or teardown).
            IoBuffer::Pooled(b) => {
                self.initiator
                    .submit_write(nsid, slba, nlb, Bytes::from_owner(b))?
            }
        };
        self.inflight_meta.insert(cid, (bytes, zero_copy, false));
        Ok(cid)
    }

    /// Blocking read.
    pub fn read(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        expected_len: usize,
        timeout: Duration,
    ) -> Result<Vec<u8>, NvmeofError> {
        let t0 = std::time::Instant::now();
        let cid = self.submit_read(nsid, slba, nlb, expected_len)?;
        let result = self.wait(cid, timeout);
        self.app.blocked_since(t0);
        match result {
            Ok(r) if r.status.is_ok() => Ok(r.data),
            Ok(r) => Err(NvmeofError::Nvme(r.status)),
            Err(e) => Err(e),
        }
    }

    /// Blocking read that lends the payload to `f` instead of returning
    /// an owned `Vec`. On a local fabric the slice borrows the target's
    /// shared-memory slot directly — no client-side copy or allocation —
    /// which is the read half of the Fig. 8 zero-copy step; on TCP it
    /// borrows the reassembled receive buffer.
    pub fn read_with(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        expected_len: usize,
        timeout: Duration,
        f: &mut dyn FnMut(&[u8]),
    ) -> Result<(), NvmeofError> {
        let t0 = std::time::Instant::now();
        let cid = self
            .initiator
            .submit_read_borrowed(nsid, slba, nlb, expected_len)?;
        self.inflight_meta
            .insert(cid, (expected_len as u64, false, true));
        let result = self.wait(cid, timeout);
        self.app.blocked_since(t0);
        match result {
            Ok(mut r) if r.status.is_ok() => self.initiator.consume_read_with(&mut r, f),
            Ok(r) => Err(NvmeofError::Nvme(r.status)),
            Err(e) => Err(e),
        }
    }

    /// Asynchronous read submission. Queued like
    /// [`AfClient::submit_write`]: on the wire by the next
    /// [`AfClient::poll`]/`wait`, immediately if the connection was idle.
    pub fn submit_read(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        expected_len: usize,
    ) -> Result<u16, NvmeofError> {
        let cid = self.initiator.submit_read(nsid, slba, nlb, expected_len)?;
        self.inflight_meta
            .insert(cid, (expected_len as u64, false, true));
        Ok(cid)
    }

    fn account(&mut self, r: &oaf_nvmeof::initiator::IoResult) {
        let Some((bytes, zero_copy, is_read)) = self.inflight_meta.remove(&r.cid) else {
            return;
        };
        let app = &self.app;
        if !r.status.is_ok() {
            app.errors.inc();
        } else if is_read {
            app.reads.inc();
            app.bytes_read.add(bytes);
        } else {
            app.writes.inc();
            app.bytes_written.add(bytes);
            if zero_copy {
                app.zero_copy_writes.inc();
            }
        }
    }

    /// Polls for completions.
    pub fn poll(&mut self) -> Result<Vec<oaf_nvmeof::initiator::IoResult>, NvmeofError> {
        let results = self.initiator.poll()?;
        for r in &results {
            self.account(r);
        }
        Ok(results)
    }

    /// Waits for a specific command.
    pub fn wait(
        &mut self,
        cid: u16,
        timeout: Duration,
    ) -> Result<oaf_nvmeof::initiator::IoResult, NvmeofError> {
        match self.initiator.wait(cid, timeout) {
            Ok(r) => {
                self.account(&r);
                Ok(r)
            }
            Err(e) => {
                if matches!(e, NvmeofError::Timeout { .. }) {
                    self.app.errors.inc();
                }
                Err(e)
            }
        }
    }

    /// Blocking durability barrier: every write acknowledged before this
    /// returns survives target power loss (an `fdatasync` on file-backed
    /// namespaces, an ack on RAM disks).
    pub fn flush(&mut self, nsid: u32, timeout: Duration) -> Result<(), NvmeofError> {
        let t0 = std::time::Instant::now();
        let cid = self.initiator.submit_flush(nsid)?;
        let result = self.wait(cid, timeout);
        self.app.blocked_since(t0);
        match result {
            Ok(r) if r.status.is_ok() => Ok(()),
            Ok(r) => Err(NvmeofError::Nvme(r.status)),
            Err(e) => Err(e),
        }
    }

    /// Blocking Dataset Management deallocate (TRIM): the range is
    /// dropped from the device and reads back as zeroes.
    pub fn trim(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        timeout: Duration,
    ) -> Result<(), NvmeofError> {
        let t0 = std::time::Instant::now();
        let cid = self.initiator.submit_trim(nsid, slba, nlb)?;
        let result = self.wait(cid, timeout);
        self.app.blocked_since(t0);
        match result {
            Ok(r) if r.status.is_ok() => Ok(()),
            Ok(r) => Err(NvmeofError::Nvme(r.status)),
            Err(e) => Err(e),
        }
    }

    /// Blocking FUA write: like [`AfClient::write`], but the completion
    /// is not posted until the payload is durable on the target's media.
    pub fn write_fua(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        buf: IoBuffer,
        timeout: Duration,
    ) -> Result<(), NvmeofError> {
        let t0 = std::time::Instant::now();
        let cid = self.submit_write_fua(nsid, slba, nlb, buf)?;
        let result = self.wait(cid, timeout);
        self.app.blocked_since(t0);
        match result {
            Ok(r) if r.status.is_ok() => Ok(()),
            Ok(r) => Err(NvmeofError::Nvme(r.status)),
            Err(e) => Err(e),
        }
    }

    /// Asynchronous variant of [`AfClient::write_fua`]: returns the
    /// command id; match completions via [`AfClient::poll`]. With many
    /// FUA submissions in flight the target's group-commit coordinator
    /// retires their barriers on shared `fdatasync`es. Queued like
    /// [`AfClient::submit_write`].
    pub fn submit_write_fua(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        buf: IoBuffer,
    ) -> Result<u16, NvmeofError> {
        let bytes = buf.len() as u64;
        // FUA rides the payload-retaining submit path. A pool buffer is
        // adopted as that payload; a zero-copy lease cannot be replayed
        // after an abort, so it is materialized here (durability over
        // copy elision).
        let data = match buf {
            IoBuffer::Pooled(b) => Bytes::from_owner(b),
            IoBuffer::Shm(lease) => Bytes::copy_from_slice(&lease),
        };
        let cid = self.initiator.submit_write_fua(nsid, slba, nlb, data)?;
        self.inflight_meta.insert(cid, (bytes, false, false));
        Ok(cid)
    }

    /// Namespace geometry.
    pub fn identify(&mut self, nsid: u32) -> Result<IdentifyInfo, NvmeofError> {
        self.initiator.identify(nsid, DEFAULT_TIMEOUT)
    }

    /// Graceful disconnect.
    pub fn disconnect(&mut self) -> Result<(), NvmeofError> {
        self.initiator.disconnect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaf_nvmeof::nvme::namespace::Namespace;

    fn controller() -> Controller {
        let mut c = Controller::new();
        c.add_namespace(Namespace::new(1, 4096, 2048));
        c
    }

    fn launch_pair(local: bool) -> AfPair {
        let registry = Arc::new(HostRegistry::new());
        launch(
            &registry,
            (ProcessId(1), 10),
            (ProcessId(2), if local { 10 } else { 11 }),
            controller(),
            FabricSettings::default(),
        )
        .unwrap()
    }

    #[test]
    fn local_client_gets_zero_copy_buffers() {
        let mut pair = launch_pair(true);
        assert!(pair.client.shm_active());
        let buf = pair.client.alloc(64 * 1024).unwrap();
        assert!(buf.is_zero_copy());
        drop(buf);
        pair.client.disconnect().unwrap();
        pair.target.shutdown().unwrap();
    }

    #[test]
    fn remote_client_gets_pooled_buffers() {
        let mut pair = launch_pair(false);
        assert!(!pair.client.shm_active());
        let buf = pair.client.alloc(64 * 1024).unwrap();
        assert!(!buf.is_zero_copy());
        drop(buf);
        pair.client.disconnect().unwrap();
        pair.target.shutdown().unwrap();
    }

    #[test]
    fn zero_copy_write_roundtrip() {
        let mut pair = launch_pair(true);
        let mut buf = pair.client.alloc(128 * 1024).unwrap();
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let expected: Vec<u8> = (0..128 * 1024).map(|i| (i % 251) as u8).collect();
        pair.client.write(1, 0, 32, buf, DEFAULT_TIMEOUT).unwrap();
        let back = pair
            .client
            .read(1, 0, 32, 128 * 1024, DEFAULT_TIMEOUT)
            .unwrap();
        assert_eq!(back, expected);
        pair.client.disconnect().unwrap();
        pair.target.shutdown().unwrap();
    }

    #[test]
    fn pooled_write_roundtrip_over_tcp() {
        let mut pair = launch_pair(false);
        let mut buf = pair.client.alloc(64 * 1024).unwrap();
        buf.fill(0x77);
        pair.client.write(1, 4, 16, buf, DEFAULT_TIMEOUT).unwrap();
        let back = pair
            .client
            .read(1, 4, 16, 64 * 1024, DEFAULT_TIMEOUT)
            .unwrap();
        assert!(back.iter().all(|&b| b == 0x77));
        pair.client.disconnect().unwrap();
        pair.target.shutdown().unwrap();
    }

    #[test]
    fn pipelined_zero_copy_writes() {
        let mut pair = launch_pair(true);
        let qd = 16;
        let mut cids = Vec::new();
        for i in 0..qd {
            let mut buf = pair.client.alloc(4096).unwrap();
            buf.fill(i as u8);
            cids.push(pair.client.submit_write(1, i as u64, 1, buf).unwrap());
        }
        for cid in cids {
            let r = pair.client.wait(cid, DEFAULT_TIMEOUT).unwrap();
            assert!(r.status.is_ok());
        }
        for i in 0..qd {
            let back = pair
                .client
                .read(1, i as u64, 1, 4096, DEFAULT_TIMEOUT)
                .unwrap();
            assert!(back.iter().all(|&b| b == i as u8), "lba {i}");
        }
        pair.client.disconnect().unwrap();
        pair.target.shutdown().unwrap();
    }

    #[test]
    fn in_region_control_runtime_roundtrip() {
        use crate::conn::ControlPath;
        let registry = Arc::new(HostRegistry::new());
        let mut pair = launch(
            &registry,
            (ProcessId(1), 10),
            (ProcessId(2), 10),
            controller(),
            FabricSettings {
                control: ControlPath::InRegion,
                ..FabricSettings::default()
            },
        )
        .unwrap();
        assert!(pair.client.shm_active());
        let mut buf = pair.client.alloc(64 * 1024).unwrap();
        buf.fill(0x3c);
        pair.client.write(1, 8, 16, buf, DEFAULT_TIMEOUT).unwrap();
        let back = pair
            .client
            .read(1, 8, 16, 64 * 1024, DEFAULT_TIMEOUT)
            .unwrap();
        assert!(back.iter().all(|&b| b == 0x3c));
        pair.client.disconnect().unwrap();
        pair.target.shutdown().unwrap();
    }

    #[test]
    fn identify_through_af() {
        let mut pair = launch_pair(true);
        let info = pair.client.identify(1).unwrap();
        assert_eq!(info.block_size, 4096);
        pair.client.disconnect().unwrap();
        pair.target.shutdown().unwrap();
    }

    #[test]
    fn sharded_launch_serves_all_clients_over_one_storage() {
        let registry = Arc::new(HostRegistry::new());
        let clients: Vec<(ProcessId, u64)> = (0..4).map(|i| (ProcessId(10 + i), 10)).collect();
        let mut group = launch_many_sharded(
            &registry,
            &clients,
            (ProcessId(2), 10),
            controller(),
            FabricSettings::default(),
            2,
        )
        .unwrap();
        assert_eq!(group.target.shards(), 2);
        let shard_of: Vec<usize> = (0..4).map(|i| group.target.shard_of(i)).collect();
        assert_eq!(shard_of, vec![0, 1, 0, 1]);

        // Every client writes its own block; every write is visible from
        // a client on the *other* shard: one storage behind the shards.
        for (i, c) in group.clients.iter_mut().enumerate() {
            let mut buf = c.alloc(4096).unwrap();
            buf.fill(0x40 + i as u8);
            c.write(1, i as u64, 1, buf, DEFAULT_TIMEOUT).unwrap();
        }
        for i in 0..4usize {
            let reader = (i + 1) % 4; // always a different shard (RR over 2)
            let back = group.clients[reader]
                .read(1, i as u64, 1, 4096, DEFAULT_TIMEOUT)
                .unwrap();
            assert!(back.iter().all(|&b| b == 0x40 + i as u8), "lba {i}");
        }

        // Target-side telemetry lands in the one registry and both
        // shards actually served commands.
        let snap = group.telemetry.snapshot();
        for shard in 0..2 {
            assert!(
                snap.counter(&format!("reactor{shard}"), "ops") > 0,
                "shard {shard} reactor saw no ops"
            );
        }
        assert!(snap.counter("target_conn0", "ops") > 0);
        assert!(snap.counter("target_conn1", "ops") > 0);

        for c in &mut group.clients {
            c.disconnect().unwrap();
        }
        group.target.shutdown().unwrap();
    }
}
