//! NVMe namespaces over the one storage seam, [`oaf_ssd::BlockStore`].
//!
//! A namespace holds its backing store as a trait object and never asks
//! what kind it is: the RAM disk for ephemeral targets, `oaf-store`'s
//! durable file disk for persistence. It always sits on the store's
//! *multi-queue* form ([`SharedRamDisk`], [`SharedFileDisk`]), so
//! [`Namespace::share`] is a clone of the view and a sharded target's
//! reactors all drive one storage service. Whether a durability barrier
//! hands back a [`BarrierTicket`] is the store's decision (a file-backed
//! store always does, see [`BlockStore::write_submit`]); this module
//! only maps the result to an NVMe status.

use std::sync::Arc;

use oaf_ssd::ram::{check_range, BlockError, SharedRamDisk};
use oaf_ssd::BlockStore;
use oaf_store::{FileDisk, SharedFileDisk, StoreMetrics};

use crate::nvme::completion::Status;

pub use oaf_ssd::block::{BarrierPoll, BarrierTicket};

/// A multi-queue block store: cloning it yields another `&mut`-free
/// queue into the *same* storage. Implemented by exactly the two shared
/// store types, so "a namespace sits on a multi-queue store" is checked
/// by the compiler rather than by a `match`.
trait SharedStore: BlockStore {
    /// Another view of the same storage.
    fn share(&self) -> Box<dyn SharedStore>;
}

impl SharedStore for SharedRamDisk {
    fn share(&self) -> Box<dyn SharedStore> {
        Box::new(self.clone())
    }
}

impl SharedStore for SharedFileDisk {
    fn share(&self) -> Box<dyn SharedStore> {
        Box::new(self.clone())
    }
}

/// A namespace: an LBA range with a block size over a shared
/// [`BlockStore`].
pub struct Namespace {
    id: u32,
    store: Box<dyn SharedStore>,
    /// The durable store's metric bundle, captured by the file-backed
    /// constructors (which know the concrete type).
    metrics: Option<Arc<StoreMetrics>>,
}

impl Namespace {
    fn over(id: u32, store: Box<dyn SharedStore>, metrics: Option<Arc<StoreMetrics>>) -> Self {
        assert!(id != 0, "nsid 0 is reserved");
        Namespace { id, store, metrics }
    }

    /// Creates namespace `id` with `blocks` blocks of `block_size`
    /// bytes, RAM-backed (ephemeral).
    pub fn new(id: u32, block_size: u32, blocks: u64) -> Self {
        Self::over(id, Box::new(SharedRamDisk::new(block_size, blocks)), None)
    }

    /// Creates namespace `id` over a durable file-backed store. Flush
    /// and FUA become real `fdatasync` barriers, run by the store's own
    /// sync worker (group commit) — the submitting forms hand them back
    /// as tickets; TRIM punches and journals the range.
    pub fn with_file(id: u32, disk: FileDisk) -> Self {
        Self::with_shared_file(id, disk.into_shared())
    }

    /// Creates namespace `id` directly over a shared durable store —
    /// the entry point when the store was shared (and possibly told which
    /// handle its sync worker syncs through, via
    /// [`SharedFileDisk::with_sync_worker`]) before the target was wired.
    pub fn with_shared_file(id: u32, disk: SharedFileDisk) -> Self {
        let metrics = Arc::clone(disk.metrics());
        Self::over(id, Box::new(disk), Some(metrics))
    }

    /// Returns another view of the *same* storage.
    ///
    /// This is how a sharded target gives every reactor thread its own
    /// `&mut`-free I/O queue into one storage service — the NVMe
    /// multi-queue model. Disjoint LBA ranges may then be driven
    /// concurrently; see [`SharedRamDisk`] for the exclusivity
    /// contract on overlapping writes (the file-backed form inherits
    /// the same contract).
    pub fn share(&mut self) -> Namespace {
        Namespace {
            id: self.id,
            store: self.store.share(),
            metrics: self.metrics.clone(),
        }
    }

    /// Namespace identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The durable store's metric bundle, if this namespace is
    /// file-backed (`None` for RAM disks). Register it under a `store`
    /// telemetry scope at wiring time.
    pub fn store_metrics(&self) -> Option<&Arc<StoreMetrics>> {
        self.metrics.as_ref()
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u32 {
        self.store.block_size()
    }

    /// Capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.store.capacity_blocks()
    }

    fn map_err(e: BlockError) -> Status {
        match e {
            BlockError::OutOfRange { .. } => Status::LbaOutOfRange,
            BlockError::BadBuffer { .. } => Status::InvalidFieldLength,
            BlockError::Io(_) => Status::InternalError,
        }
    }

    fn status(res: Result<(), BlockError>) -> Status {
        match res {
            Ok(()) => Status::Success,
            Err(e) => Self::map_err(e),
        }
    }

    fn submitted(
        res: Result<Option<BarrierTicket>, BlockError>,
    ) -> (Status, Option<BarrierTicket>) {
        match res {
            Ok(ticket) => (Status::Success, ticket),
            Err(e) => (Self::map_err(e), None),
        }
    }

    /// Validates `nlb` blocks at `slba` carrying `len` payload bytes
    /// against the geometry — the check every store operation starts
    /// with, exposed so a command can be refused *before* a buffer is
    /// sized from its wire fields.
    pub fn check(&self, slba: u64, nlb: u32, len: usize) -> Status {
        let checked = check_range(self.block_size(), self.capacity_blocks(), slba, nlb, len);
        Self::status(checked.map(|_| ()))
    }

    /// Reads `nlb` blocks at `slba` into `dst`.
    pub fn read(&self, slba: u64, nlb: u32, dst: &mut [u8]) -> Status {
        Self::status(self.store.read(slba, nlb, dst))
    }

    /// Writes `nlb` blocks at `slba` from `src`; with `fua` the write
    /// is durable before this returns.
    pub fn write(&mut self, slba: u64, nlb: u32, src: &[u8], fua: bool) -> Status {
        Self::status(self.store.write(slba, nlb, src, fua))
    }

    /// Zeroes `nlb` blocks at `slba` in place — no staging buffer, so
    /// Write Zeroes stays allocation-free on the target hot path.
    pub fn write_zeroes(&mut self, slba: u64, nlb: u32) -> Status {
        Self::status(self.store.write_zeroes(slba, nlb))
    }

    /// Deallocates `nlb` blocks at `slba` (Dataset Management with the
    /// deallocate attribute). Reads of a trimmed range return zeroes.
    pub fn trim(&mut self, slba: u64, nlb: u32) -> Status {
        Self::status(self.store.trim(slba, nlb))
    }

    /// Like [`write`](Namespace::write), but on a file-backed store a
    /// FUA write journals and applies, then returns
    /// `(Success, Some(ticket))` with the `fdatasync` still in flight —
    /// the caller parks the completion until the ticket resolves. A RAM
    /// store completes at once and returns `None`.
    pub fn write_submit(
        &mut self,
        slba: u64,
        nlb: u32,
        src: &[u8],
        fua: bool,
    ) -> (Status, Option<BarrierTicket>) {
        Self::submitted(self.store.write_submit(slba, nlb, src, fua))
    }

    /// Durability barrier: everything acknowledged before this flush
    /// survives power loss (a no-op for RAM disks, `fdatasync` for
    /// file-backed stores, submitted as a ticket).
    pub fn flush_submit(&mut self) -> (Status, Option<BarrierTicket>) {
        Self::submitted(self.store.flush_submit())
    }

    /// Resolution state of a barrier ticket this namespace handed out.
    pub fn poll_barrier(&self, ticket: BarrierTicket) -> BarrierPoll {
        self.store.poll_barrier(ticket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaf_store::vfs::MemVfs;

    const BS: usize = 512;
    const BLOCKS: u64 = 64;

    fn mem_disk() -> FileDisk {
        FileDisk::create_on(Box::new(MemVfs::new()), BS as u32, BLOCKS, 64 * 1024).unwrap()
    }

    /// One way of building a namespace, and what the contract promises
    /// about it.
    struct Backend {
        name: &'static str,
        build: fn() -> Namespace,
        /// File-backed: exposes a metric bundle, barriers really sync on
        /// the store's worker and come back as tickets.
        durable: bool,
    }

    const BACKENDS: [Backend; 4] = [
        Backend {
            name: "new",
            build: || Namespace::new(7, BS as u32, BLOCKS),
            durable: false,
        },
        Backend {
            name: "with_file",
            build: || Namespace::with_file(7, mem_disk()),
            durable: true,
        },
        Backend {
            name: "with_shared_file",
            build: || Namespace::with_shared_file(7, mem_disk().into_shared()),
            durable: true,
        },
        Backend {
            name: "with_shared_file + with_sync_worker",
            build: || {
                let vfs = MemVfs::new();
                let disk = FileDisk::create_on(Box::new(vfs.clone()), BS as u32, BLOCKS, 64 * 1024)
                    .unwrap()
                    .into_shared()
                    .with_sync_worker(Box::new(vfs));
                Namespace::with_shared_file(7, disk)
            },
            durable: true,
        },
    ];

    /// Asserts "a ticket comes back iff the namespace is file-backed"
    /// and waits a returned ticket out to `Durable`.
    fn settle(ns: &Namespace, b: &Backend, submitted: (Status, Option<BarrierTicket>)) {
        let (status, ticket) = submitted;
        assert_eq!(status, Status::Success, "{}", b.name);
        assert_eq!(
            ticket.is_some(),
            b.durable,
            "{}: ticket iff file-backed",
            b.name
        );
        if let Some(t) = ticket {
            while ns.poll_barrier(t) == BarrierPoll::Pending {
                std::thread::yield_now();
            }
            assert_eq!(ns.poll_barrier(t), BarrierPoll::Durable, "{}", b.name);
        }
    }

    fn read_block(ns: &Namespace, lba: u64) -> Vec<u8> {
        let mut out = vec![0xffu8; BS];
        assert_eq!(ns.read(lba, 1, &mut out), Status::Success);
        out
    }

    /// The namespace contract, on blocks `base..base + 4`.
    fn exercise(ns: &mut Namespace, b: &Backend, base: u64) {
        let n = b.name;
        assert_eq!(
            (ns.id(), ns.block_size(), ns.capacity_blocks()),
            (7, 512, 64)
        );
        assert_eq!(ns.store_metrics().is_some(), b.durable, "{n}");
        let before = ns.store_metrics().map(|m| (m.fsyncs.get(), m.trims.get()));

        // Plain write (blocking and submitting form) and read-back.
        let data = vec![0x11u8; 2 * BS];
        assert_eq!(ns.write(base, 2, &data, false), Status::Success, "{n}");
        let mut out = vec![0u8; 2 * BS];
        assert_eq!(ns.read(base, 2, &mut out), Status::Success, "{n}");
        assert_eq!(out, data, "{n}");
        let plain = ns.write_submit(base + 2, 1, &[0x22u8; BS], false);
        assert_eq!(
            plain,
            (Status::Success, None),
            "{n}: plain writes never ticket"
        );

        // The two barriers: FUA write and flush.
        assert_eq!(ns.write(base + 3, 1, &[0x33u8; BS], true), Status::Success);
        let fua = ns.write_submit(base + 3, 1, &[0x44u8; BS], true);
        settle(ns, b, fua);
        assert!(read_block(ns, base + 3).iter().all(|&x| x == 0x44), "{n}");
        let flush = ns.flush_submit();
        settle(ns, b, flush);

        // TRIM and Write Zeroes both read back zero.
        assert_eq!(ns.trim(base, 1), Status::Success, "{n}");
        assert!(read_block(ns, base).iter().all(|&x| x == 0), "{n}");
        assert_eq!(ns.write_zeroes(base + 2, 1), Status::Success, "{n}");
        assert!(read_block(ns, base + 2).iter().all(|&x| x == 0), "{n}");
        assert!(read_block(ns, base + 1).iter().all(|&x| x == 0x11), "{n}");

        // Error mapping, identical on every path into the store.
        let block = [0u8; BS];
        assert_eq!(ns.write(BLOCKS, 1, &block, false), Status::LbaOutOfRange);
        assert_eq!(
            ns.write(0, 1, &[0u8; 100], false),
            Status::InvalidFieldLength
        );
        assert_eq!(
            ns.write_submit(BLOCKS, 1, &block, true),
            (Status::LbaOutOfRange, None)
        );
        assert_eq!(
            ns.write_submit(0, 1, &[0u8; 100], true),
            (Status::InvalidFieldLength, None)
        );
        assert_eq!(ns.read(100, 1, &mut [0u8; BS]), Status::LbaOutOfRange);
        assert_eq!(ns.trim(BLOCKS - 1, 2), Status::LbaOutOfRange);
        assert_eq!(ns.write_zeroes(0, 0), Status::LbaOutOfRange);
        assert_eq!(ns.check(0, u32::MAX, BS), Status::LbaOutOfRange);
        assert_eq!(ns.check(0, 1, BS + 1), Status::InvalidFieldLength);
        assert_eq!(ns.check(BLOCKS - 1, 1, BS), Status::Success);

        if let (Some(m), Some((fsyncs, trims))) = (ns.store_metrics(), before) {
            assert!(m.fsyncs.get() >= fsyncs + 2, "{n}: FUA + flush both sync");
            assert_eq!(m.trims.get(), trims + 1, "{n}");
        }
    }

    #[test]
    fn every_backend_and_its_shared_view_honor_one_contract() {
        for b in &BACKENDS {
            let mut ns = (b.build)();
            exercise(&mut ns, b, 0);
            // Bytes written before sharing are the view's bytes too.
            let mut view = ns.share();
            assert!(
                read_block(&view, 1).iter().all(|&x| x == 0x11),
                "{}",
                b.name
            );
            exercise(&mut view, b, 8);
            // One storage, whichever side writes; `share` is repeatable.
            let mut third = ns.share();
            assert_eq!(third.write(20, 1, &[0x55u8; BS], false), Status::Success);
            assert_eq!(ns.write(21, 1, &[0x66u8; BS], false), Status::Success);
            assert_eq!(read_block(&ns, 20)[0], 0x55, "{}", b.name);
            assert_eq!(read_block(&view, 21)[0], 0x66, "{}", b.name);
            assert_eq!(read_block(&third, 9)[0], 0x11, "{}", b.name);
            // …and one journal: every view reports the same bundle.
            match (ns.store_metrics(), view.store_metrics()) {
                (Some(a), Some(v)) => assert!(Arc::ptr_eq(a, v), "{}", b.name),
                (None, None) => assert!(!b.durable),
                _ => panic!("{}: views disagree about metrics", b.name),
            }
        }
    }

    #[test]
    #[should_panic(expected = "nsid 0 is reserved")]
    fn nsid_zero_rejected() {
        let _ = Namespace::new(0, 512, 4);
    }

    #[test]
    fn cached_file_backed_namespace_serves_hits_and_stays_durable() {
        let vfs = MemVfs::new();
        let disk = FileDisk::create_on(Box::new(vfs.clone()), BS as u32, BLOCKS, 64 * 1024)
            .and_then(|d| d.with_cache(8))
            .unwrap();
        let mut ns = Namespace::with_file(1, disk);
        assert_eq!(ns.write(3, 1, &[0x77u8; 512], false), Status::Success);
        let mut out = [0u8; 512];
        assert_eq!(ns.read(3, 1, &mut out), Status::Success);
        assert!(out.iter().all(|&b| b == 0x77));
        let m = std::sync::Arc::clone(ns.store_metrics().unwrap());
        assert!(
            m.cache_hits.get() >= 1,
            "write-allocate must serve the read"
        );
        // A FUA write makes the journal durable, not the cache: its block
        // parks dirty like any other and nothing is written back.
        let writebacks = m.cache_writebacks.get();
        assert_eq!(ns.write(4, 1, &[0x88u8; 512], true), Status::Success);
        assert_eq!(m.cache_dirty.get(), 2, "barrier leaves the dirty entries");
        // Shared views keep the same cache + journal.
        let mut b = ns.share();
        assert_eq!(b.write(5, 1, &[0x99u8; 512], false), Status::Success);
        let (status, ticket) = b.flush_submit();
        assert_eq!(status, Status::Success);
        let ticket = ticket.expect("a file-backed flush tickets");
        while b.poll_barrier(ticket) == BarrierPoll::Pending {
            std::thread::yield_now();
        }
        assert_eq!(b.poll_barrier(ticket), BarrierPoll::Durable);
        assert_eq!(m.cache_dirty.get(), 3);
        assert_eq!(m.cache_writebacks.get(), writebacks);
        assert_eq!(m.checkpoints.get(), 0);
        assert_eq!(ns.read(5, 1, &mut out), Status::Success);
        assert_eq!(out[0], 0x99);
        // The image as the barrier left it, no checkpoint since: every
        // acknowledged byte comes back through journal replay.
        let reopened = FileDisk::open_on(Box::new(MemVfs::from_image(vfs.image()))).unwrap();
        for (lba, stamp) in [(3u64, 0x77u8), (4, 0x88), (5, 0x99)] {
            reopened.read(lba, 1, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == stamp), "lba {lba} lost");
        }
    }
}
