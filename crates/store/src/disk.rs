//! The log-structured file-backed block device.
//!
//! ## Write path
//!
//! Every mutation appends an *intent record* to the log (full payload —
//! data journaling), then applies in place to the data region:
//!
//! ```text
//! write(lba, buf, fua):
//!   1. checkpoint if the record would not fit the log
//!   2. append  [hdr ‖ payload ‖ crc]  at log tail      (intent)
//!   3. write payload at data_offset + lba·bs            (apply)
//!   4. if fua: sync                                     (retire durably)
//! ```
//!
//! Nothing is durable until a sync barrier (FUA, Flush, checkpoint), so
//! a crash may keep any subset of steps — recovery makes that safe, not
//! write ordering.
//!
//! With a [`BlockCache`] configured ([`FileDisk::with_cache`]), step 3
//! is *deferred*: the payload parks dirty in the cache (pinned to the
//! record's sequence) and reaches the data region on eviction or at the
//! next checkpoint. The journal append in step 2 still happens first,
//! so the deferred apply is indistinguishable from the eager one to
//! recovery. Read hits are served from the cache with zero syscalls.
//!
//! A barrier (FUA, Flush) makes the *journal* durable and nothing else:
//! its `fdatasync` covers every record up to the barrier's sequence, and
//! mount replays every one of them, so a dirty block need not reach the
//! data region first. Only a checkpoint, which folds the log away,
//! drains the cache.
//!
//! Under [`SharedFileDisk`], FUA/Flush barriers go through a
//! [`GroupCommit`] coordinator to the disk's own sync worker thread:
//! concurrent barriers from many queues coalesce into one `fdatasync`
//! per worker round, and no caller ever runs the syscall itself.
//!
//! Between rounds that worker paces write-back: while records have been
//! appended past its last kick or sync, it starts their page-cache
//! write-out every `KICK_PERIOD` ([`Vfs::start_writeback`]), so a
//! barrier's `fdatasync` waits only for the tail. A kick makes nothing
//! durable and retires no ticket; an idle disk takes no kicks and no
//! timed wake-ups. The unshared [`FileDisk`] has no worker and does not
//! kick.
//!
//! ## Recovery invariants
//!
//! On open the log is replayed idempotently from the checkpoint
//! superblock. A record is live iff magic, epoch, *consecutive*
//! sequence number, geometry bounds and CRC all validate; the first
//! record that doesn't is the end of the durable prefix (a torn tail —
//! counted and truncated — or residue of an earlier epoch). Replay
//! rewrites every live record's full payload, so:
//!
//! * a write whose data apply was torn is healed by its log record;
//! * a write whose *log append* was torn is rolled back to the previous
//!   durable prefix — it was never acknowledged as durable, so the
//!   old-or-new outcome is within the device contract;
//! * replaying twice is a no-op (same bytes, same order): the state
//!   after recovery equals the longest durable prefix, always.
//!
//! ## Checkpoint
//!
//! When the log fills: write every dirty cache block back, sync
//! everything, bump the epoch, write the superblock into the
//! *alternate* slot, sync again, reset the tail.
//! Records of the old epoch left in the log region fail the epoch check
//! on the next open, so the log is logically empty without being
//! erased.
//!
//! Recovery *ends* with the same epoch roll: after replaying the
//! durable prefix, the tail is sealed by a checkpoint. Without it, a
//! same-length re-append over a truncated torn record could make a
//! stale higher-sequence record consecutive again on a later mount and
//! resurrect it over an acknowledged write; with the roll, every
//! old-epoch byte in the log region is fenced forever.

use std::cell::RefCell;
use std::io::IoSlice;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use oaf_ssd::block::{BarrierPoll, BarrierTicket, BlockStore};
use oaf_ssd::ram::{check_range, BlockError};

use crate::cache::BlockCache;
use crate::commit::{GroupCommit, Round};
use crate::log::{
    rec_len, RecordHeader, RecordKind, Superblock, LOG_OFFSET, REC_FLAG_FUA, REC_HDR_LEN,
    SB_SLOT_LEN, SB_VERSION,
};
use crate::metrics::StoreMetrics;
use crate::vfs::{RealVfs, Vfs};

/// Default intent-log size for path-based constructors.
pub const DEFAULT_LOG_BYTES: u64 = 4 << 20;

/// Zero source for allocation-free range punching.
static ZERO_CHUNK: [u8; 4096] = [0u8; 4096];

/// Bounds and cadence for the adaptive cache controller
/// ([`FileDisk::with_adaptive_cache`]). The controller re-evaluates
/// once per window of cache lookups: it doubles capacity (up to
/// `max_blocks`) when the window's hit rate falls below 90% under
/// eviction pressure, and halves it (down to `min_blocks`) when the
/// window shows ≥95% hits, zero evictions and at most a quarter of the
/// arena resident.
#[derive(Debug, Clone, Copy)]
pub struct CacheAdaptConfig {
    /// Smallest capacity the controller may shrink to (also the
    /// starting capacity). Must be ≥ 1.
    pub min_blocks: usize,
    /// Largest capacity the controller may grow to.
    pub max_blocks: usize,
    /// Cache lookups (hits + misses) per evaluation window.
    pub window_lookups: u64,
}

impl Default for CacheAdaptConfig {
    fn default() -> Self {
        CacheAdaptConfig {
            min_blocks: 64,
            max_blocks: 4096,
            window_lookups: 512,
        }
    }
}

/// Controller bookkeeping: the config plus counter snapshots taken at
/// the last evaluation, so each window works on deltas.
struct AdaptState {
    cfg: CacheAdaptConfig,
    last_hits: u64,
    last_misses: u64,
    last_evictions: u64,
}

fn io_err(ctx: &str, e: std::io::Error) -> BlockError {
    BlockError::Io(format!("{ctx}: {e}"))
}

/// A durable, log-structured, file-backed block device. Drop-in behind
/// a `Namespace` wherever the RAM disk goes; [`FileDisk::into_shared`] is
/// the multi-queue form.
pub struct FileDisk {
    vfs: Box<dyn Vfs>,
    sb: Superblock,
    /// Byte offset of the next append within the log region.
    log_tail: u64,
    /// Sequence number of the next record.
    next_seq: u64,
    /// Bytes written since the last sync barrier (for `flushed_bytes`).
    dirty_bytes: u64,
    /// Write-back block cache (capacity 0 = uncached). `RefCell`
    /// because [`BlockStore::read`] takes `&self` but a hit updates
    /// recency; never borrowed across a `vfs` call that could re-enter.
    cache: RefCell<BlockCache>,
    /// Live-block bitmap (one bit per LBA) for space-reclaim
    /// accounting. Rebuilt at mount from data-region content (a block
    /// is live iff nonzero), exact afterwards.
    live: Vec<u64>,
    /// Population count of `live`.
    live_blocks: u64,
    /// Adaptive cache controller state (`None` = fixed capacity).
    adapt: Option<AdaptState>,
    /// The shared form's coordinator, to which every append publishes
    /// its sequence for paced write-back (`None`: unshared, no worker).
    commit: Option<Arc<GroupCommit>>,
    metrics: Arc<StoreMetrics>,
}

impl FileDisk {
    /// Creates a fresh store file at `path` (truncating any previous
    /// content) with [`DEFAULT_LOG_BYTES`] of intent log.
    pub fn create(
        path: impl AsRef<Path>,
        block_size: u32,
        blocks: u64,
    ) -> Result<FileDisk, BlockError> {
        let vfs = RealVfs::create(path.as_ref()).map_err(|e| io_err("create", e))?;
        Self::create_on(Box::new(vfs), block_size, blocks, DEFAULT_LOG_BYTES)
    }

    /// Opens an existing store file at `path`, replaying the intent log.
    pub fn open(path: impl AsRef<Path>) -> Result<FileDisk, BlockError> {
        let vfs = RealVfs::open(path.as_ref()).map_err(|e| io_err("open", e))?;
        Self::open_on(Box::new(vfs))
    }

    /// Creates a fresh store on an arbitrary [`Vfs`] (tests inject
    /// [`MemVfs`]/[`CrashVfs`] here).
    ///
    /// [`MemVfs`]: crate::vfs::MemVfs
    /// [`CrashVfs`]: crate::vfs::CrashVfs
    pub fn create_on(
        mut vfs: Box<dyn Vfs>,
        block_size: u32,
        blocks: u64,
        log_bytes: u64,
    ) -> Result<FileDisk, BlockError> {
        assert!(
            block_size > 0 && block_size.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(log_bytes >= 64 * 1024, "intent log must be at least 64 KiB");
        let sb = Superblock {
            block_size,
            capacity_blocks: blocks,
            log_bytes,
            epoch: 0,
            next_seq: 1,
        };
        vfs.set_len(sb.file_len()).map_err(|e| io_err("size", e))?;
        vfs.write_at(Superblock::slot_offset(sb.epoch), &sb.encode())
            .map_err(|e| io_err("superblock", e))?;
        vfs.sync().map_err(|e| io_err("sync", e))?;
        Ok(FileDisk {
            vfs,
            sb,
            log_tail: 0,
            next_seq: 1,
            dirty_bytes: 0,
            cache: RefCell::new(BlockCache::new(block_size as usize, 0)),
            live: vec![0u64; blocks.div_ceil(64) as usize],
            live_blocks: 0,
            adapt: None,
            commit: None,
            metrics: StoreMetrics::new(),
        })
    }

    /// Opens a store on an arbitrary [`Vfs`]: validates the superblock
    /// slots, replays the live log prefix idempotently, truncates any
    /// torn tail, then *seals* the tail with an epoch-rolling
    /// checkpoint so no residue beyond the replayed prefix can ever
    /// validate again. Opening the same image twice (from separate
    /// copies) replays the identical prefix twice.
    pub fn open_on(vfs: Box<dyn Vfs>) -> Result<FileDisk, BlockError> {
        let mut disk = Self::mount(vfs)?;
        disk.recover()?;
        disk.rebuild_live_map()?;
        Ok(disk)
    }

    /// Reads + validates superblocks only (no replay) — recovery's
    /// first half, split out for tests that inspect the scan itself.
    fn mount(vfs: Box<dyn Vfs>) -> Result<FileDisk, BlockError> {
        let mut slot = [0u8; SB_SLOT_LEN];
        let mut best: Option<Superblock> = None;
        for i in 0..2u64 {
            if vfs.read_at(i * SB_SLOT_LEN as u64, &mut slot).is_ok() {
                if let Some(sb) = Superblock::decode(&slot) {
                    if best.map(|b| sb.epoch > b.epoch).unwrap_or(true) {
                        best = Some(sb);
                    }
                }
            }
        }
        let sb = best.ok_or_else(|| {
            BlockError::Io(format!(
                "no valid superblock (unsupported version or damaged; this build mounts format v{SB_VERSION})"
            ))
        })?;
        let len = vfs.len().map_err(|e| io_err("len", e))?;
        if len < sb.file_len() {
            return Err(BlockError::Io(format!(
                "file truncated: {len} < {}",
                sb.file_len()
            )));
        }
        Ok(FileDisk {
            vfs,
            next_seq: sb.next_seq,
            log_tail: 0,
            dirty_bytes: 0,
            cache: RefCell::new(BlockCache::new(sb.block_size as usize, 0)),
            live: vec![0u64; sb.capacity_blocks.div_ceil(64) as usize],
            live_blocks: 0,
            adapt: None,
            commit: None,
            sb,
            metrics: StoreMetrics::new(),
        })
    }

    /// Scans the log from the checkpoint, replaying every record that
    /// validates and stopping at the first that does not.
    fn recover(&mut self) -> Result<(), BlockError> {
        let mut hdr_raw = [0u8; REC_HDR_LEN];
        let mut payload: Vec<u8> = Vec::new();
        let mut pos: u64 = 0;
        let mut expected_seq = self.sb.next_seq;
        while pos + rec_len(0) as u64 <= self.sb.log_bytes {
            self.vfs
                .read_at(LOG_OFFSET + pos, &mut hdr_raw)
                .map_err(|e| io_err("log read", e))?;
            let Some(hdr) = RecordHeader::decode(&hdr_raw) else {
                break; // residue / zeroes: clean end of the log
            };
            if hdr.epoch != self.sb.epoch || hdr.seq != expected_seq {
                break; // record of a previous epoch: clean end
            }
            // From here the record claims to be ours; anything invalid
            // about it is a torn append.
            if !self.header_sane(&hdr)
                || pos + rec_len(hdr.payload_len as usize) as u64 > self.sb.log_bytes
            {
                self.metrics.torn_records.inc();
                break;
            }
            let plen = hdr.payload_len as usize;
            payload.clear();
            payload.resize(plen, 0);
            self.vfs
                .read_at(LOG_OFFSET + pos + REC_HDR_LEN as u64, &mut payload)
                .map_err(|e| io_err("log read", e))?;
            let mut crc_raw = [0u8; 4];
            self.vfs
                .read_at(LOG_OFFSET + pos + (REC_HDR_LEN + plen) as u64, &mut crc_raw)
                .map_err(|e| io_err("log read", e))?;
            if u32::from_le_bytes(crc_raw) != crate::log::record_crc(&hdr_raw, &payload) {
                self.metrics.torn_records.inc();
                break;
            }
            self.replay(&hdr, &payload)?;
            self.metrics.replay_ops.inc();
            pos += rec_len(plen) as u64;
            expected_seq += 1;
        }
        self.log_tail = pos;
        self.next_seq = expected_seq;
        // Seal the tail with an epoch roll (not just a sync). A bare
        // sync would leave truncated-tail bytes addressable: a later
        // same-length re-append over a torn record can make a stale
        // higher-seq record consecutive again and resurrect it over an
        // acknowledged write (see tests/resurrection_repro.rs). The
        // roll fences every old-epoch byte and makes the replayed
        // state durable in the same stroke.
        self.checkpoint()?;
        Ok(())
    }

    /// Geometry validation for a scanned record header.
    fn header_sane(&self, hdr: &RecordHeader) -> bool {
        let bs = u64::from(self.sb.block_size);
        let in_range = hdr
            .lba
            .checked_add(u64::from(hdr.nlb))
            .map(|end| end <= self.sb.capacity_blocks)
            .unwrap_or(false);
        match hdr.kind {
            RecordKind::Write => {
                hdr.nlb > 0 && in_range && u64::from(hdr.payload_len) == u64::from(hdr.nlb) * bs
            }
            RecordKind::Trim | RecordKind::Zeroes => {
                hdr.nlb > 0 && in_range && hdr.payload_len == 0
            }
            RecordKind::Flush => hdr.nlb == 0 && hdr.payload_len == 0,
        }
    }

    /// Applies one recovered record to the data region.
    fn replay(&mut self, hdr: &RecordHeader, payload: &[u8]) -> Result<(), BlockError> {
        match hdr.kind {
            RecordKind::Write => {
                let off = self.data_off(hdr.lba);
                self.vfs
                    .write_at(off, payload)
                    .map_err(|e| io_err("replay write", e))?;
                self.dirty_bytes += payload.len() as u64;
            }
            RecordKind::Trim | RecordKind::Zeroes => {
                self.punch(hdr.lba, hdr.nlb)?;
            }
            RecordKind::Flush => {}
        }
        Ok(())
    }

    fn data_off(&self, lba: u64) -> u64 {
        self.sb.data_offset() + lba * u64::from(self.sb.block_size)
    }

    /// Zero-fills `count` blocks from the static chunk — no staging
    /// buffer, so TRIM/Write Zeroes stay allocation-free.
    fn punch(&mut self, lba: u64, count: u32) -> Result<(), BlockError> {
        let mut off = self.data_off(lba);
        let mut left = u64::from(count) * u64::from(self.sb.block_size);
        while left > 0 {
            let n = left.min(ZERO_CHUNK.len() as u64) as usize;
            self.vfs
                .write_at(off, &ZERO_CHUNK[..n])
                .map_err(|e| io_err("punch", e))?;
            off += n as u64;
            left -= n as u64;
        }
        self.dirty_bytes += u64::from(count) * u64::from(self.sb.block_size);
        Ok(())
    }

    /// Marks `count` blocks from `lba` live and refreshes the gauge.
    fn live_set_range(&mut self, lba: u64, count: u32) {
        for b in lba..lba + u64::from(count) {
            let (w, m) = ((b / 64) as usize, 1u64 << (b % 64));
            if self.live[w] & m == 0 {
                self.live[w] |= m;
                self.live_blocks += 1;
            }
        }
        self.metrics
            .live_bytes
            .set((self.live_blocks * u64::from(self.sb.block_size)) as i64);
    }

    /// Clears `count` blocks from `lba`; returns how many were live.
    fn live_clear_range(&mut self, lba: u64, count: u32) -> u64 {
        let mut freed = 0u64;
        for b in lba..lba + u64::from(count) {
            let (w, m) = ((b / 64) as usize, 1u64 << (b % 64));
            if self.live[w] & m != 0 {
                self.live[w] &= !m;
                self.live_blocks -= 1;
                freed += 1;
            }
        }
        self.metrics
            .live_bytes
            .set((self.live_blocks * u64::from(self.sb.block_size)) as i64);
        freed
    }

    /// Rebuilds the live-block bitmap from data-region content after
    /// recovery: a block is live iff it holds any nonzero byte. (A
    /// deliberately written all-zero block therefore scans as dead at
    /// mount — the bitmap is a space-accounting heuristic there, exact
    /// for everything written or punched after.)
    fn rebuild_live_map(&mut self) -> Result<(), BlockError> {
        self.live.iter_mut().for_each(|w| *w = 0);
        self.live_blocks = 0;
        let bs = self.sb.block_size as usize;
        let chunk_blocks = ((1usize << 20) / bs).max(1) as u64;
        let mut buf = vec![0u8; chunk_blocks as usize * bs];
        let mut lba = 0u64;
        while lba < self.sb.capacity_blocks {
            let n = chunk_blocks.min(self.sb.capacity_blocks - lba);
            let slice = &mut buf[..n as usize * bs];
            self.vfs
                .read_at(self.data_off(lba), slice)
                .map_err(|e| io_err("live scan", e))?;
            for b in 0..n as usize {
                if slice[b * bs..(b + 1) * bs].iter().any(|&x| x != 0) {
                    let abs = lba + b as u64;
                    self.live[(abs / 64) as usize] |= 1u64 << (abs % 64);
                    self.live_blocks += 1;
                }
            }
            lba += n;
        }
        self.metrics
            .live_bytes
            .set((self.live_blocks * u64::from(self.sb.block_size)) as i64);
        Ok(())
    }

    /// Writes every dirty cache entry back to the data region. The
    /// checkpoint-drain invariant lives here: this runs before every
    /// epoch roll (and before the cache is replaced), so a journaled
    /// payload can never exist only in cache once its log is folded.
    /// Barriers do not call it — the journal they make durable already
    /// holds every dirty payload.
    fn writeback_all(&mut self) -> Result<(), BlockError> {
        if self.cache.get_mut().dirty_blocks() == 0 {
            return Ok(());
        }
        let FileDisk {
            vfs,
            sb,
            cache,
            dirty_bytes,
            metrics,
            ..
        } = self;
        let data_offset = sb.data_offset();
        let bs = u64::from(sb.block_size);
        let written = cache.get_mut().drain_dirty(&mut |wlba, data| {
            vfs.write_at(data_offset + wlba * bs, data)
                .map_err(|e| io_err("writeback", e))?;
            *dirty_bytes += data.len() as u64;
            Ok(())
        })?;
        metrics.cache_writebacks.add(written);
        metrics.cache_dirty.set(0);
        Ok(())
    }

    /// Phase 1 of a barrier, run by the sync worker under the disk
    /// lock: a watermark read with no I/O. The worker issues
    /// the `fdatasync` through its own vfs handle after releasing this
    /// lock, so reads and journaled writes keep flowing for the
    /// barrier's whole duration. Returns `(covered_seq,
    /// dirty_bytes_taken)`; the worker accounts the bytes to
    /// `flushed_bytes` once the sync lands.
    pub(crate) fn prepare_offload_sync(&mut self) -> (u64, u64) {
        let dirty = std::mem::take(&mut self.dirty_bytes);
        (self.next_seq - 1, dirty)
    }

    /// One durability barrier over the journal: `fdatasync` + the
    /// flushed-bytes/latency bookkeeping. Dirty cache blocks stay
    /// cached: their records are in the journal this sync makes durable.
    fn sync_barrier(&mut self) -> Result<(), BlockError> {
        let t0 = Instant::now();
        self.vfs.sync().map_err(|e| io_err("fsync", e))?;
        self.metrics.fsyncs.inc();
        self.metrics.fsync_ns.record_nanos(t0.elapsed());
        self.metrics.flushed_bytes.add(self.dirty_bytes);
        self.dirty_bytes = 0;
        Ok(())
    }

    /// Appends one intent record at the log tail, checkpointing first if
    /// it would not fit. One vectored write (header, payload, CRC
    /// trailer) — the payload is never copied into a staging buffer.
    fn append_record(
        &mut self,
        kind: RecordKind,
        flags: u8,
        lba: u64,
        nlb: u32,
        payload: &[u8],
    ) -> Result<(), BlockError> {
        let total = rec_len(payload.len()) as u64;
        if total > self.sb.log_bytes {
            return Err(BlockError::Io(format!(
                "I/O of {} bytes cannot be journaled in a {}-byte log",
                payload.len(),
                self.sb.log_bytes
            )));
        }
        if self.log_tail + total > self.sb.log_bytes {
            self.checkpoint()?;
        }
        let hdr = RecordHeader {
            seq: self.next_seq,
            epoch: self.sb.epoch,
            kind,
            flags,
            lba,
            nlb,
            payload_len: payload.len() as u32,
        };
        let hdr_raw = hdr.encode();
        let crc = crate::log::record_crc(&hdr_raw, payload).to_le_bytes();
        let record = [
            IoSlice::new(&hdr_raw),
            IoSlice::new(payload),
            IoSlice::new(&crc),
        ];
        self.vfs
            .write_vectored_at(LOG_OFFSET + self.log_tail, &record)
            .map_err(|e| io_err("log append", e))?;
        self.log_tail += total;
        if let Some(commit) = &self.commit {
            commit.note_append(self.next_seq);
        }
        self.next_seq += 1;
        self.dirty_bytes += total;
        self.metrics.log_appends.inc();
        self.metrics.log_bytes.add(total);
        Ok(())
    }

    /// Folds the log into the data region: drain the cache, sync
    /// everything, bump the epoch, persist the superblock into the
    /// alternate slot, sync again, reset the tail. Crash-safe at every
    /// step — either the old epoch (replayable log) or the new one
    /// (empty log over synced data) mounts.
    fn checkpoint(&mut self) -> Result<(), BlockError> {
        let t0 = Instant::now();
        // Dirty cache entries hold journaled-but-unapplied payloads;
        // they must reach the data region before the log folds away
        // beneath them. Barriers leave them be; this is the one drain.
        self.writeback_all()?;
        self.sync_barrier()?;
        let next = Superblock {
            epoch: self.sb.epoch + 1,
            next_seq: self.next_seq,
            ..self.sb
        };
        self.vfs
            .write_at(Superblock::slot_offset(next.epoch), &next.encode())
            .map_err(|e| io_err("superblock", e))?;
        self.sync_barrier()?;
        self.sb = next;
        self.log_tail = 0;
        self.metrics.checkpoints.inc();
        self.metrics.checkpoint_ns.record_nanos(t0.elapsed());
        Ok(())
    }

    /// Replaces the block cache with one of `blocks` entries (0
    /// disables caching). Any dirty entries in the outgoing cache are
    /// written back first, so this is safe at any point, though it is
    /// meant for configuration right after `create`/`open`.
    pub fn with_cache(mut self, blocks: usize) -> Result<FileDisk, BlockError> {
        self.writeback_all()?;
        self.cache = RefCell::new(BlockCache::new(self.sb.block_size as usize, blocks));
        self.adapt = None;
        self.metrics.cache_capacity.set(blocks as i64);
        Ok(self)
    }

    /// Enables the adaptive cache controller: the cache starts at
    /// `cfg.min_blocks` and is resized between the configured bounds
    /// once per lookup window, from the hit-rate and eviction-pressure
    /// telemetry (see [`CacheAdaptConfig`]). Evaluation happens on the
    /// mutation path, so a read-only phase is assessed at its next
    /// write.
    pub fn with_adaptive_cache(self, cfg: CacheAdaptConfig) -> Result<FileDisk, BlockError> {
        assert!(cfg.min_blocks >= 1, "adaptive cache needs min_blocks >= 1");
        assert!(
            cfg.min_blocks <= cfg.max_blocks,
            "adaptive cache bounds inverted"
        );
        assert!(cfg.window_lookups >= 1, "empty adaptation window");
        let mut disk = self.with_cache(cfg.min_blocks)?;
        disk.adapt = Some(AdaptState {
            cfg,
            last_hits: disk.metrics.cache_hits.get(),
            last_misses: disk.metrics.cache_misses.get(),
            last_evictions: disk.metrics.cache_evictions.get(),
        });
        Ok(disk)
    }

    /// One controller tick: no-op until a full lookup window has
    /// elapsed, then grow/shrink per the [`CacheAdaptConfig`] policy.
    fn maybe_adapt_cache(&mut self) -> Result<(), BlockError> {
        let Some(st) = self.adapt.as_ref() else {
            return Ok(());
        };
        let hits = self.metrics.cache_hits.get();
        let misses = self.metrics.cache_misses.get();
        let evictions = self.metrics.cache_evictions.get();
        let d_hits = hits - st.last_hits;
        let d_lookups = d_hits + (misses - st.last_misses);
        if d_lookups < st.cfg.window_lookups {
            return Ok(());
        }
        let d_evict = evictions - st.last_evictions;
        let (min, max) = (st.cfg.min_blocks, st.cfg.max_blocks);
        let cap = self.cache.get_mut().capacity();
        let resident = self.cache.get_mut().len();
        let new_cap = if d_hits * 10 < d_lookups * 9 && d_evict > 0 {
            // Misses under eviction pressure: the working set does not
            // fit. Double toward the ceiling.
            (cap * 2).min(max)
        } else if d_hits * 20 >= d_lookups * 19 && d_evict == 0 && resident * 4 <= cap {
            // ≥95% hits with a mostly-idle arena: give memory back.
            (cap / 2).max(min)
        } else {
            cap
        };
        let st = self.adapt.as_mut().expect("checked above");
        st.last_hits = hits;
        st.last_misses = misses;
        st.last_evictions = evictions;
        if new_cap != cap {
            if new_cap > cap {
                self.metrics.cache_grows.inc();
            } else {
                self.metrics.cache_shrinks.inc();
            }
            self.resize_cache(new_cap)?;
        }
        Ok(())
    }

    /// Resizes the cache arena, writing back any dirty entries the
    /// shrink path drops (their intent records are already journaled,
    /// so this is the usual deferred apply).
    fn resize_cache(&mut self, new_cap: usize) -> Result<(), BlockError> {
        let FileDisk {
            vfs,
            sb,
            cache,
            dirty_bytes,
            metrics,
            ..
        } = self;
        let data_offset = sb.data_offset();
        let bs = u64::from(sb.block_size);
        let cache = cache.get_mut();
        cache.resize(new_cap, &mut |wlba, data| {
            vfs.write_at(data_offset + wlba * bs, data)
                .map_err(|e| io_err("writeback", e))?;
            *dirty_bytes += data.len() as u64;
            metrics.cache_writebacks.inc();
            Ok(())
        })?;
        metrics.cache_capacity.set(new_cap as i64);
        metrics.cache_dirty.set(cache.dirty_blocks() as i64);
        Ok(())
    }

    /// Block-cache capacity in entries (0 = uncached).
    pub fn cache_capacity(&self) -> usize {
        self.cache.borrow().capacity()
    }

    /// Bytes of live (written, not deallocated) data.
    pub fn live_data_bytes(&self) -> u64 {
        self.live_blocks * u64::from(self.sb.block_size)
    }

    /// Journal + apply without any sync barrier — even for `fua`, whose
    /// flag is still recorded in the header; the *caller* owns the
    /// barrier (a direct sync for this unshared form, a [`GroupCommit`]
    /// ticket for shared disks). Returns the record's sequence number.
    /// With a cache, the apply is deferred: blocks park dirty, pinned to
    /// this sequence.
    pub(crate) fn write_journaled(
        &mut self,
        lba: u64,
        count: u32,
        buf: &[u8],
        fua: bool,
    ) -> Result<u64, BlockError> {
        self.check(lba, count, buf.len())?;
        self.maybe_adapt_cache()?;
        let flags = if fua { REC_FLAG_FUA } else { 0 };
        self.append_record(RecordKind::Write, flags, lba, count, buf)?;
        let seq = self.next_seq - 1;
        self.live_set_range(lba, count);
        if self.cache.get_mut().enabled() {
            let FileDisk {
                vfs,
                sb,
                cache,
                dirty_bytes,
                metrics,
                ..
            } = self;
            let cache = cache.get_mut();
            let data_offset = sb.data_offset();
            let bs = usize::try_from(sb.block_size).unwrap();
            let mut wb = |wlba: u64, data: &[u8]| -> Result<(), BlockError> {
                vfs.write_at(data_offset + wlba * bs as u64, data)
                    .map_err(|e| io_err("writeback", e))?;
                *dirty_bytes += data.len() as u64;
                metrics.cache_writebacks.inc();
                Ok(())
            };
            for b in 0..count as usize {
                let evicted =
                    cache.put_write(lba + b as u64, &buf[b * bs..(b + 1) * bs], seq, &mut wb)?;
                if evicted {
                    metrics.cache_evictions.inc();
                }
            }
            metrics.cache_dirty.set(cache.dirty_blocks() as i64);
        } else {
            self.vfs
                .write_at(self.data_off(lba), buf)
                .map_err(|e| io_err("write", e))?;
            self.dirty_bytes += buf.len() as u64;
        }
        Ok(seq)
    }

    /// Journals a Flush record (no sync); returns its sequence so the
    /// caller can take a group-commit ticket against it.
    pub(crate) fn append_flush_record(&mut self) -> Result<u64, BlockError> {
        self.append_record(RecordKind::Flush, 0, 0, 0, &[])?;
        Ok(self.next_seq - 1)
    }

    /// This store's metric bundle (detached until registered into a
    /// [`oaf_telemetry::Registry`] scope — conventionally `store`).
    pub fn metrics(&self) -> &Arc<StoreMetrics> {
        &self.metrics
    }

    /// Current checkpoint epoch (bumped once per checkpoint).
    pub fn epoch(&self) -> u64 {
        self.sb.epoch
    }

    /// Converts this disk into a [`SharedFileDisk`] over the same file,
    /// for multi-queue access from several reactor threads, and starts
    /// its sync worker on a second handle ([`Vfs::try_clone`]).
    ///
    /// # Panics
    ///
    /// When the second handle cannot be opened or the worker thread
    /// cannot be spawned: a shared disk never syncs on its callers'
    /// threads.
    pub fn into_shared(mut self) -> SharedFileDisk {
        let sync_vfs = self
            .vfs
            .try_clone()
            .expect("second store handle for the sync worker");
        let commit = Arc::new(GroupCommit::new());
        self.commit = Some(Arc::clone(&commit));
        let metrics = Arc::clone(&self.metrics);
        let (block_size, capacity_blocks) = (self.sb.block_size, self.sb.capacity_blocks);
        let inner = Arc::new(parking_lot::Mutex::new(self));
        let worker = SyncWorker::spawn(&commit, &inner, &metrics, sync_vfs);
        SharedFileDisk {
            block_size,
            capacity_blocks,
            metrics,
            commit,
            inner,
            worker,
        }
    }

    fn check(&self, lba: u64, count: u32, buf_len: usize) -> Result<(usize, usize), BlockError> {
        check_range(
            self.sb.block_size,
            self.sb.capacity_blocks,
            lba,
            count,
            buf_len,
        )
    }
}

impl BlockStore for FileDisk {
    fn block_size(&self) -> u32 {
        self.sb.block_size
    }

    fn capacity_blocks(&self) -> u64 {
        self.sb.capacity_blocks
    }

    fn read(&self, lba: u64, count: u32, buf: &mut [u8]) -> Result<(), BlockError> {
        self.check(lba, count, buf.len())?;
        let mut cache = self.cache.borrow_mut();
        if !cache.enabled() {
            return self
                .vfs
                .read_at(self.data_off(lba), buf)
                .map_err(|e| io_err("read", e));
        }
        let bs = self.sb.block_size as usize;
        let mut missing = 0u32;
        for b in 0..u64::from(count) {
            if !cache.contains(lba + b) {
                missing += 1;
            }
        }
        if missing > 0 {
            // One ranged syscall fills the whole buffer; cached blocks
            // are overlaid below, since they may be newer (dirty) than
            // the platter.
            self.vfs
                .read_at(self.data_off(lba), buf)
                .map_err(|e| io_err("read", e))?;
            self.metrics.cache_misses.add(u64::from(missing));
        }
        self.metrics.cache_hits.add(u64::from(count - missing));
        for b in 0..count as usize {
            let sub = &mut buf[b * bs..(b + 1) * bs];
            if !cache.get(lba + b as u64, sub) {
                // Miss: `sub` already holds the platter bytes; cache
                // them clean if a clean slot is available (fills never
                // force a dirty write-back on the read path).
                cache.fill_clean(lba + b as u64, sub);
            }
        }
        Ok(())
    }

    fn write(&mut self, lba: u64, count: u32, buf: &[u8], fua: bool) -> Result<(), BlockError> {
        self.write_journaled(lba, count, buf, fua)?;
        if fua {
            self.sync_barrier()?;
        }
        Ok(())
    }

    fn write_zeroes(&mut self, lba: u64, count: u32) -> Result<(), BlockError> {
        let expected = count as usize * self.sb.block_size as usize;
        self.check(lba, count, expected)?;
        self.append_record(RecordKind::Zeroes, 0, lba, count, &[])?;
        // Cached copies — dirty included — are superseded by the record
        // just journaled; drop them without write-back and punch in
        // place.
        self.cache.get_mut().invalidate_range(lba, count);
        let dirty = self.cache.get_mut().dirty_blocks() as i64;
        self.metrics.cache_dirty.set(dirty);
        self.punch(lba, count)?;
        let freed = self.live_clear_range(lba, count);
        self.metrics
            .bytes_reclaimed
            .add(freed * u64::from(self.sb.block_size));
        Ok(())
    }

    fn trim(&mut self, lba: u64, count: u32) -> Result<(), BlockError> {
        let expected = count as usize * self.sb.block_size as usize;
        self.check(lba, count, expected)?;
        self.append_record(RecordKind::Trim, 0, lba, count, &[])?;
        self.cache.get_mut().invalidate_range(lba, count);
        let dirty = self.cache.get_mut().dirty_blocks() as i64;
        self.metrics.cache_dirty.set(dirty);
        self.punch(lba, count)?;
        let freed = self.live_clear_range(lba, count);
        self.metrics
            .bytes_reclaimed
            .add(freed * u64::from(self.sb.block_size));
        self.metrics.trims.inc();
        Ok(())
    }

    fn flush(&mut self) -> Result<(), BlockError> {
        self.append_flush_record()?;
        self.sync_barrier()
    }
}

/// A [`FileDisk`] shareable across reactor threads — the multi-queue
/// form behind `Controller::share()`.
///
/// The fabric's LBA-exclusivity contract (disjoint ranges per queue,
/// overlapping writes are a protocol violation by the initiators) is the
/// same as [`SharedRamDisk`]'s; on top of it, the intent log is a
/// single append stream, so each operation takes a short internal lock
/// for the journal append + (deferred) apply. Geometry queries stay
/// lock-free.
///
/// Durability barriers do **not** queue behind that lock: a FUA/Flush
/// releases the disk lock after its journal append, then takes a
/// [`GroupCommit`] ticket for its record's sequence. The disk's sync
/// worker issues a single `fdatasync` per round, through its own vfs
/// handle with the disk lock released, covering every sequence
/// appended so far; all tickets waiting on it retire together
/// (`fsyncs_coalesced` counts them). The sync makes the journal durable
/// and leaves dirty cache blocks where they are — only a checkpoint
/// drains them.
///
/// [`SharedRamDisk`]: oaf_ssd::ram::SharedRamDisk
#[derive(Clone)]
pub struct SharedFileDisk {
    block_size: u32,
    capacity_blocks: u64,
    metrics: Arc<StoreMetrics>,
    commit: Arc<GroupCommit>,
    inner: Arc<parking_lot::Mutex<FileDisk>>,
    /// Sync worker lifecycle handle; the last clone to drop shuts the
    /// worker down and joins it.
    worker: Arc<SyncWorker>,
}

/// Owns the sync worker thread's lifetime and the vfs handle it syncs
/// through. Held behind an `Arc` inside every [`SharedFileDisk`] clone:
/// dropping the final reference asks the worker to exit (waking it if
/// parked) and joins the thread, so a disk never outlives its barrier
/// pipeline.
struct SyncWorker {
    commit: Arc<GroupCommit>,
    /// The worker's handle onto the disk's bytes (swappable through
    /// [`SharedFileDisk::with_sync_worker`]).
    vfs: Arc<std::sync::Mutex<Box<dyn Vfs>>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl SyncWorker {
    fn spawn(
        commit: &Arc<GroupCommit>,
        inner: &Arc<parking_lot::Mutex<FileDisk>>,
        metrics: &Arc<StoreMetrics>,
        sync_vfs: Box<dyn Vfs>,
    ) -> Arc<SyncWorker> {
        let vfs = Arc::new(std::sync::Mutex::new(sync_vfs));
        let (commit_w, inner, metrics, vfs_w) = (
            Arc::clone(commit),
            Arc::clone(inner),
            Arc::clone(metrics),
            Arc::clone(&vfs),
        );
        let join = std::thread::Builder::new()
            .name("oaf-sync".into())
            .spawn(move || run_sync_worker(commit_w, inner, metrics, vfs_w))
            .expect("spawn sync worker");
        Arc::new(SyncWorker {
            commit: Arc::clone(commit),
            vfs,
            join: Some(join),
        })
    }
}

/// The sync worker loop. A sync round reads the covered watermark
/// under the disk lock (phase 1, no I/O), then runs the `fdatasync`
/// through the worker's own vfs handle with the disk lock released
/// (phase 2), and publishes the outcome. Reads and journaled writes
/// proceed on other threads for the entire syscall; an error fails
/// exactly the round's parked set via [`GroupCommit::complete_sync`].
///
/// Between sync rounds the worker paces write-back: `paced` is the
/// highest seq its last kick or sync covered. While appends run past
/// it, a kick round starts their write-out ([`Vfs::start_writeback`])
/// — no watermark moves. Once none do, the worker goes idle under the
/// disk lock, where every append checks the flag.
fn run_sync_worker(
    commit: Arc<GroupCommit>,
    inner: Arc<parking_lot::Mutex<FileDisk>>,
    metrics: Arc<StoreMetrics>,
    sync_vfs: Arc<std::sync::Mutex<Box<dyn Vfs>>>,
) {
    let mut paced = 0u64;
    loop {
        let busy = commit.appended() > paced || {
            let _disk = inner.lock();
            commit.appended_past(paced)
        };
        match commit.next_round(busy) {
            Round::Shutdown => return,
            Round::Kick => {
                paced = commit.appended();
                let vfs = sync_vfs.lock().expect("sync handle lock poisoned");
                // A hint: a failed kick leaves the work to the next sync.
                if vfs.start_writeback().is_ok() {
                    metrics.writeback_kicks.inc();
                }
            }
            Round::Sync(target) => {
                let res = (|| {
                    let (covered, dirty) = inner.lock().prepare_offload_sync();
                    let t0 = Instant::now();
                    let mut vfs = sync_vfs.lock().expect("sync handle lock poisoned");
                    vfs.sync().map_err(|e| io_err("fsync", e))?;
                    metrics.fsyncs.inc();
                    metrics.fsync_ns.record_nanos(t0.elapsed());
                    metrics.flushed_bytes.add(dirty);
                    Ok(covered)
                })();
                if let Ok(covered) = res {
                    paced = paced.max(covered);
                }
                commit.complete_sync(target, res, &metrics);
            }
        }
    }
}

impl Drop for SyncWorker {
    fn drop(&mut self) {
        self.commit.shutdown_worker();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl SharedFileDisk {
    /// Makes the sync worker sync through `sync_vfs` instead of the
    /// handle [`FileDisk::into_shared`] cloned — e.g. a descriptor the
    /// caller opened itself. `sync_vfs` must be a second handle onto the
    /// *same backing storage* whose `sync` makes the disk handle's
    /// writes durable (for a real file, the same path opened again:
    /// syncing either descriptor flushes the inode).
    pub fn with_sync_worker(self, sync_vfs: Box<dyn Vfs>) -> SharedFileDisk {
        *self.worker.vfs.lock().expect("sync handle lock poisoned") = sync_vfs;
        self
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// Capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// The shared metric bundle (one per underlying file).
    pub fn metrics(&self) -> &Arc<StoreMetrics> {
        &self.metrics
    }

    /// The group-commit coordinator shared by every clone (tests
    /// inspect its durable watermark).
    pub fn group_commit(&self) -> &Arc<GroupCommit> {
        &self.commit
    }

    /// Reads `count` blocks starting at `lba` into `buf`.
    pub fn read(&self, lba: u64, count: u32, buf: &mut [u8]) -> Result<(), BlockError> {
        self.inner.lock().read(lba, count, buf)
    }

    /// Writes `count` blocks starting at `lba` from `buf`; with `fua`
    /// the write is durable before returning (a group-commit ticket
    /// waited out, so concurrent FUA writers share one `fdatasync` per
    /// worker round).
    pub fn write(&self, lba: u64, count: u32, buf: &[u8], fua: bool) -> Result<(), BlockError> {
        let seq = self.inner.lock().write_journaled(lba, count, buf, fua)?;
        if fua {
            self.commit.barrier(seq, &self.metrics)?;
        }
        Ok(())
    }

    /// Zeroes `count` blocks starting at `lba` (journaled).
    pub fn write_zeroes(&self, lba: u64, count: u32) -> Result<(), BlockError> {
        self.inner.lock().write_zeroes(lba, count)
    }

    /// Deallocates `count` blocks starting at `lba` (journaled).
    pub fn trim(&self, lba: u64, count: u32) -> Result<(), BlockError> {
        self.inner.lock().trim(lba, count)
    }

    /// Durability barrier for every acknowledged write (group-commit
    /// coalesced).
    pub fn flush(&self) -> Result<(), BlockError> {
        let seq = self.inner.lock().append_flush_record()?;
        self.commit.barrier(seq, &self.metrics)
    }
}

impl BlockStore for SharedFileDisk {
    fn block_size(&self) -> u32 {
        self.block_size
    }

    fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    fn read(&self, lba: u64, count: u32, buf: &mut [u8]) -> Result<(), BlockError> {
        SharedFileDisk::read(self, lba, count, buf)
    }

    fn write(&mut self, lba: u64, count: u32, buf: &[u8], fua: bool) -> Result<(), BlockError> {
        SharedFileDisk::write(self, lba, count, buf, fua)
    }

    fn write_zeroes(&mut self, lba: u64, count: u32) -> Result<(), BlockError> {
        SharedFileDisk::write_zeroes(self, lba, count)
    }

    fn trim(&mut self, lba: u64, count: u32) -> Result<(), BlockError> {
        SharedFileDisk::trim(self, lba, count)
    }

    fn flush(&mut self) -> Result<(), BlockError> {
        SharedFileDisk::flush(self)
    }

    /// Journals (and applies/caches) the write; an FUA barrier is
    /// *submitted* to the sync worker, and the returned ticket parks
    /// until [`poll_barrier`](BlockStore::poll_barrier) reports it
    /// durable (or failed).
    fn write_submit(
        &mut self,
        lba: u64,
        count: u32,
        buf: &[u8],
        fua: bool,
    ) -> Result<Option<BarrierTicket>, BlockError> {
        let seq = self.inner.lock().write_journaled(lba, count, buf, fua)?;
        Ok(fua.then(|| self.commit.submit_sync(seq, &self.metrics)))
    }

    /// Journals a Flush and submits its barrier to the sync worker.
    fn flush_submit(&mut self) -> Result<Option<BarrierTicket>, BlockError> {
        let seq = self.inner.lock().append_flush_record()?;
        Ok(Some(self.commit.submit_sync(seq, &self.metrics)))
    }

    /// Lock-free: two atomic loads.
    #[inline]
    fn poll_barrier(&self, ticket: BarrierTicket) -> BarrierPoll {
        self.commit.poll_sync(ticket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    fn mem_disk(log_bytes: u64) -> FileDisk {
        FileDisk::create_on(Box::new(MemVfs::new()), 512, 64, log_bytes).unwrap()
    }

    #[test]
    fn write_read_roundtrip_with_journal() {
        let mut d = mem_disk(64 * 1024);
        let payload: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        d.write(4, 2, &payload, false).unwrap();
        let mut out = vec![0u8; 1024];
        d.read(4, 2, &mut out).unwrap();
        assert_eq!(out, payload);
        assert_eq!(d.metrics().log_appends.get(), 1);
        assert!(d.metrics().log_bytes.get() >= 1024 + 44);
    }

    #[test]
    fn fua_and_flush_hit_the_sync_barrier() {
        let mut d = mem_disk(64 * 1024);
        d.write(0, 1, &[7u8; 512], true).unwrap();
        assert_eq!(d.metrics().fsyncs.get(), 1);
        d.flush().unwrap();
        assert_eq!(d.metrics().fsyncs.get(), 2);
        assert_eq!(d.metrics().fsync_ns.snapshot().count, 2);
        assert!(d.metrics().flushed_bytes.get() >= 512);
    }

    #[test]
    fn trim_reads_back_zero_and_counts() {
        let mut d = mem_disk(64 * 1024);
        d.write(8, 4, &vec![0xffu8; 2048], false).unwrap();
        d.trim(8, 4).unwrap();
        let mut out = vec![0xaau8; 2048];
        d.read(8, 4, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        assert_eq!(d.metrics().trims.get(), 1);
    }

    /// Reads the full backing image out of a disk's vfs (MemVfs is
    /// always durable, so this emulates a clean power-off).
    fn image_of(d: &FileDisk) -> Vec<u8> {
        let len = d.vfs.len().unwrap();
        let mut img = vec![0u8; len as usize];
        d.vfs.read_at(0, &mut img).unwrap();
        img
    }

    #[test]
    fn v1_image_sealed_with_the_ieee_crc_is_refused() {
        // Format v1 sealed superblock and log records with the IEEE
        // polynomial. A well-formed v1 image must be refused with the
        // typed error — not panic, and not mount as an empty store.
        fn crc32_ieee(bytes: &[u8]) -> u32 {
            !bytes.iter().fold(!0u32, |mut c, &b| {
                c ^= u32::from(b);
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
                c
            })
        }
        let mut d = mem_disk(64 * 1024);
        d.write(3, 1, &[0x42u8; 512], true).unwrap();
        let mut image = image_of(&d);
        for slot in image[..2 * SB_SLOT_LEN].chunks_exact_mut(SB_SLOT_LEN) {
            if Superblock::decode(slot).is_none() {
                continue;
            }
            slot[8..12].copy_from_slice(&1u32.to_le_bytes());
            let crc = crc32_ieee(&slot[..48]);
            slot[48..52].copy_from_slice(&crc.to_le_bytes());
        }
        match FileDisk::open_on(Box::new(MemVfs::from_image(image))) {
            Err(BlockError::Io(msg)) => {
                assert!(msg.contains("no valid superblock"), "{msg}");
                assert!(msg.contains("unsupported version"), "{msg}");
            }
            Err(other) => panic!("wrong error for a v1 image: {other:?}"),
            Ok(_) => panic!("a v1 image must not mount"),
        }
    }

    #[test]
    fn reopen_replays_unflushed_writes() {
        let mut d = FileDisk::create_on(Box::new(MemVfs::new()), 512, 64, 64 * 1024).unwrap();
        d.write(3, 1, &[0x42u8; 512], false).unwrap();
        d.write(5, 1, &[0x43u8; 512], false).unwrap();
        d.trim(3, 1).unwrap();
        let image = image_of(&d);
        let reopened = FileDisk::open_on(Box::new(MemVfs::from_image(image))).unwrap();
        assert_eq!(reopened.metrics().replay_ops.get(), 3);
        let mut out = [0u8; 512];
        reopened.read(5, 1, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0x43));
        reopened.read(3, 1, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0), "trim must replay after write");
    }

    #[test]
    fn checkpoint_rolls_epoch_and_empties_log() {
        // Log fits ~2 records of 512B payload: every other write
        // checkpoints.
        let mut d = mem_disk(64 * 1024);
        let before = d.epoch();
        let payload = vec![1u8; 512];
        // 64 KiB log, 560-byte records → 117 appends fill it.
        for i in 0..240u64 {
            d.write(i % 64, 1, &payload, false).unwrap();
        }
        assert!(d.epoch() > before, "checkpoint must bump the epoch");
        assert!(d.metrics().checkpoints.get() >= 1);
        // Data survives the epoch roll.
        let mut out = [0u8; 512];
        d.read(0, 1, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 1));
    }

    #[test]
    fn oversized_io_rejected_not_wedged() {
        let mut d = mem_disk(64 * 1024);
        let huge = vec![0u8; 64 * 512];
        // 32 KiB payload fits a 64 KiB log; fine.
        d.write(0, 64, &huge, false).unwrap();
        // Bad ranges map to the uniform BlockError geometry checks.
        assert!(matches!(
            d.write(64, 1, &[0u8; 512], false),
            Err(BlockError::OutOfRange { .. })
        ));
        assert!(matches!(
            d.write(0, 1, &[0u8; 100], false),
            Err(BlockError::BadBuffer { .. })
        ));
    }

    #[test]
    fn shared_disk_serves_disjoint_threads() {
        let d = mem_disk(64 * 1024).into_shared();
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let d = d.clone();
                std::thread::spawn(move || {
                    for i in 0..16u64 {
                        let lba = t * 16 + i;
                        d.write(lba, 1, &[(lba % 251) as u8 + 1; 512], false)
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        d.flush().unwrap();
        let mut out = [0u8; 512];
        for lba in 0..64u64 {
            d.read(lba, 1, &mut out).unwrap();
            assert!(
                out.iter().all(|&b| b == (lba % 251) as u8 + 1),
                "lba {lba} lost its write"
            );
        }
        assert_eq!(d.block_size(), 512);
        assert_eq!(d.capacity_blocks(), 64);
    }

    #[test]
    fn recovery_seals_the_log_tail_with_an_epoch_roll() {
        let mut d = mem_disk(64 * 1024);
        d.write(0, 1, &[0x11u8; 512], false).unwrap();
        let epoch_before = d.epoch();
        let reopened = FileDisk::open_on(Box::new(MemVfs::from_image(image_of(&d)))).unwrap();
        assert!(
            reopened.epoch() > epoch_before,
            "open must checkpoint so old-epoch residue can never validate again"
        );
        let mut out = [0u8; 512];
        reopened.read(0, 1, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0x11));
    }

    #[test]
    fn cached_write_read_roundtrip_with_hit_metrics() {
        let mut d = mem_disk(64 * 1024).with_cache(8).unwrap();
        assert_eq!(d.cache_capacity(), 8);
        let payload: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        d.write(4, 2, &payload, false).unwrap();
        let mut out = vec![0u8; 1024];
        d.read(4, 2, &mut out).unwrap();
        assert_eq!(out, payload);
        assert_eq!(
            d.metrics().cache_hits.get(),
            2,
            "write-allocated blocks hit"
        );
        assert_eq!(d.metrics().cache_misses.get(), 0);
        // Uncached range misses, then hits on re-read (clean fill).
        d.read(10, 1, &mut out[..512]).unwrap();
        assert_eq!(d.metrics().cache_misses.get(), 1);
        d.read(10, 1, &mut out[..512]).unwrap();
        assert_eq!(d.metrics().cache_hits.get(), 3);
    }

    /// The raw data-region bytes of `lba` in a disk image.
    fn data_block(d: &FileDisk, image: &[u8], lba: u64) -> Vec<u8> {
        let off = d.data_off(lba) as usize;
        image[off..off + d.sb.block_size as usize].to_vec()
    }

    #[test]
    fn cached_dirty_blocks_survive_reopen_after_barrier() {
        let mut d = mem_disk(64 * 1024).with_cache(16).unwrap();
        let acked = [(3u64, 0x42u8), (5, 0x43), (6, 0x44)];
        d.write(3, 1, &[0x42u8; 512], false).unwrap();
        d.write(5, 1, &[0x43u8; 512], false).unwrap();
        assert_eq!(d.metrics().cache_dirty.get(), 2, "applies are deferred");
        let writebacks = d.metrics().cache_writebacks.get();
        // Both barrier kinds make the journal durable and nothing else.
        d.write(6, 1, &[0x44u8; 512], true).unwrap();
        d.flush().unwrap();
        assert_eq!(
            d.metrics().cache_dirty.get(),
            3,
            "barriers leave the cache dirty"
        );
        assert_eq!(d.metrics().cache_writebacks.get(), writebacks);
        assert_eq!(d.metrics().checkpoints.get(), 0);
        // The data region never saw the payloads; replay of the durable
        // journal alone brings every acknowledged byte back.
        let image = image_of(&d);
        for (lba, _) in acked {
            assert!(data_block(&d, &image, lba).iter().all(|&b| b == 0));
        }
        let reopened = FileDisk::open_on(Box::new(MemVfs::from_image(image))).unwrap();
        assert!(reopened.metrics().replay_ops.get() >= 4);
        let mut out = [0u8; 512];
        for (lba, stamp) in acked {
            reopened.read(lba, 1, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == stamp), "lba {lba} lost");
        }
    }

    #[test]
    fn log_full_checkpoint_drains_every_journaled_byte_to_the_data_region() {
        let mut d = mem_disk(64 * 1024).with_cache(64).unwrap();
        let mut model = [0u8; 64];
        let mut i = 0u64;
        // Fill the log with writes while a whole record still fits…
        while d.log_tail + rec_len(512) as u64 <= d.sb.log_bytes {
            let (lba, stamp) = ((i * 7) % 63, (i % 250) as u8 + 1);
            d.write(lba, 1, &[stamp; 512], false).unwrap();
            model[lba as usize] = stamp;
            i += 1;
        }
        // …then with payload-free records on the one block no write
        // touches, until the next one cannot fit: it folds the log.
        while d.metrics().checkpoints.get() == 0 {
            d.trim(63, 1).unwrap();
        }
        let m = Arc::clone(d.metrics());
        assert_eq!(m.checkpoints.get(), 1);
        assert_eq!(m.checkpoint_ns.count(), 1);
        assert_eq!(m.cache_dirty.get(), 0, "the checkpoint drains the cache");
        assert_eq!(d.cache.get_mut().dirty_blocks(), 0);
        assert!(m.cache_writebacks.get() > 0);
        let image = image_of(&d);
        for (lba, &stamp) in model.iter().enumerate() {
            assert!(
                data_block(&d, &image, lba as u64)
                    .iter()
                    .all(|&b| b == stamp),
                "lba {lba}: journaled bytes missing from the data region after the fold"
            );
        }
    }

    #[test]
    fn cached_single_entry_thrash_keeps_data_correct() {
        let mut d = mem_disk(64 * 1024).with_cache(1).unwrap();
        for lba in 0..32u64 {
            d.write(lba, 1, &[(lba + 1) as u8; 512], false).unwrap();
        }
        let mut out = [0u8; 512];
        for lba in 0..32u64 {
            d.read(lba, 1, &mut out).unwrap();
            assert!(
                out.iter().all(|&b| b == (lba + 1) as u8),
                "lba {lba} wrong through a thrashing 1-entry cache"
            );
        }
        assert!(d.metrics().cache_evictions.get() >= 31);
    }

    #[test]
    fn trim_accounts_reclaimed_and_live_bytes() {
        let mut d = mem_disk(64 * 1024);
        d.write(8, 4, &vec![0xffu8; 2048], false).unwrap();
        assert_eq!(d.live_data_bytes(), 2048);
        assert_eq!(d.metrics().live_bytes.get(), 2048);
        d.trim(8, 2).unwrap();
        assert_eq!(d.metrics().bytes_reclaimed.get(), 1024);
        assert_eq!(d.live_data_bytes(), 1024);
        // Trimming dead blocks reclaims nothing further.
        d.trim(8, 2).unwrap();
        assert_eq!(d.metrics().bytes_reclaimed.get(), 1024);
    }

    #[test]
    fn live_map_rebuilds_from_content_on_open() {
        let mut d = mem_disk(64 * 1024);
        d.write(2, 1, &[0xaau8; 512], false).unwrap();
        d.write(9, 2, &[0xbbu8; 1024], false).unwrap();
        d.trim(9, 1).unwrap();
        let reopened = FileDisk::open_on(Box::new(MemVfs::from_image(image_of(&d)))).unwrap();
        // Live after replay: lba 2 and lba 10 (9 was punched).
        assert_eq!(reopened.live_data_bytes(), 1024);
        assert_eq!(reopened.metrics().live_bytes.get(), 1024);
    }

    #[test]
    fn shared_disk_concurrent_fua_coalesces_syncs() {
        let d = mem_disk(256 * 1024).with_cache(32).unwrap().into_shared();
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let d = d.clone();
                std::thread::spawn(move || {
                    for i in 0..16u64 {
                        let lba = t * 16 + i;
                        d.write(lba, 1, &[(lba % 250) as u8 + 1; 512], true)
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let m = d.metrics();
        let barriers = 64;
        assert_eq!(
            m.fsyncs.get() + m.fsyncs_coalesced.get(),
            barriers,
            "every barrier either led one sync or coalesced into one"
        );
        let mut out = [0u8; 512];
        for lba in 0..64u64 {
            d.read(lba, 1, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == (lba % 250) as u8 + 1));
        }
    }

    fn poll_until(d: &SharedFileDisk, h: BarrierTicket, want: BarrierPoll) {
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let got = d.poll_barrier(h);
            if got == want {
                return;
            }
            assert_eq!(
                got,
                BarrierPoll::Pending,
                "ticket resolved to the wrong state"
            );
            assert!(Instant::now() < deadline, "ticket never left Pending");
            std::thread::yield_now();
        }
    }

    #[test]
    fn write_submit_parks_then_retires() {
        let mut d = mem_disk(64 * 1024).into_shared();
        let h = d
            .write_submit(3, 1, &[0x5au8; 512], true)
            .unwrap()
            .expect("fua on a shared disk returns a ticket");
        poll_until(&d, h, BarrierPoll::Durable);
        // Plain writes never ticket; blocking FUA rides the worker.
        assert!(d.write_submit(4, 1, &[1u8; 512], false).unwrap().is_none());
        d.write(5, 1, &[2u8; 512], true).unwrap();
        let h2 = d.flush_submit().unwrap().expect("flush tickets too");
        poll_until(&d, h2, BarrierPoll::Durable);
        let m = d.metrics();
        assert!(m.barriers_offloaded.get() >= 3);
        assert!(m.fsyncs.get() >= 1);
        let mut out = [0u8; 512];
        d.read(3, 1, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0x5a));
    }

    #[test]
    fn worker_sync_failure_fails_parked_tickets_then_recovers() {
        let vfs = MemVfs::new();
        let mut d = FileDisk::create_on(Box::new(vfs.clone()), 512, 64, 64 * 1024)
            .unwrap()
            .into_shared()
            .with_sync_worker(Box::new(vfs.clone()));
        vfs.set_fail_sync(true);
        let h = d.write_submit(0, 1, &[9u8; 512], true).unwrap().unwrap();
        poll_until(&d, h, BarrierPoll::Failed);
        // Blocking path surfaces the same failure as an error…
        assert!(d.write(1, 1, &[8u8; 512], true).is_err());
        // …and once the device heals, new barriers succeed.
        vfs.set_fail_sync(false);
        let h2 = d.write_submit(2, 1, &[7u8; 512], true).unwrap().unwrap();
        poll_until(&d, h2, BarrierPoll::Durable);
    }

    #[test]
    fn with_sync_worker_chooses_the_handle_the_worker_syncs_through() {
        let vfs = MemVfs::new();
        let own = MemVfs::new();
        let d = FileDisk::create_on(Box::new(vfs.clone()), 512, 64, 64 * 1024)
            .unwrap()
            .into_shared()
            .with_sync_worker(Box::new(own.clone()));
        let formatted = vfs.syncs();
        d.write(0, 1, &[1u8; 512], true).unwrap();
        d.flush().unwrap();
        assert_eq!(
            own.syncs(),
            2,
            "both barriers synced through the given handle"
        );
        assert_eq!(vfs.syncs(), formatted);
    }

    #[test]
    fn dropping_every_clone_joins_the_worker() {
        let d = mem_disk(64 * 1024).into_shared();
        let d2 = d.clone();
        d2.write(0, 1, &[1u8; 512], true).unwrap();
        drop(d2);
        drop(d); // must not hang: shutdown wakes the parked worker
    }

    /// One call a [`RecordingVfs`] saw.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Call {
        Write,
        Sync,
        StartWriteback,
    }

    /// A `MemVfs` that logs every mutating call through any handle.
    #[derive(Clone, Default)]
    struct RecordingVfs {
        inner: MemVfs,
        calls: Arc<std::sync::Mutex<Vec<Call>>>,
    }

    impl RecordingVfs {
        fn calls(&self) -> Vec<Call> {
            self.calls.lock().unwrap().clone()
        }

        fn count(&self, call: Call) -> usize {
            self.calls().iter().filter(|&&c| c == call).count()
        }

        fn log(&self, call: Call) {
            self.calls.lock().unwrap().push(call);
        }
    }

    impl Vfs for RecordingVfs {
        fn read_at(&self, off: u64, buf: &mut [u8]) -> std::io::Result<()> {
            self.inner.read_at(off, buf)
        }

        fn write_at(&mut self, off: u64, buf: &[u8]) -> std::io::Result<()> {
            self.log(Call::Write);
            self.inner.write_at(off, buf)
        }

        fn sync(&mut self) -> std::io::Result<()> {
            self.log(Call::Sync);
            self.inner.sync()
        }

        fn start_writeback(&self) -> std::io::Result<()> {
            self.log(Call::StartWriteback);
            Ok(())
        }

        fn len(&self) -> std::io::Result<u64> {
            self.inner.len()
        }

        fn set_len(&mut self, len: u64) -> std::io::Result<()> {
            self.inner.set_len(len)
        }

        fn try_clone(&self) -> std::io::Result<Box<dyn Vfs>> {
            Ok(Box::new(self.clone()))
        }
    }

    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }

    #[test]
    fn plain_writes_are_kicked_toward_the_platter_but_never_made_durable() {
        let vfs = RecordingVfs::default();
        let d = FileDisk::create_on(Box::new(vfs.clone()), 512, 64, 64 * 1024)
            .and_then(|d| d.with_cache(16))
            .unwrap()
            .into_shared();
        let formatted = vfs.count(Call::Sync);
        let durable = d.group_commit().durable_seq();
        for lba in 0..8u64 {
            d.write(lba, 1, &[lba as u8 + 1; 512], false).unwrap();
        }
        wait_for("a write-out kick", || vfs.count(Call::StartWriteback) > 0);
        // No watermark moved: not even the first write's ticket retires,
        // and nothing was synced since the format.
        assert_eq!(d.group_commit().durable_seq(), durable);
        assert_eq!(
            d.poll_barrier(BarrierTicket::new(durable + 1)),
            BarrierPoll::Pending
        );
        assert_eq!(vfs.count(Call::Sync), formatted);
        assert!(d.metrics().writeback_kicks.get() > 0);
        assert_eq!(d.metrics().fsyncs.get(), 0);
        // A later Flush still syncs, after the kicks.
        d.flush().unwrap();
        let calls = vfs.calls();
        let last_kick = calls.iter().rposition(|&c| c == Call::StartWriteback);
        let last_sync = calls.iter().rposition(|&c| c == Call::Sync);
        assert!(last_sync > last_kick, "{calls:?}");
        assert_eq!(d.metrics().fsyncs.get(), 1);
        assert!(d.group_commit().durable_seq() > durable);
    }

    #[test]
    fn an_idle_shared_disk_takes_no_kicks_and_no_timed_wakeups() {
        let vfs = RecordingVfs::default();
        let d = FileDisk::create_on(Box::new(vfs.clone()), 512, 64, 64 * 1024)
            .unwrap()
            .into_shared();
        d.write(0, 1, &[1u8; 512], false).unwrap();
        d.flush().unwrap();
        // The flush's sync covered every append: the worker goes idle.
        wait_for("the worker to go idle", || d.group_commit().worker_idle());
        let kicks = vfs.count(Call::StartWriteback);
        let calls = vfs.calls().len();
        for _ in 0..10 {
            std::thread::sleep(std::time::Duration::from_millis(5));
            assert!(
                d.group_commit().worker_idle(),
                "an idle worker stays blocked with no timeout"
            );
        }
        assert_eq!(vfs.count(Call::StartWriteback), kicks, "kicks while idle");
        assert_eq!(vfs.calls().len(), calls, "an idle disk makes no calls");
        // The next append ends the idle wait.
        d.write(1, 1, &[2u8; 512], false).unwrap();
        assert!(!d.group_commit().worker_idle());
        wait_for("a kick after the idle spell", || {
            vfs.count(Call::StartWriteback) > kicks
        });
    }

    #[test]
    fn the_unshared_disk_never_kicks() {
        let vfs = RecordingVfs::default();
        let mut d = FileDisk::create_on(Box::new(vfs.clone()), 512, 64, 64 * 1024).unwrap();
        for lba in 0..8u64 {
            d.write(lba, 1, &[1u8; 512], false).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        d.flush().unwrap();
        assert_eq!(vfs.count(Call::StartWriteback), 0);
        assert_eq!(d.metrics().writeback_kicks.get(), 0);
    }

    #[test]
    fn adaptive_cache_grows_under_miss_pressure() {
        let mut d = FileDisk::create_on(Box::new(MemVfs::new()), 512, 256, 256 * 1024)
            .unwrap()
            .with_adaptive_cache(CacheAdaptConfig {
                min_blocks: 4,
                max_blocks: 64,
                window_lookups: 64,
            })
            .unwrap();
        assert_eq!(d.cache_capacity(), 4);
        // A working set of 32 blocks over a 4-block cache: each write
        // pass thrashes (evictions), each read pass mostly misses, so
        // the controller must grow until the set fits.
        let payload = [3u8; 512];
        let mut out = [0u8; 512];
        for _pass in 0..24 {
            for lba in 0..32u64 {
                d.write(lba, 1, &payload, false).unwrap();
            }
            for lba in 0..32u64 {
                d.read(lba, 1, &mut out).unwrap();
            }
            if d.cache_capacity() >= 32 {
                break;
            }
        }
        assert!(
            d.cache_capacity() >= 32,
            "controller stuck at {} blocks",
            d.cache_capacity()
        );
        assert!(d.metrics().cache_grows.get() >= 1);
        assert_eq!(d.metrics().cache_capacity.get(), d.cache_capacity() as i64);
        // Correctness across resizes.
        for lba in 0..32u64 {
            d.read(lba, 1, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == 3));
        }
    }

    #[test]
    fn real_file_backend_survives_reopen() {
        let path = std::env::temp_dir().join(format!("oaf-store-test-{}", std::process::id()));
        {
            let mut d = FileDisk::create(&path, 512, 32).unwrap();
            d.write(7, 1, &[0x77u8; 512], true).unwrap();
        }
        {
            let d = FileDisk::open(&path).unwrap();
            let mut out = [0u8; 512];
            d.read(7, 1, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == 0x77));
        }
        let _ = std::fs::remove_file(&path);
    }
}
