//! # oaf-store — durable log-structured file-backed block device
//!
//! The persistence layer behind the NVMe-oAF target: a
//! [`FileDisk`]/[`SharedFileDisk`] pair that slots in behind a
//! `Namespace` anywhere `SharedRamDisk` does, but survives
//! process death.
//!
//! * **Data journaling.** Every mutation (write, TRIM, Write Zeroes,
//!   flush) is appended to an intent log with a CRC32 trailer and a
//!   strictly consecutive sequence number, then applied in place.
//! * **Crash-consistent recovery.** [`FileDisk::open`] replays the live
//!   log prefix idempotently; a torn tail record fails its CRC or
//!   sequence check and is truncated, never applied.
//! * **Real durability.** Flush and FUA map to `fdatasync`; nothing is
//!   acknowledged as durable that a kill `-9` can lose.
//! * **Checkpoints.** When the log fills, it is folded into the data
//!   region under a dual-slot superblock protocol that tolerates a torn
//!   superblock write.
//!
//! * **Group commit.** Concurrent durability barriers from multi-queue
//!   views coalesce into one `fdatasync` per sync-worker round via a
//!   ticket protocol ([`commit::GroupCommit`]).
//! * **Async durability pipeline.** Every [`SharedFileDisk`] owns a
//!   sync worker, and the trait's `write_submit`/`flush_submit` hand
//!   back an [`oaf_ssd::BarrierTicket`] resolved by a lock-free poll —
//!   the `fdatasync` runs on the worker, which reads the coordinator's
//!   watermarks and never takes the disk lock, so reads and journaled
//!   writes flow at full rate while a sync is in flight.
//! * **Block cache.** A fixed-capacity segmented-LRU write-back cache
//!   ([`cache::BlockCache`]) serves read hits with zero syscalls and
//!   defers in-place applies; dirty entries are pinned to journal
//!   sequences so eviction order can never outrun the log. An optional
//!   controller ([`FileDisk::with_adaptive_cache`]) resizes capacity
//!   between configured bounds from hit-rate/eviction telemetry.
//!
//! Crash testing injects [`vfs::CrashVfs`] underneath the disk: a
//! volatile-cache file model that kills the store at a seeded syscall
//! boundary and hands back only a plausible durable image.

#![warn(missing_docs)]

pub mod cache;
pub mod commit;
pub mod crc32;
pub mod disk;
pub mod log;
pub mod metrics;
pub mod vfs;

pub use cache::BlockCache;
pub use commit::GroupCommit;
pub use disk::{CacheAdaptConfig, FileDisk, SharedFileDisk, DEFAULT_LOG_BYTES};
pub use metrics::StoreMetrics;
