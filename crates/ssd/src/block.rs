//! The block-device abstraction behind every NVMe namespace — the one
//! storage seam of the target.
//!
//! [`BlockStore`] is the contract a backing store must meet to sit
//! behind the target's `Namespace`: fixed-geometry block reads/writes,
//! Write Zeroes, TRIM (Dataset Management), and the durability pair —
//! an FUA bit on writes and an explicit flush — in a blocking form
//! (`write`/`flush`) and a submitting form (`write_submit`/
//! `flush_submit`, resolved by `poll_barrier`). A store that completes
//! its barriers at once takes the provided submitting methods, which
//! never hand out a [`BarrierTicket`]; only a store that can leave an
//! `fdatasync` in flight overrides them, and its blocking forms are a
//! ticket waited out with [`wait_barrier`]. The RAM-backed store in
//! [`crate::ram`] implements the trait trivially (RAM is "always
//! durable", so FUA and flush are no-ops and TRIM is a zero-fill); the
//! file-backed log-structured store in `oaf-store` implements it with a
//! real intent log and `fsync`.

use crate::ram::{BlockError, SharedRamDisk};

/// A submitted durability barrier that has not retired yet: the data is
/// journaled and applied, the sync making it durable is in flight. The
/// completion it belongs to must not be posted until
/// [`BlockStore::poll_barrier`] reports the ticket resolved. `Copy` and
/// allocation-free by design — the reactor parks these in preallocated
/// rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierTicket {
    seq: u64,
}

impl BarrierTicket {
    /// A ticket waiting on journal record `seq`.
    pub fn new(seq: u64) -> BarrierTicket {
        BarrierTicket { seq }
    }

    /// The journal record sequence this ticket waits on.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Resolution state of a [`BarrierTicket`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierPoll {
    /// The covering sync has not finished yet; poll again later.
    Pending,
    /// Every record at or below the ticket's sequence is on the platter:
    /// the success completion may be posted.
    Durable,
    /// The sync covering this ticket failed; the write is journaled but
    /// not known durable, and the barrier must complete with an error.
    /// Later tickets may still succeed.
    Failed,
}

/// Yield-polls `poll` until the barrier it probes resolves — the one
/// blocking wait for durability. A reactor parks its tickets instead;
/// only a caller that must block (a blocking barrier, a blocking
/// command) runs this.
pub fn wait_barrier(mut poll: impl FnMut() -> BarrierPoll) -> BarrierPoll {
    loop {
        match poll() {
            BarrierPoll::Pending => std::thread::yield_now(),
            resolved => return resolved,
        }
    }
}

/// A fixed-geometry block device.
///
/// Geometry is immutable after construction. All ranges are validated
/// the same way ([`check_range`]): `count` must be ≥ 1, `lba + count`
/// must fit the capacity, and payload buffers must be exactly
/// `count * block_size` bytes.
///
/// [`check_range`]: crate::ram::check_range
pub trait BlockStore: Send {
    /// Block size in bytes (a power of two).
    fn block_size(&self) -> u32;

    /// Capacity in blocks.
    fn capacity_blocks(&self) -> u64;

    /// Reads `count` blocks starting at `lba` into `buf`.
    fn read(&self, lba: u64, count: u32, buf: &mut [u8]) -> Result<(), BlockError>;

    /// Writes `count` blocks starting at `lba` from `buf`. With `fua`
    /// set the write must be durable before the call returns (Force
    /// Unit Access); stores without a volatile cache may ignore it.
    fn write(&mut self, lba: u64, count: u32, buf: &[u8], fua: bool) -> Result<(), BlockError>;

    /// Zeroes `count` blocks starting at `lba` without a payload
    /// transfer (NVMe Write Zeroes). Must not allocate a staging buffer.
    fn write_zeroes(&mut self, lba: u64, count: u32) -> Result<(), BlockError>;

    /// Deallocates `count` blocks starting at `lba` (NVMe Dataset
    /// Management / TRIM). Subsequent reads of the range return zeroes.
    fn trim(&mut self, lba: u64, count: u32) -> Result<(), BlockError>;

    /// Makes every acknowledged write durable (NVMe Flush). A no-op for
    /// stores without a volatile cache.
    fn flush(&mut self) -> Result<(), BlockError>;

    /// Like [`write`](BlockStore::write), but a store that can leave the
    /// sync of an FUA write in flight returns `Some(ticket)` instead of
    /// waiting for it. The provided body is the truth for every store
    /// whose barriers complete at once: it blocks and never tickets.
    fn write_submit(
        &mut self,
        lba: u64,
        count: u32,
        buf: &[u8],
        fua: bool,
    ) -> Result<Option<BarrierTicket>, BlockError> {
        self.write(lba, count, buf, fua)?;
        Ok(None)
    }

    /// Like [`flush`](BlockStore::flush), submitted rather than waited
    /// on where the store can; see
    /// [`write_submit`](BlockStore::write_submit).
    fn flush_submit(&mut self) -> Result<Option<BarrierTicket>, BlockError> {
        self.flush()?;
        Ok(None)
    }

    /// Resolution state of a ticket this store handed out. A store that
    /// never tickets reports `Durable`, which keeps a caller's drain
    /// loop total.
    fn poll_barrier(&self, _ticket: BarrierTicket) -> BarrierPoll {
        BarrierPoll::Durable
    }
}

impl BlockStore for SharedRamDisk {
    fn block_size(&self) -> u32 {
        SharedRamDisk::block_size(self)
    }

    fn capacity_blocks(&self) -> u64 {
        SharedRamDisk::capacity_blocks(self)
    }

    fn read(&self, lba: u64, count: u32, buf: &mut [u8]) -> Result<(), BlockError> {
        SharedRamDisk::read(self, lba, count, buf)
    }

    fn write(&mut self, lba: u64, count: u32, buf: &[u8], _fua: bool) -> Result<(), BlockError> {
        SharedRamDisk::write(self, lba, count, buf)
    }

    fn write_zeroes(&mut self, lba: u64, count: u32) -> Result<(), BlockError> {
        SharedRamDisk::write_zeroes(self, lba, count)
    }

    fn trim(&mut self, lba: u64, count: u32) -> Result<(), BlockError> {
        // RAM-backed deallocate: reads after TRIM must return zeroes,
        // which is exactly Write Zeroes here.
        SharedRamDisk::write_zeroes(self, lba, count)
    }

    fn flush(&mut self) -> Result<(), BlockError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &mut dyn BlockStore) {
        let bs = store.block_size() as usize;
        let payload = vec![0xa5u8; bs];
        store.write(1, 1, &payload, true).unwrap();
        store.flush().unwrap();
        let mut out = vec![0u8; bs];
        store.read(1, 1, &mut out).unwrap();
        assert_eq!(out, payload);
        store.trim(1, 1).unwrap();
        store.read(1, 1, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0), "TRIM must read back zero");
        store.write(2, 1, &payload, false).unwrap();
        store.write_zeroes(2, 1).unwrap();
        store.read(2, 1, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        // The provided submitting methods: block, never ticket.
        assert_eq!(store.write_submit(3, 1, &payload, true), Ok(None));
        store.read(3, 1, &mut out).unwrap();
        assert_eq!(out, payload);
        assert_eq!(store.flush_submit(), Ok(None));
        assert_eq!(
            store.poll_barrier(BarrierTicket::new(u64::MAX)),
            BarrierPoll::Durable
        );
    }

    #[test]
    fn ram_disk_honors_the_trait_contract() {
        exercise(&mut SharedRamDisk::new(512, 16));
    }
}
