//! RAM-backed block store for the real (threaded) runtime.
//!
//! Plays the role QEMU's RAM-backed NVMe emulation plays in the paper: a
//! functional device that actually stores and returns bytes, so the real
//! NVMe-oF target in `oaf-nvmeof` can serve genuine reads and writes in
//! examples and integration tests.

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::Arc;

/// Errors from block-level access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// LBA range exceeds the device capacity.
    OutOfRange {
        /// First LBA of the offending access.
        lba: u64,
        /// Block count of the offending access.
        count: u32,
        /// Device capacity in blocks.
        capacity: u64,
    },
    /// Buffer length does not match `count * block_size`.
    BadBuffer {
        /// Expected byte length.
        expected: usize,
        /// Provided byte length.
        got: usize,
    },
    /// The backing store failed underneath the block layer (I/O error,
    /// corrupt on-disk metadata, or an injected crash). RAM-backed
    /// stores never produce this; file-backed ones do.
    Io(String),
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::OutOfRange {
                lba,
                count,
                capacity,
            } => {
                write!(
                    f,
                    "access [{lba}, {lba}+{count}) beyond capacity {capacity}"
                )
            }
            BlockError::BadBuffer { expected, got } => {
                write!(f, "buffer length {got} != expected {expected}")
            }
            BlockError::Io(msg) => write!(f, "storage I/O failure: {msg}"),
        }
    }
}

impl std::error::Error for BlockError {}

/// Validates an LBA range and payload length against a device geometry;
/// returns `(byte_offset, byte_len)` of the access. Shared by every
/// [`BlockStore`](crate::block::BlockStore) implementation so range and
/// buffer errors are uniform across RAM- and file-backed stores.
pub fn check_range(
    block_size: u32,
    capacity_blocks: u64,
    lba: u64,
    count: u32,
    buf_len: usize,
) -> Result<(usize, usize), BlockError> {
    let end = lba
        .checked_add(u64::from(count))
        .filter(|&e| e <= capacity_blocks);
    if count == 0 || end.is_none() {
        return Err(BlockError::OutOfRange {
            lba,
            count,
            capacity: capacity_blocks,
        });
    }
    let expected = count as usize * block_size as usize;
    if buf_len != expected {
        return Err(BlockError::BadBuffer {
            expected,
            got: buf_len,
        });
    }
    let off = (lba * u64::from(block_size)) as usize;
    Ok((off, expected))
}

struct SharedCell {
    block_size: u32,
    /// Byte length of `data`, fixed at construction (kept outside the
    /// cell so size queries never touch the aliased storage).
    len: usize,
    /// The backing bytes. Access goes through raw pointers under the
    /// multi-queue exclusivity contract documented on [`SharedRamDisk`].
    data: UnsafeCell<Box<[u8]>>,
}

// SAFETY: all access goes through `SharedRamDisk::{read,write}`, whose
// contract (below) forbids an LBA range from being written concurrently
// with any overlapping access — the same exclusivity discipline the
// in-region slot state machine enforces for `ShmRegion`.
unsafe impl Send for SharedCell {}
unsafe impl Sync for SharedCell {}

/// A RAM-backed block device shareable across reactor threads.
///
/// Real multi-queue NVMe hands each core its own queue pair against one
/// device and leaves LBA-range coherence to the host: the device does
/// not serialize queues, and two queues writing the same LBA at the same
/// instant get an unspecified (per-sector atomic) outcome. This type
/// mirrors that contract so a sharded target can serve one storage
/// service from N threads with **no lock on the data path**:
///
/// * `read`/`write` take `&self` and are safe to call concurrently for
///   **disjoint** LBA ranges;
/// * issuing a write concurrently with any overlapping read or write is
///   a protocol violation by the initiators (exactly like reusing a
///   published shm slot) — the fabric's ownership rules (one connection
///   per shard, application-level LBA ownership) are what prevent it,
///   not this type.
#[derive(Clone)]
pub struct SharedRamDisk {
    cell: Arc<SharedCell>,
}

impl SharedRamDisk {
    /// Creates a zero-filled shared disk of `blocks` blocks of
    /// `block_size` bytes.
    pub fn new(block_size: u32, blocks: u64) -> Self {
        assert!(
            block_size > 0 && block_size.is_power_of_two(),
            "block size must be a power of two"
        );
        let len = (blocks * u64::from(block_size)) as usize;
        SharedRamDisk {
            cell: Arc::new(SharedCell {
                block_size,
                len,
                data: UnsafeCell::new(vec![0u8; len].into_boxed_slice()),
            }),
        }
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u32 {
        self.cell.block_size
    }

    fn len(&self) -> usize {
        self.cell.len
    }

    /// Capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.len() as u64 / u64::from(self.cell.block_size)
    }

    /// Reads `count` blocks starting at `lba` into `buf`. See the type
    /// docs for the concurrency contract.
    pub fn read(&self, lba: u64, count: u32, buf: &mut [u8]) -> Result<(), BlockError> {
        let (off, len) = check_range(
            self.cell.block_size,
            self.capacity_blocks(),
            lba,
            count,
            buf.len(),
        )?;
        // SAFETY: bounds checked above; per the multi-queue contract no
        // concurrent writer overlaps this range.
        unsafe {
            let base = (*self.cell.data.get()).as_ptr();
            std::ptr::copy_nonoverlapping(base.add(off), buf.as_mut_ptr(), len);
        }
        Ok(())
    }

    /// Writes `count` blocks starting at `lba` from `buf`. See the type
    /// docs for the concurrency contract.
    pub fn write(&self, lba: u64, count: u32, buf: &[u8]) -> Result<(), BlockError> {
        let (off, len) = check_range(
            self.cell.block_size,
            self.capacity_blocks(),
            lba,
            count,
            buf.len(),
        )?;
        // SAFETY: bounds checked above; per the multi-queue contract no
        // concurrent access overlaps this range.
        unsafe {
            let base = (*self.cell.data.get()).as_mut_ptr();
            std::ptr::copy_nonoverlapping(buf.as_ptr(), base.add(off), len);
        }
        Ok(())
    }

    /// Zeroes `count` blocks starting at `lba` in place (NVMe Write
    /// Zeroes), allocation-free. See the type docs for the concurrency
    /// contract.
    pub fn write_zeroes(&self, lba: u64, count: u32) -> Result<(), BlockError> {
        let expected = count as usize * self.cell.block_size as usize;
        let (off, len) = check_range(
            self.cell.block_size,
            self.capacity_blocks(),
            lba,
            count,
            expected,
        )?;
        // SAFETY: bounds checked above; per the multi-queue contract no
        // concurrent access overlaps this range.
        unsafe {
            let base = (*self.cell.data.get()).as_mut_ptr();
            std::ptr::write_bytes(base.add(off), 0, len);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let d = SharedRamDisk::new(512, 128);
        assert_eq!((d.block_size(), d.capacity_blocks()), (512, 128));
        let payload: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        d.write(4, 2, &payload).unwrap();
        let mut out = vec![0u8; 1024];
        d.read(4, 2, &mut out).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let d = SharedRamDisk::new(512, 8);
        let mut out = vec![0xffu8; 512];
        d.read(7, 1, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_range_rejected() {
        let d = SharedRamDisk::new(512, 8);
        let buf = vec![0u8; 512];
        assert!(matches!(
            d.write(8, 1, &buf),
            Err(BlockError::OutOfRange { .. })
        ));
        assert!(matches!(
            d.write(7, 2, &vec![0u8; 1024]),
            Err(BlockError::OutOfRange { .. })
        ));
        // Overflow-safe.
        assert!(matches!(
            d.write(u64::MAX, 1, &buf),
            Err(BlockError::OutOfRange { .. })
        ));
        let mut out = [0u8; 512];
        assert!(matches!(
            d.read(8, 1, &mut out),
            Err(BlockError::OutOfRange { .. })
        ));
    }

    #[test]
    fn zero_count_rejected() {
        let d = SharedRamDisk::new(512, 8);
        let mut buf = vec![];
        assert!(matches!(
            d.read(0, 0, &mut buf),
            Err(BlockError::OutOfRange { .. })
        ));
    }

    #[test]
    fn buffer_length_must_match() {
        let d = SharedRamDisk::new(512, 8);
        let mut small = vec![0u8; 100];
        let err = d.read(0, 1, &mut small).unwrap_err();
        assert_eq!(
            err,
            BlockError::BadBuffer {
                expected: 512,
                got: 100
            }
        );
        assert!(err.to_string().contains("100"));
        assert!(matches!(
            d.write(0, 1, &small),
            Err(BlockError::BadBuffer { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_block_size_rejected() {
        let _ = SharedRamDisk::new(500, 8);
    }

    #[test]
    fn clones_are_views_of_one_storage() {
        let shared = SharedRamDisk::new(512, 16);
        shared.write(3, 1, &[0x42u8; 512]).unwrap();
        let view = shared.clone();
        let mut out = [0u8; 512];
        view.read(3, 1, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0x42));
        // Writes through one clone are visible through another.
        shared.write(5, 1, &[7u8; 512]).unwrap();
        view.read(5, 1, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 7));
    }

    #[test]
    fn shared_disk_disjoint_ranges_from_many_threads() {
        // The multi-queue contract in action: 4 threads, disjoint LBA
        // ranges, no lock — every byte must land.
        let d = SharedRamDisk::new(512, 64);
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let d = d.clone();
                std::thread::spawn(move || {
                    for i in 0..16u64 {
                        let lba = t * 16 + i;
                        d.write(lba, 1, &[(lba % 251) as u8 + 1; 512]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut out = [0u8; 512];
        for lba in 0..64u64 {
            d.read(lba, 1, &mut out).unwrap();
            assert!(
                out.iter().all(|&b| b == (lba % 251) as u8 + 1),
                "lba {lba} lost its write"
            );
        }
    }

    #[test]
    fn overlapping_writes_last_wins() {
        let d = SharedRamDisk::new(512, 8);
        d.write(0, 1, &[1u8; 512]).unwrap();
        d.write(0, 1, &[2u8; 512]).unwrap();
        let mut out = [0u8; 512];
        d.read(0, 1, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 2));
    }
}
