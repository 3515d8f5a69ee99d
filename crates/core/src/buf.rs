//! The Buffer Manager (§4.1, §4.4.3).
//!
//! Allocates I/O buffers from the right place for the selected channel:
//!
//! * **TCP path** — a DPDK-style pool of buffers claimed and returned
//!   without a lock, mirroring SPDK's DMA-able memory pools (buffers are
//!   recycled, never freed, §4.1 "re-uses it when possible");
//! * **shared-memory path** — zero-copy leases: the application buffer is
//!   a slot of the double buffer itself, so publishing costs nothing
//!   (§4.4.3).
//!
//! [`IoBuffer`] unifies the two so co-designed applications (SPDK `perf`,
//! h5bench in the paper; the examples here) write one allocation call and
//! get zero-copy automatically when the fabric is local.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use oaf_nvmeof::payload::WriteLease;
use oaf_shmem::ShmError;

use crate::payload_impl::ShmPayloadChannel;

/// A fixed-size pooled buffer pool (the DPDK mempool analog).
///
/// Lock-free: a buffer is claimed by a compare-and-swap on its busy flag
/// and returned by clearing it, the claim-by-CAS scheme the shm slot
/// leases use. The scan is first-fit from slot 0, and a slot's memory is
/// allocated at its first claim, at the length asked for, and grown (up
/// to `buf_size`) only when a later claim asks for more. So the memory a
/// pool holds is the most buffers ever held at once times the largest
/// length used, not its capacity times `buf_size`, and steady state
/// allocates nothing.
pub struct DpdkPool {
    buf_size: usize,
    slots: Box<[PoolSlot]>,
}

struct PoolSlot {
    /// Set while a [`PooledBuf`] holds this slot.
    busy: AtomicBool,
    /// Never shrinks; empty until the first claim.
    bytes: UnsafeCell<Vec<u8>>,
}

// SAFETY: `buf_size` and the slot array never change after `new`, and
// every `busy` flag is an atomic. A slot's `bytes` are touched only
// through the one `PooledBuf` whose CAS set its flag (Acquire), and that
// holder's last access happens-before the Release store that frees the
// slot, so no two threads ever reach one slot's bytes at once.
unsafe impl Sync for DpdkPool {}

impl DpdkPool {
    /// A pool of `capacity` buffers of up to `buf_size` bytes each.
    pub fn new(buf_size: usize, capacity: usize) -> Arc<Self> {
        assert!(buf_size > 0 && capacity > 0);
        let slots = (0..capacity)
            .map(|_| PoolSlot {
                busy: AtomicBool::new(false),
                bytes: UnsafeCell::new(Vec::new()),
            })
            .collect();
        Arc::new(DpdkPool { buf_size, slots })
    }

    /// Buffer size of the pool.
    pub fn buf_size(&self) -> usize {
        self.buf_size
    }

    /// Buffers currently available.
    pub fn available(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !s.busy.load(Ordering::Acquire))
            .count()
    }

    /// Total buffers in the pool.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Takes a buffer; `None` when exhausted (caller backs off, exactly
    /// like SPDK's mempool get).
    pub fn get(self: &Arc<Self>, len: usize) -> Option<PooledBuf> {
        if len > self.buf_size {
            return None;
        }
        let slot = self.slots.iter().position(|s| {
            !s.busy.load(Ordering::Relaxed)
                && s.busy
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
        })?;
        // SAFETY: the CAS above gave this call the slot's claim.
        let bytes = unsafe { &mut *self.slots[slot].bytes.get() };
        if bytes.len() < len {
            // First use at this length: zeroed, like a fresh buffer.
            bytes.clear();
            bytes.resize(len, 0);
        }
        Some(PooledBuf {
            pool: self.clone(),
            slot,
            len,
        })
    }
}

/// A buffer checked out of a [`DpdkPool`]; returns on drop. Handed to
/// the wire as [`bytes::Bytes::from_owner`], it returns when the last
/// view of the payload drops.
pub struct PooledBuf {
    pool: Arc<DpdkPool>,
    slot: usize,
    len: usize,
}

impl PooledBuf {
    /// Logical length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bytes(&self) -> *mut Vec<u8> {
        self.pool.slots[self.slot].bytes.get()
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: this buffer holds the slot's claim (see `DpdkPool`).
        let bytes = unsafe { &*self.bytes() };
        &bytes[..self.len]
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `deref`, and `&mut self` excludes other views.
        let bytes = unsafe { &mut *self.bytes() };
        &mut bytes[..self.len]
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        self.pool.slots[self.slot]
            .busy
            .store(false, Ordering::Release);
    }
}

/// An application I/O buffer from the Buffer Manager: pooled DRAM for the
/// TCP channel, or a zero-copy shared-memory lease for the local channel.
pub enum IoBuffer {
    /// DPDK-pool buffer (TCP path).
    Pooled(PooledBuf),
    /// Zero-copy lease inside the shared region (local path), ready for
    /// [`oaf_nvmeof::payload::PayloadChannel::publish_lease`].
    Shm(WriteLease),
}

impl IoBuffer {
    /// Logical length.
    pub fn len(&self) -> usize {
        match self {
            IoBuffer::Pooled(b) => b.len(),
            IoBuffer::Shm(b) => b.len(),
        }
    }

    /// Whether the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this buffer lives in shared memory (zero-copy publish).
    pub fn is_zero_copy(&self) -> bool {
        matches!(self, IoBuffer::Shm(_))
    }
}

impl std::ops::Deref for IoBuffer {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            IoBuffer::Pooled(b) => b,
            IoBuffer::Shm(b) => b,
        }
    }
}

impl std::ops::DerefMut for IoBuffer {
    fn deref_mut(&mut self) -> &mut [u8] {
        match self {
            IoBuffer::Pooled(b) => b,
            IoBuffer::Shm(b) => b,
        }
    }
}

/// The Buffer Manager: allocation, alignment, re-use and reclamation for
/// one connection.
pub struct BufferManager {
    pool: Arc<DpdkPool>,
    shm: Option<Arc<ShmPayloadChannel>>,
}

impl BufferManager {
    /// Creates a manager backed by a DPDK-style pool, optionally with a
    /// shared-memory channel for zero-copy leases.
    pub fn new(pool: Arc<DpdkPool>, shm: Option<Arc<ShmPayloadChannel>>) -> Self {
        BufferManager { pool, shm }
    }

    /// Allocates an I/O buffer of `len` bytes, preferring a zero-copy
    /// shared-memory lease when the channel allows it (§4.4.3: "creates
    /// application buffers directly on shared memory").
    pub fn alloc(&self, len: usize) -> Result<IoBuffer, ShmError> {
        if let Some(shm) = &self.shm {
            use oaf_nvmeof::payload::PayloadChannel as _;
            if len <= shm.max_payload() {
                match shm.try_lease(len) {
                    Ok(Some(lease)) => return Ok(IoBuffer::Shm(lease)),
                    Ok(None) => {
                        // All slots in flight: fall back to the pool so the
                        // application never blocks on allocation.
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        self.pool
            .get(len)
            .map(IoBuffer::Pooled)
            .ok_or(ShmError::NoFreeSlot)
    }

    /// Whether zero-copy leases are available.
    pub fn zero_copy_available(&self) -> bool {
        self.shm.is_some()
    }

    /// Largest buffer [`BufferManager::alloc`] can satisfy.
    pub fn max_alloc(&self) -> usize {
        self.pool.buf_size()
    }

    /// The pool behind non-lease buffers.
    pub fn pool(&self) -> &Arc<DpdkPool> {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaf_shmem::channel::Side;
    use oaf_shmem::ShmChannel;

    #[test]
    fn pool_recycles_buffers() {
        let pool = DpdkPool::new(4096, 2);
        assert_eq!(pool.available(), 2);
        let a = pool.get(100).unwrap();
        let b = pool.get(4096).unwrap();
        assert_eq!(pool.available(), 0);
        assert!(pool.get(1).is_none());
        drop(a);
        assert_eq!(pool.available(), 1);
        drop(b);
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn pool_buffers_grow_once_and_are_reused_in_place() {
        let pool = DpdkPool::new(4096, 2);
        let mut a = pool.get(4096).unwrap();
        assert!(a.iter().all(|&b| b == 0), "a fresh buffer is zeroed");
        a.fill(7);
        let at = a.as_ptr();
        drop(a);
        // First fit: slot 0 again, shorter view, same memory.
        let b = pool.get(100).unwrap();
        assert_eq!((b.as_ptr(), b.len()), (at, 100));
        drop(b);
        let c = pool.get(4096).unwrap();
        assert_eq!(c.as_ptr(), at, "no reallocation at a size already held");
    }

    #[test]
    fn pool_claims_are_exclusive_across_threads() {
        let pool = DpdkPool::new(64, 2);
        std::thread::scope(|s| {
            for id in 1..=4u8 {
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..2000 {
                        let Some(mut buf) = pool.get(64) else {
                            std::thread::yield_now();
                            continue;
                        };
                        buf.fill(id);
                        std::thread::yield_now();
                        assert!(buf.iter().all(|&b| b == id), "slot shared");
                    }
                });
            }
        });
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn pool_rejects_oversize() {
        let pool = DpdkPool::new(1024, 1);
        assert!(pool.get(1025).is_none());
        assert_eq!(pool.available(), 1, "rejection must not leak");
    }

    #[test]
    fn pooled_buf_views_logical_len() {
        let pool = DpdkPool::new(4096, 1);
        let mut b = pool.get(16).unwrap();
        b.copy_from_slice(&[3u8; 16]);
        assert_eq!(b.len(), 16);
        assert_eq!(&b[..], &[3u8; 16]);
    }

    #[test]
    fn manager_prefers_zero_copy_when_local() {
        let ch = ShmChannel::allocate(4, 4096);
        let shm = ShmPayloadChannel::new(&ch, Side::Client);
        let mgr = BufferManager::new(DpdkPool::new(8192, 4), Some(shm));
        assert!(mgr.zero_copy_available());
        let buf = mgr.alloc(1024).unwrap();
        assert!(buf.is_zero_copy());
        // Oversized for a slot: falls back to the pool.
        let buf = mgr.alloc(8192).unwrap();
        assert!(!buf.is_zero_copy());
    }

    #[test]
    fn manager_without_shm_uses_pool() {
        let mgr = BufferManager::new(DpdkPool::new(4096, 2), None);
        assert!(!mgr.zero_copy_available());
        let buf = mgr.alloc(64).unwrap();
        assert!(!buf.is_zero_copy());
        assert_eq!(buf.len(), 64);
    }

    #[test]
    fn manager_falls_back_when_slots_exhausted() {
        let ch = ShmChannel::allocate(1, 4096);
        let shm = ShmPayloadChannel::new(&ch, Side::Client);
        let mgr = BufferManager::new(DpdkPool::new(4096, 2), Some(shm));
        let a = mgr.alloc(64).unwrap();
        assert!(a.is_zero_copy());
        let b = mgr.alloc(64).unwrap();
        assert!(!b.is_zero_copy(), "slot exhausted, must use pool");
    }

    #[test]
    fn io_buffer_write_through_deref() {
        let ch = ShmChannel::allocate(2, 128);
        let shm = ShmPayloadChannel::new(&ch, Side::Client);
        let mgr = BufferManager::new(DpdkPool::new(128, 1), Some(shm));
        let mut buf = mgr.alloc(5).unwrap();
        buf.copy_from_slice(b"12345");
        assert_eq!(&buf[..], b"12345");
        assert_eq!(buf.len(), 5);
        assert!(!buf.is_empty());
    }
}
