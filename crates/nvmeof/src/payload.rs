//! The out-of-band payload channel interface (co-design hook).
//!
//! When a connection negotiates the shared-memory channel, data PDUs stop
//! carrying bytes and instead reference a slot published through this
//! interface (§4.3). The NVMe-oF stack stays transport-agnostic, and the
//! interface is *lease-based* so the zero-copy ablation step (§4.4.3) needs
//! no extra copies anywhere:
//!
//! * send side: [`PayloadChannel::alloc`] hands out a [`WriteLease`] — for
//!   a shared-memory channel the lease **is** a slot of the region — and
//!   [`PayloadChannel::publish_lease`] publishes it without copying;
//! * receive side: [`PayloadChannel::consume_with`] lends the published
//!   bytes to a closure *in place*, freeing the slot afterwards.
//!
//! The copying calls ([`PayloadChannel::publish`] /
//! [`PayloadChannel::consume`]) are provided methods over the leases and
//! the only copy path: `publish` is alloc + one copy + publish, `consume`
//! is a borrow + one copy out. No implementation overrides them, so a
//! copying publish takes its slot from the same allocator as a lease.
//! `oaf-core` implements this trait over the real lock-free
//! [`oaf_shmem::ShmChannel`].

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use oaf_shmem::SlotLease;
use parking_lot::Mutex;

use crate::error::NvmeofError;

enum LeaseInner {
    /// A managed slot of a shared-memory region: publishing is free.
    Slot(SlotLease),
    /// Fallback for channels with no shared region behind them: a plain
    /// heap buffer the channel will copy at publish time.
    Heap(Vec<u8>),
}

/// A write buffer leased from a payload channel.
///
/// Fill it through `DerefMut` (or any `&mut [u8]` API), then hand it to
/// [`PayloadChannel::publish_lease`]. On a shared-memory channel the
/// buffer lives directly in the region — publishing copies nothing. On a
/// fallback channel it is a heap buffer and publishing copies once,
/// exactly like the old `publish(&[u8])` path.
pub struct WriteLease {
    inner: LeaseInner,
}

impl std::fmt::Debug for WriteLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            LeaseInner::Slot(l) => f
                .debug_struct("WriteLease")
                .field("kind", &"slot")
                .field("slot", &l.slot())
                .field("len", &l.len())
                .finish(),
            LeaseInner::Heap(b) => f
                .debug_struct("WriteLease")
                .field("kind", &"heap")
                .field("len", &b.len())
                .finish(),
        }
    }
}

impl WriteLease {
    /// Wraps a managed shared-memory slot lease.
    pub fn from_slot(lease: SlotLease) -> Self {
        WriteLease {
            inner: LeaseInner::Slot(lease),
        }
    }

    /// A zero-filled heap-backed lease of `len` bytes (copy fallback).
    pub fn heap(len: usize) -> Self {
        WriteLease {
            inner: LeaseInner::Heap(vec![0u8; len]),
        }
    }

    /// Logical length of the buffer.
    pub fn len(&self) -> usize {
        match &self.inner {
            LeaseInner::Slot(l) => l.len(),
            LeaseInner::Heap(b) => b.len(),
        }
    }

    /// Whether the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether publishing this lease avoids the application-side copy.
    pub fn is_zero_copy(&self) -> bool {
        matches!(self.inner, LeaseInner::Slot(_))
    }

    /// Shrinks the logical length to `len` (e.g. a short final chunk).
    pub fn truncate(&mut self, len: usize) {
        match &mut self.inner {
            LeaseInner::Slot(l) => {
                if len < l.len() {
                    l.set_len(len).expect("shrinking below slot size");
                }
            }
            LeaseInner::Heap(b) => b.truncate(len),
        }
    }

    /// Unwraps the managed slot lease, or gives the lease back.
    pub fn into_slot(self) -> Result<SlotLease, WriteLease> {
        match self.inner {
            LeaseInner::Slot(l) => Ok(l),
            other => Err(WriteLease { inner: other }),
        }
    }

    /// Unwraps the heap buffer, or gives the lease back.
    pub fn into_heap(self) -> Result<Vec<u8>, WriteLease> {
        match self.inner {
            LeaseInner::Heap(b) => Ok(b),
            other => Err(WriteLease { inner: other }),
        }
    }
}

impl Deref for WriteLease {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.inner {
            LeaseInner::Slot(l) => l,
            LeaseInner::Heap(b) => b,
        }
    }
}

impl DerefMut for WriteLease {
    fn deref_mut(&mut self) -> &mut [u8] {
        match &mut self.inner {
            LeaseInner::Slot(l) => l,
            LeaseInner::Heap(b) => b,
        }
    }
}

/// A bidirectional out-of-band payload channel between one client and one
/// target. Implementations must be cheap to share across the polling
/// threads of a connection.
pub trait PayloadChannel: Send + Sync {
    /// Leases a transmit buffer of `len` bytes. On a shared-memory
    /// channel the buffer is a slot of the region (zero-copy, §4.4.3);
    /// otherwise it is heap-backed and `publish_lease` copies once.
    fn alloc(&self, len: usize) -> Result<WriteLease, NvmeofError>;

    /// Publishes a filled lease in this side's transmit direction;
    /// returns the `(slot, len)` reference to send in the control PDU.
    fn publish_lease(&self, lease: WriteLease) -> Result<(u32, u32), NvmeofError>;

    /// Lends the payload published by the peer at `slot` to `f` without
    /// copying it out, then frees the slot. `f` is called exactly once
    /// on success, with a slice of exactly `len` bytes.
    fn consume_with(
        &self,
        slot: u32,
        len: u32,
        f: &mut dyn FnMut(&[u8]),
    ) -> Result<(), NvmeofError>;

    /// Largest payload a single slot can carry.
    fn max_payload(&self) -> usize;

    /// Publishes `data` by copying it into a fresh lease (the one-copy
    /// path: [`PayloadChannel::alloc`] + copy +
    /// [`PayloadChannel::publish_lease`]).
    fn publish(&self, data: &[u8]) -> Result<(u32, u32), NvmeofError> {
        let mut lease = self.alloc(data.len())?;
        lease.copy_from_slice(data);
        self.publish_lease(lease)
    }

    /// Consumes the payload published by the peer at `slot`, copying it
    /// into `dst` (which must be exactly `len` bytes) and freeing the
    /// slot (the one-copy path: [`PayloadChannel::consume_with`] + copy).
    fn consume(&self, slot: u32, len: u32, dst: &mut [u8]) -> Result<(), NvmeofError> {
        if dst.len() != len as usize {
            return Err(NvmeofError::Payload("length mismatch".into()));
        }
        self.consume_with(slot, len, &mut |bytes| dst.copy_from_slice(bytes))
    }

    /// Marks the channel unusable for new traffic: subsequent `alloc` /
    /// `publish` calls fail fast so the connection's degradation logic
    /// can route payloads elsewhere. Default: no-op for channels with no
    /// failure mode worth isolating.
    fn quarantine(&self) {}

    /// Force-reclaims every published-but-unconsumed (or stuck mid-write)
    /// slot, returning how many were freed. Called after [`quarantine`]
    /// so in-flight references cannot race new leases. Default: nothing
    /// to reclaim.
    ///
    /// [`quarantine`]: PayloadChannel::quarantine
    fn reclaim(&self) -> usize {
        0
    }

    /// Force-reclaims one published slot in this side's transmit
    /// direction — used when a retry abandons a payload the peer provably
    /// never consumed. Returns whether the slot was freed. Default:
    /// nothing to free.
    fn reclaim_slot(&self, slot: u32) -> bool {
        let _ = slot;
        false
    }
}

#[derive(Default)]
struct MailboxSide {
    slots: Vec<Option<Vec<u8>>>,
}

impl MailboxSide {
    fn with_depth(depth: usize) -> Self {
        MailboxSide {
            slots: vec![None; depth],
        }
    }
}

/// A loopback payload channel for tests: an indexed in-memory mailbox per
/// direction, mimicking slot semantics without shared memory. Each handle
/// publishes into its own transmit direction and consumes from the peer's.
pub struct MailboxChannel {
    dirs: Arc<[Mutex<MailboxSide>; 2]>,
    tx_dir: usize,
    /// Round-robin cursor over the transmit slots.
    cursor: std::sync::atomic::AtomicUsize,
    /// Shared "the region died" flag: set by [`PayloadChannel::quarantine`]
    /// (or a chaos hook) on either handle, fails all publishes on both.
    poisoned: Arc<std::sync::atomic::AtomicBool>,
}

impl MailboxChannel {
    /// Creates a connected `(client, target)` pair with `depth` slots per
    /// direction.
    pub fn pair(depth: usize) -> (Arc<Self>, Arc<Self>) {
        let dirs = Arc::new([
            Mutex::new(MailboxSide::with_depth(depth)),
            Mutex::new(MailboxSide::with_depth(depth)),
        ]);
        let poisoned = Arc::new(std::sync::atomic::AtomicBool::new(false));
        (
            Arc::new(MailboxChannel {
                dirs: dirs.clone(),
                tx_dir: 0,
                cursor: std::sync::atomic::AtomicUsize::new(0),
                poisoned: poisoned.clone(),
            }),
            Arc::new(MailboxChannel {
                dirs,
                tx_dir: 1,
                cursor: std::sync::atomic::AtomicUsize::new(0),
                poisoned,
            }),
        )
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(std::sync::atomic::Ordering::Acquire)
    }
}

impl PayloadChannel for MailboxChannel {
    fn alloc(&self, len: usize) -> Result<WriteLease, NvmeofError> {
        if self.is_poisoned() {
            return Err(NvmeofError::Payload("channel quarantined".into()));
        }
        // No shared region behind the mailbox: leases are heap-backed and
        // publish_lease adopts the buffer as the slot's contents.
        Ok(WriteLease::heap(len))
    }

    fn publish_lease(&self, lease: WriteLease) -> Result<(u32, u32), NvmeofError> {
        if self.is_poisoned() {
            return Err(NvmeofError::Payload("channel quarantined".into()));
        }
        let len = lease.len() as u32;
        let bytes = lease.into_heap().unwrap_or_else(|slot| slot.to_vec());
        let mut side = self.dirs[self.tx_dir].lock();
        // Round-robin (§4.4.1): probe forward past stragglers; only a
        // genuinely full mailbox is an error.
        let depth = side.slots.len();
        for _ in 0..depth {
            let slot = self
                .cursor
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                % depth;
            if side.slots[slot].is_none() {
                side.slots[slot] = Some(bytes);
                return Ok((slot as u32, len));
            }
        }
        Err(NvmeofError::Payload("no free slot".into()))
    }

    fn consume_with(
        &self,
        slot: u32,
        len: u32,
        f: &mut dyn FnMut(&[u8]),
    ) -> Result<(), NvmeofError> {
        let mut side = self.dirs[1 - self.tx_dir].lock();
        let stored = side
            .slots
            .get_mut(slot as usize)
            .ok_or_else(|| NvmeofError::Payload(format!("bad slot {slot}")))?
            .take()
            .ok_or_else(|| NvmeofError::Payload(format!("slot {slot} empty")))?;
        if stored.len() != len as usize {
            return Err(NvmeofError::Payload("length mismatch".into()));
        }
        f(&stored);
        Ok(())
    }

    /// The most a slot reference can carry: the wire's `len` is a `u32`.
    fn max_payload(&self) -> usize {
        u32::MAX as usize
    }

    fn quarantine(&self) {
        self.poisoned
            .store(true, std::sync::atomic::Ordering::Release);
    }

    fn reclaim(&self) -> usize {
        let mut side = self.dirs[self.tx_dir].lock();
        let mut freed = 0;
        for slot in &mut side.slots {
            if slot.take().is_some() {
                freed += 1;
            }
        }
        freed
    }

    fn reclaim_slot(&self, slot: u32) -> bool {
        let mut side = self.dirs[self.tx_dir].lock();
        side.slots
            .get_mut(slot as usize)
            .is_some_and(|s| s.take().is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_on_one_side_consume_on_other() {
        let (client, target) = MailboxChannel::pair(4);
        let (slot, len) = client.publish(b"write payload").unwrap();
        let mut out = vec![0u8; len as usize];
        target.consume(slot, len, &mut out).unwrap();
        assert_eq!(out, b"write payload");
        // Slot is freed after consumption.
        assert!(target.consume(slot, len, &mut out).is_err());
    }

    #[test]
    fn directions_are_independent() {
        let (client, target) = MailboxChannel::pair(2);
        let (cs, cl) = client.publish(b"c2t").unwrap();
        let (ts, tl) = target.publish(b"t2c").unwrap();
        assert_eq!((cs, ts), (0, 0)); // same index, different direction
        let mut buf = vec![0u8; 3];
        target.consume(cs, cl, &mut buf).unwrap();
        assert_eq!(buf, b"c2t");
        client.consume(ts, tl, &mut buf).unwrap();
        assert_eq!(buf, b"t2c");
    }

    #[test]
    fn depth_exhaustion() {
        let (client, _target) = MailboxChannel::pair(2);
        client.publish(b"1").unwrap();
        client.publish(b"2").unwrap();
        assert!(client.publish(b"3").is_err());
    }

    #[test]
    fn publish_probes_past_straggler_slot() {
        // Fill all three slots, drain only the middle one: the next
        // publish must probe forward from next%depth (= occupied slot 0)
        // and land in the freed slot 1 instead of erroring.
        let (client, target) = MailboxChannel::pair(3);
        client.publish(b"a").unwrap();
        let (s1, l1) = client.publish(b"b").unwrap();
        client.publish(b"c").unwrap();
        let mut buf = vec![0u8; 1];
        target.consume(s1, l1, &mut buf).unwrap();
        let (slot, _) = client.publish(b"d").unwrap();
        assert_eq!(slot, s1);
    }

    #[test]
    fn lease_roundtrip_through_mailbox() {
        let (client, target) = MailboxChannel::pair(2);
        let mut lease = client.alloc(5).unwrap();
        assert!(!lease.is_zero_copy());
        lease.copy_from_slice(b"hello");
        let (slot, len) = client.publish_lease(lease).unwrap();
        let mut seen = Vec::new();
        target
            .consume_with(slot, len, &mut |b| seen.extend_from_slice(b))
            .unwrap();
        assert_eq!(seen, b"hello");
        // Borrow freed the slot.
        assert!(target.consume_with(slot, len, &mut |_| {}).is_err());
    }

    #[test]
    fn truncate_shrinks_lease() {
        let mut lease = WriteLease::heap(8);
        lease[..3].copy_from_slice(b"xyz");
        lease.truncate(3);
        assert_eq!(lease.len(), 3);
        assert_eq!(&lease[..], b"xyz");
    }

    #[test]
    fn length_mismatch_rejected() {
        let (client, target) = MailboxChannel::pair(2);
        let (slot, len) = client.publish(b"abc").unwrap();
        let mut small = vec![0u8; 1];
        assert!(target.consume(slot, len, &mut small).is_err());
    }

    #[test]
    fn reclaim_frees_published_slots() {
        let (client, _target) = MailboxChannel::pair(3);
        for _ in 0..3 {
            client.publish(b"a").unwrap();
        }
        assert!(client.publish(b"full").is_err());
        assert_eq!(client.reclaim(), 3);
        let (slot, _) = client.publish(b"again").unwrap();
        assert!(client.reclaim_slot(slot));
        assert!(!client.reclaim_slot(slot)); // already free
        assert!(!client.reclaim_slot(3)); // out of range
    }

    #[test]
    fn consuming_own_direction_fails() {
        let (client, _target) = MailboxChannel::pair(2);
        let (slot, len) = client.publish(b"abc").unwrap();
        let mut buf = vec![0u8; 3];
        // Client consumes from the *target's* direction, which is empty.
        assert!(client.consume(slot, len, &mut buf).is_err());
    }
}
