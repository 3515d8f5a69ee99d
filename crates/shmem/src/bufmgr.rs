//! The Buffer Manager: lease-based buffer placement (§4.4.1, §4.4.3).
//!
//! The paper's final shm ablation step removes the last `memcpy` by
//! *co-designing the application with the fabric*: instead of handing the
//! transport a private buffer to copy into a slot, the application asks
//! the Buffer Manager for a buffer that already **is** a slot of the
//! shared double-buffer region. [`BufferManager`] implements that
//! allocator over one direction's [`SlotRing`], and it is the only code
//! that claims a transmit slot — a sender that holds its bytes elsewhere
//! leases a slot here and copies into it (the one-copy rung of Fig. 8):
//!
//! * slots are handed out round-robin within the I/O depth (§4.4.1) —
//!   with the queue depth bounded by the ring depth, the next
//!   round-robin slot is drained by the time it comes around again, so
//!   allocation is a single uncontended CAS in the steady state;
//! * when the ring is *not* drained in order (a slow reader, mixed I/O
//!   sizes), the manager probes forward up to `depth` slots before
//!   reporting exhaustion, so one straggler slot cannot wedge the pool;
//! * every lease is RAII: an unpublished [`SlotLease`] returns its slot
//!   to `Free` on drop, and the manager's occupancy gauge tracks live
//!   leases (with a lifetime high-water mark);
//! * in debug builds a per-slot ledger asserts no two live leases ever
//!   alias the same slot — belt and braces over the state-machine CAS.
//!
//! Whether a lease saved a copy is known only to its caller, so the
//! `zero_copy_bytes` / `copies_avoided` counters live in the initiator
//! and target bundles, not here.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use oaf_telemetry::{Counter, Gauge, Scope};

use crate::slot::{SlotRing, WriteGuard};
use crate::ShmError;

/// Telemetry bundle for one [`BufferManager`] (detached until
/// [`BufStats::register`]ed, like every bundle in this workspace).
#[derive(Default, Debug)]
pub struct BufStats {
    /// Leases successfully handed out.
    pub leases: Counter,
    /// Lease requests denied because every slot was occupied after a
    /// full round-robin probe.
    pub lease_denied: Counter,
    /// Leases dropped without being published (slot returned to the
    /// pool unused).
    pub lease_aborted: Counter,
    /// Live (unpublished, undropped) leases right now; `hwm()` is the
    /// deepest the pool has ever been.
    pub leases_live: Gauge,
}

impl BufStats {
    /// Fresh, detached bundle.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Publish every metric of this bundle into `scope`.
    pub fn register(&self, scope: &Scope) {
        scope.adopt_counter("leases", &self.leases);
        scope.adopt_counter("lease_denied", &self.lease_denied);
        scope.adopt_counter("lease_aborted", &self.lease_aborted);
        scope.adopt_gauge("leases_live", &self.leases_live);
    }
}

struct MgrInner {
    ring: SlotRing,
    /// Round-robin cursor: the next slot to probe.
    cursor: std::sync::atomic::AtomicUsize,
    stats: Arc<BufStats>,
    /// No-aliasing ledger: one flag per slot, set while a manager lease
    /// holds the slot. The slot state machine already guarantees
    /// exclusivity; beyond the debug-build double-issue asserts, the
    /// reclamation sweep needs it in every build so a forced reclaim
    /// never frees a slot a live local lease still points into.
    live: Box<[std::sync::atomic::AtomicBool]>,
    /// Once set, the pool refuses new leases: the peer is gone (or the
    /// channel is being torn down) and handing out more shared slots
    /// would only grow the set the sweep has to claw back.
    quarantined: std::sync::atomic::AtomicBool,
}

impl MgrInner {
    #[inline]
    fn on_issue(&self, slot: usize) {
        self.stats.leases.inc();
        self.stats.leases_live.add(1);
        let was = self.live[slot].swap(true, std::sync::atomic::Ordering::AcqRel);
        debug_assert!(!was, "buffer manager issued slot {slot} twice");
    }

    #[inline]
    fn on_release(&self, slot: usize) {
        self.stats.leases_live.sub(1);
        let was = self.live[slot].swap(false, std::sync::atomic::Ordering::AcqRel);
        debug_assert!(was, "buffer manager released slot {slot} it never issued");
    }
}

/// Lease-based allocator over one direction's slot ring. Cloning shares
/// the pool (and its stats); leases stay valid across clones.
#[derive(Clone)]
pub struct BufferManager {
    inner: Arc<MgrInner>,
}

impl BufferManager {
    /// Builds the manager of `ring`'s slots. Build one per ring: two
    /// managers over one ring would each see the other's leases only as
    /// occupied slots.
    pub fn new(ring: SlotRing) -> Self {
        let live = (0..ring.depth())
            .map(|_| std::sync::atomic::AtomicBool::new(false))
            .collect();
        BufferManager {
            inner: Arc::new(MgrInner {
                ring,
                cursor: std::sync::atomic::AtomicUsize::new(0),
                stats: BufStats::new(),
                live,
                quarantined: std::sync::atomic::AtomicBool::new(false),
            }),
        }
    }

    /// Slots in the pool.
    pub fn depth(&self) -> usize {
        self.inner.ring.depth()
    }

    /// Capacity of each buffer in bytes.
    pub fn slot_size(&self) -> usize {
        self.inner.ring.slot_size()
    }

    /// The manager's telemetry bundle.
    pub fn stats(&self) -> &Arc<BufStats> {
        &self.inner.stats
    }

    /// Leases an application buffer of `len` logical bytes living
    /// directly in the shared region. Probes round-robin through up to
    /// `depth` slots (§4.4.1); [`ShmError::NoFreeSlot`] means the whole
    /// pool is genuinely occupied.
    pub fn lease(&self, len: usize) -> Result<SlotLease, ShmError> {
        if self
            .inner
            .quarantined
            .load(std::sync::atomic::Ordering::Acquire)
        {
            // The pool is being reclaimed after a peer failure; deny
            // leases outright (reported like exhaustion — the caller's
            // fallback path is identical either way).
            self.inner.stats.lease_denied.inc();
            return Err(ShmError::NoFreeSlot);
        }
        if len > self.slot_size() {
            return Err(ShmError::PayloadTooLarge {
                len,
                slot_size: self.slot_size(),
            });
        }
        // The cursor advances on every probe, so consecutive attempts
        // walk consecutive slots.
        let depth = self.depth();
        for _ in 0..depth {
            let slot = self
                .inner
                .cursor
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                % depth;
            match self.inner.ring.begin_write_slot(slot) {
                Ok(guard) => {
                    self.inner.on_issue(guard.slot());
                    return Ok(SlotLease {
                        guard: Some(guard),
                        len,
                        inner: Arc::clone(&self.inner),
                    });
                }
                Err(ShmError::NoFreeSlot) => continue,
                Err(e) => return Err(e),
            }
        }
        self.inner.stats.lease_denied.inc();
        Err(ShmError::NoFreeSlot)
    }

    /// Stops handing out leases. Call when the peer sharing the region
    /// has died or the channel is degrading to an inline path; follow
    /// with [`BufferManager::reclaim`] once in-flight commands that
    /// reference published slots have been retired.
    pub fn quarantine(&self) {
        self.inner
            .quarantined
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether [`BufferManager::quarantine`] has been called.
    pub fn is_quarantined(&self) -> bool {
        self.inner
            .quarantined
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// Sweeps every slot not held by a live local lease back to `Free`,
    /// returning how many were reclaimed.
    ///
    /// Safety contract (not memory-unsafe, but protocol-critical): only
    /// call after [`BufferManager::quarantine`] and after retiring every
    /// in-flight command whose payload lives in a published slot — a
    /// reclaimed slot's bytes may be reused immediately.
    pub fn reclaim(&self) -> usize {
        let mut freed = 0;
        for slot in 0..self.depth() {
            if self.inner.live[slot].load(std::sync::atomic::Ordering::Acquire) {
                continue; // a live local lease still points into this slot
            }
            if self.inner.ring.force_reclaim(slot).unwrap_or(false) {
                freed += 1;
            }
        }
        freed
    }

    /// Forces one slot back to `Free` (same contract as
    /// [`BufferManager::reclaim`]); returns whether the slot was actually
    /// occupied. Out-of-range slots and slots held by live local leases
    /// are refused.
    pub fn reclaim_slot(&self, slot: usize) -> bool {
        if self
            .inner
            .live
            .get(slot)
            .is_none_or(|live| live.load(std::sync::atomic::Ordering::Acquire))
        {
            return false;
        }
        self.inner.ring.force_reclaim(slot).unwrap_or(false)
    }
}

/// An RAII application buffer living directly in shared memory.
///
/// Filling it *is* filling the slot; [`SlotLease::publish`] flips the
/// slot `Ready` with no copy. Dropping an unpublished lease returns the
/// slot to the pool.
pub struct SlotLease {
    guard: Option<WriteGuard>,
    len: usize,
    inner: Arc<MgrInner>,
}

impl SlotLease {
    fn guard(&self) -> &WriteGuard {
        self.guard
            .as_ref()
            .expect("lease guard present until consumed")
    }

    /// The slot this lease occupies.
    pub fn slot(&self) -> usize {
        self.guard().slot()
    }

    /// Logical length of the buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shrinks (or re-grows, up to the slot size) the logical length.
    pub fn set_len(&mut self, len: usize) -> Result<(), ShmError> {
        let slot_size = self.inner.ring.slot_size();
        if len > slot_size {
            return Err(ShmError::PayloadTooLarge { len, slot_size });
        }
        self.len = len;
        Ok(())
    }

    /// Publishes the buffer without copying; returns `(slot, len)` for
    /// the out-of-band notification.
    pub fn publish(mut self) -> (usize, usize) {
        let mut guard = self.guard.take().expect("publish consumes the guard once");
        guard
            .set_len(self.len)
            .expect("len validated at lease time");
        self.inner.on_release(guard.slot());
        guard.publish()
    }
}

impl Drop for SlotLease {
    fn drop(&mut self) {
        if let Some(guard) = self.guard.take() {
            self.inner.on_release(guard.slot());
            self.inner.stats.lease_aborted.inc();
            // WriteGuard::drop returns the slot to Free.
        }
    }
}

impl Deref for SlotLease {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.guard().as_slice()[..self.len]
    }
}

impl DerefMut for SlotLease {
    fn deref_mut(&mut self) -> &mut [u8] {
        let len = self.len;
        let guard = self
            .guard
            .as_mut()
            .expect("lease guard present until consumed");
        &mut guard.as_mut_slice()[..len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Dir, DoubleBufferLayout};
    use crate::region::ShmRegion;
    use crate::slot::SlotState;
    use oaf_telemetry::Registry;

    fn mgr(depth: usize, slot_size: usize) -> (BufferManager, SlotRing) {
        let layout = DoubleBufferLayout::new(depth, slot_size);
        let region = Arc::new(ShmRegion::new(layout.total()));
        let ring = SlotRing::new(region, layout, Dir::ToTarget).unwrap();
        (BufferManager::new(ring.clone()), ring)
    }

    #[test]
    fn lease_fill_publish_consume() {
        let (m, ring) = mgr(4, 4096);
        let mut lease = m.lease(8).unwrap();
        lease.copy_from_slice(b"zerocopy");
        let (slot, len) = lease.publish();
        let rd = ring.begin_read(slot, len).unwrap();
        assert_eq!(rd.as_slice(), b"zerocopy");
        drop(rd);
        assert_eq!(ring.state(slot).unwrap(), SlotState::Free);
        assert_eq!(m.stats().leases.get(), 1);
    }

    #[test]
    fn round_robin_cycles_slots() {
        let (m, ring) = mgr(3, 64);
        let mut order = Vec::new();
        for _ in 0..3 {
            let (slot, len) = m.lease(0).unwrap().publish();
            order.push(slot);
            drop(ring.begin_read(slot, len).unwrap());
        }
        assert_eq!(order, vec![0, 1, 2]);
        // Wraps around.
        assert_eq!(m.lease(0).unwrap().slot(), 0);
    }

    #[test]
    fn probe_skips_straggler_slot() {
        // Occupy slot 0, then lease depth-1 more times: the manager must
        // skip the straggler instead of failing at `next % depth`.
        let (m, _ring) = mgr(4, 64);
        let straggler = m.lease(1).unwrap();
        assert_eq!(straggler.slot(), 0);
        let mut got = Vec::new();
        let leases: Vec<_> = (0..3).map(|_| m.lease(1).unwrap()).collect();
        for l in &leases {
            got.push(l.slot());
        }
        assert_eq!(got, vec![1, 2, 3]);
        // Pool genuinely exhausted now.
        assert!(matches!(m.lease(1), Err(ShmError::NoFreeSlot)));
        assert_eq!(m.stats().lease_denied.get(), 1);
        drop(straggler);
        // Freed slot becomes leasable again after a full probe.
        assert_eq!(m.lease(1).unwrap().slot(), 0);
    }

    #[test]
    fn drop_returns_slot_to_pool() {
        let (m, ring) = mgr(2, 64);
        let slot = {
            let lease = m.lease(16).unwrap();
            lease.slot()
        };
        assert_eq!(ring.state(slot).unwrap(), SlotState::Free);
        assert_eq!(m.stats().lease_aborted.get(), 1);
        assert_eq!(m.stats().leases_live.get(), 0);
    }

    #[test]
    fn occupancy_gauge_tracks_live_leases_with_hwm() {
        let (m, _ring) = mgr(4, 64);
        let a = m.lease(1).unwrap();
        let b = m.lease(1).unwrap();
        let c = m.lease(1).unwrap();
        assert_eq!(m.stats().leases_live.get(), 3);
        drop(a);
        let _ = b.publish();
        assert_eq!(m.stats().leases_live.get(), 1);
        drop(c);
        assert_eq!(m.stats().leases_live.get(), 0);
        assert_eq!(m.stats().leases_live.hwm(), 3);
    }

    #[test]
    fn oversized_lease_rejected() {
        let (m, _ring) = mgr(2, 32);
        assert!(matches!(m.lease(33), Err(ShmError::PayloadTooLarge { .. })));
    }

    #[test]
    fn set_len_shrinks_published_length() {
        let (m, ring) = mgr(2, 64);
        let mut lease = m.lease(64).unwrap();
        lease[..3].copy_from_slice(b"abc");
        lease.set_len(3).unwrap();
        assert!(lease.set_len(65).is_err());
        let (slot, len) = lease.publish();
        assert_eq!(len, 3);
        assert_eq!(ring.begin_read(slot, len).unwrap().as_slice(), b"abc");
    }

    #[test]
    fn quarantine_denies_new_leases() {
        let (m, _ring) = mgr(4, 64);
        assert!(!m.is_quarantined());
        m.quarantine();
        assert!(m.is_quarantined());
        assert!(matches!(m.lease(1), Err(ShmError::NoFreeSlot)));
        assert_eq!(m.stats().lease_denied.get(), 1);
    }

    #[test]
    fn reclaim_frees_published_but_not_live_slots() {
        let (m, ring) = mgr(4, 64);
        // Slot 0: published (Ready) — a dead peer would never drain it.
        let lease = m.lease(4).unwrap();
        let (published, _) = lease.publish();
        // Slot 1: a live local lease — must survive the sweep.
        let held = m.lease(4).unwrap();
        let held_slot = held.slot();
        m.quarantine();
        let freed = m.reclaim();
        assert_eq!(freed, 1);
        assert_eq!(ring.state(published).unwrap(), SlotState::Free);
        assert_ne!(ring.state(held_slot).unwrap(), SlotState::Free);
        drop(held);
        // Now the straggler can be swept too.
        assert_eq!(m.reclaim(), 0); // drop already returned it to Free
        assert_eq!(ring.state(held_slot).unwrap(), SlotState::Free);
    }

    #[test]
    fn reclaim_slot_targets_one_slot() {
        let (m, ring) = mgr(4, 64);
        let (published, _) = m.lease(4).unwrap().publish();
        let held = m.lease(4).unwrap();
        assert!(!m.reclaim_slot(held.slot())); // live lease: refused
        assert!(m.reclaim_slot(published));
        assert!(!m.reclaim_slot(published)); // already free
        assert!(!m.reclaim_slot(99)); // out of range
        assert_eq!(ring.state(published).unwrap(), SlotState::Free);
        drop(held);
    }

    #[test]
    fn stats_register_into_scope() {
        let (m, ring) = mgr(2, 64);
        let registry = Registry::new();
        m.stats().register(&registry.scope("bufmgr"));
        let lease = m.lease(4).unwrap();
        let (slot, len) = lease.publish();
        drop(ring.begin_read(slot, len).unwrap());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("bufmgr", "leases"), 1);
        assert_eq!(snap.gauge("bufmgr", "leases_live"), Some((0, 1)));
    }
}
