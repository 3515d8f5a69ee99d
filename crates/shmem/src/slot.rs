//! Lock-free slot ring over one direction of the double buffer.
//!
//! Every slot carries a one-byte state machine stored *inside* the shared
//! region:
//!
//! ```text
//!   Free --CAS--> Writing --store(Release)--> Ready
//!    ^                                          |
//!    |                                   CAS(Acquire)
//!    +---- store(Release) <--- Reading <--------+
//! ```
//!
//! The ring does not pick slots: the producer names the slot it claims,
//! and the one producer is the [`BufferManager`](crate::BufferManager),
//! which walks them round-robin (the paper's scheme, §4.4.1). With the
//! application queue depth bounded by the ring depth, the round-robin
//! slot is drained by the time it comes around again, so the claim CAS
//! fails only on a straggler — it exists to *detect* an occupied slot,
//! not to wait. Publication is release/acquire: the payload bytes written
//! while in `Writing` happen-before any read that observed `Ready`.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use crate::layout::{Dir, DoubleBufferLayout};
use crate::region::ShmRegion;
use crate::ShmError;

/// State of a slot, as stored in its in-region state byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SlotState {
    /// Drained; available to the producer.
    Free = 0,
    /// Producer is filling it.
    Writing = 1,
    /// Published; available to the consumer.
    Ready = 2,
    /// Consumer is draining it.
    Reading = 3,
}

impl SlotState {
    fn from_u8(v: u8) -> SlotState {
        match v {
            0 => SlotState::Free,
            1 => SlotState::Writing,
            2 => SlotState::Ready,
            3 => SlotState::Reading,
            other => unreachable!("corrupt slot state byte {other}"),
        }
    }
}

/// One direction's slot ring. Cloning shares the underlying ring; exactly
/// one logical producer and one logical consumer must use it (single
/// client ↔ single target per channel, as the paper isolates channels per
/// client for security, §4.2).
#[derive(Clone)]
pub struct SlotRing {
    region: Arc<ShmRegion>,
    layout: DoubleBufferLayout,
    dir: Dir,
}

impl SlotRing {
    /// Creates the ring for direction `dir` of `layout` within `region`.
    pub fn new(
        region: Arc<ShmRegion>,
        layout: DoubleBufferLayout,
        dir: Dir,
    ) -> Result<Self, ShmError> {
        layout.check_fits(region.len())?;
        Ok(SlotRing {
            region,
            layout,
            dir,
        })
    }

    /// Number of slots.
    pub fn depth(&self) -> usize {
        self.layout.depth
    }

    /// Capacity of each slot in bytes.
    pub fn slot_size(&self) -> usize {
        self.layout.slot_size
    }

    fn state_atom(&self, slot: usize) -> &AtomicU8 {
        self.region
            .atomic_u8(self.layout.state_offset(self.dir, slot))
    }

    /// Current state of `slot` (racy snapshot, for introspection/tests).
    pub fn state(&self, slot: usize) -> Result<SlotState, ShmError> {
        if slot >= self.layout.depth {
            return Err(ShmError::BadSlot(slot));
        }
        Ok(SlotState::from_u8(
            self.state_atom(slot).load(Ordering::Acquire),
        ))
    }

    /// Producer: claims `slot` for writing; [`ShmError::NoFreeSlot`] if
    /// it is not `Free`. The Buffer Manager decides which slot to claim.
    pub fn begin_write_slot(&self, slot: usize) -> Result<WriteGuard, ShmError> {
        if slot >= self.layout.depth {
            return Err(ShmError::BadSlot(slot));
        }
        match self.state_atom(slot).compare_exchange(
            SlotState::Free as u8,
            SlotState::Writing as u8,
            Ordering::Acquire,
            Ordering::Relaxed,
        ) {
            Ok(_) => Ok(WriteGuard {
                ring: self.clone(),
                slot,
                len: 0,
                published: false,
            }),
            Err(_) => Err(ShmError::NoFreeSlot),
        }
    }

    /// Consumer: claims a `Ready` slot (whose index arrived out-of-band in
    /// an H2C/C2H control notification) for reading.
    pub fn begin_read(&self, slot: usize, len: usize) -> Result<ReadGuard, ShmError> {
        if slot >= self.layout.depth {
            return Err(ShmError::BadSlot(slot));
        }
        if len > self.layout.slot_size {
            return Err(ShmError::PayloadTooLarge {
                len,
                slot_size: self.layout.slot_size,
            });
        }
        match self.state_atom(slot).compare_exchange(
            SlotState::Ready as u8,
            SlotState::Reading as u8,
            Ordering::Acquire,
            Ordering::Relaxed,
        ) {
            Ok(_) => Ok(ReadGuard {
                ring: self.clone(),
                slot,
                len,
            }),
            Err(found) => Err(ShmError::WrongState {
                slot,
                found: SlotState::from_u8(found),
                expected: SlotState::Ready,
            }),
        }
    }

    fn data_offset(&self, slot: usize) -> usize {
        self.layout.slot_offset(self.dir, slot)
    }

    /// Fault-recovery primitive: forces `slot` back to `Free` from any
    /// non-`Free` state, returning whether anything was reclaimed.
    ///
    /// This deliberately breaks the normal state machine — a slot stuck
    /// in `Writing`/`Ready`/`Reading` because its peer died or the
    /// channel was abandoned mid-flight would otherwise leak forever.
    /// Only call it once the channel is quarantined (no new leases) and
    /// the in-flight commands referencing the slot have been retired;
    /// racing a live guard is a protocol violation, exactly like reusing
    /// a published slot index.
    pub fn force_reclaim(&self, slot: usize) -> Result<bool, ShmError> {
        if slot >= self.layout.depth {
            return Err(ShmError::BadSlot(slot));
        }
        let atom = self.state_atom(slot);
        let prev = atom.swap(SlotState::Free as u8, Ordering::AcqRel);
        Ok(prev != SlotState::Free as u8)
    }
}

/// Exclusive write access to one slot, from claim to publication.
pub struct WriteGuard {
    ring: SlotRing,
    slot: usize,
    len: usize,
    published: bool,
}

impl WriteGuard {
    /// The slot index (sent out-of-band to the peer on publication).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Bytes staged so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether any bytes are staged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies `payload` into the slot (the one-copy path of §4.4.3).
    pub fn fill(&mut self, payload: &[u8]) -> Result<(), ShmError> {
        if payload.len() > self.ring.slot_size() {
            return Err(ShmError::PayloadTooLarge {
                len: payload.len(),
                slot_size: self.ring.slot_size(),
            });
        }
        // SAFETY: slot is in `Writing` state — this guard is the only
        // accessor of the range per the state machine.
        unsafe {
            self.ring
                .region
                .write_at(self.ring.data_offset(self.slot), payload);
        }
        self.len = payload.len();
        Ok(())
    }

    /// Direct mutable access to the slot bytes (zero-copy path: the
    /// application builds its data in place, §4.4.3). Call
    /// [`WriteGuard::set_len`] before publishing.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: slot is in `Writing` state — exclusive per state machine;
        // the borrow is tied to &mut self so it cannot outlive publication.
        unsafe {
            self.ring
                .region
                .slice_mut(self.ring.data_offset(self.slot), self.ring.slot_size())
        }
    }

    /// Shared view of the slot bytes (valid while the guard is held; the
    /// guard is the only writer, so reading through `&self` is sound).
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: slot is in `Writing` state — this guard has exclusive
        // ownership of the range; no other thread writes it.
        unsafe {
            self.ring
                .region
                .slice(self.ring.data_offset(self.slot), self.ring.slot_size())
        }
    }

    /// Records how many bytes of the slot are meaningful.
    pub fn set_len(&mut self, len: usize) -> Result<(), ShmError> {
        if len > self.ring.slot_size() {
            return Err(ShmError::PayloadTooLarge {
                len,
                slot_size: self.ring.slot_size(),
            });
        }
        self.len = len;
        Ok(())
    }

    /// Publishes the slot: the payload becomes visible to the consumer.
    /// Returns `(slot, len)` for the out-of-band notification.
    pub fn publish(mut self) -> (usize, usize) {
        self.published = true;
        self.ring
            .state_atom(self.slot)
            .store(SlotState::Ready as u8, Ordering::Release);
        (self.slot, self.len)
    }
}

impl Drop for WriteGuard {
    fn drop(&mut self) {
        if !self.published {
            // Aborted write: return the slot to the pool.
            self.ring
                .state_atom(self.slot)
                .store(SlotState::Free as u8, Ordering::Release);
        }
    }
}

/// Exclusive read access to one published slot; frees it on drop.
pub struct ReadGuard {
    ring: SlotRing,
    slot: usize,
    len: usize,
}

impl ReadGuard {
    /// The slot index.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Published payload length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The published bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: slot is in `Reading` state — the producer will not touch
        // it until we store `Free` in drop.
        unsafe {
            self.ring
                .region
                .slice(self.ring.data_offset(self.slot), self.len)
        }
    }

    /// Copies the payload out into `dst` (must be exactly `len` bytes).
    pub fn copy_to(&self, dst: &mut [u8]) {
        assert_eq!(dst.len(), self.len, "destination length mismatch");
        dst.copy_from_slice(self.as_slice());
    }
}

impl Drop for ReadGuard {
    fn drop(&mut self) {
        self.ring
            .state_atom(self.slot)
            .store(SlotState::Free as u8, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(depth: usize, slot_size: usize, dir: Dir) -> SlotRing {
        let layout = DoubleBufferLayout::new(depth, slot_size);
        let region = Arc::new(ShmRegion::new(layout.total()));
        SlotRing::new(region, layout, dir).unwrap()
    }

    #[test]
    fn write_publish_read_roundtrip() {
        let r = ring(4, 4096, Dir::ToTarget);
        let mut g = r.begin_write_slot(0).unwrap();
        g.fill(b"hello shared memory").unwrap();
        let (slot, len) = g.publish();
        assert_eq!(slot, 0);
        assert_eq!(len, 19);

        let rd = r.begin_read(slot, len).unwrap();
        assert_eq!(rd.as_slice(), b"hello shared memory");
        drop(rd);
        assert_eq!(r.state(slot).unwrap(), SlotState::Free);
    }

    #[test]
    fn occupied_slot_rejects_writer() {
        let r = ring(1, 64, Dir::ToClient);
        let g = r.begin_write_slot(0).unwrap();
        assert!(matches!(r.begin_write_slot(0), Err(ShmError::NoFreeSlot)));
        drop(g); // aborted, slot freed
        assert!(r.begin_write_slot(0).is_ok());
    }

    #[test]
    fn reading_unpublished_slot_fails() {
        let r = ring(2, 64, Dir::ToTarget);
        assert!(matches!(
            r.begin_read(0, 0),
            Err(ShmError::WrongState {
                expected: SlotState::Ready,
                ..
            })
        ));
    }

    #[test]
    fn oversized_payload_rejected() {
        let r = ring(2, 16, Dir::ToTarget);
        let mut g = r.begin_write_slot(0).unwrap();
        assert!(matches!(
            g.fill(&[0u8; 17]),
            Err(ShmError::PayloadTooLarge { .. })
        ));
        assert!(g.set_len(17).is_err());
        assert!(g.set_len(16).is_ok());
    }

    #[test]
    fn bad_slot_index_rejected() {
        let r = ring(2, 16, Dir::ToTarget);
        assert!(matches!(r.begin_write_slot(2), Err(ShmError::BadSlot(2))));
        assert!(matches!(r.begin_read(9, 0), Err(ShmError::BadSlot(9))));
        assert!(matches!(r.state(5), Err(ShmError::BadSlot(5))));
    }

    #[test]
    fn zero_copy_in_place_write() {
        let r = ring(2, 1024, Dir::ToClient);
        let mut g = r.begin_write_slot(0).unwrap();
        g.as_mut_slice()[..5].copy_from_slice(b"01234");
        g.set_len(5).unwrap();
        let (slot, len) = g.publish();
        let rd = r.begin_read(slot, len).unwrap();
        assert_eq!(rd.as_slice(), b"01234");
    }

    #[test]
    fn directions_are_independent() {
        let layout = DoubleBufferLayout::new(2, 64);
        let region = Arc::new(ShmRegion::new(layout.total()));
        let to_t = SlotRing::new(region.clone(), layout, Dir::ToTarget).unwrap();
        let to_c = SlotRing::new(region, layout, Dir::ToClient).unwrap();
        let mut a = to_t.begin_write_slot(0).unwrap();
        let mut b = to_c.begin_write_slot(0).unwrap();
        a.fill(b"tgt").unwrap();
        b.fill(b"cli").unwrap();
        let (sa, la) = a.publish();
        let (sb, lb) = b.publish();
        assert_eq!(to_t.begin_read(sa, la).unwrap().as_slice(), b"tgt");
        assert_eq!(to_c.begin_read(sb, lb).unwrap().as_slice(), b"cli");
    }

    #[test]
    fn producer_consumer_stress_no_torn_payloads() {
        // Producer publishes seqnum-stamped payloads; consumer checks every
        // byte. Any torn read or missed release/acquire edge fails.
        let depth = 8;
        let slot_size = 8 * 1024;
        let layout = DoubleBufferLayout::new(depth, slot_size);
        let region = Arc::new(ShmRegion::new(layout.total()));
        let ring = SlotRing::new(region, layout, Dir::ToTarget).unwrap();
        let (tx, rx) = std::sync::mpsc::channel::<(usize, usize, u8)>();

        let producer = {
            let ring = ring.clone();
            std::thread::spawn(move || {
                // Round-robin claims, as the Buffer Manager makes them.
                let mut next = 0usize;
                for i in 0..2_000u64 {
                    let stamp = (i % 251) as u8 + 1;
                    loop {
                        let slot = next % depth;
                        next += 1;
                        match ring.begin_write_slot(slot) {
                            Ok(mut g) => {
                                let body = vec![stamp; slot_size];
                                g.fill(&body).unwrap();
                                let (slot, len) = g.publish();
                                tx.send((slot, len, stamp)).unwrap();
                                break;
                            }
                            Err(ShmError::NoFreeSlot) => std::hint::spin_loop(),
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
            })
        };

        let consumer = std::thread::spawn(move || {
            let mut buf = vec![0u8; slot_size];
            while let Ok((slot, len, stamp)) = rx.recv() {
                let g = loop {
                    match ring.begin_read(slot, len) {
                        Ok(g) => break g,
                        Err(ShmError::WrongState { .. }) => std::hint::spin_loop(),
                        Err(e) => panic!("unexpected: {e}"),
                    }
                };
                g.copy_to(&mut buf[..len]);
                assert!(
                    buf[..len].iter().all(|&b| b == stamp),
                    "torn payload at slot {slot}"
                );
            }
        });

        producer.join().unwrap();
        consumer.join().unwrap();
    }
}
