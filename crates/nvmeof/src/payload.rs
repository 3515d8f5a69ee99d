//! The out-of-band payload channel (co-design hook).
//!
//! When a connection negotiates the shared-memory channel, data PDUs stop
//! carrying bytes and instead reference a slot published through this
//! interface (§4.3). The NVMe-oF stack stays transport-agnostic, and the
//! interface is *lease-based* so the zero-copy ablation step (§4.4.3) needs
//! no extra copies anywhere:
//!
//! * send side: [`PayloadChannel::alloc`] hands out a [`WriteLease`] — a
//!   slot of the region — and [`PayloadChannel::publish_lease`] publishes
//!   it without copying;
//! * receive side: [`PayloadChannel::consume_with`] lends the published
//!   bytes to a closure *in place*, freeing the slot afterwards.
//!
//! The copying calls ([`PayloadChannel::publish`] /
//! [`PayloadChannel::consume`]) are provided methods over the leases and
//! the only copy path: `publish` is alloc + one copy + publish, `consume`
//! is a borrow + one copy out. No implementation overrides them, so a
//! copying publish takes its slot from the same allocator as a lease.
//! [`ShmPayloadChannel`] implements the trait over the real lock-free
//! [`oaf_shmem::ShmChannel`]; `oaf-chaos` wraps it to inject faults.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use oaf_shmem::channel::{ShmEndpoint, Side};
use oaf_shmem::{BufStats, BufferManager, ShmChannel, ShmError, SlotLease};

use crate::error::NvmeofError;

/// A write buffer leased from a payload channel: a managed slot of the
/// shared region.
///
/// Fill it through `DerefMut` (or any `&mut [u8]` API), then hand it to
/// [`PayloadChannel::publish_lease`]. The buffer lives directly in the
/// region, so publishing copies nothing.
pub struct WriteLease(SlotLease);

impl std::fmt::Debug for WriteLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteLease")
            .field("slot", &self.0.slot())
            .field("len", &self.0.len())
            .finish()
    }
}

impl WriteLease {
    /// Logical length of the buffer.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Deref for WriteLease {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for WriteLease {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

/// A bidirectional out-of-band payload channel between one client and one
/// target. Implementations must be cheap to share across the polling
/// threads of a connection.
pub trait PayloadChannel: Send + Sync {
    /// Leases a transmit buffer of `len` bytes: a slot of the region
    /// (zero-copy, §4.4.3).
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
    /// can route payloads elsewhere.
    fn quarantine(&self);

    /// Force-reclaims every published-but-unconsumed (or stuck mid-write)
    /// slot, returning how many were freed. Called after [`quarantine`]
    /// so in-flight references cannot race new leases.
    ///
    /// [`quarantine`]: PayloadChannel::quarantine
    fn reclaim(&self) -> usize;

    /// Force-reclaims one published slot in this side's transmit
    /// direction — used when a retry abandons a payload the peer provably
    /// never consumed. Returns whether the slot was freed.
    fn reclaim_slot(&self, slot: u32) -> bool;
}

fn map_err(e: ShmError) -> NvmeofError {
    NvmeofError::Payload(e.to_string())
}

/// The lock-free double-buffer payload channel (one side's view),
/// bridged to [`PayloadChannel`] so the NVMe-oF stack can publish and
/// consume payloads without knowing about slots or atomics. It
/// implements the lease methods only: every transmit slot, for a
/// zero-copy lease and a copying `publish` alike, comes from the
/// direction's [`BufferManager`].
pub struct ShmPayloadChannel {
    endpoint: ShmEndpoint,
    /// Transmit-direction Buffer Manager: the lease pool behind
    /// [`PayloadChannel::alloc`] (§4.4.3).
    mgr: BufferManager,
}

impl ShmPayloadChannel {
    /// Wraps `side`'s endpoint of `channel`.
    pub fn new(channel: &ShmChannel, side: Side) -> Arc<Self> {
        let endpoint = channel.endpoint(side);
        let mgr = endpoint.buffer_manager().clone();
        Arc::new(ShmPayloadChannel { endpoint, mgr })
    }

    /// A connected `(client, target)` pair over a fresh region of
    /// `depth` slots of `slot_size` bytes per direction, freed when both
    /// ends drop.
    pub fn pair(depth: usize, slot_size: usize) -> (Arc<Self>, Arc<Self>) {
        let channel = ShmChannel::allocate(depth, slot_size);
        (
            Self::new(&channel, Side::Client),
            Self::new(&channel, Side::Target),
        )
    }

    /// The transmit-direction Buffer Manager's telemetry bundle.
    pub fn lease_stats(&self) -> &Arc<BufStats> {
        self.mgr.stats()
    }

    /// Non-blocking lease attempt for allocator fallback chains:
    /// `Ok(None)` means every slot is in flight after a full round-robin
    /// probe — the caller should fall back to its pool rather than spin.
    pub fn try_lease(&self, len: usize) -> Result<Option<WriteLease>, ShmError> {
        match self.mgr.lease(len) {
            Ok(lease) => Ok(Some(WriteLease(lease))),
            Err(ShmError::NoFreeSlot) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl PayloadChannel for ShmPayloadChannel {
    fn alloc(&self, len: usize) -> Result<WriteLease, NvmeofError> {
        // A bounded wait: the round-robin pool drains as the consumer
        // frees slots, so short spins cover transient exhaustion while
        // hard errors surface immediately. A quarantined pool fails fast
        // instead of spinning out the budget — the peer that would drain
        // it is gone.
        let mut spins = 0u32;
        loop {
            match self.mgr.lease(len) {
                Ok(lease) => return Ok(WriteLease(lease)),
                Err(ShmError::NoFreeSlot) if spins < 1_000_000 && !self.mgr.is_quarantined() => {
                    spins += 1;
                    std::hint::spin_loop();
                }
                Err(ShmError::NoFreeSlot) if self.mgr.is_quarantined() => {
                    return Err(NvmeofError::Payload("channel quarantined".into()))
                }
                Err(e) => return Err(map_err(e)),
            }
        }
    }

    fn publish_lease(&self, lease: WriteLease) -> Result<(u32, u32), NvmeofError> {
        let (slot, len) = lease.0.publish();
        Ok((slot as u32, len as u32))
    }

    fn consume_with(
        &self,
        slot: u32,
        len: u32,
        f: &mut dyn FnMut(&[u8]),
    ) -> Result<(), NvmeofError> {
        // The publication notification races ahead of our read in rare
        // interleavings; spin until the Ready state is visible.
        let mut spins = 0u32;
        let guard = loop {
            match self.endpoint.recv(slot as usize, len as usize) {
                Ok(g) => break g,
                Err(ShmError::WrongState { .. }) if spins < 1_000_000 => {
                    spins += 1;
                    std::hint::spin_loop();
                }
                Err(e) => return Err(map_err(e)),
            }
        };
        f(guard.as_slice());
        Ok(())
    }

    fn max_payload(&self) -> usize {
        self.mgr.slot_size()
    }

    fn quarantine(&self) {
        self.mgr.quarantine();
    }

    fn reclaim(&self) -> usize {
        // Sweeps the transmit-direction ring: slots this side published
        // that a dead (or degraded) peer will never drain. The receive
        // direction is the peer's transmit ring — its own manager sweeps
        // it when that side degrades.
        self.mgr.reclaim()
    }

    fn reclaim_slot(&self, slot: u32) -> bool {
        self.mgr.reclaim_slot(slot as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_on_one_side_consume_on_other() {
        let (client, target) = ShmPayloadChannel::pair(4, 256);
        let (slot, len) = client.publish(b"write payload").unwrap();
        let mut out = vec![0u8; len as usize];
        target.consume(slot, len, &mut out).unwrap();
        assert_eq!(out, b"write payload");
        // Slot is freed after consumption.
        assert!(target.consume(slot, len, &mut out).is_err());
    }

    #[test]
    fn directions_are_independent() {
        let (client, target) = ShmPayloadChannel::pair(2, 64);
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
        let (client, _target) = ShmPayloadChannel::pair(2, 64);
        client.publish(b"1").unwrap();
        client.publish(b"2").unwrap();
        assert!(client.publish(b"3").is_err());
    }

    #[test]
    fn publish_probes_past_straggler_slot() {
        // Fill all three slots, drain only the middle one: the next
        // publish must probe forward from next%depth (= occupied slot 0)
        // and land in the freed slot 1 instead of erroring.
        let (client, target) = ShmPayloadChannel::pair(3, 64);
        client.publish(b"a").unwrap();
        let (s1, l1) = client.publish(b"b").unwrap();
        client.publish(b"c").unwrap();
        let mut buf = vec![0u8; 1];
        target.consume(s1, l1, &mut buf).unwrap();
        let (slot, _) = client.publish(b"d").unwrap();
        assert_eq!(slot, s1);
    }

    #[test]
    fn lease_roundtrip_in_place() {
        let (client, target) = ShmPayloadChannel::pair(2, 64);
        let mut lease = client.alloc(5).unwrap();
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
    fn max_payload_is_slot_size() {
        let (client, _target) = ShmPayloadChannel::pair(2, 8192);
        assert_eq!(client.max_payload(), 8192);
    }

    #[test]
    fn wrong_destination_length_rejected() {
        let (client, target) = ShmPayloadChannel::pair(2, 64);
        let (slot, len) = client.publish(b"abc").unwrap();
        let mut small = vec![0u8; 1];
        assert!(target.consume(slot, len, &mut small).is_err());
    }

    #[test]
    fn consuming_own_direction_fails() {
        let (client, _target) = ShmPayloadChannel::pair(2, 64);
        let (slot, len) = client.publish(b"abc").unwrap();
        let mut buf = vec![0u8; 3];
        // Client consumes from the *target's* direction, which is empty.
        assert!(client.consume(slot, len, &mut buf).is_err());
    }

    #[test]
    fn reclaim_frees_published_slots() {
        let (client, _target) = ShmPayloadChannel::pair(3, 64);
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
    fn quarantined_channel_fails_fast_and_reclaims() {
        let (client, _target) = ShmPayloadChannel::pair(4, 256);
        let client: Arc<dyn PayloadChannel> = client;
        // Publish two payloads the (dead) target never consumes.
        let (slot_a, _) = client.publish(b"orphan a").unwrap();
        let (slot_b, _) = client.publish(b"orphan b").unwrap();
        client.quarantine();
        // Denied immediately, not after the spin budget.
        assert!(client.publish(b"after quarantine").is_err());
        assert!(client.alloc(8).is_err());
        // The sweep claws both orphaned slots back.
        assert_eq!(client.reclaim(), 2);
        assert!(!client.reclaim_slot(slot_a));
        assert!(!client.reclaim_slot(slot_b));
    }

    /// A copying `publish` leases its slot from the Buffer Manager
    /// exactly as `alloc` does, so the manager's probing, ledger and
    /// quarantine cover both send paths.
    #[test]
    fn copying_publish_and_leases_share_one_allocator() {
        let (client, target) = ShmPayloadChannel::pair(4, 256);
        // Leased and never published: both paths must probe past it.
        let straggler = client.alloc(8).unwrap();
        for i in 0..6u8 {
            let body = [i; 32];
            let (slot, len) = if i % 2 == 0 {
                client.publish(&body).unwrap()
            } else {
                let mut lease = client.alloc(body.len()).unwrap();
                lease.copy_from_slice(&body);
                client.publish_lease(lease).unwrap()
            };
            let mut out = [0u8; 32];
            target.consume(slot, len, &mut out).unwrap();
            assert_eq!(out, body);
        }
        // Two the (dead) target never consumes.
        client.publish(b"orphan a").unwrap();
        client.publish(b"orphan b").unwrap();

        let stats = client.lease_stats();
        assert_eq!(stats.leases.get(), 1 + 6 + 2, "every publish is a lease");
        assert_eq!(stats.leases_live.get(), 1, "only the straggler is live");
        client.quarantine();
        assert!(client.publish(b"after quarantine").is_err());
        assert!(client.alloc(8).is_err());
        // The sweep frees the two orphans, never the straggler's slot.
        assert_eq!(client.reclaim(), 2);
        drop(straggler);
        assert_eq!(stats.leases_live.get(), 0);
        assert_eq!(stats.lease_aborted.get(), 1);
    }

    #[test]
    fn concurrent_producer_consumer_through_trait() {
        let (client, target) = ShmPayloadChannel::pair(8, 4096);
        let (client, target): (Arc<dyn PayloadChannel>, Arc<dyn PayloadChannel>) = (client, target);
        let (tx, rx) = std::sync::mpsc::channel::<(u32, u32, u8)>();

        let producer = std::thread::spawn(move || {
            for i in 0..2_000u32 {
                let stamp = (i % 250) as u8 + 1;
                let body = vec![stamp; 1024];
                let (slot, len) = client.publish(&body).unwrap();
                tx.send((slot, len, stamp)).unwrap();
            }
        });
        let consumer = std::thread::spawn(move || {
            let mut buf = vec![0u8; 1024];
            while let Ok((slot, len, stamp)) = rx.recv() {
                target.consume(slot, len, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == stamp));
            }
        });
        producer.join().unwrap();
        consumer.join().unwrap();
    }
}
