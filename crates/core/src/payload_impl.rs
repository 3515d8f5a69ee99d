//! The shared-memory implementation of the NVMe-oF payload channel.
//!
//! [`ShmPayloadChannel`] is one side's view of the lock-free double
//! buffer, bridged to [`oaf_nvmeof::PayloadChannel`] so the NVMe-oF stack
//! can publish/consume payloads without knowing about slots or atomics.
//! It implements the lease methods only: every transmit slot, for a
//! zero-copy lease and a copying `publish` alike, comes from the
//! direction's [`BufferManager`].

use std::sync::Arc;

use oaf_nvmeof::error::NvmeofError;
use oaf_nvmeof::payload::{PayloadChannel, WriteLease};
use oaf_shmem::channel::{ShmEndpoint, Side};
use oaf_shmem::{BufStats, BufferManager, ShmChannel, ShmError};

fn map_err(e: ShmError) -> NvmeofError {
    NvmeofError::Payload(e.to_string())
}

/// Lock-free double-buffer payload channel (one side's view).
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

    /// The transmit-direction Buffer Manager's telemetry bundle.
    pub fn lease_stats(&self) -> &Arc<BufStats> {
        self.mgr.stats()
    }

    /// Non-blocking lease attempt for allocator fallback chains:
    /// `Ok(None)` means every slot is in flight after a full round-robin
    /// probe — the caller should fall back to its pool rather than spin.
    pub fn try_lease(&self, len: usize) -> Result<Option<WriteLease>, ShmError> {
        match self.mgr.lease(len) {
            Ok(lease) => Ok(Some(WriteLease::from_slot(lease))),
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
                Ok(lease) => return Ok(WriteLease::from_slot(lease)),
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
        match lease.into_slot() {
            Ok(slot_lease) => {
                let (slot, len) = slot_lease.publish();
                Ok((slot as u32, len as u32))
            }
            // A heap lease can only come from a foreign channel; copy it
            // into a slot of this one.
            Err(heap) => self.publish(&heap),
        }
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
    fn lock_free_channel_bridges_both_directions() {
        let ch = ShmChannel::allocate(4, 4096);
        let client = ShmPayloadChannel::new(&ch, Side::Client);
        let target = ShmPayloadChannel::new(&ch, Side::Target);

        let (slot, len) = client.publish(b"h2c payload").unwrap();
        let mut buf = vec![0u8; len as usize];
        target.consume(slot, len, &mut buf).unwrap();
        assert_eq!(buf, b"h2c payload");

        let (slot, len) = target.publish(b"c2h payload").unwrap();
        let mut buf = vec![0u8; len as usize];
        client.consume(slot, len, &mut buf).unwrap();
        assert_eq!(buf, b"c2h payload");
    }

    #[test]
    fn max_payload_is_slot_size() {
        let ch = ShmChannel::allocate(2, 8192);
        let client = ShmPayloadChannel::new(&ch, Side::Client);
        assert_eq!(client.max_payload(), 8192);
    }

    #[test]
    fn wrong_destination_length_rejected() {
        let ch = ShmChannel::allocate(2, 64);
        let client = ShmPayloadChannel::new(&ch, Side::Client);
        let target = ShmPayloadChannel::new(&ch, Side::Target);
        let (slot, len) = client.publish(b"abc").unwrap();
        let mut small = vec![0u8; 1];
        assert!(target.consume(slot, len, &mut small).is_err());
    }

    #[test]
    fn quarantined_channel_fails_fast_and_reclaims() {
        let ch = ShmChannel::allocate(4, 256);
        let client: Arc<dyn PayloadChannel> = ShmPayloadChannel::new(&ch, Side::Client);
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
        let ch = ShmChannel::allocate(4, 256);
        let client = ShmPayloadChannel::new(&ch, Side::Client);
        let target = ShmPayloadChannel::new(&ch, Side::Target);
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
        let ch = ShmChannel::allocate(8, 4096);
        let client: Arc<dyn PayloadChannel> = ShmPayloadChannel::new(&ch, Side::Client);
        let target: Arc<dyn PayloadChannel> = ShmPayloadChannel::new(&ch, Side::Target);
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
