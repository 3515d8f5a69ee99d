//! The assembled bidirectional shared-memory channel.
//!
//! [`ShmChannel`] pairs two [`SlotRing`]s — one per direction of the
//! double buffer — over a single region, and exposes the endpoint views
//! the NVMe-oAF runtime uses: the client sends write payloads
//! `ToTarget` and receives read payloads `ToClient`; the target does the
//! mirror image. Out-of-band `(slot, len)` notifications travel over the
//! control path (TCP in the paper); the channel itself never blocks.

use std::sync::Arc;

use crate::bufmgr::{BufferManager, SlotLease};
use crate::layout::{Dir, DoubleBufferLayout};
use crate::region::ShmRegion;
use crate::slot::{ReadGuard, SlotRing};
use crate::ShmError;

/// Which endpoint of the channel a handle represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The NVMe-oF client / initiator.
    Client,
    /// The NVMe-oF target / storage service.
    Target,
}

impl Side {
    /// Direction this side *sends* payloads in.
    pub fn tx_dir(self) -> Dir {
        match self {
            Side::Client => Dir::ToTarget,
            Side::Target => Dir::ToClient,
        }
    }

    /// Direction this side *receives* payloads from.
    pub fn rx_dir(self) -> Dir {
        self.tx_dir().flip()
    }
}

/// A bidirectional lock-free shared-memory channel.
///
/// ```
/// use oaf_shmem::channel::Side;
/// use oaf_shmem::ShmChannel;
///
/// // 8 slots of 4 KiB per direction — sized to queue depth and I/O size.
/// let ch = ShmChannel::allocate(8, 4096);
/// let client = ch.endpoint(Side::Client);
/// let target = ch.endpoint(Side::Target);
///
/// // The Buffer Manager leases the next round-robin slot; the
/// // application builds its payload in it and publishes it in place…
/// let mut lease = client.buffer_manager().lease(5).unwrap();
/// lease.copy_from_slice(b"hello");
/// let (slot, len) = lease.publish();
/// // …the (slot, len) pair travels out-of-band (over TCP in the paper);
/// // the target drains the slot and frees it on guard drop.
/// assert_eq!(target.recv(slot, len).unwrap().as_slice(), b"hello");
/// ```
#[derive(Clone)]
pub struct ShmChannel {
    region: Arc<ShmRegion>,
    layout: DoubleBufferLayout,
    to_target: SlotRing,
    to_client: SlotRing,
    to_target_mgr: BufferManager,
    to_client_mgr: BufferManager,
}

impl ShmChannel {
    /// Allocates a fresh region sized for `depth` slots of `slot_size`
    /// bytes per direction and builds the channel over it.
    pub fn allocate(depth: usize, slot_size: usize) -> Self {
        let layout = DoubleBufferLayout::new(depth, slot_size);
        let region = Arc::new(ShmRegion::new(layout.total()));
        Self::over_region(region, layout).expect("layout sized to region")
    }

    /// Builds the channel over an existing (hot-plugged) region.
    pub fn over_region(
        region: Arc<ShmRegion>,
        layout: DoubleBufferLayout,
    ) -> Result<Self, ShmError> {
        layout.check_fits(region.len())?;
        let to_target = SlotRing::new(region.clone(), layout, Dir::ToTarget)?;
        let to_client = SlotRing::new(region.clone(), layout, Dir::ToClient)?;
        Ok(ShmChannel {
            to_target_mgr: BufferManager::new(to_target.clone()),
            to_client_mgr: BufferManager::new(to_client.clone()),
            to_target,
            to_client,
            region,
            layout,
        })
    }

    /// The endpoint view for `side`.
    pub fn endpoint(&self, side: Side) -> ShmEndpoint {
        ShmEndpoint {
            channel: self.clone(),
            side,
        }
    }

    /// Slots per direction.
    pub fn depth(&self) -> usize {
        self.layout.depth
    }

    /// Slot capacity in bytes.
    pub fn slot_size(&self) -> usize {
        self.layout.slot_size
    }

    /// Total region size in bytes.
    pub fn region_len(&self) -> usize {
        self.region.len()
    }

    fn ring(&self, dir: Dir) -> &SlotRing {
        match dir {
            Dir::ToTarget => &self.to_target,
            Dir::ToClient => &self.to_client,
        }
    }

    /// The Buffer Manager pooling direction `dir`'s slots. Shared across
    /// channel clones, so every handle sees one consistent lease ledger.
    pub fn buffer_manager(&self, dir: Dir) -> &BufferManager {
        match dir {
            Dir::ToTarget => &self.to_target_mgr,
            Dir::ToClient => &self.to_client_mgr,
        }
    }
}

/// One side's view of a [`ShmChannel`].
#[derive(Clone)]
pub struct ShmEndpoint {
    channel: ShmChannel,
    side: Side,
}

impl ShmEndpoint {
    /// Which side this endpoint is.
    pub fn side(&self) -> Side {
        self.side
    }

    /// The channel this endpoint belongs to.
    pub fn channel(&self) -> &ShmChannel {
        &self.channel
    }

    /// The Buffer Manager pooling this side's *transmit* slots: the only
    /// way to claim one (RAII leases with forward probing).
    pub fn buffer_manager(&self) -> &BufferManager {
        self.channel.buffer_manager(self.side.tx_dir())
    }

    /// Leases a managed transmit buffer through the Buffer Manager.
    pub fn lease_managed(&self, len: usize) -> Result<SlotLease, ShmError> {
        self.buffer_manager().lease(len)
    }

    /// Receives the payload published at `slot` (learned out-of-band).
    /// The guard frees the slot on drop.
    pub fn recv(&self, slot: usize, len: usize) -> Result<ReadGuard, ShmError> {
        self.channel.ring(self.side.rx_dir()).begin_read(slot, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-copy send: lease a transmit slot, copy `payload` in, publish.
    fn send(ep: &ShmEndpoint, payload: &[u8]) -> Result<(usize, usize), ShmError> {
        let mut lease = ep.buffer_manager().lease(payload.len())?;
        lease.copy_from_slice(payload);
        Ok(lease.publish())
    }

    #[test]
    fn client_to_target_and_back() {
        let ch = ShmChannel::allocate(4, 1024);
        let client = ch.endpoint(Side::Client);
        let target = ch.endpoint(Side::Target);

        let (slot, len) = send(&client, b"write payload").unwrap();
        assert_eq!(target.recv(slot, len).unwrap().as_slice(), b"write payload");

        let (slot, len) = send(&target, b"read payload").unwrap();
        assert_eq!(client.recv(slot, len).unwrap().as_slice(), b"read payload");
    }

    #[test]
    fn sides_map_to_directions() {
        assert_eq!(Side::Client.tx_dir(), Dir::ToTarget);
        assert_eq!(Side::Client.rx_dir(), Dir::ToClient);
        assert_eq!(Side::Target.tx_dir(), Dir::ToClient);
        assert_eq!(Side::Target.rx_dir(), Dir::ToTarget);
    }

    #[test]
    fn recv_from_own_tx_direction_fails() {
        let ch = ShmChannel::allocate(2, 64);
        let client = ch.endpoint(Side::Client);
        let (slot, len) = send(&client, b"x").unwrap();
        // Client must not consume its own transmit slot.
        assert!(client.recv(slot, len).is_err());
    }

    #[test]
    fn zero_copy_lease_through_endpoint() {
        let ch = ShmChannel::allocate(2, 256);
        let target = ch.endpoint(Side::Target);
        let client = ch.endpoint(Side::Client);
        let mut buf = target.lease_managed(6).unwrap();
        buf.copy_from_slice(b"zcopy!");
        let (slot, len) = buf.publish();
        assert_eq!(client.recv(slot, len).unwrap().as_slice(), b"zcopy!");
    }

    #[test]
    fn full_duplex_stress() {
        let ch = ShmChannel::allocate(8, 4096);
        let client = ch.endpoint(Side::Client);
        let target = ch.endpoint(Side::Target);
        let (c2t_tx, c2t_rx) = std::sync::mpsc::channel::<(usize, usize)>();
        let (t2c_tx, t2c_rx) = std::sync::mpsc::channel::<(usize, usize)>();

        let client_thread = std::thread::spawn(move || {
            let mut buf = vec![0u8; 4096];
            for i in 0..1_000u32 {
                let body = vec![(i % 255) as u8; 2048];
                loop {
                    match send(&client, &body) {
                        Ok(pair) => {
                            c2t_tx.send(pair).unwrap();
                            break;
                        }
                        Err(ShmError::NoFreeSlot) => std::hint::spin_loop(),
                        Err(e) => panic!("{e}"),
                    }
                }
                if let Ok((slot, len)) = t2c_rx.try_recv() {
                    let g = loop {
                        match client.recv(slot, len) {
                            Ok(g) => break g,
                            Err(_) => std::hint::spin_loop(),
                        }
                    };
                    g.copy_to(&mut buf[..len]);
                }
            }
            drop(c2t_tx);
            // Drain remaining target->client notifications.
            while let Ok((slot, len)) = t2c_rx.recv() {
                if let Ok(g) = client.recv(slot, len) {
                    g.copy_to(&mut buf[..len]);
                }
            }
        });

        let mut buf = vec![0u8; 4096];
        let mut received = 0u32;
        while let Ok((slot, len)) = c2t_rx.recv() {
            let g = loop {
                match target.recv(slot, len) {
                    Ok(g) => break g,
                    Err(_) => std::hint::spin_loop(),
                }
            };
            g.copy_to(&mut buf[..len]);
            let stamp = buf[0];
            assert!(buf[..len].iter().all(|&b| b == stamp), "torn read");
            received += 1;
            // Echo back occasionally to exercise the other direction.
            // Best-effort: skipping on NoFreeSlot avoids a two-sided
            // spin deadlock when the client is busy producing.
            if received.is_multiple_of(4) {
                match send(&target, &buf[..64]) {
                    Ok(pair) => {
                        let _ = t2c_tx.send(pair);
                    }
                    Err(ShmError::NoFreeSlot) => {}
                    Err(e) => panic!("{e}"),
                }
            }
        }
        drop(t2c_tx);
        assert_eq!(received, 1_000);
        client_thread.join().unwrap();
    }
}
