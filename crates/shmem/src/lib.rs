//! Shared-memory channel substrate for NVMe-oAF.
//!
//! In the paper, co-located client and target VMs/containers communicate
//! through an IVSHMEM/ICSHMEM region hot-plugged by a helper process
//! (§4.2). This crate implements that region and every algorithm the paper
//! layers on it, for real — threads, atomics and `memcpy`, not a model.
//! Here the Connection Manager allocates one region per co-located
//! connection ([`ShmChannel::allocate`]), and the region lives as long
//! as the channel ends that share it:
//!
//! * [`region::ShmRegion`] — a 64-byte-aligned shared segment with raw
//!   read/write primitives (the IVSHMEM BAR analog),
//! * [`layout::DoubleBufferLayout`] — the lock-free *double buffer* split:
//!   one half per direction, each divided into `queue_depth` slots of the
//!   I/O size (§4.4.1),
//! * [`slot::SlotRing`] — one direction's slots, each with an atomic
//!   state machine providing release/acquire publication,
//! * [`byte_ring::ByteRing`] — a lock-free SPSC frame ring living inside
//!   the region, carrying whole control PDUs for the fully in-region
//!   control path (the paper's §5.5 future-work direction); on the
//!   default TCP control path slot references ride the control PDUs,
//!   so no separate notification ring exists,
//! * [`bufmgr::BufferManager`] — the Buffer Manager proper and the only
//!   code that claims a transmit slot: a round-robin lease pool over one
//!   direction's slots, with RAII [`bufmgr::SlotLease`]s whose bytes *are*
//!   the slot (§4.4.1, §4.4.3),
//! * [`locked::LockedShm`] — the mutex-guarded "SHM-baseline" variant kept
//!   for the Fig. 8 ablation.
//!
//! # Safety architecture
//!
//! All `unsafe` lives in [`region`]. Exclusive access to slot byte ranges
//! is guaranteed by the [`slot::SlotRing`] state machine (`Free →
//! Writing → Ready → Reading → Free`, release/acquire ordered), never by
//! locks; the module-level tests include multi-threaded stress tests that
//! check for torn reads.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bufmgr;
pub mod byte_ring;
pub mod channel;
pub mod layout;
pub mod locked;
pub mod region;
pub mod slot;
pub mod stats;

pub use bufmgr::{BufStats, BufferManager, SlotLease};
pub use channel::ShmChannel;
pub use layout::DoubleBufferLayout;
pub use region::ShmRegion;
pub use slot::{SlotRing, SlotState};
pub use stats::RingStats;

/// Errors surfaced by the shared-memory substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShmError {
    /// All slots in the ring are occupied (producer outran the consumer
    /// beyond the queue depth).
    NoFreeSlot,
    /// A slot index outside the ring was referenced.
    BadSlot(usize),
    /// The slot was not in the state the operation requires.
    WrongState {
        /// Slot index.
        slot: usize,
        /// State found.
        found: slot::SlotState,
        /// State required.
        expected: slot::SlotState,
    },
    /// Payload larger than the slot size.
    PayloadTooLarge {
        /// Payload length.
        len: usize,
        /// Slot capacity.
        slot_size: usize,
    },
    /// The byte ring has no room for the frame.
    RingFull,
    /// The region is too small for the requested layout.
    RegionTooSmall {
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        have: usize,
    },
}

impl std::fmt::Display for ShmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShmError::NoFreeSlot => write!(f, "no free slot in shared-memory ring"),
            ShmError::BadSlot(i) => write!(f, "slot index {i} out of range"),
            ShmError::WrongState {
                slot,
                found,
                expected,
            } => {
                write!(f, "slot {slot} in state {found:?}, expected {expected:?}")
            }
            ShmError::PayloadTooLarge { len, slot_size } => {
                write!(f, "payload of {len} bytes exceeds slot size {slot_size}")
            }
            ShmError::RingFull => write!(f, "byte ring full"),
            ShmError::RegionTooSmall { needed, have } => {
                write!(f, "region too small: need {needed} bytes, have {have}")
            }
        }
    }
}

impl std::error::Error for ShmError {}
