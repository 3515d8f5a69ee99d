//! NVMe-SSD substrate for the NVMe-oAF reproduction.
//!
//! The paper's testbed attaches up to four QEMU-emulated NVMe-SSDs to the
//! target VM (§5.1), plus one real NVMe-SSD for the RoCE experiments. This
//! crate provides both halves of that substitution:
//!
//! * [`device::SsdDevice`] — a discrete-event performance model of an
//!   NVMe-SSD: per-command base latency with lognormal jitter, internal
//!   channel parallelism with page striping, and submission-queue-depth
//!   semantics via [`qpair::QueuePair`]. Presets in [`config`] are
//!   calibrated for the paper's two device classes (RAM-backed QEMU
//!   emulation vs. a real datacenter SSD).
//! * [`ram::SharedRamDisk`] — a functional RAM-backed block store used
//!   by the *real* (threaded) NVMe-oF runtime, so integration tests and
//!   examples move actual bytes end to end. It is the multi-queue form
//!   from the start: one storage service shared lock-free by the
//!   reactor threads of a sharded target.
//! * [`block::BlockStore`] — the one trait every backing store sits
//!   behind, durability barriers (blocking and ticketed) included.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod block;
pub mod config;
pub mod device;
pub mod qpair;
pub mod ram;

pub use block::{BarrierPoll, BarrierTicket, BlockStore};
pub use config::SsdParams;
pub use device::{IoOp, SsdDevice};
pub use qpair::QueuePair;
pub use ram::{BlockError, SharedRamDisk};
