//! NVMe and NVMe-over-Fabrics protocol implementation.
//!
//! This crate is the reproduction's SPDK analog: a userspace, polled
//! NVMe-oF target and initiator with pluggable transports. It implements
//!
//! * the NVMe command set the paper's workloads exercise
//!   ([`nvme::command`], [`nvme::controller`], [`nvme::namespace`]),
//! * the NVMe/TCP PDU vocabulary — ICReq/ICResp handshake, command and
//!   response capsules, R2T, H2C/C2H data — with binary encode/decode
//!   ([`pdu`]), extended with the adaptive-fabric flag that lets a data
//!   PDU *reference a shared-memory slot* instead of carrying bytes
//!   (§4.3 of the paper),
//! * the two write flow-control regimes of §4.4.2: in-capsule data for
//!   small I/O and the conservative CMD → R2T → H2C exchange for large
//!   I/O over TCP, while with a negotiated shared-memory channel every
//!   write rides in-capsule as a slot reference and every read lands in
//!   a leased slot,
//! * two control transports: a real nonblocking kernel-TCP socket
//!   ([`tcp::TcpTransport`]) and an in-region duplex transport
//!   ([`transport::ShmTransport`]) over lock-free byte rings — the §5.5
//!   future-work configuration where control PDUs leave kernel TCP too,
//!   and the transport every in-process test runs — with an optional
//!   rate-limited wrapper emulating NIC speeds in wall-clock time, and
//! * a polled [`target::TargetConnection`] / [`initiator::Initiator`]
//!   pair that actually moves bytes into a [`oaf_ssd::SharedRamDisk`]-backed
//!   namespace, plus a multi-connection storage service
//!   ([`shard::spawn_sharded`]) matching the paper's one-service,
//!   many-clients architecture (Fig. 1).
//!
//! The adaptive-fabric co-design hook is an *interface*
//! ([`payload::PayloadChannel`]) with one implementation,
//! [`payload::ShmPayloadChannel`], over the lock-free shared-memory
//! channel; the `oaf-core` crate decides per connection whether to wire
//! it, keeping the protocol code transport-agnostic.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod error;
pub mod initiator;
pub mod metrics;
pub mod nvme;
pub mod payload;
pub mod pdu;
pub mod recovery;
pub mod server;
pub mod shard;
pub mod spsc;
pub mod target;
pub mod tcp;
pub mod transport;

pub use error::NvmeofError;
pub use initiator::Initiator;
pub use metrics::{InitiatorMetrics, TargetMetrics, TransportMetrics};
pub use payload::PayloadChannel;
pub use target::{TargetConfig, TargetConnection};
