//! NVMe-oAF: the Adaptive Fabric (the paper's primary contribution).
//!
//! NVMe-over-Adaptive-Fabric accelerates NVMe-oF by *adaptively and
//! transparently* combining two channels: an optimized shared-memory data
//! path for co-located client/target pairs, and an optimized TCP path for
//! everything else. The control plane always runs over the existing
//! NVMe/TCP connection; only bulk payloads switch fabrics.
//!
//! The three architectural components of Fig. 4:
//!
//! * [`conn`] — the **Connection Manager**: locality check, a fresh
//!   isolated shared-memory region per co-located connection, the TCP
//!   handshake and adaptive-fabric capability negotiation via
//!   ICReq/ICResp (§4.1); every entry point of [`runtime`] brings its
//!   connections up through it the same way;
//! * [`buf`] — the **Buffer Manager**: DPDK-style pooled buffers for the
//!   TCP path, shared-memory slots and zero-copy leases for the local
//!   path (§4.1, §4.4.3);
//! * [`locality`] — **Locality Awareness**: the helper process's host
//!   registry, which answers whether two processes are co-located (§4.2).
//!
//! Channel optimizations:
//!
//! * shared-memory flow control (§4.4.2): once [`conn`] negotiates the
//!   shared-memory channel, every write rides in-capsule as a slot
//!   reference whatever its size, and every read lands in a leased slot
//!   (the initiator and target of `oaf-nvmeof`). The conservative
//!   CMD → R2T → H2C shared-memory flow survives only as the simulated
//!   Fig. 8 baseline ([`sim::fabric::ShmVariant`]);
//! * TCP-channel optimizations (§4.5): the real socket path streams
//!   writes in the initiator's 512 KiB chunks; the discrete-event model
//!   prices the chunk ladder with [`sim::fabric::select_chunk`] (Fig. 9)
//!   and sweeps a fixed busy-poll budget (Fig. 10);
//! * [`payload_impl`] — re-exports the lock-free double-buffer payload
//!   channel, [`oaf_nvmeof::payload::ShmPayloadChannel`], which
//!   implements [`oaf_nvmeof::PayloadChannel`] over real shared memory.
//!
//! Runtime and evaluation:
//!
//! * [`runtime`] — the real (threaded) NVMe-oAF runtime: a target and
//!   client pair that negotiates the fabric and moves actual bytes;
//! * [`sim`] — the discrete-event model of every fabric the paper
//!   evaluates (NVMe/TCP at 10/25/100 Gbps, NVMe/RDMA, NVMe/RoCE, the
//!   four NVMe-oSHM ablation variants, and NVMe-oAF itself), used by the
//!   figure-reproduction harness.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod buf;
pub mod conn;
pub mod locality;
pub mod payload_impl;
pub mod runtime;
pub mod sim;

pub use locality::HostRegistry;
