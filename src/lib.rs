//! NVMe-oAF — NVMe over Adaptive Fabric.
//!
//! Umbrella crate re-exporting the workspace: a Rust reproduction of
//! *NVMe-oAF: Towards Adaptive NVMe-oF for IO-Intensive Workloads on HPC
//! Cloud* (Kashyap & Lu, HPDC '22).
//!
//! * [`simnet`] — simulation substrate (clock, calendar servers, wire)
//!   for the fabric models in [`oaf::sim`]
//! * [`ssd`] — NVMe-SSD device model
//! * [`store`] — durable log-structured file-backed block device
//! * [`shmem`] — real lock-free shared-memory channel substrate
//! * [`nvmeof`] — NVMe + NVMe-oF protocol, target and initiator
//! * [`oaf`] — the adaptive fabric itself (the paper's contribution)
//! * [`h5`] — HDF5-like container, h5bench kernels, NFS baseline
//! * [`chaos`] — deterministic fault injection for the fabric
//! * [`telemetry`] — zero-allocation runtime observability
//!
//! See `examples/quickstart.rs` for a five-minute tour of the
//! co-located path, and `examples/tcp_remote.rs` for the real-socket
//! NVMe/TCP path.

pub use oaf_chaos as chaos;
pub use oaf_core as oaf;
pub use oaf_h5 as h5;
pub use oaf_nvmeof as nvmeof;
pub use oaf_shmem as shmem;
pub use oaf_simnet as simnet;
pub use oaf_ssd as ssd;
pub use oaf_store as store;
pub use oaf_telemetry as telemetry;
