//! # oaf-telemetry — zero-allocation runtime observability
//!
//! The paper's adaptivity (workload-adaptive busy-polling, chunk-size
//! tuning) presupposes a runtime that can observe itself. This crate is
//! that substrate: metrics cheap enough to leave enabled on the data
//! plane permanently.
//!
//! Design rules:
//!
//! - **Record path: no heap, no locks.** [`Counter`]/[`Gauge`] are one
//!   or two relaxed atomic RMWs; [`Histo`] (65 fixed log2 buckets) is
//!   four. Handles are `Arc`-backed clones, so the same cell can live
//!   in a hot-path struct and a [`Registry`] scope simultaneously.
//! - **Registration is rare and locked; recording never is.** A
//!   [`Registry`] maps `scope -> name -> metric`; subsystems create
//!   their metric structs detached and `adopt_*` them into a scope at
//!   wiring time.
//! - **Snapshots are plain data.** [`Snapshot`] supports `delta`,
//!   quantiles ([`HistoSnapshot::p50`]/`p95`/`p99`, max), and
//!   [`export`] to Prometheus text or one-line JSON.
//!
//! ```
//! use oaf_telemetry::{Registry, export};
//!
//! let registry = Registry::new();
//! let scope = registry.scope("transport_shm_client");
//! let frames = scope.counter("frames_sent");
//! let lat = scope.histo("lat_write_ns");
//! frames.inc();            // hot path: one relaxed fetch_add
//! lat.record(1_250);       // hot path: four relaxed RMWs
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("transport_shm_client", "frames_sent"), 1);
//! let text = export::prometheus_text(&snap);
//! assert!(text.contains("oaf_transport_shm_client__frames_sent 1\n"));
//! ```

pub mod export;
mod histo;
mod metric;
mod registry;

pub use histo::{bucket_index, bucket_upper, Histo, HistoSnapshot, HISTO_BUCKETS};
pub use metric::{Counter, Gauge};
pub use registry::{
    sanitize, Metric, MetricSnapshot, MetricValue, Registry, Scope, ScopeSnapshot, Snapshot,
};
