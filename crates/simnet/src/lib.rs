//! Simulation substrate for the NVMe-oAF discrete-event models.
//!
//! `oaf-core`'s `sim` module walks every simulated I/O through shared
//! contended resources built from this crate:
//!
//! * a virtual clock ([`time::SimTime`], [`time::SimDuration`]),
//! * order-insensitive calendar servers ([`calendar::CalendarServer`],
//!   [`calendar::CalendarMulti`]) that place each job in the earliest
//!   gap of a resource's busy schedule, so an I/O's whole phase chain
//!   can be simulated eagerly without serializing the pipeline,
//! * a full-duplex [`link::Wire`] shared by every flow on one NIC,
//! * the RDMA memory-registration cache ([`rdma::MrCache`]) behind the
//!   paper's RDMA tail-latency effect,
//! * a seeded random source ([`rng::SimRng`]), size and rate units
//!   ([`units`]), and streaming statistics with a log-bucketed latency
//!   histogram ([`stats`]).
//!
//! The fabric phase models and their calibration constants live in
//! `oaf-core` (`sim::fabric`, `sim::params`), which the benchmark
//! harness prints next to every reproduced figure.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod calendar;
pub mod link;
pub mod rdma;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use time::SimTime;
