//! Producer-side telemetry for the shared-memory rings.
//!
//! A [`RingStats`] bundle is attached to one *handle* of a
//! [`crate::byte_ring::ByteRing`] (the producer endpoint) via
//! `set_stats`. Recording is a handful of relaxed
//! atomics per publish — cheap enough to leave on permanently — and a
//! detached handle (no stats attached) pays only one branch.
//!
//! Handles created by `Clone` intentionally do **not** inherit the
//! bundle: instrumentation is per-endpoint, and the common
//! `let peer = ring.clone()` pairing pattern must not double-count.

use oaf_telemetry::{Counter, Gauge, Scope};
use std::sync::Arc;

/// Counters and gauges describing one ring endpoint's producer side.
#[derive(Default, Debug)]
pub struct RingStats {
    /// Frames successfully published.
    pub frames: Counter,
    /// Payload bytes successfully published.
    pub bytes: Counter,
    /// Ring occupancy observed at publish time: `get()` is the
    /// last-published occupancy, `hwm()` the lifetime high-water mark.
    /// Units are bytes.
    pub occupancy: Gauge,
}

impl RingStats {
    /// Fresh, detached bundle.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Publish every metric of this bundle into `scope`.
    pub fn register(&self, scope: &Scope) {
        scope.adopt_counter("frames", &self.frames);
        scope.adopt_counter("bytes", &self.bytes);
        scope.adopt_gauge("occupancy", &self.occupancy);
    }

    /// Record a successful publish of `frames` frames totalling `bytes`
    /// payload bytes, with `occupancy` ring units in flight afterwards.
    #[inline]
    pub fn on_publish(&self, frames: u64, bytes: u64, occupancy: u64) {
        self.frames.add(frames);
        self.bytes.add(bytes);
        self.occupancy.set(occupancy.min(i64::MAX as u64) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaf_telemetry::Registry;

    #[test]
    fn register_links_live_handles() {
        let stats = RingStats::new();
        let registry = Registry::new();
        stats.register(&registry.scope("ring_tx"));
        stats.on_publish(2, 128, 96);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ring_tx", "frames"), 2);
        assert_eq!(snap.counter("ring_tx", "bytes"), 128);
        assert_eq!(snap.gauge("ring_tx", "occupancy"), Some((96, 96)));
    }
}
