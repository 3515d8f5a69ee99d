//! Chaos wrapper over a [`PayloadChannel`].
//!
//! Injects the shared-memory failure modes the degradation machinery
//! must survive: publish/alloc failures (a wedged or exhausted slot
//! ring) and consume failures (a slot reference that went bad). A
//! wrapped channel can also be killed outright mid-workload
//! ([`ChaosPayloadChannel::fail_from_now`]) to force the shm→TCP
//! degradation path deterministically.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use oaf_nvmeof::error::NvmeofError;
use oaf_nvmeof::payload::{PayloadChannel, WriteLease};

use crate::rng::ChaosRng;
use crate::{ChaosStats, FaultKind, FaultPlan};

/// A [`PayloadChannel`] that fails slot operations from a seeded
/// schedule.
pub struct ChaosPayloadChannel {
    inner: Arc<dyn PayloadChannel>,
    plan: FaultPlan,
    armed: AtomicBool,
    broken: AtomicBool,
    stats: Arc<ChaosStats>,
    rng: Mutex<ChaosRng>,
}

impl ChaosPayloadChannel {
    /// Wraps `inner`. `seed` should come from [`FaultPlan::child_seed`]
    /// with an index distinct from the transport endpoints'.
    pub fn wrap(
        inner: Arc<dyn PayloadChannel>,
        seed: u64,
        plan: FaultPlan,
        stats: Arc<ChaosStats>,
    ) -> Arc<Self> {
        Arc::new(ChaosPayloadChannel {
            inner,
            plan,
            armed: AtomicBool::new(false),
            broken: AtomicBool::new(false),
            stats,
            rng: Mutex::new(ChaosRng::new(seed)),
        })
    }

    /// Starts injecting faults (call after the handshake).
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Stops injecting faults (a killed channel stays killed).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// Kills the channel: every subsequent slot operation fails, as if
    /// the shared region went away. Forces shm→TCP degradation.
    pub fn fail_from_now(&self) {
        self.broken.store(true, Ordering::Release);
    }

    /// The shared fault tally.
    pub fn stats(&self) -> &Arc<ChaosStats> {
        &self.stats
    }

    fn roll(&self, per_10k: u32, kind: FaultKind) -> Result<(), NvmeofError> {
        if self.broken.load(Ordering::Acquire) {
            return Err(NvmeofError::Payload("chaos: channel killed".into()));
        }
        if self.armed.load(Ordering::Acquire) && self.rng.lock().expect("chaos rng").chance(per_10k)
        {
            self.stats.record(kind);
            return Err(NvmeofError::Payload(format!("chaos: injected {kind:?}")));
        }
        Ok(())
    }
}

impl PayloadChannel for ChaosPayloadChannel {
    fn alloc(&self, len: usize) -> Result<WriteLease, NvmeofError> {
        self.roll(
            self.plan.shm_publish_fail_per_10k,
            FaultKind::ShmPublishFail,
        )?;
        self.inner.alloc(len)
    }

    fn publish_lease(&self, lease: WriteLease) -> Result<(u32, u32), NvmeofError> {
        // A failed publish drops the lease, whose RAII guard returns the
        // slot — exactly what a real wedged publish must guarantee.
        self.roll(
            self.plan.shm_publish_fail_per_10k,
            FaultKind::ShmPublishFail,
        )?;
        self.inner.publish_lease(lease)
    }

    fn consume_with(
        &self,
        slot: u32,
        len: u32,
        f: &mut dyn FnMut(&[u8]),
    ) -> Result<(), NvmeofError> {
        match self.roll(
            self.plan.shm_consume_fail_per_10k,
            FaultKind::ShmConsumeFail,
        ) {
            Ok(()) => self.inner.consume_with(slot, len, f),
            Err(e) => {
                // The slot the peer published must still be freed or the
                // ring leaks; drain it without delivering the bytes.
                let _ = self.inner.consume_with(slot, len, &mut |_| {});
                Err(e)
            }
        }
    }

    fn max_payload(&self) -> usize {
        self.inner.max_payload()
    }

    fn quarantine(&self) {
        self.inner.quarantine()
    }

    fn reclaim(&self) -> usize {
        self.inner.reclaim()
    }

    fn reclaim_slot(&self, slot: u32) -> bool {
        self.inner.reclaim_slot(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaf_nvmeof::payload::ShmPayloadChannel;

    #[test]
    fn quiet_plan_passes_payloads_through() {
        let (c, t) = ShmPayloadChannel::pair(8, 64);
        let stats = Arc::new(ChaosStats::default());
        let chaos = ChaosPayloadChannel::wrap(c, 5, FaultPlan::quiet(5), stats.clone());
        chaos.arm();
        let (slot, len) = chaos.publish(b"payload").unwrap();
        let mut buf = vec![0u8; len as usize];
        t.consume(slot, len, &mut buf).unwrap();
        assert_eq!(buf, b"payload");
        assert_eq!(stats.total(), 0);
    }

    #[test]
    fn injected_publish_failures_are_reproducible() {
        let run = |seed: u64| {
            let (c, _t) = ShmPayloadChannel::pair(64, 64);
            let stats = Arc::new(ChaosStats::default());
            let plan = FaultPlan {
                shm_publish_fail_per_10k: 2_000,
                ..FaultPlan::quiet(seed)
            };
            let chaos = ChaosPayloadChannel::wrap(c, seed, plan, stats.clone());
            chaos.arm();
            let outcomes: Vec<bool> = (0..32).map(|_| chaos.publish(b"x").is_ok()).collect();
            (outcomes, stats.count(FaultKind::ShmPublishFail))
        };
        let (o1, n1) = run(11);
        let (o2, n2) = run(11);
        assert_eq!(o1, o2);
        assert_eq!(n1, n2);
        assert!(n1 > 0, "20% failure rate never fired over 32 publishes");
    }

    #[test]
    fn killed_channel_fails_everything() {
        let (c, _t) = ShmPayloadChannel::pair(8, 64);
        let stats = Arc::new(ChaosStats::default());
        let chaos = ChaosPayloadChannel::wrap(c, 6, FaultPlan::quiet(6), stats);
        chaos.publish(b"before").unwrap();
        chaos.fail_from_now();
        assert!(chaos.publish(b"after").is_err());
        assert!(chaos.alloc(8).is_err());
    }

    #[test]
    fn failed_consume_still_frees_the_slot() {
        let (c, t) = ShmPayloadChannel::pair(2, 64);
        let stats = Arc::new(ChaosStats::default());
        let plan = FaultPlan {
            shm_consume_fail_per_10k: 10_000,
            ..FaultPlan::quiet(7)
        };
        let chaos_t = ChaosPayloadChannel::wrap(t, 7, plan, stats);
        chaos_t.arm();
        // Fill the 2-deep ring twice over: if failed consumes leaked
        // slots, the third publish would be denied.
        for _ in 0..4 {
            let (slot, len) = c.publish(b"data").unwrap();
            let mut buf = vec![0u8; len as usize];
            assert!(chaos_t.consume(slot, len, &mut buf).is_err());
        }
    }
}
