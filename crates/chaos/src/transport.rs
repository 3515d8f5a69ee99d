//! Chaos wrapper over a control [`Transport`].
//!
//! Faults are injected on the receive side of the wrapped endpoint:
//! dropping, delaying, duplicating, reordering or corrupting a frame on
//! receipt is indistinguishable (to the protocol above) from the same
//! misfortune anywhere along the path, and keeping injection on one
//! side keeps the decision stream deterministic per endpoint. The
//! wrapper's `recv_batch` runs every frame through the chaos filter, one
//! filter poll per frame it hands over, and takes frames off the wrapped
//! transport through that transport's own `recv_batch`, so a wrapped
//! socket or ring receives exactly as it does bare. On the send side it
//! forwards every send (vectored and queued included), so the wrapped
//! transport writes and corks as it would bare.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use oaf_nvmeof::error::NvmeofError;
use oaf_nvmeof::transport::{Frame, Transport};

use crate::rng::ChaosRng;
use crate::{ChaosStats, FaultKind, FaultPlan, FaultScript};

/// Shared switchboard for one wrapped endpoint.
struct EndpointCtl {
    /// Faults stay dormant until armed (the handshake runs clean).
    armed: AtomicBool,
    /// Once set the endpoint is a black hole: sends vanish, receives
    /// return nothing, forever. Only keep-alive can tell.
    dead: AtomicBool,
}

/// Mutable receive-side state, serialized by a mutex (transports are
/// polled from one thread in practice; the mutex makes the wrapper
/// correct regardless).
struct RxState {
    rng: ChaosRng,
    /// Receive polls observed (the chaos clock: delays are measured in
    /// polls, not wall time, so schedules replay across machine speeds).
    polls: u64,
    /// Polls observed while armed (peer-death trigger).
    armed_polls: u64,
    /// Frames held back: `(due_poll, frame)`.
    delayed: Vec<(u64, Bytes)>,
    /// A duplicated frame awaiting its second delivery.
    dup_pending: Option<Bytes>,
    /// A script-reordered frame waiting for the next fresh frame to
    /// overtake it.
    overtake: Option<Bytes>,
    /// Fresh frames observed while armed (the scripted-fault index).
    fresh: u64,
    /// Frames taken off the wrapped transport and not yet filtered, in
    /// arrival order.
    arrived: VecDeque<Bytes>,
}

/// A [`Transport`] that injects faults from a seeded schedule.
pub struct ChaosTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    /// When set, faults come from this deterministic schedule instead of
    /// the plan's seeded probabilities.
    script: Option<FaultScript>,
    ctl: Arc<EndpointCtl>,
    stats: Arc<ChaosStats>,
    state: Mutex<RxState>,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps one endpoint. `seed` should come from
    /// [`FaultPlan::child_seed`] so both endpoints of a pair draw
    /// independent streams from the one printed seed.
    pub fn wrap(inner: T, seed: u64, plan: FaultPlan, stats: Arc<ChaosStats>) -> Self {
        ChaosTransport {
            inner,
            plan,
            script: None,
            ctl: Arc::new(EndpointCtl {
                armed: AtomicBool::new(false),
                dead: AtomicBool::new(false),
            }),
            stats,
            state: Mutex::new(RxState {
                rng: ChaosRng::new(seed),
                polls: 0,
                armed_polls: 0,
                delayed: Vec::new(),
                dup_pending: None,
                overtake: None,
                fresh: 0,
                arrived: VecDeque::new(),
            }),
        }
    }

    /// Wraps one endpoint with a deterministic fault schedule: the
    /// seeded probability rolls are bypassed entirely and exactly the
    /// scripted faults fire, at exactly the scripted fresh-frame
    /// indices. Corruption flips a fixed bit so even the damage is
    /// reproducible.
    pub fn wrap_scripted(inner: T, script: FaultScript, stats: Arc<ChaosStats>) -> Self {
        let mut t = Self::wrap(inner, 0, FaultPlan::quiet(0), stats);
        t.script = Some(script);
        t
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    fn armed(&self) -> bool {
        self.ctl.armed.load(Ordering::Acquire)
    }

    fn dead(&self) -> bool {
        self.ctl.dead.load(Ordering::Acquire)
    }

    /// Corrupts one byte of `frame` at a seeded position.
    fn corrupt(rng: &mut ChaosRng, frame: &Bytes) -> Bytes {
        let mut bytes = frame.to_vec();
        if !bytes.is_empty() {
            let i = rng.range(0, bytes.len() as u64) as usize;
            bytes[i] ^= 1 << rng.range(0, 8);
        }
        Bytes::from(bytes)
    }

    /// The next fresh frame, in arrival order. The wrapped transport is
    /// polled (one `recv_batch`) only once the last batch it handed over
    /// has been filtered.
    fn fresh(&self, st: &mut RxState) -> Result<Option<Bytes>, NvmeofError> {
        if st.arrived.is_empty() {
            self.inner
                .recv_batch(&mut |f| st.arrived.push_back(f.into_bytes()))?;
        }
        Ok(st.arrived.pop_front())
    }

    /// One receive poll through the chaos filter.
    fn pull(&self) -> Result<Option<Bytes>, NvmeofError> {
        if self.dead() {
            return Ok(None);
        }
        let mut st = self.state.lock().expect("chaos state");
        st.polls += 1;
        let armed = self.armed();
        if armed {
            st.armed_polls += 1;
            if let Some(after) = self.plan.peer_death_after {
                if st.armed_polls >= after && !self.ctl.dead.swap(true, Ordering::AcqRel) {
                    self.stats.record(FaultKind::PeerDeath);
                    return Ok(None);
                }
            }
        }
        // Second copy of a duplicated frame goes out first.
        if let Some(dup) = st.dup_pending.take() {
            return Ok(Some(dup));
        }
        // Then any held-back frame that has come due.
        let now = st.polls;
        if let Some(i) = st.delayed.iter().position(|(due, _)| *due <= now) {
            return Ok(Some(st.delayed.remove(i).1));
        }
        let frame = match self.fresh(&mut st)? {
            Some(f) => f,
            // Once disarmed, a reordered frame that nothing overtook
            // still goes out.
            None if !armed => return Ok(st.overtake.take()),
            None => return Ok(None),
        };
        // A reordered frame goes out on the poll after the one frame that
        // overtakes it.
        if let Some(held) = st.overtake.take() {
            st.delayed.push((now + 1, held));
        }
        if !armed {
            return Ok(Some(frame));
        }
        if let Some(script) = &self.script {
            // Scripted mode: deterministic schedule, no PRNG.
            let idx = st.fresh;
            st.fresh += 1;
            match script.fault_at(idx) {
                Some(FaultKind::Drop) => {
                    self.stats.record(FaultKind::Drop);
                    return Ok(None);
                }
                Some(FaultKind::Delay) => {
                    let due = now + self.plan.max_delay_polls.max(1);
                    st.delayed.push((due, frame));
                    self.stats.record(FaultKind::Delay);
                    return Ok(None);
                }
                Some(FaultKind::Reorder) => {
                    // Held until exactly one later frame has passed it,
                    // however long the sender takes to produce that
                    // frame: a hold counted in polls loses the race to a
                    // receiver that polls faster than the peer sends.
                    st.overtake = Some(frame);
                    self.stats.record(FaultKind::Reorder);
                    return Ok(None);
                }
                Some(FaultKind::Duplicate) => {
                    st.dup_pending = Some(frame.clone());
                    self.stats.record(FaultKind::Duplicate);
                    return Ok(Some(frame));
                }
                Some(FaultKind::Corrupt) => {
                    // Deterministic damage: flip the low bit of the
                    // first byte (any flip fails the frame CRC).
                    let mut bytes = frame.to_vec();
                    if !bytes.is_empty() {
                        bytes[0] ^= 1;
                    }
                    self.stats.record(FaultKind::Corrupt);
                    return Ok(Some(Bytes::from(bytes)));
                }
                _ => return Ok(Some(frame)),
            }
        }
        st.fresh += 1;
        // One decision per fresh frame, in a fixed order so the stream
        // of rolls is a pure function of the seed and arrival count.
        if st.rng.chance(self.plan.drop_per_10k) {
            self.stats.record(FaultKind::Drop);
            return Ok(None);
        }
        if st.rng.chance(self.plan.delay_per_10k) {
            let max = self.plan.max_delay_polls.max(1);
            let due = now + st.rng.range(1, max + 1);
            st.delayed.push((due, frame));
            self.stats.record(FaultKind::Delay);
            return Ok(None);
        }
        if st.rng.chance(self.plan.reorder_per_10k) {
            // Held just long enough for frames behind it to pass.
            st.delayed.push((now + 2, frame));
            self.stats.record(FaultKind::Reorder);
            return Ok(None);
        }
        if st.rng.chance(self.plan.dup_per_10k) {
            st.dup_pending = Some(frame.clone());
            self.stats.record(FaultKind::Duplicate);
            return Ok(Some(frame));
        }
        if st.rng.chance(self.plan.corrupt_per_10k) {
            let corrupted = Self::corrupt(&mut st.rng, &frame);
            self.stats.record(FaultKind::Corrupt);
            return Ok(Some(corrupted));
        }
        Ok(Some(frame))
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send_frame(&self, frame: &[u8]) -> Result<(), NvmeofError> {
        if self.dead() {
            // A dead peer acknowledges nothing — but the local kernel
            // would still accept the write into its buffers.
            return Ok(());
        }
        self.inner.send_frame(frame)
    }

    fn send_split(&self, prefix: &[u8], payload: &[u8]) -> Result<(), NvmeofError> {
        if self.dead() {
            return Ok(());
        }
        self.inner.send_split(prefix, payload)
    }

    fn prefers_split(&self) -> bool {
        self.inner.prefers_split()
    }

    fn queue_frame(&self, frame: &[u8]) -> Result<(), NvmeofError> {
        if self.dead() {
            return Ok(());
        }
        self.inner.queue_frame(frame)
    }

    fn flush_queued(&self) -> Result<(), NvmeofError> {
        if self.dead() {
            return Ok(());
        }
        self.inner.flush_queued()
    }

    /// Pulls until the filter yields nothing: the batch ends at the
    /// first poll that delivers no frame.
    fn recv_batch(&self, f: &mut dyn FnMut(Frame<'_>)) -> Result<usize, NvmeofError> {
        let mut n = 0;
        loop {
            match self.pull() {
                Ok(Some(frame)) => {
                    f(Frame::Owned(frame));
                    n += 1;
                }
                Ok(None) => return Ok(n),
                Err(_) if n > 0 => return Ok(n),
                Err(e) => return Err(e),
            }
        }
    }
}

/// Remote control for a set of wrapped endpoints (typically the pair
/// from [`wrap_pair`]).
#[derive(Clone)]
pub struct ChaosControls {
    ctls: Vec<Arc<EndpointCtl>>,
    stats: Arc<ChaosStats>,
}

impl ChaosControls {
    /// Starts injecting faults (call after the handshake).
    pub fn arm(&self) {
        for c in &self.ctls {
            c.armed.store(true, Ordering::Release);
        }
    }

    /// Stops injecting faults (already-delayed frames still deliver).
    pub fn disarm(&self) {
        for c in &self.ctls {
            c.armed.store(false, Ordering::Release);
        }
    }

    /// Black-holes endpoint `index` (0 = first of the pair) for good.
    pub fn kill(&self, index: usize) {
        if let Some(c) = self.ctls.get(index) {
            if !c.dead.swap(true, Ordering::AcqRel) {
                self.stats.record(FaultKind::PeerDeath);
            }
        }
    }

    /// The shared fault tally.
    pub fn stats(&self) -> &Arc<ChaosStats> {
        &self.stats
    }
}

/// Wraps both endpoints of a connected transport pair in deterministic
/// scripted layers: endpoint 0 replays `script_a`, endpoint 1 replays
/// `script_b`, both reporting into one [`ChaosStats`]. This is the
/// replay half of the model-checking loop — a counterexample converted
/// by `oaf-mc` runs here and must reproduce its violation on every run.
pub fn wrap_pair_scripted<A: Transport, B: Transport>(
    a: A,
    b: B,
    script_a: FaultScript,
    script_b: FaultScript,
) -> (ChaosTransport<A>, ChaosTransport<B>, ChaosControls) {
    let stats = Arc::new(ChaosStats::default());
    let ta = ChaosTransport::wrap_scripted(a, script_a, stats.clone());
    let tb = ChaosTransport::wrap_scripted(b, script_b, stats.clone());
    let controls = ChaosControls {
        ctls: vec![ta.ctl.clone(), tb.ctl.clone()],
        stats,
    };
    (ta, tb, controls)
}

/// Wraps both endpoints of a connected transport pair in chaos layers
/// driven by one plan: endpoint 0 draws from child seed 0, endpoint 1
/// from child seed 1, and both report into one [`ChaosStats`].
pub fn wrap_pair<A: Transport, B: Transport>(
    a: A,
    b: B,
    plan: &FaultPlan,
) -> (ChaosTransport<A>, ChaosTransport<B>, ChaosControls) {
    let stats = Arc::new(ChaosStats::default());
    let ta = ChaosTransport::wrap(a, plan.child_seed(0), plan.clone(), stats.clone());
    let tb = ChaosTransport::wrap(b, plan.child_seed(1), plan.clone(), stats.clone());
    let controls = ChaosControls {
        ctls: vec![ta.ctl.clone(), tb.ctl.clone()],
        stats,
    };
    (ta, tb, controls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaf_nvmeof::transport::{recv_batch_until, BackoffConfig, ShmTransport};
    use std::time::{Duration, Instant};

    /// Ring bytes per direction: room for every frame a test sends
    /// before it polls.
    const RING: u64 = 64 * 1024;

    fn frame(tag: u8) -> Bytes {
        Bytes::from(vec![tag; 16])
    }

    /// One receive poll: every frame the filter hands over now.
    fn poll<T: Transport>(t: &T) -> Vec<Bytes> {
        let mut got = Vec::new();
        t.recv_batch(&mut |f| got.push(f.into_bytes())).unwrap();
        got
    }

    /// The next batch within `timeout` (empty if none came).
    fn recv_within<T: Transport>(t: &T, timeout: Duration) -> Vec<Bytes> {
        let mut got = Vec::new();
        let deadline = Instant::now() + timeout;
        recv_batch_until(t, deadline, &BackoffConfig::default(), &mut |f| {
            got.push(f.into_bytes())
        })
        .unwrap();
        got
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let (a, b) = ShmTransport::pair(RING);
        let (ca, cb, controls) = wrap_pair(a, b, &FaultPlan::quiet(1));
        controls.arm();
        for i in 0..100u8 {
            ca.send_frame(&frame(i)).unwrap();
            let got = recv_within(&cb, Duration::from_secs(1));
            assert_eq!(got, [frame(i)]);
        }
        assert_eq!(controls.stats().total(), 0);
    }

    #[test]
    fn unarmed_wrapper_injects_nothing() {
        let (a, b) = ShmTransport::pair(RING);
        let (ca, cb, controls) = wrap_pair(a, b, &FaultPlan::heavy(2));
        for i in 0..200u8 {
            ca.send_frame(&frame(i)).unwrap();
            assert_eq!(recv_within(&cb, Duration::from_secs(1)), [frame(i)]);
        }
        assert_eq!(controls.stats().total(), 0);
    }

    #[test]
    fn heavy_plan_injects_reproducibly() {
        let run = |seed: u64| {
            let (a, b) = ShmTransport::pair(RING);
            let (ca, cb, controls) = wrap_pair(a, b, &FaultPlan::heavy(seed));
            controls.arm();
            let mut delivered = Vec::new();
            for i in 0..255u8 {
                ca.send_frame(&frame(i)).unwrap();
            }
            // Poll well past the longest delay.
            for _ in 0..4000 {
                delivered.extend(poll(&cb));
            }
            (delivered, controls.stats().total())
        };
        let (d1, n1) = run(77);
        let (d2, n2) = run(77);
        assert_eq!(d1, d2, "same seed must replay the same delivery");
        assert_eq!(n1, n2);
        assert!(n1 > 0, "heavy plan injected nothing over 255 frames");
        let (d3, _) = run(78);
        assert_ne!(d1, d3, "different seeds should differ");
    }

    #[test]
    fn killed_endpoint_goes_silent() {
        let (a, b) = ShmTransport::pair(RING);
        let (ca, cb, controls) = wrap_pair(a, b, &FaultPlan::quiet(3));
        ca.send_frame(&frame(1)).unwrap();
        controls.kill(1);
        assert!(recv_within(&cb, Duration::from_millis(20)).is_empty());
        // Sends are swallowed, not errors.
        cb.send_frame(&frame(2)).unwrap();
        assert_eq!(controls.stats().count(FaultKind::PeerDeath), 1);
    }

    #[test]
    fn scripted_faults_fire_exactly_as_written() {
        use crate::{FaultScript, ScriptedFault};
        let run = || {
            let (a, b) = ShmTransport::pair(RING);
            let script = FaultScript {
                faults: vec![
                    ScriptedFault {
                        frame: 0,
                        fault: FaultKind::Drop,
                    },
                    ScriptedFault {
                        frame: 1,
                        fault: FaultKind::Reorder,
                    },
                    ScriptedFault {
                        frame: 3,
                        fault: FaultKind::Duplicate,
                    },
                ],
            };
            let (ca, cb, controls) = wrap_pair_scripted(a, b, FaultScript::empty(), script);
            controls.arm();
            for i in 0..5u8 {
                ca.send_frame(&frame(i)).unwrap();
            }
            let mut got = Vec::new();
            for _ in 0..50 {
                got.extend(poll(&cb).iter().map(|f| f[0]));
            }
            (got, controls.stats().total())
        };
        let (got, faults) = run();
        // Frame 0 dropped; frame 1 held long enough for 2 to pass it;
        // frame 3 doubled.
        assert_eq!(got, vec![2, 1, 3, 3, 4]);
        assert_eq!(faults, 3);
        // Bit-for-bit reproducible: no seed, no rolls.
        assert_eq!(run().0, got);
    }

    #[test]
    fn queued_sends_reach_the_wrapped_transports_queue() {
        use oaf_nvmeof::tcp::{TcpConfig, TcpTransport};
        let (a, b) = TcpTransport::loopback_pair(TcpConfig::default()).expect("loopback sockets");
        let (ca, cb, controls) = wrap_pair(a, b, &FaultPlan::quiet(5));
        controls.arm();
        let mut wire = vec![0u8; 16];
        wire[4..8].copy_from_slice(&16u32.to_le_bytes());
        for _ in 0..4 {
            ca.queue_frame(&wire).unwrap();
        }
        // Held in the socket transport's queue, not written one by one
        // through the trait's default.
        assert_eq!(ca.inner().tcp_metrics().tx_syscalls.get(), 0);
        ca.flush_queued().unwrap();
        assert_eq!(ca.inner().tcp_metrics().tx_syscalls.get(), 1);
        let mut got = Vec::new();
        while got.len() < 4 {
            let batch = recv_within(&cb, Duration::from_secs(1));
            assert!(!batch.is_empty(), "queued frames never arrived");
            got.extend(batch);
        }
        for got in &got {
            assert_eq!(&got[..], &wire[..]);
        }
    }

    #[test]
    fn scheduled_peer_death_fires() {
        let (a, b) = ShmTransport::pair(RING);
        let plan = FaultPlan {
            peer_death_after: Some(10),
            ..FaultPlan::quiet(4)
        };
        let (ca, cb, controls) = wrap_pair(a, b, &plan);
        controls.arm();
        for _ in 0..20 {
            let _ = poll(&cb);
        }
        ca.send_frame(&frame(9)).unwrap();
        assert!(recv_within(&cb, Duration::from_millis(20)).is_empty());
        assert_eq!(controls.stats().count(FaultKind::PeerDeath), 1);
    }
}
