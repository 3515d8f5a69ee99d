//! Frame transports for the real (threaded) runtime.
//!
//! The runtime has two control paths, picked per connection by
//! [`ControlTransport`]: a real kernel-TCP socket
//! ([`TcpTransport`](crate::tcp::TcpTransport), §4.5) and the fully
//! in-region [`ShmTransport`] (§5.5), whose byte rings also carry every
//! in-process test. Either reports a peer that hung up as
//! [`NvmeofError::TransportClosed`] once the frames it sent before are
//! delivered. [`RateLimited`] wraps either with a wall-clock
//! token-bucket and latency model so examples can *feel* the difference
//! between a 10 Gbps and a 100 Gbps control path without a NIC.
//!
//! # Hot-path discipline
//!
//! Every frame arrives through [`Transport::recv_batch`], which lets
//! ring-based transports hand out *borrowed* frames ([`Frame`]) and
//! amortize one Acquire/Release pair over every frame ready in the
//! poll-loop iteration, with zero allocations in the steady state. A
//! caller that must block for a frame polls it on a [`WaitLadder`]
//! through [`recv_batch_until`], the one receive wait: a bounded
//! spin→yield→sleep descent, never a blind spin.
//!
//! Sends come in two kinds. `send_frame` and `send_split` never defer:
//! the frame is on the transport when the call returns. The
//! poll loops instead *queue* their small PDUs
//! ([`Transport::queue_frame`], [`queue_pdu`]) and release them at a
//! point they choose ([`Transport::flush_queued`]), so a socket pays one
//! `write` per pass instead of one per frame.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};

use crate::error::NvmeofError;
use crate::metrics::TransportMetrics;
use crate::pdu::Pdu;
use oaf_shmem::RingStats;

/// A received frame: owned (a wrapper that held the frame back hands
/// over its copy) or borrowed straight out of the transport's receive
/// window (zero-copy).
pub enum Frame<'a> {
    /// The transport transfers ownership of the buffer.
    Owned(Bytes),
    /// The frame borrows the transport's receive window; valid only for
    /// the duration of the callback.
    Borrowed(&'a [u8]),
}

impl Frame<'_> {
    /// The frame's bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Frame::Owned(b) => b,
            Frame::Borrowed(s) => s,
        }
    }

    /// Converts into an owned buffer (free for `Owned`, one copy for
    /// `Borrowed`).
    pub fn into_bytes(self) -> Bytes {
        match self {
            Frame::Owned(b) => b,
            Frame::Borrowed(s) => Bytes::copy_from_slice(s),
        }
    }
}

/// Payload bytes a poll loop lets its queued frames describe before it
/// flushes them mid-pass (W). Both ends share it: corking everything a
/// pass holds would stop the client's fill/verify and the target's
/// device copy from overlapping (DESIGN.md, "who flushes when").
pub(crate) const CORK_BUDGET: usize = 32 * 1024;

/// Largest encoded frame [`queue_pdu`] copies into the transport's
/// queue; anything bigger is sent at once (split where that pays).
const SMALL_FRAME_MAX: usize = 16 * 1024;

/// Encodes one PDU into `scratch` and sends it now. A data PDU with an
/// inline payload goes out as `[prefix, borrowed payload]` on
/// transports that [prefer the split](Transport::prefers_split), so the
/// payload never passes through `scratch`; everything else is one frame.
pub fn send_pdu<T: Transport + ?Sized>(
    transport: &T,
    pdu: &Pdu,
    scratch: &mut BytesMut,
) -> Result<(), NvmeofError> {
    scratch.clear();
    if transport.prefers_split() {
        if let Some(payload) = pdu.encode_split_into(scratch) {
            return transport.send_split(scratch, payload);
        }
    }
    pdu.encode_into(scratch);
    transport.send_frame(scratch)
}

/// Encodes one PDU into `scratch` and queues it for the caller's next
/// [`Transport::flush_queued`] — the send step of the target's serve
/// pass and of everything the initiator originates. A frame too large to
/// be worth copying into the queue is sent at once through [`send_pdu`],
/// *after* the queue is released: the small frames ahead of it (an R2T,
/// a completion) are what the peer's next piece of work waits for, and
/// must not sit through the digest and kernel copy of a large payload.
pub fn queue_pdu<T: Transport + ?Sized>(
    transport: &T,
    pdu: &Pdu,
    scratch: &mut BytesMut,
) -> Result<(), NvmeofError> {
    if pdu.encoded_len() > SMALL_FRAME_MAX {
        transport.flush_queued()?;
        return send_pdu(transport, pdu, scratch);
    }
    scratch.clear();
    pdu.encode_into(scratch);
    transport.queue_frame(scratch)
}

/// Spin→yield→sleep tuning for a [`WaitLadder`]. The runtime runs every
/// blocking wait on the default; tests that need a ring to give up fast
/// build a transport with their own ([`ShmTransport::pair_with`],
/// `TcpConfig::backoff`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Busy-poll iterations before a waiter starts yielding the CPU.
    pub spin_limit: u32,
    /// How long a ring-based `send` waits on a full ring before
    /// reporting [`NvmeofError::RingFull`]: long enough for any live
    /// peer poll loop to drain, short enough to surface a dead peer
    /// quickly.
    pub send_full_timeout: Duration,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            spin_limit: 128,
            send_full_timeout: Duration::from_millis(100),
        }
    }
}

/// What a [`WaitLadder`] caller should do before polling again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitStep {
    /// Poll again immediately — the ladder already spun or yielded.
    Again,
    /// Sleep for up to this long, then poll again.
    Sleep(Duration),
    /// The deadline has passed without progress.
    Expired,
}

/// Spin→yield→sleep ladder for blocking waiters ([`recv_batch_until`],
/// `Initiator::wait`, a full ring or socket backlog), driven by the same
/// [`BackoffConfig`] everywhere so wait aggressiveness is one knob
/// fabric-wide.
///
/// The first `spin_limit` steps busy-poll (latency-critical window where
/// the completion is probably already in flight), the next few multiples
/// yield the core, and after that the caller is told to park in short
/// bounded slices so a stalled peer costs sleeps, not a melted core.
pub struct WaitLadder {
    spins: u32,
    yields: u32,
    spin_limit: u32,
    deadline: Instant,
}

impl WaitLadder {
    /// Yield phase length as a multiple of the spin budget.
    const YIELD_FACTOR: u32 = 4;
    /// Maximum single park interval; short enough that deadline checks
    /// stay responsive even when the peer is wedged.
    const SLEEP_SLICE: Duration = Duration::from_micros(500);

    /// A ladder that gives up at `deadline`.
    pub fn until(deadline: Instant, cfg: &BackoffConfig) -> Self {
        WaitLadder {
            spins: 0,
            yields: 0,
            spin_limit: cfg.spin_limit,
            deadline,
        }
    }

    /// One wait step. The caller polls, and on no-progress calls `step`
    /// and obeys the returned [`WaitStep`].
    pub fn step(&mut self) -> WaitStep {
        if self.spins < self.spin_limit {
            self.spins += 1;
            std::hint::spin_loop();
            return WaitStep::Again;
        }
        let now = Instant::now();
        if now >= self.deadline {
            return WaitStep::Expired;
        }
        if self.yields < self.spin_limit.saturating_mul(Self::YIELD_FACTOR) {
            self.yields += 1;
            std::thread::yield_now();
            return WaitStep::Again;
        }
        WaitStep::Sleep((self.deadline - now).min(Self::SLEEP_SLICE))
    }

    /// Adds the yields taken so far to `metrics`: one atomic per wait
    /// instead of one per iteration.
    fn report(&self, metrics: &TransportMetrics) {
        metrics.on_backoff(u64::from(self.yields));
    }
}

/// Polls `transport.recv_batch(f)` until a batch arrives (its size is
/// returned), `deadline` passes (`Ok(0)`) or the peer closes
/// ([`NvmeofError::TransportClosed`]) — the one receive wait. Between
/// polls it descends a [`WaitLadder`] on `cfg`; after each sleep slice
/// the ladder starts over, so a frame that lands during a long wait is
/// still met by spins and yields, not only by the next slice's end.
pub fn recv_batch_until<T: Transport + ?Sized>(
    transport: &T,
    deadline: Instant,
    cfg: &BackoffConfig,
    f: &mut dyn FnMut(Frame<'_>),
) -> Result<usize, NvmeofError> {
    let mut ladder = WaitLadder::until(deadline, cfg);
    loop {
        let n = transport.recv_batch(f)?;
        if n > 0 {
            return Ok(n);
        }
        match ladder.step() {
            WaitStep::Again => {}
            WaitStep::Sleep(d) => {
                std::thread::sleep(d);
                ladder = WaitLadder::until(deadline, cfg);
            }
            WaitStep::Expired => return Ok(0),
        }
    }
}

/// A duplex, frame-oriented transport endpoint: one send
/// ([`Transport::send_frame`]), one receive ([`Transport::recv_batch`])
/// and the queued send ([`Transport::queue_frame`] +
/// [`Transport::flush_queued`]) are required; the vectored send is
/// provided on top.
pub trait Transport: Send {
    /// Sends one frame to the peer from a borrowed buffer, so callers
    /// encode into a reusable scratch. Ring transports copy the slice
    /// straight into the ring; socket transports write it out.
    fn send_frame(&self, frame: &[u8]) -> Result<(), NvmeofError>;

    /// Hands every frame that is currently ready to `f`, returning the
    /// count. Ring transports pass frames *borrowed* (no allocation, no
    /// copy) and pay one Acquire/Release pair for the whole batch.
    ///
    /// An error is reported only when no frame was consumed this call:
    /// frames queued ahead of a peer hang-up are delivered (and counted)
    /// first, and the closure surfaces on the next call.
    fn recv_batch(&self, f: &mut dyn FnMut(Frame<'_>)) -> Result<usize, NvmeofError>;

    /// Sends one logical frame supplied as `prefix ++ payload` — the
    /// vectored path for data PDUs whose payload is borrowed from the
    /// caller ([`crate::pdu::Pdu::encode_split_into`]). Socket
    /// transports override this with a single `write_vectored`,
    /// skipping the payload coalescing copy; the default glues the two
    /// parts and takes the ordinary `send_frame` path.
    fn send_split(&self, prefix: &[u8], payload: &[u8]) -> Result<(), NvmeofError> {
        let mut whole = Vec::with_capacity(prefix.len() + payload.len());
        whole.extend_from_slice(prefix);
        whole.extend_from_slice(payload);
        self.send_frame(&whole)
    }

    /// Whether [`Transport::send_split`] actually avoids the coalescing
    /// copy on this transport. Callers that can encode straight into a
    /// reusable scratch consult this and only split when it pays.
    fn prefers_split(&self) -> bool {
        false
    }

    /// Accepts one frame for sending no later than the caller's next
    /// [`Transport::flush_queued`]. Order against every other send on
    /// this endpoint is kept. Socket transports append to their send
    /// queue so a poll loop pays one `write` for everything it queued;
    /// ring transports stage the frame off the ring until
    /// `flush_queued`, which publishes the whole batch with one tail
    /// store.
    fn queue_frame(&self, frame: &[u8]) -> Result<(), NvmeofError>;

    /// Puts every frame accepted by [`Transport::queue_frame`] on the
    /// transport. Only the caller knows when its batch ends, so whoever
    /// queues must call this before it waits for the answer.
    fn flush_queued(&self) -> Result<(), NvmeofError>;
}

/// Fully in-region control path: a duplex transport over two lock-free
/// [`ByteRing`](oaf_shmem::byte_ring::ByteRing)s in a shared-memory region (the paper's §5.5 future-work
/// direction — replacing even the TCP control hop). Each endpoint pushes
/// to its transmit ring and pops from its receive ring; wake-up is the
/// consumer's poll loop, exactly like the SPDK reactor.
///
/// Queued frames ([`Transport::queue_frame`]) are staged in endpoint
/// memory and published by [`Transport::flush_queued`] with one
/// [`ByteRing::push_n`](oaf_shmem::byte_ring::ByteRing::push_n): one
/// tail store and one stats update per batch instead of per frame. An
/// immediate send publishes the staged frames first, so order holds.
///
/// Dropping an endpoint [closes](oaf_shmem::byte_ring::ByteRing::close)
/// its transmit ring. The peer's `recv_batch` delivers every frame
/// published before that and then reports
/// [`NvmeofError::TransportClosed`], as a socket reads EOF; a send that
/// finds its ring full and the peer gone reports the same at once.
pub struct ShmTransport {
    tx: oaf_shmem::byte_ring::ByteRing,
    rx: oaf_shmem::byte_ring::ByteRing,
    config: BackoffConfig,
    metrics: Arc<TransportMetrics>,
    tx_ring_stats: Arc<RingStats>,
    staged: RefCell<Staged>,
}

/// Frames accepted by `queue_frame` and not yet in the ring: their bytes
/// back to back, and where each one ends. Both vectors keep their
/// capacity, so the steady state allocates nothing.
struct Staged {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Staged {
    /// Sized for a deep queue's worth of command capsules.
    fn new() -> Self {
        Staged {
            bytes: Vec::with_capacity(8 * 1024),
            ends: Vec::with_capacity(64),
        }
    }

    /// Where the `n` oldest frames end.
    fn end_of(&self, n: usize) -> usize {
        n.checked_sub(1).map_or(0, |i| self.ends[i])
    }

    /// The staged frames from the `skip`-th on, oldest first.
    fn frames(&self, skip: usize) -> impl Iterator<Item = &[u8]> {
        self.ends[skip..]
            .iter()
            .scan(self.end_of(skip), |at, &end| {
                let frame = &self.bytes[*at..end];
                *at = end;
                Some(frame)
            })
    }

    /// Forgets the `n` oldest frames (they are in the ring now).
    fn consume(&mut self, n: usize) {
        let cut = self.end_of(n);
        self.bytes.drain(..cut);
        self.ends.drain(..n);
        for end in &mut self.ends {
            *end -= cut;
        }
    }
}

impl ShmTransport {
    /// Builds a connected pair of endpoints over a fresh region with
    /// `capacity` data bytes per direction (a power of two), using the
    /// default backoff tuning.
    pub fn pair(capacity: u64) -> (ShmTransport, ShmTransport) {
        Self::pair_with(capacity, BackoffConfig::default())
    }

    /// Builds a connected pair with explicit ring-wait tuning.
    pub fn pair_with(capacity: u64, config: BackoffConfig) -> (ShmTransport, ShmTransport) {
        use oaf_shmem::byte_ring::ByteRing;
        let one = ByteRing::required_len(capacity);
        // Two rings back to back; required_len is cache-line aligned.
        let region = std::sync::Arc::new(oaf_shmem::ShmRegion::new(2 * one));
        let mut a = ByteRing::new(region.clone(), 0, capacity).expect("sized");
        let mut b = ByteRing::new(region, one, capacity).expect("sized");
        // Each endpoint instruments the producer side of its own tx
        // ring; the peer's rx handle is a clone, which never inherits
        // the stats bundle, so nothing double-counts.
        let a_stats = RingStats::new();
        let b_stats = RingStats::new();
        let a_rx = b.clone();
        let b_rx = a.clone();
        a.set_stats(a_stats.clone());
        b.set_stats(b_stats.clone());
        (
            ShmTransport {
                tx: a,
                rx: a_rx,
                config,
                metrics: TransportMetrics::new(),
                tx_ring_stats: a_stats,
                staged: RefCell::new(Staged::new()),
            },
            ShmTransport {
                tx: b,
                rx: b_rx,
                config,
                metrics: TransportMetrics::new(),
                tx_ring_stats: b_stats,
                staged: RefCell::new(Staged::new()),
            },
        )
    }

    /// Largest frame the transport can carry.
    pub fn max_frame(&self) -> usize {
        self.tx.max_frame()
    }

    /// This endpoint's transport metrics (detached until registered).
    pub fn metrics(&self) -> &Arc<TransportMetrics> {
        &self.metrics
    }

    /// Producer-side stats of this endpoint's transmit ring.
    pub fn tx_ring_stats(&self) -> &Arc<RingStats> {
        &self.tx_ring_stats
    }

    /// The ring-wait tuning in effect.
    pub fn backoff_config(&self) -> BackoffConfig {
        self.config
    }

    /// Runs `push` until it reports everything published (`Ok(true)`),
    /// waiting out a full ring (`Ok(false)`) on a [`WaitLadder`]: a live
    /// peer poll loop drains in microseconds; one that stays away for
    /// [`BackoffConfig::send_full_timeout`] surfaces as
    /// [`NvmeofError::RingFull`]; a full ring whose peer hung up, which
    /// nobody will drain, as [`NvmeofError::TransportClosed`]. The first
    /// attempt reads no clock.
    fn publish(
        &self,
        mut push: impl FnMut() -> Result<bool, oaf_shmem::ShmError>,
    ) -> Result<(), NvmeofError> {
        let mut ladder = None;
        let result = loop {
            match push() {
                Ok(true) => break Ok(()),
                Ok(false) if self.rx.is_closed() => break Err(NvmeofError::TransportClosed),
                Ok(false) => {}
                Err(e) => break Err(NvmeofError::Payload(e.to_string())),
            }
            let ladder = ladder.get_or_insert_with(|| {
                WaitLadder::until(Instant::now() + self.config.send_full_timeout, &self.config)
            });
            match ladder.step() {
                WaitStep::Again => {}
                WaitStep::Sleep(d) => std::thread::sleep(d),
                WaitStep::Expired => {
                    self.metrics.ring_full.inc();
                    break Err(NvmeofError::RingFull);
                }
            }
        };
        if let Some(ladder) = ladder {
            ladder.report(&self.metrics);
        }
        result
    }

    /// Publishes every staged frame, oldest first. What a full ring
    /// refused for the whole backoff budget stays staged, in order, for
    /// the next flush, and the flush reports [`NvmeofError::RingFull`].
    fn publish_staged(&self, staged: &mut Staged) -> Result<(), NvmeofError> {
        let total = staged.ends.len();
        let mut done = 0;
        let result = self.publish(|| {
            done += self.tx.push_n(staged.frames(done))?;
            Ok(done == total)
        });
        if done > 0 {
            self.metrics.frames_sent.add(done as u64);
            self.metrics.bytes_sent.add(staged.end_of(done) as u64);
            staged.consume(done);
        }
        result
    }
}

impl Drop for ShmTransport {
    fn drop(&mut self) {
        self.tx.close();
    }
}

impl Transport for ShmTransport {
    fn send_frame(&self, frame: &[u8]) -> Result<(), NvmeofError> {
        // Frames queued earlier go first.
        let mut staged = self.staged.borrow_mut();
        if !staged.ends.is_empty() {
            self.publish_staged(&mut staged)?;
        }
        // Straight from the caller's scratch into the ring — no owned
        // buffer in between.
        self.publish(|| match self.tx.push(frame) {
            Ok(()) => Ok(true),
            Err(oaf_shmem::ShmError::RingFull) => Ok(false),
            Err(e) => Err(e),
        })?;
        self.metrics.on_send(frame.len());
        Ok(())
    }

    fn queue_frame(&self, frame: &[u8]) -> Result<(), NvmeofError> {
        // Refused here, as an immediate push would refuse it, so a
        // staged batch never holds a frame the ring cannot carry.
        if frame.len() > self.tx.max_frame() {
            let too_large = oaf_shmem::ShmError::PayloadTooLarge {
                len: frame.len(),
                slot_size: self.tx.max_frame(),
            };
            return Err(NvmeofError::Payload(too_large.to_string()));
        }
        let mut staged = self.staged.borrow_mut();
        staged.bytes.extend_from_slice(frame);
        let end = staged.bytes.len();
        staged.ends.push(end);
        Ok(())
    }

    fn flush_queued(&self) -> Result<(), NvmeofError> {
        let mut staged = self.staged.borrow_mut();
        if staged.ends.is_empty() {
            return Ok(());
        }
        self.publish_staged(&mut staged)
    }

    fn recv_batch(&self, f: &mut dyn FnMut(Frame<'_>)) -> Result<usize, NvmeofError> {
        // Borrowed frames straight out of the ring: zero copies, zero
        // allocations, one Acquire/Release pair for the whole batch.
        // Telemetry is settled once per batch, not per frame.
        let mut bytes = 0;
        let mut take = |frame: &[u8]| {
            bytes += frame.len();
            f(Frame::Borrowed(frame));
        };
        let mut n = self.rx.drain(&mut take);
        if n == 0 && self.rx.is_closed() {
            // The peer hung up. Its mark was stored after its last
            // publish, so one more drain sees everything it sent.
            n = self.rx.drain(&mut take);
            if n == 0 {
                return Err(NvmeofError::TransportClosed);
            }
        }
        if n > 0 {
            self.metrics.on_recv_borrowed(n, bytes);
            self.metrics.batch_sizes.record(n as u64);
        }
        Ok(n)
    }
}

/// Static dispatch over the real-runtime control paths, so the
/// connection manager can pick per connection (real kernel-TCP socket
/// or the §5.5 in-region byte rings) without boxing the hot path.
pub enum ControlTransport {
    /// In-region control path over shared-memory byte rings.
    Shm(ShmTransport),
    /// Real nonblocking kernel-TCP socket (§4.5).
    Tcp(crate::tcp::TcpTransport),
}

impl ControlTransport {
    /// This endpoint's transport metrics, whichever path is active.
    pub fn metrics(&self) -> &Arc<TransportMetrics> {
        match self {
            ControlTransport::Shm(t) => t.metrics(),
            ControlTransport::Tcp(t) => t.metrics(),
        }
    }

    /// `true` when the control path runs over in-region byte rings.
    pub fn is_in_region(&self) -> bool {
        matches!(self, ControlTransport::Shm(_))
    }

    /// `true` when the control path runs over a real kernel socket.
    pub fn is_socket(&self) -> bool {
        matches!(self, ControlTransport::Tcp(_))
    }

    /// The socket transport's TCP-specific metrics, when active.
    pub fn tcp_metrics(&self) -> Option<&Arc<crate::metrics::TcpMetrics>> {
        match self {
            ControlTransport::Tcp(t) => Some(t.tcp_metrics()),
            _ => None,
        }
    }
}

impl Transport for ControlTransport {
    fn send_frame(&self, frame: &[u8]) -> Result<(), NvmeofError> {
        match self {
            ControlTransport::Shm(t) => t.send_frame(frame),
            ControlTransport::Tcp(t) => t.send_frame(frame),
        }
    }

    fn send_split(&self, prefix: &[u8], payload: &[u8]) -> Result<(), NvmeofError> {
        match self {
            ControlTransport::Shm(t) => t.send_split(prefix, payload),
            ControlTransport::Tcp(t) => t.send_split(prefix, payload),
        }
    }

    fn prefers_split(&self) -> bool {
        match self {
            ControlTransport::Shm(t) => t.prefers_split(),
            ControlTransport::Tcp(t) => t.prefers_split(),
        }
    }

    fn queue_frame(&self, frame: &[u8]) -> Result<(), NvmeofError> {
        match self {
            ControlTransport::Shm(t) => t.queue_frame(frame),
            ControlTransport::Tcp(t) => t.queue_frame(frame),
        }
    }

    fn flush_queued(&self) -> Result<(), NvmeofError> {
        match self {
            ControlTransport::Shm(t) => t.flush_queued(),
            ControlTransport::Tcp(t) => t.flush_queued(),
        }
    }

    fn recv_batch(&self, f: &mut dyn FnMut(Frame<'_>)) -> Result<usize, NvmeofError> {
        match self {
            ControlTransport::Shm(t) => t.recv_batch(f),
            ControlTransport::Tcp(t) => t.recv_batch(f),
        }
    }
}

impl Transport for Box<dyn Transport> {
    fn send_frame(&self, frame: &[u8]) -> Result<(), NvmeofError> {
        (**self).send_frame(frame)
    }

    fn send_split(&self, prefix: &[u8], payload: &[u8]) -> Result<(), NvmeofError> {
        (**self).send_split(prefix, payload)
    }

    fn prefers_split(&self) -> bool {
        (**self).prefers_split()
    }

    fn queue_frame(&self, frame: &[u8]) -> Result<(), NvmeofError> {
        (**self).queue_frame(frame)
    }

    fn flush_queued(&self) -> Result<(), NvmeofError> {
        (**self).flush_queued()
    }

    fn recv_batch(&self, f: &mut dyn FnMut(Frame<'_>)) -> Result<usize, NvmeofError> {
        (**self).recv_batch(f)
    }
}

/// Wall-clock rate/latency shaping parameters.
#[derive(Clone, Copy, Debug)]
pub struct ShapeParams {
    /// Sustained bandwidth in bytes per second.
    pub bytes_per_sec: f64,
    /// Fixed one-way latency added to every frame.
    pub latency: Duration,
}

impl ShapeParams {
    /// Shaping for an `n`-gigabit-per-second link with the given one-way
    /// latency.
    pub fn gbps(n: f64, latency: Duration) -> Self {
        ShapeParams {
            bytes_per_sec: n * 1e9 / 8.0,
            latency,
        }
    }
}

/// A transport wrapper over a serial link model. The sending side is held
/// for each frame's serialization time behind the frames already on the
/// link (back-pressure); the receiving side holds each arrival for
/// [`ShapeParams::latency`] before handing it over. Frames cross the
/// wrapped transport unchanged, so it composes with transports that find
/// frame boundaries in the PDU header (the socket); wrap both ends for the
/// whole model.
pub struct RateLimited<T: Transport> {
    inner: T,
    params: ShapeParams,
    tx_free: std::sync::Mutex<Instant>,
    /// Arrivals waiting out the latency, oldest first. Every one is due
    /// `latency` after it arrived, so the queue is in deadline order.
    rx_queue: std::sync::Mutex<std::collections::VecDeque<(Instant, Bytes)>>,
}

impl<T: Transport> RateLimited<T> {
    /// Wraps `inner` with shaping `params`.
    pub fn new(inner: T, params: ShapeParams) -> Self {
        RateLimited {
            inner,
            params,
            tx_free: std::sync::Mutex::new(Instant::now()),
            rx_queue: std::sync::Mutex::new(std::collections::VecDeque::new()),
        }
    }

    /// Holds the sender until a `len`-byte frame has been serialized
    /// onto the link behind everything sent before it.
    fn pace(&self, len: usize) {
        let ser = Duration::from_secs_f64(len as f64 / self.params.bytes_per_sec);
        let sent_at = {
            let mut free = self.tx_free.lock().expect("tx mutex");
            *free = (*free).max(Instant::now()) + ser;
            *free
        };
        let wait = sent_at.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }
}

impl<T: Transport> Transport for RateLimited<T> {
    fn send_frame(&self, frame: &[u8]) -> Result<(), NvmeofError> {
        self.pace(frame.len());
        self.inner.send_frame(frame)
    }

    fn queue_frame(&self, frame: &[u8]) -> Result<(), NvmeofError> {
        self.pace(frame.len());
        self.inner.queue_frame(frame)
    }

    fn flush_queued(&self) -> Result<(), NvmeofError> {
        self.inner.flush_queued()
    }

    fn recv_batch(&self, f: &mut dyn FnMut(Frame<'_>)) -> Result<usize, NvmeofError> {
        // One queue-mutex acquisition and one clock read per call: stage
        // the arrivals, then hand over whatever has come due.
        let mut q = self.rx_queue.lock().expect("rx mutex");
        let now = Instant::now();
        let due_at = now + self.params.latency;
        let arrived = self
            .inner
            .recv_batch(&mut |frame| q.push_back((due_at, frame.into_bytes())));
        let mut n = 0;
        while q.front().is_some_and(|(at, _)| *at <= now) {
            let (_, frame) = q.pop_front().expect("front checked");
            f(Frame::Owned(frame));
            n += 1;
        }
        // A closed peer surfaces once every staged frame is out.
        match arrived {
            Err(e) if n == 0 && q.is_empty() => Err(e),
            _ => Ok(n),
        }
    }
}

/// Waits until `n` frames have arrived or `timeout` has passed, and
/// returns what arrived, owned and in order.
#[cfg(test)]
pub(crate) fn recv_n<T: Transport + ?Sized>(
    t: &T,
    n: usize,
    timeout: Duration,
) -> Result<Vec<Bytes>, NvmeofError> {
    let deadline = Instant::now() + timeout;
    let mut got = Vec::new();
    while got.len() < n
        && recv_batch_until(t, deadline, &BackoffConfig::default(), &mut |f| {
            got.push(f.into_bytes())
        })? > 0
    {}
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One receive poll: every frame ready now, owned.
    fn drain<T: Transport + ?Sized>(t: &T) -> Result<Vec<Bytes>, NvmeofError> {
        let mut got = Vec::new();
        t.recv_batch(&mut |f| got.push(f.into_bytes()))?;
        Ok(got)
    }

    #[test]
    fn closed_peer_reports_disconnect() {
        let (a, b) = ShmTransport::pair(4096);
        drop(b);
        assert!(matches!(drain(&a), Err(NvmeofError::TransportClosed)));
        // Sends are only copies into the ring, so they land until it
        // fills; the full ring of a peer that hung up then reports the
        // closure at once instead of waiting out the timeout.
        let err = loop {
            if let Err(e) = a.send_frame(&[0u8; 512]) {
                break e;
            }
        };
        assert!(matches!(err, NvmeofError::TransportClosed), "{err:?}");
        assert_eq!(a.metrics().ring_full.get(), 0);
    }

    #[test]
    fn recv_batch_until_waits_and_returns() {
        let (a, b) = ShmTransport::pair(4096);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            b.send_frame(b"late").unwrap();
            // Keep b alive long enough for the receive.
            std::thread::sleep(Duration::from_millis(50));
        });
        let got = recv_n(&a, 1, Duration::from_millis(500)).unwrap();
        assert_eq!(got, [Bytes::from_static(b"late")]);
        assert!(recv_n(&a, 1, Duration::from_millis(5)).unwrap().is_empty());
        h.join().unwrap();
    }

    #[test]
    fn rate_limited_adds_latency() {
        let (a, b) = ShmTransport::pair(4096);
        let a = RateLimited::new(a, ShapeParams::gbps(10.0, Duration::from_millis(5)));
        let b = RateLimited::new(b, ShapeParams::gbps(10.0, Duration::from_millis(5)));
        let t0 = Instant::now();
        a.send_frame(b"hello").unwrap();
        let got = recv_n(&b, 1, Duration::from_secs(1)).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(got, [Bytes::from_static(b"hello")]);
        assert!(elapsed >= Duration::from_millis(5), "{elapsed:?}");
    }

    #[test]
    fn rate_limited_preserves_fifo_order() {
        let (a, b) = ShmTransport::pair(4096);
        let a = RateLimited::new(a, ShapeParams::gbps(100.0, Duration::from_micros(200)));
        let b = RateLimited::new(b, ShapeParams::gbps(100.0, Duration::from_micros(200)));
        for i in 0..50u32 {
            a.send_frame(&i.to_le_bytes()).unwrap();
        }
        let got = recv_n(&b, 50, Duration::from_secs(1)).unwrap();
        for i in 0..50u32 {
            let f = &got[i as usize];
            assert_eq!(u32::from_le_bytes(f[..].try_into().unwrap()), i);
        }
    }

    /// A shaped socket carries real PDUs intact: the shaping adds time,
    /// never bytes, so the socket still finds each frame by its header.
    #[test]
    fn rate_limited_over_loopback_tcp_keeps_framing() {
        let (a, b) = crate::tcp::TcpTransport::loopback_pair(Default::default()).unwrap();
        let shape = ShapeParams::gbps(10.0, Duration::from_millis(2));
        let (a, b) = (RateLimited::new(a, shape), RateLimited::new(b, shape));
        let frame = Pdu::CapsuleResp(crate::pdu::CapsuleResp {
            completion: crate::nvme::completion::NvmeCompletion::ok(7),
        })
        .encode();
        let t0 = Instant::now();
        a.send_frame(&frame).unwrap();
        let got = recv_n(&b, 1, Duration::from_secs(5)).unwrap();
        assert!(t0.elapsed() >= shape.latency, "{:?}", t0.elapsed());
        assert_eq!(got, [frame]);
    }

    #[test]
    fn shm_transport_is_duplex_and_ordered() {
        let (a, b) = ShmTransport::pair(64 * 1024);
        for i in 0..100u32 {
            a.send_frame(&i.to_le_bytes()).unwrap();
        }
        b.send_frame(b"reverse").unwrap();
        let got = drain(&b).unwrap();
        for i in 0..100u32 {
            let f = &got[i as usize];
            assert_eq!(u32::from_le_bytes(f[..].try_into().unwrap()), i);
        }
        assert_eq!(drain(&a).unwrap(), [Bytes::from_static(b"reverse")]);
        assert!(drain(&a).unwrap().is_empty());
    }

    #[test]
    fn shm_transport_waits_for_a_late_frame() {
        let (a, b) = ShmTransport::pair(4096);
        assert!(recv_n(&a, 1, Duration::from_millis(10)).unwrap().is_empty());
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(15));
            b.send_frame(b"late").unwrap();
        });
        let got = recv_n(&a, 1, Duration::from_secs(2)).unwrap();
        assert_eq!(got, [Bytes::from_static(b"late")]);
        h.join().unwrap();
    }

    #[test]
    fn shm_transport_carries_whole_pdus() {
        use crate::nvme::command::NvmeCommand;
        use crate::pdu::{CapsuleCmd, DataRef, Pdu};
        let (a, b) = ShmTransport::pair(64 * 1024);
        let pdu = Pdu::CapsuleCmd(CapsuleCmd {
            cmd: NvmeCommand::write(3, 1, 64, 32),
            data: Some(DataRef::ShmSlot {
                slot: 9,
                len: 131072,
            }),
        });
        a.send_frame(&pdu.encode()).unwrap();
        let frame = drain(&b).unwrap().remove(0);
        assert_eq!(Pdu::decode(frame).unwrap(), pdu);
    }

    #[test]
    fn shm_send_on_full_ring_reports_ring_full() {
        let (a, _b) = ShmTransport::pair(4096);
        // Nobody drains `_b`; the ring fills and send must fail with the
        // dedicated congestion error, not a stringified payload error.
        let frame = vec![0u8; 1024];
        let err = loop {
            match a.send_frame(&frame) {
                Ok(()) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, NvmeofError::RingFull), "{err:?}");
    }

    #[test]
    fn shm_queued_frames_roundtrip_borrowed() {
        let (a, b) = ShmTransport::pair(64 * 1024);
        let burst: Vec<Vec<u8>> = (0..20u32).map(|i| vec![i as u8; 16 + i as usize]).collect();
        for frame in &burst {
            a.queue_frame(frame).unwrap();
        }
        a.flush_queued().unwrap();
        let mut seen = Vec::new();
        let n = b
            .recv_batch(&mut |frame| {
                assert!(matches!(frame, Frame::Borrowed(_)));
                seen.push(frame.as_slice().to_vec());
            })
            .unwrap();
        assert_eq!(n, 20);
        assert_eq!(seen, burst);
    }

    /// Frame `i` of the staging tests: its index up front, a
    /// length that varies with it.
    fn numbered(i: u32) -> Vec<u8> {
        let mut f = i.to_le_bytes().to_vec();
        f.resize(16 + (i % 5) as usize * 12, i as u8);
        f
    }

    /// Indices of every frame `b` has ready, in arrival order.
    fn drain_numbered(b: &ShmTransport) -> Vec<u32> {
        let mut seen = Vec::new();
        b.recv_batch(&mut |frame| {
            let f = frame.as_slice();
            assert_eq!(f, numbered(u32::from_le_bytes(f[..4].try_into().unwrap())));
            seen.push(u32::from_le_bytes(f[..4].try_into().unwrap()));
        })
        .unwrap();
        seen
    }

    #[test]
    fn shm_staged_frames_keep_order_across_queue_send_and_flush() {
        let (a, b) = ShmTransport::pair(64 * 1024);
        // Queued frames stay off the ring until something publishes them.
        a.queue_frame(&numbered(0)).unwrap();
        a.queue_frame(&numbered(1)).unwrap();
        assert!(
            drain_numbered(&b).is_empty(),
            "queue_frame touched the ring"
        );
        // An immediate send carries the staged frames ahead of it.
        a.send_frame(&numbered(2)).unwrap();
        assert_eq!(drain_numbered(&b), [0, 1, 2]);
        // Interleaved, with the peer draining at arbitrary points.
        let mut seen = Vec::new();
        for i in 3..300u32 {
            match i % 7 {
                0 | 3 => a.send_frame(&numbered(i)).unwrap(),
                5 => {
                    a.queue_frame(&numbered(i)).unwrap();
                    a.flush_queued().unwrap();
                }
                _ => a.queue_frame(&numbered(i)).unwrap(),
            }
            if i % 11 == 0 {
                seen.extend(drain_numbered(&b));
            }
        }
        a.flush_queued().unwrap();
        a.flush_queued().unwrap(); // nothing staged: a no-op
        seen.extend(drain_numbered(&b));
        assert_eq!(
            seen,
            (3..300).collect::<Vec<_>>(),
            "every frame once, in order"
        );
        assert_eq!(a.metrics().frames_sent.get(), 300);
        assert_eq!(a.tx_ring_stats().frames.get(), 300);
    }

    #[test]
    fn shm_flush_into_a_full_ring_keeps_the_rest_staged() {
        let cfg = BackoffConfig {
            spin_limit: 8,
            send_full_timeout: Duration::from_millis(20),
        };
        let (a, b) = ShmTransport::pair_with(4096, cfg);
        // Twice what the ring holds, and nobody draining.
        let total = 120u32;
        for i in 0..total {
            a.queue_frame(&numbered(i)).unwrap();
        }
        let t0 = Instant::now();
        let err = a.flush_queued().unwrap_err();
        assert!(matches!(err, NvmeofError::RingFull), "{err:?}");
        assert!(t0.elapsed() >= cfg.send_full_timeout, "gave up early");
        assert_eq!(a.metrics().ring_full.get(), 1);
        assert!(a.metrics().backoff_yields.get() > 0, "no wait was counted");
        let first = drain_numbered(&b);
        assert!(!first.is_empty() && first.len() < total as usize);
        assert_eq!(first, (0..first.len() as u32).collect::<Vec<_>>());
        // The unpublished tail is still staged, in order: a send now goes
        // out behind it, and the next flushes deliver it once.
        a.send_frame(&numbered(total)).unwrap();
        let mut seen = first;
        seen.extend(drain_numbered(&b));
        a.flush_queued().unwrap();
        seen.extend(drain_numbered(&b));
        assert_eq!(
            seen,
            (0..=total).collect::<Vec<_>>(),
            "reordered or duplicated"
        );
        assert_eq!(a.metrics().frames_sent.get(), u64::from(total) + 1);
    }

    /// Counts what reaches it, so a wrapper that falls back to the trait
    /// defaults (queue → `send_frame`, flush → no-op) is caught.
    #[derive(Default)]
    struct QueueProbe {
        queued: std::sync::atomic::AtomicUsize,
        flushed: std::sync::atomic::AtomicUsize,
    }

    impl Transport for Arc<QueueProbe> {
        fn send_frame(&self, _: &[u8]) -> Result<(), NvmeofError> {
            panic!("queued frame fell back to an immediate send");
        }
        fn recv_batch(&self, _: &mut dyn FnMut(Frame<'_>)) -> Result<usize, NvmeofError> {
            Ok(0)
        }
        fn queue_frame(&self, _: &[u8]) -> Result<(), NvmeofError> {
            self.queued
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(())
        }
        fn flush_queued(&self) -> Result<(), NvmeofError> {
            self.flushed
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn wrappers_forward_the_queued_path() {
        use std::sync::atomic::Ordering::Relaxed;
        let probe = Arc::new(QueueProbe::default());
        let boxed: Box<dyn Transport> = Box::new(probe.clone());
        boxed.queue_frame(b"x").unwrap();
        boxed.flush_queued().unwrap();
        let shaped = RateLimited::new(
            probe.clone(),
            ShapeParams::gbps(100.0, Duration::from_micros(1)),
        );
        shaped.queue_frame(b"y").unwrap();
        shaped.flush_queued().unwrap();
        assert_eq!(probe.queued.load(Relaxed), 2);
        assert_eq!(probe.flushed.load(Relaxed), 2);
    }

    #[test]
    fn recv_batch_drains_before_reporting_closure() {
        let (a, b) = ShmTransport::pair(4096);
        a.send_frame(b"x").unwrap();
        a.queue_frame(b"y").unwrap();
        a.flush_queued().unwrap();
        drop(a); // frames queued ahead of the hang-up must still arrive
        let mut n = 0;
        assert_eq!(b.recv_batch(&mut |_| n += 1).unwrap(), 2);
        assert_eq!(n, 2);
        assert!(matches!(
            b.recv_batch(&mut |_| {}),
            Err(NvmeofError::TransportClosed)
        ));
    }

    /// The hang-up and the frames before it race the consumer's empty
    /// poll: whichever poll sees the mark, no frame is lost and the
    /// closure comes last.
    #[test]
    fn a_hang_up_racing_the_consumer_loses_no_frame() {
        for round in 0..200u32 {
            let (a, b) = ShmTransport::pair(64 * 1024);
            let sender = std::thread::spawn(move || {
                for i in 0..round % 8 {
                    a.send_frame(&i.to_le_bytes()).unwrap();
                }
            });
            let mut got = Vec::new();
            let closed = loop {
                match b.recv_batch(&mut |f| got.push(f.into_bytes())) {
                    Ok(_) => std::thread::yield_now(),
                    Err(e) => break e,
                }
            };
            sender.join().unwrap();
            assert!(matches!(closed, NvmeofError::TransportClosed), "{closed:?}");
            let want: Vec<Bytes> = (0..round % 8)
                .map(|i| Bytes::copy_from_slice(&i.to_le_bytes()))
                .collect();
            assert_eq!(got, want, "round {round}");
        }
    }

    #[test]
    fn control_transport_dispatches_both_paths() {
        let (at, bt) = crate::tcp::TcpTransport::loopback_pair(Default::default()).unwrap();
        let (asx, bsx) = ShmTransport::pair(16 * 1024);
        for (a, b) in [
            (ControlTransport::Tcp(at), ControlTransport::Tcp(bt)),
            (ControlTransport::Shm(asx), ControlTransport::Shm(bsx)),
        ] {
            // A real PDU: the socket finds frame boundaries by its header.
            let frame = Pdu::CapsuleResp(crate::pdu::CapsuleResp {
                completion: crate::nvme::completion::NvmeCompletion::ok(7),
            })
            .encode();
            a.send_frame(&frame).unwrap();
            let got = recv_n(&b, 1, Duration::from_secs(5)).unwrap();
            assert_eq!(got, [frame]);
        }
    }

    #[test]
    fn rate_limited_serializes_large_frames() {
        let (a, b) = ShmTransport::pair(4 << 20);
        // 1 MB at 100 MB/s = 10ms of serialization back-pressure.
        let a = RateLimited::new(
            a,
            ShapeParams {
                bytes_per_sec: 100e6,
                latency: Duration::ZERO,
            },
        );
        let t0 = Instant::now();
        a.send_frame(&vec![0u8; 1_000_000]).unwrap();
        let sent_in = t0.elapsed();
        assert!(sent_in >= Duration::from_millis(9), "{sent_in:?}");
        let got = drain(&b).unwrap().remove(0);
        assert_eq!(got.len(), 1_000_000); // shaping adds time, not bytes
    }
}
