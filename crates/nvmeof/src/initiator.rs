//! The NVMe-oF initiator (client).
//!
//! Implements the client half of the flows in Figs. 5–7: ICReq/ICResp
//! handshake with adaptive-fabric capability negotiation, asynchronous
//! command submission with completion polling (the SPDK-perf usage
//! pattern: a queue depth of in-flight commands serviced by one polling
//! thread), and the three write flow-control paths — inline in-capsule
//! and conservative R2T over TCP, and shared-memory in-capsule for every
//! size once the shm channel is negotiated (§4.4.2).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};

use crate::error::NvmeofError;
use crate::metrics::InitiatorMetrics;
use crate::nvme::command::{NvmeCommand, Opcode};
use crate::nvme::completion::{NvmeCompletion, Status};
use crate::nvme::controller::IdentifyInfo;
use crate::payload::{PayloadChannel, WriteLease};
use crate::pdu::{
    land_chunk, Abort, CapsuleCmd, DataPdu, DataPduView, DataRef, DataView, Degrade, ICReq, ICResp,
    KeepAlive, Pdu, PduView, AF_CAP_SHM,
};
use crate::recovery::{
    Action, CidMap, DataArrival, DataNeed, InitiatorRecovery, KeepAliveNanos, Nanos, RecoveryConfig,
};
use crate::transport::{self, BackoffConfig, Frame, Transport, WaitLadder, WaitStep};

/// Keep-alive tuning: how long a connection may stay silent before the
/// initiator probes it, and how long before the peer is declared dead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeepAliveConfig {
    /// Quiet time after which a heartbeat is sent (and re-sent).
    pub interval: Duration,
    /// Total silence after which the peer is declared dead and
    /// [`NvmeofError::PeerDead`] surfaces from `poll`/`wait`.
    pub grace: Duration,
}

impl KeepAliveConfig {
    /// An interval with the conventional 3× grace period.
    pub fn with_interval(interval: Duration) -> Self {
        KeepAliveConfig {
            interval,
            grace: interval * 3,
        }
    }
}

/// Client-side connection options.
#[derive(Clone)]
pub struct InitiatorOptions {
    /// Host identity sent in the ICReq (locality matching, §4.2).
    pub host_id: u64,
    /// Adaptive-fabric capabilities requested.
    pub af_caps: u32,
    /// Maximum R2Ts (informational).
    pub maxr2t: u32,
    /// Per-command deadline. When set, a command that has not completed
    /// by its deadline is retried (reads resubmit directly; writes only
    /// after an abort round-trip) up to [`max_retries`] times, then
    /// surfaced as [`NvmeofError::Timeout`]. `None` disables all
    /// deadline bookkeeping.
    ///
    /// [`max_retries`]: InitiatorOptions::max_retries
    pub cmd_deadline: Option<Duration>,
    /// Retry budget per command once `cmd_deadline` is set.
    pub max_retries: u32,
    /// Base of the exponential retry backoff added to each retry's
    /// deadline (`cmd_deadline + retry_backoff * 2^attempt`).
    pub retry_backoff: Duration,
    /// Keep-alive probing; `None` disables heartbeats and peer-death
    /// detection.
    pub keepalive: Option<KeepAliveConfig>,
    /// Extra deadline allowance for a barrier-class command (Flush, or
    /// a FUA write): it completes only once the target's device flush
    /// has landed. Every other deadline and keep-alive run on live
    /// time, since the target keeps serving the connection while a
    /// sync is in flight.
    pub barrier_grace: Duration,
    /// Re-introduces the PR 4 held-completion bug (success completions
    /// delivered before the data they vouch for) so the `oaf-mc`
    /// mutation leg can prove the model checker finds that class.
    /// Default `false` even when the feature is compiled in.
    #[cfg(feature = "mc-mutations")]
    pub mc_deliver_early: bool,
    /// Application-level chunk size for inline H2C transfers (§4.5,
    /// Fig. 9): an R2T-granted payload larger than this is shipped as
    /// `ceil(len / write_chunk)` pipelined sub-requests. `0` disables
    /// chunking. The connection manager keeps the default on a real
    /// socket and passes `0` for in-memory channels.
    pub write_chunk: usize,
}

impl Default for InitiatorOptions {
    fn default() -> Self {
        InitiatorOptions {
            host_id: 0x4846_u64, // "HF": host-fabric default identity
            af_caps: 0,
            maxr2t: 16,
            cmd_deadline: None,
            max_retries: 3,
            retry_backoff: Duration::from_millis(2),
            keepalive: None,
            barrier_grace: Duration::from_millis(250),
            #[cfg(feature = "mc-mutations")]
            mc_deliver_early: false,
            // Fig. 9's optimum for the paper's 25 Gbps testbed; payloads
            // at or below this are untouched.
            write_chunk: 512 * 1024,
        }
    }
}

impl InitiatorOptions {
    /// Lowers the recovery-relevant knobs into the pure decision core's
    /// config (durations become nanoseconds since the connection epoch).
    fn recovery_config(&self) -> RecoveryConfig {
        RecoveryConfig {
            cmd_deadline: self.cmd_deadline.map(duration_nanos),
            max_retries: self.max_retries,
            retry_backoff: duration_nanos(self.retry_backoff),
            keepalive: self.keepalive.map(|ka| KeepAliveNanos {
                interval: duration_nanos(ka.interval),
                grace: duration_nanos(ka.grace),
            }),
            barrier_grace: duration_nanos(self.barrier_grace),
            #[cfg(feature = "mc-mutations")]
            mutate_deliver_early: self.mc_deliver_early,
        }
    }
}

fn duration_nanos(d: Duration) -> Nanos {
    Nanos::try_from(d.as_nanos()).unwrap_or(Nanos::MAX)
}

struct PendingIo {
    /// The command as last sent on the wire (`cmd.cid` is the *wire*
    /// cid, which diverges from [`user_cid`] after a retry).
    ///
    /// [`user_cid`]: PendingIo::user_cid
    cmd: NvmeCommand,
    /// The cid handed to the caller at submit time; completions are
    /// reported under it no matter how many wire cids retries burned.
    user_cid: u16,
    /// Bytes a buffered read owes the caller (0 for everything else).
    read_len: usize,
    /// Where C2H chunks land, once each: unallocated until the first
    /// chunk and never pre-zeroed (see [`land_chunk`]).
    read_buf: Vec<u8>,
    stashed_write: Option<Bytes>,
    /// Borrowed read (§4.4.3): leave shm payloads in the region and hand
    /// the `(slot, len)` reference to the caller instead of copying out.
    borrow: bool,
    /// Unconsumed shm payload reference for a borrowed read.
    shm_data: Option<(u32, u32)>,
    /// Contiguous prefix of the read buffer filled by C2H data — buffer
    /// bookkeeping only; the hold/release *decision* runs on the
    /// recovery core's own watermark (`crate::recovery`).
    got: usize,
    /// Core time of the submission (nanoseconds since the epoch).
    submitted_at: Nanos,
    /// Retained write/compare payload (a refcount clone, no copy) so a
    /// lost command can be replayed — including over TCP after a shm
    /// degradation. `None` for zero-copy published writes, which cannot
    /// be replayed.
    retry_payload: Option<Bytes>,
    /// Slot the original submission published over shm, if any, so a
    /// retry or abort can free it instead of leaking it.
    published_slot: Option<(u32, u32)>,
}

/// Outcome of a completed I/O.
#[derive(Debug, PartialEq, Eq)]
pub struct IoResult {
    /// Command identifier.
    pub cid: u16,
    /// NVMe status.
    pub status: Status,
    /// Read data (empty for writes/flushes — and for borrowed reads
    /// whose payload is still parked in shared memory, see
    /// [`IoResult::shm`]).
    pub data: Vec<u8>,
    /// For borrowed reads over a shared-memory channel: the `(slot,
    /// len)` reference of the payload, still unconsumed in the region.
    /// Pass the result to [`Initiator::consume_read_with`] to borrow the
    /// bytes in place and free the slot.
    pub shm: Option<(u32, u32)>,
}

/// Per-connection client state, split from the transport so the batched
/// receive path can borrow the two disjointly: `recv_batch` holds the
/// transport shared while the frame callback mutates the state.
///
/// Everything that *decides* recovery — cid/generation allocation,
/// deadlines and retries, abort round-trips, the retired-cid ring, held
/// completions, keep-alive, degrade replay — lives in
/// [`InitiatorRecovery`] (`crate::recovery`), a pure state machine the
/// `oaf-mc` model checker drives through every schedule. This shell
/// owns buffers, sockets and telemetry and executes the core's
/// [`Action`]s.
struct ClientState {
    payload: Option<Arc<dyn PayloadChannel>>,
    opts: InitiatorOptions,
    shm_active: bool,
    in_capsule_max: usize,
    pending: CidMap<PendingIo>,
    completed: Vec<IoResult>,
    /// `(opcode, submitted_at)` of the completions not yet recorded in
    /// the latency histograms. A poll records them all with the one
    /// clock read it takes after its batch — when the caller actually
    /// sees them.
    unstamped: Vec<(Opcode, Nanos)>,
    /// Completions found while [`Initiator::wait`] looks for its cid;
    /// kept so the blocking path allocates nothing in the steady state.
    wait_buf: Vec<IoResult>,
    /// Reusable encode scratch: every control PDU is encoded here and
    /// handed to [`Transport::queue_frame`], so the steady state
    /// allocates nothing on the send side.
    scratch: BytesMut,
    /// Payload bytes described by the command capsules queued since the
    /// last flush (a read's length, a write's data) — what the
    /// submit-time flush rule weighs against the cork budget.
    queued_bytes: usize,
    /// Something queued and not yet flushed must reach the peer, so a
    /// full ring at the flush is an error. Recovery traffic alone
    /// ([`ClientState::queue_pdu_lossy`]) just waits for a later flush,
    /// as it waited for the next deadline sweep when sends were
    /// immediate.
    queued_owed: bool,
    metrics: Arc<InitiatorMetrics>,
    /// User cids whose retry budget ran out; `wait` surfaces them as
    /// [`NvmeofError::Timeout`].
    timed_out: Vec<u16>,
    /// Connection epoch: the recovery core's time zero.
    epoch: Instant,
    /// The pure recovery decision core — the exact code `oaf-mc`
    /// model-checks.
    core: InitiatorRecovery,
    /// Reusable buffer for the core's emitted actions, drained by
    /// [`ClientState::apply_actions`] (steady state allocates nothing).
    actions: Vec<Action>,
}

/// An NVMe-oF initiator over a transport.
///
/// # When a submitted command reaches the wire
///
/// Every `submit_*` *queues* its capsule on the transport
/// ([`Transport::queue_frame`]) so that a socket pays one `write` for a
/// burst, not one per command. A queued command is on the wire
///
/// * immediately, if the connection was idle (it is the only command in
///   flight) — a lone submit never waits;
/// * immediately, once the commands queued since the last flush describe
///   32 KiB of payload between them;
/// * otherwise by the end of the next [`poll`](Initiator::poll) /
///   [`poll_into`](Initiator::poll_into) (and so by the first step of
///   [`wait`](Initiator::wait)), which flush after their deadline tick.
///
/// A caller that submits behind in-flight work and then never polls again
/// has its commands flushed by [`disconnect`](Initiator::disconnect) or
/// drop. The in-region ring transport stages queued capsules the same way
/// and publishes each flush with one ring store; channel transports send
/// at once, and none of this applies to them.
pub struct Initiator<T: Transport> {
    transport: T,
    state: ClientState,
}

/// Core time at this instant: nanoseconds since `epoch`.
fn nanos_since(epoch: Instant) -> Nanos {
    duration_nanos(epoch.elapsed())
}

impl ClientState {
    /// Core time: nanoseconds since the connection epoch.
    fn now(&self) -> Nanos {
        nanos_since(self.epoch)
    }

    /// A receive callback's body: hands `frame` to `on_frame` unless an
    /// earlier frame of the batch failed, against one clock read per
    /// batch (`now`, taken at its first frame).
    #[inline]
    fn take_frame<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        frame: Frame<'_>,
        now: &mut Option<Nanos>,
        err: &mut Option<NvmeofError>,
    ) {
        if err.is_none() {
            let now = *now.get_or_insert_with(|| nanos_since(self.epoch));
            if let Err(e) = self.on_frame(transport, frame, now) {
                *err = Some(e);
            }
        }
    }

    /// Registers a new in-flight command: the recovery core allocates
    /// the wire cid and generation tag (skipping live *and*
    /// recently-retired cids) and arms the deadline; the shell mirrors
    /// the buffer state. Returns the stamped command — its cid is also
    /// the user cid, this being a first submission. The submit's one
    /// clock read.
    fn track(
        &mut self,
        mut cmd: NvmeCommand,
        read_len: usize,
        stashed_write: Option<Bytes>,
        borrow: bool,
        need: DataNeed,
    ) -> NvmeCommand {
        let now = self.now();
        let (cid, gseq) = self.core.begin(cmd.opcode, cmd.fua, need, false, now);
        cmd.cid = cid;
        cmd.gseq = gseq;
        self.pending.insert(
            cid,
            PendingIo {
                cmd,
                user_cid: cid,
                read_len,
                read_buf: Vec::new(),
                stashed_write,
                borrow,
                shm_data: None,
                got: 0,
                submitted_at: now,
                retry_payload: None,
                published_slot: None,
            },
        );
        self.metrics.submitted.inc();
        self.metrics.inflight.add(1);
        cmd
    }

    /// Encodes `pdu` into the connection scratch and queues it on the
    /// transport — the zero-allocation send path of everything the
    /// initiator originates. It is on the wire once [`flush`] runs: at
    /// the end of every poll, or earlier by [`submit_capsule`]'s rule.
    ///
    /// [`flush`]: ClientState::flush
    /// [`submit_capsule`]: ClientState::submit_capsule
    fn queue_pdu<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        pdu: &Pdu,
    ) -> Result<(), NvmeofError> {
        self.queued_owed = true;
        transport::queue_pdu(transport, pdu, &mut self.scratch)
    }

    /// Queues the capsule of a just-tracked command that describes
    /// `describes` payload bytes, and flushes when the connection was
    /// idle (the command is alone in flight) or the queued commands
    /// together describe a cork budget's worth of payload. Nagle's rule
    /// with `poll` as the ACK clock: a lone submit is on the wire when
    /// it returns, a burst behind in-flight work leaves with the next
    /// poll.
    fn submit_capsule<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        cmd: NvmeCommand,
        data: Option<DataRef>,
        describes: usize,
    ) -> Result<(), NvmeofError> {
        self.queue_pdu(transport, &Pdu::CapsuleCmd(CapsuleCmd { cmd, data }))?;
        self.queued_bytes += describes;
        if self.pending.len() <= 1 || self.queued_bytes >= transport::CORK_BUDGET {
            self.flush(transport)?;
        }
        Ok(())
    }

    /// Puts everything queued so far on the wire. A full ring is an
    /// error only while something owed is still queued.
    fn flush<T: Transport + ?Sized>(&mut self, transport: &T) -> Result<(), NvmeofError> {
        self.queued_bytes = 0;
        match transport.flush_queued() {
            Ok(()) => {
                self.queued_owed = false;
                Ok(())
            }
            Err(NvmeofError::RingFull) if !self.queued_owed => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Whether a wait on user cid `cid` can end in its result: the
    /// command is in flight (under its own cid, or a retry's wire cid),
    /// its completion waits for the next poll, or its retry budget ran
    /// out and `wait` owes the caller that timeout.
    fn awaits(&self, cid: u16) -> bool {
        self.pending.get(&cid).is_some_and(|p| p.user_cid == cid)
            || self.completed.iter().any(|r| r.cid == cid)
            || self.timed_out.contains(&cid)
            || self.pending.values().any(|p| p.user_cid == cid)
    }

    /// Like [`queue_pdu`], but treats ring congestion as transient: the
    /// recovery machinery's own traffic (aborts, heartbeats, degrade
    /// notices) must never escalate a full ring into a dead connection —
    /// the next deadline sweep simply tries again.
    ///
    /// [`queue_pdu`]: ClientState::queue_pdu
    fn queue_pdu_lossy<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        pdu: &Pdu,
    ) -> Result<(), NvmeofError> {
        match transport::queue_pdu(transport, pdu, &mut self.scratch) {
            Err(NvmeofError::RingFull) => Ok(()),
            other => other,
        }
    }

    /// Drains and executes the actions the recovery core emitted:
    /// sends, buffer moves, telemetry, completion/timeout surfacing.
    /// The buffer is reused, so the steady state allocates nothing.
    fn apply_actions<T: Transport + ?Sized>(&mut self, transport: &T) -> Result<(), NvmeofError> {
        if self.actions.is_empty() {
            return Ok(());
        }
        let mut actions = std::mem::take(&mut self.actions);
        let mut result = Ok(());
        for action in actions.drain(..) {
            if result.is_ok() {
                result = self.apply_action(transport, action);
            }
        }
        self.actions = actions;
        result
    }

    fn apply_action<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        action: Action,
    ) -> Result<(), NvmeofError> {
        match action {
            Action::Complete {
                wire_cid,
                completion,
            } => {
                self.finish_command(wire_cid, completion);
                Ok(())
            }
            Action::Resubmit {
                old_cid,
                new_cid,
                gseq,
            } => self.do_resubmit(transport, old_cid, new_cid, gseq),
            Action::SendAbort { cid, gseq } => {
                self.metrics.retries.inc();
                self.metrics.aborts_sent.inc();
                self.queue_pdu_lossy(transport, &Pdu::Abort(Abort { cid, gseq }))
            }
            Action::GiveUp { wire_cid } => {
                self.do_give_up(wire_cid);
                Ok(())
            }
            Action::SendKeepAlive {
                seq,
                missed_previous,
            } => {
                if missed_previous {
                    self.metrics.keepalive_misses.inc();
                }
                self.queue_pdu_lossy(transport, &Pdu::KeepAlive(KeepAlive { seq }))
            }
            Action::PeerDead => {
                self.metrics.keepalive_misses.inc();
                Err(NvmeofError::PeerDead)
            }
        }
    }

    /// Abandons the shared-memory payload path mid-flight: quarantines
    /// the channel, notifies the target, and executes the core's replay
    /// decisions for every in-flight shm-published command (writes with
    /// a retained payload resubmit under a fresh cid; zero-copy writes
    /// go through the abort round-trip).
    fn degrade<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        now: Nanos,
    ) -> Result<(), NvmeofError> {
        if !self.core.degrade(now, &mut self.actions) {
            return Ok(());
        }
        self.shm_active = false;
        self.metrics.degradations.inc();
        self.queue_pdu_lossy(transport, &Pdu::Degrade(Degrade { reason: 1 }))?;
        self.apply_actions(transport)?;
        // Quarantine + sweep: no new leases succeed, and published-but-
        // unconsumed slots return to the pool.
        if let Some(ch) = self.payload.as_ref() {
            ch.quarantine();
            ch.reclaim();
        }
        Ok(())
    }

    /// Executes the core's resubmit decision: re-sends the command
    /// tracked under `old_cid` as `new_cid` (the core already retired
    /// the old cid). Frees the slot the original published — the target
    /// has provably not consumed it (abort said not-applied, or the
    /// channel is quarantined and swept anyway) — and replays the
    /// payload from the retained clone over the control path, since
    /// retries prefer the conservative route.
    fn do_resubmit<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        old_cid: u16,
        new_cid: u16,
        gseq: u32,
    ) -> Result<(), NvmeofError> {
        let Some(mut io) = self.pending.remove(&old_cid) else {
            return Ok(());
        };
        if let Some((slot, _len)) = io.published_slot.take() {
            if let Some(ch) = self.payload.as_ref() {
                ch.reclaim_slot(slot);
            }
        }
        io.cmd.cid = new_cid;
        io.cmd.gseq = gseq;
        // The fresh attempt refills the buffer from byte zero.
        io.got = 0;
        io.read_buf.clear();
        let data = match io.retry_payload.clone() {
            Some(data) if data.len() <= self.in_capsule_max => Some(DataRef::Inline(data)),
            Some(data) => {
                io.stashed_write = Some(data);
                None
            }
            None => None,
        };
        let cmd = io.cmd;
        self.pending.insert(new_cid, io);
        self.metrics.retries.inc();
        self.queue_pdu_lossy(transport, &Pdu::CapsuleCmd(CapsuleCmd { cmd, data }))
    }

    /// Executes the core's give-up decision: the retry budget is spent,
    /// surface the command on the timed-out list.
    fn do_give_up(&mut self, cid: u16) {
        let Some(mut io) = self.pending.remove(&cid) else {
            return;
        };
        if let Some((slot, _len)) = io.published_slot.take() {
            if let Some(ch) = self.payload.as_ref() {
                ch.reclaim_slot(slot);
            }
        }
        self.timed_out.push(io.user_cid);
        self.metrics.timeouts.inc();
        self.metrics.inflight.sub(1);
    }

    /// Resolves wire cid `cid` with `completion` (the core has already
    /// retired the cid): settles telemetry and queues the [`IoResult`]
    /// under the user cid. Driven by [`Action::Complete`] from the
    /// in-order path, the held-completion release and the abort-ack
    /// "already applied" path alike. The latency sample waits for the
    /// poll's stamp ([`ClientState::stamp_latencies`]).
    fn finish_command(&mut self, cid: u16, completion: NvmeCompletion) {
        let Some(mut pending) = self.pending.remove(&cid) else {
            return;
        };
        self.metrics.completions.inc();
        self.metrics.inflight.sub(1);
        if !completion.status.is_ok() {
            self.metrics.errors.inc();
        }
        self.unstamped
            .push((pending.cmd.opcode, pending.submitted_at));
        if let Some((_, len)) = pending.shm_data {
            self.metrics.zero_copy_bytes.add(u64::from(len));
            self.metrics.copies_avoided.inc();
        }
        // Only a failed read can come up short; it hands back zeroes
        // past whatever arrived, as a pre-zeroed buffer would have.
        if pending.read_buf.len() < pending.read_len {
            pending.read_buf.resize(pending.read_len, 0);
        }
        self.completed.push(IoResult {
            cid: pending.user_cid,
            status: completion.status,
            data: std::mem::take(&mut pending.read_buf),
            shm: pending.shm_data.take(),
        });
    }

    /// Deadline + keep-alive pass, run once per poll at `now`, the
    /// poll's pre-batch time if it took one. Nothing when both features
    /// are off; otherwise at most one clock read, and the core's
    /// deadline sweep only runs when its scalar watermark has actually
    /// expired.
    fn tick<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        now: Option<Nanos>,
    ) -> Result<(), NvmeofError> {
        if self.opts.cmd_deadline.is_none() && self.opts.keepalive.is_none() {
            return Ok(());
        }
        let now = now.unwrap_or_else(|| self.now());
        self.core.tick(now, &mut self.actions);
        self.apply_actions(transport)
    }

    /// Records the latency of every completion resolved since the last
    /// stamp, all against one clock read.
    fn stamp_latencies(&mut self) {
        if self.unstamped.is_empty() {
            return;
        }
        let now = self.now();
        for (opcode, submitted_at) in self.unstamped.drain(..) {
            self.metrics
                .latency(opcode)
                .record(now.saturating_sub(submitted_at));
        }
    }
}

/// What one frame received during the handshake settles: the grant, or
/// a fatal error. A damaged frame settles nothing: it is dropped and the
/// (idempotent) ICReq re-asked; the target answers duplicates with the
/// same grant.
fn settle_handshake<T: Transport + ?Sized>(
    transport: &T,
    icreq: &[u8],
    frame: Frame<'_>,
) -> Option<Result<ICResp, NvmeofError>> {
    match Pdu::decode_frame(frame) {
        Ok(Pdu::ICResp(r)) => Some(Ok(r)),
        Ok(other) => Some(Err(NvmeofError::Protocol(format!(
            "expected ICResp, got {other:?}"
        )))),
        Err(NvmeofError::CorruptFrame) | Err(NvmeofError::Codec(_)) => {
            transport.send_frame(icreq).err().map(Err)
        }
        Err(e) => Some(Err(e)),
    }
}

impl<T: Transport> Initiator<T> {
    /// Connects: performs the ICReq/ICResp handshake of Fig. 5. `payload`
    /// is the hot-plugged shared-memory channel, if locality detection
    /// found one.
    pub fn connect(
        transport: T,
        opts: InitiatorOptions,
        payload: Option<Arc<dyn PayloadChannel>>,
        timeout: Duration,
    ) -> Result<Self, NvmeofError> {
        let icreq = Pdu::ICReq(ICReq {
            pfv: 1,
            maxr2t: opts.maxr2t,
            af_caps: opts.af_caps,
            host_id: opts.host_id,
        })
        .encode();
        transport.send_frame(&icreq)?;
        let deadline = Instant::now() + timeout;
        // The first frame that settles the handshake ends it.
        let mut outcome = None;
        while outcome.is_none() {
            let n = transport::recv_batch_until(
                &transport,
                deadline,
                &BackoffConfig::default(),
                &mut |f| {
                    if outcome.is_none() {
                        outcome = settle_handshake(&transport, &icreq, f);
                    }
                },
            )?;
            if n == 0 {
                return Err(NvmeofError::timeout());
            }
        }
        let resp = outcome.expect("handshake settled")?;
        let shm_active = resp.af_caps & AF_CAP_SHM != 0 && payload.is_some();
        let core = InitiatorRecovery::new(opts.recovery_config(), 0);
        Ok(Initiator {
            transport,
            state: ClientState {
                payload,
                opts,
                shm_active,
                in_capsule_max: resp.ioccsz as usize,
                pending: CidMap::default(),
                completed: Vec::new(),
                unstamped: Vec::with_capacity(64),
                wait_buf: Vec::new(),
                // Control PDUs top out well under this; sized so the
                // steady state never regrows it.
                scratch: BytesMut::with_capacity(256),
                queued_bytes: 0,
                queued_owed: false,
                metrics: InitiatorMetrics::new(),
                // Pre-sized so cold recovery paths (give-up, the abort
                // round-trip) don't pay a first-growth allocation when
                // they first fire in steady state.
                timed_out: Vec::with_capacity(16),
                epoch: Instant::now(),
                core,
                actions: Vec::with_capacity(16),
            },
        })
    }

    /// Whether the shared-memory data path was negotiated (§4.2).
    pub fn shm_active(&self) -> bool {
        self.state.shm_active
    }

    /// Negotiated in-capsule data limit.
    pub fn in_capsule_max(&self) -> usize {
        self.state.in_capsule_max
    }

    /// Number of commands in flight.
    pub fn inflight(&self) -> usize {
        self.state.pending.len()
    }

    /// This connection's metric bundle (detached until registered into
    /// a [`oaf_telemetry::Registry`] scope).
    pub fn metrics(&self) -> &Arc<InitiatorMetrics> {
        &self.state.metrics
    }

    /// Submits a write of `data` (must be `nlb * block_size` bytes).
    /// Returns the command id to match against completions. Queued: on
    /// the wire by the next `poll`/`wait`, immediately if the connection
    /// was idle (see [`Initiator`]).
    pub fn submit_write(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        data: Bytes,
    ) -> Result<u16, NvmeofError> {
        let cmd = NvmeCommand::write(0, nsid, slba, nlb);
        self.submit_with_payload(cmd, data)
    }

    /// Shared payload-bearing submit path (writes and compares): with a
    /// shared-memory channel the payload rides in-capsule as a slot
    /// reference whatever its size, otherwise it goes inline or waits
    /// for an R2T. Retains a refcount clone of the payload for
    /// deadline-driven replay, and degrades to the TCP control path if
    /// the shm publish fails mid-flight.
    fn submit_with_payload(&mut self, cmd: NvmeCommand, data: Bytes) -> Result<u16, NvmeofError> {
        let use_shm = self.state.shm_active
            && self
                .state
                .payload
                .as_ref()
                .is_some_and(|ch| data.len() <= ch.max_payload());
        let describes = data.len();
        let mut stashed = None;
        let mut published = None;
        let mut capsule_data = None;
        if use_shm {
            // Shared-memory flow control: payload parks in the region and
            // the command alone reaches the target (§4.4.2 swaps steps ①
            // and ③ of Fig. 7 and drops R2T + H2C).
            let ch = self
                .state
                .payload
                .as_ref()
                .expect("use_shm implies channel")
                .clone();
            match ch.publish(&data) {
                Ok((slot, len)) => {
                    published = Some((slot, len));
                    capsule_data = Some(DataRef::ShmSlot { slot, len });
                }
                // The slot region stalled or poisoned under us: abandon
                // it mid-flight and serve this (and everything after it)
                // over the control path.
                Err(_) => {
                    let now = self.state.now();
                    self.state.degrade(&self.transport, now)?
                }
            }
        }
        if capsule_data.is_none() {
            if data.len() <= self.state.in_capsule_max {
                capsule_data = Some(DataRef::Inline(data.clone()));
            } else {
                // Conservative flow: wait for R2T, then ship the payload
                // inline.
                stashed = Some(data.clone());
            }
        }
        let cmd = self.state.track(cmd, 0, stashed, false, DataNeed::None);
        let io = self.state.pending.get_mut(&cmd.cid).expect("just tracked");
        io.retry_payload = Some(data);
        io.published_slot = published;
        // The retained clone makes the command replayable after an abort
        // round-trip; a published slot makes it degrade-replayed.
        self.state.core.mark_replayable(cmd.cid);
        if published.is_some() {
            self.state.core.mark_published(cmd.cid);
        }
        self.state
            .submit_capsule(&self.transport, cmd, capsule_data, describes)?;
        Ok(cmd.cid)
    }

    /// Submits a write whose payload was built in place in `lease` (see
    /// [`PayloadChannel::alloc`]). The slot lease publishes over the
    /// negotiated shared-memory channel with no copy (§4.4.3): only the
    /// slot reference rides the capsule.
    pub fn submit_write_lease(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        lease: WriteLease,
    ) -> Result<u16, NvmeofError> {
        // Checked before the publish: a slot the target never looks at
        // must not enter the channel, nor count as a copy avoided.
        if !self.state.shm_active {
            return Err(NvmeofError::Protocol(
                "zero-copy write requires a negotiated shared-memory channel".into(),
            ));
        }
        let bytes = lease.len() as u64;
        let ch = self
            .state
            .payload
            .as_ref()
            .ok_or_else(|| NvmeofError::Protocol("slot lease without channel".into()))?
            .clone();
        let (slot, len) = ch.publish_lease(lease)?;
        self.state.metrics.zero_copy_bytes.add(bytes);
        self.state.metrics.copies_avoided.inc();
        let cmd = self.state.track(
            NvmeCommand::write(0, nsid, slba, nlb),
            0,
            None,
            false,
            DataNeed::None,
        );
        let cid = cmd.cid;
        // Zero-copy writes retain no payload clone — they cannot be
        // replayed, only abort-resolved — but the slot is remembered so
        // degradation/abort can reclaim it.
        self.state
            .pending
            .get_mut(&cid)
            .expect("just tracked")
            .published_slot = Some((slot, len));
        self.state.core.mark_published(cid);
        self.state.submit_capsule(
            &self.transport,
            cmd,
            Some(DataRef::ShmSlot { slot, len }),
            len as usize,
        )?;
        Ok(cid)
    }

    /// Submits a read of `nlb` blocks; the buffer is sized from
    /// `expected_len` (namespace block size × nlb). Queued: on the wire
    /// by the next `poll`/`wait`, immediately if the connection was idle
    /// (see [`Initiator`]).
    pub fn submit_read(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        expected_len: usize,
    ) -> Result<u16, NvmeofError> {
        let cmd = self.state.track(
            NvmeCommand::read(0, nsid, slba, nlb),
            expected_len,
            None,
            false,
            DataNeed::Bytes(expected_len as u32),
        );
        self.state
            .submit_capsule(&self.transport, cmd, None, expected_len)?;
        Ok(cmd.cid)
    }

    /// Submits a read whose payload the caller will *borrow* in place:
    /// if the target returns the data as a shared-memory slot reference,
    /// it is left unconsumed in the region and surfaced via
    /// [`IoResult::shm`]; call [`Initiator::consume_read_with`] on the
    /// completed result to access the bytes without a copy and free the
    /// slot (§4.4.3). Dropping the result without consuming it leaks the
    /// slot until the channel is torn down. Inline completions fall back
    /// to the buffered behavior of [`Initiator::submit_read`].
    pub fn submit_read_borrowed(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        expected_len: usize,
    ) -> Result<u16, NvmeofError> {
        let borrow = self.state.shm_active && self.state.payload.is_some();
        // A borrowed read is satisfied by *any* arrival (a parked slot
        // reference or an inline fallback chunk); a buffered read owes
        // the caller the whole transfer.
        let need = if borrow {
            DataNeed::Any
        } else {
            DataNeed::Bytes(expected_len as u32)
        };
        let cmd = self.state.track(
            NvmeCommand::read(0, nsid, slba, nlb),
            if borrow { 0 } else { expected_len },
            None,
            borrow,
            need,
        );
        self.state
            .submit_capsule(&self.transport, cmd, None, expected_len)?;
        Ok(cmd.cid)
    }

    /// Lends a completed read's payload to `f` without copying it out of
    /// the shared region (for borrowed reads that completed via a slot
    /// reference), freeing the slot afterwards. Results that carried
    /// their data inline simply lend the buffered bytes.
    pub fn consume_read_with(
        &self,
        res: &mut IoResult,
        f: &mut dyn FnMut(&[u8]),
    ) -> Result<(), NvmeofError> {
        match res.shm.take() {
            Some((slot, len)) => {
                let ch = self
                    .state
                    .payload
                    .as_ref()
                    .ok_or_else(|| NvmeofError::Protocol("shm read without channel".into()))?;
                ch.consume_with(slot, len, f)
            }
            None => {
                f(&res.data);
                Ok(())
            }
        }
    }

    /// Submits a compare: the target checks `data` against the stored
    /// blocks and completes with `CompareFailure` on mismatch. The
    /// payload rides whatever channel writes would (in-capsule, R2T, or
    /// shared-memory slot).
    pub fn submit_compare(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        data: Bytes,
    ) -> Result<u16, NvmeofError> {
        let cmd = NvmeCommand::compare(0, nsid, slba, nlb);
        self.submit_with_payload(cmd, data)
    }

    /// Submits a write-zeroes over `nlb` blocks (no payload transfer).
    pub fn submit_write_zeroes(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
    ) -> Result<u16, NvmeofError> {
        let cmd = self.state.track(
            NvmeCommand::write_zeroes(0, nsid, slba, nlb),
            0,
            None,
            false,
            DataNeed::None,
        );
        self.state.submit_capsule(&self.transport, cmd, None, 0)?;
        Ok(cmd.cid)
    }

    /// Submits a Dataset Management deallocate (TRIM) over `nlb` blocks
    /// (no payload transfer). On a durable target store the range is
    /// journaled and reads back as zeroes.
    pub fn submit_trim(&mut self, nsid: u32, slba: u64, nlb: u32) -> Result<u16, NvmeofError> {
        let cmd = self.state.track(
            NvmeCommand::trim(0, nsid, slba, nlb),
            0,
            None,
            false,
            DataNeed::None,
        );
        self.state.submit_capsule(&self.transport, cmd, None, 0)?;
        Ok(cmd.cid)
    }

    /// Submits a write with Force Unit Access: the completion is not
    /// posted until the payload is durable on the target's media.
    pub fn submit_write_fua(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        data: Bytes,
    ) -> Result<u16, NvmeofError> {
        let cmd = NvmeCommand::write_fua(0, nsid, slba, nlb);
        self.submit_with_payload(cmd, data)
    }

    /// Submits a flush.
    pub fn submit_flush(&mut self, nsid: u32) -> Result<u16, NvmeofError> {
        let cmd = self
            .state
            .track(NvmeCommand::flush(0, nsid), 0, None, false, DataNeed::None);
        self.state.submit_capsule(&self.transport, cmd, None, 0)?;
        Ok(cmd.cid)
    }

    /// Polls the transport once, draining every frame that is already
    /// ready in one batched pass (one Acquire/Release pair on ring
    /// transports); completed I/Os are moved to the internal completion
    /// list and returned. Also runs one deadline/keep-alive tick, so
    /// callers that only ever `poll` still get retries, timeouts and
    /// peer-death detection.
    pub fn poll(&mut self) -> Result<Vec<IoResult>, NvmeofError> {
        let mut out = Vec::new();
        self.poll_into(&mut out)?;
        Ok(out)
    }

    /// Like [`Initiator::poll`], but appends completions to `out`
    /// instead of returning a fresh vector, so a caller that retains its
    /// buffer keeps the completion path allocation-free. Returns how
    /// many completions were appended.
    ///
    /// A poll reads the clock at most twice: once when its first frame
    /// arrives (or for the tick, if timers are on), as the time of every
    /// frame in the batch, and once after the batch to stamp the
    /// latency of the completions it hands back.
    pub fn poll_into(&mut self, out: &mut Vec<IoResult>) -> Result<usize, NvmeofError> {
        let transport = &self.transport;
        let state = &mut self.state;
        let mut now = None;
        let mut err = None;
        transport
            .recv_batch(&mut |frame| state.take_frame(transport, frame, &mut now, &mut err))?;
        if let Some(e) = err {
            return Err(e);
        }
        state.tick(transport, now)?;
        // Whatever this poll queued — recovery traffic from `tick`,
        // echoes, commands submitted since the last poll — leaves now.
        state.flush(transport)?;
        state.stamp_latencies();
        let n = state.completed.len();
        out.append(&mut state.completed);
        Ok(n)
    }

    /// Drains the user cids whose retry budget ran out since the last
    /// call. Callers driving the connection via [`Initiator::poll`]
    /// should check this; [`Initiator::wait`] consumes it internally and
    /// surfaces the awaited cid as [`NvmeofError::Timeout`].
    pub fn take_timed_out(&mut self) -> Vec<u16> {
        std::mem::take(&mut self.state.timed_out)
    }

    /// Polls until `cid` completes or `timeout` elapses, descending the
    /// spin→yield→sleep ladder of the default [`BackoffConfig`] while
    /// the transport stays quiet — the ladder every blocking wait of the
    /// fabric runs.
    ///
    /// A `cid` that is not in flight (already returned, or never issued)
    /// can never complete, so it fails at once with
    /// [`NvmeofError::UnknownCid`].
    pub fn wait(&mut self, cid: u16, timeout: Duration) -> Result<IoResult, NvmeofError> {
        if !self.state.awaits(cid) {
            return Err(NvmeofError::UnknownCid { cid });
        }
        let mut ladder = WaitLadder::until(Instant::now() + timeout, &BackoffConfig::default());
        let mut done = std::mem::take(&mut self.state.wait_buf);
        let result = self.wait_in(cid, &mut ladder, &mut done);
        // Everything else that completed meanwhile goes to the next poll.
        self.state.completed.append(&mut done);
        self.state.wait_buf = done;
        result
    }

    /// [`Initiator::wait`]'s loop: polls into `done` until `cid` is
    /// among the completions there (and takes it out), times out, or
    /// the ladder expires.
    fn wait_in(
        &mut self,
        cid: u16,
        ladder: &mut WaitLadder,
        done: &mut Vec<IoResult>,
    ) -> Result<IoResult, NvmeofError> {
        loop {
            self.poll_into(done)?;
            if let Some(pos) = done.iter().position(|r| r.cid == cid) {
                return Ok(done.remove(pos));
            }
            if let Some(pos) = self.state.timed_out.iter().position(|&c| c == cid) {
                self.state.timed_out.swap_remove(pos);
                return Err(NvmeofError::Timeout { cid: Some(cid) });
            }
            match ladder.step() {
                WaitStep::Expired => return Err(NvmeofError::timeout()),
                WaitStep::Again => {}
                WaitStep::Sleep(d) => {
                    // Frames that end the slice are handled here; the
                    // next poll ticks, flushes and collects them.
                    let (transport, state) = (&self.transport, &mut self.state);
                    let (mut now, mut err) = (None, None);
                    transport::recv_batch_until(
                        transport,
                        Instant::now() + d,
                        &BackoffConfig::default(),
                        &mut |f| state.take_frame(transport, f, &mut now, &mut err),
                    )?;
                    if let Some(e) = err {
                        return Err(e);
                    }
                }
            }
        }
    }
}

impl ClientState {
    fn on_c2h_data<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        d: DataPduView<'_>,
        now: Nanos,
    ) -> Result<(), NvmeofError> {
        let Some(pending) = self.pending.get_mut(&d.cid) else {
            if self.core.is_retired_cid(d.cid) {
                self.metrics.stale_frames.inc();
                // A stale shm reference must still be drained or its
                // slot leaks until the next reclaim sweep.
                if let DataView::ShmSlot { slot, len } = d.data {
                    if let Some(ch) = self.payload.as_ref() {
                        let _ = ch.consume_with(slot, len, &mut |_| {});
                    }
                }
                return Ok(());
            }
            return Err(NvmeofError::Protocol(format!(
                "C2H data for unknown cid {}",
                d.cid
            )));
        };
        let off = d.offset as usize;
        let mut consume_failed = false;
        let mut arrival = None;
        match d.data {
            DataView::Inline(b) => {
                let op = pending.cmd.opcode;
                if op == Opcode::Identify || op == Opcode::Flush {
                    pending.got = b.len().max(1);
                    pending.read_buf = b.to_vec();
                    arrival = Some(DataArrival::All);
                } else {
                    // A buffered read owes exactly `read_len` bytes. A
                    // borrowed read the target answered inline anyway
                    // (e.g. the payload exceeded the slot size) buffers
                    // whatever arrives as a fallback.
                    if !pending.borrow && off + b.len() > pending.read_len {
                        return Err(NvmeofError::Protocol("C2H data beyond read buffer".into()));
                    }
                    let total = pending.read_len.max(off + b.len());
                    land_chunk(&mut pending.read_buf, total, off, b);
                    if off <= pending.got {
                        pending.got = pending.got.max(off + b.len());
                    }
                    arrival = Some(DataArrival::Chunk {
                        offset: d.offset,
                        len: b.len() as u32,
                    });
                }
            }
            DataView::ShmSlot { slot, len } => {
                if pending.borrow {
                    // Zero-copy: park the reference; the caller borrows
                    // the bytes via consume_read_with.
                    pending.shm_data = Some((slot, len));
                    arrival = Some(DataArrival::All);
                } else {
                    let ch = self
                        .payload
                        .as_ref()
                        .ok_or_else(|| NvmeofError::Protocol("shm ref without channel".into()))?;
                    if off + len as usize > pending.read_len {
                        return Err(NvmeofError::Protocol(
                            "C2H shm data beyond read buffer".into(),
                        ));
                    }
                    // Straight from the slot into the never-zeroed read
                    // buffer, the way inline chunks land.
                    let total = pending.read_len;
                    let buf = &mut pending.read_buf;
                    consume_failed = ch
                        .consume_with(slot, len, &mut |bytes| land_chunk(buf, total, off, bytes))
                        .is_err();
                    if !consume_failed {
                        if off <= pending.got {
                            pending.got = pending.got.max(off + len as usize);
                        }
                        arrival = Some(DataArrival::Chunk {
                            offset: d.offset,
                            len,
                        });
                    }
                }
            }
        }
        if consume_failed {
            // The region died with the payload inside: abandon shm and
            // re-fetch this read over TCP.
            self.degrade(transport, now)?;
            self.core.retry(d.cid, now, &mut self.actions);
            self.apply_actions(transport)?;
        } else if let Some(arrival) = arrival {
            // The core advances its contiguous-prefix watermark and
            // releases a held completion once the transfer is whole.
            self.core.on_data(d.cid, arrival, &mut self.actions);
            self.apply_actions(transport)?;
        }
        Ok(())
    }

    /// Handles one received frame; `now` is the time of the batch it
    /// arrived in.
    fn on_frame<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        frame: Frame<'_>,
        now: Nanos,
    ) -> Result<(), NvmeofError> {
        // C2H payload bytes stay borrowed from the frame (for a socket,
        // the transport's receive window) until they land in the read
        // buffer.
        let view = match PduView::decode(frame.as_slice()) {
            Ok(view) => view,
            // Bit damage is dropped, not fatal: the sender's own
            // deadline machinery re-covers the lost frame.
            Err(NvmeofError::CorruptFrame) | Err(NvmeofError::Codec(_)) => {
                self.metrics.corrupt_frames.inc();
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        // Any decoded traffic proves the peer alive.
        self.core.on_rx(now);
        let pdu = match view {
            PduView::C2HData(d) => return self.on_c2h_data(transport, d, now),
            PduView::Control(pdu) => pdu,
            other => {
                return Err(NvmeofError::Protocol(format!(
                    "unexpected PDU at initiator: {other:?}"
                )))
            }
        };
        match pdu {
            Pdu::R2T(r2t) => {
                let Some(pending) = self.pending.get_mut(&r2t.cid) else {
                    if self.core.is_retired_cid(r2t.cid) {
                        self.metrics.stale_frames.inc();
                        return Ok(());
                    }
                    return Err(NvmeofError::Protocol(format!(
                        "R2T for unknown cid {}",
                        r2t.cid
                    )));
                };
                // A duplicated command capsule can provoke a second R2T
                // after the stash was consumed; replay from the retained
                // payload (same bytes, same LBA — idempotent).
                let data = match pending
                    .stashed_write
                    .take()
                    .or_else(|| pending.retry_payload.clone())
                {
                    Some(data) => data,
                    None => return Err(NvmeofError::Protocol("R2T without stashed data".into())),
                };
                if (r2t.len as usize) < data.len() {
                    return Err(NvmeofError::Protocol(
                        "R2T grant smaller than payload".into(),
                    ));
                }
                let use_shm = self.shm_active
                    && self
                        .payload
                        .as_ref()
                        .is_some_and(|ch| data.len() <= ch.max_payload());
                let dref = if use_shm {
                    // Fig. 7 step ③/④: copy payload to shared memory, send
                    // the location as the H2C notification.
                    let ch = self.payload.as_ref().expect("channel").clone();
                    match ch.publish(&data) {
                        Ok((slot, len)) => {
                            self.pending
                                .get_mut(&r2t.cid)
                                .expect("still pending")
                                .published_slot = Some((slot, len));
                            self.core.mark_published(r2t.cid);
                            DataRef::ShmSlot { slot, len }
                        }
                        Err(_) => {
                            // Region died between grant and publish:
                            // degrade and ship the payload inline.
                            self.degrade(transport, now)?;
                            DataRef::Inline(data)
                        }
                    }
                } else {
                    DataRef::Inline(data)
                };
                match dref {
                    // Large inline payloads are split into pipelined
                    // sub-requests of `write_chunk` bytes (§4.5, Fig. 9).
                    // The grant covers the whole payload, so the chunks
                    // stream back-to-back without further R2Ts; only the
                    // final one carries the LAST flag and the target
                    // completes on it (or on the byte count).
                    DataRef::Inline(data)
                        if self.opts.write_chunk > 0 && data.len() > self.opts.write_chunk =>
                    {
                        let chunk = self.opts.write_chunk;
                        let total = data.len();
                        let mut off = 0usize;
                        let mut sent = 0u64;
                        while off < total {
                            let end = (off + chunk).min(total);
                            // Data PDUs take the transport's vectored
                            // `[prefix, payload]` send where it has one.
                            transport::send_pdu(
                                transport,
                                &Pdu::H2CData(DataPdu {
                                    cid: r2t.cid,
                                    ttag: r2t.ttag,
                                    offset: off as u32,
                                    last: end == total,
                                    data: DataRef::Inline(data.slice(off..end)),
                                }),
                                &mut self.scratch,
                            )?;
                            off = end;
                            sent += 1;
                        }
                        self.metrics.chunks_per_io.record(sent);
                        self.metrics.h2c_chunks.add(sent);
                    }
                    dref => {
                        transport::send_pdu(
                            transport,
                            &Pdu::H2CData(DataPdu {
                                cid: r2t.cid,
                                ttag: r2t.ttag,
                                offset: 0,
                                last: true,
                                data: dref,
                            }),
                            &mut self.scratch,
                        )?;
                        self.metrics.h2c_chunks.inc();
                    }
                }
            }
            Pdu::CapsuleResp(r) => {
                let wire_cid = r.completion.cid;
                // The core decides: hold a success completion that
                // overtook the data it vouches for (a reordering fabric
                // can do that — completing now would hand back a stale
                // buffer), or resolve the command.
                let handled = self
                    .core
                    .on_completion(wire_cid, r.completion, &mut self.actions);
                if !handled {
                    if self.core.is_retired_cid(wire_cid) {
                        self.metrics.stale_frames.inc();
                        return Ok(());
                    }
                    return Err(NvmeofError::Protocol(format!(
                        "completion for unknown cid {wire_cid}"
                    )));
                }
                self.apply_actions(transport)?;
            }
            Pdu::KeepAlive(ka) => {
                // Heartbeat from the peer: echo it.
                self.queue_pdu_lossy(transport, &Pdu::KeepAliveAck(KeepAlive { seq: ka.seq }))?;
            }
            Pdu::KeepAliveAck(_) => {
                self.core.on_keepalive_ack();
            }
            Pdu::AbortAck(ack) => {
                // The core resolves the round-trip: applied → complete
                // with the status the target kept; not applied →
                // resubmit under a fresh cid (the payload replays from
                // the retained clone) or give up when nothing can
                // replay (zero-copy published writes).
                let handled = self.core.on_abort_ack(
                    ack.cid,
                    ack.applied,
                    ack.completion,
                    now,
                    &mut self.actions,
                );
                if !handled {
                    // Late or duplicate ack for a resolved round-trip.
                    self.metrics.stale_frames.inc();
                    return Ok(());
                }
                self.apply_actions(transport)?;
            }
            Pdu::Degrade(_) => {
                // Target-initiated degradation: abandon the shm path from
                // this side too (idempotent if we already did).
                self.degrade(transport, now)?;
            }
            Pdu::ICResp(_) => {
                // Duplicate handshake answer (the connect loop re-asks
                // after a corrupt frame); the grant was already taken.
                self.metrics.stale_frames.inc();
            }
            other => {
                return Err(NvmeofError::Protocol(format!(
                    "unexpected PDU at initiator: {other:?}"
                )))
            }
        }
        Ok(())
    }
}

impl<T: Transport> Initiator<T> {
    /// Blocking write convenience wrapper.
    pub fn write_blocking(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        data: Bytes,
        timeout: Duration,
    ) -> Result<(), NvmeofError> {
        let cid = self.submit_write(nsid, slba, nlb, data)?;
        let result = self.wait(cid, timeout)?;
        if result.status.is_ok() {
            Ok(())
        } else {
            Err(NvmeofError::Nvme(result.status))
        }
    }

    /// Blocking read convenience wrapper.
    pub fn read_blocking(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        expected_len: usize,
        timeout: Duration,
    ) -> Result<Vec<u8>, NvmeofError> {
        let cid = self.submit_read(nsid, slba, nlb, expected_len)?;
        let result = self.wait(cid, timeout)?;
        if result.status.is_ok() {
            Ok(result.data)
        } else {
            Err(NvmeofError::Nvme(result.status))
        }
    }

    /// Queries namespace geometry.
    pub fn identify(&mut self, nsid: u32, timeout: Duration) -> Result<IdentifyInfo, NvmeofError> {
        let cmd = self.state.track(
            NvmeCommand {
                cid: 0,
                opcode: Opcode::Identify,
                nsid,
                slba: 0,
                nlb: 0,
                fua: false,
                gseq: 0,
            },
            0,
            None,
            false,
            // Identify data arrives as one inline chunk of unpredictable
            // size; any arrival satisfies it.
            DataNeed::Any,
        );
        self.state.submit_capsule(&self.transport, cmd, None, 0)?;
        let result = self.wait(cmd.cid, timeout)?;
        if !result.status.is_ok() {
            return Err(NvmeofError::Nvme(result.status));
        }
        IdentifyInfo::from_bytes(&result.data)
            .ok_or_else(|| NvmeofError::Codec("identify payload malformed".into()))
    }

    /// Sends a termination request, behind anything still queued.
    pub fn disconnect(&mut self) -> Result<(), NvmeofError> {
        self.state.queue_pdu(
            &self.transport,
            &Pdu::TermReq(crate::pdu::TermReq { reason: 0 }),
        )?;
        self.state.flush(&self.transport)
    }
}

impl<T: Transport> Drop for Initiator<T> {
    /// Commands queued behind in-flight work and never polled again
    /// still leave before the transport closes.
    fn drop(&mut self) {
        let _ = self.transport.flush_queued();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvme::controller::Controller;
    use crate::nvme::namespace::Namespace;
    use crate::payload::ShmPayloadChannel;
    use crate::target::{spawn_target, TargetConfig};
    use crate::transport::ShmTransport;

    const TIMEOUT: Duration = Duration::from_secs(5);
    /// Ring bytes per direction: a 128 KiB inline chunk fits a frame.
    const RING: u64 = 1 << 20;

    fn setup(
        opts: InitiatorOptions,
        cfg: TargetConfig,
        channels: Option<(Arc<dyn PayloadChannel>, Arc<dyn PayloadChannel>)>,
    ) -> (Initiator<ShmTransport>, crate::target::TargetHandle) {
        let (ct, tt) = ShmTransport::pair(RING);
        let mut ctrl = Controller::new();
        ctrl.add_namespace(Namespace::new(1, 4096, 4096));
        let (client_ch, target_ch) = match channels {
            Some((c, t)) => (Some(c), Some(t)),
            None => (None, None),
        };
        let handle = spawn_target(tt, ctrl, cfg, target_ch);
        let ini = Initiator::connect(ct, opts, client_ch, TIMEOUT).unwrap();
        (ini, handle)
    }

    #[test]
    fn end_to_end_write_read_inline() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        assert!(!ini.shm_active());
        let data = Bytes::from(vec![0x42u8; 128 * 1024]);
        ini.write_blocking(1, 0, 32, data.clone(), TIMEOUT).unwrap();
        let back = ini.read_blocking(1, 0, 32, 128 * 1024, TIMEOUT).unwrap();
        assert_eq!(back, data);
        handle.shutdown().unwrap();
    }

    #[test]
    fn small_write_goes_in_capsule() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        let data = Bytes::from(vec![7u8; 4096]);
        ini.write_blocking(1, 5, 1, data.clone(), TIMEOUT).unwrap();
        let back = ini.read_blocking(1, 5, 1, 4096, TIMEOUT).unwrap();
        assert_eq!(back, data);
        handle.shutdown().unwrap();
    }

    #[test]
    fn shm_negotiation_and_io() {
        let (c, t) = ShmPayloadChannel::pair(16, 256 * 1024);
        let opts = InitiatorOptions {
            af_caps: AF_CAP_SHM,
            ..InitiatorOptions::default()
        };
        let (mut ini, handle) = setup(
            opts,
            TargetConfig::default(),
            Some((c as Arc<dyn PayloadChannel>, t as Arc<dyn PayloadChannel>)),
        );
        assert!(ini.shm_active());
        let data = Bytes::from(vec![0x99u8; 256 * 1024]);
        ini.write_blocking(1, 0, 64, data.clone(), TIMEOUT).unwrap();
        let back = ini.read_blocking(1, 0, 64, 256 * 1024, TIMEOUT).unwrap();
        assert_eq!(back, data);
        handle.shutdown().unwrap();
    }

    #[test]
    fn lease_write_and_borrowed_read() {
        let (c, t) = ShmPayloadChannel::pair(16, 64 * 1024);
        let opts = InitiatorOptions {
            af_caps: AF_CAP_SHM,
            ..InitiatorOptions::default()
        };
        let (mut ini, handle) = setup(
            opts,
            TargetConfig::default(),
            Some((
                c.clone() as Arc<dyn PayloadChannel>,
                t as Arc<dyn PayloadChannel>,
            )),
        );
        assert!(ini.shm_active());

        // Build the payload directly in a slot leased from the channel.
        let mut lease = c.alloc(64 * 1024).unwrap();
        for (i, b) in lease.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let expect: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
        let cid = ini.submit_write_lease(1, 0, 16, lease).unwrap();
        assert!(ini.wait(cid, TIMEOUT).unwrap().status.is_ok());
        // The slot itself was published: nothing was copied.
        assert_eq!(ini.metrics().copies_avoided.get(), 1);
        assert_eq!(ini.metrics().zero_copy_bytes.get(), 64 * 1024);

        // Borrow the read payload in place instead of copying it out.
        let cid = ini.submit_read_borrowed(1, 0, 16, 64 * 1024).unwrap();
        let mut res = ini.wait(cid, TIMEOUT).unwrap();
        assert!(res.status.is_ok());
        assert!(res.shm.is_some(), "borrowed read should park a slot ref");
        assert!(res.data.is_empty());
        let mut seen = Vec::new();
        ini.consume_read_with(&mut res, &mut |b| seen.extend_from_slice(b))
            .unwrap();
        assert_eq!(seen, expect);
        assert_eq!(res.shm, None, "consumption clears the reference");
        handle.shutdown().unwrap();
    }

    #[test]
    fn zero_copy_write_publishes_only_over_a_negotiated_channel() {
        const LEN: usize = 4096;
        // Real slot leases from the channel's Buffer Manager.
        let slot_lease = |c: &ShmPayloadChannel, fill: u8| {
            let mut lease = c.alloc(LEN).expect("slot lease");
            lease.fill(fill);
            lease
        };
        let opts = InitiatorOptions {
            af_caps: AF_CAP_SHM,
            ..InitiatorOptions::default()
        };

        // Negotiated: the slot reference rides the capsule.
        let (c, t) = ShmPayloadChannel::pair(16, 64 * 1024);
        let (mut ini, handle) = setup(
            opts.clone(),
            TargetConfig::default(),
            Some((
                c.clone() as Arc<dyn PayloadChannel>,
                t as Arc<dyn PayloadChannel>,
            )),
        );
        assert!(ini.shm_active());
        let cid = ini
            .submit_write_lease(1, 3, 1, slot_lease(&c, 0xa5))
            .unwrap();
        assert!(ini.wait(cid, TIMEOUT).unwrap().status.is_ok());
        assert_eq!(ini.metrics().copies_avoided.get(), 1);
        assert_eq!(ini.metrics().zero_copy_bytes.get(), LEN as u64);
        let back = ini.read_blocking(1, 3, 1, LEN, TIMEOUT).unwrap();
        assert!(back.iter().all(|&b| b == 0xa5));
        handle.shutdown().unwrap();

        // The target granted no channel: the write errs before anything
        // is published or counted.
        let (c, t) = ShmPayloadChannel::pair(16, 64 * 1024);
        let (ct, tt) = ShmTransport::pair(RING);
        let mut ctrl = Controller::new();
        ctrl.add_namespace(Namespace::new(1, 4096, 4096));
        let handle = spawn_target(tt, ctrl, TargetConfig::default(), None);
        let mut ini = Initiator::connect(
            ct,
            opts,
            Some(c.clone() as Arc<dyn PayloadChannel>),
            TIMEOUT,
        )
        .unwrap();
        assert!(!ini.shm_active());
        assert!(ini
            .submit_write_lease(1, 3, 1, slot_lease(&c, 0x5a))
            .is_err());
        for slot in 0..16 {
            assert!(t.consume_with(slot, LEN as u32, &mut |_| ()).is_err());
        }
        assert_eq!(ini.metrics().copies_avoided.get(), 0);
        assert_eq!(ini.metrics().zero_copy_bytes.get(), 0);
        handle.shutdown().unwrap();
    }

    #[test]
    fn queue_depth_pipelining() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        let qd = 32;
        let mut cids = Vec::new();
        for i in 0..qd {
            let data = Bytes::from(vec![i as u8; 4096]);
            cids.push(ini.submit_write(1, i as u64, 1, data).unwrap());
        }
        assert_eq!(ini.inflight(), qd);
        let mut done = 0;
        let deadline = Instant::now() + TIMEOUT;
        while done < qd && Instant::now() < deadline {
            done += ini.poll().unwrap().len();
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(done, qd);
        // Verify contents round-trip.
        for i in 0..qd {
            let back = ini.read_blocking(1, i as u64, 1, 4096, TIMEOUT).unwrap();
            assert!(back.iter().all(|&b| b == i as u8), "lba {i} corrupt");
        }
        handle.shutdown().unwrap();
    }

    #[test]
    fn compare_and_write_zeroes_end_to_end() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        let data = Bytes::from(vec![0x7du8; 4096]);
        ini.write_blocking(1, 9, 1, data.clone(), TIMEOUT).unwrap();

        // Matching compare succeeds.
        let cid = ini.submit_compare(1, 9, 1, data).unwrap();
        assert!(ini.wait(cid, TIMEOUT).unwrap().status.is_ok());
        // Mismatch fails with CompareFailure.
        let cid = ini
            .submit_compare(1, 9, 1, Bytes::from(vec![0u8; 4096]))
            .unwrap();
        assert_eq!(
            ini.wait(cid, TIMEOUT).unwrap().status,
            Status::CompareFailure
        );

        // Write-zeroes clears the range; the compare against zeros now
        // passes.
        let cid = ini.submit_write_zeroes(1, 9, 1).unwrap();
        assert!(ini.wait(cid, TIMEOUT).unwrap().status.is_ok());
        let cid = ini
            .submit_compare(1, 9, 1, Bytes::from(vec![0u8; 4096]))
            .unwrap();
        assert!(ini.wait(cid, TIMEOUT).unwrap().status.is_ok());

        // Each opcode lands in its own latency histogram.
        let registry = oaf_telemetry::Registry::new();
        ini.metrics().register(&registry.scope("client"));
        let snap = registry.snapshot();
        let count = |name: &str| snap.histo("client", name).map(|h| h.count);
        assert_eq!(count("lat_compare_ns"), Some(3));
        assert_eq!(count("lat_write_zeroes_ns"), Some(1));
        handle.shutdown().unwrap();
    }

    #[test]
    fn large_compare_uses_conservative_flow() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        let data = Bytes::from(vec![0x3eu8; 64 * 1024]);
        ini.write_blocking(1, 32, 16, data.clone(), TIMEOUT)
            .unwrap();
        // 64 KiB > ioccsz: the compare payload goes via R2T + H2C.
        let cid = ini.submit_compare(1, 32, 16, data).unwrap();
        assert!(ini.wait(cid, TIMEOUT).unwrap().status.is_ok());
        handle.shutdown().unwrap();
    }

    #[test]
    fn identify_returns_geometry() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        let info = ini.identify(1, TIMEOUT).unwrap();
        assert_eq!(info.block_size, 4096);
        assert_eq!(info.capacity_blocks, 4096);
        handle.shutdown().unwrap();
    }

    #[test]
    fn nvme_error_surfaces() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        let err = ini.read_blocking(1, 10_000, 1, 4096, TIMEOUT).unwrap_err();
        assert!(matches!(err, NvmeofError::Nvme(Status::LbaOutOfRange)));
        handle.shutdown().unwrap();
    }

    #[test]
    fn flush_completes() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        let cid = ini.submit_flush(1).unwrap();
        let r = ini.wait(cid, TIMEOUT).unwrap();
        assert!(r.status.is_ok());
        handle.shutdown().unwrap();
    }

    #[test]
    fn disconnect_stops_target() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        ini.disconnect().unwrap();
        handle.shutdown().unwrap();
    }
}
