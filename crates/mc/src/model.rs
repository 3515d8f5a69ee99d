//! The model: two real recovery cores, two message queues, and a
//! transition relation over deliveries, faults and timer firings.
//!
//! The *shells* (payload buffers, shared-memory slots, wire codecs) are
//! abstracted into a handful of bookkeeping maps, but the *decisions*
//! are made by the exact [`InitiatorRecovery`]/[`TargetRecovery`] code
//! the production reactors run — the checker cannot drift from the
//! implementation because it executes the implementation.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use oaf_chaos::FaultKind;
use oaf_nvmeof::nvme::command::Opcode;
use oaf_nvmeof::nvme::completion::{NvmeCompletion, Status};
use oaf_nvmeof::recovery::{
    Action, DataArrival, DataNeed, InitiatorRecovery, Nanos, RecoveryConfig, TargetRecovery,
};

use crate::invariant::Violation;

/// Payload granularity of a modeled read: each controller→host data
/// frame carries one chunk of this many bytes.
pub const CHUNK: u32 = 2048;

/// The command shapes a scenario can put in flight. Each maps onto a
/// real opcode with the data-need and barrier semantics the initiator
/// shell would derive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmdKind {
    /// A buffered read: owes `data_chunks × CHUNK` contiguous bytes
    /// before its success completion may be delivered.
    Read,
    /// A plain write (payload clone retained, so replayable after an
    /// abort round-trip).
    Write,
    /// A force-unit-access write: barrier-class, so its deadline carries
    /// the barrier grace.
    WriteFua,
    /// A flush: barrier-class, no data either way.
    Flush,
    /// Write-zeroes: mutating but fully described by the command itself.
    WriteZeroes,
}

impl CmdKind {
    /// The NVMe opcode the shell would stamp.
    pub fn opcode(self) -> Opcode {
        match self {
            CmdKind::Read => Opcode::Read,
            CmdKind::Write | CmdKind::WriteFua => Opcode::Write,
            CmdKind::Flush => Opcode::Flush,
            CmdKind::WriteZeroes => Opcode::WriteZeroes,
        }
    }

    /// Force-unit-access flag.
    pub fn fua(self) -> bool {
        matches!(self, CmdKind::WriteFua)
    }

    /// Whether executing it changes namespace state (double-apply is a
    /// violation only for these).
    pub fn mutates(self) -> bool {
        self.opcode().mutates()
    }

    /// Payload owed by the controller before completion.
    pub fn need(self, data_chunks: u32) -> DataNeed {
        match self {
            CmdKind::Read => DataNeed::Bytes(data_chunks * CHUNK),
            _ => DataNeed::None,
        }
    }
}

/// Which way a queued message is traveling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Initiator → target (commands, aborts, keep-alive probes).
    I2T,
    /// Target → initiator (data, responses, acks).
    T2I,
}

impl Dir {
    fn idx(self) -> usize {
        match self {
            Dir::I2T => 0,
            Dir::T2I => 1,
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Dir::I2T => "i→t",
            Dir::T2I => "t→i",
        })
    }
}

/// An abstract wire frame. One model message corresponds to one real
/// fabric frame, so a fault on message `seq` converts into a scripted
/// fault on fresh-frame index `seq` at the receiving endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Msg {
    /// A command capsule for logical command `slot` under attempt
    /// `(cid, gseq)`.
    Cmd {
        /// Wire cid of this attempt.
        cid: u16,
        /// Generation tag of this attempt.
        gseq: u32,
        /// Logical command index in the scenario.
        slot: usize,
    },
    /// An abort capsule for attempt `(cid, gseq)`.
    Abort {
        /// Wire cid being aborted.
        cid: u16,
        /// Generation of the aborted attempt.
        gseq: u32,
    },
    /// A keep-alive probe.
    KeepAlive {
        /// Heartbeat sequence number.
        seq: u64,
    },
    /// One controller→host payload chunk for `cid`.
    Data {
        /// Wire cid the chunk belongs to.
        cid: u16,
        /// Byte offset within the transfer.
        offset: u32,
        /// Chunk length in bytes.
        len: u32,
    },
    /// A response capsule for `cid`.
    Resp {
        /// Wire cid being completed.
        cid: u16,
        /// Success or error status.
        ok: bool,
    },
    /// An abort acknowledgement for `cid`.
    AbortAck {
        /// Wire cid the abort named.
        cid: u16,
        /// Whether the original command had already executed.
        applied: bool,
        /// Status of the accompanying completion.
        ok: bool,
    },
    /// A keep-alive acknowledgement.
    KeepAliveAck,
}

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Msg::Cmd { cid, gseq, slot } => write!(f, "Cmd#{slot}(cid={cid},g={gseq})"),
            Msg::Abort { cid, gseq } => write!(f, "Abort(cid={cid},g={gseq})"),
            Msg::KeepAlive { seq } => write!(f, "KeepAlive(#{seq})"),
            Msg::Data { cid, offset, len } => write!(f, "Data(cid={cid},{offset}+{len})"),
            Msg::Resp { cid, ok } => write!(f, "Resp(cid={cid},ok={ok})"),
            Msg::AbortAck { cid, applied, .. } => {
                write!(f, "AbortAck(cid={cid},applied={applied})")
            }
            Msg::KeepAliveAck => write!(f, "KeepAliveAck"),
        }
    }
}

/// How many of each fault the schedule may spend. Small budgets keep
/// the state space finite while still covering every *placement* of the
/// faults among the interleavings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct FaultBudget {
    /// Frames that may be silently discarded.
    pub drops: u8,
    /// Out-of-order deliveries (each message overtaken costs one).
    pub reorders: u8,
    /// Frames that may be delivered twice.
    pub duplicates: u8,
    /// Frames that may be corrupted (the CRC catches them, so the
    /// receiver sees a gap, not garbage).
    pub corrupts: u8,
}

/// How the modeled target makes barrier-class commands durable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SyncMode {
    /// A barrier's completion is queued the moment its command is
    /// delivered — a RAM namespace, whose barriers complete at dispatch.
    #[default]
    Inline,
    /// The async durability pipeline: a delivered barrier *applies* but
    /// its completion parks until a [`Transition::SyncComplete`] drains
    /// the sync worker. `fail_budget` bounds how many drains may report
    /// an fsync error (each failed drain costs one).
    Offloaded {
        /// Sync drains the adversary may fail.
        fail_budget: u8,
    },
}

impl FaultBudget {
    /// No faults at all: pure interleaving + timer exploration.
    pub fn none() -> Self {
        FaultBudget::default()
    }

    /// `n` faults of exactly one kind.
    pub fn only(kind: FaultKind, n: u8) -> Self {
        let mut b = FaultBudget::none();
        match kind {
            FaultKind::Drop => b.drops = n,
            FaultKind::Reorder => b.reorders = n,
            FaultKind::Duplicate => b.duplicates = n,
            FaultKind::Corrupt => b.corrupts = n,
            _ => {}
        }
        b
    }
}

/// One checking job: which commands start in flight, how the recovery
/// core is tuned, and what the adversary may do to the wire.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable name, printed in counterexamples.
    pub name: &'static str,
    /// The logical commands, all submitted before exploration starts.
    pub commands: Vec<CmdKind>,
    /// Recovery tuning (deadlines, retry budget, keep-alive).
    pub recovery: RecoveryConfig,
    /// The adversary's fault budget.
    pub faults: FaultBudget,
    /// Payload chunks per read (transfer size = `data_chunks × CHUNK`).
    pub data_chunks: u32,
    /// Whether the target completes barriers at dispatch or parks their
    /// completions on a file store's sync worker.
    pub sync: SyncMode,
}

impl Scenario {
    /// A scenario with sane defaults: deadlines on, two retries, no
    /// keep-alive (keep-alive multiplies the state space; enable it
    /// explicitly in scenarios that target it).
    pub fn new(name: &'static str, commands: Vec<CmdKind>, faults: FaultBudget) -> Self {
        const MS: Nanos = 1_000_000;
        Scenario {
            name,
            commands,
            // The struct update covers the cfg-gated mutation knob
            // (`mutate_deliver_early`), present only under the
            // `mc-mutations` feature.
            #[allow(clippy::needless_update)]
            recovery: RecoveryConfig {
                cmd_deadline: Some(10 * MS),
                max_retries: 2,
                retry_backoff: 2 * MS,
                keepalive: None,
                barrier_grace: 50 * MS,
                ..RecoveryConfig::default()
            },
            faults,
            data_chunks: 2,
            sync: SyncMode::Inline,
        }
    }

    /// Switches the target to the offloaded sync worker, allowing the
    /// adversary to fail up to `fail_budget` sync drains.
    pub fn offloaded_sync(mut self, fail_budget: u8) -> Self {
        self.sync = SyncMode::Offloaded { fail_budget };
        self
    }
}

/// One edge of the transition relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Transition {
    /// Deliver the `i`-th queued message in `dir`. `i > 0` is an
    /// out-of-order delivery and costs one reorder per overtaken
    /// message.
    Deliver {
        /// Queue direction.
        dir: Dir,
        /// Queue index (0 = oldest).
        i: usize,
    },
    /// Discard the head message in `dir` (costs one drop).
    Drop {
        /// Queue direction.
        dir: Dir,
    },
    /// Deliver the head message in `dir` twice (costs one duplicate).
    Duplicate {
        /// Queue direction.
        dir: Dir,
    },
    /// Corrupt the head message in `dir`: the frame CRC catches it at
    /// the receiver, so it is consumed with no protocol effect (costs
    /// one corrupt).
    Corrupt {
        /// Queue direction.
        dir: Dir,
    },
    /// Advance the clock to the initiator's next armed timer and tick.
    Timer,
    /// The offloaded sync worker retires its in-flight fsync, draining
    /// every parked barrier completion in submission order. `ok = false`
    /// is an fsync error (costs one from the scenario's sync fail
    /// budget): the drained barriers complete with an error status.
    SyncComplete {
        /// Whether the fsync succeeded.
        ok: bool,
    },
}

/// How one logical command ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// Completed with a success status.
    Ok,
    /// Completed with an error status.
    Err,
    /// Retry budget exhausted; surfaced as timed out.
    TimedOut,
}

/// A full protocol state: both recovery cores, the wire, and the
/// harness bookkeeping the invariants read.
#[derive(Clone, Debug)]
pub struct World {
    /// The initiator's decision core (production code).
    pub ini: InitiatorRecovery,
    /// The target's decision core (production code).
    pub tgt: TargetRecovery,
    /// Model clock, nanoseconds.
    pub now: Nanos,
    /// Whether the initiator declared the peer dead.
    pub peer_dead: bool,
    /// Per-slot resolution as observed by the caller.
    pub resolved: Vec<Option<Resolution>>,
    /// Faults spent so far, as `(direction, frame seq, kind)` — the raw
    /// material for [`crate::trace::Counterexample::to_fault_scripts`].
    pub faults_spent: Vec<(Dir, u64, FaultKind)>,

    commands: Vec<CmdKind>,
    data_chunks: u32,
    queues: [Vec<(u64, Msg)>; 2],
    sent: [u64; 2],
    budget: FaultBudget,
    /// Live wire cid → logical slot.
    slot_of: HashMap<u16, usize>,
    /// The shell's own contiguous-payload watermark per live attempt —
    /// deliberately independent of the core's, so a core that releases
    /// a completion early (the mutation leg) is caught by the harness
    /// rather than trusted.
    data_got: HashMap<u16, u32>,
    /// Distinct generations applied at the target, per slot.
    applied_gens: Vec<Vec<u32>>,
    /// What the target answered each abort: `(cid, gseq)` → applied.
    abort_answers: HashMap<(u16, u32), bool>,
    /// Barrier completions parked on the offloaded sync worker, in
    /// submission order — the model twin of the target's
    /// `ParkedBarrier` queue: `(cid, gseq, slot, abort_requested)`.
    sync_pending: Vec<(u16, u32, usize, bool)>,
    sync: SyncMode,
    action_buf: Vec<Action>,
}

impl World {
    /// Builds the initial state: every scenario command submitted and
    /// its capsule queued initiator→target, clock at zero.
    pub fn new(scenario: &Scenario) -> Self {
        let mut w = World {
            ini: InitiatorRecovery::new(scenario.recovery.clone(), 0),
            tgt: TargetRecovery::new(),
            now: 0,
            peer_dead: false,
            resolved: vec![None; scenario.commands.len()],
            faults_spent: Vec::new(),
            commands: scenario.commands.clone(),
            data_chunks: scenario.data_chunks.max(1),
            queues: [Vec::new(), Vec::new()],
            sent: [0, 0],
            budget: scenario.faults,
            slot_of: HashMap::new(),
            data_got: HashMap::new(),
            applied_gens: vec![Vec::new(); scenario.commands.len()],
            abort_answers: HashMap::new(),
            sync_pending: Vec::new(),
            sync: scenario.sync,
            action_buf: Vec::new(),
        };
        for (slot, &kind) in scenario.commands.iter().enumerate() {
            let (cid, gseq) = w.ini.begin(
                kind.opcode(),
                kind.fua(),
                kind.need(w.data_chunks),
                true,
                w.now,
            );
            w.slot_of.insert(cid, slot);
            w.data_got.insert(cid, 0);
            w.push(Dir::I2T, Msg::Cmd { cid, gseq, slot });
        }
        w
    }

    fn push(&mut self, dir: Dir, msg: Msg) {
        let seq = self.sent[dir.idx()];
        self.sent[dir.idx()] += 1;
        self.queues[dir.idx()].push((seq, msg));
    }

    /// The queued messages in `dir`, oldest first.
    pub fn queue(&self, dir: Dir) -> &[(u64, Msg)] {
        &self.queues[dir.idx()]
    }

    /// Whether every command resolved (or the peer died, after which
    /// the shell fails all waiters and nothing further can resolve).
    pub fn done(&self) -> bool {
        self.peer_dead || self.resolved.iter().all(|r| r.is_some())
    }

    /// Every transition enabled in this state.
    pub fn transitions(&self) -> Vec<Transition> {
        let mut out = Vec::new();
        if self.peer_dead {
            return out;
        }
        for dir in [Dir::I2T, Dir::T2I] {
            let q = &self.queues[dir.idx()];
            for i in 0..q.len() {
                if i == 0 || self.budget.reorders as usize >= i {
                    out.push(Transition::Deliver { dir, i });
                }
            }
            if !q.is_empty() {
                if self.budget.drops > 0 {
                    out.push(Transition::Drop { dir });
                }
                if self.budget.duplicates > 0 {
                    out.push(Transition::Duplicate { dir });
                }
                if self.budget.corrupts > 0 {
                    out.push(Transition::Corrupt { dir });
                }
            }
        }
        if !self.done() && self.ini.next_timer().is_some() {
            out.push(Transition::Timer);
        }
        if !self.sync_pending.is_empty() {
            out.push(Transition::SyncComplete { ok: true });
            if let SyncMode::Offloaded { fail_budget } = self.sync {
                if fail_budget > 0 {
                    out.push(Transition::SyncComplete { ok: false });
                }
            }
        }
        out
    }

    /// A one-line human rendering of `t` in this state (used when
    /// printing counterexample schedules).
    pub fn describe(&self, t: Transition) -> String {
        let head = |dir: Dir| {
            self.queues[dir.idx()]
                .first()
                .map(|&(seq, m)| format!("{m} [frame {seq}]"))
                .unwrap_or_else(|| "<empty>".into())
        };
        match t {
            Transition::Deliver { dir, i } => match self.queues[dir.idx()].get(i) {
                Some(&(seq, m)) if i == 0 => format!("deliver {dir} {m} [frame {seq}]"),
                Some(&(seq, m)) => {
                    format!("deliver {dir} {m} [frame {seq}] overtaking {i} older frame(s)")
                }
                None => format!("deliver {dir} <empty>"),
            },
            Transition::Drop { dir } => format!("drop {dir} {}", head(dir)),
            Transition::Duplicate { dir } => format!("duplicate {dir} {}", head(dir)),
            Transition::Corrupt { dir } => format!("corrupt {dir} {}", head(dir)),
            Transition::Timer => {
                let t = self.ini.next_timer().unwrap_or(self.now);
                format!("timer fires at t={}us", t.max(self.now + 1) / 1_000)
            }
            Transition::SyncComplete { ok } => {
                let parked: Vec<String> = self
                    .sync_pending
                    .iter()
                    .map(|&(cid, gseq, slot, _)| format!("#{slot}(cid={cid},g={gseq})"))
                    .collect();
                format!(
                    "sync worker drains {} ({} parked: {})",
                    if ok { "ok" } else { "with fsync error" },
                    parked.len(),
                    parked.join(", ")
                )
            }
        }
    }

    /// Applies `t`, returning the first invariant violation it caused,
    /// if any. The caller clones first when branching.
    pub fn apply(&mut self, t: Transition) -> Option<Violation> {
        match t {
            Transition::Deliver { dir, i } => {
                if i > 0 {
                    // Each overtaken message costs one reorder and is
                    // recorded so the scripted replay holds exactly
                    // those frames back.
                    let cost = i.min(self.budget.reorders as usize);
                    if cost < i {
                        return None;
                    }
                    self.budget.reorders -= i as u8;
                    for k in 0..i {
                        let seq = self.queues[dir.idx()][k].0;
                        if !self
                            .faults_spent
                            .iter()
                            .any(|&(d, s, f)| d == dir && s == seq && f == FaultKind::Reorder)
                        {
                            self.faults_spent.push((dir, seq, FaultKind::Reorder));
                        }
                    }
                }
                let (_, msg) = self.queues[dir.idx()].remove(i);
                self.deliver(dir, msg)
            }
            Transition::Drop { dir } => {
                if self.queues[dir.idx()].is_empty() || self.budget.drops == 0 {
                    return None;
                }
                self.budget.drops -= 1;
                let (seq, _) = self.queues[dir.idx()].remove(0);
                self.faults_spent.push((dir, seq, FaultKind::Drop));
                None
            }
            Transition::Duplicate { dir } => {
                if self.queues[dir.idx()].is_empty() || self.budget.duplicates == 0 {
                    return None;
                }
                self.budget.duplicates -= 1;
                let (seq, msg) = self.queues[dir.idx()].remove(0);
                self.faults_spent.push((dir, seq, FaultKind::Duplicate));
                if let Some(v) = self.deliver(dir, msg) {
                    return Some(v);
                }
                self.deliver(dir, msg)
            }
            Transition::Corrupt { dir } => {
                // The receiver's frame CRC rejects the bytes before any
                // protocol state is touched: a corrupt is a drop that
                // the wire, not the adversary, owns up to.
                if self.queues[dir.idx()].is_empty() || self.budget.corrupts == 0 {
                    return None;
                }
                self.budget.corrupts -= 1;
                let (seq, _) = self.queues[dir.idx()].remove(0);
                self.faults_spent.push((dir, seq, FaultKind::Corrupt));
                None
            }
            Transition::Timer => {
                let target = self.ini.next_timer()?;
                self.now = target.max(self.now + 1);
                let now = self.now;
                let mut out = std::mem::take(&mut self.action_buf);
                out.clear();
                self.ini.tick(now, &mut out);
                let v = self.run_actions(&mut out);
                self.action_buf = out;
                v
            }
            Transition::SyncComplete { ok } => {
                if self.sync_pending.is_empty() {
                    return None;
                }
                if !ok {
                    match self.sync {
                        SyncMode::Offloaded { fail_budget } if fail_budget > 0 => {
                            self.sync = SyncMode::Offloaded {
                                fail_budget: fail_budget - 1,
                            };
                        }
                        _ => return None,
                    }
                }
                // The drain mirrors the target's `poll_parked`: every
                // parked completion releases in submission order, each
                // carrying the sync's verdict; a requested abort is
                // answered `applied = true` only now, alongside the
                // final completion.
                let parked = std::mem::take(&mut self.sync_pending);
                for (cid, gseq, _slot, abort_requested) in parked {
                    let comp = if ok {
                        NvmeCompletion::ok(cid)
                    } else {
                        NvmeCompletion::error(cid, Status::InternalError)
                    };
                    self.tgt.on_executed(cid, gseq, comp);
                    self.push(Dir::T2I, Msg::Resp { cid, ok });
                    if abort_requested {
                        let prev = self.abort_answers.insert((cid, gseq), true);
                        self.push(
                            Dir::T2I,
                            Msg::AbortAck {
                                cid,
                                applied: true,
                                ok,
                            },
                        );
                        if prev == Some(false) {
                            return Some(Violation::AbortAppliedAfterNotApplied { cid, gseq });
                        }
                    }
                }
                None
            }
        }
    }

    fn deliver(&mut self, dir: Dir, msg: Msg) -> Option<Violation> {
        match dir {
            Dir::I2T => self.deliver_to_target(msg),
            Dir::T2I => self.deliver_to_initiator(msg),
        }
    }

    fn deliver_to_target(&mut self, msg: Msg) -> Option<Violation> {
        match msg {
            Msg::Cmd { cid, gseq, slot } => {
                if self.tgt.should_drop_command(cid, gseq) {
                    // A late duplicate of an attempt already answered
                    // NotApplied: the protocol demands it be ignored.
                    return None;
                }
                let kind = self.commands[slot];
                if kind.mutates() && !self.applied_gens[slot].contains(&gseq) {
                    self.applied_gens[slot].push(gseq);
                    if self.applied_gens[slot].len() >= 2 {
                        return Some(Violation::DoubleApply {
                            slot,
                            gens: self.applied_gens[slot].clone(),
                        });
                    }
                }
                if matches!(self.sync, SyncMode::Offloaded { .. })
                    && matches!(kind, CmdKind::WriteFua | CmdKind::Flush)
                {
                    // The async durability pipeline: the journal append
                    // already happened (recorded above), but the
                    // completion parks until the sync worker drains —
                    // no `on_executed`, no response, yet.
                    self.sync_pending.push((cid, gseq, slot, false));
                    return None;
                }
                let comp = NvmeCompletion::ok(cid);
                self.tgt.on_executed(cid, gseq, comp);
                if kind == CmdKind::Read {
                    for k in 0..self.data_chunks {
                        self.push(
                            Dir::T2I,
                            Msg::Data {
                                cid,
                                offset: k * CHUNK,
                                len: CHUNK,
                            },
                        );
                    }
                }
                self.push(Dir::T2I, Msg::Resp { cid, ok: true });
                None
            }
            Msg::Abort { cid, gseq } => {
                // An abort naming a *parked* attempt defers: the write
                // is already in the journal, so answering `not applied`
                // now would invite a resubmit and a double-apply. The
                // ack rides out with the completion at drain time.
                if let Some(p) = self
                    .sync_pending
                    .iter_mut()
                    .find(|p| p.0 == cid && p.1 == gseq)
                {
                    p.3 = true;
                    return None;
                }
                let (applied, ok) = match self.tgt.on_abort(cid, gseq) {
                    oaf_nvmeof::recovery::AbortDecision::Applied(c) => (true, c.status.is_ok()),
                    oaf_nvmeof::recovery::AbortDecision::NotApplied => (false, false),
                };
                let prev = self.abort_answers.insert((cid, gseq), applied);
                self.push(Dir::T2I, Msg::AbortAck { cid, applied, ok });
                if prev == Some(false) && applied {
                    return Some(Violation::AbortAppliedAfterNotApplied { cid, gseq });
                }
                None
            }
            Msg::KeepAlive { .. } => {
                self.push(Dir::T2I, Msg::KeepAliveAck);
                None
            }
            other => Some(Violation::UnexpectedFrame {
                what: format!("{other} arrived at the target"),
            }),
        }
    }

    fn deliver_to_initiator(&mut self, msg: Msg) -> Option<Violation> {
        let now = self.now;
        self.ini.on_rx(now);
        let mut out = std::mem::take(&mut self.action_buf);
        out.clear();
        let mut v = None;
        match msg {
            Msg::Data { cid, offset, len } => {
                if let Some(got) = self.data_got.get_mut(&cid) {
                    // The shell's independent contiguous watermark: a
                    // chunk landing past the prefix does not advance it.
                    if offset <= *got {
                        *got = (*got).max(offset.saturating_add(len));
                    }
                    self.ini
                        .on_data(cid, DataArrival::Chunk { offset, len }, &mut out);
                } else if !self.ini.is_retired_cid(cid) {
                    v = Some(Violation::UnexpectedFrame {
                        what: format!("Data for cid {cid} which is neither live nor retired"),
                    });
                }
            }
            Msg::Resp { cid, ok } => {
                let comp = if ok {
                    NvmeCompletion::ok(cid)
                } else {
                    NvmeCompletion::error(cid, Status::InternalError)
                };
                if !self.ini.on_completion(cid, comp, &mut out) && !self.ini.is_retired_cid(cid) {
                    v = Some(Violation::UnexpectedFrame {
                        what: format!("Resp for cid {cid} which is neither live nor retired"),
                    });
                }
            }
            Msg::AbortAck { cid, applied, ok } => {
                let comp = if ok {
                    NvmeCompletion::ok(cid)
                } else {
                    NvmeCompletion::error(cid, Status::InternalError)
                };
                // A stale AbortAck (raced by the real completion) is
                // dropped by the core; that is correct, not a violation.
                let _ = self.ini.on_abort_ack(cid, applied, comp, now, &mut out);
            }
            Msg::KeepAliveAck => self.ini.on_keepalive_ack(),
            other => {
                v = Some(Violation::UnexpectedFrame {
                    what: format!("{other} arrived at the initiator"),
                });
            }
        }
        let va = self.run_actions(&mut out);
        self.action_buf = out;
        v.or(va)
    }

    /// Carries out the core's queued decisions, checking the completion
    /// invariants the real shell's caller would experience.
    fn run_actions(&mut self, out: &mut Vec<Action>) -> Option<Violation> {
        let mut violation = None;
        // The handlers below need `&mut self` (they push frames and
        // resolve slots), so the pending actions move out first.
        let actions = std::mem::take(out);
        for a in actions {
            let v = match a {
                Action::Complete {
                    wire_cid,
                    completion,
                } => self.on_complete(wire_cid, completion),
                Action::GiveUp { wire_cid } => {
                    self.data_got.remove(&wire_cid);
                    match self.slot_of.remove(&wire_cid) {
                        Some(slot) => self.resolve(slot, Resolution::TimedOut),
                        None => None,
                    }
                }
                Action::Resubmit {
                    old_cid,
                    new_cid,
                    gseq,
                } => {
                    self.data_got.remove(&old_cid);
                    self.data_got.insert(new_cid, 0);
                    if let Some(slot) = self.slot_of.remove(&old_cid) {
                        self.slot_of.insert(new_cid, slot);
                        self.push(
                            Dir::I2T,
                            Msg::Cmd {
                                cid: new_cid,
                                gseq,
                                slot,
                            },
                        );
                    }
                    None
                }
                Action::SendAbort { cid, gseq } => {
                    self.push(Dir::I2T, Msg::Abort { cid, gseq });
                    None
                }
                Action::SendKeepAlive { seq, .. } => {
                    self.push(Dir::I2T, Msg::KeepAlive { seq });
                    None
                }
                Action::PeerDead => {
                    self.peer_dead = true;
                    None
                }
            };
            violation = violation.or(v);
        }
        violation
    }

    fn on_complete(&mut self, wire_cid: u16, completion: NvmeCompletion) -> Option<Violation> {
        let shell_got = self.data_got.remove(&wire_cid).unwrap_or(0);
        let slot = self.slot_of.remove(&wire_cid)?;
        let kind = self.commands[slot];
        if completion.status.is_ok() {
            if let DataNeed::Bytes(need) = kind.need(self.data_chunks) {
                if shell_got < need {
                    return Some(Violation::StaleRead {
                        slot,
                        got: shell_got,
                        need,
                    });
                }
            }
            if kind.mutates() && self.applied_gens[slot].is_empty() {
                return Some(Violation::AckedLostWrite { slot });
            }
        }
        self.resolve(
            slot,
            if completion.status.is_ok() {
                Resolution::Ok
            } else {
                Resolution::Err
            },
        )
    }

    fn resolve(&mut self, slot: usize, how: Resolution) -> Option<Violation> {
        if self.resolved[slot].is_some() {
            return Some(Violation::DoubleResolve { slot });
        }
        self.resolved[slot] = Some(how);
        None
    }

    /// The deadlock check: a live peer, unresolved commands, and no
    /// enabled transition means no execution can ever make progress.
    pub fn stuck(&self) -> Option<Violation> {
        if !self.done() && self.transitions().is_empty() {
            return Some(Violation::Stuck);
        }
        None
    }

    /// A canonical 64-bit fingerprint for visited-set pruning. Hashes
    /// both cores (times re-based so absolute clock value is
    /// irrelevant), the wire contents, remaining budgets and the
    /// harness maps in sorted order — but *not* frame sequence numbers
    /// or fault history, which only label traces and do not influence
    /// future behavior.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.ini.fingerprint(self.now, &mut h);
        self.tgt.fingerprint(&mut h);
        for q in &self.queues {
            q.len().hash(&mut h);
            for &(_, m) in q {
                m.hash(&mut h);
            }
        }
        self.budget.hash(&mut h);
        self.peer_dead.hash(&mut h);
        let mut slots: Vec<(u16, usize)> = self.slot_of.iter().map(|(&c, &s)| (c, s)).collect();
        slots.sort_unstable();
        slots.hash(&mut h);
        let mut got: Vec<(u16, u32)> = self.data_got.iter().map(|(&c, &g)| (c, g)).collect();
        got.sort_unstable();
        got.hash(&mut h);
        self.resolved.hash(&mut h);
        self.applied_gens.hash(&mut h);
        let mut answers: Vec<((u16, u32), bool)> =
            self.abort_answers.iter().map(|(&k, &v)| (k, v)).collect();
        answers.sort_unstable();
        answers.hash(&mut h);
        self.sync_pending.hash(&mut h);
        self.sync.hash(&mut h);
        h.finish()
    }
}
