//! Group commit: one `fdatasync` retires many durability barriers.
//!
//! Every record appended to the intent log carries a monotonic sequence
//! number, and a durability barrier (FUA write, Flush) only needs *its*
//! sequence to reach the platter. Because a single `fdatasync` makes the
//! whole file durable, any barrier whose sequence is ≤ the highest
//! sequence appended when some sync started is retired by that sync —
//! there is no reason for N concurrent barriers to issue N syncs.
//!
//! ## Worker rounds
//!
//! Every [`SharedFileDisk`](crate::disk::SharedFileDisk) owns a sync
//! worker thread, and that worker is the only place a barrier's
//! `fdatasync` runs — never a reactor thread, never under the disk
//! lock:
//!
//! - [`submit_sync`](GroupCommit::submit_sync) enrolls a barrier ticket
//!   and returns a [`BarrierTicket`] immediately — no blocking, no
//!   allocation. The worker is woken through a condvar.
//! - The worker loops on `next_round` / `complete_sync`
//!   (crate-private): each sync round snapshots the highest requested
//!   sequence, reads the covered watermark under the disk lock (no
//!   I/O), runs one device barrier through its own vfs handle with the
//!   disk lock released, and publishes either a new `durable_seq` or a
//!   `failed_seq` watermark equal to the snapshot target — so an error
//!   fails exactly the set of tickets that were parked behind that sync
//!   and nothing submitted after it. A round that retires k tickets
//!   counts one `fsyncs` and k − 1 `fsyncs_coalesced`; each round
//!   records its batch size (`commit_batch`), so with K concurrent
//!   writers the histogram's mass sits near K.
//! - [`poll_sync`](GroupCommit::poll_sync) is a lock-free read of two
//!   monotonic atomics, cheap enough for a reactor to probe every pass.
//!   Durability wins over failure: a ticket covered by a *later*
//!   successful sync is durable no matter what an earlier round said.
//! - The blocking [`barrier`](GroupCommit::barrier) enrolls the same
//!   ticket and waits on the retired condvar.
//!
//! ## Paced write-back between rounds
//!
//! A barrier's `fdatasync` must push every page dirtied since the last
//! one. So between rounds the worker *kicks*: it starts page-cache
//! write-out ([`Vfs::start_writeback`](crate::vfs::Vfs::start_writeback))
//! and does not wait for it, so the next barrier finds only the tail.
//!
//! - Every journal append of a shared disk publishes its sequence here
//!   with one relaxed store, under the disk lock.
//! - While records were appended past the worker's last kick or sync,
//!   the worker waits with a `KICK_PERIOD` (1 ms) timeout; a timeout
//!   with no barrier enrolled is a kick round. A barrier always wins
//!   over a kick.
//! - When nothing was appended, the worker raises an idle flag (under
//!   the disk lock) and blocks with no timeout. The first append that
//!   finds the flag up clears it and wakes the worker — once per
//!   idle-to-busy transition, so the append path takes no syscall in the
//!   steady state and an idle disk takes no timed wake-ups.
//! - A kick is never durability: it moves neither watermark, retires no
//!   ticket and replaces no sync (`writeback_kicks` counts them).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use oaf_ssd::block::{BarrierPoll, BarrierTicket};
use oaf_ssd::ram::BlockError;

use crate::metrics::StoreMetrics;

/// How long the worker lets records appended past its last kick or sync
/// sit before it starts their write-out.
const KICK_PERIOD: Duration = Duration::from_millis(1);

/// What the sync worker does next.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Round {
    /// Sync the journal for every ticket up to this snapshot target.
    Sync(u64),
    /// Start write-out of what was appended; no barrier is waiting.
    Kick,
    /// Exit.
    Shutdown,
}

/// Coordinator state: the durability watermarks and the worker's queue.
#[derive(Default)]
struct CommitState {
    /// Highest record sequence known durable on the platter.
    durable_seq: u64,
    /// Tickets enrolled since the worker's last snapshot (for the
    /// batch-size histogram).
    tickets: u64,
    /// Tickets the worker moved into its current sync round (their
    /// sequences all predate the round's snapshot target).
    syncing_tickets: u64,
    /// Highest sequence any ticket has asked the worker to cover.
    requested_seq: u64,
    /// Highest snapshot target a failed worker sync covered.
    failed_seq: u64,
    /// The worker has been asked to exit.
    worker_shutdown: bool,
    /// Last worker sync error, kept for blocking waiters to surface.
    fail_msg: Option<String>,
}

/// The sync coordinator shared by every queue view of one
/// [`SharedFileDisk`](crate::disk::SharedFileDisk).
#[derive(Default)]
pub struct GroupCommit {
    state: Mutex<CommitState>,
    retired: Condvar,
    /// Wakes the sync worker when new tickets arrive or shutdown is set.
    work: Condvar,
    /// Lock-free mirror of `durable_seq` for reactor-side polling.
    durable: AtomicU64,
    /// Lock-free mirror of `failed_seq` for reactor-side polling.
    failed: AtomicU64,
    /// Highest journal sequence appended, published under the disk lock.
    appended: AtomicU64,
    /// The worker found nothing appended past its last kick or sync and
    /// blocks with no timeout. Raised by the worker and cleared by the
    /// first append after it, both under the disk lock.
    idle: AtomicBool,
}

impl GroupCommit {
    /// A fresh coordinator with nothing durable.
    pub fn new() -> GroupCommit {
        GroupCommit::default()
    }

    /// Highest sequence known durable (telemetry/tests).
    pub fn durable_seq(&self) -> u64 {
        self.state.lock().expect("commit lock poisoned").durable_seq
    }

    /// Enroll a non-blocking barrier ticket for `seq` and wake the sync
    /// worker. Allocation-free. The returned ticket is resolved with
    /// [`poll_sync`](GroupCommit::poll_sync); a ticket that is already
    /// durable resolves on the first poll.
    pub fn submit_sync(&self, seq: u64, metrics: &StoreMetrics) -> BarrierTicket {
        let mut guard = self.state.lock().expect("commit lock poisoned");
        metrics.barriers_offloaded.inc();
        if guard.durable_seq < seq {
            guard.tickets += 1;
            if guard.requested_seq < seq {
                guard.requested_seq = seq;
            }
            metrics
                .sync_queue_depth
                .set((guard.tickets + guard.syncing_tickets) as i64);
            self.work.notify_one();
        } else {
            metrics.fsyncs_coalesced.inc();
        }
        BarrierTicket::new(seq)
    }

    /// Lock-free status probe for a submitted ticket. Durability is
    /// checked first: a later successful sync genuinely covered the
    /// ticket even if an earlier round failed.
    #[inline]
    pub fn poll_sync(&self, ticket: BarrierTicket) -> BarrierPoll {
        if self.durable.load(Ordering::Acquire) >= ticket.seq() {
            BarrierPoll::Durable
        } else if self.failed.load(Ordering::Acquire) >= ticket.seq() {
            BarrierPoll::Failed
        } else {
            BarrierPoll::Pending
        }
    }

    /// Blocks until every record with sequence ≤ `seq` is durable: a
    /// ticket like [`submit_sync`](GroupCommit::submit_sync)'s, waited
    /// out on the retired condvar. Fails with the worker's error when
    /// the round covering it failed.
    pub fn barrier(&self, seq: u64, metrics: &StoreMetrics) -> Result<(), BlockError> {
        let ticket = self.submit_sync(seq, metrics);
        let mut guard = self.state.lock().expect("commit lock poisoned");
        loop {
            // The watermarks only move under this lock, so a round that
            // completes after this check wakes the wait below.
            match self.poll_sync(ticket) {
                BarrierPoll::Durable => return Ok(()),
                BarrierPoll::Failed => {
                    let msg = guard.fail_msg.clone();
                    return Err(BlockError::Io(
                        msg.unwrap_or_else(|| "sync worker failed".into()),
                    ));
                }
                BarrierPoll::Pending if guard.worker_shutdown => {
                    return Err(BlockError::Io("sync worker stopped".into()));
                }
                BarrierPoll::Pending => {
                    guard = self.retired.wait(guard).expect("commit lock poisoned");
                }
            }
        }
    }

    /// Append side of paced write-back, called under the disk lock after
    /// every journal append: one relaxed store, plus — only for the
    /// first append after the worker went idle — a wake-up.
    #[inline]
    pub(crate) fn note_append(&self, seq: u64) {
        self.appended.store(seq, Ordering::Relaxed);
        if self.idle.load(Ordering::Relaxed) {
            self.idle.store(false, Ordering::Relaxed);
            // The worker checks the flag under this lock before it
            // waits, so the notify cannot fall between check and wait.
            let _guard = self.state.lock().expect("commit lock poisoned");
            self.work.notify_one();
        }
    }

    /// Highest journal sequence appended so far.
    pub(crate) fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Worker side, under the disk lock that every append publishes
    /// under: whether records were appended past `paced` (the seq its
    /// last kick or sync covered). If none were, raises the idle flag so
    /// the next append wakes the worker.
    pub(crate) fn appended_past(&self, paced: u64) -> bool {
        let busy = self.appended() > paced;
        if !busy {
            self.idle.store(true, Ordering::Relaxed);
        }
        busy
    }

    /// Whether the worker is blocked with no timeout.
    #[cfg(test)]
    pub(crate) fn worker_idle(&self) -> bool {
        self.idle.load(Ordering::Relaxed)
    }

    /// Asks the worker to exit, waking it (and any blocked waiter) if
    /// parked.
    pub(crate) fn shutdown_worker(&self) {
        self.state
            .lock()
            .expect("commit lock poisoned")
            .worker_shutdown = true;
        self.work.notify_all();
        self.retired.notify_all();
    }

    /// Worker side: block until the next round. A sync round returns
    /// its snapshot target — the highest requested sequence at the
    /// moment the round starts; tickets enrolled *after* it belong to
    /// the next round. With `busy` (records appended past the last kick
    /// or sync) the wait times out after [`KICK_PERIOD`] into a kick
    /// round; without it the caller has raised the idle flag
    /// ([`appended_past`](GroupCommit::appended_past)) and the wait has
    /// no timeout until an append clears the flag.
    pub(crate) fn next_round(&self, busy: bool) -> Round {
        let mut guard = self.state.lock().expect("commit lock poisoned");
        let mut deadline = busy.then(|| Instant::now() + KICK_PERIOD);
        loop {
            if guard.worker_shutdown {
                return Round::Shutdown;
            }
            let retired_hi = guard.durable_seq.max(guard.failed_seq);
            if guard.requested_seq > retired_hi {
                self.idle.store(false, Ordering::Relaxed);
                guard.syncing_tickets += guard.tickets;
                guard.tickets = 0;
                return Round::Sync(guard.requested_seq);
            }
            match deadline {
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        return Round::Kick;
                    }
                    guard = self
                        .work
                        .wait_timeout(guard, at - now)
                        .expect("commit lock poisoned")
                        .0;
                }
                None if self.idle.load(Ordering::Relaxed) => {
                    guard = self.work.wait(guard).expect("commit lock poisoned");
                }
                // An append woke the idle worker: give the burst one
                // period to build up before kicking it.
                None => deadline = Some(Instant::now() + KICK_PERIOD),
            }
        }
    }

    /// Worker side: publish one round's outcome. On success the durable
    /// watermark advances to `covered` (≥ the snapshot target, since the
    /// device barrier covers everything appended when it ran). On error
    /// the failed watermark advances to exactly `target`, failing the
    /// parked set behind this round and nothing newer.
    pub(crate) fn complete_sync(
        &self,
        target: u64,
        res: Result<u64, BlockError>,
        metrics: &StoreMetrics,
    ) {
        let mut guard = self.state.lock().expect("commit lock poisoned");
        match res {
            Ok(covered) => {
                guard.durable_seq = guard.durable_seq.max(covered);
                if guard.requested_seq <= guard.durable_seq {
                    // Tickets enrolled after the snapshot whose records
                    // this sync still covered retire with it; otherwise
                    // they count in the round that must follow.
                    guard.syncing_tickets += std::mem::take(&mut guard.tickets);
                }
                let batch = guard.syncing_tickets.max(1);
                metrics.commit_batch.record(batch);
                metrics.fsyncs_coalesced.add(batch - 1);
                self.durable.store(guard.durable_seq, Ordering::Release);
            }
            Err(e) => {
                guard.failed_seq = guard.failed_seq.max(target);
                self.failed.store(guard.failed_seq, Ordering::Release);
                guard.fail_msg = Some(e.to_string());
                if guard.requested_seq <= guard.failed_seq {
                    // Every outstanding request is covered by the failure;
                    // nothing left for a future batch to count.
                    guard.tickets = 0;
                }
            }
        }
        guard.syncing_tickets = 0;
        metrics
            .sync_queue_depth
            .set((guard.tickets + guard.syncing_tickets) as i64);
        drop(guard);
        self.retired.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread::JoinHandle;

    impl GroupCommit {
        /// The worker's wait on a disk with nothing appended: the next
        /// sync target, or `None` at shutdown.
        fn next_sync_request(&self) -> Option<u64> {
            match self.next_round(self.appended_past(u64::MAX)) {
                Round::Sync(target) => Some(target),
                Round::Shutdown => None,
                Round::Kick => unreachable!("an idle worker never kicks"),
            }
        }
    }

    /// A blocking barrier on its own thread; the test plays the worker.
    fn blocking_barrier(
        gc: &Arc<GroupCommit>,
        m: &Arc<StoreMetrics>,
        seq: u64,
    ) -> JoinHandle<Result<(), BlockError>> {
        let (gc, m) = (Arc::clone(gc), Arc::clone(m));
        std::thread::spawn(move || gc.barrier(seq, &m))
    }

    #[test]
    fn single_barrier_syncs_once() {
        let gc = GroupCommit::new();
        let m = StoreMetrics::new();
        let h = gc.submit_sync(5, &m);
        let target = gc.next_sync_request().expect("work pending");
        assert_eq!(target, 5);
        gc.complete_sync(target, Ok(7), &m);
        assert_eq!(gc.poll_sync(h), BarrierPoll::Durable);
        assert_eq!(gc.durable_seq(), 7);
        assert_eq!(m.fsyncs_coalesced.get(), 0);
        assert_eq!(m.commit_batch.snapshot().count, 1, "one round");
    }

    #[test]
    fn covered_barrier_never_syncs() {
        let gc = GroupCommit::new();
        let m = StoreMetrics::new();
        gc.submit_sync(3, &m);
        let target = gc.next_sync_request().unwrap();
        gc.complete_sync(target, Ok(10), &m);
        // Seqs 4..=10 were covered by the first round: both forms retire
        // at once, without a second round.
        assert_eq!(gc.poll_sync(gc.submit_sync(10, &m)), BarrierPoll::Durable);
        gc.barrier(10, &m).unwrap();
        assert_eq!(m.fsyncs_coalesced.get(), 2);
        assert_eq!(m.commit_batch.snapshot().count, 1);
    }

    #[test]
    fn sync_error_propagates_and_unblocks() {
        let gc = Arc::new(GroupCommit::new());
        let m = StoreMetrics::new();
        let waiter = blocking_barrier(&gc, &m, 1);
        let target = gc.next_sync_request().expect("waiter enrolls a ticket");
        gc.complete_sync(target, Err(BlockError::Io("dead".into())), &m);
        let err = waiter.join().unwrap().unwrap_err();
        assert!(
            matches!(err, BlockError::Io(ref msg) if msg.contains("dead")),
            "{err:?}"
        );
        // The coordinator is not wedged: a later barrier gets its own
        // round, and that round's success covers it.
        let waiter = blocking_barrier(&gc, &m, 2);
        let target = gc.next_sync_request().unwrap();
        assert_eq!(target, 2);
        gc.complete_sync(target, Ok(2), &m);
        waiter.join().unwrap().unwrap();
        assert_eq!(gc.durable_seq(), 2);
    }

    #[test]
    fn submit_poll_roundtrip_through_a_manual_worker() {
        let gc = GroupCommit::new();
        let m = StoreMetrics::new();
        let h1 = gc.submit_sync(1, &m);
        let h2 = gc.submit_sync(2, &m);
        assert_eq!(gc.poll_sync(h1), BarrierPoll::Pending);
        assert_eq!(m.sync_queue_depth.get(), 2);
        assert_eq!(m.barriers_offloaded.get(), 2);
        // Play the worker: one round covers both tickets.
        let target = gc.next_sync_request().expect("work pending");
        assert_eq!(target, 2);
        gc.complete_sync(target, Ok(5), &m);
        assert_eq!(gc.poll_sync(h1), BarrierPoll::Durable);
        assert_eq!(gc.poll_sync(h2), BarrierPoll::Durable);
        assert_eq!(m.sync_queue_depth.get(), 0);
        assert_eq!(m.commit_batch.snapshot().count, 1);
        assert_eq!(m.fsyncs_coalesced.get(), 1, "two tickets, one sync");
        // Already-durable submits resolve on the first poll, no new work.
        let h3 = gc.submit_sync(4, &m);
        assert_eq!(gc.poll_sync(h3), BarrierPoll::Durable);
        assert_eq!(m.fsyncs_coalesced.get(), 2);
    }

    #[test]
    fn a_ticket_enrolled_mid_round_is_counted_once() {
        let gc = GroupCommit::new();
        let m = StoreMetrics::new();
        gc.submit_sync(1, &m);
        let target = gc.next_sync_request().unwrap();
        // Enrolls after the snapshot, but its record predates the
        // round's watermark read: the round retires it.
        let late = gc.submit_sync(2, &m);
        gc.complete_sync(target, Ok(2), &m);
        assert_eq!(gc.poll_sync(late), BarrierPoll::Durable);
        assert_eq!(m.commit_batch.snapshot().count, 1);
        assert_eq!(m.fsyncs_coalesced.get(), 1);
        assert_eq!(
            m.sync_queue_depth.get(),
            0,
            "nothing left for a later round"
        );
        // Enrolled mid-round and *not* covered: the next round counts it.
        gc.submit_sync(3, &m);
        let target = gc.next_sync_request().unwrap();
        gc.submit_sync(4, &m);
        gc.complete_sync(target, Ok(3), &m);
        assert_eq!(m.sync_queue_depth.get(), 1);
        let target = gc.next_sync_request().unwrap();
        gc.complete_sync(target, Ok(4), &m);
        assert_eq!(m.commit_batch.snapshot().count, 3);
        assert_eq!(m.fsyncs_coalesced.get(), 1, "4 tickets, 3 rounds");
    }

    #[test]
    fn sync_error_fails_exactly_the_parked_set() {
        let gc = GroupCommit::new();
        let m = StoreMetrics::new();
        let h1 = gc.submit_sync(1, &m);
        let h2 = gc.submit_sync(2, &m);
        let target = gc.next_sync_request().unwrap();
        gc.complete_sync(target, Err(BlockError::Io("dead".into())), &m);
        assert_eq!(gc.poll_sync(h1), BarrierPoll::Failed);
        assert_eq!(gc.poll_sync(h2), BarrierPoll::Failed);
        // A ticket submitted after the failure is NOT failed by it…
        let h3 = gc.submit_sync(3, &m);
        assert_eq!(gc.poll_sync(h3), BarrierPoll::Pending);
        // …and a later successful round makes everything durable —
        // including the earlier tickets, whose records the new device
        // barrier genuinely covered (durability wins over failure).
        let target = gc.next_sync_request().unwrap();
        assert_eq!(target, 3);
        gc.complete_sync(target, Ok(3), &m);
        assert_eq!(gc.poll_sync(h3), BarrierPoll::Durable);
        assert_eq!(gc.poll_sync(h1), BarrierPoll::Durable);
    }

    #[test]
    fn blocking_barrier_waits_out_a_worker_round() {
        let gc = Arc::new(GroupCommit::new());
        let m = StoreMetrics::new();
        let waiter = blocking_barrier(&gc, &m, 7);
        let target = gc.next_sync_request().expect("waiter enrolls a ticket");
        assert_eq!(target, 7);
        gc.complete_sync(target, Ok(7), &m);
        waiter.join().unwrap().unwrap();
        assert_eq!(gc.durable_seq(), 7);
        assert_eq!(m.barriers_offloaded.get(), 1);
    }

    #[test]
    fn shutdown_wakes_the_worker_loop_and_blocked_waiters() {
        let gc = Arc::new(GroupCommit::new());
        let m = StoreMetrics::new();
        let worker = {
            let gc = Arc::clone(&gc);
            std::thread::spawn(move || gc.next_sync_request())
        };
        // Give the worker a moment to park, then shut it down.
        std::thread::sleep(std::time::Duration::from_millis(10));
        gc.shutdown_worker();
        assert_eq!(worker.join().unwrap(), None);
        // A barrier nobody will sync fails instead of hanging.
        let err = blocking_barrier(&gc, &m, 1).join().unwrap().unwrap_err();
        assert!(matches!(err, BlockError::Io(_)), "{err:?}");
    }

    #[test]
    fn appends_pace_a_kick_that_retires_nothing_and_a_barrier_still_syncs() {
        let gc = Arc::new(GroupCommit::new());
        let m = StoreMetrics::new();
        gc.note_append(3);
        assert!(gc.appended_past(0), "seq 3 was appended past 0");
        assert!(!gc.worker_idle());
        let t0 = Instant::now();
        assert_eq!(gc.next_round(true), Round::Kick);
        assert!(t0.elapsed() >= KICK_PERIOD, "a kick waits out one period");
        // The kick moved no watermark: a ticket for seq 3 still parks.
        assert_eq!(gc.durable_seq(), 0);
        assert_eq!(gc.poll_sync(BarrierTicket::new(3)), BarrierPoll::Pending);
        // A barrier beats the kick timer and gets its own sync round.
        let ticket = gc.submit_sync(3, &m);
        assert_eq!(gc.next_round(true), Round::Sync(3));
        gc.complete_sync(3, Ok(3), &m);
        assert_eq!(gc.poll_sync(ticket), BarrierPoll::Durable);
        assert!(!gc.appended_past(3), "the sync covered every append");
        assert!(gc.worker_idle());
        // The first append after the worker went idle wakes it: it
        // leaves the untimed wait and kicks one period later.
        let worker = {
            let gc = Arc::clone(&gc);
            std::thread::spawn(move || gc.next_round(false))
        };
        std::thread::sleep(Duration::from_millis(5));
        assert!(!worker.is_finished(), "an idle worker has no timeout");
        gc.note_append(4);
        assert!(!gc.worker_idle(), "the append cleared the flag");
        assert_eq!(worker.join().unwrap(), Round::Kick);
        assert_eq!(gc.durable_seq(), 3);
    }
}
