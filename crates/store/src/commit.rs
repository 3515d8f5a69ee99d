//! Group commit: one `fdatasync` retires many durability barriers.
//!
//! Every record appended to the intent log carries a monotonic sequence
//! number, and a durability barrier (FUA write, Flush) only needs *its*
//! sequence to reach the platter. Because a single `fdatasync` makes the
//! whole file durable, any barrier whose sequence is ≤ the highest
//! sequence appended when some sync started is retired by that sync —
//! there is no reason for N concurrent barriers to issue N syncs.
//!
//! ## Ticket protocol
//!
//! A barrier takes a *ticket* for its record's sequence number and loops
//! on three states under one mutex:
//!
//! 1. **retired** — `durable_seq >= ticket`: some sync (ours or another
//!    queue's) already covered the ticket; return. If this barrier never
//!    led a sync itself, it was coalesced (`fsyncs_coalesced`).
//! 2. **leader** — no sync in flight: mark one in flight, drop the
//!    coordination lock, take the disk lock, and sync *everything
//!    appended so far* (the covered sequence is read under the disk
//!    lock, so no append can sneak past it). Publish the covered
//!    sequence, wake every waiter. The sync is of the journal alone:
//!    the store journals every payload, so dirty cache blocks need not
//!    reach the data region first (only a checkpoint drains them).
//! 3. **follower** — a sync is in flight: park on the condvar. The
//!    leader's wakeup re-runs the loop, so a ticket the finished sync
//!    did not cover elects the next leader instead of being lost — no
//!    lost-wakeup hang, no barrier completes early.
//!
//! Batch telemetry: each sync records how many tickets it retired
//! (`commit_batch`); with K concurrent writers the histogram's mass
//! sits near K while `fsyncs` grows ~1/K as fast as barriers.
//!
//! ## Offloaded mode (async durability pipeline)
//!
//! When a sync worker thread is attached (see
//! [`SharedFileDisk::with_sync_worker`](crate::disk::SharedFileDisk::with_sync_worker)),
//! the coordinator grows a second, *completion-decoupled* face:
//!
//! - [`submit_sync`](GroupCommit::submit_sync) enrolls a barrier ticket
//!   and returns a [`BarrierTicket`] immediately — no blocking, no
//!   allocation. The worker is woken through a condvar.
//! - The worker loops on `next_sync_request` / `complete_sync`
//!   (crate-private worker rounds): each round snapshots
//!   the highest requested sequence, reads the covered watermark under
//!   the disk lock (no I/O), runs one device barrier *off every reactor
//!   thread* and off the disk lock, and publishes either a new
//!   `durable_seq` or a `failed_seq` watermark equal to the snapshot
//!   target — so an error fails exactly the set of tickets that were
//!   parked behind that sync and nothing submitted after it. A round
//!   that retires k tickets counts one `fsyncs` and k − 1
//!   `fsyncs_coalesced`, the same accounting as the inline path.
//! - [`poll_sync`](GroupCommit::poll_sync) is a lock-free read of two
//!   monotonic atomics, cheap enough for a reactor to probe every pass.
//!   Durability wins over failure: a ticket covered by a *later*
//!   successful sync is durable no matter what an earlier round said.
//!
//! The blocking [`barrier`](GroupCommit::barrier) rides the worker when
//! one is attached (enroll, wait on the retired condvar) so legacy
//! callers keep group-commit batching without ever issuing their own
//! `fdatasync`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use oaf_ssd::block::{BarrierPoll, BarrierTicket};
use oaf_ssd::ram::BlockError;

use crate::metrics::StoreMetrics;

/// Coordinator state: the durability watermark plus the in-flight flag.
#[derive(Default)]
struct CommitState {
    /// Highest record sequence known durable on the platter.
    durable_seq: u64,
    /// A leader is inside the sync syscall right now.
    sync_in_flight: bool,
    /// Tickets enrolled since the last sync completed (for the
    /// batch-size histogram; includes the future leader itself).
    tickets: u64,
    /// Tickets the worker moved into its current sync round (their
    /// sequences all predate the round's snapshot target).
    syncing_tickets: u64,
    /// Highest sequence any ticket has asked the worker to cover.
    requested_seq: u64,
    /// Highest snapshot target a failed worker sync covered.
    failed_seq: u64,
    /// A sync worker thread is attached and draining requests.
    worker_attached: bool,
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
    /// Mirror of `worker_attached` readable without the lock.
    offloaded: AtomicBool,
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

    /// True when a sync worker thread is attached: barriers should be
    /// submitted (or ridden through the worker) rather than leading
    /// their own `fdatasync`.
    pub fn offloaded(&self) -> bool {
        self.offloaded.load(Ordering::Acquire)
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

    /// Marks a worker thread attached; subsequent barriers ride it.
    pub(crate) fn attach_worker(&self) {
        let mut guard = self.state.lock().expect("commit lock poisoned");
        guard.worker_attached = true;
        guard.worker_shutdown = false;
        self.offloaded.store(true, Ordering::Release);
    }

    /// Asks the worker to exit and detaches offloaded mode. Blocking
    /// waiters are woken so they can fall back to the inline path.
    pub(crate) fn shutdown_worker(&self) {
        let mut guard = self.state.lock().expect("commit lock poisoned");
        guard.worker_shutdown = true;
        guard.worker_attached = false;
        self.offloaded.store(false, Ordering::Release);
        drop(guard);
        self.work.notify_all();
        self.retired.notify_all();
    }

    /// Worker side: block until there is something to sync (or shutdown).
    /// Returns the snapshot target — the highest requested sequence at
    /// the moment the round starts. Tickets enrolled *after* this call
    /// belong to the next round.
    pub(crate) fn next_sync_request(&self) -> Option<u64> {
        let mut guard = self.state.lock().expect("commit lock poisoned");
        loop {
            if guard.worker_shutdown {
                return None;
            }
            let retired_hi = guard.durable_seq.max(guard.failed_seq);
            if guard.requested_seq > retired_hi {
                guard.syncing_tickets += guard.tickets;
                guard.tickets = 0;
                return Some(guard.requested_seq);
            }
            guard = self.work.wait(guard).expect("commit lock poisoned");
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

    /// Blocks until every record with sequence ≤ `seq` is durable.
    ///
    /// `sync` performs one device barrier and returns the highest
    /// sequence it covered; it is invoked at most once per elected
    /// leader and never concurrently with itself. A barrier that
    /// returns without having led a sync was coalesced into another
    /// barrier's `fdatasync`.
    pub fn barrier(
        &self,
        seq: u64,
        metrics: &StoreMetrics,
        mut sync: impl FnMut() -> Result<u64, BlockError>,
    ) -> Result<(), BlockError> {
        if self.offloaded() {
            if let Some(res) = self.barrier_via_worker(seq, metrics) {
                return res;
            }
            // Worker detached while we waited: fall through and lead.
        }
        metrics.barriers_inline.inc();
        let mut led_sync = false;
        let mut guard = self.state.lock().expect("commit lock poisoned");
        if guard.durable_seq < seq {
            guard.tickets += 1;
        }
        loop {
            if guard.durable_seq >= seq {
                if !led_sync {
                    metrics.fsyncs_coalesced.inc();
                }
                return Ok(());
            }
            if !guard.sync_in_flight {
                // Leader: sync outside the coordination lock so arriving
                // barriers can enroll as followers meanwhile.
                guard.sync_in_flight = true;
                drop(guard);
                let res = sync();
                led_sync = true;
                guard = self.state.lock().expect("commit lock poisoned");
                guard.sync_in_flight = false;
                match res {
                    Ok(covered) => {
                        guard.durable_seq = guard.durable_seq.max(covered);
                        self.durable.store(guard.durable_seq, Ordering::Release);
                        // Every enrolled ticket's record predates the
                        // sync we just led, so the batch is all of them;
                        // a ticket the watermark somehow missed re-enrolls
                        // below.
                        metrics.commit_batch.record(guard.tickets.max(1));
                        guard.tickets = 0;
                        if guard.durable_seq < seq {
                            guard.tickets += 1;
                        }
                    }
                    Err(e) => {
                        // Dead store: wake everyone so they fail fast on
                        // their own sync attempt instead of hanging.
                        self.retired.notify_all();
                        return Err(e);
                    }
                }
                self.retired.notify_all();
            } else {
                guard = self.retired.wait(guard).expect("commit lock poisoned");
            }
        }
    }

    /// Blocking barrier in offloaded mode: enroll a ticket, wake the
    /// worker, and park on the retired condvar until the watermark
    /// passes. Returns `None` if the worker detaches mid-wait (the
    /// caller falls back to leading its own sync).
    fn barrier_via_worker(
        &self,
        seq: u64,
        metrics: &StoreMetrics,
    ) -> Option<Result<(), BlockError>> {
        let mut guard = self.state.lock().expect("commit lock poisoned");
        if guard.durable_seq >= seq {
            metrics.fsyncs_coalesced.inc();
            return Some(Ok(()));
        }
        if !guard.worker_attached {
            return None;
        }
        metrics.barriers_offloaded.inc();
        guard.tickets += 1;
        if guard.requested_seq < seq {
            guard.requested_seq = seq;
        }
        metrics
            .sync_queue_depth
            .set((guard.tickets + guard.syncing_tickets) as i64);
        self.work.notify_one();
        loop {
            if guard.durable_seq >= seq {
                return Some(Ok(()));
            }
            if guard.failed_seq >= seq {
                let msg = guard
                    .fail_msg
                    .clone()
                    .unwrap_or_else(|| "sync worker failed".to_string());
                return Some(Err(BlockError::Io(msg)));
            }
            if !guard.worker_attached {
                return None;
            }
            guard = self.retired.wait(guard).expect("commit lock poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_barrier_syncs_once() {
        let gc = GroupCommit::new();
        let m = StoreMetrics::new();
        let syncs = AtomicU64::new(0);
        gc.barrier(5, &m, || {
            syncs.fetch_add(1, Ordering::SeqCst);
            Ok(7)
        })
        .unwrap();
        assert_eq!(syncs.load(Ordering::SeqCst), 1);
        assert_eq!(gc.durable_seq(), 7);
        assert_eq!(m.fsyncs_coalesced.get(), 0);
        assert_eq!(m.commit_batch.snapshot().count, 1);
    }

    #[test]
    fn covered_barrier_never_syncs() {
        let gc = GroupCommit::new();
        let m = StoreMetrics::new();
        gc.barrier(3, &m, || Ok(10)).unwrap();
        // Seqs 4..=10 were covered by the first sync.
        gc.barrier(10, &m, || panic!("must not sync")).unwrap();
        assert_eq!(m.fsyncs_coalesced.get(), 1);
    }

    #[test]
    fn sync_error_propagates_and_unblocks() {
        let gc = Arc::new(GroupCommit::new());
        let m = StoreMetrics::new();
        let err = gc
            .barrier(1, &m, || Err(BlockError::Io("dead".into())))
            .unwrap_err();
        assert!(matches!(err, BlockError::Io(_)));
        // The coordinator is not wedged: a later barrier can still lead.
        gc.barrier(1, &m, || Ok(1)).unwrap();
        assert_eq!(gc.durable_seq(), 1);
    }

    #[test]
    fn concurrent_barriers_coalesce() {
        let gc = Arc::new(GroupCommit::new());
        let m = StoreMetrics::new();
        let appended = Arc::new(AtomicU64::new(0));
        let syncs = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let gc = Arc::clone(&gc);
                let m = Arc::clone(&m);
                let appended = Arc::clone(&appended);
                let syncs = Arc::clone(&syncs);
                std::thread::spawn(move || {
                    for _ in 0..32 {
                        let seq = appended.fetch_add(1, Ordering::SeqCst) + 1;
                        let appended = Arc::clone(&appended);
                        let syncs = Arc::clone(&syncs);
                        gc.barrier(seq, &m, move || {
                            syncs.fetch_add(1, Ordering::SeqCst);
                            // Emulate a slow device barrier so queues pile
                            // up behind the leader.
                            std::thread::sleep(std::time::Duration::from_micros(200));
                            Ok(appended.load(Ordering::SeqCst))
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total = 8 * 32u64;
        let s = syncs.load(Ordering::SeqCst);
        assert!(s < total, "no coalescing: {s} syncs for {total} barriers");
        assert_eq!(m.fsyncs_coalesced.get(), total - s);
        assert_eq!(gc.durable_seq(), total);
    }

    #[test]
    fn submit_poll_roundtrip_through_a_manual_worker() {
        let gc = GroupCommit::new();
        let m = StoreMetrics::new();
        gc.attach_worker();
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
        gc.attach_worker();
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
        gc.attach_worker();
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
    fn blocking_barrier_rides_the_attached_worker() {
        let gc = Arc::new(GroupCommit::new());
        let m = StoreMetrics::new();
        gc.attach_worker();
        let waiter = {
            let gc = Arc::clone(&gc);
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                gc.barrier(7, &m, || -> Result<u64, BlockError> {
                    panic!("offloaded barrier must never lead its own sync")
                })
            })
        };
        // Worker side: serve rounds until the waiter's seq is requested.
        let target = gc.next_sync_request().expect("waiter enrolls a ticket");
        assert_eq!(target, 7);
        gc.complete_sync(target, Ok(7), &m);
        waiter.join().unwrap().unwrap();
        assert_eq!(gc.durable_seq(), 7);
        assert_eq!(m.barriers_offloaded.get(), 1);
        assert_eq!(m.barriers_inline.get(), 0);
    }

    #[test]
    fn blocking_barrier_surfaces_worker_failure() {
        let gc = Arc::new(GroupCommit::new());
        let m = StoreMetrics::new();
        gc.attach_worker();
        let waiter = {
            let gc = Arc::clone(&gc);
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                gc.barrier(1, &m, || -> Result<u64, BlockError> {
                    panic!("offloaded barrier must never lead its own sync")
                })
            })
        };
        let target = gc.next_sync_request().unwrap();
        gc.complete_sync(target, Err(BlockError::Io("dead".into())), &m);
        let err = waiter.join().unwrap().unwrap_err();
        assert!(matches!(err, BlockError::Io(_)), "got {err:?}");
    }

    #[test]
    fn shutdown_wakes_the_worker_loop() {
        let gc = Arc::new(GroupCommit::new());
        gc.attach_worker();
        let worker = {
            let gc = Arc::clone(&gc);
            std::thread::spawn(move || gc.next_sync_request())
        };
        // Give the worker a moment to park, then shut it down.
        std::thread::sleep(std::time::Duration::from_millis(10));
        gc.shutdown_worker();
        assert_eq!(worker.join().unwrap(), None);
        assert!(!gc.offloaded());
    }
}
