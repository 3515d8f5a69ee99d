//! Group-commit coalescing under real concurrency.
//!
//! N threads hammer one [`SharedFileDisk`] with FUA writes (and some
//! Flushes), each barrier a ticket its writer polls until the sync
//! worker retires it. The coordinator must retire most barriers on an
//! `fdatasync` another barrier started: the acceptance bar is ≥2×
//! coalescing (`fsyncs` ≤ barriers/2), every barrier accounted for
//! (led or coalesced, no lost wakeups — the test would hang), and no
//! data loss.
//!
//! [`SharedFileDisk`]: oaf_store::SharedFileDisk

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use oaf_ssd::{BarrierPoll, BlockStore};
use oaf_store::vfs::{MemVfs, Vfs};
use oaf_store::{FileDisk, GroupCommit};

/// A [`MemVfs`] whose `sync` takes ~a device barrier's time, so
/// concurrent barriers actually overlap even on a single-core runner.
#[derive(Clone)]
struct SlowSyncVfs {
    inner: Arc<Mutex<MemVfs>>,
    syncs: Arc<AtomicU64>,
}

impl SlowSyncVfs {
    fn new() -> SlowSyncVfs {
        SlowSyncVfs {
            inner: Arc::new(Mutex::new(MemVfs::new())),
            syncs: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Vfs for SlowSyncVfs {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.inner.lock().unwrap().read_at(off, buf)
    }
    fn write_at(&mut self, off: u64, buf: &[u8]) -> std::io::Result<()> {
        self.inner.lock().unwrap().write_at(off, buf)
    }
    fn sync(&mut self) -> std::io::Result<()> {
        self.syncs.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_micros(400));
        self.inner.lock().unwrap().sync()
    }
    fn len(&self) -> std::io::Result<u64> {
        self.inner.lock().unwrap().len()
    }
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.inner.lock().unwrap().set_len(len)
    }
    fn try_clone(&self) -> std::io::Result<Box<dyn Vfs>> {
        Ok(Box::new(self.clone()))
    }
}

const WRITERS: u64 = 8;
const OPS_PER_WRITER: u64 = 24;

/// Writer `t`'s slot in [`SyncGate::tickets`] once it has run its last
/// op.
const FINISHED: u64 = u64::MAX;

/// The deterministic stand-in for "a slow device": the sync worker's
/// `sync` does not start until every live writer has a barrier ticket
/// enrolled that the coordinator has not retired yet.
#[derive(Default)]
struct SyncGate {
    /// Per writer: the sequence of its current ticket (0 before its
    /// first), or [`FINISHED`].
    tickets: Vec<AtomicU64>,
    commit: OnceLock<Arc<GroupCommit>>,
}

impl SyncGate {
    fn all_enrolled(&self) -> bool {
        let durable = self.commit.get().expect("disk built").durable_seq();
        self.tickets.iter().all(|t| {
            let seq = t.load(Ordering::SeqCst);
            seq == FINISHED || seq > durable
        })
    }
}

/// The sync worker's handle onto the disk's image, gated by
/// [`SyncGate`].
struct GatedSyncVfs {
    inner: MemVfs,
    gate: Arc<SyncGate>,
}

impl Vfs for GatedSyncVfs {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.inner.read_at(off, buf)
    }
    fn write_at(&mut self, off: u64, buf: &[u8]) -> std::io::Result<()> {
        self.inner.write_at(off, buf)
    }
    fn sync(&mut self) -> std::io::Result<()> {
        while !self.gate.all_enrolled() {
            std::thread::yield_now();
        }
        self.inner.sync()
    }
    fn len(&self) -> std::io::Result<u64> {
        self.inner.len()
    }
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.inner.set_len(len)
    }
    fn try_clone(&self) -> std::io::Result<Box<dyn Vfs>> {
        self.inner.try_clone()
    }
}

/// Coalescing, pinned without timing.
///
/// Every barrier is a ticket on the sync worker, which syncs with the
/// disk lock released, and the worker's sync waits at
/// [`SyncGate`] until every live writer has a ticket enrolled. Every
/// ticket enrolled when a round's gate opens is covered by that round
/// or the next one (whose watermark read comes after it), so each
/// writer finishes at least one op per two rounds: at most
/// 2 × `OPS_PER_WRITER` + 1 syncs for `WRITERS × OPS_PER_WRITER`
/// barriers, ≥ 3.8× coalescing with 8 writers, whatever the scheduler
/// does.
#[test]
fn concurrent_fua_writers_coalesce_at_least_2x() {
    let vfs = MemVfs::new();
    let gate = Arc::new(SyncGate {
        tickets: (0..WRITERS).map(|_| AtomicU64::new(0)).collect(),
        ..SyncGate::default()
    });
    let disk = FileDisk::create_on(Box::new(vfs.clone()), 512, 256, 256 * 1024)
        .unwrap()
        .with_cache(64)
        .unwrap()
        .into_shared()
        .with_sync_worker(Box::new(GatedSyncVfs {
            inner: vfs,
            gate: Arc::clone(&gate),
        }));
    let _ = gate.commit.set(Arc::clone(disk.group_commit()));

    let threads: Vec<_> = (0..WRITERS)
        .map(|t| {
            let mut d = disk.clone();
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                for i in 0..OPS_PER_WRITER {
                    let lba = t * OPS_PER_WRITER + i;
                    let stamp = (lba % 250) as u8 + 1;
                    let ticket = if i % 6 == 5 {
                        // A Flush barrier rides the same ticket path.
                        d.write(lba, 1, &[stamp; 512], false).unwrap();
                        d.flush_submit().unwrap()
                    } else {
                        d.write_submit(lba, 1, &[stamp; 512], true).unwrap()
                    };
                    let ticket = ticket.expect("a worker is attached: barriers ticket");
                    gate.tickets[t as usize].store(ticket.seq(), Ordering::SeqCst);
                    while d.poll_barrier(ticket) == BarrierPoll::Pending {
                        std::thread::yield_now();
                    }
                    assert_eq!(d.poll_barrier(ticket), BarrierPoll::Durable);
                }
                gate.tickets[t as usize].store(FINISHED, Ordering::SeqCst);
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap(); // a lost wakeup would hang here
    }

    let m = disk.metrics();
    let barriers = WRITERS * OPS_PER_WRITER; // every op ends in a barrier
    let led = m.fsyncs.get();
    let coalesced = m.fsyncs_coalesced.get();
    assert_eq!(
        led + coalesced,
        barriers,
        "every barrier must either lead one sync or coalesce into one"
    );
    assert!(
        led * 2 <= barriers,
        "expected ≥2× coalescing: {led} fsyncs for {barriers} barriers \
         ({coalesced} coalesced)"
    );
    // The batch histogram saw every sync.
    let batches = m.commit_batch.snapshot();
    assert_eq!(batches.count, led);
    eprintln!(
        "group commit: {barriers} barriers -> {led} fsyncs ({coalesced} coalesced, \
         mean batch {:.1})",
        barriers as f64 / led as f64
    );

    // Durability watermark covers every appended record, and no write
    // was lost through the cache + deferred-apply path.
    assert!(disk.group_commit().durable_seq() >= barriers);
    let mut out = [0u8; 512];
    for lba in 0..WRITERS * OPS_PER_WRITER {
        disk.read(lba, 1, &mut out).unwrap();
        let want = (lba % 250) as u8 + 1;
        assert!(
            out.iter().all(|&b| b == want),
            "lba {lba}: FUA-acknowledged write lost through group commit"
        );
    }
}

#[test]
fn group_commit_keeps_fua_durable_across_reopen() {
    // The coalesced path must be as crash-safe as the solo path: after
    // the threads finish, the durable image alone (no process state)
    // must hold every FUA write.
    let vfs = SlowSyncVfs::new();
    let disk = FileDisk::create_on(Box::new(vfs.clone()), 512, 128, 128 * 1024)
        .unwrap()
        .with_cache(16)
        .unwrap()
        .into_shared();

    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let mut d = disk.clone();
            std::thread::spawn(move || {
                for i in 0..16u64 {
                    let lba = t * 16 + i;
                    d.write(lba, 1, &[(lba % 250) as u8 + 1; 512], true)
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let image = {
        let len = vfs.len().unwrap();
        let mut img = vec![0u8; len as usize];
        vfs.read_at(0, &mut img).unwrap();
        img
    };
    let reopened = FileDisk::open_on(Box::new(MemVfs::from_image(image))).unwrap();
    use oaf_ssd::BlockStore;
    let mut out = [0u8; 512];
    for lba in 0..64u64 {
        reopened.read(lba, 1, &mut out).unwrap();
        assert!(
            out.iter().all(|&b| b == (lba % 250) as u8 + 1),
            "lba {lba}: FUA write not durable after reopen"
        );
    }
}
