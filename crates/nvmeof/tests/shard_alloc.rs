//! Steady-state budget of the sharded runtime: with telemetry live and
//! clients driving traffic into every shard, the shard reactor threads
//! perform **zero heap allocations** and **zero lock acquisitions** per
//! op — the "no lock crosses cores on the data path" contract of
//! [`oaf_nvmeof::shard`], enforced by a counting global allocator and
//! the vendored `parking_lot` acquisition probe.
//!
//! The dev box has one core, so the shards oversubscribe it; that is
//! exactly the point — exclusivity and lock-freedom are properties of
//! the code path, not of the core count, and they must hold under the
//! worst-case interleavings oversubscription produces.
//!
//! The file-backed case runs the same probes over a durable store. Its
//! shard still allocates nothing; it takes at most one lock per store
//! call, the disk's own, since every clone of a shared file store
//! serializes its journal behind it. Its barriers park on tickets that
//! the store's sync worker retires without that lock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use oaf_nvmeof::initiator::{Initiator, InitiatorOptions, IoResult};
use oaf_nvmeof::nvme::controller::Controller;
use oaf_nvmeof::nvme::namespace::Namespace;
use oaf_nvmeof::server::ConnectionSpec;
use oaf_nvmeof::shard::{spawn_sharded, ShardConfig};
use oaf_nvmeof::target::TargetConfig;
use oaf_nvmeof::transport::ShmTransport;
use oaf_store::vfs::MemVfs;
use oaf_store::FileDisk;
use oaf_telemetry::Registry;

/// Counts allocations made by shard threads while the measurement phase
/// is open; delegates to [`System`]. Two-keyed like the lock probe: the
/// shard opts its thread in (via the spawn hook), the harness opens the
/// phase gate only after warm-up.
struct CountingAlloc;

static PHASE_OPEN: AtomicBool = AtomicBool::new(false);
static SHARD_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The probes are process-wide: one test measures at a time.
static SERIAL: Mutex<()> = Mutex::new(());

thread_local! {
    static ON_SHARD: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc() {
    // try_with: alloc can be reached during TLS teardown.
    if PHASE_OPEN.load(Ordering::Relaxed) && ON_SHARD.try_with(Cell::get).unwrap_or(false) {
        SHARD_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const TIMEOUT: Duration = Duration::from_secs(5);
const LBA_SPAN: u64 = 32;

/// One client op with no payload buffers in flight (write-zeroes or
/// flush): the target-side cost is pure control path — decode, execute,
/// complete — which is the budget under test.
fn cycle(ini: &mut Initiator<ShmTransport>, done: &mut Vec<IoResult>, i: u64) {
    let cid = if i.is_multiple_of(2) {
        ini.submit_write_zeroes(1, i % LBA_SPAN, 1).expect("submit")
    } else {
        ini.submit_flush(1).expect("submit")
    };
    complete(ini, done, cid);
}

/// Polls until the one op in flight, `cid`, completes successfully.
fn complete(ini: &mut Initiator<ShmTransport>, done: &mut Vec<IoResult>, cid: u16) {
    loop {
        done.clear();
        if ini.poll_into(done).expect("poll") > 0 {
            break;
        }
        std::thread::yield_now();
    }
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].cid, cid);
    assert!(done[0].status.is_ok(), "op failed: {:?}", done[0].status);
}

#[test]
fn sharded_steady_state_allocates_nothing_and_takes_no_locks() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut controller = Controller::new();
    controller.add_namespace(Namespace::new(1, 4096, 2048));

    // Two shards, one client each, full telemetry stack live.
    let registry = Arc::new(Registry::new());
    let (c1, t1) = ShmTransport::pair(256 * 1024);
    let (c2, t2) = ShmTransport::pair(256 * 1024);
    let spec = |t: ShmTransport| ConnectionSpec {
        transport: Box::new(t),
        cfg: TargetConfig::default(),
        payload: None,
    };
    let mut cfg = ShardConfig::new(2);
    // First thing on each shard thread: opt into both probes. The
    // global phase gates stay shut until warm-up is done.
    cfg.thread_hook = Some(Arc::new(|_shard| {
        ON_SHARD.with(|c| c.set(true));
        parking_lot::probe::arm_thread();
    }));
    let target = spawn_sharded(controller, vec![spec(t1), spec(t2)], cfg, &registry);

    let mut a = Initiator::connect(c1, InitiatorOptions::default(), None, TIMEOUT).expect("a");
    let mut b = Initiator::connect(c2, InitiatorOptions::default(), None, TIMEOUT).expect("b");
    let mut done: Vec<IoResult> = Vec::with_capacity(16);

    // Warm-up: fault in scratch buffers, response staging, the namespace
    // blocks the write-zeroes ops touch, and the ring pages — off the
    // books. Covers every LBA the measured phase will revisit.
    for i in 0..2 * LBA_SPAN {
        cycle(&mut a, &mut done, i);
        cycle(&mut b, &mut done, i);
    }

    let ops_before = target.ops_per_shard();
    let admin_before: Vec<u64> = (0..2)
        .map(|s| target.shard_stats(s).admin_cmds.get())
        .collect();

    parking_lot::probe::reset();
    parking_lot::probe::set_counting(true);
    SHARD_ALLOCS.store(0, Ordering::SeqCst);
    PHASE_OPEN.store(true, Ordering::SeqCst);

    for i in 0..1000u64 {
        cycle(&mut a, &mut done, i);
        cycle(&mut b, &mut done, i);
    }

    PHASE_OPEN.store(false, Ordering::SeqCst);
    parking_lot::probe::set_counting(false);

    let allocs = SHARD_ALLOCS.load(Ordering::SeqCst);
    let locks = parking_lot::probe::acquisitions();
    assert_eq!(
        allocs, 0,
        "shard reactors must not allocate in steady state \
         (saw {allocs} allocations across 2000 ops)"
    );
    assert_eq!(
        locks, 0,
        "shard reactors must not take locks in steady state \
         (saw {locks} acquisitions across 2000 ops)"
    );

    // Both shards actually did the work the budget was measured over
    // (≥1000 frames each: one command frame per op), and no admin
    // traffic snuck into the measured window.
    let ops_after = target.ops_per_shard();
    for s in 0..2 {
        assert!(
            ops_after[s] - ops_before[s] >= 1000,
            "shard {s} ops delta: {} -> {}",
            ops_before[s],
            ops_after[s]
        );
        assert_eq!(target.shard_stats(s).admin_cmds.get(), admin_before[s]);
    }

    // Telemetry was live the whole time: the registry saw the per-shard
    // traffic.
    let snap = registry.snapshot();
    for s in 0..2 {
        assert!(snap.counter(&format!("reactor{s}"), "ops") >= 1000);
    }

    a.disconnect().expect("a disconnect");
    b.disconnect().expect("b disconnect");
    target.shutdown().expect("shutdown");
}

/// One op of the file-backed mix, each one store call: a 4 KiB write, a
/// read of it, a FUA write and a Flush. The two barriers park on their
/// tickets until the sync worker retires them.
fn file_cycle(ini: &mut Initiator<ShmTransport>, done: &mut Vec<IoResult>, block: &Bytes, i: u64) {
    let lba = i / 4 % LBA_SPAN;
    let cid = match i % 4 {
        0 => ini.submit_write(1, lba, 1, block.clone()),
        1 => ini.submit_read(1, lba, 1, 4096),
        2 => ini.submit_write_fua(1, lba + LBA_SPAN, 1, block.clone()),
        _ => ini.submit_flush(1),
    }
    .expect("submit");
    complete(ini, done, cid);
}

#[test]
fn file_backed_shard_allocates_nothing_and_takes_at_most_the_disk_lock() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const OPS: u64 = 2000;
    // The log holds every record of the run, so no checkpoint folds it
    // mid-measurement.
    let disk =
        FileDisk::create_on(Box::new(MemVfs::new()), 4096, 2 * LBA_SPAN, 16 << 20).expect("format");
    let store = Arc::clone(disk.metrics());
    let mut controller = Controller::new();
    controller.add_namespace(Namespace::with_file(1, disk));

    let registry = Arc::new(Registry::new());
    let (c, t) = ShmTransport::pair(256 * 1024);
    let spec = ConnectionSpec {
        transport: Box::new(t),
        cfg: TargetConfig::default(),
        payload: None,
    };
    let mut cfg = ShardConfig::new(1);
    cfg.thread_hook = Some(Arc::new(|_shard| {
        ON_SHARD.with(|c| c.set(true));
        parking_lot::probe::arm_thread();
    }));
    let target = spawn_sharded(controller, vec![spec], cfg, &registry);
    let mut ini =
        Initiator::connect(c, InitiatorOptions::default(), None, TIMEOUT).expect("connect");
    let mut done: Vec<IoResult> = Vec::with_capacity(16);
    let block = Bytes::from(vec![0x5au8; 4096]);

    // Warm-up over every LBA the measured phase revisits.
    for i in 0..8 * LBA_SPAN {
        file_cycle(&mut ini, &mut done, &block, i);
    }

    let (barriers, checkpoints) = (store.barriers_offloaded.get(), store.checkpoints.get());
    parking_lot::probe::reset();
    parking_lot::probe::set_counting(true);
    SHARD_ALLOCS.store(0, Ordering::SeqCst);
    PHASE_OPEN.store(true, Ordering::SeqCst);

    for i in 0..OPS {
        file_cycle(&mut ini, &mut done, &block, i);
    }

    PHASE_OPEN.store(false, Ordering::SeqCst);
    parking_lot::probe::set_counting(false);

    let allocs = SHARD_ALLOCS.load(Ordering::SeqCst);
    let locks = parking_lot::probe::acquisitions();
    eprintln!(
        "file-backed shard: {locks} parking_lot acquisitions over {OPS} store calls \
         ({:.2} per call), {allocs} allocations",
        locks as f64 / OPS as f64
    );
    assert_eq!(
        allocs, 0,
        "a file-backed shard must not allocate in steady state \
         (saw {allocs} allocations across {OPS} ops)"
    );
    assert!(
        locks <= OPS,
        "at most the disk's own lock per store call: {locks} acquisitions across {OPS} ops"
    );

    // Every FUA write and Flush took a ticket, and the log never folded
    // under the measurement.
    assert_eq!(store.barriers_offloaded.get() - barriers, OPS / 2);
    assert_eq!(store.checkpoints.get(), checkpoints);
    assert!(registry.snapshot().counter("reactor0", "ops") >= OPS);

    ini.disconnect().expect("disconnect");
    target.shutdown().expect("shutdown");
}
