//! Pooled writes over a cross-host TCP fabric (no shared memory): the
//! Buffer Manager's pool buffer is the wire payload itself, adopted
//! without a copy and returned to the lock-free pool when the initiator
//! drops the payload — at completion, at give-up or at teardown.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, IoSlice};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oaf_core::conn::FabricSettings;
use oaf_core::locality::{HostRegistry, ProcessId};
use oaf_core::runtime::{launch, AfPair, DEFAULT_TIMEOUT};
use oaf_nvmeof::nvme::controller::Controller;
use oaf_nvmeof::nvme::namespace::Namespace;
use oaf_nvmeof::NvmeofError;
use oaf_store::vfs::{MemVfs, Vfs};
use oaf_store::FileDisk;

/// Allocations of at least this size count as payload-sized.
const PAYLOAD: usize = 128 * 1024;
const NLB: u32 = (PAYLOAD / 4096) as u32;

/// Counts payload-sized allocations on threads that opted in; delegates
/// to [`System`].
struct CountingAlloc;

thread_local! {
    static TRACK: Cell<bool> = const { Cell::new(false) };
    static BIG_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    if size >= PAYLOAD && TRACK.try_with(Cell::get).unwrap_or(false) {
        let _ = BIG_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A client and a target on different hosts: the TCP fabric, pooled
/// buffers only.
fn remote_pair(controller: Controller, settings: FabricSettings) -> AfPair {
    let registry = Arc::new(HostRegistry::new());
    let pair = launch(
        &registry,
        (ProcessId(1), 10),
        (ProcessId(2), 11),
        controller,
        settings,
    )
    .expect("launch");
    assert!(!pair.client.shm_active(), "cross-host pair must run on TCP");
    pair
}

fn ram_controller() -> Controller {
    let mut c = Controller::new();
    c.add_namespace(Namespace::new(1, 4096, 1024));
    c
}

/// Polls until `n` completions arrived, each successful.
fn poll_until(pair: &mut AfPair, mut n: usize) {
    let give_up = Instant::now() + DEFAULT_TIMEOUT;
    while n > 0 {
        for r in pair.client.poll().expect("poll") {
            assert!(r.status.is_ok(), "{:?}", r.status);
            n -= 1;
        }
        assert!(Instant::now() < give_up, "{n} writes never completed");
    }
}

/// One write: alloc 128 KiB, fill, submit, poll to completion.
fn pooled_write(pair: &mut AfPair, i: u64) {
    let mut buf = pair.client.alloc(PAYLOAD).expect("alloc");
    assert!(!buf.is_zero_copy());
    buf.fill(i as u8);
    pair.client
        .submit_write(1, (i % 8) * u64::from(NLB), NLB, buf)
        .expect("submit");
    poll_until(pair, 1);
}

/// Steady state on the client thread: no lock (the pool claims by CAS)
/// and no payload-sized allocation (the pool buffer is the payload).
#[test]
fn pooled_writes_take_no_lock_and_no_payload_allocation() {
    let mut pair = remote_pair(ram_controller(), FabricSettings::default());
    for i in 0..32 {
        pooled_write(&mut pair, i);
    }

    const N: u64 = 200;
    parking_lot::probe::arm_thread();
    parking_lot::probe::reset();
    parking_lot::probe::set_counting(true);
    BIG_ALLOCS.with(|c| c.set(0));
    TRACK.with(|t| t.set(true));
    for i in 0..N {
        pooled_write(&mut pair, i);
    }
    TRACK.with(|t| t.set(false));
    parking_lot::probe::set_counting(false);

    assert_eq!(
        parking_lot::probe::acquisitions(),
        0,
        "{N} pooled writes took locks on the client thread"
    );
    assert_eq!(
        BIG_ALLOCS.with(Cell::get),
        0,
        "{N} pooled writes allocated payload-sized buffers"
    );
    // The written bytes are the pool buffer's.
    let back = pair
        .client
        .read(1, 7 * u64::from(NLB), NLB, PAYLOAD, DEFAULT_TIMEOUT)
        .expect("read back");
    assert!(back.iter().all(|&b| b == (N - 1) as u8));
    assert_eq!(
        pair.client.pool().available(),
        pair.client.pool().capacity()
    );
    pair.client.disconnect().expect("disconnect");
    pair.target.shutdown().expect("shutdown");
}

/// A buffer is held until its write completes, so the pool has room for
/// a full queue depth of writes in flight and still serves one more
/// allocation.
#[test]
fn a_full_queue_of_pooled_writes_leaves_room_to_allocate() {
    let settings = FabricSettings {
        depth: 16,
        ..FabricSettings::default()
    };
    let depth = settings.depth;
    let mut pair = remote_pair(ram_controller(), settings);
    let capacity = pair.client.pool().capacity();
    for i in 0..depth as u64 {
        let buf = pair.client.alloc(PAYLOAD).expect("alloc in flight");
        pair.client
            .submit_write(1, i * u64::from(NLB), NLB, buf)
            .expect("submit");
    }
    let extra = pair.client.alloc(PAYLOAD).expect("one more alloc");
    assert!(!extra.is_zero_copy());
    drop(extra);
    poll_until(&mut pair, depth);
    assert_eq!(pair.client.pool().available(), capacity);
    pair.client.disconnect().expect("disconnect");
    pair.target.shutdown().expect("shutdown");
}

/// A [`MemVfs`] whose writes wait while `stalled` is set: a target
/// reactor executing a write against it stops serving its connection.
struct GatedVfs {
    inner: MemVfs,
    stalled: Arc<AtomicBool>,
}

impl GatedVfs {
    fn wait_open(&self) {
        while self.stalled.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Vfs for GatedVfs {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_at(off, buf)
    }

    fn write_at(&mut self, off: u64, buf: &[u8]) -> io::Result<()> {
        self.wait_open();
        self.inner.write_at(off, buf)
    }

    fn write_vectored_at(&mut self, off: u64, bufs: &[IoSlice<'_>]) -> io::Result<()> {
        self.wait_open();
        self.inner.write_vectored_at(off, bufs)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn try_clone(&self) -> io::Result<Box<dyn Vfs>> {
        Ok(Box::new(GatedVfs {
            inner: self.inner.clone(),
            stalled: self.stalled.clone(),
        }))
    }
}

/// A pooled write the initiator gives up on (the target stalled past
/// the deadline and every retry) returns its buffer to the pool.
#[test]
fn a_given_up_pooled_write_returns_its_buffer() {
    let stalled = Arc::new(AtomicBool::new(false));
    let vfs = GatedVfs {
        inner: MemVfs::new(),
        stalled: stalled.clone(),
    };
    let disk = FileDisk::create_on(Box::new(vfs), 4096, 256, 1024 * 1024).expect("format disk");
    let mut controller = Controller::new();
    controller.add_namespace(Namespace::with_file(1, disk));
    let settings = FabricSettings {
        cmd_deadline: Some(Duration::from_millis(20)),
        max_retries: 1,
        retry_backoff: Duration::from_millis(1),
        ..FabricSettings::default()
    };
    let mut pair = remote_pair(controller, settings);
    let capacity = pair.client.pool().capacity();

    stalled.store(true, Ordering::Release);
    let mut buf = pair.client.alloc(PAYLOAD).expect("alloc");
    buf.fill(0x5a);
    let err = pair
        .client
        .write(1, 0, NLB, buf, DEFAULT_TIMEOUT)
        .expect_err("a stalled target cannot complete the write");
    assert!(matches!(err, NvmeofError::Timeout { .. }), "{err}");
    assert_eq!(
        pair.client.pool().available(),
        capacity,
        "the given-up write kept its pool buffer"
    );
    stalled.store(false, Ordering::Release);
    pair.client.disconnect().expect("disconnect");
    pair.target.shutdown().expect("shutdown");
}
