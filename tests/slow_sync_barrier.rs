//! Regression pin: a slow `fdatasync` must not look like a stalled or
//! dead connection, and a target that really is stuck still must.
//!
//! Every file-backed namespace syncs on its store's own worker thread,
//! so a FUA write or Flush parks at the target while the reactor keeps
//! serving every other command and keep-alive. The recovery core runs
//! every deadline and the keep-alive clock on live time and pads only a
//! barrier command's own deadline by `InitiatorOptions::barrier_grace`.
//! With a command deadline and keep-alive grace tuned far *below* the
//! device's sync time, nothing spurious may fire — and a peer that stops
//! answering is still declared dead.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use nvme_oaf::nvmeof::initiator::{Initiator, InitiatorOptions, KeepAliveConfig};
use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::nvmeof::server::ConnectionSpec;
use nvme_oaf::nvmeof::shard::{spawn_sharded, ShardConfig};
use nvme_oaf::nvmeof::target::{spawn_target, TargetConfig, TargetHandle};
use nvme_oaf::nvmeof::transport::ShmTransport;
use nvme_oaf::store::vfs::{MemVfs, Vfs};
use nvme_oaf::store::FileDisk;

const TIMEOUT: Duration = Duration::from_secs(10);
const BS: usize = 4096;
const BLOCKS: u64 = 64;
/// Control ring bytes per direction.
const RING: u64 = 1 << 20;

/// Deadline and keep-alive tuned an order of magnitude *below* the sync
/// stall: a reactor blocked in an 80 ms fsync would fire several
/// deadline sweeps and exhaust the 30 ms keep-alive grace.
fn twitchy_options() -> InitiatorOptions {
    InitiatorOptions {
        cmd_deadline: Some(Duration::from_millis(10)),
        max_retries: 2,
        retry_backoff: Duration::from_millis(2),
        keepalive: Some(KeepAliveConfig {
            interval: Duration::from_millis(10),
            grace: Duration::from_millis(30),
        }),
        // Covers the barrier's own wait on the device; the pad is what a
        // real deployment tunes to its worst-case fsync.
        barrier_grace: Duration::from_millis(500),
        ..InitiatorOptions::default()
    }
}

/// A target over one file-backed namespace whose every `fdatasync` takes
/// 80 ms, reporting into `registry`, and an initiator connected to it.
fn slow_sync_pair(
    registry: &Arc<oaf_telemetry::Registry>,
) -> (Initiator<ShmTransport>, TargetHandle) {
    let vfs = MemVfs::new();
    let disk = FileDisk::create_on(Box::new(vfs.clone()), BS as u32, BLOCKS, 256 * 1024)
        .expect("format disk");
    vfs.set_sync_delay(Duration::from_millis(80));
    let mut controller = Controller::new();
    controller.add_namespace(Namespace::with_file(1, disk));

    let (ct, tt) = ShmTransport::pair(RING);
    let spec = ConnectionSpec {
        transport: Box::new(tt),
        cfg: TargetConfig::default(),
        payload: None,
    };
    let handle = spawn_sharded(controller, vec![spec], ShardConfig::new(1), registry);
    let ini = Initiator::connect(ct, twitchy_options(), None, TIMEOUT).expect("connect");
    (ini, handle)
}

/// No deadline retry, timeout, abort, degrade or peer death fired.
fn assert_nothing_spurious(ini: &mut Initiator<ShmTransport>) {
    let m = ini.metrics();
    assert_eq!(m.timeouts.get(), 0, "spurious Timeout fired");
    assert_eq!(m.retries.get(), 0, "a command timed out behind the barrier");
    assert_eq!(m.aborts_sent.get(), 0, "spurious abort round-trip fired");
    assert_eq!(m.degradations.get(), 0, "spurious degradation fired");
    assert!(ini.take_timed_out().is_empty());
}

/// A FUA write with a read riding along, then two back-to-back Flushes,
/// each waiting out an 80 ms fsync ~8× the command deadline and ~2.7×
/// the keep-alive grace: nothing spurious fires.
#[test]
fn slow_fsync_does_not_fire_timeout_or_peer_death() {
    let registry = Arc::new(oaf_telemetry::Registry::new());
    let (mut ini, handle) = slow_sync_pair(&registry);

    let w = ini
        .submit_write_fua(1, 3, 1, Bytes::from(vec![0xA5u8; BS]))
        .expect("submit fua");
    let r = ini.submit_read(1, 0, 1, BS).expect("submit read");
    let wres = ini.wait(w, TIMEOUT).expect("fua write survives slow sync");
    assert!(wres.status.is_ok(), "fua write status: {:?}", wres.status);
    let rres = ini.wait(r, TIMEOUT).expect("read survives slow sync");
    assert!(rres.status.is_ok(), "read status: {:?}", rres.status);

    // Back-to-back barriers with nothing else in flight: only
    // keep-alives cross the wire while each one syncs.
    for _ in 0..2 {
        let f = ini.submit_flush(1).expect("submit flush");
        let fres = ini.wait(f, TIMEOUT).expect("flush survives slow sync");
        assert!(fres.status.is_ok());
    }

    assert_nothing_spurious(&mut ini);
    ini.disconnect().expect("disconnect");
    handle.shutdown().expect("target shutdown");

    let snap = registry.snapshot();
    assert!(
        snap.counter("target_conn0", "barriers_parked") >= 3,
        "the barriers never took the parked path"
    );
}

/// While a FUA write is parked on its 80 ms fsync, a burst of reads is
/// served on *live* 10 ms deadlines: the reactor never waits on the sync.
#[test]
fn offloaded_sync_keeps_reads_flowing_during_barrier() {
    let registry = Arc::new(oaf_telemetry::Registry::new());
    let (mut ini, handle) = slow_sync_pair(&registry);

    // Seed blocks so the reads below return data.
    ini.write_blocking(1, 0, 1, Bytes::from(vec![0x11u8; BS]), TIMEOUT)
        .expect("seed write");

    // The FUA write parks at the target with its 80 ms fsync in flight
    // on the sync worker — ~8× its own unpadded deadline…
    let w = ini
        .submit_write_fua(1, 3, 1, Bytes::from(vec![0xA5u8; BS]))
        .expect("submit fua");
    // …and while it is parked, a burst of reads is served on live 10 ms
    // deadlines. Had the reactor blocked in the sync (or queued the
    // reads behind the barrier), every one of these would burn retries
    // and the metrics below would catch it.
    let mut reads = Vec::new();
    for i in 0..8u64 {
        reads.push(ini.submit_read(1, i % 4, 1, BS).expect("submit read"));
    }
    for r in reads {
        let res = ini.wait(r, TIMEOUT).expect("read survives in-flight sync");
        assert!(res.status.is_ok(), "read status: {:?}", res.status);
    }
    let wres = ini.wait(w, TIMEOUT).expect("fua completes once durable");
    assert!(wres.status.is_ok(), "fua status: {:?}", wres.status);

    assert_nothing_spurious(&mut ini);
    ini.disconnect().expect("disconnect");
    handle.shutdown().expect("target shutdown");

    let snap = registry.snapshot();
    assert!(
        snap.counter("target_conn0", "barriers_parked") >= 1,
        "the FUA barrier never took the parked path"
    );
}

/// A [`MemVfs`] whose next journal write, once armed, blocks its caller
/// (the target's reactor thread) for `stall` — a wedged target.
struct WedgeVfs {
    inner: MemVfs,
    armed: Arc<AtomicBool>,
    stall: Duration,
}

impl Vfs for WedgeVfs {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_at(off, buf)
    }

    fn write_at(&mut self, off: u64, buf: &[u8]) -> io::Result<()> {
        if self.armed.swap(false, Ordering::SeqCst) {
            std::thread::sleep(self.stall);
        }
        self.inner.write_at(off, buf)
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
        self.inner.try_clone()
    }
}

/// The barrier grace pads the barrier's own deadline, not the
/// connection's liveness: a target wedged for 2 s in the journal append
/// of an in-flight Flush is declared dead on the keep-alive grace.
#[test]
fn keepalive_still_detects_a_peer_wedged_past_the_grace() {
    use nvme_oaf::nvmeof::NvmeofError;

    let armed = Arc::new(AtomicBool::new(false));
    let vfs = WedgeVfs {
        inner: MemVfs::new(),
        armed: Arc::clone(&armed),
        stall: Duration::from_secs(2),
    };
    let disk =
        FileDisk::create_on(Box::new(vfs), BS as u32, BLOCKS, 64 * 1024).expect("format disk");
    let mut controller = Controller::new();
    controller.add_namespace(Namespace::with_file(1, disk));
    let (ct, tt) = ShmTransport::pair(RING);
    let handle = spawn_target(tt, controller, TargetConfig::default(), None);

    let opts = InitiatorOptions {
        barrier_grace: Duration::from_millis(50),
        ..twitchy_options()
    };
    let mut ini = Initiator::connect(ct, opts, None, TIMEOUT).expect("connect");
    // The Flush's record append is the target's next journal write.
    armed.store(true, Ordering::SeqCst);
    let f = ini.submit_flush(1).expect("submit flush");

    let deadline = std::time::Instant::now() + TIMEOUT;
    let died = loop {
        match ini.poll() {
            Err(NvmeofError::PeerDead) => break true,
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => {}
        }
        if std::time::Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(died, "keep-alive failed to declare a wedged peer dead");
    let _ = f;

    // The reactor wakes from its write and sees the stop flag.
    drop(ini);
    let _ = handle.shutdown();
}
