//! End-to-end durability: an [`AfClient`] on real kernel sockets
//! (remote placement → NVMe/TCP loopback) driving a file-backed,
//! journaled namespace. The acceptance path for the durable store:
//! Write, Write+FUA, Flush and Dataset Management (TRIM) all cross the
//! wire as NVMe commands, land in the intent log, and survive tearing
//! the whole runtime down and reopening the backing file cold.
//!
//! [`AfClient`]: nvme_oaf::oaf::runtime::AfClient

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::oaf::conn::FabricSettings;
use nvme_oaf::oaf::locality::{HostRegistry, ProcessId};
use nvme_oaf::oaf::runtime::{launch, AfPair};
use nvme_oaf::ssd::BlockStore;
use nvme_oaf::store::FileDisk;

const TIMEOUT: Duration = Duration::from_secs(10);
const BS: usize = 4096;
const BLOCKS: u64 = 256;

/// A unique temp path per test; best-effort removed by [`TempPath`]'s
/// drop so reruns start clean even after a failure.
struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> TempPath {
        let mut p = std::env::temp_dir();
        p.push(format!("oaf-durable-{tag}-{}.img", std::process::id()));
        let _ = std::fs::remove_file(&p);
        TempPath(p)
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn launch_remote_file_backed(path: &PathBuf) -> AfPair {
    let disk = FileDisk::create(path, BS as u32, BLOCKS).expect("format backing file");
    let mut controller = Controller::new();
    controller.add_namespace(Namespace::with_file(1, disk));
    let registry = Arc::new(HostRegistry::new());
    // Different host ids: the fabric selects the real-socket NVMe/TCP
    // path, not shared memory.
    launch(
        &registry,
        (ProcessId(1), 20),
        (ProcessId(2), 21),
        controller,
        FabricSettings::default(),
    )
    .expect("fabric establishment")
}

fn pattern(lba: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|k| ((lba * 167 + k as u64 * 13) % 251) as u8)
        .collect()
}

#[test]
fn trim_flush_fua_roundtrip_over_real_sockets_survives_reopen() {
    let path = TempPath::new("e2e");
    let mut p = launch_remote_file_backed(&path.0);
    assert!(!p.client.shm_active());

    // Plain writes across a few extents.
    for (lba, nlb) in [(0u64, 4u32), (16, 8), (100, 2)] {
        let len = nlb as usize * BS;
        let mut buf = p.client.alloc(len).expect("alloc");
        buf.copy_from_slice(&pattern(lba, len));
        p.client.write(1, lba, nlb, buf, TIMEOUT).expect("write");
    }
    // A FUA write: durable the moment it completes.
    let mut buf = p.client.alloc(BS).expect("alloc");
    buf.copy_from_slice(&pattern(200, BS));
    p.client.write_fua(1, 200, 1, buf, TIMEOUT).expect("fua");
    // TRIM the middle extent, then a barrier over everything else.
    p.client.trim(1, 16, 8, TIMEOUT).expect("trim");
    p.client.flush(1, TIMEOUT).expect("flush");

    // Read back through the fabric: trimmed range zero, the rest intact.
    let back = p.client.read(1, 16, 8, 8 * BS, TIMEOUT).expect("read trim");
    assert!(back.iter().all(|&b| b == 0), "trimmed range must read zero");
    for (lba, nlb) in [(0u64, 4u32), (100, 2), (200, 1)] {
        let len = nlb as usize * BS;
        let back = p.client.read(1, lba, nlb, len, TIMEOUT).expect("read");
        assert_eq!(back, pattern(lba, len), "lba {lba}");
    }

    // The journal saw the traffic, via the runtime-registered scope.
    let snap = p.telemetry.snapshot();
    assert!(snap.counter("store_ns1", "log_appends") >= 6);
    assert_eq!(snap.counter("store_ns1", "trims"), 1);
    assert!(
        snap.counter("store_ns1", "fsyncs") >= 2,
        "FUA and Flush must both hit the sync barrier"
    );
    assert_eq!(snap.counter("store_ns1", "torn_records"), 0);

    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");

    // Cold reopen of the backing file: recovery replays the journal and
    // every acknowledged write is still there, the TRIM still holds.
    let reopened = FileDisk::open(&path.0).expect("reopen");
    let mut out = vec![0u8; 8 * BS];
    reopened.read(16, 8, &mut out).expect("read");
    assert!(out.iter().all(|&b| b == 0), "TRIM must survive reopen");
    for (lba, nlb) in [(0u64, 4u32), (100, 2), (200, 1)] {
        let len = nlb as usize * BS;
        let mut out = vec![0u8; len];
        reopened.read(lba, nlb, &mut out).expect("read");
        assert_eq!(out, pattern(lba, len), "lba {lba} lost across reopen");
    }
    assert!(
        reopened.metrics().replay_ops.get() >= 5,
        "recovery must replay the journaled ops"
    );
}

#[test]
fn restart_target_on_same_file_serves_previous_writes() {
    let path = TempPath::new("restart");

    // First life: write and flush, then tear everything down.
    {
        let mut p = launch_remote_file_backed(&path.0);
        let mut buf = p.client.alloc(2 * BS).expect("alloc");
        buf.copy_from_slice(&pattern(40, 2 * BS));
        p.client.write(1, 40, 2, buf, TIMEOUT).expect("write");
        p.client.flush(1, TIMEOUT).expect("flush");
        p.client.disconnect().expect("disconnect");
        p.target.shutdown().expect("shutdown");
    }

    // Second life: a fresh fabric over the *same* file (open, not
    // create) serves the first life's data through the wire.
    let disk = FileDisk::open(&path.0).expect("reopen backing file");
    let mut controller = Controller::new();
    controller.add_namespace(Namespace::with_file(1, disk));
    let registry = Arc::new(HostRegistry::new());
    let mut p = launch(
        &registry,
        (ProcessId(3), 30),
        (ProcessId(4), 31),
        controller,
        FabricSettings::default(),
    )
    .expect("second fabric");
    let back = p.client.read(1, 40, 2, 2 * BS, TIMEOUT).expect("read");
    assert_eq!(back, pattern(40, 2 * BS));
    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");
}
