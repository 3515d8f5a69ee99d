//! Cross-crate integration tests: the real (threaded) NVMe-oAF runtime
//! moving actual bytes end to end over both channels.

use std::sync::Arc;
use std::time::Duration;

use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::oaf::conn::FabricSettings;
use nvme_oaf::oaf::endpoint::ChannelKind;
use nvme_oaf::oaf::locality::{HostRegistry, ProcessId};
use nvme_oaf::oaf::runtime::{launch, AfPair};

const TIMEOUT: Duration = Duration::from_secs(10);

fn controller(blocks: u64) -> Controller {
    let mut c = Controller::new();
    c.add_namespace(Namespace::new(1, 4096, blocks));
    c
}

fn pair(local: bool) -> AfPair {
    let registry = Arc::new(HostRegistry::new());
    launch(
        &registry,
        (ProcessId(1), 1),
        (ProcessId(2), if local { 1 } else { 2 }),
        controller(4096),
        FabricSettings::default(),
    )
    .expect("fabric establishment")
}

fn pattern(i: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|k| ((i * 131 + k as u64 * 7) % 251) as u8)
        .collect()
}

#[test]
fn local_fabric_selects_shm_and_roundtrips() {
    let mut p = pair(true);
    assert!(p.client.shm_active());
    assert_eq!(p.client.endpoint().channel(), ChannelKind::Shm);

    for (lba, blocks) in [(0u64, 1u32), (8, 4), (64, 32)] {
        let len = blocks as usize * 4096;
        let data = pattern(lba, len);
        let mut buf = p.client.alloc(len).expect("alloc");
        assert!(buf.is_zero_copy(), "local buffers must be zero-copy");
        buf.copy_from_slice(&data);
        p.client.write(1, lba, blocks, buf, TIMEOUT).expect("write");
        let back = p.client.read(1, lba, blocks, len, TIMEOUT).expect("read");
        assert_eq!(back, data, "lba {lba} x {blocks}");
    }
    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");
}

#[test]
fn remote_fabric_falls_back_to_tcp_and_roundtrips() {
    let mut p = pair(false);
    assert!(!p.client.shm_active());
    assert_eq!(p.client.endpoint().channel(), ChannelKind::Tcp);

    let len = 128 * 1024;
    let data = pattern(3, len);
    let mut buf = p.client.alloc(len).expect("alloc");
    assert!(!buf.is_zero_copy());
    buf.copy_from_slice(&data);
    p.client.write(1, 16, 32, buf, TIMEOUT).expect("write");
    let back = p.client.read(1, 16, 32, len, TIMEOUT).expect("read");
    assert_eq!(back, data);
    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");
}

#[test]
fn pipelined_qd_traffic_is_consistent() {
    let mut p = pair(true);
    let qd = 32usize;
    let blocks = 4u32;
    let len = blocks as usize * 4096;

    // Submit a full window of writes, each to its own LBA range.
    let mut cids = Vec::new();
    for i in 0..qd {
        let mut buf = p.client.alloc(len).expect("alloc");
        buf.copy_from_slice(&pattern(i as u64, len));
        let cid = p
            .client
            .submit_write(1, (i as u64) * u64::from(blocks), blocks, buf)
            .expect("submit");
        cids.push(cid);
    }
    for cid in cids {
        let done = p.client.wait(cid, TIMEOUT).expect("completion");
        assert!(done.status.is_ok());
    }
    // Verify all ranges.
    for i in 0..qd {
        let back = p
            .client
            .read(1, (i as u64) * u64::from(blocks), blocks, len, TIMEOUT)
            .expect("read");
        assert_eq!(back, pattern(i as u64, len), "window {i}");
    }
    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");
}

#[test]
fn mixed_interleaved_reads_and_writes() {
    let mut p = pair(true);
    let len = 4096;
    // Interleave writes and reads over overlapping LBAs; the last write
    // to an LBA must win.
    for round in 0..20u64 {
        let mut buf = p.client.alloc(len).expect("alloc");
        buf.copy_from_slice(&pattern(round, len));
        p.client
            .write(1, round % 5, 1, buf, TIMEOUT)
            .expect("write");
        let back = p.client.read(1, round % 5, 1, len, TIMEOUT).expect("read");
        assert_eq!(back, pattern(round, len));
    }
    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");
}

#[test]
fn out_of_range_io_surfaces_nvme_error() {
    let mut p = pair(true);
    let err = p.client.read(1, 1 << 40, 1, 4096, TIMEOUT).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("LbaOutOfRange"), "got: {msg}");
    // The connection must survive the error.
    let back = p
        .client
        .read(1, 0, 1, 4096, TIMEOUT)
        .expect("read after error");
    assert_eq!(back.len(), 4096);
    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");
}

#[test]
fn client_stats_reflect_traffic() {
    let mut p = pair(true);
    let app = |name: &str| p.telemetry.snapshot().counter("app", name);
    assert_eq!(app("writes") + app("reads"), 0);

    let len = 8192;
    let mut buf = p.client.alloc(len).expect("alloc");
    buf.copy_from_slice(&pattern(1, len));
    p.client.write(1, 0, 2, buf, TIMEOUT).expect("write");
    p.client.read(1, 0, 2, len, TIMEOUT).expect("read");
    // An error counts as an error, not an op.
    let _ = p.client.read(1, 1 << 40, 1, 4096, TIMEOUT);

    assert_eq!(app("writes"), 1);
    assert_eq!(app("reads"), 1);
    assert_eq!(app("bytes_written"), len as u64);
    assert_eq!(app("bytes_read"), len as u64);
    assert_eq!(app("errors"), 1);
    assert_eq!(app("zero_copy_writes"), 1, "local write must be zero-copy");
    assert!(app("blocking_micros") > 0);

    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");
}

#[test]
fn two_clients_get_isolated_channels() {
    let registry = Arc::new(HostRegistry::new());
    let mut a = launch(
        &registry,
        (ProcessId(11), 1),
        (ProcessId(12), 1),
        controller(1024),
        FabricSettings::default(),
    )
    .expect("fabric a");
    let mut b = launch(
        &registry,
        (ProcessId(21), 1),
        (ProcessId(22), 1),
        controller(1024),
        FabricSettings::default(),
    )
    .expect("fabric b");
    assert!(a.client.shm_active() && b.client.shm_active());

    let da = pattern(100, 4096);
    let db = pattern(200, 4096);
    let mut ba = a.client.alloc(4096).expect("alloc");
    ba.copy_from_slice(&da);
    a.client.write(1, 0, 1, ba, TIMEOUT).expect("write a");
    let mut bb = b.client.alloc(4096).expect("alloc");
    bb.copy_from_slice(&db);
    b.client.write(1, 0, 1, bb, TIMEOUT).expect("write b");

    assert_eq!(a.client.read(1, 0, 1, 4096, TIMEOUT).expect("read a"), da);
    assert_eq!(b.client.read(1, 0, 1, 4096, TIMEOUT).expect("read b"), db);

    a.client.disconnect().expect("disconnect");
    b.client.disconnect().expect("disconnect");
    a.target.shutdown().expect("shutdown");
    b.target.shutdown().expect("shutdown");
}
