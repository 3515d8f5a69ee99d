//! Cross-crate integration tests: the real (threaded) NVMe-oAF runtime
//! moving actual bytes end to end over both channels.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::nvmeof::NvmeofError;
use nvme_oaf::oaf::conn::{ControlPath, FabricSettings};
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

/// Waiting on a cid that is not in flight — one the client already
/// collected, or one it never issued — fails at once with a typed error
/// on both fabrics, instead of spinning out the whole timeout as a
/// connection-level `Timeout` that `app.errors` counts.
#[test]
fn wait_on_a_cid_not_in_flight_fails_at_once() {
    const LONG: Duration = Duration::from_millis(700);
    for local in [true, false] {
        let mut p = pair(local);
        let mut buf = p.client.alloc(4096).expect("alloc");
        buf.copy_from_slice(&pattern(9, 4096));
        let cid = p.client.submit_write(1, 0, 1, buf).expect("submit");
        p.client.wait(cid, TIMEOUT).expect("first wait collects it");

        for stale in [cid, 4242] {
            let t0 = Instant::now();
            let err = p.client.wait(stale, LONG).expect_err("no such command");
            let took = t0.elapsed();
            assert_eq!(err, NvmeofError::UnknownCid { cid: stale }, "local={local}");
            assert!(took < LONG / 4, "local={local}: cid {stale} took {took:?}");
        }
        assert_eq!(p.telemetry.snapshot().counter("app", "errors"), 0);

        // The connection is unharmed.
        let back = p.client.read(1, 0, 1, 4096, TIMEOUT).expect("read");
        assert_eq!(back, pattern(9, 4096), "local={local}");
        p.client.disconnect().expect("disconnect");
        p.target.shutdown().expect("shutdown");
    }
}

/// The socket path streams a write larger than the 512 KiB write chunk
/// as ⌈len / 512 KiB⌉ H2C data PDUs behind one R2T; a co-located client
/// with in-region control moves the same write through shared memory
/// and sends none.
#[test]
fn launched_socket_writes_stream_in_512k_chunks() {
    const LEN: usize = 1280 * 1024;
    for (local, control, chunks) in [
        (false, ControlPath::Tcp, LEN.div_ceil(512 * 1024) as u64),
        (true, ControlPath::InRegion, 0),
    ] {
        let registry = Arc::new(HostRegistry::new());
        let mut p = launch(
            &registry,
            (ProcessId(1), 1),
            (ProcessId(2), if local { 1 } else { 2 }),
            controller(4096),
            FabricSettings {
                depth: 4,
                slot_size: LEN,
                control,
                ..FabricSettings::default()
            },
        )
        .expect("fabric establishment");
        assert_eq!(p.client.shm_active(), local);

        let data = pattern(5, LEN);
        let mut buf = p.client.alloc(LEN).expect("alloc");
        buf.copy_from_slice(&data);
        let blocks = (LEN / 4096) as u32;
        p.client.write(1, 0, blocks, buf, TIMEOUT).expect("write");
        let back = p.client.read(1, 0, blocks, LEN, TIMEOUT).expect("read");
        assert_eq!(back, data, "local={local}");

        let snap = p.telemetry.snapshot();
        assert_eq!(
            snap.counter("client", "h2c_chunks"),
            chunks,
            "local={local}"
        );
        let per_io = snap
            .histo("client", "chunks_per_io")
            .expect("chunks_per_io");
        assert_eq!(per_io.count, u64::from(chunks > 0), "local={local}");
        assert_eq!(per_io.sum, chunks, "local={local}");
        p.client.disconnect().expect("disconnect");
        p.target.shutdown().expect("shutdown");
    }
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
