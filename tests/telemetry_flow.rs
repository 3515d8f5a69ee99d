//! End-to-end telemetry consistency: real traffic through the threaded
//! runtime must leave the registry with numbers that agree across every
//! layer — frames sent on one side equal frames received on the other,
//! initiator submissions equal completions, target ops equal responses,
//! and the exported Prometheus/JSON forms round-trip losslessly.

use std::sync::Arc;
use std::time::Duration;

use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::oaf::conn::{ControlPath, FabricSettings};
use nvme_oaf::oaf::locality::{HostRegistry, ProcessId};
use nvme_oaf::oaf::runtime::{launch, launch_many, launch_many_sharded, AfGroup, AfPair};
use oaf_telemetry::export;

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
        FabricSettings {
            // Ask for in-region control so a co-located pair exercises
            // the shared-memory ring; a remote pair falls back to TCP.
            control: ControlPath::InRegion,
            ..FabricSettings::default()
        },
    )
    .expect("fabric establishment")
}

#[test]
fn local_traffic_produces_consistent_counters_at_every_layer() {
    let mut p = pair(true);
    assert!(p.client.shm_active());

    const WRITES: u64 = 16;
    const READS: u64 = 16;
    let len = 4096;
    for lba in 0..WRITES {
        let mut buf = p.client.alloc(len).expect("alloc");
        buf.copy_from_slice(&vec![lba as u8; len]);
        p.client.write(1, lba, 1, buf, TIMEOUT).expect("write");
    }
    for lba in 0..READS {
        let back = p.client.read(1, lba, 1, len, TIMEOUT).expect("read");
        assert_eq!(back[0], lba as u8);
    }

    let snap = p.telemetry.snapshot();

    // Initiator accounting: everything submitted completed, no errors,
    // nothing left in flight, and the per-opcode latency histograms saw
    // exactly the synchronous ops we issued.
    let submitted = snap.counter("client", "submitted");
    assert_eq!(submitted, snap.counter("client", "completions"));
    assert_eq!(snap.counter("client", "errors"), 0);
    assert_eq!(snap.gauge("client", "inflight").map(|(v, _)| v), Some(0));
    assert_eq!(
        snap.histo("client", "lat_write_ns").map(|h| h.count),
        Some(WRITES)
    );
    assert_eq!(
        snap.histo("client", "lat_read_ns").map(|h| h.count),
        Some(READS)
    );

    // Target accounting: every op answered.
    let ops = snap.counter("target", "ops");
    assert_eq!(ops, snap.counter("target", "responses"));
    assert!(ops >= WRITES + READS);

    // Transport symmetry: the control rings carry each frame exactly
    // once, so what one endpoint sent the other received, in frames and
    // in bytes.
    for (tx, rx) in [
        ("transport_client", "transport_target"),
        ("transport_target", "transport_client"),
    ] {
        assert_eq!(
            snap.counter(tx, "frames_sent"),
            snap.counter(rx, "frames_received"),
            "{tx} -> {rx} frame symmetry"
        );
        assert_eq!(
            snap.counter(tx, "bytes_sent"),
            snap.counter(rx, "bytes_received"),
            "{tx} -> {rx} byte symmetry"
        );
    }
    // And the submission count is visible as client->target traffic.
    assert!(snap.counter("transport_client", "frames_sent") >= submitted);

    // Fabric decision record: a co-located pair picked the local path
    // and the in-region control channel.
    assert_eq!(snap.counter("fabric", "locality_local"), 1);
    assert_eq!(snap.counter("fabric", "locality_remote"), 0);
    assert_eq!(snap.counter("fabric", "control_in_region"), 1);
    // The in-region ring's producer-side stats saw every client frame.
    assert_eq!(
        snap.counter("control_ring_client", "frames"),
        snap.counter("transport_client", "frames_sent")
    );

    // App-level counters feed the same registry.
    assert_eq!(snap.counter("app", "writes"), WRITES);
    assert_eq!(snap.counter("app", "reads"), READS);
    assert_eq!(snap.counter("app", "bytes_written"), WRITES * len as u64);

    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");
}

#[test]
fn remote_traffic_reports_through_the_same_registry() {
    let mut p = pair(false);
    assert!(!p.client.shm_active());

    let len = 8192;
    let mut buf = p.client.alloc(len).expect("alloc");
    buf.copy_from_slice(&vec![7u8; len]);
    p.client.write(1, 0, 2, buf, TIMEOUT).expect("write");
    let back = p.client.read(1, 0, 2, len, TIMEOUT).expect("read");
    assert_eq!(back.len(), len);

    let snap = p.telemetry.snapshot();
    assert_eq!(
        snap.counter("client", "submitted"),
        snap.counter("client", "completions")
    );
    assert_eq!(
        snap.counter("transport_client", "frames_sent"),
        snap.counter("transport_target", "frames_received")
    );
    // A cross-host pair records the remote decision and a TCP-class
    // control path (no in-region ring).
    assert_eq!(snap.counter("fabric", "locality_remote"), 1);
    assert_eq!(snap.counter("fabric", "control_tcp"), 1);
    assert_eq!(snap.counter("fabric", "control_in_region"), 0);
    // Both socket endpoints say which frame-digest implementation the
    // host dispatched to (0 = tables, 1 = sse4.2, 2 = armv8 crc).
    let digest = nvme_oaf::store::crc32::digest_impl() as i64;
    for scope in ["tcp_client", "tcp_target"] {
        assert_eq!(snap.gauge(scope, "digest_hw"), Some((digest, digest)));
    }

    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");
}

#[test]
fn remote_reads_leave_the_single_connection_reactor_sending_vectored() {
    // `launch` serves a remote pair from the single-connection reactor
    // (`spawn_target`). Its C2H data must take the same split send as
    // the multi-connection reactor's: header from the scratch, payload
    // borrowed, one `write_vectored`.
    let mut p = pair(false);
    let len = 128 * 1024;
    let mut buf = p.client.alloc(len).expect("alloc");
    buf.copy_from_slice(&vec![0x5a; len]);
    p.client.write(1, 0, 32, buf, TIMEOUT).expect("write");
    for _ in 0..4 {
        let back = p.client.read(1, 0, 32, len, TIMEOUT).expect("read");
        assert!(back.iter().all(|&b| b == 0x5a));
    }
    let snap = p.telemetry.snapshot();
    assert!(
        snap.counter("tcp_target", "vectored_sends") >= 4,
        "target sent {} vectored frames for 4 reads",
        snap.counter("tcp_target", "vectored_sends")
    );
    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");
}

#[test]
fn live_snapshot_round_trips_through_both_export_formats() {
    let mut p = pair(true);
    let len = 4096;
    for lba in 0..8u64 {
        let mut buf = p.client.alloc(len).expect("alloc");
        buf.copy_from_slice(&vec![lba as u8; len]);
        p.client.write(1, lba, 1, buf, TIMEOUT).expect("write");
    }
    let _ = p.client.read(1, 0, 1, len, TIMEOUT).expect("read");

    let snap = p.telemetry.snapshot();
    // A registry fed by live multi-layer traffic — counters, gauges with
    // high-water marks, latency histograms — survives both wire formats
    // byte-for-byte in value space.
    let prom = export::prometheus_text(&snap);
    let back = export::from_prometheus_text(&prom).expect("prometheus parse");
    assert_eq!(back, snap);

    let js = export::json(&snap);
    let back = export::from_json(&js).expect("json parse");
    assert_eq!(back, snap);

    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");
}

#[test]
fn scaled_out_group_reports_per_connection_scopes() {
    let registry = Arc::new(HostRegistry::new());
    let clients = [(ProcessId(10), 1), (ProcessId(11), 1), (ProcessId(12), 1)];
    let mut group = launch_many(
        &registry,
        &clients,
        (ProcessId(2), 1),
        controller(4096),
        FabricSettings::default(),
    )
    .expect("group establishment");

    let len = 4096;
    for (i, client) in group.clients.iter_mut().enumerate() {
        for lba in 0..(i as u64 + 1) {
            let mut buf = client.alloc(len).expect("alloc");
            buf.copy_from_slice(&vec![0xA0 + i as u8; len]);
            client.write(1, lba, 1, buf, TIMEOUT).expect("write");
        }
    }

    let snap = group.telemetry.snapshot();
    for i in 0..group.clients.len() {
        let client_scope = format!("client{i}");
        let conn_scope = format!("target_conn{i}");
        let expected = i as u64 + 1;
        // Each client's submissions completed, and its dedicated target
        // connection answered them — per-connection attribution, not a
        // single blended pool.
        assert_eq!(
            snap.counter(&client_scope, "submitted"),
            snap.counter(&client_scope, "completions"),
            "{client_scope} drained"
        );
        assert_eq!(
            snap.histo(&client_scope, "lat_write_ns").map(|h| h.count),
            Some(expected),
            "{client_scope} write count"
        );
        assert_eq!(
            snap.counter(&conn_scope, "ops"),
            snap.counter(&conn_scope, "responses"),
            "{conn_scope} answered everything"
        );
        assert_eq!(snap.counter(&format!("app{i}"), "writes"), expected);
    }

    for mut c in group.clients.drain(..) {
        c.disconnect().expect("disconnect");
    }
    group.target.shutdown().expect("shutdown");
}

#[test]
fn remote_group_traffic_is_corked_at_both_ends() {
    // Both ends of a remote `launch_many` connection reach their socket
    // through `ControlTransport::Tcp`, a wrapper that must forward the
    // queued send path. If it fell back to the trait default, every
    // queued frame would be written on its own and each side would pay
    // at least one `write` per frame it sends.
    let registry = Arc::new(HostRegistry::new());
    let mut group = launch_many(
        &registry,
        &[(ProcessId(10), 1)],
        (ProcessId(2), 2),
        controller(4096),
        FabricSettings::default(),
    )
    .expect("group establishment");
    let client = &mut group.clients[0];
    assert!(!client.shm_active());

    const QD: u64 = 8;
    const WAVES: u64 = 32;
    let len = 4096;
    for wave in 0..WAVES {
        let write = wave % 2 == 0;
        for i in 0..QD {
            if write {
                let mut buf = client.alloc(len).expect("alloc");
                buf.copy_from_slice(&vec![i as u8; len]);
                client.submit_write(1, i, 1, buf).expect("submit write");
            } else {
                client.submit_read(1, i, 1, len).expect("submit read");
            }
        }
        let mut done = 0;
        let deadline = std::time::Instant::now() + TIMEOUT;
        while done < QD {
            assert!(std::time::Instant::now() < deadline, "wave {wave} stalled");
            for r in client.poll().expect("poll") {
                assert!(r.status.is_ok());
                assert!(write || r.data[0] < QD as u8);
                done += 1;
            }
            std::thread::yield_now();
        }
    }

    let snap = group.telemetry.snapshot();
    let submitted = snap.counter("client0", "submitted");
    let responses = snap.counter("target_conn0", "responses");
    assert_eq!(submitted, WAVES * QD);
    assert_eq!(responses, WAVES * QD);
    assert!(
        snap.counter("tcp_client0", "tx_syscalls") < submitted,
        "client: {} writes for {submitted} commands",
        snap.counter("tcp_client0", "tx_syscalls")
    );
    assert!(
        snap.counter("tcp_target0", "tx_syscalls") < responses,
        "target: {} writes for {responses} responses",
        snap.counter("tcp_target0", "tx_syscalls")
    );
    // Both ends record what their queue did, and the target the bytes
    // its flush budget counts.
    for scope in ["tcp_client0", "tcp_target0"] {
        assert!(snap.counter(scope, "frames_queued") > 0, "{scope}");
        assert!(
            snap.histo(scope, "frames_per_flush").expect(scope).count > 0,
            "{scope}"
        );
    }
    assert_eq!(
        snap.counter("target_conn0", "payload_bytes"),
        WAVES * QD * len as u64
    );

    for mut c in group.clients.drain(..) {
        c.disconnect().expect("disconnect");
    }
    group.target.shutdown().expect("shutdown");
}

/// `launch_many` over `hosts` (one client per entry) against a target on
/// host 1, with one blocking 4 KiB write per client so every connection
/// has carried traffic and drained it.
fn group_after_one_write_each(hosts: &[u64], control: ControlPath) -> AfGroup {
    let registry = Arc::new(HostRegistry::new());
    let clients: Vec<_> = (10..).map(ProcessId).zip(hosts.iter().copied()).collect();
    let mut group = launch_many(
        &registry,
        &clients,
        (ProcessId(2), 1),
        controller(4096),
        FabricSettings {
            control,
            ..FabricSettings::default()
        },
    )
    .expect("group establishment");
    for (i, client) in group.clients.iter_mut().enumerate() {
        let mut buf = client.alloc(4096).expect("alloc");
        buf.fill(i as u8);
        client.write(1, i as u64, 1, buf, TIMEOUT).expect("write");
    }
    group
}

fn shut_down(mut group: AfGroup) {
    for mut c in group.clients.drain(..) {
        c.disconnect().expect("disconnect");
    }
    group.target.shutdown().expect("shutdown");
}

#[test]
fn co_located_group_control_follows_the_settings_like_a_single_pair() {
    // Default settings: NVMe-oSHM keeps its control PDUs on the real
    // loopback socket, never an in-process stand-in.
    let group = group_after_one_write_each(&[1, 1], ControlPath::Tcp);
    let snap = group.telemetry.snapshot();
    assert_eq!(snap.counter("fabric", "locality_local"), 2);
    assert_eq!(snap.counter("fabric", "control_tcp"), 2);
    for i in 0..2 {
        assert!(group.clients[i].shm_active());
        assert!(snap.counter(&format!("tcp_client{i}"), "tx_syscalls") > 0);
    }
    shut_down(group);

    // In-region control asked for and possible: the rings, no socket.
    let group = group_after_one_write_each(&[1, 1], ControlPath::InRegion);
    let snap = group.telemetry.snapshot();
    assert_eq!(snap.counter("fabric", "control_in_region"), 2);
    let scopes = group.telemetry.scope_names();
    for i in 0..2 {
        assert!(snap.counter(&format!("control_ring_client{i}"), "frames") > 0);
        assert!(!scopes.contains(&format!("tcp_client{i}")), "{scopes:?}");
    }
    shut_down(group);
}

#[test]
fn mixed_locality_group_transports_are_symmetric_per_connection() {
    let group = group_after_one_write_each(&[1, 2], ControlPath::Tcp);
    assert!(group.clients[0].shm_active() && !group.clients[1].shm_active());
    let snap = group.telemetry.snapshot();
    for i in 0..2 {
        let sent = snap.counter(&format!("transport_client{i}"), "frames_sent");
        assert!(sent > 0);
        assert_eq!(
            snap.counter(&format!("transport_target{i}"), "frames_received"),
            sent,
            "connection {i}"
        );
    }
    shut_down(group);
}

#[test]
fn scope_names_follow_one_rule_at_every_entry_point() {
    // Per-connection scopes carry the caller's tag: none for `launch`,
    // the client index for groups (whose target side is `target_conn<i>`,
    // under `shard<n>_` when sharded). Which scopes exist depends only on
    // locality and the control path. Target on host 1 throughout.
    let single = |client_host: u64, control: ControlPath| {
        let registry = Arc::new(HostRegistry::new());
        let settings = FabricSettings {
            control,
            ..FabricSettings::default()
        };
        let target = (ProcessId(2), 1);
        let p = launch(
            &registry,
            (ProcessId(1), client_host),
            target,
            controller(64),
            settings,
        )
        .expect("pair");
        (p.telemetry.clone(), p.target)
    };
    let grouped = |shards: Option<usize>| {
        let registry = Arc::new(HostRegistry::new());
        let clients = [(ProcessId(10), 1), (ProcessId(11), 2)];
        let target = (ProcessId(2), 1);
        let settings = FabricSettings::default();
        match shards {
            None => {
                let g = launch_many(&registry, &clients, target, controller(64), settings);
                let g = g.expect("group");
                (g.telemetry, g.target)
            }
            Some(n) => {
                let g =
                    launch_many_sharded(&registry, &clients, target, controller(64), settings, n);
                let g = g.expect("sharded group");
                (g.telemetry, g.target)
            }
        }
    };
    let table = [
        (
            "launch, local",
            single(1, ControlPath::Tcp),
            "app bufmgr_client bufmgr_target client fabric target tcp_client tcp_target \
             transport_client transport_target",
        ),
        (
            "launch, remote",
            single(2, ControlPath::Tcp),
            "app client fabric target tcp_client tcp_target transport_client transport_target",
        ),
        (
            "launch, in-region",
            single(1, ControlPath::InRegion),
            "app bufmgr_client bufmgr_target client control_ring_client control_ring_target \
             fabric target transport_client transport_target",
        ),
        (
            "launch_many, local + remote",
            grouped(None),
            "app0 app1 bufmgr_client0 bufmgr_target0 client0 client1 fabric target_conn0 \
             target_conn1 tcp_client0 tcp_client1 tcp_target0 tcp_target1 transport_client0 \
             transport_client1 transport_target0 transport_target1",
        ),
        (
            "launch_many_sharded, 2 shards",
            grouped(Some(2)),
            "app0 app1 bufmgr_client0 bufmgr_target0 client0 client1 fabric shard0_reactor \
             shard0_target_conn0 shard1_reactor shard1_target_conn1 tcp_client0 tcp_client1 \
             tcp_target0 tcp_target1 transport_client0 transport_client1 transport_target0 \
             transport_target1",
        ),
    ];
    for (case, (telemetry, target), expected) in table {
        let mut names = telemetry.scope_names();
        names.sort();
        let expected: Vec<&str> = expected.split_whitespace().collect();
        assert_eq!(names, expected, "{case}");
        drop(target); // stops and joins the service
    }
}

#[test]
fn file_backed_fua_burst_releases_without_a_timer_and_times_every_fold() {
    use nvme_oaf::store::vfs::MemVfs;
    use nvme_oaf::store::FileDisk;

    // Each `fdatasync` takes 500 µs on the sync worker. FUA completions
    // park on their tickets meanwhile, with nothing else arriving on the
    // socket — exactly when a loop parked in a timed transport wait
    // would leave their release to the timer. The 64 KiB journal holds
    // 15 of these 4 KiB records, so the burst also folds the log.
    let vfs = MemVfs::new();
    vfs.set_sync_delay(Duration::from_micros(500));
    let disk = FileDisk::create_on(Box::new(vfs.clone()), 4096, 256, 64 * 1024)
        .and_then(|d| d.with_cache(64))
        .expect("format store")
        .into_shared()
        .with_sync_worker(Box::new(vfs));
    let mut controller = Controller::new();
    controller.add_namespace(Namespace::with_shared_file(1, disk));
    let registry = Arc::new(HostRegistry::new());
    let mut p = launch(
        &registry,
        (ProcessId(1), 1),
        (ProcessId(2), 1),
        controller,
        FabricSettings::default(),
    )
    .expect("fabric establishment");

    const QD: u64 = 8;
    const WAVES: u64 = 8;
    for wave in 0..WAVES {
        for i in 0..QD {
            let mut buf = p.client.alloc(4096).expect("alloc");
            buf.fill(wave as u8 + 1);
            p.client
                .submit_write_fua(1, wave * QD + i, 1, buf)
                .expect("submit fua");
        }
        let mut done = 0;
        let deadline = std::time::Instant::now() + TIMEOUT;
        while done < QD {
            assert!(std::time::Instant::now() < deadline, "wave {wave} stalled");
            for r in p.client.poll().expect("poll") {
                assert!(r.status.is_ok());
                done += 1;
            }
            std::thread::yield_now();
        }
    }

    let snap = p.telemetry.snapshot();
    let parked = snap.counter("target", "barriers_parked");
    assert!(parked > 0, "no FUA completion took the parked path");
    assert_eq!(
        snap.histo("target", "barrier_park_ns").map(|h| h.count),
        Some(parked)
    );
    assert_eq!(
        snap.counter("target", "timer_wakeups"),
        0,
        "a parked completion waited on the idle timer"
    );
    let folds = snap.counter("store_ns1", "checkpoints");
    assert!(folds >= 2, "{folds} checkpoints for {} records", WAVES * QD);
    assert_eq!(
        snap.histo("store_ns1", "checkpoint_ns").map(|h| h.count),
        Some(folds)
    );

    // Plain writes with no barrier behind them: the sync worker starts
    // their write-out on its own, and a Flush still syncs after it.
    for i in 0..QD {
        let mut buf = p.client.alloc(4096).expect("alloc");
        buf.fill(0xee);
        p.client.write(1, 128 + i, 1, buf, TIMEOUT).expect("write");
    }
    let kicks = || {
        p.telemetry
            .snapshot()
            .counter("store_ns1", "writeback_kicks")
    };
    let deadline = std::time::Instant::now() + TIMEOUT;
    while kicks() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    p.client.flush(1, TIMEOUT).expect("flush");
    assert!(
        kicks() > 0,
        "plain writes were never kicked toward the platter"
    );

    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");
}
