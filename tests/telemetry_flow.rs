//! End-to-end telemetry consistency: real traffic through the threaded
//! runtime must leave the registry with numbers that agree across every
//! layer — frames sent on one side equal frames received on the other,
//! initiator submissions equal completions, target ops equal responses,
//! every live metric renders once in each export format — and every
//! registered name is in the catalogue (`METRICS.md`), moved by this
//! file's census workloads or pinned by the test its row names.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::nvmeof::NvmeofError;
use nvme_oaf::oaf::conn::{ControlPath, FabricSettings};
use nvme_oaf::oaf::locality::{HostRegistry, ProcessId};
use nvme_oaf::oaf::runtime::{launch, launch_many, launch_many_sharded, AfClient, AfGroup, AfPair};
use nvme_oaf::store::vfs::{MemVfs, Vfs};
use nvme_oaf::store::FileDisk;
use oaf_telemetry::{export, MetricValue, Snapshot};

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
    let ops = snap.counter("target_conn0", "ops");
    assert_eq!(ops, snap.counter("target_conn0", "responses"));
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
fn live_snapshot_renders_every_metric_once_in_both_export_formats() {
    let mut p = pair(true);
    let len = 4096;
    for lba in 0..8u64 {
        let mut buf = p.client.alloc(len).expect("alloc");
        buf.copy_from_slice(&vec![lba as u8; len]);
        p.client.write(1, lba, 1, buf, TIMEOUT).expect("write");
    }
    let _ = p.client.read(1, 0, 1, len, TIMEOUT).expect("read");
    assert_renders_once(&p.telemetry.snapshot());
    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");

    // Two shards report into the one registry.
    let group = sharded_group_after_one_write_each();
    assert_renders_once(&group.telemetry.snapshot());
    shut_down(group);
}

/// Every metric of `snap` appears exactly once in the Prometheus text
/// (one `# TYPE` line under its full name `oaf_<scope>__<name>`) and in
/// the JSON (one object under its scope's one object), and no two
/// metrics share a full name.
fn assert_renders_once(snap: &Snapshot) {
    let prom = export::prometheus_text(snap);
    let js = export::json(snap);
    let mut full_names = std::collections::HashSet::new();
    for scope in &snap.scopes {
        let head = format!(r#"{{"name":"{}","metrics":["#, scope.name);
        assert_eq!(js.matches(&head).count(), 1, "{}", scope.name);
        let body = &js[js.find(&head).unwrap() + head.len()..];
        let body = &body[..body.find(r#"","metrics":["#).unwrap_or(body.len())];
        for m in &scope.metrics {
            let full = format!("oaf_{}__{}", scope.name, m.name);
            assert!(full_names.insert(full.clone()), "{full} rendered twice");
            let kind = match m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge { .. } => "gauge",
                MetricValue::Histo(_) => "histogram",
            };
            let type_line = format!("# TYPE {full} {kind}\n");
            assert_eq!(prom.matches(&type_line).count(), 1, "{full}");
            let entry = format!(r#"{{"name":"{}","kind":"#, m.name);
            assert_eq!(body.matches(&entry).count(), 1, "{full}");
        }
    }
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

/// `launch_many_sharded` with 2 shards, a co-located and a remote
/// client, one blocking 4 KiB write each.
fn sharded_group_after_one_write_each() -> AfGroup {
    let registry = Arc::new(HostRegistry::new());
    let mut group = launch_many_sharded(
        &registry,
        &[(ProcessId(10), 1), (ProcessId(11), 2)],
        (ProcessId(2), 1),
        controller(4096),
        FabricSettings::default(),
        2,
    )
    .expect("sharded group");
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
    // Client-side scopes carry the caller's tag: none for `launch`, the
    // client index for groups. The target side follows one rule at every
    // entry point: `target_conn<i>` for connection `i`, `reactor<n>` for
    // shard `n`, in the caller's registry — connections adopted at
    // runtime included. Which scopes exist depends only on locality, the
    // control path and the shard count. Target on host 1 throughout.
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
    let adopted = || {
        use nvme_oaf::nvmeof::server::ConnectionSpec;
        use nvme_oaf::nvmeof::target::TargetConfig;
        use nvme_oaf::nvmeof::transport::ShmTransport;
        let (telemetry, mut target) = grouped(Some(2));
        let (_client, served) = ShmTransport::pair(1 << 20);
        let spec = ConnectionSpec {
            transport: Box::new(served),
            cfg: TargetConfig::default(),
            payload: None,
        };
        target.add_connection(spec).expect("adopt");
        (telemetry, target)
    };
    let table = [
        (
            "launch, local",
            single(1, ControlPath::Tcp),
            "app bufmgr_client bufmgr_target client fabric reactor0 target_conn0 tcp_client \
             tcp_target transport_client transport_target",
        ),
        (
            "launch, remote",
            single(2, ControlPath::Tcp),
            "app client fabric reactor0 target_conn0 tcp_client tcp_target transport_client \
             transport_target",
        ),
        (
            "launch, in-region",
            single(1, ControlPath::InRegion),
            "app bufmgr_client bufmgr_target client control_ring_client control_ring_target \
             fabric reactor0 target_conn0 transport_client transport_target",
        ),
        (
            "launch_many, local + remote",
            grouped(None),
            "app0 app1 bufmgr_client0 bufmgr_target0 client0 client1 fabric reactor0 \
             target_conn0 target_conn1 tcp_client0 tcp_client1 tcp_target0 tcp_target1 \
             transport_client0 transport_client1 transport_target0 transport_target1",
        ),
        (
            "launch_many_sharded, 2 shards",
            grouped(Some(2)),
            "app0 app1 bufmgr_client0 bufmgr_target0 client0 client1 fabric reactor0 reactor1 \
             target_conn0 target_conn1 tcp_client0 tcp_client1 tcp_target0 tcp_target1 \
             transport_client0 transport_client1 transport_target0 transport_target1",
        ),
        (
            "launch_many_sharded, 2 shards, + add_connection",
            adopted(),
            "app0 app1 bufmgr_client0 bufmgr_target0 client0 client1 fabric reactor0 reactor1 \
             target_conn0 target_conn1 target_conn2 tcp_client0 tcp_client1 tcp_target0 \
             tcp_target1 transport_client0 transport_client1 transport_target0 \
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

/// Launches a co-located pair over a shared file-backed namespace and
/// drives it the way the store's background paths need: waves of QD8
/// 4 KiB FUA writes that park on their sync tickets and fold the
/// 64 KiB journal, then plain writes left to the sync worker's
/// write-out kicks, then a Flush. Returns the pair still connected.
fn file_backed_fua_burst() -> AfPair {
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
        drain(&mut p.client, QD, wave);
    }

    // Plain writes with no barrier behind them: the sync worker starts
    // their write-out on its own, and a Flush still syncs after it.
    for i in 0..QD {
        let mut buf = p.client.alloc(4096).expect("alloc");
        buf.fill(0xee);
        p.client.write(1, 128 + i, 1, buf, TIMEOUT).expect("write");
    }
    let kicks = |p: &AfPair| {
        p.telemetry
            .snapshot()
            .counter("store_ns1", "writeback_kicks")
    };
    let deadline = std::time::Instant::now() + TIMEOUT;
    while kicks(&p) == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    p.client.flush(1, TIMEOUT).expect("flush");
    p
}

/// Polls `client` until `n` completions arrived, each successful.
fn drain(client: &mut AfClient, n: u64, wave: u64) {
    let mut done = 0;
    let deadline = std::time::Instant::now() + TIMEOUT;
    while done < n {
        assert!(std::time::Instant::now() < deadline, "wave {wave} stalled");
        for r in client.poll().expect("poll") {
            assert!(r.status.is_ok());
            done += 1;
        }
        std::thread::yield_now();
    }
}

#[test]
fn file_backed_fua_burst_releases_without_a_timer_and_times_every_fold() {
    let mut p = file_backed_fua_burst();
    let snap = p.telemetry.snapshot();
    let parked = snap.counter("target_conn0", "barriers_parked");
    assert!(parked > 0, "no FUA completion took the parked path");
    assert_eq!(
        snap.histo("target_conn0", "barrier_park_ns")
            .map(|h| h.count),
        Some(parked)
    );
    assert_eq!(
        snap.counter("target_conn0", "timer_wakeups"),
        0,
        "a parked completion waited on the idle timer"
    );
    let folds = snap.counter("store_ns1", "checkpoints");
    assert!(folds >= 2, "{folds} checkpoints for 64 FUA records");
    assert_eq!(
        snap.histo("store_ns1", "checkpoint_ns").map(|h| h.count),
        Some(folds)
    );
    assert!(
        snap.counter("store_ns1", "writeback_kicks") > 0,
        "plain writes were never kicked toward the platter"
    );

    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");
}

/// A [`MemVfs`] whose reads wait while `shut` is set: a target wedged
/// in a device read answers nothing until it is let go.
struct GatedReads {
    inner: MemVfs,
    shut: Arc<AtomicBool>,
}

impl Vfs for GatedReads {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        while self.shut.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.inner.read_at(off, buf)
    }

    fn write_at(&mut self, off: u64, buf: &[u8]) -> io::Result<()> {
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

/// The error counters move on their real paths: a read past the end of
/// the namespace completes with an error status (`client.errors`), and
/// a read the wedged target never answers spends its deadline and retry
/// budget (`client.timeouts`). The application counts both failed calls
/// (`app.errors`).
#[test]
fn error_counters_move_on_a_failed_read_and_a_spent_retry_budget() {
    let shut = Arc::new(AtomicBool::new(false));
    let vfs = GatedReads {
        inner: MemVfs::new(),
        shut: Arc::clone(&shut),
    };
    let disk = FileDisk::create_on(Box::new(vfs), 4096, 64, 64 * 1024).expect("format store");
    let mut controller = Controller::new();
    controller.add_namespace(Namespace::with_file(1, disk));
    let registry = Arc::new(HostRegistry::new());
    let mut p = launch(
        &registry,
        (ProcessId(1), 1),
        (ProcessId(2), 1),
        controller,
        FabricSettings {
            cmd_deadline: Some(Duration::from_millis(100)),
            max_retries: 1,
            retry_backoff: Duration::from_millis(1),
            ..FabricSettings::default()
        },
    )
    .expect("fabric establishment");

    let err = p.client.read(1, 1 << 40, 1, 4096, TIMEOUT).unwrap_err();
    assert!(matches!(err, NvmeofError::Nvme(_)), "{err}");

    shut.store(true, Ordering::Release);
    let err = p.client.read(1, 0, 1, 4096, TIMEOUT).unwrap_err();
    shut.store(false, Ordering::Release);
    assert!(
        matches!(err, NvmeofError::Timeout { cid: Some(_) }),
        "{err}"
    );

    let snap = p.telemetry.snapshot();
    assert_eq!(snap.counter("client", "errors"), 1);
    assert_eq!(snap.counter("client", "timeouts"), 1);
    assert_eq!(snap.counter("app", "errors"), 2);

    // Let go, the target serves the connection again.
    let back = p.client.read(1, 0, 1, 4096, TIMEOUT).expect("read after");
    assert_eq!(back, vec![0u8; 4096]);
    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");
}

/// The scope family a registered scope belongs to: the scope name
/// without its trailing index (`target_conn1` → `target_conn`,
/// `reactor0` → `reactor`, `store_ns1` → `store_ns`).
fn family(scope: &str) -> &str {
    scope.trim_end_matches(|c: char| c.is_ascii_digit())
}

/// One `METRICS.md` row: `| scope | name | kind | meaning | moved by |`.
struct Row {
    family: String,
    name: String,
    kind: String,
    moved_by: String,
}

fn catalogue() -> Vec<Row> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/METRICS.md");
    let text = std::fs::read_to_string(path).expect("read METRICS.md");
    text.lines()
        .filter(|l| l.starts_with("| `"))
        .map(|l| {
            let cells: Vec<&str> = l.trim_matches('|').split('|').map(str::trim).collect();
            assert_eq!(cells.len(), 5, "malformed row: {l}");
            let plain = |c: &str| c.trim_matches('`').to_string();
            Row {
                family: plain(cells[0]),
                name: plain(cells[1]),
                kind: plain(cells[2]),
                moved_by: plain(cells[4]),
            }
        })
        .collect()
}

fn kind_of(v: &MetricValue) -> &'static str {
    match v {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge { .. } => "gauge",
        MetricValue::Histo(_) => "histo",
    }
}

fn moved(v: &MetricValue) -> bool {
    match v {
        MetricValue::Counter(n) => *n > 0,
        MetricValue::Gauge { value, max } => *value != 0 || *max != 0,
        MetricValue::Histo(h) => h.count > 0,
    }
}

/// 4 KiB and 128 KiB blocking write + read at `lba`.
fn write_read_both_sizes(client: &mut AfClient) {
    for (lba, len) in [(0u64, 4096usize), (8, 128 * 1024)] {
        let mut buf = client.alloc(len).expect("alloc");
        buf.fill(0x3c);
        let nlb = (len / 4096) as u32;
        client.write(1, lba, nlb, buf, TIMEOUT).expect("write");
        let back = client.read(1, lba, nlb, len, TIMEOUT).expect("read");
        assert!(back.iter().all(|&b| b == 0x3c));
    }
}

/// The census: runs one workload per way into the runtime, unions the
/// `(scope family, name)` pairs their registries hold, and checks them
/// against `METRICS.md` in both directions. A `census` row must have
/// moved here; any other row names `path/to/test.rs::fn`, a test in a
/// file that also names the metric — as a string literal, or as the
/// bundle field of the same name (`m.retries.get()`).
#[test]
fn every_registered_metric_is_catalogued_and_moves_or_names_its_pin() {
    let mut snaps: Vec<Snapshot> = Vec::new();

    // Local, in-region control: every client command kind.
    let mut p = pair(true);
    write_read_both_sizes(&mut p.client);
    p.client.flush(1, TIMEOUT).expect("flush");
    p.client.trim(1, 0, 1, TIMEOUT).expect("trim");
    p.client.identify(1).expect("identify");
    snaps.push(p.telemetry.snapshot());
    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");

    // Remote: the socket path, R2T included.
    let mut p = pair(false);
    write_read_both_sizes(&mut p.client);
    snaps.push(p.telemetry.snapshot());
    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");

    // Groups: mixed locality on one reactor, then two shards.
    let mut group = group_after_one_write_each(&[1, 2], ControlPath::Tcp);
    group.clients.iter_mut().for_each(write_read_both_sizes);
    snaps.push(group.telemetry.snapshot());
    shut_down(group);
    let mut group = sharded_group_after_one_write_each();
    group.clients.iter_mut().for_each(write_read_both_sizes);
    snaps.push(group.telemetry.snapshot());
    shut_down(group);

    // The durable store: parked barriers, a log fold, write-out kicks.
    let mut p = file_backed_fua_burst();
    snaps.push(p.telemetry.snapshot());
    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");

    let mut live: std::collections::BTreeMap<(String, String), (&str, bool)> = Default::default();
    for snap in &snaps {
        for scope in &snap.scopes {
            for m in &scope.metrics {
                let key = (family(&scope.name).to_string(), m.name.clone());
                let e = live.entry(key).or_insert((kind_of(&m.value), false));
                e.1 |= moved(&m.value);
            }
        }
    }

    let mut problems = Vec::new();
    let mut listed = std::collections::BTreeSet::new();
    for row in catalogue() {
        let key = (row.family.clone(), row.name.clone());
        if !listed.insert(key.clone()) {
            problems.push(format!("listed twice: {}.{}", row.family, row.name));
        }
        match live.get(&key) {
            None => problems.push(format!(
                "listed, not registered: {}.{}",
                row.family, row.name
            )),
            Some((kind, _)) if *kind != row.kind => problems.push(format!(
                "{}.{} is a {kind}, listed as {}",
                row.family, row.name, row.kind
            )),
            Some(_) if row.moved_by != "census" => {
                let (file, test) = row.moved_by.split_once("::").unwrap_or((&row.moved_by, ""));
                let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
                let src = std::fs::read_to_string(&path).unwrap_or_default();
                if test.is_empty() || !src.contains(&format!("fn {test}(")) {
                    problems.push(format!(
                        "{}.{}: no test {}",
                        row.family, row.name, row.moved_by
                    ));
                } else if !src.contains(&format!("\"{}\"", row.name))
                    && !src.contains(&format!(".{}.", row.name))
                {
                    problems.push(format!(
                        "{}.{}: {file} never names {}",
                        row.family, row.name, row.name
                    ));
                }
            }
            Some((_, true)) => {}
            Some((_, false)) => problems.push(format!(
                "census row {}.{} never moved",
                row.family, row.name
            )),
        }
    }
    for ((fam, name), (kind, moved)) in &live {
        if !listed.contains(&(fam.clone(), name.clone())) {
            let by = if *moved { "census" } else { "?" };
            problems.push(format!(
                "not listed: | `{fam}` | `{name}` | {kind} | ? | {by} |"
            ));
        }
    }
    assert!(
        problems.is_empty(),
        "METRICS.md is stale:\n{}",
        problems.join("\n")
    );
}
