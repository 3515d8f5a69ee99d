//! Integration: the thread-per-core sharded runtime end to end — 8
//! clients over 4 oversubscribed shards (the dev box has one core; the
//! shards time-slice it, which only makes the interleavings nastier),
//! one storage service behind all of them, near-uniform per-shard load,
//! one telemetry registry, runtime connection adoption, clean shutdown.

use std::sync::Arc;
use std::time::Duration;

use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::oaf::conn::FabricSettings;
use nvme_oaf::oaf::locality::{HostRegistry, ProcessId};
use nvme_oaf::oaf::runtime::launch_many_sharded;

const TIMEOUT: Duration = Duration::from_secs(10);
const SHARDS: usize = 4;
const CLIENTS: usize = 8;

fn controller() -> Controller {
    let mut c = Controller::new();
    c.add_namespace(Namespace::new(1, 4096, 4096));
    c
}

#[test]
fn four_shards_serve_eight_clients_with_balanced_load() {
    let registry = Arc::new(HostRegistry::new());
    let target_host = 1u64;
    let clients: Vec<(ProcessId, u64)> = (0..CLIENTS as u64)
        .map(|i| (ProcessId(10 + i), target_host))
        .collect();
    let mut group = launch_many_sharded(
        &registry,
        &clients,
        (ProcessId(99), target_host),
        controller(),
        FabricSettings::default(),
        SHARDS,
    )
    .expect("launch_many_sharded");

    assert_eq!(group.target.shards(), SHARDS);
    // Round-robin steering: client i on shard i % SHARDS.
    let shard_of: Vec<usize> = (0..CLIENTS).map(|i| group.target.shard_of(i)).collect();
    let want: Vec<usize> = (0..CLIENTS).map(|i| i % SHARDS).collect();
    assert_eq!(shard_of, want);

    // Uniform per-client traffic into disjoint LBA ranges; every write
    // must be readable back through a client on a *different* shard —
    // one storage service behind all four reactors.
    const OPS: u64 = 50;
    for (i, client) in group.clients.iter_mut().enumerate() {
        let base = (i as u64) * 256;
        for k in 0..OPS {
            let mut buf = client.alloc(4096).expect("alloc");
            buf.fill((i as u8).wrapping_mul(31).wrapping_add(k as u8));
            client
                .write(1, base + (k % 64), 1, buf, TIMEOUT)
                .unwrap_or_else(|e| panic!("client {i} write {k}: {e}"));
        }
    }
    for i in 0..CLIENTS {
        let reader = (i + 1) % CLIENTS; // RR over 4 shards: always a different shard
        assert_ne!(shard_of[i], shard_of[reader]);
        let base = (i as u64) * 256;
        let last = OPS - 1;
        let back = group.clients[reader]
            .read(1, base + (last % 64), 1, 4096, TIMEOUT)
            .expect("cross-shard read");
        let want_byte = (i as u8).wrapping_mul(31).wrapping_add(last as u8);
        assert!(
            back.iter().all(|&b| b == want_byte),
            "client {i}'s write not visible from shard {}",
            shard_of[reader]
        );
    }

    // Near-uniform load: identical per-client traffic round-robined over
    // the shards must land near-evenly (ISSUE bound: max/min ≤ 1.5).
    let ops = group.target.ops_per_shard();
    let max = *ops.iter().max().unwrap();
    let min = *ops.iter().min().unwrap();
    assert!(min > 0, "an idle shard: {ops:?}");
    assert!(
        (max as f64) / (min as f64) <= 1.5,
        "per-shard ops skewed beyond 1.5x: {ops:?}"
    );

    // One registry: every shard's reactor scope and every connection's
    // scope is visible in the caller's registry.
    let snap = group.telemetry.snapshot();
    for s in 0..SHARDS {
        assert!(
            snap.counter(&format!("reactor{s}"), "ops") > 0,
            "missing scope reactor{s}"
        );
    }
    for i in 0..CLIENTS {
        assert!(
            snap.counter(&format!("target_conn{i}"), "ops") > 0,
            "missing scope target_conn{i}"
        );
    }
    // Client-side scopes stay flat — sharding is a target-side concern.
    for i in 0..CLIENTS {
        assert!(snap.counter(&format!("client{i}"), "completions") > 0);
    }

    for c in &mut group.clients {
        c.disconnect().expect("disconnect");
    }
    group.target.shutdown().expect("sharded shutdown");
}

#[test]
fn connection_adopted_at_runtime_is_served() {
    use nvme_oaf::nvmeof::initiator::{Initiator, InitiatorOptions};
    use nvme_oaf::nvmeof::server::ConnectionSpec;
    use nvme_oaf::nvmeof::target::TargetConfig;
    use nvme_oaf::nvmeof::transport::ShmTransport;

    let registry = Arc::new(HostRegistry::new());
    let clients = [(ProcessId(11), 1u64), (ProcessId(12), 1u64)];
    let mut group = launch_many_sharded(
        &registry,
        &clients,
        (ProcessId(99), 1u64),
        controller(),
        FabricSettings::default(),
        2,
    )
    .expect("launch_many_sharded");

    // A connection arriving after launch: steered, registered into the
    // group's registry, delivered through the shard's admin mailbox.
    let (ct, tt) = ShmTransport::pair(1 << 20);
    let shard = group
        .target
        .add_connection(ConnectionSpec {
            transport: Box::new(tt),
            cfg: TargetConfig::default(),
            payload: None,
        })
        .expect("adopt connection");
    assert_eq!(shard, 2 % 2); // third connection, round-robin

    let mut late = Initiator::connect(ct, InitiatorOptions::default(), None, TIMEOUT)
        .expect("late client connect");
    late.write_blocking(1, 7, 1, bytes::Bytes::from(vec![0x5d; 4096]), TIMEOUT)
        .expect("late write");
    // Visible through a launched client on the other shard.
    let back = group.clients[1]
        .read(1, 7, 1, 4096, TIMEOUT)
        .expect("read late write");
    assert!(back.iter().all(|&b| b == 0x5d));

    late.disconnect().expect("late disconnect");
    for c in &mut group.clients {
        c.disconnect().expect("disconnect");
    }
    group.target.shutdown().expect("shutdown");
}

/// A connection adopted after launch reports into the group's one
/// registry under the same rule as the launched ones: it is connection
/// 2, so `target_conn2`, adopted by shard 0's reactor.
#[test]
fn connection_adopted_at_runtime_reports_into_the_group_registry() {
    use nvme_oaf::nvmeof::initiator::{Initiator, InitiatorOptions};
    use nvme_oaf::nvmeof::server::ConnectionSpec;
    use nvme_oaf::nvmeof::target::TargetConfig;
    use nvme_oaf::nvmeof::transport::ShmTransport;

    let registry = Arc::new(HostRegistry::new());
    let clients = [(ProcessId(11), 1u64), (ProcessId(12), 1u64)];
    let mut group = launch_many_sharded(
        &registry,
        &clients,
        (ProcessId(99), 1u64),
        controller(),
        FabricSettings::default(),
        2,
    )
    .expect("launch_many_sharded");

    let (ct, tt) = ShmTransport::pair(1 << 20);
    let spec = ConnectionSpec {
        transport: Box::new(tt),
        cfg: TargetConfig::default(),
        payload: None,
    };
    let shard = group.target.add_connection(spec).expect("adopt");
    let mut late =
        Initiator::connect(ct, InitiatorOptions::default(), None, TIMEOUT).expect("connect");
    late.write_blocking(1, 9, 1, bytes::Bytes::from(vec![0x6e; 4096]), TIMEOUT)
        .expect("late write");
    late.disconnect().expect("late disconnect");

    let snap = group.telemetry.snapshot();
    assert!(
        snap.counter("target_conn2", "ops") > 0,
        "adopted connection missing from {:?}",
        group.telemetry.scope_names()
    );
    assert_eq!(snap.counter(&format!("reactor{shard}"), "admin_cmds"), 1);

    for c in &mut group.clients {
        c.disconnect().expect("disconnect");
    }
    group.target.shutdown().expect("shutdown");
}
