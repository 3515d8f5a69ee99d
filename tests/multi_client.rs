//! Integration: the paper's Fig. 1 architecture end to end — one storage
//! service, several client applications, mixed locality, isolated
//! per-client shared-memory channels — on the real threaded runtime.

use std::sync::Arc;
use std::time::Duration;

use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::oaf::conn::FabricSettings;
use nvme_oaf::oaf::locality::{HostRegistry, ProcessId};
use nvme_oaf::oaf::runtime::launch_many;

const TIMEOUT: Duration = Duration::from_secs(10);

fn controller() -> Controller {
    let mut c = Controller::new();
    c.add_namespace(Namespace::new(1, 4096, 4096));
    c
}

#[test]
fn mixed_locality_clients_share_one_service() {
    let registry = Arc::new(HostRegistry::new());
    let target_host = 1u64;
    // Two co-located clients, one remote.
    let clients = [
        (ProcessId(11), target_host),
        (ProcessId(12), target_host),
        (ProcessId(13), 2u64),
    ];
    let mut group = launch_many(
        &registry,
        &clients,
        (ProcessId(99), target_host),
        controller(),
        FabricSettings::default(),
    )
    .expect("launch_many");

    assert!(group.clients[0].shm_active());
    assert!(group.clients[1].shm_active());
    assert!(
        !group.clients[2].shm_active(),
        "remote client must fall back"
    );

    // Each client writes its own LBA range; all ranges must be intact
    // afterwards regardless of channel.
    for (i, client) in group.clients.iter_mut().enumerate() {
        let base = (i as u64) * 64;
        for k in 0..8u64 {
            let mut buf = client.alloc(4096).expect("alloc");
            buf.fill((i * 16 + k as usize) as u8);
            client
                .write(1, base + k, 1, buf, TIMEOUT)
                .unwrap_or_else(|e| panic!("client {i} write {k}: {e}"));
        }
    }
    for (i, client) in group.clients.iter_mut().enumerate() {
        let base = (i as u64) * 64;
        for k in 0..8u64 {
            let back = client.read(1, base + k, 1, 4096, TIMEOUT).expect("read");
            assert!(
                back.iter().all(|&b| b == (i * 16 + k as usize) as u8),
                "client {i} lba {k} corrupted"
            );
        }
    }

    // Cross-visibility: the service is shared storage, so client 0's data
    // is readable by client 2.
    let via_remote = group.clients[2].read(1, 0, 1, 4096, TIMEOUT).expect("read");
    assert!(via_remote.iter().all(|&b| b == 0));

    for c in &mut group.clients {
        c.disconnect().expect("disconnect");
    }
    group.target.shutdown().expect("service shutdown");
}

#[test]
fn per_client_channels_are_isolated_regions() {
    let registry = Arc::new(HostRegistry::new());
    let clients = [(ProcessId(21), 5u64), (ProcessId(22), 5u64)];
    let mut group = launch_many(
        &registry,
        &clients,
        (ProcessId(90), 5),
        controller(),
        FabricSettings {
            depth: 4,
            slot_size: 8192,
            ..FabricSettings::default()
        },
    )
    .expect("launch_many");

    // Each client has a region of its own (§6: per-client isolation so
    // no tenant can snoop another's payloads): client 0 holding every
    // slot of its region leaves client 1's untouched.
    let held: Vec<_> = (0..4)
        .map(|_| group.clients[0].alloc(8192).expect("alloc"))
        .collect();
    assert!(held.iter().all(|b| b.is_zero_copy()));
    assert!(!group.clients[0].alloc(8192).expect("alloc").is_zero_copy());
    assert!(group.clients[1].alloc(8192).expect("alloc").is_zero_copy());
    drop(held);

    for c in &mut group.clients {
        c.disconnect().expect("disconnect");
    }
    group.target.shutdown().expect("service shutdown");
}

#[test]
fn many_concurrent_clients_under_load() {
    let registry = Arc::new(HostRegistry::new());
    let clients: Vec<(ProcessId, u64)> = (0..4).map(|i| (ProcessId(30 + i), 7u64)).collect();
    let mut group = launch_many(
        &registry,
        &clients,
        (ProcessId(80), 7),
        controller(),
        FabricSettings::default(),
    )
    .expect("launch_many");

    // Pipelined traffic from every client interleaved.
    let mut cids: Vec<Vec<u16>> = vec![Vec::new(); 4];
    for round in 0..16u64 {
        for (i, client) in group.clients.iter_mut().enumerate() {
            let mut buf = client.alloc(4096).expect("alloc");
            buf.fill((round % 250) as u8);
            let lba = (i as u64) * 256 + round;
            cids[i].push(client.submit_write(1, lba, 1, buf).expect("submit"));
        }
    }
    for (i, client) in group.clients.iter_mut().enumerate() {
        for &cid in &cids[i] {
            let done = client.wait(cid, TIMEOUT).expect("completion");
            assert!(done.status.is_ok(), "client {i} cid {cid}");
        }
    }
    for c in &mut group.clients {
        c.disconnect().expect("disconnect");
    }
    group.target.shutdown().expect("shutdown");
}
