//! Integration: the fully in-region configuration (§5.5 future work) —
//! control PDUs over lock-free byte rings *and* payloads over the
//! double-buffer channel. Not a single byte crosses a socket.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use nvme_oaf::nvmeof::initiator::{Initiator, InitiatorOptions};
use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::nvmeof::payload::PayloadChannel;
use nvme_oaf::nvmeof::pdu::AF_CAP_SHM;
use nvme_oaf::nvmeof::target::{spawn_target, TargetConfig};
use nvme_oaf::nvmeof::transport::ShmTransport;
use nvme_oaf::nvmeof::NvmeofError;
use nvme_oaf::oaf::conn::{ControlPath, FabricSettings};
use nvme_oaf::oaf::locality::{HostRegistry, ProcessId};
use nvme_oaf::oaf::payload_impl::ShmPayloadChannel;
use nvme_oaf::oaf::runtime::{launch, AfPair};
use nvme_oaf::shmem::channel::Side;
use nvme_oaf::shmem::ShmChannel;

const TIMEOUT: Duration = Duration::from_secs(5);

fn controller() -> Controller {
    let mut c = Controller::new();
    c.add_namespace(Namespace::new(1, 4096, 1024));
    c
}

#[test]
fn control_and_data_both_in_region() {
    // Control path: duplex byte rings. Data path: the double buffer.
    let (ct, tt) = ShmTransport::pair(256 * 1024);
    let data = ShmChannel::allocate(32, 128 * 1024);
    let client_ch = ShmPayloadChannel::new(&data, Side::Client);
    let target_ch = ShmPayloadChannel::new(&data, Side::Target);

    let handle = spawn_target(
        tt,
        controller(),
        TargetConfig::default(),
        Some(target_ch as Arc<dyn PayloadChannel>),
    );
    let mut ini = Initiator::connect(
        ct,
        InitiatorOptions {
            af_caps: AF_CAP_SHM,
            ..InitiatorOptions::default()
        },
        Some(client_ch as Arc<dyn PayloadChannel>),
        TIMEOUT,
    )
    .expect("connect over byte rings");
    assert!(ini.shm_active());

    // Full write/read cycle, 128 KiB payloads via slots.
    let payload = Bytes::from(
        (0..128 * 1024)
            .map(|i| (i % 241) as u8)
            .collect::<Vec<u8>>(),
    );
    ini.write_blocking(1, 0, 32, payload.clone(), TIMEOUT)
        .expect("write");
    let back = ini
        .read_blocking(1, 0, 32, 128 * 1024, TIMEOUT)
        .expect("read");
    assert_eq!(back, payload);

    ini.disconnect().expect("disconnect");
    handle.shutdown().expect("shutdown");
}

#[test]
fn in_region_control_sustains_pipelined_load() {
    let (ct, tt) = ShmTransport::pair(512 * 1024);
    let data = ShmChannel::allocate(64, 32 * 1024);
    let client_ch = ShmPayloadChannel::new(&data, Side::Client);
    let target_ch = ShmPayloadChannel::new(&data, Side::Target);
    let handle = spawn_target(
        tt,
        controller(),
        TargetConfig::default(),
        Some(target_ch as Arc<dyn PayloadChannel>),
    );
    let mut ini = Initiator::connect(
        ct,
        InitiatorOptions {
            af_caps: AF_CAP_SHM,
            ..InitiatorOptions::default()
        },
        Some(client_ch as Arc<dyn PayloadChannel>),
        TIMEOUT,
    )
    .expect("connect");

    let qd = 32usize;
    let mut cids = Vec::new();
    for i in 0..qd {
        let body = Bytes::from(vec![i as u8; 4096]);
        cids.push(ini.submit_write(1, i as u64, 1, body).expect("submit"));
    }
    for cid in cids {
        assert!(ini.wait(cid, TIMEOUT).expect("completion").status.is_ok());
    }
    for i in 0..qd {
        let back = ini
            .read_blocking(1, i as u64, 1, 4096, TIMEOUT)
            .expect("read");
        assert!(back.iter().all(|&b| b == i as u8), "lba {i}");
    }
    ini.disconnect().expect("disconnect");
    handle.shutdown().expect("shutdown");
}

/// A co-located pair launched with its control path in the region.
fn launch_in_region() -> AfPair {
    let settings = FabricSettings {
        control: ControlPath::InRegion,
        ..FabricSettings::default()
    };
    let registry = Arc::new(HostRegistry::new());
    let p = launch(
        &registry,
        (ProcessId(1), 1),
        (ProcessId(2), 1),
        controller(),
        settings,
    )
    .expect("launch");
    assert!(p.client.shm_active());
    p
}

/// A client that vanishes without a TermReq leaves the reactor: its
/// ring reports the hang-up, as a socket reads EOF, and the connection
/// with its rings and slot region is retired instead of being polled
/// until the target shuts down.
#[test]
fn a_vanished_in_region_client_leaves_the_reactor() {
    let AfPair {
        mut client,
        target,
        telemetry,
    } = launch_in_region();
    let mut buf = client.alloc(4096).expect("alloc");
    buf.fill(0x3c);
    client.write(1, 0, 1, buf, TIMEOUT).expect("write");
    let conns = || telemetry.snapshot().gauge("reactor0", "conns").map(|g| g.0);
    assert_eq!(conns(), Some(1));
    drop(client); // no disconnect: no TermReq
    let deadline = Instant::now() + Duration::from_secs(1);
    while conns() != Some(0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        conns(),
        Some(0),
        "the reactor still serves a dropped client"
    );
    target.shutdown().expect("shutdown");
}

/// A target shut down under a live in-region client closes its rings:
/// the client's next poll reports the closure, not a timeout.
#[test]
fn a_shut_down_target_closes_the_in_region_client() {
    let AfPair {
        mut client, target, ..
    } = launch_in_region();
    let mut buf = client.alloc(4096).expect("alloc");
    buf.fill(0x3c);
    client.write(1, 0, 1, buf, TIMEOUT).expect("write");
    target.shutdown().expect("shutdown");
    let err = client.poll().expect_err("a closed ring polled clean");
    assert!(matches!(err, NvmeofError::TransportClosed), "{err}");
}
