//! Integration: the fully in-region configuration (§5.5 future work) —
//! control PDUs over lock-free byte rings *and* payloads over the
//! double-buffer channel. Not a single byte crosses a socket.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use nvme_oaf::nvmeof::initiator::{Initiator, InitiatorOptions};
use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::nvmeof::payload::PayloadChannel;
use nvme_oaf::nvmeof::pdu::AF_CAP_SHM;
use nvme_oaf::nvmeof::target::{spawn_target, TargetConfig};
use nvme_oaf::nvmeof::transport::ShmTransport;
use nvme_oaf::oaf::payload_impl::ShmPayloadChannel;
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
