//! Integration: locality awareness, hot-plug announcements, measured
//! per-op control frames, and fabric settings propagation across crates.

use std::sync::Arc;
use std::time::Duration;

use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::oaf::conn::{ConnectionManager, ControlPath, FabricSettings};
use nvme_oaf::oaf::locality::{poll_locality, HostRegistry, ProcessId};
use nvme_oaf::oaf::runtime::{launch, AfPair};

const TIMEOUT: Duration = Duration::from_secs(10);

fn controller() -> Controller {
    let mut c = Controller::new();
    c.add_namespace(Namespace::new(1, 4096, 256));
    c
}

#[test]
fn helper_process_announcements_follow_hotplug_lifecycle() {
    let reg = HostRegistry::new();
    let c = ProcessId(1);
    let t = ProcessId(2);
    let cflag = reg.register(c, 5);
    let tflag = reg.register(t, 5);

    // Nothing announced before hot-plug.
    assert!(poll_locality(&cflag).is_none());
    assert!(poll_locality(&tflag).is_none());

    let hp = reg.hotplug(c, t, 8, 4096).expect("co-located");
    let a = poll_locality(&cflag).expect("announced to client");
    let b = poll_locality(&tflag).expect("announced to target");
    assert_eq!(a.region_id, hp.region_id);
    assert_eq!(a.region_id, b.region_id);
    assert_eq!(a.host_id, 5);

    // Unplug clears both pages.
    reg.unplug(c, t);
    assert!(poll_locality(&cflag).is_none());
    assert!(poll_locality(&tflag).is_none());
}

#[test]
fn establish_uses_hotplug_only_when_co_located() {
    for (host_c, host_t, expect_shm) in [(9, 9, true), (9, 10, false)] {
        let reg = Arc::new(HostRegistry::new());
        reg.register(ProcessId(1), host_c);
        reg.register(ProcessId(2), host_t);
        let cm = ConnectionManager::new(reg.clone());
        let fabric = cm
            .establish(
                ProcessId(1),
                ProcessId(2),
                controller(),
                &FabricSettings::default(),
            )
            .expect("establish");
        assert_eq!(fabric.initiator.shm_active(), expect_shm);
        assert_eq!(
            reg.channel_for(ProcessId(1), ProcessId(2)).is_some(),
            expect_shm,
            "hotplug record mismatch"
        );
        cm.teardown(ProcessId(1), ProcessId(2), fabric)
            .expect("teardown");
        assert!(reg.channel_for(ProcessId(1), ProcessId(2)).is_none());
    }
}

#[test]
fn fabric_settings_control_slot_geometry() {
    let reg = Arc::new(HostRegistry::new());
    reg.register(ProcessId(1), 3);
    reg.register(ProcessId(2), 3);
    let cm = ConnectionManager::new(reg.clone());
    let settings = FabricSettings {
        depth: 4,
        slot_size: 8192,
        ..FabricSettings::default()
    };
    let fabric = cm
        .establish(ProcessId(1), ProcessId(2), controller(), &settings)
        .expect("establish");
    let hp = reg
        .channel_for(ProcessId(1), ProcessId(2))
        .expect("channel");
    assert_eq!(hp.channel.depth(), 4);
    assert_eq!(hp.channel.slot_size(), 8192);
    cm.teardown(ProcessId(1), ProcessId(2), fabric)
        .expect("teardown");
}

/// Frames on the control path per op, measured at QD1 through the
/// client transport's counters (`frames_sent + frames_received`; keep-
/// alive and deadlines are off, so nothing else travels). With shared
/// memory every write rides in-capsule whatever its size — CMD with the
/// slot reference, then the response: Fig. 7 without steps ② and ④
/// (§4.4.2) — so a 128 KiB write costs what a 4 KiB one does. Stock
/// NVMe/TCP needs CMD → R2T → H2C → RESP once a write outgrows the 8 KiB
/// in-capsule limit (the 512 KiB socket chunk keeps 128 KiB in one H2C),
/// and a read is CMD → C2H → RESP on both fabrics. That shm read is the
/// one row where the paper counts 2: the slot reference could ride the
/// completion itself.
#[test]
fn frames_per_op_follow_the_in_capsule_flow() {
    const OPS: u64 = 8;
    // (co-located, control path, [(io bytes, write frames, read frames)])
    let cases = [
        (true, ControlPath::Tcp, [(4096, 2, 3), (128 * 1024, 2, 3)]),
        (
            true,
            ControlPath::InRegion,
            [(4096, 2, 3), (128 * 1024, 2, 3)],
        ),
        (false, ControlPath::Tcp, [(4096, 2, 3), (128 * 1024, 4, 3)]),
    ];
    for (local, control, rows) in cases {
        let registry = Arc::new(HostRegistry::new());
        let mut p = launch(
            &registry,
            (ProcessId(1), 1),
            (ProcessId(2), if local { 1 } else { 2 }),
            controller(),
            FabricSettings {
                control,
                ..FabricSettings::default()
            },
        )
        .expect("launch");
        assert_eq!(p.client.shm_active(), local);
        let frames = |p: &AfPair| {
            let snap = p.telemetry.snapshot();
            snap.counter("transport_client", "frames_sent")
                + snap.counter("transport_client", "frames_received")
        };
        for (len, write_frames, read_frames) in rows {
            let nlb = (len / 4096) as u32;
            let before = frames(&p);
            for i in 0..OPS {
                let mut buf = p.client.alloc(len).expect("alloc");
                buf.fill(i as u8);
                p.client
                    .write(1, i * u64::from(nlb), nlb, buf, TIMEOUT)
                    .expect("write");
            }
            let mid = frames(&p);
            for i in 0..OPS {
                let back = p
                    .client
                    .read(1, i * u64::from(nlb), nlb, len, TIMEOUT)
                    .expect("read");
                assert_eq!(back, vec![i as u8; len]);
            }
            let after = frames(&p);
            let case = format!("local={local} {control:?} {len} B");
            assert_eq!((mid - before) / OPS, write_frames, "{case}: write");
            assert_eq!((mid - before) % OPS, 0, "{case}: write");
            assert_eq!((after - mid) / OPS, read_frames, "{case}: read");
            assert_eq!((after - mid) % OPS, 0, "{case}: read");
        }
        p.client.disconnect().expect("disconnect");
        p.target.shutdown().expect("shutdown");
    }
}

#[test]
fn repeated_establish_teardown_cycles_are_stable() {
    let reg = Arc::new(HostRegistry::new());
    reg.register(ProcessId(1), 1);
    reg.register(ProcessId(2), 1);
    let cm = ConnectionManager::new(reg.clone());
    for round in 0..5 {
        let mut fabric = cm
            .establish(
                ProcessId(1),
                ProcessId(2),
                controller(),
                &FabricSettings::default(),
            )
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert!(fabric.initiator.shm_active(), "round {round}");
        // Do one I/O per cycle to prove the channel is live.
        fabric
            .initiator
            .write_blocking(
                1,
                0,
                1,
                bytes::Bytes::from(vec![round as u8; 4096]),
                std::time::Duration::from_secs(5),
            )
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        cm.teardown(ProcessId(1), ProcessId(2), fabric)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
}
