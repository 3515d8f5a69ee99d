//! Integration: locality awareness, per-connection regions, measured
//! per-op control frames, and fabric settings propagation across crates.

use std::sync::Arc;
use std::time::Duration;

use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::oaf::conn::{ControlPath, FabricSettings};
use nvme_oaf::oaf::locality::{HostRegistry, ProcessId};
use nvme_oaf::oaf::runtime::{launch, AfPair};

const TIMEOUT: Duration = Duration::from_secs(10);

fn controller() -> Controller {
    let mut c = Controller::new();
    c.add_namespace(Namespace::new(1, 4096, 256));
    c
}

#[test]
fn launch_shares_a_region_only_when_co_located() {
    for (host_c, host_t, expect_shm) in [(9, 9, true), (9, 10, false)] {
        let registry = Arc::new(HostRegistry::new());
        let mut p = launch(
            &registry,
            (ProcessId(1), host_c),
            (ProcessId(2), host_t),
            controller(),
            FabricSettings::default(),
        )
        .expect("launch");
        assert_eq!(p.client.shm_active(), expect_shm);
        let buf = p.client.alloc(4096).expect("alloc");
        assert_eq!(buf.is_zero_copy(), expect_shm, "lease only over a region");
        drop(buf);
        let snap = p.telemetry.snapshot();
        assert_eq!(snap.counter("fabric", "locality_local"), expect_shm as u64);
        assert_eq!(
            snap.counter("fabric", "locality_remote"),
            !expect_shm as u64
        );
        p.client.disconnect().expect("disconnect");
        p.target.shutdown().expect("shutdown");
    }
}

/// `depth` and `slot_size` shape the connection's region: a lease fits
/// `slot_size` bytes and no more, and `depth` leases exhaust it (the
/// next allocation falls back to the pool).
#[test]
fn fabric_settings_control_slot_geometry() {
    let registry = Arc::new(HostRegistry::new());
    let mut p = launch(
        &registry,
        (ProcessId(1), 3),
        (ProcessId(2), 3),
        controller(),
        FabricSettings {
            depth: 4,
            slot_size: 8192,
            ..FabricSettings::default()
        },
    )
    .expect("launch");
    assert!(!p.client.alloc(8193).expect("alloc").is_zero_copy());
    let held: Vec<_> = (0..4)
        .map(|_| p.client.alloc(8192).expect("alloc"))
        .collect();
    assert!(held.iter().all(|b| b.is_zero_copy()), "4 slots of 8 KiB");
    assert!(
        !p.client.alloc(8192).expect("alloc").is_zero_copy(),
        "depth 4"
    );
    drop(held);
    assert!(p.client.alloc(8192).expect("alloc").is_zero_copy());
    p.client.disconnect().expect("disconnect");
    p.target.shutdown().expect("shutdown");
}

/// A connection's region belongs to that connection: a second `launch`
/// between the same two processes on one registry gets the geometry its
/// own settings ask for, not the region an earlier pair was given.
#[test]
fn a_second_launch_on_one_registry_gets_its_own_region() {
    let registry = Arc::new(HostRegistry::new());
    let runs = [
        FabricSettings {
            depth: 4,
            slot_size: 8192,
            ..FabricSettings::default()
        },
        FabricSettings::default(),
    ];
    for settings in runs {
        let slot = settings.slot_size;
        let mut p = launch(
            &registry,
            (ProcessId(1), 3),
            (ProcessId(2), 3),
            controller(),
            settings,
        )
        .expect("launch");
        assert!(p.client.shm_active(), "{slot} B slots");
        assert!(
            p.client.alloc(slot).expect("alloc").is_zero_copy(),
            "{slot} B slots"
        );
        assert!(
            !p.client.alloc(slot + 1).expect("alloc").is_zero_copy(),
            "{slot} B slots"
        );
        let mut buf = p.client.alloc(slot.min(64 * 1024)).expect("alloc");
        buf.fill(0x5a);
        let nlb = (buf.len() / 4096) as u32;
        p.client.write(1, 0, nlb, buf, TIMEOUT).expect("write");
        let snap = p.telemetry.snapshot();
        assert_eq!(
            snap.counter("target_conn0", "shm_payloads"),
            1,
            "{slot} B slots"
        );
        assert_eq!(
            snap.counter("target_conn0", "r2t_grants"),
            0,
            "{slot} B slots"
        );
        p.client.disconnect().expect("disconnect");
        p.target.shutdown().expect("shutdown");
    }
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

/// Five connections in a row between the same two processes on one
/// registry: each comes up over shared memory and moves bytes.
#[test]
fn repeated_establish_teardown_cycles_are_stable() {
    let registry = Arc::new(HostRegistry::new());
    for round in 0..5u8 {
        let mut p = launch(
            &registry,
            (ProcessId(1), 1),
            (ProcessId(2), 1),
            controller(),
            FabricSettings::default(),
        )
        .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert!(p.client.shm_active(), "round {round}");
        // One I/O per cycle proves the channel is live.
        let mut buf = p.client.alloc(4096).expect("alloc");
        assert!(buf.is_zero_copy(), "round {round}");
        buf.fill(round);
        p.client
            .write(1, 0, 1, buf, TIMEOUT)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        p.client
            .disconnect()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        p.target
            .shutdown()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
}
