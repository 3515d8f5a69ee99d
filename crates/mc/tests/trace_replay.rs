//! Closing the loop: a counterexample found by the model checker
//! converts into an `oaf-chaos` [`FaultScript`] and *reproduces its
//! violation on the real stack* — real initiator, real target reactor,
//! real transport — deterministically, on every run. The same script
//! against the unmutated protocol is harmless, proving the script
//! pins the bug and not some replay artifact.
//!
//! [`FaultScript`]: oaf_chaos::FaultScript
#![cfg(feature = "mc-mutations")]

use std::time::Duration;

use bytes::Bytes;
use oaf_chaos::{wrap_pair_scripted, FaultKind};
use oaf_mc::{
    CmdKind, Counterexample, Explorer, FaultBudget, FaultScripts, Scenario, Strategy, Violation,
};
use oaf_nvmeof::initiator::{Initiator, InitiatorOptions};
use oaf_nvmeof::nvme::controller::Controller;
use oaf_nvmeof::nvme::namespace::Namespace;
use oaf_nvmeof::target::{spawn_target, TargetConfig};
use oaf_nvmeof::transport::ShmTransport;

const TIMEOUT: Duration = Duration::from_secs(10);
const BS: usize = 4096;
const PATTERN: u8 = 0xA5;
/// Ring bytes per direction of the control transport.
const RING: u64 = 64 * 1024;

/// Model-checks the mutated (deliver-early) protocol over one read
/// with a single reorder and returns the minimal counterexample.
fn model_counterexample() -> Counterexample {
    let mut scenario = Scenario::new(
        "read-deliver-early",
        vec![CmdKind::Read],
        FaultBudget::only(FaultKind::Reorder, 1),
    );
    // One data frame per read, matching the real target's inline path
    // for a block-sized read (≤ `TargetConfig::read_chunk`), so model
    // frame indices and fabric frame indices line up one to one.
    scenario.data_chunks = 1;
    scenario.recovery.mutate_deliver_early = true;
    Explorer::new(scenario)
        .strategy(Strategy::IterativeDeepening)
        .run()
        .violation
        .expect("mutated read under a reorder must produce a counterexample")
}

/// Runs one seeded-write + scripted-read exchange on the real stack and
/// returns the bytes the read handed back.
fn read_under_script(scripts: &FaultScripts, mutated: bool) -> Vec<u8> {
    let (ct, tt) = ShmTransport::pair(RING);
    let (ct, tt, controls) =
        wrap_pair_scripted(ct, tt, scripts.initiator.clone(), scripts.target.clone());
    let mut controller = Controller::new();
    controller.add_namespace(Namespace::new(1, BS as u32, 64));
    let handle = spawn_target(tt, controller, TargetConfig::default(), None);

    let opts = InitiatorOptions {
        mc_deliver_early: mutated,
        ..InitiatorOptions::default()
    };
    let mut ini = Initiator::connect(ct, opts, None, TIMEOUT).expect("connect");

    // Seed the block before arming so the handshake and the seed write
    // consume no scripted frame indices: frame 0 at each endpoint is
    // the first frame of the modeled exchange, exactly as in the model.
    let w = ini
        .submit_write(1, 0, 1, Bytes::from(vec![PATTERN; BS]))
        .expect("submit seed write");
    assert!(ini.wait(w, TIMEOUT).expect("seed write").status.is_ok());

    controls.arm();
    let r = ini.submit_read(1, 0, 1, BS).expect("submit read");
    let res = ini.wait(r, TIMEOUT).expect("read completes");
    controls.disarm();
    assert!(res.status.is_ok(), "read status: {:?}", res.status);

    // A reordered data frame may still be parked in the chaos layer;
    // teardown tolerates whatever is left on the wire.
    let _ = ini.disconnect();
    let _ = handle.shutdown();
    res.data
}

#[test]
fn counterexample_replays_as_a_failing_chaos_script() {
    let cx = model_counterexample();
    assert!(matches!(cx.violation, Violation::StaleRead { .. }));
    let scripts = cx.to_fault_scripts();
    assert!(
        !scripts.initiator.faults.is_empty(),
        "conversion produced an empty script:\n{cx}"
    );

    // Deterministic reproduction: the script makes the mutated stack
    // return stale bytes (the read buffer, never filled) — on every
    // run, not at the mercy of a chaos seed.
    for _ in 0..3 {
        let stale = read_under_script(&scripts, true);
        assert_eq!(stale.len(), BS);
        assert!(
            stale.iter().all(|&b| b == 0),
            "mutated replay returned non-stale bytes; script did not reproduce"
        );
    }

    // The identical script against the correct protocol is harmless:
    // the completion is held until the reordered data lands.
    let good = read_under_script(&scripts, false);
    assert_eq!(good.len(), BS);
    assert!(
        good.iter().all(|&b| b == PATTERN),
        "correct protocol corrupted a read under the replayed script"
    );
}
