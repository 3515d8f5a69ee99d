//! The main-branch guarantee: every schedule of 2–3 in-flight commands
//! under each single-fault alphabet (drop / reorder / duplicate /
//! corrupt) upholds every invariant. These sweeps are *exhaustive*
//! within their budgets — `truncated` is asserted false, so a pass
//! means the whole space was closed, not sampled.

use oaf_chaos::FaultKind;
use oaf_mc::{Budget, CmdKind, Explorer, FaultBudget, McMetrics, Outcome, Scenario, Strategy};
use oaf_telemetry::Registry;

fn sweep(name: &'static str, commands: Vec<CmdKind>, faults: FaultBudget) -> Outcome {
    let outcome = Explorer::new(Scenario::new(name, commands, faults))
        .budget(Budget {
            max_states: 5_000_000,
            max_depth: 80,
        })
        .run();
    println!(
        "{name}: explored={} pruned={} max_depth={} truncated={}",
        outcome.explored, outcome.pruned, outcome.max_depth, outcome.truncated
    );
    if let Some(cx) = &outcome.violation {
        panic!("{name} found a violation:\n{cx}");
    }
    assert!(!outcome.truncated, "{name}: sweep hit its budget");
    outcome
}

#[test]
fn two_writes_survive_every_single_fault_schedule() {
    for kind in [
        FaultKind::Drop,
        FaultKind::Reorder,
        FaultKind::Duplicate,
        FaultKind::Corrupt,
    ] {
        let o = sweep(
            "write-write",
            vec![CmdKind::Write, CmdKind::Write],
            FaultBudget::only(kind, 1),
        );
        assert!(
            o.explored >= 100,
            "suspiciously small space for {kind:?}: {}",
            o.explored
        );
    }
}

#[test]
fn read_and_write_survive_every_single_fault_schedule() {
    for kind in [
        FaultKind::Drop,
        FaultKind::Reorder,
        FaultKind::Duplicate,
        FaultKind::Corrupt,
    ] {
        sweep(
            "read-write",
            vec![CmdKind::Read, CmdKind::Write],
            FaultBudget::only(kind, 1),
        );
    }
}

#[test]
fn fua_write_and_flush_barriers_survive_drops_and_reorders() {
    // Barrier-class commands carry a padded deadline; the sweep proves
    // the pad can never wedge recovery (no Stuck states).
    sweep(
        "fua-flush",
        vec![CmdKind::WriteFua, CmdKind::Flush],
        FaultBudget::only(FaultKind::Drop, 1),
    );
    sweep(
        "fua-flush",
        vec![CmdKind::WriteFua, CmdKind::Flush],
        FaultBudget::only(FaultKind::Reorder, 2),
    );
}

/// The async durability pipeline, exhaustively: barrier completions
/// park on the offloaded sync worker and every interleaving of command
/// delivery, timer fires, aborts and sync drains (including the fsync
/// *error* drain) upholds every invariant. The dangerous reordering the
/// sweep closes out: an abort racing a parked barrier must never be
/// answered `not applied` (the journal append already happened), or the
/// resubmit double-applies.
#[test]
fn offloaded_sync_parking_survives_every_schedule() {
    for (faults, fail_budget) in [
        (FaultBudget::none(), 0),
        (FaultBudget::none(), 1),
        (FaultBudget::only(FaultKind::Drop, 1), 1),
        (FaultBudget::only(FaultKind::Reorder, 2), 1),
        (FaultBudget::only(FaultKind::Duplicate, 1), 1),
    ] {
        let scenario = Scenario::new(
            "offloaded-fua-flush",
            vec![CmdKind::WriteFua, CmdKind::Flush],
            faults,
        )
        .offloaded_sync(fail_budget);
        let outcome = Explorer::new(scenario)
            .budget(Budget {
                max_states: 5_000_000,
                max_depth: 80,
            })
            .run();
        println!(
            "offloaded-fua-flush (faults={faults:?} sync_fails={fail_budget}): \
             explored={} pruned={} max_depth={} truncated={}",
            outcome.explored, outcome.pruned, outcome.max_depth, outcome.truncated
        );
        if let Some(cx) = &outcome.violation {
            panic!("offloaded sweep found a violation:\n{cx}");
        }
        assert!(!outcome.truncated, "offloaded sweep hit its budget");
    }
}

/// Non-barrier traffic keeps flowing through the model while barriers
/// are parked: a read and a plain write interleave freely with a parked
/// FUA write and resolve independently of the sync drain order.
#[test]
fn offloaded_sync_reads_interleave_with_parked_barriers() {
    let scenario = Scenario::new(
        "offloaded-mixed",
        vec![CmdKind::WriteFua, CmdKind::Read, CmdKind::Write],
        FaultBudget::only(FaultKind::Drop, 1),
    )
    .offloaded_sync(1);
    let outcome = Explorer::new(scenario)
        .budget(Budget {
            max_states: 5_000_000,
            max_depth: 80,
        })
        .run();
    if let Some(cx) = &outcome.violation {
        panic!("offloaded mixed sweep found a violation:\n{cx}");
    }
    assert!(!outcome.truncated);
    assert!(
        outcome.explored >= 1_000,
        "suspiciously small space: {}",
        outcome.explored
    );
}

#[test]
fn three_commands_survive_reordering() {
    sweep(
        "read-read-flush",
        vec![CmdKind::Read, CmdKind::Read, CmdKind::Flush],
        FaultBudget::only(FaultKind::Reorder, 1),
    );
}

#[test]
fn write_zeroes_abort_path_survives_drop_plus_reorder() {
    // WriteZeroes is replayable-without-payload: its abort/resubmit
    // path is distinct from buffered writes. Two fault kinds at once.
    let o = sweep(
        "write-zeroes",
        vec![CmdKind::WriteZeroes, CmdKind::Read],
        FaultBudget {
            drops: 1,
            reorders: 1,
            ..FaultBudget::none()
        },
    );
    assert!(o.explored >= 1_000);
}

#[test]
fn keepalive_probing_survives_drops() {
    use oaf_nvmeof::recovery::KeepAliveNanos;
    const MS: u64 = 1_000_000;
    let mut scenario = Scenario::new(
        "write-keepalive",
        vec![CmdKind::Write],
        FaultBudget::only(FaultKind::Drop, 1),
    );
    scenario.recovery.keepalive = Some(KeepAliveNanos {
        interval: 20 * MS,
        grace: 60 * MS,
    });
    let outcome = Explorer::new(scenario).run();
    if let Some(cx) = &outcome.violation {
        panic!("keepalive sweep found a violation:\n{cx}");
    }
    assert!(!outcome.truncated);
}

#[test]
fn iterative_deepening_closes_the_same_space_clean() {
    let outcome = Explorer::new(Scenario::new(
        "write-write-id",
        vec![CmdKind::Write, CmdKind::Write],
        FaultBudget::only(FaultKind::Drop, 1),
    ))
    .strategy(Strategy::IterativeDeepening)
    .run();
    assert!(outcome.violation.is_none());
    assert!(!outcome.truncated);
}

#[test]
fn metrics_flow_through_the_telemetry_registry() {
    let registry = Registry::new();
    let metrics = McMetrics::new();
    metrics.register(&registry.scope("mc"));

    let outcome = Explorer::new(Scenario::new(
        "metrics",
        vec![CmdKind::Read, CmdKind::Write],
        FaultBudget::only(FaultKind::Reorder, 1),
    ))
    .run();
    metrics.observe(&outcome);

    let snap = registry.snapshot();
    assert!(snap.counter("mc", "explored_states") >= 100);
    assert!(snap.counter("mc", "pruned_states") >= 1);
    assert_eq!(snap.counter("mc", "violations"), 0);
    let (_, hwm) = snap.gauge("mc", "max_depth").expect("gauge registered");
    assert!(hwm >= 4, "max_depth high-water mark: {hwm}");
}
