//! Counterexample traces: minimal replayable schedules, printable for
//! humans and convertible into deterministic `oaf-chaos` fault scripts.

use std::fmt;

use oaf_chaos::{FaultKind, FaultScript, ScriptedFault};

use crate::invariant::Violation;
use crate::model::{Dir, Scenario, Transition, World};

/// The two per-endpoint fault schedules a counterexample converts into:
/// faults on initiator→target frames replay at the target's transport
/// wrapper, faults on target→initiator frames at the initiator's.
#[derive(Clone, Debug)]
pub struct FaultScripts {
    /// Script for the wrapper around the *initiator's* endpoint
    /// (faults on target→initiator frames).
    pub initiator: FaultScript,
    /// Script for the wrapper around the *target's* endpoint (faults
    /// on initiator→target frames).
    pub target: FaultScript,
}

/// A violating schedule, reconstructed by replaying the explorer's
/// transition path from the initial state so every step can be
/// rendered with full message context.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Name of the scenario that produced it.
    pub scenario: &'static str,
    /// The invariant that broke at the end of the schedule.
    pub violation: Violation,
    /// The raw transitions, shortest-first (iterative deepening makes
    /// this a minimal schedule).
    pub transitions: Vec<Transition>,
    /// One human-readable line per transition.
    pub steps: Vec<String>,
    /// Every fault the schedule spent: `(direction, frame seq, kind)`.
    pub faults: Vec<(Dir, u64, FaultKind)>,
}

impl Counterexample {
    /// Replays `path` from the scenario's initial state, rendering each
    /// step and collecting the fault ledger.
    pub(crate) fn build(scenario: &Scenario, path: &[Transition], violation: Violation) -> Self {
        let mut world = World::new(scenario);
        let mut steps = Vec::with_capacity(path.len());
        for &t in path {
            steps.push(world.describe(t));
            let _ = world.apply(t);
        }
        Counterexample {
            scenario: scenario.name,
            violation,
            transitions: path.to_vec(),
            steps,
            faults: world.faults_spent.clone(),
        }
    }

    /// Converts the fault ledger into deterministic per-endpoint
    /// [`FaultScript`]s. Frame indices count *fresh armed frames* at
    /// the receiving endpoint, exactly as
    /// [`oaf_chaos::transport::ChaosTransport::wrap_scripted`] counts
    /// them — so a replay harness must arm the chaos controls before
    /// the first modeled frame crosses the wire and keep the frame↔
    /// message correspondence (one model message = one fabric frame).
    ///
    /// Known gap: the model's reorder lets one message overtake any
    /// number of older ones, while the scripted transport's
    /// [`FaultKind::Reorder`] holds a frame back until exactly one later
    /// frame has overtaken it. Single-overtake reorders (the common minimal counterexample)
    /// convert exactly; deeper ones replay as an approximation.
    pub fn to_fault_scripts(&self) -> FaultScripts {
        let mut scripts = FaultScripts {
            initiator: FaultScript::empty(),
            target: FaultScript::empty(),
        };
        for &(dir, seq, fault) in &self.faults {
            let script = match dir {
                Dir::I2T => &mut scripts.target,
                Dir::T2I => &mut scripts.initiator,
            };
            // One fault per frame index: the scripted transport fires
            // at most one action per fresh frame.
            if script.fault_at(seq).is_none() {
                script.faults.push(ScriptedFault { frame: seq, fault });
            }
        }
        scripts.initiator.faults.sort_by_key(|f| f.frame);
        scripts.target.faults.sort_by_key(|f| f.frame);
        scripts
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "counterexample for scenario `{}` ({} steps):",
            self.scenario,
            self.steps.len()
        )?;
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(f, "  {i:>3}. {step}")?;
        }
        writeln!(f, "  => violation: {}", self.violation)?;
        if self.faults.is_empty() {
            write!(f, "  (no faults spent — pure interleaving)")
        } else {
            write!(f, "  faults spent:")?;
            for &(dir, seq, fault) in &self.faults {
                write!(f, " {fault:?}@{dir}#{seq}")?;
            }
            Ok(())
        }
    }
}
