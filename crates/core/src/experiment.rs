//! The experiment runner: record → replay → assess, per model per workload.
//!
//! This is the harness behind Fig. 1, Fig. 2 and the ablations: it runs a
//! workload's production incident under each determinism model, replays from
//! the artifact, and reports recording overhead alongside DF/DE/DU.

use crate::metrics::{debugging_utility, UtilityReport};
use crate::rootcause::{causes_for, CauseCtx};
use crate::workload::Workload;
use dd_replay::{DeterminismModel, InferenceBudget, ModelKind, Recording, ReplayResult};
use dd_trace::LogStats;
use serde::{Deserialize, Serialize};

/// The full evaluation of one model on one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelReport {
    /// Workload name.
    pub workload: String,
    /// The model evaluated.
    pub model: ModelKind,
    /// Production recording overhead (wall / exec).
    pub overhead_factor: f64,
    /// Log volume recorded.
    pub log: LogStats,
    /// DF / DE / DU.
    pub utility: UtilityReport,
    /// Whether the artifact's constraints held on the replayed execution.
    pub artifact_satisfied: bool,
    /// Inference executions explored (0 for non-inference models).
    pub inference_explored: u64,
    /// Value-feed divergences (value determinism only).
    pub value_divergences: u64,
}

impl ModelReport {
    /// One formatted row: model, overhead, DF, DE, DU.
    pub fn row(&self) -> String {
        format!(
            "{:<14} {:>9.2}x {:>10} {:>8.3} {:>8.3} {:>8.3} {:>9}",
            self.model.to_string(),
            self.overhead_factor,
            self.log.bytes,
            self.utility.fidelity.df,
            self.utility.de,
            self.utility.du,
            self.inference_explored,
        )
    }

    /// The table header matching [`ModelReport::row`].
    pub fn header() -> String {
        format!(
            "{:<14} {:>10} {:>10} {:>8} {:>8} {:>8} {:>9}",
            "model", "overhead", "log-bytes", "DF", "DE", "DU", "explored"
        )
    }
}

/// Evaluates one model on one workload: record the production incident,
/// replay from the artifact, assess fidelity/efficiency/utility.
pub fn evaluate_model(
    workload: &dyn Workload,
    model: &dyn DeterminismModel,
    budget: &InferenceBudget,
) -> (ModelReport, Recording, ReplayResult) {
    evaluate_model_on(&workload.scenario(), workload, model, budget)
}

/// [`evaluate_model`] against an explicit scenario — the same pipeline for
/// callers that override the production incident (e.g. a
/// [`Session`](crate::driver::Session) with a discovered failing schedule).
pub fn evaluate_model_on(
    scenario: &dd_replay::Scenario,
    workload: &dyn Workload,
    model: &dyn DeterminismModel,
    budget: &InferenceBudget,
) -> (ModelReport, Recording, ReplayResult) {
    let recording = model.record(scenario);
    let replay = model.replay(scenario, &recording, budget);
    let causes = workload.root_causes();
    let utility = debugging_utility(&causes, &recording, &replay);
    let report = ModelReport {
        workload: workload.name().to_owned(),
        model: model.kind(),
        overhead_factor: recording.overhead_factor,
        log: recording.log,
        utility,
        artifact_satisfied: replay.artifact_satisfied,
        inference_explored: replay.inference.explored,
        value_divergences: replay.value_divergences,
    };
    (report, recording, replay)
}

/// Empirically verifies which declared root causes are reachable: for each
/// cause of the original failure, searches the workload's nondeterminism
/// space for an execution that (a) exhibits the failure and (b) activates
/// that cause. Returns `(cause id, reachable)` pairs.
///
/// This is the §3.2 proposal for determining `n` empirically ("check if the
/// system can replay all of the true positives").
pub fn enumerate_root_causes(
    workload: &dyn Workload,
    budget: &InferenceBudget,
) -> Vec<(&'static str, bool)> {
    find_cause_equivalent_executions(workload, budget)
        .into_iter()
        .map(|w| (w.cause, w.witness.is_some()))
        .collect()
}

/// A root cause together with the execution the explorer found for it.
pub struct CauseWitness {
    /// The cause id.
    pub cause: &'static str,
    /// A run specification whose execution exhibits the production failure
    /// through this cause, if one was found within budget.
    pub witness: Option<dd_replay::RunSpec>,
    /// Candidate executions explored for this cause.
    pub explored: u64,
}

/// The paper's §5 "ideal" system, made concrete: record just the failure,
/// then find *all* root-cause-equivalent executions that exhibit it — one
/// witness execution per declared potential cause.
///
/// This is the exhaustive counterpart of failure-deterministic replay
/// (which stops at the first consistent execution); its cost is the sum of
/// the per-cause searches, which is exactly the scaling challenge §5 notes.
pub fn find_cause_equivalent_executions(
    workload: &dyn Workload,
    budget: &InferenceBudget,
) -> Vec<CauseWitness> {
    let scenario = workload.scenario();
    let causes = workload.root_causes();
    // Identify the production failure.
    let original = scenario.execute(&scenario.original_spec(), vec![]);
    let Some(failure) = (scenario.failure_of)(&original.io) else {
        return causes
            .iter()
            .map(|c| CauseWitness {
                cause: c.id,
                witness: None,
                explored: 0,
            })
            .collect();
    };
    causes_for(&causes, &failure.failure_id)
        .into_iter()
        .map(|cause| {
            let result = dd_replay::search(&scenario, budget, None, |out| {
                let Some(f) = (scenario.failure_of)(&out.io) else {
                    return false;
                };
                if f.failure_id != failure.failure_id {
                    return false;
                }
                let trace = dd_trace::Trace::from_run(out);
                let ctx = CauseCtx {
                    trace: &trace,
                    registry: &out.registry,
                    io: &out.io,
                };
                cause.active_in(&ctx)
            });
            CauseWitness {
                cause: cause.id,
                witness: result.spec,
                explored: result.stats.explored,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FidelityReport;

    #[test]
    fn table_formatting_is_stable() {
        let report = ModelReport {
            workload: "w".into(),
            model: ModelKind::Value,
            overhead_factor: 3.2,
            log: LogStats {
                records: 10,
                bytes: 1000,
            },
            utility: UtilityReport {
                fidelity: FidelityReport {
                    df: 1.0,
                    reproduced_failure: true,
                    same_root_cause: true,
                    n_causes: 3,
                    original_causes: vec![],
                    replay_causes: vec![],
                },
                de: 0.9,
                du: 0.9,
            },
            artifact_satisfied: true,
            inference_explored: 0,
            value_divergences: 0,
        };
        let table = format!("{}\n{}", ModelReport::header(), report.row());
        assert!(table.contains("value"));
        assert!(table.contains("3.20x"));
        assert!(table.lines().count() == 2);
    }
}
