//! ABL-9: the snapshot-cost sweep — what copy-on-write history sharing
//! buys per [`WorldSnapshot`].
//!
//! The snapshot-pool DFS of the checkpointed explorers pays one world
//! clone per pool entry per fork, so snapshot cost bounds how densely
//! replay starting points can be placed (the availability-guarantee
//! argument from PAPERS.md). Before this sweep's PR, a snapshot
//! deep-cloned the whole world — O(history): the trace, decision stream,
//! enabled sets and syscall logs all grow linearly with run length. With
//! chunked history sharing a snapshot copies the hot machine state plus a
//! bounded tail per log and *shares* the sealed history.
//!
//! Two claims, both visible in the table:
//!
//! - **Flat curve**: `bytes-cloned` stays (near-)constant as the trace
//!   grows by orders of magnitude, while `bytes-deep` — the same snapshot
//!   measured as the old representation would have copied it — grows
//!   linearly. (The residual slope is one 8-byte chunk handle per 256
//!   history elements.)
//! - **Deep-msgserver gate**: on the deep-horizon msgserver row (the PR-3
//!   checkpointed-DFS acceptance workload) the clone must copy at least 2×
//!   fewer bytes than the deep clone. `tests/snapshot_cost_gate.rs` gates
//!   it.
//!
//! The byte counts are `size_of`-based estimates
//! ([`dd_sim::SnapshotCost`]), so a change to a world struct's layout
//! moves them.

use dd_core::Workload;
use dd_sim::{
    run_program, Builder, ChanClass, CheckpointPlan, Program, RandomPolicy, RunConfig,
    WorldSnapshot,
};
use dd_workloads::{MsgServerConfig, MsgServerWorkload};
use serde::{Deserialize, Serialize};

/// One snapshot-cost sweep row (measurements on the run's *deepest*
/// snapshot — the one carrying the most history).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotCostPoint {
    /// Row label (workload / stretch factor).
    pub row: String,
    /// Events in the run's trace (history length).
    pub trace_events: u64,
    /// Recorded decisions in the run.
    pub decisions: u64,
    /// Snapshots the run collected.
    pub snapshots: u64,
    /// Decision index of the measured (deepest) snapshot.
    pub at_decision: u64,
    /// Bytes one snapshot clone copies (hot state + chunk handles + log
    /// tails) — the new representation.
    pub bytes_cloned: u64,
    /// Bytes a history-unaware deep clone copies — the old representation,
    /// measured on the identical state.
    pub bytes_deep: u64,
    /// `bytes_deep / bytes_cloned`.
    pub reduction: f64,
    /// Sealed history chunks the deepest snapshot shares with the
    /// second-deepest one (0 = nothing shared — e.g. the whole history
    /// still fits in one unsealed tail).
    pub shared_chunks: u64,
}

/// A workload whose history length scales with `iters` while its live
/// machine state stays fixed: two racy adders and a reporter. Every loop
/// iteration adds trace events, decisions and enabled-set records without
/// adding tasks, vars or channels — exactly the regime where O(history)
/// snapshots blow up and O(live-state) snapshots stay flat.
///
/// Keep in lockstep with `Racy` in `crates/sim/tests/history_sharing.rs`:
/// the gating property tests and this benchmark deliberately measure the
/// same regime, and the sim-level test cannot import a shared definition
/// without a dev-dependency cycle through the workload layer.
struct Stretcher {
    iters: i64,
}

impl Program for Stretcher {
    fn name(&self) -> &'static str {
        "stretcher"
    }

    fn setup(&self, b: &mut Builder<'_>) {
        let total = b.var("total", 0i64);
        let out = b.out_port("result");
        let done = b.channel::<i64>("done", ChanClass::Local);
        let iters = self.iters;
        for i in 0..2 {
            b.spawn(&format!("adder{i}"), "workers", move |mut ctx| async move {
                for _ in 0..iters {
                    let v = ctx.read(&total, "stretch::read").await?;
                    ctx.write(&total, v + 1, "stretch::write").await?;
                    ctx.count("adds", 1, "stretch::count").await?;
                }
                ctx.send(&done, 1, "stretch::done").await
            });
        }
        b.spawn("reporter", "main", move |mut ctx| async move {
            for _ in 0..2 {
                ctx.recv::<i64>(&done, "stretch::recv").await?;
            }
            let v = ctx.read(&total, "stretch::report").await?;
            ctx.output(out, v, "stretch::out").await
        });
    }
}

/// Builds one table row from a finished checkpointed run.
fn point_of(
    row: String,
    out: &dd_sim::RunOutput,
    snapshots: &[WorldSnapshot],
) -> Option<SnapshotCostPoint> {
    let deepest = snapshots.last()?;
    let cost = deepest.cost();
    Some(SnapshotCostPoint {
        row,
        trace_events: out.trace().len() as u64,
        decisions: out.decisions.len() as u64,
        snapshots: snapshots.len() as u64,
        at_decision: deepest.at_decision(),
        bytes_cloned: cost.cloned_bytes(),
        bytes_deep: cost.deep_bytes(),
        reduction: cost.reduction(),
        shared_chunks: snapshots
            .len()
            .checked_sub(2)
            .and_then(|i| snapshots.get(i))
            .map(|s| deepest.shared_history_chunks(s) as u64)
            .unwrap_or(0),
    })
}

/// The deep-horizon msgserver row: the same workload, spec and checkpoint
/// plan as the ABL-7 deep rows (snapshot every decision inside a
/// 256-deep horizon), measured on the production run's snapshot pool.
pub fn deep_msgserver_point() -> SnapshotCostPoint {
    let w = MsgServerWorkload::discover(MsgServerConfig::default(), 64)
        .expect("msgserver failing seed");
    let scenario = w.scenario();
    let mut out = scenario.execute_checkpointed(
        &scenario.original_spec(),
        CheckpointPlan::new(1, 255),
        vec![],
    );
    let snapshots = std::mem::take(&mut out.snapshots);
    point_of("msgserver-deep".to_owned(), &out, &snapshots)
        .expect("deep msgserver run takes snapshots")
}

/// The stretcher rows alone: growing history length over fixed live
/// state (the flat-curve half of the sweep).
pub fn stretcher_points() -> Vec<SnapshotCostPoint> {
    let mut points = Vec::new();
    for iters in [16i64, 64, 256, 1024] {
        let cfg = RunConfig {
            seed: 42,
            checkpoints: Some(CheckpointPlan::new(16, u64::MAX)),
            max_steps: 1_000_000,
            ..RunConfig::default()
        };
        let mut out = run_program(
            &Stretcher { iters },
            cfg,
            Box::new(RandomPolicy::new(42)),
            vec![],
        );
        let snapshots = std::mem::take(&mut out.snapshots);
        if let Some(p) = point_of(format!("stretcher(m={iters})"), &out, &snapshots) {
            points.push(p);
        }
    }
    points
}

/// The full sweep: stretcher rows of growing history length (the flat
/// curve), then the deep-msgserver gate row (its ≥ 2× reduction is gated
/// by the workspace-level `tests/snapshot_cost_gate.rs`, not re-asserted
/// here — the gate row is expensive enough to build once per suite).
pub fn snapshot_cost_sweep() -> Vec<SnapshotCostPoint> {
    let mut points = stretcher_points();
    points.push(deep_msgserver_point());
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stretcher_rows_have_flat_clone_cost_and_linear_deep_cost() {
        let stretch = stretcher_points();
        assert!(stretch.len() >= 3);
        // Baseline on the first row whose history actually sealed chunks:
        // shorter rows fit entirely in unsealed tails, so their clone IS a
        // full history copy — an inflated baseline that would mask leaks.
        let first = stretch
            .iter()
            .find(|p| p.shared_chunks > 0)
            .expect("a stretcher row with sealed, shared history chunks");
        let last = stretch.last().unwrap();
        assert!(
            last.trace_events > 10 * first.trace_events,
            "the sweep must actually stretch the history ({} -> {})",
            first.trace_events,
            last.trace_events
        );
        // Deep cost tracks history; clone cost must not.
        assert!(last.bytes_deep > 5 * first.bytes_deep);
        assert!(
            last.bytes_cloned < 2 * first.bytes_cloned,
            "bytes-cloned grew with the trace: {} -> {} (history is leaking \
             into the snapshot clone)",
            first.bytes_cloned,
            last.bytes_cloned
        );
        // And in absolute terms the deepest row's clone must stay an order
        // of magnitude below the history it shares.
        assert!(last.bytes_cloned * 10 < last.bytes_deep);
        assert!(last.shared_chunks > 0, "pool snapshots must share chunks");
    }
}
