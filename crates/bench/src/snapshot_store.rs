//! ABL-12: the persistent snapshot-store sweep — what spilling checkpoints
//! to disk costs and buys.
//!
//! A `dd record --spill` run offers every checkpoint its plan fires to an
//! on-disk [`SnapshotStore`] instead of RAM. The store delta-encodes
//! snapshots over sealed history chunks (content-addressed, written once)
//! and evicts under a retention policy that maintains a configurable bound
//! `D` on the distance from any decision to its nearest restorable
//! snapshot. Three claims, one per column group:
//!
//! - **Delta encoding wins**: `disk-bytes` (chunks counted once) stays far
//!   below `full-bytes` (every snapshot priced as a standalone artifact) as
//!   soon as snapshots share history — the `delta` ratio.
//! - **Availability bound holds**: `measured-D` — the worst replay distance
//!   anywhere in the run, recomputed from the cold store — never exceeds
//!   the configured `bound`, even under eviction pressure (the `sparse`
//!   row stores far fewer snapshots than the plan offered). The same
//!   invariant is property-tested in `dd-trace`'s store module.
//! - **Warm replay skips the prefix**: `warm-from` recorded decisions are
//!   restored rather than re-executed on the `dd replay --from` path, and
//!   the result is digest-identical to a scratch replay (asserted per
//!   row). The skipped prefix is what matters when a decision is expensive
//!   (the regime the paper's checkpointing argument targets); what the
//!   restore costs in wall-clock time is measured by `ddbench`'s
//!   `spill-restore` workload.

use dd_core::Workload;
use dd_replay::{replay_trace, replay_trace_from, Scenario};
use dd_sim::{CheckpointPlan, RandomPolicy};
use dd_trace::{JsonlTrace, RetentionPolicy, SnapshotStore, TraceHeader};
use dd_workloads::{MsgServerConfig, MsgServerWorkload};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// One snapshot-store sweep row: a deep msgserver recording spilled under
/// one spill cadence / retention configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotStorePoint {
    /// Row label (spill cadence and retention knobs).
    pub row: String,
    /// Recorded decisions in the run.
    pub decisions: u64,
    /// Snapshots still stored after eviction.
    pub stored: u64,
    /// Total store bytes on disk (index + manifests + deduplicated chunks).
    pub disk_bytes: u64,
    /// Bytes the same snapshots would occupy as standalone artifacts
    /// (shared chunks counted once per referencing snapshot).
    pub full_bytes: u64,
    /// `full_bytes / disk_bytes` — what delta encoding saves.
    pub delta: f64,
    /// Configured availability bound `D`.
    pub bound: u64,
    /// Measured worst-case replay distance anywhere in the run, recomputed
    /// from the cold store index. Must be `<= bound`.
    pub measured_bound: u64,
    /// Decision of the snapshot nearest mid-run (the warm replay's seek
    /// target).
    pub warm_from: u64,
}

/// A throwaway store directory under the system temp dir, unique per
/// process and row so parallel test binaries cannot collide.
fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dd-abl12-{}-{tag}", std::process::id()))
}

/// Records the production msgserver incident spilling to a fresh store at
/// `dir`, and returns the trace artifact the run would have written.
fn record_spilled(
    scenario: &Scenario,
    name: &str,
    dir: &PathBuf,
    every: u64,
    policy: RetentionPolicy,
) -> JsonlTrace {
    let _ = std::fs::remove_dir_all(dir);
    let store = SnapshotStore::create(dir, policy).expect("temp store is creatable");
    let out = scenario.execute_spilled(
        &scenario.original_spec(),
        CheckpointPlan::new(every, u64::MAX),
        Box::new(store),
        vec![],
    );
    assert!(
        out.spill_errors.is_empty(),
        "spill to temp store failed: {:?}",
        out.spill_errors
    );
    let header = TraceHeader::new(
        name,
        scenario.seed,
        scenario.sched_seed,
        scenario.max_steps,
        scenario.inputs.clone(),
        scenario.env.clone(),
    );
    JsonlTrace::from_run(header, &out).expect("recorded run seals into a trace")
}

/// Builds one sweep row: record spilled, reopen the store cold, measure.
fn point_of(
    scenario: &Scenario,
    name: &str,
    row: String,
    every: u64,
    policy: RetentionPolicy,
) -> SnapshotStorePoint {
    let dir = scratch_dir(&format!(
        "{every}-{}-{}",
        policy.bound, policy.max_snapshots
    ));
    let trace = record_spilled(scenario, name, &dir, every, policy);
    let decisions = trace.footer.decisions;

    let store = SnapshotStore::open(&dir).expect("just-written store reopens");
    let disk_bytes = store.disk_bytes();
    let full_bytes = store.standalone_bytes();
    let measured_bound = store.max_gap(decisions);

    let entry = store
        .nearest_at_or_before(decisions / 2)
        .expect("a deep spilled run stores a mid-run snapshot");
    let (id, warm_from) = (entry.id, entry.decision);
    let snap = store
        .load(id, Box::new(RandomPolicy::new(0)))
        .expect("stored snapshot restores");
    let warm_report = replay_trace_from(scenario, &trace, &snap);
    assert!(
        warm_report.identical(),
        "warm replay diverged: {:?}",
        warm_report.divergence
    );
    assert!(replay_trace(scenario, &trace, vec![]).identical());

    let point = SnapshotStorePoint {
        row,
        decisions,
        stored: store.list().len() as u64,
        disk_bytes,
        full_bytes,
        delta: full_bytes as f64 / disk_bytes.max(1) as f64,
        bound: policy.bound,
        measured_bound,
        warm_from,
    };
    let _ = std::fs::remove_dir_all(&dir);
    point
}

/// The full sweep: the deep msgserver incident spilled dense, at the CLI
/// default cadence, and sparse (heavy eviction pressure).
pub fn snapshot_store_sweep() -> Vec<SnapshotStorePoint> {
    let w = MsgServerWorkload::discover(MsgServerConfig::default(), 64)
        .expect("msgserver failing seed exists for the default config");
    let scenario = w.scenario();
    let name = w.name();
    [
        (
            "dense(every=2,D=16,keep=256)",
            2,
            RetentionPolicy::new(16, 256),
        ),
        (
            "default(every=8,D=64,keep=8)",
            8,
            RetentionPolicy::new(64, 8),
        ),
        (
            "sparse(every=4,D=128,keep=2)",
            4,
            RetentionPolicy::new(128, 2),
        ),
    ]
    .into_iter()
    .map(|(row, every, policy)| point_of(&scenario, name, row.to_owned(), every, policy))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_rows_hold_the_bound_and_delta_encoding_wins_when_dense() {
        let points = snapshot_store_sweep();
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(
                p.measured_bound <= p.bound,
                "{}: measured replay distance {} exceeds configured bound {}",
                p.row,
                p.measured_bound,
                p.bound
            );
            assert!(p.stored > 0, "{}: deep run stored no snapshots", p.row);
            assert!(p.disk_bytes > 0);
            assert!(
                p.full_bytes >= p.disk_bytes,
                "{}: standalone pricing cannot be below deduplicated bytes",
                p.row
            );
        }
        // The dense row stores many history-sharing snapshots, so the
        // standalone pricing must be a strict multiple of the on-disk one.
        let dense = &points[0];
        assert!(
            dense.delta >= 2.0,
            "dense row: delta encoding saved only {:.2}x",
            dense.delta
        );
        // Eviction pressure must actually bite on the sparse row: far
        // fewer snapshots stored than the plan offered, bound still held.
        let sparse = &points[2];
        assert!(sparse.stored < dense.stored);
    }
}
