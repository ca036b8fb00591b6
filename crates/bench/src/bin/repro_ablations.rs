//! Regenerates the ablation studies (ABL-1 … ABL-9 in DESIGN.md).
//!
//! Usage: `cargo run --release --bin repro-ablations [-- <which>] [flags]`
//! where `<which>` is one of `threshold`, `window`, `budget`, `scale`,
//! `strategies`, `invariants`, `checkpoint`, `scaling`, `snapshot`,
//! `fidelity`, `taskscale`, `store`, `faults`, or omitted for all.
//!
//! Every sweep renders its table *and* writes machine-readable
//! `BENCH_<name>.json` at the workspace root (override the directory with
//! `DD_BENCH_DIR`), so the perf trajectory is tracked in-repo.
//!
//! - `--strategy=scratch` / `--strategy=checkpointed` restricts the ABL-7
//!   table to a single row per workload (useful for CI perf smoke).
//! - `--workers=1,4` restricts the ABL-8 worker grid (default `1,2,4,8`).
//! - `--deep` restricts ABL-8 to the deep-horizon msgserver row (the CI
//!   perf-smoke configuration).

use dd_bench::{
    budget_sweep, checkpoint_sweep, emit_bench, fault_sweep, fidelity_sweep, invariant_sweep,
    scale_sweep, scaling_sweep, snapshot_cost_sweep, snapshot_store_sweep, strategy_sweep,
    task_scale_sweep, threshold_sweep, window_sweep,
};

/// Renders an optional ratio as `12.34x`, or `-` when undefined.
fn ratio(r: Option<f64>) -> String {
    match r {
        Some(r) => format!("{r:.2}x"),
        None => "-".to_owned(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".into());
    let strategy_filter: Option<String> = args
        .iter()
        .find_map(|a| a.strip_prefix("--strategy=").map(str::to_owned));
    let workers_grid: Vec<u32> = args
        .iter()
        .find_map(|a| a.strip_prefix("--workers="))
        .map(|list| {
            list.split(',')
                .map(|w| w.parse().expect("--workers takes a comma-separated list"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4, 8]);
    let deep_only = args.iter().any(|a| a == "--deep");

    if which == "threshold" || which == "all" {
        println!("ABL-1 — control-plane data-rate threshold sweep (hyperstore)");
        println!(
            "{:>12} {:>10} {:>10} {:>9} {:>6}",
            "bytes/ktick", "ctl-frac", "accuracy", "overhead", "DF"
        );
        let points = threshold_sweep(&[1.0, 16.0, 64.0, 256.0, 512.0, 1024.0, 4096.0, 1e9]);
        for p in &points {
            println!(
                "{:>12} {:>10.2} {:>7}/{:<2} {:>8.2}x {:>6.3}",
                p.threshold, p.control_fraction, p.accuracy.0, p.accuracy.1, p.overhead, p.df
            );
        }
        emit_bench("threshold", &points);
        println!();
    }
    if which == "window" || which == "all" {
        println!("ABL-2 — trigger quiet-window sweep (msgserver, lockset trigger)");
        println!("{:>8} {:>9} {:>6}", "window", "overhead", "DF");
        let points = window_sweep(&[0, 100, 500, 2_000, 10_000]);
        for p in &points {
            println!("{:>8} {:>8.2}x {:>6.3}", p.window, p.overhead, p.df);
        }
        emit_bench("window", &points);
        println!();
    }
    if which == "budget" || which == "all" {
        println!("ABL-3 — inference-budget sweep (output determinism, hyperstore)");
        println!(
            "{:>8} {:>11} {:>9} {:>8} {:>8}",
            "budget", "reproduced", "explored", "DE", "DU"
        );
        let points = budget_sweep(&[1, 2, 4, 8, 16, 64]);
        for p in &points {
            println!(
                "{:>8} {:>11} {:>9} {:>8.3} {:>8.3}",
                p.budget, p.reproduced, p.explored, p.de, p.du
            );
        }
        emit_bench("budget", &points);
        println!();
    }
    if which == "scale" || which == "all" {
        println!("ABL-5 — payload-size sweep (hyperstore): value pays per byte, RCSE does not");
        println!("{:>9} {:>9} {:>9}", "row-bytes", "value", "RCSE");
        let points = scale_sweep(&[64, 128, 256, 512, 1024]);
        for p in &points {
            println!(
                "{:>9} {:>8.2}x {:>8.2}x",
                p.row_size, p.value_overhead, p.rcse_overhead
            );
        }
        emit_bench("scale", &points);
        println!();
    }
    if which == "strategies" || which == "all" {
        println!("ABL-6 — search-strategy comparison (msgserver, bounded schedule tree)");
        println!(
            "{:>16} {:>9} {:>7} {:>9} {:>12}",
            "strategy", "executed", "pruned", "failures", "exec-ticks"
        );
        let points = strategy_sweep(2_000, 4);
        for p in &points {
            println!(
                "{:>16} {:>9} {:>7} {:>9} {:>12}",
                p.strategy, p.executed, p.pruned, p.failures, p.ticks
            );
        }
        emit_bench("strategies", &points);
        println!();
    }
    if which == "invariants" || which == "all" {
        println!("ABL-4 — invariant-training sweep (hyperstore commit_owned)");
        println!("{:>6} {:>11} {:>14}", "runs", "invariants", "commit-owned?");
        let points = invariant_sweep(&[1, 2, 4, 6]);
        for p in &points {
            println!(
                "{:>6} {:>11} {:>14}",
                p.training_runs, p.invariants, p.commit_owned_learned
            );
        }
        emit_bench("invariants", &points);
        println!();
    }
    if which == "checkpoint" || which == "all" {
        let modes: Vec<&str> = match strategy_filter.as_deref() {
            Some(m) => vec![m],
            None => vec!["scratch", "checkpointed"],
        };
        println!("ABL-7 — scratch vs checkpointed DFS (DPOR tree, all workloads)");
        println!(
            "{:>18} {:>13} {:>6} {:>7} {:>10} {:>10} {:>8} {:>8} {:>9}",
            "workload",
            "mode",
            "depth",
            "runs",
            "steps-exec",
            "steps-skip",
            "speedup",
            "wall-ms",
            "failures"
        );
        let points = checkpoint_sweep(&modes);
        for p in &points {
            println!(
                "{:>18} {:>13} {:>6} {:>7} {:>10} {:>10} {:>8} {:>8} {:>9}",
                p.workload,
                p.mode,
                p.depth,
                p.executed,
                p.steps_executed,
                p.steps_skipped,
                ratio(p.speedup),
                p.wall_ms,
                p.failures
            );
        }
        emit_bench("checkpoint", &points);
        println!();
        println!(
            "reading ABL-7: speedup = (steps-exec + steps-skip) / steps-exec ('-' = all steps"
        );
        println!(
            "inherited from snapshots, ratio unbounded). Shallow (depth-4) rows skip ~nothing —"
        );
        println!(
            "every branch point precedes the first executed operation, so there is no prefix to"
        );
        println!(
            "restore; the deep msgserver row is the regime checkpointing targets (acceptance:"
        );
        println!(">= 30% fewer kernel operations than scratch).");
    }
    if which == "scaling" || which == "all" {
        println!("ABL-8 — worker-scaling sweep (Dpor on a worker pool, scratch vs checkpointed)");
        println!(
            "{:>18} {:>13} {:>6} {:>8} {:>7} {:>7} {:>9} {:>8} {:>8}",
            "workload",
            "mode",
            "depth",
            "workers",
            "runs",
            "pruned",
            "failures",
            "wall-ms",
            "scaling"
        );
        let points = scaling_sweep(&workers_grid, deep_only);
        for p in &points {
            println!(
                "{:>18} {:>13} {:>6} {:>8} {:>7} {:>7} {:>9} {:>8} {:>8}",
                p.workload,
                p.mode,
                p.depth,
                p.workers,
                p.executed,
                p.pruned,
                p.failures,
                p.wall_ms,
                ratio(p.scaling),
            );
        }
        emit_bench("scaling", &points);
        println!();
        println!(
            "reading ABL-8: runs/pruned/failures are identical down every worker column — the"
        );
        println!(
            "parallel walk is byte-equivalent to the sequential one by construction (the sweep"
        );
        println!("panics otherwise). scaling = 1-worker wall / this wall. Scaling is bounded by");
        println!("subtree granularity: one-run trees (sum, bufoverflow) have nothing to overlap;");
        println!("shallow (depth-4) horizons overlap whole re-executions but gain no fork savings");
        println!("(no snapshot fits inside a 4-decision prefix); the deep msgserver row compounds");
        println!("both effects and is the acceptance regime (>= 1.5x at 4 workers on multicore");
        println!("hardware, re-checked by the CI perf-smoke job).");
    }
    if which == "snapshot" || which == "all" {
        println!("ABL-9 — snapshot cost: copy-on-write history sharing (per deepest snapshot)");
        println!(
            "{:>18} {:>8} {:>6} {:>6} {:>11} {:>11} {:>9} {:>9} {:>9} {:>7}",
            "row",
            "events",
            "decs",
            "snaps",
            "bytes-clone",
            "bytes-deep",
            "reduce",
            "ns-clone",
            "ns-deep",
            "shared"
        );
        let points = snapshot_cost_sweep();
        for p in &points {
            println!(
                "{:>18} {:>8} {:>6} {:>6} {:>11} {:>11} {:>8.2}x {:>9} {:>9} {:>7}",
                p.row,
                p.trace_events,
                p.decisions,
                p.snapshots,
                p.bytes_cloned,
                p.bytes_deep,
                p.reduction,
                p.ns_clone,
                p.ns_deep,
                p.shared_chunks
            );
        }
        emit_bench("snapshot_cost", &points);
        println!();
        println!(
            "reading ABL-9: bytes-clone is what one snapshot copies (hot state + chunk handles +"
        );
        println!(
            "log tails); bytes-deep is the same state under the pre-chunking O(history) clone."
        );
        println!(
            "The stretcher rows grow the trace ~64x while bytes-clone stays flat; the msgserver"
        );
        println!(
            "deep row is the gated regime (>= 2x fewer bytes, see tests/snapshot_cost_gate.rs)."
        );
        println!("Wall-clock columns are advisory on shared runners; bytes are deterministic.");
    }
    if which == "fidelity" || which == "all" {
        println!("ABL-10 — recording-fidelity sweep (every model, all four workloads)");
        println!(
            "{:>18} {:>14} {:>9} {:>9} {:>7} {:>7} {:>7} {:>10}",
            "workload", "model", "bytes", "overhead", "DF", "DE", "DU", "satisfied"
        );
        let points = fidelity_sweep(&dd_core::InferenceBudget::executions(2_000));
        for p in &points {
            println!(
                "{:>18} {:>14} {:>9} {:>8.2}x {:>7.3} {:>7.3} {:>7.3} {:>10}",
                p.workload,
                p.model.to_string(),
                p.bytes,
                p.overhead,
                p.df,
                p.de,
                p.du,
                p.satisfied
            );
        }
        emit_bench("fidelity", &points);
        println!();
        println!("reading ABL-10: bytes is the recorded log volume for the production incident.");
        println!("msg-order logs the total grant order (RLE) — replay-exact everywhere, and far");
        println!("cheaper than value determinism on the message-passing workloads; race-complete");
        println!("logs only the racing fraction plus the dd-detect report — never more bytes than");
        println!("perfect, same failure set.");
        println!();
    }
    if which == "taskscale" || which == "all" {
        println!("ABL-11 — task-count scaling (coroutine engine)");
        println!(
            "{:>28} {:>9} {:>9} {:>8} {:>10} {:>12} {:>9}",
            "row", "tasks", "steps", "wall-ms", "completed", "baseline-ms", "speedup"
        );
        let points = task_scale_sweep(&[1_000, 10_000, 100_000]);
        for p in &points {
            println!(
                "{:>28} {:>9} {:>9} {:>8} {:>10} {:>12} {:>9}",
                p.row,
                p.tasks,
                p.steps,
                p.wall_ms,
                p.completed,
                p.baseline_wall_ms
                    .map_or_else(|| "-".to_owned(), |b| b.to_string()),
                ratio(p.speedup_vs_baseline),
            );
        }
        emit_bench("taskscale", &points);
        println!();
        println!("reading ABL-11: spawn-storm rows pin the max-task-count curve — tasks are heap");
        println!("state machines, so 10^5 of them complete where thread-per-task ran out of OS");
        println!(
            "handles; near-linear wall-ms across the curve also checks the O(live) scheduling"
        );
        println!("scan. The deep-msgserver row re-times the ABL-7 deep checkpointed walk against");
        println!("the committed thread-engine baseline (acceptance: >= 1.5x on a single core,");
        println!("re-checked by the CI perf-smoke wall-clock gate).");
    }
    if which == "store" || which == "all" {
        println!("ABL-12 — persistent snapshot store (spill-to-disk, deep msgserver)");
        println!(
            "{:>30} {:>6} {:>7} {:>10} {:>11} {:>7} {:>6} {:>7} {:>10} {:>10} {:>10}",
            "row",
            "decs",
            "stored",
            "disk-B",
            "full-B",
            "delta",
            "bound",
            "meas-D",
            "restore-ns",
            "warm-ns",
            "scratch-ns"
        );
        let points = snapshot_store_sweep();
        for p in &points {
            println!(
                "{:>30} {:>6} {:>7} {:>10} {:>11} {:>6.2}x {:>6} {:>7} {:>10} {:>10} {:>10}",
                p.row,
                p.decisions,
                p.stored,
                p.disk_bytes,
                p.full_bytes,
                p.delta,
                p.bound,
                p.measured_bound,
                p.restore_ns,
                p.warm_ns,
                p.scratch_ns
            );
        }
        emit_bench("snapshot_store", &points);
        println!();
        println!("reading ABL-12: disk-B is the store's on-disk footprint with content-addressed");
        println!("chunk sharing; full-B prices every stored snapshot standalone — the delta");
        println!("column is what delta encoding saves. meas-D is the worst replay distance");
        println!("anywhere in the run recomputed from the cold index and must stay <= bound");
        println!("(property-tested in dd-trace). warm-ns restores the mid-run snapshot and");
        println!("fast-forwards the rest (`dd replay --from`, digest-identical to scratch);");
        println!("scratch-ns replays from zero. At simulator scale the cold JSON decode can");
        println!("outweigh re-executing a few hundred decisions, so wall columns are advisory;");
        println!("the deterministic win is the restored (never re-executed) prefix.");
    }
    if which == "faults" || which == "all" {
        println!("ABL-13 — fault grid (failover hyperstore, both builds, 8 seeds/cell)");
        println!(
            "{:>16} {:>16} {:>6} {:>7} {:>9} {:>9} {:>9} {:>8} {:>9} {:>8}",
            "build",
            "schedule",
            "seeds",
            "failed",
            "rows-miss",
            "ranges-un",
            "lost-rows",
            "crashes",
            "restarts",
            "wall-ms"
        );
        let points = fault_sweep(8);
        for p in &points {
            println!(
                "{:>16} {:>16} {:>6} {:>7} {:>9} {:>9} {:>9} {:>8} {:>9} {:>8}",
                p.build,
                p.schedule,
                p.seeds,
                p.failed,
                p.rows_missing,
                p.ranges_unavailable,
                p.lost_rows,
                p.crashes,
                p.restarts,
                p.wall_ms
            );
        }
        emit_bench("hyperstore_faults", &points);
        println!();
        println!("reading ABL-13: the fixed build's rows-miss column is zero on every schedule —");
        println!("synchronous commit-log shipping never loses an acknowledged row — while the");
        println!("buggy build's crash rows reproduce the lost-suffix failure (non-zero lost-rows");
        println!("witness). Non-crash rows keep both builds honest: a partition that heals before");
        println!("the first migration only delays shipping, and a restarted server recovers its");
        println!("index from the commit log and rejoins. The crashes/restarts columns prove each");
        println!("schedule actually fired; every cell is input nondeterminism and replays");
        println!("byte-identically (see tests/determinism_regression.rs).");
    }
}
