//! Regenerates the ablation studies (ABL-1 … ABL-13, ABL-8 retired; README
//! "Regenerating the figures").
//!
//! Usage: `cargo run --release --bin repro-ablations [-- <which>]` where
//! `<which>` is one of `threshold`, `window`, `budget`, `scale`,
//! `strategies`, `invariants`, `checkpoint`, `snapshot`, `fidelity`,
//! `taskscale`, `store`, `faults`, or `all` (the default). Any other
//! argument exits 3, `dd`'s usage status, without running anything.
//!
//! Every sweep renders its table *and* writes machine-readable
//! `BENCH_<name>.json` at the workspace root, so the numbers are tracked
//! in-repo.

use dd_bench::{
    budget_sweep, checkpoint_sweep, emit_bench, fault_sweep, fidelity_sweep, invariant_sweep,
    scale_sweep, snapshot_cost_sweep, snapshot_store_sweep, strategy_sweep, task_scale_sweep,
    threshold_sweep, window_sweep,
};

/// The sweeps `repro-ablations` accepts by name, in run order.
const SWEEPS: [&str; 12] = [
    "threshold",
    "window",
    "budget",
    "scale",
    "strategies",
    "invariants",
    "checkpoint",
    "snapshot",
    "fidelity",
    "taskscale",
    "store",
    "faults",
];

/// Renders an optional ratio as `12.34x`, or `-` when undefined.
fn ratio(r: Option<f64>) -> String {
    match r {
        Some(r) => format!("{r:.2}x"),
        None => "-".to_owned(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = match args.as_slice() {
        [] => "all",
        [w] if w == "all" || SWEEPS.contains(&w.as_str()) => w.as_str(),
        _ => {
            eprintln!("usage: repro-ablations [all|{}]", SWEEPS.join("|"));
            std::process::exit(3);
        }
    };
    let run = |name: &str| which == "all" || which == name;

    if run("threshold") {
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
    if run("window") {
        println!("ABL-2 — trigger quiet-window sweep (msgserver, lockset trigger)");
        println!("{:>8} {:>9} {:>6}", "window", "overhead", "DF");
        let points = window_sweep(&[0, 100, 500, 2_000, 10_000]);
        for p in &points {
            println!("{:>8} {:>8.2}x {:>6.3}", p.window, p.overhead, p.df);
        }
        emit_bench("window", &points);
        println!();
    }
    if run("budget") {
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
    if run("scale") {
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
    if run("strategies") {
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
    if run("invariants") {
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
    if run("checkpoint") {
        println!("ABL-7 — scratch vs checkpointed DFS (DPOR tree, all workloads)");
        println!(
            "{:>18} {:>13} {:>6} {:>7} {:>7} {:>10} {:>10} {:>8} {:>9}",
            "workload",
            "mode",
            "depth",
            "runs",
            "pruned",
            "steps-exec",
            "steps-skip",
            "speedup",
            "failures"
        );
        let points = checkpoint_sweep();
        for p in &points {
            println!(
                "{:>18} {:>13} {:>6} {:>7} {:>7} {:>10} {:>10} {:>8} {:>9}",
                p.workload,
                p.mode,
                p.depth,
                p.executed,
                p.pruned,
                p.steps_executed,
                p.steps_skipped,
                ratio(p.speedup),
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
    if run("snapshot") {
        println!("ABL-9 — snapshot cost: copy-on-write history sharing (per deepest snapshot)");
        println!(
            "{:>18} {:>8} {:>6} {:>6} {:>11} {:>11} {:>9} {:>7}",
            "row", "events", "decs", "snaps", "bytes-clone", "bytes-deep", "reduce", "shared"
        );
        let points = snapshot_cost_sweep();
        for p in &points {
            println!(
                "{:>18} {:>8} {:>6} {:>6} {:>11} {:>11} {:>8.2}x {:>7}",
                p.row,
                p.trace_events,
                p.decisions,
                p.snapshots,
                p.bytes_cloned,
                p.bytes_deep,
                p.reduction,
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
    }
    if run("fidelity") {
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
    if run("taskscale") {
        println!("ABL-11 — task-count scaling (coroutine engine, spawn storms)");
        println!("{:>9} {:>9} {:>10}", "tasks", "steps", "completed");
        let points = task_scale_sweep(&[1_000, 10_000, 100_000]);
        for p in &points {
            println!("{:>9} {:>9} {:>10}", p.tasks, p.steps, p.completed);
        }
        emit_bench("taskscale", &points);
        println!();
        println!("reading ABL-11: the rows pin the max-task-count curve — tasks are heap state");
        println!("machines, so 10^5 of them complete where thread-per-task ran out of OS handles.");
        println!("tests/task_scale_gate.rs times the same storms to check the curve stays");
        println!("near-linear (the O(live) scheduling scan).");
    }
    if run("store") {
        println!("ABL-12 — persistent snapshot store (spill-to-disk, deep msgserver)");
        println!(
            "{:>30} {:>6} {:>7} {:>10} {:>11} {:>7} {:>6} {:>7} {:>10}",
            "row", "decs", "stored", "disk-B", "full-B", "delta", "bound", "meas-D", "warm-from"
        );
        let points = snapshot_store_sweep();
        for p in &points {
            println!(
                "{:>30} {:>6} {:>7} {:>10} {:>11} {:>6.2}x {:>6} {:>7} {:>10}",
                p.row,
                p.decisions,
                p.stored,
                p.disk_bytes,
                p.full_bytes,
                p.delta,
                p.bound,
                p.measured_bound,
                p.warm_from
            );
        }
        emit_bench("snapshot_store", &points);
        println!();
        println!("reading ABL-12: disk-B is the store's on-disk footprint with content-addressed");
        println!("chunk sharing; full-B prices every stored snapshot standalone — the delta");
        println!("column is what delta encoding saves. meas-D is the worst replay distance");
        println!("anywhere in the run recomputed from the cold index and must stay <= bound");
        println!("(property-tested in dd-trace). warm-from is the mid-run snapshot that");
        println!("`dd replay --from` restores; the replay from there is digest-identical to a");
        println!("scratch replay, and the prefix before it is never re-executed. ddbench's");
        println!("spill-restore workload measures what the restore costs in time.");
    }
    if run("faults") {
        println!("ABL-13 — fault grid (failover hyperstore, both builds, 8 seeds/cell)");
        println!(
            "{:>16} {:>16} {:>6} {:>7} {:>9} {:>9} {:>9} {:>8} {:>9}",
            "build",
            "schedule",
            "seeds",
            "failed",
            "rows-miss",
            "ranges-un",
            "lost-rows",
            "crashes",
            "restarts"
        );
        let points = fault_sweep(8);
        for p in &points {
            println!(
                "{:>16} {:>16} {:>6} {:>7} {:>9} {:>9} {:>9} {:>8} {:>9}",
                p.build,
                p.schedule,
                p.seeds,
                p.failed,
                p.rows_missing,
                p.ranges_unavailable,
                p.lost_rows,
                p.crashes,
                p.restarts
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
