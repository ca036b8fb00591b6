//! Ablation studies for the design knobs §3.1 calls out.
//!
//! - [`threshold_sweep`] (ABL-1): how the control-plane data-rate threshold
//!   trades recording overhead against fidelity and classifier accuracy.
//! - [`window_sweep`] (ABL-2): how the trigger quiet window (dial-down
//!   policy) trades overhead against fidelity.
//! - [`budget_sweep`] (ABL-3): how inference budget buys debugging
//!   efficiency for the ultra-relaxed models.
//! - [`invariant_sweep`] (ABL-4): how many training runs data-based
//!   selection needs before the learned invariants catch the error path.
//! - [`strategy_sweep`] (ABL-6): how the search strategies compare on the
//!   msgserver race — interleavings executed vs pruned, failures found.
//! - [`checkpoint_sweep`] (ABL-7): what checkpointed (fork-based) DFS saves
//!   over from-scratch DFS — kernel operations executed vs skipped via
//!   snapshot restore, and wall time — on all four workloads.
//! - [`scaling_sweep`] (ABL-8): how the multi-worker explorer scales with
//!   worker count — identical walks, wall-clock only — scratch vs
//!   checkpointed, shallow vs deep horizons.
//! - [`fidelity_sweep`] (ABL-10): the recording-cost axis — every
//!   determinism model on every workload, reporting bytes recorded and
//!   DF/DE/DU, with the two order-logging fidelities (message-order and
//!   race-complete) placed between value and perfect determinism.
//! - [`task_scale_sweep`] (ABL-11): task-count scaling of the coroutine
//!   engine — the max-task-count spawn-storm curve plus the deep-msgserver
//!   checkpointed-DFS wall clock against the thread-engine baseline.
//! - [`fault_sweep`] (ABL-13): the fault grid — both failover hyperstore
//!   builds under every candidate fault schedule; the fixed build must
//!   never lose an acknowledged row.

use dd_core::{InferenceBudget, ModelKind, OutputLiteModel, RcseConfig, Session, Workload};
use dd_hyperstore::{HyperConfig, HyperstoreWorkload};
use dd_replay::{enumerate_failures, SearchStrategy};
use dd_workloads::{BufOverflowWorkload, MsgServerConfig, MsgServerWorkload, SumWorkload};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One classifier-threshold sweep point (ABL-1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdPoint {
    /// Data-rate threshold (bytes per kilotick).
    pub threshold: f64,
    /// Fraction of sites classified control-plane.
    pub control_fraction: f64,
    /// Classifier accuracy against workload ground truth `(correct, total)`.
    pub accuracy: (usize, usize),
    /// RCSE recording overhead at this threshold.
    pub overhead: f64,
    /// Debugging fidelity at this threshold.
    pub df: f64,
}

/// ABL-1: control-plane threshold sweep on the issue-63 workload.
pub fn threshold_sweep(thresholds: &[f64]) -> Vec<ThresholdPoint> {
    let w: Arc<dyn Workload> = Arc::new(
        HyperstoreWorkload::discover(HyperConfig::default(), 200).expect("hyperstore failing seed"),
    );
    let truth = w.plane_truth();
    thresholds
        .iter()
        .map(|&t| {
            let session = Session::new(w.clone())
                .with_executions(1)
                .with_recording(RcseConfig {
                    classifier_threshold: t,
                    use_triggers: false,
                    ..RcseConfig::default()
                });
            let model = session.debug_model();
            let plane_map = model.training().plane_map.clone();
            let (report, _, _) = session.evaluate(&model);
            ThresholdPoint {
                threshold: t,
                control_fraction: plane_map.control_fraction(),
                accuracy: plane_map.accuracy(&truth),
                overhead: report.overhead_factor,
                df: report.utility.fidelity.df,
            }
        })
        .collect()
}

/// One quiet-window sweep point (ABL-2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowPoint {
    /// Quiet window in ticks (trigger dial-down delay).
    pub window: u64,
    /// RCSE recording overhead.
    pub overhead: f64,
    /// Debugging fidelity.
    pub df: f64,
}

/// ABL-2: trigger quiet-window sweep on the message server (combined
/// code/data selection with the lockset trigger armed).
pub fn window_sweep(windows: &[u64]) -> Vec<WindowPoint> {
    let w: Arc<dyn Workload> = Arc::new(
        MsgServerWorkload::discover(MsgServerConfig::default(), 64)
            .expect("msgserver failing seed"),
    );
    windows
        .iter()
        .map(|&window| {
            let session = Session::new(w.clone())
                .with_executions(1)
                .with_recording(RcseConfig {
                    quiet_window: window,
                    ..RcseConfig::default()
                });
            let model = session.debug_model();
            let (report, _, _) = session.evaluate(&model);
            WindowPoint {
                window,
                overhead: report.overhead_factor,
                df: report.utility.fidelity.df,
            }
        })
        .collect()
}

/// One inference-budget sweep point (ABL-3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetPoint {
    /// Budget in candidate executions.
    pub budget: u64,
    /// Whether the failure was reproduced within budget.
    pub reproduced: bool,
    /// Executions actually explored.
    pub explored: u64,
    /// Debugging efficiency.
    pub de: f64,
    /// Debugging utility.
    pub du: f64,
}

/// ABL-3: inference-budget sweep for output determinism on issue 63.
///
/// Output-deterministic inference must find an execution whose *entire*
/// observable output matches the log — the search-hardest acceptance test,
/// and the model the paper warns can need "prohibitively large post-factum
/// analysis times".
pub fn budget_sweep(budgets: &[u64]) -> Vec<BudgetPoint> {
    let w: Arc<dyn Workload> = Arc::new(
        HyperstoreWorkload::discover(HyperConfig::default(), 200).expect("hyperstore failing seed"),
    );
    budgets
        .iter()
        .map(|&b| {
            let session = Session::new(w.clone()).with_executions(b);
            let (report, _, replay) = session.evaluate(&OutputLiteModel);
            BudgetPoint {
                budget: b,
                reproduced: replay.reproduced_failure,
                explored: replay.inference.explored,
                de: report.utility.de,
                du: report.utility.du,
            }
        })
        .collect()
}

/// One payload-scale sweep point (ABL-5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Row payload size in bytes.
    pub row_size: u32,
    /// Value-determinism recording overhead.
    pub value_overhead: f64,
    /// RCSE recording overhead.
    pub rcse_overhead: f64,
}

/// ABL-5: payload-size sweep on the issue-63 workload — the core
/// control/data-plane claim quantified: value determinism pays per data
/// byte, RCSE does not.
pub fn scale_sweep(row_sizes: &[u32]) -> Vec<ScalePoint> {
    row_sizes
        .iter()
        .filter_map(|&row_size| {
            let cfg = HyperConfig {
                row_size,
                ..HyperConfig::default()
            };
            let w = HyperstoreWorkload::discover(cfg, 200)?;
            let session = Session::new(Arc::new(w))
                .with_executions(1)
                .with_recording(RcseConfig {
                    use_triggers: false,
                    ..RcseConfig::default()
                });
            let (value, _, _) = session.evaluate(&dd_core::ValueModel);
            let rcse = session.debug_model();
            let (debug, _, _) = session.evaluate(&rcse);
            Some(ScalePoint {
                row_size,
                value_overhead: value.overhead_factor,
                rcse_overhead: debug.overhead_factor,
            })
        })
        .collect()
}

/// One search-strategy sweep point (ABL-6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyPoint {
    /// Strategy label.
    pub strategy: String,
    /// Interleavings actually executed.
    pub executed: u64,
    /// Sibling branches identified and skipped (systematic strategies).
    pub pruned: u64,
    /// Distinct failure ids found.
    pub failures: usize,
    /// Execution ticks spent across all executed interleavings.
    pub ticks: u64,
}

/// ABL-6: search-strategy comparison on the msgserver production incident.
///
/// Exhaustive enumeration is the ground truth for the bounded tree; DPOR
/// must match its failure set while executing a fraction of the
/// interleavings (the `repro-ablations` table CI's conformance suite pins
/// at ≤ 50%); random and PCT show what the same budget buys without
/// systematic coverage.
pub fn strategy_sweep(budget_executions: u64, max_depth: u32) -> Vec<StrategyPoint> {
    let w = MsgServerWorkload::discover(MsgServerConfig::default(), 64)
        .expect("msgserver failing seed");
    let scenario = w.scenario();
    let budget = InferenceBudget::executions(budget_executions);
    [
        ("random".to_owned(), SearchStrategy::Random),
        (
            "pct(d=3)".to_owned(),
            SearchStrategy::Pct {
                expected_len: 200,
                depth: 3,
            },
        ),
        (
            format!("exhaustive(d={max_depth})"),
            SearchStrategy::Exhaustive { max_depth },
        ),
        (
            format!("dpor(d={max_depth})"),
            SearchStrategy::Dpor { max_depth },
        ),
    ]
    .into_iter()
    .map(|(label, strategy)| {
        let (failures, stats) = enumerate_failures(&scenario, &budget, strategy);
        StrategyPoint {
            strategy: label,
            executed: stats.explored,
            pruned: stats.pruned,
            failures: failures.len(),
            ticks: stats.ticks,
        }
    })
    .collect()
}

/// One scratch-vs-checkpointed sweep point (ABL-7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointPoint {
    /// Workload name.
    pub workload: String,
    /// `"scratch"` or `"checkpointed"`.
    pub mode: String,
    /// Branching-depth bound of the DFS.
    pub depth: u32,
    /// Interleavings executed.
    pub executed: u64,
    /// Kernel operations executed.
    pub steps_executed: u64,
    /// Kernel operations skipped via snapshot restore.
    pub steps_skipped: u64,
    /// `(executed + skipped) / executed` — `Some(1.0)` for scratch, `None`
    /// when every kernel operation was inherited from snapshots (the ratio
    /// is unbounded; rendered as `-`).
    pub speedup: Option<f64>,
    /// Host wall-clock milliseconds for the whole walk.
    pub wall_ms: u64,
    /// Distinct failure ids found (must match between modes).
    pub failures: usize,
}

/// ABL-7: scratch vs checkpointed DFS on all four workloads.
///
/// Both modes walk the identical DPOR-reduced schedule tree and must
/// return byte-identical failure sets; the table shows what snapshot
/// restore saves. Two regimes per the fork-based-DFS cost model:
///
/// - *Shallow* horizons (the depth-4 rows): every branch point sits in the
///   run's first few scheduling decisions, before the program has executed
///   anything — there is simply no prefix work to skip, for any
///   implementation. The rows are kept to make that visible.
/// - *Deep* horizons (the msgserver deep row): a budget-capped DFS spends
///   its budget near the horizon, so restored prefixes carry a large share
///   of each run — this is where checkpointing pays (the acceptance gate:
///   ≥ 30 % fewer kernel operations than scratch).
///
/// `modes` filters rows (`["scratch", "checkpointed"]` runs both).
pub fn checkpoint_sweep(modes: &[&str]) -> Vec<CheckpointPoint> {
    let workloads: Vec<(Box<dyn Workload>, u32, u64)> = vec![
        (Box::new(SumWorkload), 4, 1_000),
        (
            Box::new(
                MsgServerWorkload::discover(MsgServerConfig::default(), 64)
                    .expect("msgserver failing seed"),
            ),
            4,
            1_000,
        ),
        (Box::new(BufOverflowWorkload), 4, 1_000),
        (
            Box::new(
                HyperstoreWorkload::discover(HyperConfig::default(), 200)
                    .expect("hyperstore failing seed"),
            ),
            4,
            1_000,
        ),
        // The deep-horizon regime where restored prefixes dominate.
        (
            Box::new(
                MsgServerWorkload::discover(MsgServerConfig::default(), 64)
                    .expect("msgserver failing seed"),
            ),
            256,
            150,
        ),
    ];
    let mut points = Vec::new();
    for (w, depth, budget_n) in &workloads {
        let scenario = w.scenario();
        let strategy = SearchStrategy::Dpor { max_depth: *depth };
        for &mode in modes {
            let budget = match mode {
                "scratch" => InferenceBudget::executions(*budget_n),
                "checkpointed" => InferenceBudget::executions(*budget_n)
                    .with_checkpoints(InferenceBudget::DEFAULT_CHECKPOINT_INTERVAL),
                other => panic!("unknown ABL-7 mode {other:?} (scratch|checkpointed)"),
            };
            let t0 = std::time::Instant::now();
            let (failures, stats) = enumerate_failures(&scenario, &budget, strategy);
            points.push(CheckpointPoint {
                workload: w.name().to_owned(),
                mode: mode.to_owned(),
                depth: *depth,
                executed: stats.explored,
                steps_executed: stats.steps_executed,
                steps_skipped: stats.steps_skipped,
                speedup: stats.replay_speedup(),
                wall_ms: t0.elapsed().as_millis() as u64,
                failures: failures.len(),
            });
        }
    }
    points
}

/// One worker-scaling sweep point (ABL-8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Workload name.
    pub workload: String,
    /// `"scratch"` or `"checkpointed"`.
    pub mode: String,
    /// Branching-depth bound of the DFS.
    pub depth: u32,
    /// Worker threads the parallel explorer used (`1` = the sequential
    /// coordinator path).
    pub workers: u32,
    /// Interleavings executed (identical across worker counts).
    pub executed: u64,
    /// Branches pruned by DPOR (identical across worker counts).
    pub pruned: u64,
    /// Distinct failure ids found (identical across worker counts).
    pub failures: usize,
    /// Host wall-clock milliseconds for the whole walk.
    pub wall_ms: u64,
    /// Wall-clock scaling vs this row's 1-worker cell — `None` when the
    /// sweep did not include `workers = 1`.
    pub scaling: Option<f64>,
}

/// ABL-8: worker-scaling sweep — `SearchStrategy::Dpor` on a budget of
/// 1/2/4/8 workers, scratch vs checkpointed, on all four workloads plus the
/// deep-horizon msgserver row.
///
/// The determinism contract makes the table three-quarters boring on
/// purpose: `executed`, `pruned` and `failures` must be identical down
/// every worker column (the sweep panics if they are not — the same
/// property CI's `determinism-matrix` job and the parallel-determinism
/// proptests gate), so the only number that moves is wall-clock. Expect
/// the deep msgserver row to scale and the shallow depth-4 rows not to:
/// with every branch point in a run's first few decisions, the next branch
/// is only discovered by executing the previous run — a serial chain no
/// worker pool can shorten (subtree granularity; see README "Parallel
/// exploration").
///
/// `deep_only` restricts the sweep to the deep-horizon msgserver row (the
/// CI perf-smoke configuration).
pub fn scaling_sweep(workers_list: &[u32], deep_only: bool) -> Vec<ScalingPoint> {
    let mut workloads: Vec<(Box<dyn Workload>, u32, u64)> = Vec::new();
    if !deep_only {
        workloads.push((Box::new(SumWorkload), 4, 1_000));
        workloads.push((
            Box::new(
                MsgServerWorkload::discover(MsgServerConfig::default(), 64)
                    .expect("msgserver failing seed"),
            ),
            4,
            1_000,
        ));
        workloads.push((Box::new(BufOverflowWorkload), 4, 1_000));
        workloads.push((
            Box::new(
                HyperstoreWorkload::discover(HyperConfig::default(), 200)
                    .expect("hyperstore failing seed"),
            ),
            4,
            1_000,
        ));
    }
    // The deep-horizon regime where independent subtrees dominate.
    workloads.push((
        Box::new(
            MsgServerWorkload::discover(MsgServerConfig::default(), 64)
                .expect("msgserver failing seed"),
        ),
        256,
        150,
    ));

    let mut points = Vec::new();
    for (w, depth, budget_n) in &workloads {
        let scenario = w.scenario();
        for mode in ["scratch", "checkpointed"] {
            let budget = match mode {
                "scratch" => InferenceBudget::executions(*budget_n),
                _ => InferenceBudget::executions(*budget_n)
                    .with_checkpoints(InferenceBudget::DEFAULT_CHECKPOINT_INTERVAL),
            };
            let mut base_wall: Option<std::time::Duration> = None;
            let mut base_results: Option<(std::collections::BTreeSet<String>, u64, u64)> = None;
            for &workers in workers_list {
                let strategy = SearchStrategy::Dpor { max_depth: *depth };
                let t0 = std::time::Instant::now();
                let (failures, stats) =
                    enumerate_failures(&scenario, &budget.with_workers(workers), strategy);
                let wall = t0.elapsed();
                match &base_results {
                    None => base_results = Some((failures.clone(), stats.explored, stats.pruned)),
                    Some((f, e, p)) => assert!(
                        *f == failures && *e == stats.explored && *p == stats.pruned,
                        "{} / {mode}: {workers}-worker walk diverged from the \
                         {}-worker walk — the determinism contract is broken",
                        w.name(),
                        workers_list[0],
                    ),
                }
                if workers == 1 {
                    base_wall = Some(wall);
                }
                points.push(ScalingPoint {
                    workload: w.name().to_owned(),
                    mode: mode.to_owned(),
                    depth: *depth,
                    workers,
                    executed: stats.explored,
                    pruned: stats.pruned,
                    failures: failures.len(),
                    wall_ms: wall.as_millis() as u64,
                    // Ratio of full-precision durations: sub-millisecond
                    // rows must not collapse to a 0.00x baseline.
                    scaling: base_wall.map(|b| b.as_secs_f64() / wall.as_secs_f64().max(1e-9)),
                });
            }
        }
    }
    points
}

/// One recording-fidelity sweep point (ABL-10).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FidelityPoint {
    /// Workload name.
    pub workload: String,
    /// Determinism model.
    pub model: ModelKind,
    /// Log bytes recorded for the production incident.
    pub bytes: u64,
    /// Recording overhead factor.
    pub overhead: f64,
    /// Debugging fidelity.
    pub df: f64,
    /// Debugging efficiency.
    pub de: f64,
    /// Debugging utility.
    pub du: f64,
    /// Whether the artifact's constraints held on the replayed execution.
    pub satisfied: bool,
}

/// ABL-10: the recording-cost axis — every determinism model on all four
/// workloads.
///
/// The table pins the lattice placement of the two order-logging
/// fidelities: message-order determinism records strictly fewer bytes than
/// value determinism everywhere (it logs *who ran*, never *what they
/// read*), and race-complete determinism records no more than perfect
/// determinism (it logs only the racing fraction of the order, plus the
/// dd-detect race report) while still reproducing every workload's
/// failure.
pub fn fidelity_sweep(budget: &InferenceBudget) -> Vec<FidelityPoint> {
    let workloads: Vec<Arc<dyn Workload>> = vec![
        Arc::new(SumWorkload),
        Arc::new(
            MsgServerWorkload::discover(MsgServerConfig::default(), 64)
                .expect("msgserver failing seed"),
        ),
        Arc::new(BufOverflowWorkload),
        Arc::new(
            HyperstoreWorkload::discover(HyperConfig::default(), 200)
                .expect("hyperstore failing seed"),
        ),
    ];
    let kinds = [
        ModelKind::Perfect,
        ModelKind::MsgOrder,
        ModelKind::Value,
        ModelKind::RaceComplete,
        ModelKind::OutputHeavy,
        ModelKind::OutputLite,
        ModelKind::Failure,
        ModelKind::Debug,
    ];
    let mut points = Vec::new();
    for w in workloads {
        let session = Session::new(w)
            .with_budget(*budget)
            .with_recording(RcseConfig {
                use_triggers: false,
                ..RcseConfig::default()
            });
        for kind in kinds {
            let model = session.model(kind);
            let (report, _, _) = session.evaluate(model.as_ref());
            points.push(FidelityPoint {
                workload: report.workload.clone(),
                model: kind,
                bytes: report.log.bytes,
                overhead: report.overhead_factor,
                df: report.utility.fidelity.df,
                de: report.utility.de,
                du: report.utility.du,
                satisfied: report.artifact_satisfied,
            });
        }
    }
    points
}

/// One invariant-training sweep point (ABL-4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvariantPoint {
    /// Passing training runs used.
    pub training_runs: usize,
    /// Invariants learned.
    pub invariants: usize,
    /// Whether the `commit_owned` invariant was learned as constant-true.
    pub commit_owned_learned: bool,
}

/// ABL-4: invariant-inference training sweep on issue 63 (data-based
/// selection, §3.1.2): how many passing runs before the "commits are
/// always owned" invariant is learned.
pub fn invariant_sweep(run_counts: &[usize]) -> Vec<InvariantPoint> {
    let w: Arc<dyn Workload> = Arc::new(
        HyperstoreWorkload::discover(HyperConfig::default(), 200).expect("hyperstore failing seed"),
    );
    run_counts
        .iter()
        .map(|&n| {
            let session = Session::new(w.clone())
                .with_training_runs(n)
                .with_recording(RcseConfig {
                    train_invariants: true,
                    ..RcseConfig::default()
                });
            let training = session.train();
            let invs = training.invariants.as_ref().expect("invariants enabled");
            let commit_owned = invs
                .get("hyperstore.commit_owned")
                .is_some_and(|inv| !inv.holds(&dd_sim::Value::Bool(false)));
            InvariantPoint {
                training_runs: n,
                invariants: invs.len(),
                commit_owned_learned: commit_owned,
            }
        })
        .collect()
}

/// One task-scale sweep point (ABL-11).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskScalePoint {
    /// Row name: `spawn-storm` or `deep-msgserver-checkpointed`.
    pub row: String,
    /// Tasks spawned over the run's lifetime (storm rows) or the DFS
    /// interleaving budget (the msgserver row).
    pub tasks: u64,
    /// Scheduling decisions taken (storm rows) or kernel operations
    /// executed (the msgserver row).
    pub steps: u64,
    /// Host wall-clock milliseconds.
    pub wall_ms: u64,
    /// The run reached its natural end (quiescence / budget exhausted)
    /// without hitting a ceiling.
    pub completed: bool,
    /// Committed thread-per-task-engine wall clock for the same
    /// configuration, where one exists (the msgserver row).
    pub baseline_wall_ms: Option<u64>,
    /// `baseline_wall_ms / wall_ms` — how much faster the coroutine
    /// engine drives the identical walk.
    pub speedup_vs_baseline: Option<f64>,
}

/// Deep-msgserver checkpointed-DFS wall clock recorded by the
/// thread-per-task engine (the pre-coroutine `BENCH_checkpoint.json`
/// baseline: depth-256 DPOR, 150-execution budget, default checkpoint
/// interval, single worker). ABL-11's acceptance gate holds the coroutine
/// engine to ≥ 1.5× faster on this exact walk.
pub const THREAD_ENGINE_DEEP_MSGSERVER_WALL_MS: u64 = 439;

/// A root task that spawns `n` trivially-exiting children — the maximal
/// spawn-churn stress for the engine's task table and live-task list.
struct SpawnStorm {
    n: u32,
}

impl dd_sim::Program for SpawnStorm {
    fn name(&self) -> &'static str {
        "spawn_storm"
    }

    fn setup(&self, b: &mut dd_sim::Builder<'_>) {
        let n = self.n;
        let spawned = b.out_port("spawned");
        b.spawn("root", "g", move |mut ctx| async move {
            let mut ok = 0i64;
            for i in 0..n {
                ctx.spawn(&format!("w{i}"), "g", move |_ctx| async move { Ok(()) })
                    .await?;
                ok += 1;
            }
            ctx.output(spawned, ok, "root::spawned").await
        });
    }
}

/// ABL-11: task-count scaling of the coroutine engine.
///
/// Two claims, one table:
///
/// - *Max-task-count curve* (`spawn-storm` rows): tasks are heap-allocated
///   state machines, so a run can own 10^5 of them — two orders of
///   magnitude past where the thread-per-task engine exhausted OS thread
///   handles. Near-linear `wall_ms` across the curve also pins the
///   driver's O(live)-per-step scheduling scan (a quadratic regression
///   shows up as a bent curve long before it times anything out).
/// - *Deep-msgserver row*: the ABL-7 deep checkpointed walk (the regime
///   snapshot restore targets), timed under the coroutine engine and
///   compared against the committed thread-engine baseline
///   ([`THREAD_ENGINE_DEEP_MSGSERVER_WALL_MS`]). Same schedule tree, same
///   failure set — the delta is pure engine overhead: no thread spawns,
///   no parking handshakes, no re-attachment on snapshot restore.
pub fn task_scale_sweep(storm_sizes: &[u32]) -> Vec<TaskScalePoint> {
    let mut points = Vec::new();
    for &n in storm_sizes {
        let cfg = dd_sim::RunConfig {
            max_steps: (n as u64 + 2) * 4,
            ..dd_sim::RunConfig::with_seed(7)
        };
        let t0 = std::time::Instant::now();
        let out = dd_sim::run_program(
            &SpawnStorm { n },
            cfg,
            Box::new(dd_sim::RandomPolicy::new(7)),
            vec![],
        );
        let wall_ms = t0.elapsed().as_millis() as u64;
        let spawned = out
            .io
            .outputs_on("spawned")
            .first()
            .and_then(|v| v.as_int())
            .unwrap_or(0);
        points.push(TaskScalePoint {
            row: "spawn-storm".to_owned(),
            tasks: n as u64,
            steps: out.decisions.len() as u64,
            wall_ms,
            completed: out.stop == dd_sim::StopReason::Quiescent
                && spawned == i64::from(n)
                && out.io.crashes.is_empty(),
            baseline_wall_ms: None,
            speedup_vs_baseline: None,
        });
    }

    // The ABL-7 deep regime, checkpointed mode, single worker.
    let w = MsgServerWorkload::discover(MsgServerConfig::default(), 64)
        .expect("msgserver failing seed");
    let scenario = w.scenario();
    let budget = InferenceBudget::executions(150)
        .with_checkpoints(InferenceBudget::DEFAULT_CHECKPOINT_INTERVAL);
    let strategy = SearchStrategy::Dpor { max_depth: 256 };
    let t0 = std::time::Instant::now();
    let (failures, stats) = enumerate_failures(&scenario, &budget, strategy);
    let wall_ms = t0.elapsed().as_millis() as u64;
    points.push(TaskScalePoint {
        row: "deep-msgserver-checkpointed".to_owned(),
        tasks: stats.explored,
        steps: stats.steps_executed,
        wall_ms,
        completed: !failures.is_empty(),
        baseline_wall_ms: Some(THREAD_ENGINE_DEEP_MSGSERVER_WALL_MS),
        speedup_vs_baseline: Some(
            THREAD_ENGINE_DEEP_MSGSERVER_WALL_MS as f64 / (wall_ms.max(1)) as f64,
        ),
    });
    points
}

/// One fault-grid sweep point (ABL-13): one build under one fault
/// schedule, aggregated over a deterministic seed range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPoint {
    /// `buggy-failover` or `fixed-failover`.
    pub build: String,
    /// Human name of the injected fault schedule.
    pub schedule: String,
    /// Schedule seeds run for this cell.
    pub seeds: u64,
    /// Runs the durability spec failed.
    pub failed: u64,
    /// ... of which silent data loss (`hyperstore.rows-missing`).
    pub rows_missing: u64,
    /// ... of which availability loss (`hyperstore.ranges-unavailable`).
    pub ranges_unavailable: u64,
    /// Total acked rows promotion observed missing from the replica
    /// (the `promote_lost_rows` counter summed over the cell).
    pub lost_rows: u64,
    /// Group crashes and restarts actually fired across the cell — a
    /// zero here means the schedule never reached its fault, so the cell
    /// proves nothing.
    pub crashes: u64,
    /// See `crashes`.
    pub restarts: u64,
    /// Host wall-clock milliseconds for the whole cell.
    pub wall_ms: u64,
}

/// Names a fault schedule by which event kinds it carries.
fn fault_schedule_name(env: &dd_sim::EnvConfig) -> String {
    match (
        env.crashes.is_empty(),
        env.partitions.is_empty(),
        env.restarts.is_empty(),
    ) {
        (true, true, true) => "clean",
        (false, true, true) => "crash",
        (false, true, false) => "crash+restart",
        (true, false, true) => "partition-load",
        _ => "mixed",
    }
    .to_owned()
}

/// ABL-13: the fault grid — both failover builds under every candidate
/// fault schedule (crash mid-migration, load-window partition,
/// crash+restart recovery, clean), `seeds_per_cell` schedule seeds each.
///
/// The acceptance gate: the fixed build's `rows_missing` column is zero on
/// *every* row — synchronous log shipping never loses an acknowledged row,
/// whatever the schedule — while the buggy build's crash rows reproduce
/// the lost-suffix failure with a non-zero `lost_rows` witness. All faults
/// are input nondeterminism, so each cell replays byte-identically.
pub fn fault_sweep(seeds_per_cell: u64) -> Vec<FaultPoint> {
    use dd_hyperstore::{failover_env_candidates, failover_spec, HyperstoreProgram};

    let cfg = HyperConfig::default();
    let inputs = cfg.input_script();
    let spec = failover_spec(cfg.n_ranges);
    let builds: [(&str, HyperstoreProgram); 2] = [
        (
            "buggy-failover",
            HyperstoreProgram::buggy_failover(cfg.clone()),
        ),
        (
            "fixed-failover",
            HyperstoreProgram::fixed_failover(cfg.clone()),
        ),
    ];
    let mut points = Vec::new();
    for (build, program) in &builds {
        for env in failover_env_candidates(&cfg) {
            let t0 = std::time::Instant::now();
            let mut p = FaultPoint {
                build: (*build).to_owned(),
                schedule: fault_schedule_name(&env),
                seeds: seeds_per_cell,
                failed: 0,
                rows_missing: 0,
                ranges_unavailable: 0,
                lost_rows: 0,
                crashes: 0,
                restarts: 0,
                wall_ms: 0,
            };
            for seed in 0..seeds_per_cell {
                let rc = dd_sim::RunConfig {
                    seed,
                    max_steps: 500_000,
                    inputs: inputs.clone(),
                    env: env.clone(),
                    ..dd_sim::RunConfig::default()
                };
                let out = dd_sim::run_program(
                    program,
                    rc,
                    Box::new(dd_sim::RandomPolicy::new(seed)),
                    vec![],
                );
                if let Some(f) = spec.check(&out.io) {
                    p.failed += 1;
                    match f.failure_id.as_str() {
                        dd_hyperstore::ROWS_MISSING => p.rows_missing += 1,
                        dd_hyperstore::RANGES_UNAVAILABLE => p.ranges_unavailable += 1,
                        _ => {}
                    }
                }
                p.lost_rows += out.io.counter("promote_lost_rows").max(0) as u64;
                p.crashes += out.io.group_crashes.values().sum::<u64>();
                p.restarts += out.io.group_restarts.values().sum::<u64>();
            }
            p.wall_ms = t0.elapsed().as_millis() as u64;
            points.push(p);
        }
    }
    points
}
