//! The inference engine: bounded search over unrecorded nondeterminism.
//!
//! Relaxed determinism models trade recording for *post-factum inference*:
//! ESD synthesises an execution from a failure report, ODR infers unrecorded
//! race outcomes. Both use program analysis; our substitute is explicit
//! search over the scenario's [`NondetSpace`](crate::NondetSpace) (schedule seeds × inputs ×
//! environments), with the same observable semantics — many executions
//! satisfy the artifact, and the replayer returns whichever it finds first.
//! The search cost is reported as inference time and feeds debugging
//! efficiency (DE).

use crate::dpor::TreeConfig;
use crate::parallel::explore_tree_parallel;
use crate::scenario::{PolicyChoice, RunSpec, Scenario};
use dd_sim::{RunOutput, WorldSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Bounds on inference work, plus the schedule-candidate strategy the
/// replayer should use inside those bounds.
///
/// Construct with [`InferenceBudget::builder`] or the purpose-named
/// constructors ([`executions`](Self::executions), [`dpor`](Self::dpor));
/// direct struct-literal assembly is discouraged because the fields are
/// interdependent (`workers` and `checkpoint_interval` only apply to the
/// systematic strategies) and literals skip the builder's validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferenceBudget {
    /// Maximum candidate executions to try.
    pub max_executions: u64,
    /// Maximum total execution ticks to spend.
    pub max_ticks: u64,
    /// How schedule candidates are generated. Determinism models pick this
    /// up in their `replay` implementations, so callers select the search
    /// strategy the same way they bound its cost.
    pub strategy: SearchStrategy,
    /// Snapshot-interval policy for the systematic strategies: `0` runs
    /// every interleaving from scratch (the pre-checkpointing behaviour);
    /// `k > 0` makes the tree walk snapshot the kernel world every `k`-th
    /// decision inside its branching horizon and, at each backtrack point,
    /// restore the deepest usable snapshot instead of re-executing the
    /// shared prefix. Ignored by the non-systematic strategies. Skipped
    /// (inherited) work is not charged against `max_ticks`, so a
    /// tick-bounded checkpointed walk covers at least as many interleavings
    /// as the scratch walk before cutoff (see `dpor` module docs).
    pub checkpoint_interval: u64,
    /// Worker threads the systematic strategies spread run execution over.
    /// `0` and `1` (the default) keep everything on the calling thread.
    /// The worker count never changes what the search returns — only how
    /// fast (see the `parallel` module's determinism contract). Ignored by
    /// the non-systematic strategies.
    pub workers: u32,
}

impl Default for InferenceBudget {
    fn default() -> Self {
        InferenceBudget {
            max_executions: 200,
            max_ticks: u64::MAX,
            strategy: SearchStrategy::Random,
            checkpoint_interval: 0,
            workers: 1,
        }
    }
}

impl InferenceBudget {
    /// Starts a validated [`InferenceBudgetBuilder`]. Prefer this (or the
    /// purpose-named constructors below) over assembling the struct field
    /// by field: the builder rejects incoherent combinations — e.g. a
    /// worker pool without a systematic strategy — at `build()` time
    /// instead of silently ignoring fields at search time.
    pub fn builder() -> InferenceBudgetBuilder {
        InferenceBudgetBuilder {
            budget: Self::default(),
        }
    }

    /// A budget bounded only by execution count.
    pub fn executions(n: u64) -> Self {
        InferenceBudget {
            max_executions: n,
            ..Self::default()
        }
    }

    /// A budget of `n` executions searching with DPOR-reduced systematic
    /// exploration of branching depth `max_depth`.
    pub fn dpor(n: u64, max_depth: u32) -> Self {
        InferenceBudget {
            max_executions: n,
            ..Self::default()
        }
        .with_strategy(SearchStrategy::Dpor { max_depth })
    }

    /// Replaces the search strategy.
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Enables checkpointed (fork-based) systematic exploration with the
    /// given snapshot interval (`0` disables it again).
    pub fn with_checkpoints(mut self, interval: u64) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Sets the worker-thread pool size the systematic strategies run on
    /// (`0` and `1` both mean sequential).
    pub fn with_workers(mut self, workers: u32) -> Self {
        self.workers = workers;
        self
    }

    /// The default snapshot interval for callers that just want
    /// checkpointing on (snapshot at every decision in the horizon).
    pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 1;

    /// The ceiling of [`default_worker_pool`](Self::default_worker_pool).
    pub const DEFAULT_WORKERS: u32 = 4;

    /// The host-sized worker pool for callers that just want parallel
    /// exploration on (e.g. the RCSE replay-divergence fallback):
    /// `min(available cores, DEFAULT_WORKERS)`. Resolves to `1` — the
    /// sequential path — on single-core hosts, where speculating workers
    /// could only steal cycles from the coordinator. Explicit worker counts
    /// are honored as-is; the determinism contract makes either choice
    /// return identical results.
    pub fn default_worker_pool() -> u32 {
        std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(1)
            .min(Self::DEFAULT_WORKERS)
    }
}

/// A rejected [`InferenceBudgetBuilder`] combination, explaining which
/// fields conflict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetError(String);

impl core::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid inference budget: {}", self.0)
    }
}

impl std::error::Error for BudgetError {}

/// Typed, validated construction of an [`InferenceBudget`].
///
/// The budget's fields are interdependent: `workers` and
/// `checkpoint_interval` are only consumed by the systematic strategies.
/// The builder makes that coupling explicit and turns silent
/// field-ignoring into [`BudgetError`]s:
///
/// ```
/// use dd_replay::{InferenceBudget, SearchStrategy};
///
/// let budget = InferenceBudget::builder()
///     .max_executions(500)
///     .strategy(SearchStrategy::Dpor { max_depth: 8 })
///     .checkpoint_interval(2)
///     .build()
///     .unwrap();
/// assert_eq!(budget.max_executions, 500);
///
/// // A worker pool without a systematic strategy is rejected, not ignored.
/// assert!(InferenceBudget::builder().workers(4).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct InferenceBudgetBuilder {
    budget: InferenceBudget,
}

impl InferenceBudgetBuilder {
    /// Maximum candidate executions to try (must stay above zero).
    pub fn max_executions(mut self, n: u64) -> Self {
        self.budget.max_executions = n;
        self
    }

    /// Maximum total execution ticks to spend (must stay above zero).
    pub fn max_ticks(mut self, ticks: u64) -> Self {
        self.budget.max_ticks = ticks;
        self
    }

    /// How schedule candidates are generated.
    pub fn strategy(mut self, strategy: SearchStrategy) -> Self {
        self.budget.strategy = strategy;
        self
    }

    /// Snapshot interval for the systematic strategies (`0` = from-scratch
    /// exploration). Rejected at `build()` for non-systematic strategies,
    /// which would silently ignore it.
    pub fn checkpoint_interval(mut self, interval: u64) -> Self {
        self.budget.checkpoint_interval = interval;
        self
    }

    /// Worker-thread pool for the systematic strategies (`0` and `1` = the
    /// sequential path). A larger pool is rejected at `build()` for the
    /// non-systematic strategies.
    pub fn workers(mut self, workers: u32) -> Self {
        self.budget.workers = workers;
        self
    }

    /// Validates the combination and produces the budget.
    pub fn build(self) -> Result<InferenceBudget, BudgetError> {
        let b = self.budget;
        if b.max_executions == 0 {
            return Err(BudgetError(
                "max_executions is 0 — the search could never run a candidate".into(),
            ));
        }
        if b.max_ticks == 0 {
            return Err(BudgetError(
                "max_ticks is 0 — the search could never run a candidate".into(),
            ));
        }
        let systematic = b.strategy.max_depth().is_some();
        if b.checkpoint_interval > 0 && !systematic {
            return Err(BudgetError(format!(
                "checkpoint_interval {} is only honored by the systematic \
                 strategies (Exhaustive/Dpor), not {:?}",
                b.checkpoint_interval, b.strategy
            )));
        }
        if b.strategy.max_depth() == Some(0) {
            return Err(BudgetError(
                "systematic strategy with max_depth 0 explores nothing".into(),
            ));
        }
        if b.workers > 1 && !systematic {
            return Err(BudgetError(format!(
                "workers {} has no effect under {:?} — only the systematic \
                 strategies (Exhaustive/Dpor) run on the worker pool",
                b.workers, b.strategy
            )));
        }
        Ok(b)
    }
}

/// Statistics of one inference search.
///
/// `explored` counts interleavings actually *executed*; `pruned` counts
/// sibling branches a systematic strategy identified and skipped. Only
/// executed interleavings burn the execution budget and contribute ticks to
/// debugging-efficiency accounting — conflating the two would make DPOR
/// look slower exactly when it prunes best.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferenceStats {
    /// Candidate executions tried.
    pub explored: u64,
    /// Schedule branches identified but skipped as redundant (DPOR) or
    /// out of reach of the depth bound. Zero for non-systematic strategies.
    pub pruned: u64,
    /// Total execution ticks spent across candidates (for snapshot-resumed
    /// candidates, only the post-restore ticks — inherited prefix work is
    /// not re-spent).
    pub ticks: u64,
    /// Kernel operations actually executed across candidates. For
    /// checkpointed search this excludes the prefix work a restored
    /// snapshot carried; comparing it against
    /// `steps_executed + steps_skipped` (what from-scratch search would
    /// have executed) is the apples-to-apples DE comparison.
    pub steps_executed: u64,
    /// Kernel operations skipped by restoring snapshots instead of
    /// re-executing shared schedule prefixes. Zero for scratch search.
    pub steps_skipped: u64,
    /// Whether an accepting execution was found.
    pub found: bool,
    /// 0-based index of the accepting candidate, if found.
    pub found_at: Option<u64>,
}

impl InferenceStats {
    /// Accounts one candidate execution's step/tick cost.
    pub(crate) fn charge_run(&mut self, out: &RunOutput) {
        self.explored += 1;
        self.ticks += out.stats.exec_ticks - out.stats.resumed_ticks;
        self.steps_executed += out.stats.steps - out.stats.resumed_steps;
        self.steps_skipped += out.stats.resumed_steps;
    }

    /// How much execution the snapshots saved: total kernel operations the
    /// same exploration would have executed from scratch, divided by the
    /// operations actually executed. `Some(1.0)` means no savings (scratch
    /// search); `Some(2.0)` means half the work was skipped.
    ///
    /// Returns `None` when `steps_executed == 0` — an all-skipped search
    /// (every interleaving resumed entirely from snapshots, which deep
    /// horizons can produce) or one that never ran. The ratio is unbounded
    /// there, not `1.0`; renderers print a `-` sentinel instead of a
    /// number.
    pub fn replay_speedup(&self) -> Option<f64> {
        if self.steps_executed == 0 {
            None
        } else {
            Some((self.steps_executed + self.steps_skipped) as f64 / self.steps_executed as f64)
        }
    }
}

/// The result of a search: the accepted run (if any) plus statistics.
pub struct SearchResult {
    /// The accepted execution.
    pub run: Option<RunOutput>,
    /// The spec that produced it.
    pub spec: Option<RunSpec>,
    /// Search statistics.
    pub stats: InferenceStats,
}

/// How schedule candidates are generated during inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// Seeded uniform-random scheduling per candidate (the default).
    Random,
    /// Probabilistic concurrency testing per candidate: random priorities
    /// with `depth - 1` change points, biased toward rare interleavings of
    /// bounded depth.
    Pct {
        /// Expected run length in scheduling decisions.
        expected_len: u64,
        /// Targeted bug depth.
        depth: u32,
    },
    /// Systematic depth-first enumeration of the schedule tree: every
    /// branch of the first `max_depth` scheduling decisions, with a
    /// deterministic seeded tail beyond.
    Exhaustive {
        /// Branching-depth bound.
        max_depth: u32,
    },
    /// Partial-order-reduced systematic exploration: like `Exhaustive`,
    /// but dynamic conflict analysis (pending-op footprints from `dd-sim`
    /// plus `dd-detect` happens-before clocks) prunes sibling branches that
    /// only reorder commuting operations. Finds the same failures as
    /// `Exhaustive` at the same depth while executing far fewer
    /// interleavings.
    Dpor {
        /// Branching-depth bound.
        max_depth: u32,
    },
}

impl SearchStrategy {
    /// The branching-depth bound of the systematic strategies (`Exhaustive`
    /// and `Dpor`, which walk the schedule tree on the budget's worker
    /// pool), or `None` for the non-systematic ones.
    pub fn max_depth(&self) -> Option<u32> {
        match *self {
            SearchStrategy::Exhaustive { max_depth } | SearchStrategy::Dpor { max_depth } => {
                Some(max_depth)
            }
            SearchStrategy::Random | SearchStrategy::Pct { .. } => None,
        }
    }
}

/// Searches a scenario's nondeterminism space for an execution satisfying
/// `accept`, using the strategy selected by the budget.
///
/// Candidates are enumerated deterministically, environment-fastest: the
/// replayer tries alternative environments (faults, congestion, memory
/// pressure) before burning through schedule seeds, mirroring how execution
/// synthesis considers all consistent explanations — this is exactly why a
/// failure-deterministic replay may return a *different root cause* than the
/// original execution.
pub fn search(
    scenario: &Scenario,
    budget: &InferenceBudget,
    fixed_inputs: Option<&dd_sim::InputScript>,
    accept: impl Fn(&RunOutput) -> bool,
) -> SearchResult {
    search_with(scenario, budget, budget.strategy, fixed_inputs, accept)
}

/// [`search`] with an explicit schedule-candidate strategy (overriding the
/// budget's).
pub fn search_with(
    scenario: &Scenario,
    budget: &InferenceBudget,
    strategy: SearchStrategy,
    fixed_inputs: Option<&dd_sim::InputScript>,
    accept: impl Fn(&RunOutput) -> bool,
) -> SearchResult {
    search_with_warm(scenario, budget, strategy, fixed_inputs, Vec::new(), accept)
}

/// [`search_with`] additionally seeding systematic tree walks with
/// previously captured world snapshots (warm start).
///
/// The seeds typically come from a persistent
/// [`SnapshotStore`](dd_trace::SnapshotStore) written by a recorded run in
/// another process: the walk's first descents fork from the deepest
/// compatible seed instead of re-executing the shared prefix from scratch.
/// Seeds whose decision path diverges from the walk's current prefix are
/// skipped (compatibility is always checked explicitly), so stale or
/// foreign snapshots degrade to a cold start rather than corrupting the
/// search. Non-systematic strategies and walks without checkpointing ignore
/// the seeds entirely.
pub fn search_with_warm(
    scenario: &Scenario,
    budget: &InferenceBudget,
    strategy: SearchStrategy,
    fixed_inputs: Option<&dd_sim::InputScript>,
    warm: Vec<Arc<WorldSnapshot>>,
    accept: impl Fn(&RunOutput) -> bool,
) -> SearchResult {
    let space = &scenario.space;
    let seeds: &[u64] = if space.seeds.is_empty() {
        &[0]
    } else {
        &space.seeds
    };
    let default_inputs = [dd_sim::InputScript::new()];
    let inputs: &[dd_sim::InputScript] = match fixed_inputs {
        Some(_) => &default_inputs[..0],
        None if space.inputs.is_empty() => &default_inputs,
        None => &space.inputs,
    };
    let n_inputs = if fixed_inputs.is_some() {
        1
    } else {
        inputs.len()
    };
    let envs: &[dd_sim::EnvConfig] = if space.envs.is_empty() {
        std::slice::from_ref(&scenario.env)
    } else {
        &space.envs
    };

    let mut stats = InferenceStats::default();

    if let Some(max_depth) = strategy.max_depth() {
        // Systematic strategies replace random schedule seeding with a tree
        // walk per (seed, input, environment) combination, sharing one
        // budget; environment still varies fastest.
        let scripts: Vec<&dd_sim::InputScript> = match fixed_inputs {
            Some(s) => vec![s],
            None => inputs.iter().collect(),
        };
        for &seed in seeds {
            for script in &scripts {
                for env in envs {
                    if stats.explored >= budget.max_executions || stats.ticks >= budget.max_ticks {
                        break;
                    }
                    let cfg = TreeConfig {
                        seed,
                        tail_seed: seed.wrapping_mul(0x9E3779B97F4A7C15),
                        inputs: script,
                        env,
                        dpor: matches!(strategy, SearchStrategy::Dpor { .. }),
                        max_depth: max_depth as usize,
                        checkpoint_every: (budget.checkpoint_interval > 0)
                            .then_some(budget.checkpoint_interval),
                        warm: warm.clone(),
                    };
                    if let Some((out, spec)) =
                        explore_tree_parallel(scenario, &cfg, budget, &mut stats, &mut |out, _| {
                            accept(out)
                        })
                    {
                        return SearchResult {
                            run: Some(out),
                            spec: Some(spec),
                            stats,
                        };
                    }
                }
            }
        }
        return SearchResult {
            run: None,
            spec: None,
            stats,
        };
    }

    let total = seeds.len() as u64 * n_inputs as u64 * envs.len() as u64;
    for i in 0..total.min(budget.max_executions) {
        if stats.ticks >= budget.max_ticks {
            break;
        }
        // Environment varies fastest, inputs next, schedule seed slowest.
        let env_i = (i % envs.len() as u64) as usize;
        let input_i = ((i / envs.len() as u64) % n_inputs as u64) as usize;
        let seed_i = ((i / (envs.len() as u64 * n_inputs as u64)) % seeds.len() as u64) as usize;

        let sched_seed = seeds[seed_i].wrapping_mul(0x9E3779B97F4A7C15);
        let policy = match strategy {
            SearchStrategy::Random => PolicyChoice::Random(sched_seed),
            SearchStrategy::Pct {
                expected_len,
                depth,
            } => PolicyChoice::Pct {
                seed: sched_seed,
                expected_len,
                depth,
            },
            SearchStrategy::Exhaustive { .. } | SearchStrategy::Dpor { .. } => {
                unreachable!("systematic strategies handled above")
            }
        };
        let spec = RunSpec {
            seed: seeds[seed_i],
            policy,
            inputs: match fixed_inputs {
                Some(s) => s.clone(),
                None => inputs[input_i].clone(),
            },
            env: envs[env_i].clone(),
        };
        let out = scenario.execute(&spec, vec![]);
        stats.charge_run(&out);
        if accept(&out) {
            stats.found = true;
            stats.found_at = Some(i);
            return SearchResult {
                run: Some(out),
                spec: Some(spec),
                stats,
            };
        }
    }
    SearchResult {
        run: None,
        spec: None,
        stats,
    }
}

/// Enumerates every distinct failure id reachable from the scenario's
/// *production* configuration (original seed, inputs and environment) under
/// the given strategy and budget, without stopping at the first hit.
///
/// This is the apples-to-apples harness for comparing strategies: with the
/// same `max_depth`, [`SearchStrategy::Dpor`] must find the same failure
/// set as [`SearchStrategy::Exhaustive`] while executing strictly fewer
/// interleavings (the pruned ones only reorder commuting operations).
pub fn enumerate_failures(
    scenario: &Scenario,
    budget: &InferenceBudget,
    strategy: SearchStrategy,
) -> (BTreeSet<String>, InferenceStats) {
    let mut stats = InferenceStats::default();
    let mut failures = BTreeSet::new();
    match strategy.max_depth() {
        Some(max_depth) => {
            let cfg = TreeConfig {
                seed: scenario.seed,
                tail_seed: scenario.sched_seed.wrapping_mul(0x9E3779B97F4A7C15),
                inputs: &scenario.inputs,
                env: &scenario.env,
                dpor: matches!(strategy, SearchStrategy::Dpor { .. }),
                max_depth: max_depth as usize,
                checkpoint_every: (budget.checkpoint_interval > 0)
                    .then_some(budget.checkpoint_interval),
                warm: Vec::new(),
            };
            explore_tree_parallel(scenario, &cfg, budget, &mut stats, &mut |out, _| {
                if let Some(f) = (scenario.failure_of)(&out.io) {
                    failures.insert(f.failure_id);
                }
                false
            });
        }
        None => {
            for i in 0..budget.max_executions {
                if stats.ticks >= budget.max_ticks {
                    break;
                }
                let sched_seed = scenario
                    .sched_seed
                    .wrapping_add(i)
                    .wrapping_mul(0x9E3779B97F4A7C15);
                let policy = match strategy {
                    SearchStrategy::Pct {
                        expected_len,
                        depth,
                    } => PolicyChoice::Pct {
                        seed: sched_seed,
                        expected_len,
                        depth,
                    },
                    _ => PolicyChoice::Random(sched_seed),
                };
                let spec = RunSpec {
                    seed: scenario.seed,
                    policy,
                    inputs: scenario.inputs.clone(),
                    env: scenario.env.clone(),
                };
                let out = scenario.execute(&spec, vec![]);
                stats.charge_run(&out);
                if let Some(f) = (scenario.failure_of)(&out.io) {
                    failures.insert(f.failure_id);
                }
            }
        }
    }
    (failures, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::NondetSpace;
    use dd_sim::{Builder, EnvConfig, InputScript, Program, Value};
    use std::sync::Arc;

    /// Outputs the pair of inputs it reads plus their sum.
    struct Summer;
    impl Program for Summer {
        fn name(&self) -> &'static str {
            "summer"
        }
        fn setup(&self, b: &mut Builder<'_>) {
            let p = b.in_port("operands");
            let out = b.out_port("sum");
            b.spawn("summer", "g", move |mut ctx| async move {
                let a: i64 = ctx.input(p, "sum::a").await?;
                let bb: i64 = ctx.input(p, "sum::b").await?;
                ctx.output(out, a + bb, "sum::out").await
            });
        }
    }

    fn input_pair(a: i64, b: i64) -> InputScript {
        let mut s = InputScript::new();
        s.push("operands", 0, Value::Int(a));
        s.push("operands", 1, Value::Int(b));
        s
    }

    fn scenario_with_inputs(candidates: Vec<InputScript>) -> Scenario {
        Scenario {
            program: Arc::new(Summer),
            seed: 7,
            sched_seed: 7,
            inputs: input_pair(2, 2),
            env: EnvConfig::clean(),
            max_steps: 10_000,
            failure_of: Arc::new(|_| None),
            space: NondetSpace {
                seeds: vec![0, 1],
                inputs: candidates,
                envs: vec![EnvConfig::clean()],
            },
        }
    }

    #[test]
    fn search_finds_matching_inputs() {
        let scenario =
            scenario_with_inputs(vec![input_pair(1, 1), input_pair(1, 4), input_pair(2, 3)]);
        let result = search(&scenario, &InferenceBudget::executions(50), None, |out| {
            out.io.outputs_on("sum").first().and_then(|v| v.as_int()) == Some(5)
        });
        assert!(result.stats.found);
        // The first candidate summing to 5 in enumeration order is (1,4).
        let spec = result.spec.unwrap();
        assert_eq!(spec.inputs.for_port("operands")[0].value, Value::Int(1));
        assert!(result.stats.explored >= 2);
    }

    #[test]
    fn search_respects_budget() {
        let scenario = scenario_with_inputs(vec![input_pair(1, 1)]);
        let result = search(&scenario, &InferenceBudget::executions(1), None, |_| false);
        assert!(!result.stats.found);
        assert_eq!(result.stats.explored, 1);
        assert!(result.run.is_none());
    }

    #[test]
    fn fixed_inputs_skip_input_enumeration() {
        let scenario = scenario_with_inputs(vec![input_pair(9, 9)]);
        let fixed = input_pair(3, 4);
        let result = search(
            &scenario,
            &InferenceBudget::executions(50),
            Some(&fixed),
            |out| out.io.outputs_on("sum").first().and_then(|v| v.as_int()) == Some(7),
        );
        assert!(result.stats.found, "fixed inputs (3,4) must be used");
    }

    #[test]
    fn search_accumulates_ticks() {
        let scenario = scenario_with_inputs(vec![input_pair(1, 1)]);
        let result = search(&scenario, &InferenceBudget::executions(4), None, |_| false);
        assert!(result.stats.ticks > 0);
    }

    #[test]
    fn builder_defaults_match_default() {
        let built = InferenceBudget::builder().build().unwrap();
        assert_eq!(built, InferenceBudget::default());
    }

    #[test]
    fn builder_matches_named_constructors() {
        let built = InferenceBudget::builder()
            .max_executions(64)
            .strategy(SearchStrategy::Dpor { max_depth: 6 })
            .build()
            .unwrap();
        assert_eq!(built, InferenceBudget::dpor(64, 6));

        let built = InferenceBudget::builder()
            .max_executions(64)
            .strategy(SearchStrategy::Dpor { max_depth: 6 })
            .checkpoint_interval(InferenceBudget::DEFAULT_CHECKPOINT_INTERVAL)
            .workers(4)
            .build()
            .unwrap();
        assert_eq!(
            built,
            InferenceBudget::dpor(64, 6)
                .with_checkpoints(InferenceBudget::DEFAULT_CHECKPOINT_INTERVAL)
                .with_workers(4)
        );
    }

    #[test]
    fn builder_rejects_incoherent_combinations() {
        // Zero bounds could never execute a candidate.
        assert!(InferenceBudget::builder()
            .max_executions(0)
            .build()
            .is_err());
        assert!(InferenceBudget::builder().max_ticks(0).build().is_err());

        // Worker pools only run the systematic strategies.
        assert!(InferenceBudget::builder().workers(4).build().is_err());
        assert!(InferenceBudget::builder()
            .strategy(SearchStrategy::Pct {
                expected_len: 200,
                depth: 3,
            })
            .workers(4)
            .build()
            .is_err());

        // Checkpointing is a systematic-strategy facility.
        assert!(InferenceBudget::builder()
            .checkpoint_interval(1)
            .build()
            .is_err());

        // A depth-0 systematic walk explores nothing.
        assert!(InferenceBudget::builder()
            .strategy(SearchStrategy::Exhaustive { max_depth: 0 })
            .build()
            .is_err());
    }
}
