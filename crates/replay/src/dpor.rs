//! Partial-order-reduced exploration of the schedule tree (DPOR-lite).
//!
//! Blind enumeration of schedules wastes most of its budget re-executing
//! interleavings that only reorder *commuting* operations. This module
//! explores the tree of scheduling decisions depth-first via
//! [`PrefixPolicy`]-forced runs and — in DPOR mode —
//! expands only the sibling branches that dynamic conflict analysis proves
//! worth visiting, in the style of Flanagan–Godefroid dynamic partial-order
//! reduction:
//!
//! - `dd-sim` reports, at every recorded decision, the enabled task set and
//!   each candidate's pending-operation footprint
//!   ([`OpDesc`]).
//! - After each run, a vector-clock pass over the trace finds pairs of
//!   conflicting, concurrent transitions and adds *backtrack points*: the
//!   decision nodes where reordering the pair could reach a new state. The
//!   clocks come from [`HbClocks`], the happens-before engine `dd-detect`'s
//!   race detector also runs on (spawn, join, lock hand-off, channel
//!   message, notification), and each executed event's footprint from
//!   [`OpDesc::of_event`].
//! - Sibling branches never added to a node's backtrack set are *pruned* —
//!   counted separately from executed interleavings in
//!   [`InferenceStats`] so debugging-efficiency
//!   numbers reflect work actually done.
//!
//! Exploration is bounded by `max_depth` (decisions beyond it follow a
//! deterministic seeded tail) and by the caller's
//! [`InferenceBudget`]. Exhaustive mode uses the
//! same tree walk with every sibling in every backtrack set, which makes
//! "DPOR executes a subset of exhaustive's interleavings" directly
//! measurable.
//!
//! With a checkpoint interval on the budget the walk becomes a *fork-based
//! DFS*: runs snapshot the kernel [`WorldState`](dd_sim::WorldSnapshot) at
//! decision points inside the horizon, and each backtracked branch resumes
//! from the deepest snapshot compatible with its forced prefix instead of
//! re-executing the shared prefix from the first instruction. Forking is
//! invisible to the search: the same interleavings are visited in the same
//! order with bit-identical traces, and only the genuinely executed steps
//! are charged to [`InferenceStats`].
//!
//! One deliberate asymmetry: because inherited (skipped) ticks are not
//! re-spent, a `max_ticks`-bounded budget stretches further under
//! checkpointing — the walk covers *more* interleavings before the tick
//! cutoff than scratch does. Walk-for-walk equivalence (same interleavings,
//! same failure set) is therefore guaranteed under execution-count budgets;
//! under tick budgets checkpointed search dominates scratch rather than
//! mirroring it.
//!
//! The walk itself is factored out of run *execution* (see the `RunFetcher`
//! trait): the single-threaded `walk` owns every piece of cross-run state — the
//! DFS stack, backtrack sets, budget, statistics, and the snapshot pool —
//! and charges each consumed run against the pool's canonical resume point,
//! so swapping the sequential fetcher for the multi-worker one in
//! [`parallel`](crate::parallel) changes wall-clock time and nothing else.

use crate::explorer::{InferenceBudget, InferenceStats};
use crate::scenario::{PolicyChoice, RunSpec, Scenario};
use dd_detect::{HbClocks, VectorClock};
use dd_sim::{
    CheckpointPlan, DecisionKind, EnvConfig, Event, InputScript, OpDesc, PrefixPolicy, RunOutput,
    TaskId, WorldSnapshot,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The walk's snapshot pool: prefix-compatible [`WorldSnapshot`]s along the
/// current DFS path, keyed by the decision index they were taken at.
/// `Arc`-shared so a parallel fetcher can hand the same snapshot to several
/// worker threads without cloning the world per job. Sharing is two-level:
/// the pool shares snapshots by handle, and the snapshots themselves share
/// their sealed history chunks (`dd_sim::ChunkedLog`, `Send + Sync`) with
/// each other and with every run forked from them — so the pool's memory
/// and per-fork clone cost are O(live state) per entry, not O(history).
pub(crate) type SnapshotPool = BTreeMap<u64, Arc<WorldSnapshot>>;

/// One configuration of the tree walk: which run parameters are fixed and
/// how aggressively to prune.
pub(crate) struct TreeConfig<'a> {
    /// Kernel RNG seed for every run in this tree.
    pub seed: u64,
    /// Seed of the deterministic tail policy past the forced prefix.
    pub tail_seed: u64,
    /// Input script for every run.
    pub inputs: &'a InputScript,
    /// Environment for every run.
    pub env: &'a EnvConfig,
    /// `true` for DPOR pruning, `false` for exhaustive enumeration.
    pub dpor: bool,
    /// Decisions beyond this depth are never branched.
    pub max_depth: usize,
    /// `Some(k)`: fork-based DFS — runs snapshot the kernel world every
    /// `k`-th decision inside the branching horizon, and each backtracked
    /// branch resumes from the deepest snapshot compatible with its forced
    /// prefix instead of re-executing from the first instruction. `None`
    /// re-executes every branch from scratch.
    pub checkpoint_every: Option<u64>,
    /// Snapshots restored from a persistent store that seed the walk's
    /// pool (warm start): a fresh process re-exploring the same tree binds
    /// branches to these instead of re-executing the shared prefixes its
    /// predecessor already paid for. Entries whose decision path diverges
    /// from a branch's forced prefix are skipped by the compatibility
    /// check, so stale or foreign snapshots are harmless. Only effective
    /// with `checkpoint_every` set.
    pub warm: Vec<Arc<WorldSnapshot>>,
}

/// One decision node on the DFS stack.
struct Node {
    /// The enabled tasks, sorted by id.
    candidates: Vec<TaskId>,
    /// Candidate index the current path takes at this node.
    chosen_index: u32,
    /// Tasks worth exploring at this node (grows as conflicts are found).
    backtrack: BTreeSet<TaskId>,
    /// Tasks already explored at this node.
    done: BTreeSet<TaskId>,
}

/// A backtrack-set addition derived from one conflicting transition pair.
enum Add {
    /// The conflicting task was enabled at the node: explore it there.
    Task(TaskId),
    /// The conflicting task was not enabled: explore every sibling.
    All,
}

/// How the tree walk obtains the [`RunOutput`] of one forced-prefix run.
///
/// The walk itself — stack, backtrack sets, pruning, budget, statistics,
/// snapshot pool — is single-threaded and identical for every fetcher; the
/// fetcher only decides *where* the execution happens. [`SeqRuns`] executes
/// inline (the classic sequential explorer); the parallel fetcher in
/// [`parallel`](crate::parallel) farms runs out to worker threads and
/// consumes their results in the same order. Because a forced-prefix run's
/// trace is bit-identical however it is produced (the PR-3 snapshot
/// determinism guarantee), the fetcher is invisible to the search.
pub(crate) trait RunFetcher {
    /// Produces the run for `prefix`. `pool` is the walk's canonical
    /// prefix-compatible snapshot pool (entries at decision `d <
    /// prefix.len()` may be restored).
    fn fetch(&mut self, spec: &RunSpec, prefix: &[u32], pool: &SnapshotPool) -> RunOutput;

    /// Offers the walk's current pending branches (forced prefixes that
    /// will all eventually be consumed, shallowest first) for speculative
    /// execution. Sequential fetchers ignore this.
    fn speculate(&mut self, _branches: Vec<Vec<u32>>, _pool: &SnapshotPool) {}
}

/// The checkpoint plan a tree configuration implies.
///
/// A usable snapshot must sit strictly inside a future forced prefix, and
/// prefixes never exceed `max_depth` — so the deepest restorable snapshot
/// is at decision `max_depth - 1`; snapshotting at `max_depth` itself would
/// be a full-world clone nothing can ever restore.
pub(crate) fn plan_of(cfg: &TreeConfig<'_>) -> Option<CheckpointPlan> {
    cfg.checkpoint_every
        .map(|k| CheckpointPlan::new(k, (cfg.max_depth as u64).saturating_sub(1)))
}

/// The deepest snapshot in `pool` that a run forced to `prefix` may fork
/// from: strictly inside the prefix, and leading to the run's own path (the
/// prefix starts with the snapshot's decision path). The pool may hold
/// entries that are not on the current path — warm-start seeds from a
/// persistent store, or (for the parallel fetcher's mirror) snapshots from
/// subtrees the walk has since left — so compatibility is checked
/// explicitly rather than assumed.
pub(crate) fn deepest_compatible(
    pool: &SnapshotPool,
    prefix: &[u32],
) -> Option<(u64, Arc<WorldSnapshot>)> {
    pool.range(..prefix.len() as u64)
        .rev()
        .find(|(&d, snap)| {
            snap.decision_prefix()
                .eq(prefix[..d as usize].iter().copied())
        })
        .map(|(&d, snap)| (d, Arc::clone(snap)))
}

/// The sequential fetcher: executes every run inline, restoring the deepest
/// usable snapshot itself.
struct SeqRuns<'a> {
    scenario: &'a Scenario,
    plan: Option<CheckpointPlan>,
    tail_seed: u64,
}

impl RunFetcher for SeqRuns<'_> {
    fn fetch(&mut self, spec: &RunSpec, prefix: &[u32], pool: &SnapshotPool) -> RunOutput {
        match self.plan {
            None => self.scenario.execute(spec, vec![]),
            Some(plan) => {
                // Fork instead of replaying from scratch: restore the
                // deepest compatible snapshot strictly inside the prefix
                // (the fork decision itself is `prefix.len() - 1`) and
                // force only the remaining prefix decisions.
                match deepest_compatible(pool, prefix) {
                    Some((d, snap)) => {
                        let forced: Vec<u32> = prefix[d as usize..].to_vec();
                        self.scenario.resume(
                            spec,
                            &snap,
                            Box::new(PrefixPolicy::new(forced, self.tail_seed)),
                            plan,
                        )
                    }
                    None => self.scenario.execute_checkpointed(spec, plan, vec![]),
                }
            }
        }
    }
}

/// Walks the schedule tree rooted at `cfg`'s run parameters, calling
/// `visit` on every executed interleaving. Stops when `visit` returns
/// `true` (returning that run), the tree is exhausted (`None`), or the
/// budget runs out (`None`). `stats` accumulates across calls so one budget
/// can span several trees.
pub(crate) fn explore_tree(
    scenario: &Scenario,
    cfg: &TreeConfig<'_>,
    budget: &InferenceBudget,
    stats: &mut InferenceStats,
    visit: &mut dyn FnMut(&RunOutput, &RunSpec) -> bool,
) -> Option<(RunOutput, RunSpec)> {
    let mut fetcher = SeqRuns {
        scenario,
        plan: plan_of(cfg),
        tail_seed: cfg.tail_seed,
    };
    walk(cfg, budget, stats, visit, &mut fetcher)
}

/// The deterministic heart of both explorers: the DFS over the schedule
/// tree, generic over how runs are produced. Everything observable — the
/// interleavings visited and their order, the backtrack/pruning decisions,
/// the failure set, and the `InferenceStats` accounting — is computed here,
/// on one thread, from run outputs that are prefix-deterministic; this is
/// what makes a parallel fetcher byte-equivalent to the sequential one by
/// construction.
///
/// Step/tick charges are *canonical*: each consumed run is charged as if it
/// had been resumed from the deepest snapshot in the walk's own pool,
/// whether or not the fetcher actually restored that snapshot (a worker may
/// have forked from a shallower one that existed when the job was queued).
/// For the same reason, snapshots a run reports below the canonical resume
/// point are dropped — the pool evolves exactly as the sequential
/// explorer's would, keeping the accounting worker-count-invariant.
pub(crate) fn walk(
    cfg: &TreeConfig<'_>,
    budget: &InferenceBudget,
    stats: &mut InferenceStats,
    visit: &mut dyn FnMut(&RunOutput, &RunSpec) -> bool,
    fetcher: &mut dyn RunFetcher,
) -> Option<(RunOutput, RunSpec)> {
    let mut stack: Vec<Node> = Vec::new();
    let mut prefix: Vec<u32> = Vec::new();
    // Snapshots along the *current* DFS path, keyed by decision index. An
    // entry at `d` captures the world before decision `d`, with decisions
    // `0..d` equal to `prefix[0..d]`; the backtrack step drops entries past
    // each fork point, so everything in the pool stays prefix-compatible.
    let mut pool: SnapshotPool = BTreeMap::new();
    let checkpointing = cfg.checkpoint_every.is_some();
    if checkpointing {
        // Warm start: seed the pool with store-restored snapshots. The
        // compatibility check at every resume point skips any that are not
        // on the branch being executed, so seeding is always safe; when a
        // fresh process re-walks the tree its predecessor explored, these
        // replace the scratch re-execution of shared prefixes.
        for s in &cfg.warm {
            pool.entry(s.at_decision()).or_insert_with(|| Arc::clone(s));
        }
    }
    loop {
        if stats.explored >= budget.max_executions || stats.ticks >= budget.max_ticks {
            return None;
        }
        let spec = RunSpec {
            seed: cfg.seed,
            policy: PolicyChoice::Prefix(prefix.clone(), cfg.tail_seed),
            inputs: cfg.inputs.clone(),
            env: cfg.env.clone(),
        };
        // The canonical resume point: the deepest pool snapshot strictly
        // inside the forced prefix. Captured before the fetch so the charge
        // below reflects this walk's pool, not the fetcher's private choice.
        let canon: Option<(u64, u64, u64)> = if checkpointing {
            deepest_compatible(&pool, &prefix).map(|(d, s)| (d, s.steps(), s.time()))
        } else {
            None
        };
        let mut out = fetcher.fetch(&spec, &prefix, &pool);
        for s in std::mem::take(&mut out.snapshots) {
            // Snapshots at or below the canonical resume point would not
            // exist in a sequential walk (its resumed runs only report
            // deeper ones); keeping the pools identical keeps the charges
            // identical.
            if canon.is_none_or(|(d, _, _)| s.at_decision() > d) {
                // Unconditional insert: the just-executed run is on the
                // current path by construction, so its snapshot supersedes
                // any warm-start seed parked at the same decision (which
                // may be from a diverged path).
                pool.insert(s.at_decision(), Arc::new(s));
            }
        }
        let (skip_steps, skip_ticks) = canon.map_or((0, 0), |(_, steps, ticks)| (steps, ticks));
        debug_assert!(out.stats.steps >= skip_steps && out.stats.exec_ticks >= skip_ticks);
        stats.explored += 1;
        stats.ticks += out.stats.exec_ticks.saturating_sub(skip_ticks);
        stats.steps_executed += out.stats.steps.saturating_sub(skip_steps);
        stats.steps_skipped += skip_steps;

        // Extend the stack with the decisions this run took past the forced
        // prefix. The prefix replays deterministically, so decisions the
        // stack already covers are unchanged.
        let horizon = out.decisions.len().min(cfg.max_depth);
        for i in stack.len()..horizon {
            let enabled = &out.decision_enabled[i];
            let chosen = out.decisions[i].chosen;
            let backtrack: BTreeSet<TaskId> = if cfg.dpor {
                BTreeSet::from([chosen])
            } else {
                enabled.iter().map(|(t, _)| *t).collect()
            };
            stack.push(Node {
                candidates: enabled.iter().map(|(t, _)| *t).collect(),
                chosen_index: out.decisions[i].chosen_index,
                backtrack,
                done: BTreeSet::from([chosen]),
            });
        }
        if cfg.dpor {
            for (i, add) in backtrack_points(&out, cfg.max_depth) {
                let Some(node) = stack.get_mut(i) else {
                    continue;
                };
                match add {
                    Add::Task(t) => {
                        node.backtrack.insert(t);
                    }
                    Add::All => {
                        let all: Vec<TaskId> = node.candidates.clone();
                        node.backtrack.extend(all);
                    }
                }
            }
        }
        if visit(&out, &spec) {
            stats.found = true;
            stats.found_at = Some(stats.explored - 1);
            return Some((out, spec));
        }

        // Every branch still pending anywhere on the stack will eventually
        // be consumed (backtrack sets only grow, `done` entries never come
        // back) and its run depends only on its forced prefix — so a
        // parallel fetcher may execute all of them ahead of time.
        let branches = pending_branches(&stack);
        if !branches.is_empty() {
            fetcher.speculate(branches, &pool);
        }

        // Backtrack: pop exhausted nodes (counting their never-explored
        // siblings as pruned), then branch at the deepest pending node.
        loop {
            let Some(top) = stack.last_mut() else {
                return None; // Tree exhausted.
            };
            match top.backtrack.difference(&top.done).next().copied() {
                Some(t) => {
                    top.done.insert(t);
                    top.chosen_index = top
                        .candidates
                        .iter()
                        .position(|&c| c == t)
                        .expect("backtrack tasks are always candidates")
                        as u32;
                    prefix = stack.iter().map(|n| n.chosen_index).collect();
                    // Snapshots at or past the fork decision captured the
                    // abandoned branch; only the shared prefix stays usable.
                    pool.retain(|&d, _| d < prefix.len() as u64);
                    break;
                }
                None => {
                    stats.pruned += (top.candidates.len() - top.done.len()) as u64;
                    stack.pop();
                }
            }
        }
    }
}

/// Every branch currently pending on the DFS stack, as the forced prefix
/// its first run will use: the path to the node plus the sibling's
/// candidate index.
///
/// Ordered for a LIFO frontier: shallow nodes first and, within a node,
/// larger task ids first — so popping from the back yields the deepest
/// node's smallest pending task, which is exactly the branch the walk
/// consumes next.
fn pending_branches(stack: &[Node]) -> Vec<Vec<u32>> {
    let mut branches = Vec::new();
    let mut base: Vec<u32> = Vec::with_capacity(stack.len());
    for node in stack {
        let pending: Vec<TaskId> = node.backtrack.difference(&node.done).copied().collect();
        for &t in pending.iter().rev() {
            let idx = node
                .candidates
                .iter()
                .position(|&c| c == t)
                .expect("backtrack tasks are always candidates") as u32;
            let mut p = base.clone();
            p.push(idx);
            branches.push(p);
        }
        base.push(node.chosen_index);
    }
    branches
}

/// Finds the backtrack points one executed run implies.
///
/// For every executed operation `j` by task `q`, scans the decisions inside
/// the branching horizon for the *latest* one whose transition conflicts
/// with `j` and was taken by a different task. Variable conflicts are
/// additionally filtered through the vector-clock happens-before check (a
/// write that already happened-before the access cannot be reordered with
/// it); resource-competition conflicts (locks, channels, ports, RNG,
/// condition variables) create happens-before edges themselves, so they are
/// always treated as reorderable.
fn backtrack_points(out: &RunOutput, max_depth: usize) -> Vec<(usize, Add)> {
    let decisions = &out.decisions;
    let enabled = &out.decision_enabled;
    let horizon = decisions.len().min(max_depth);
    if horizon == 0 {
        return Vec::new();
    }

    // Footprint of each in-horizon decision's transition: the op the chosen
    // task was parked on when granted (known even when the attempt blocked).
    let exec_op: Vec<OpDesc> = decisions
        .iter()
        .zip(enabled)
        .take(horizon)
        .map(|(d, en)| {
            en.iter()
                .find(|(t, _)| *t == d.chosen)
                .and_then(|(_, desc)| *desc)
                .unwrap_or(OpDesc::Global)
        })
        .collect();

    let mut hb = HbClocks::new();
    // Clock of each in-horizon decision's transition, once it executes.
    let mut decision_clock: Vec<Option<VectorClock>> = vec![None; horizon];
    // Index of the latest Decision event seen (-1 before the first).
    let mut cursor: isize = -1;
    // Decision whose transition's clock snapshot is still outstanding.
    let mut awaiting: Option<(usize, TaskId)> = None;

    let mut adds: BTreeSet<(usize, Option<u32>)> = BTreeSet::new();

    for (_, event) in &out.trace {
        match event {
            Event::Decision { kind, chosen, .. } => {
                cursor += 1;
                let i = cursor as usize;
                awaiting = match kind {
                    // The next op event after a NextTask grant is the chosen
                    // task's transition. WakeOne decisions happen inside a
                    // notifier's op; their transition clock is not needed
                    // (cvar conflicts never take the clock path).
                    DecisionKind::NextTask if i < horizon => Some((i, *chosen)),
                    _ => None,
                };
                continue;
            }
            // A spawn advances only the child's clock, and the scan treats
            // it as neither a decision's transition nor a conflicting
            // operation.
            Event::TaskSpawn { .. } => {
                hb.observe(event);
                continue;
            }
            _ => {}
        }

        // 1. Happens-before bookkeeping.
        let Some(q) = hb.observe(event) else { continue };

        // 2. Snapshot the awaited decision-transition clock.
        if let Some((i, t)) = awaiting {
            if t == q {
                decision_clock[i] = Some(hb.clock(q).clone());
                awaiting = None;
            }
        }

        // 3. Conflict scan for this executed operation. Task-local
        //    operations are skipped: they commute with every other
        //    operation, so reordering one never reaches a new state.
        let Some(o_j) = OpDesc::of_event(event).filter(|op| *op != OpDesc::Local) else {
            continue;
        };
        let c_j = hb.clock(q);
        let upto = (cursor.min(horizon as isize - 1)).max(-1);
        for i in (0..=upto).rev() {
            let i = i as usize;
            if decisions[i].chosen == q {
                continue;
            }
            if !exec_op[i].conflicts(&o_j) {
                continue;
            }
            let both_vars =
                matches!(exec_op[i], OpDesc::Var { .. }) && matches!(o_j, OpDesc::Var { .. });
            if both_vars {
                if let Some(c_i) = &decision_clock[i] {
                    if c_i.leq(c_j) {
                        // Already happens-before ordered: not reorderable.
                        continue;
                    }
                }
            }
            let add = if enabled[i].iter().any(|(t, _)| *t == q) {
                (i, Some(q.0))
            } else {
                (i, None)
            };
            adds.insert(add);
            break; // Only the latest reorderable conflict matters.
        }
    }

    adds.into_iter()
        .map(|(i, t)| match t {
            Some(t) => (i, Add::Task(TaskId(t))),
            None => (i, Add::All),
        })
        .collect()
}
