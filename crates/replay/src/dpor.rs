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
//!   [`OpDesc::of_event`]. The pass reads the run's events in place and
//!   keeps one clock component per in-horizon transition — its own task's,
//!   which decides happens-before exactly — not a copy of the clock. Per
//!   event it does no hashing, tree walk or allocation: its buffers are
//!   kept across the walk's runs (see `Backtracker::backtrack_points`).
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
//! from the deepest snapshot on its forced prefix instead of re-executing
//! the shared prefix from the first instruction. Forking is invisible to
//! the search: the same interleavings are visited in the same order with
//! bit-identical traces, and only the genuinely executed steps are charged
//! to [`InferenceStats`].
//!
//! One deliberate asymmetry: because inherited (skipped) ticks are not
//! re-spent, a `max_ticks`-bounded budget stretches further under
//! checkpointing — the walk covers *more* interleavings before the tick
//! cutoff than scratch does. Walk-for-walk equivalence (same interleavings,
//! same failure set) is therefore guaranteed under execution-count budgets;
//! under tick budgets checkpointed search dominates scratch rather than
//! mirroring it.

use crate::explorer::{InferenceBudget, InferenceStats};
use crate::scenario::{PolicyChoice, RunSpec, Scenario};
use dd_detect::HbClocks;
use dd_sim::{
    CheckpointPlan, DecisionKind, EnvConfig, Event, InputScript, OpDesc, PrefixPolicy, RunOutput,
    TaskId, WorldSnapshot,
};
use std::collections::{BTreeMap, BTreeSet};

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
    /// branch resumes from the deepest snapshot on its forced prefix
    /// instead of re-executing from the first instruction. `None`
    /// re-executes every branch from scratch.
    pub checkpoint_every: Option<u64>,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Add {
    /// The conflicting task was enabled at the node: explore it there.
    Task(TaskId),
    /// The conflicting task was not enabled: explore every sibling.
    All,
}

/// Walks the schedule tree rooted at `cfg`'s run parameters, calling
/// `visit` on every executed interleaving. Stops when `visit` returns
/// `true` (returning that run), the tree is exhausted (`None`), or the
/// budget runs out (`None`). `stats` accumulates across calls so one budget
/// can span several trees.
///
/// Each run is charged with [`InferenceStats::charge_run`], so a run
/// resumed from a pool snapshot pays only for the steps and ticks past it.
pub(crate) fn explore_tree(
    scenario: &Scenario,
    cfg: &TreeConfig<'_>,
    budget: &InferenceBudget,
    stats: &mut InferenceStats,
    visit: &mut dyn FnMut(&RunOutput) -> bool,
) -> Option<(RunOutput, RunSpec)> {
    // A usable snapshot must sit strictly inside a future forced prefix, and
    // prefixes never exceed `max_depth`, so the deepest restorable snapshot
    // is at decision `max_depth - 1`; one at `max_depth` itself would be a
    // full-world clone nothing can ever restore.
    let plan = cfg
        .checkpoint_every
        .map(|k| CheckpointPlan::new(k, (cfg.max_depth as u64).saturating_sub(1)));
    let mut stack: Vec<Node> = Vec::new();
    let mut prefix: Vec<u32> = Vec::new();
    // Snapshots along the *current* DFS path, keyed by decision index. An
    // entry at `d` captures the world before decision `d`, with decisions
    // `0..d` equal to `prefix[0..d]`; the backtrack step drops entries past
    // each fork point, so every entry stays on the path. Snapshots share
    // their sealed history chunks (`dd_sim::ChunkedLog`) with each other and
    // with every run forked from them, so an entry costs O(live state), not
    // O(history).
    let mut pool: BTreeMap<u64, WorldSnapshot> = BTreeMap::new();
    let mut backtracker = Backtracker::default();
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
        // Fork instead of replaying from scratch: restore the deepest
        // snapshot strictly inside the prefix (the fork decision itself is
        // `prefix.len() - 1`) and force only the remaining prefix decisions.
        let mut out = match (plan, pool.range(..prefix.len() as u64).next_back()) {
            (None, _) => scenario.execute(&spec, vec![]),
            (Some(plan), None) => scenario.execute_checkpointed(&spec, plan, vec![]),
            (Some(plan), Some((&d, snap))) => {
                debug_assert!(
                    snap.decision_prefix()
                        .eq(prefix[..d as usize].iter().copied()),
                    "the pool's snapshot at decision {d} is off the current path"
                );
                let forced = prefix[d as usize..].to_vec();
                let policy = Box::new(PrefixPolicy::new(forced, cfg.tail_seed));
                scenario.resume(&spec, snap, policy, plan)
            }
        };
        for s in std::mem::take(&mut out.snapshots) {
            pool.insert(s.at_decision(), s);
        }
        stats.charge_run(&out);

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
            for &(i, add) in backtracker.backtrack_points(&out, cfg.max_depth) {
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
        if visit(&out) {
            stats.found = true;
            stats.found_at = Some(stats.explored - 1);
            return Some((out, spec));
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

/// A transition whose clock has not been taken: its decision's chosen task
/// has not executed since the grant.
const NOT_EXECUTED: u64 = u64::MAX;

/// The conflict analysis that grows DPOR's backtrack sets, one run at a
/// time. One instance serves a whole walk: every buffer is cleared, not
/// freed, between runs, so once the tables have grown to the walk's
/// largest run the pass allocates nothing.
#[derive(Default)]
struct Backtracker {
    /// Happens-before clocks of the run's tasks.
    hb: HbClocks,
    /// Per in-horizon decision: the chosen task and the footprint of its
    /// transition (the op it was parked on when granted, known even when
    /// the attempt blocked).
    transitions: Vec<(TaskId, OpDesc)>,
    /// Per in-horizon decision: the chosen task's own component of its
    /// transition's clock, or [`NOT_EXECUTED`].
    own: Vec<u64>,
    /// The additions found in the last run, sorted, each once.
    adds: Vec<(usize, Add)>,
}

impl Backtracker {
    /// Finds the backtrack points one executed run implies, each once.
    ///
    /// For every executed operation `j` by task `q`, scans the decisions
    /// inside the branching horizon for the *latest* one whose transition
    /// conflicts with `j` and was taken by a different task. Variable
    /// conflicts are additionally filtered through the happens-before
    /// check (a write that already happened-before the access cannot be
    /// reordered with it); resource-competition conflicts (locks,
    /// channels, ports, RNG, condition variables) create happens-before
    /// edges themselves, so they are always treated as reorderable.
    ///
    /// The happens-before check reads one component. The transition at
    /// decision `i` is an event of its chosen task `p`, and an event's
    /// clock is the only source of its own tick, so its clock `c_i` and
    /// `j`'s clock `c_j` satisfy `c_i ≤ c_j` exactly when
    /// `c_i[p] ≤ c_j[p]`. The pass therefore keeps each transition's clock
    /// as `c_i[p]` alone instead of copying it. Per event, the engine does
    /// work bounded by the number of tasks (a join or a send copies one
    /// clock), and the scan does one comparison per decision it passes
    /// plus one enabled-set lookup where it stops. Nothing is hashed, no
    /// tree is walked, and nothing is allocated once the buffers have
    /// grown.
    fn backtrack_points(&mut self, out: &RunOutput, max_depth: usize) -> &[(usize, Add)] {
        self.adds.clear();
        let horizon = out.decisions.len().min(max_depth);
        if horizon == 0 {
            return &self.adds;
        }
        self.own.clear();
        self.own.resize(horizon, NOT_EXECUTED);
        self.transitions.clear();
        let in_horizon = out.decisions.iter().zip(&out.decision_enabled);
        for (d, en) in in_horizon.take(horizon) {
            let op = en
                .iter()
                .find(|(t, _)| *t == d.chosen)
                .and_then(|(_, desc)| *desc)
                .unwrap_or(OpDesc::Global);
            self.transitions.push((d.chosen, op));
        }
        self.hb.reset();

        // Index of the latest Decision event seen.
        let mut cursor: Option<usize> = None;
        // Decision whose transition's clock is still outstanding.
        let mut awaiting: Option<(usize, TaskId)> = None;
        for (_, event) in &out.trace {
            match event {
                Event::Decision { kind, chosen, .. } => {
                    let i = cursor.map_or(0, |c| c + 1);
                    cursor = Some(i);
                    awaiting = match kind {
                        // The next op event after a NextTask grant is the
                        // chosen task's transition. WakeOne decisions happen
                        // inside a notifier's op; their transition clock is
                        // not needed (cvar conflicts never take the clock
                        // path).
                        DecisionKind::NextTask if i < horizon => Some((i, *chosen)),
                        _ => None,
                    };
                    continue;
                }
                // A spawn advances only the child's clock, and the scan
                // treats it as neither a decision's transition nor a
                // conflicting operation.
                Event::TaskSpawn { .. } => {
                    self.hb.observe(event);
                    continue;
                }
                _ => {}
            }

            // 1. Happens-before bookkeeping.
            let Some(q) = self.hb.observe(event) else {
                continue;
            };

            // 2. Take the awaited decision-transition clock.
            if let Some((i, t)) = awaiting {
                if t == q {
                    self.own[i] = self.hb.clock(q).get(q);
                    awaiting = None;
                }
            }

            // 3. Conflict scan for this executed operation. Task-local
            //    operations are skipped: they commute with every other
            //    operation, so reordering one never reaches a new state.
            let Some(o_j) = OpDesc::of_event(event).filter(|op| *op != OpDesc::Local) else {
                continue;
            };
            let Some(latest) = cursor else { continue };
            let c_j = self.hb.clock(q);
            for i in (0..=latest.min(horizon - 1)).rev() {
                let (p, op) = self.transitions[i];
                if p == q || !op.conflicts(&o_j) {
                    continue;
                }
                let both_vars =
                    matches!(op, OpDesc::Var { .. }) && matches!(o_j, OpDesc::Var { .. });
                if both_vars && self.own[i] <= c_j.get(p) {
                    // Already happens-before ordered: not reorderable.
                    continue;
                }
                let add = if out.decision_enabled[i].iter().any(|(t, _)| *t == q) {
                    Add::Task(q)
                } else {
                    Add::All
                };
                self.adds.push((i, add));
                break; // Only the latest reorderable conflict matters.
            }
        }
        self.adds.sort_unstable();
        self.adds.dedup();
        &self.adds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{search_with, InferenceBudget, SearchStrategy};
    use crate::scenario::{incident_variants, NondetSpace};
    use dd_detect::VectorClock;
    use dd_sim::{Builder, Program};
    use std::cell::{Cell, RefCell};
    use std::sync::Arc;

    /// The pass as it was before the one-component check: every task's
    /// full clock from the engine, a `BTreeSet` of additions, and fresh
    /// buffers per run. Kept as the reference the pass must agree with.
    ///
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
    fn reference_backtrack_points(out: &RunOutput, max_depth: usize) -> Vec<(usize, Add)> {
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

    /// Checks the pass against the reference on every run of `strategy`'s
    /// walk over `scenario`, one pass serving the whole walk. Returns the
    /// runs and the additions compared.
    fn compare_on_walk(
        scenario: &Scenario,
        strategy: SearchStrategy,
        budget: &InferenceBudget,
    ) -> (u64, usize) {
        let depth = strategy.max_depth().expect("systematic") as usize;
        let pass = RefCell::new(Backtracker::default());
        let adds = Cell::new(0);
        let result = search_with(scenario, budget, strategy, None, |out| {
            let mut got = pass.borrow_mut().backtrack_points(out, depth).to_vec();
            let mut want = reference_backtrack_points(out, depth);
            got.sort();
            want.sort();
            assert_eq!(
                got, want,
                "seed {}: {strategy:?}, checkpoint interval {}",
                scenario.seed, budget.checkpoint_interval
            );
            adds.set(adds.get() + got.len());
            false
        });
        (result.stats.explored, adds.get())
    }

    /// A writer of `x` that then spawns a second writer of `x`, beside a
    /// third task writing it: the spawn orders the child's write after its
    /// parent's, while the third task's write races both.
    struct SpawnAfterWrite;

    impl Program for SpawnAfterWrite {
        fn name(&self) -> &'static str {
            "spawn-after-write"
        }

        fn setup(&self, b: &mut Builder<'_>) {
            let x = b.var("x", 0i64);
            b.spawn("parent", "g", move |mut ctx| async move {
                ctx.write(&x, 1, "parent::write").await?;
                ctx.spawn("child", "g", move |mut c| async move {
                    c.write(&x, 2, "child::write").await
                })
                .await?;
                Ok(())
            });
            b.spawn("other", "g", move |mut ctx| async move {
                ctx.yield_now("other::yield").await?;
                ctx.write(&x, 3, "other::write").await
            });
        }
    }

    /// The exhaustive walk, and a DPOR walk at every horizon up to its
    /// depth. A horizon just before the spawn's decision lets the child's
    /// write scan past it to the parent's write, whose own component the
    /// child's clock holds unchanged: the equality case of the
    /// one-component check.
    #[test]
    fn the_pass_adds_what_the_reference_adds_on_spawn_ordered_and_racing_writes() {
        let scenario = Scenario {
            program: Arc::new(SpawnAfterWrite),
            seed: 0,
            sched_seed: 0,
            inputs: InputScript::new(),
            env: EnvConfig::clean(),
            max_steps: 10_000,
            failure_of: Arc::new(|_| None),
            space: NondetSpace::schedules_only(1, InputScript::new()),
        };
        let budget = InferenceBudget::executions(1000);
        let strategies = std::iter::once(SearchStrategy::Exhaustive { max_depth: 16 })
            .chain((1..=16).map(|max_depth| SearchStrategy::Dpor { max_depth }));
        for strategy in strategies {
            let (runs, adds) = compare_on_walk(&scenario, strategy, &budget);
            assert!(
                runs >= 1 && adds > 0,
                "{strategy:?}: {runs} runs, {adds} additions"
            );
        }
    }

    /// Every run of every walk the strategies below take over msgserver,
    /// hyperstore and failover — DPOR at depths 4, 8 and 256 and the
    /// exhaustive depth-4 walk, each from scratch and checkpointed — gets
    /// the same backtrack additions from the pass as from the reference.
    /// One pass serves each walk, so its buffers are reused run to run.
    #[test]
    fn the_pass_adds_what_the_reference_adds_on_every_walk_run() {
        let strategies = [
            SearchStrategy::Dpor { max_depth: 4 },
            SearchStrategy::Dpor { max_depth: 8 },
            SearchStrategy::Dpor { max_depth: 256 },
            SearchStrategy::Exhaustive { max_depth: 4 },
        ];
        let (mut runs, mut adds) = (0, 0);
        for name in ["msgserver", "hyperstore", "failover"] {
            for scenario in incident_variants(name) {
                for strategy in strategies {
                    for interval in [0, 1] {
                        let budget = InferenceBudget::executions(12).with_checkpoints(interval);
                        let (walk_runs, walk_adds) = compare_on_walk(&scenario, strategy, &budget);
                        runs += walk_runs;
                        adds += walk_adds;
                    }
                }
            }
        }
        assert_eq!(runs, 3 * 3 * 4 * 2 * 12, "every walk spends its budget");
        assert!(
            adds > runs as usize,
            "the walks must find conflicts to compare"
        );
    }
}
