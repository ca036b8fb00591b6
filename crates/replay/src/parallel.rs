//! Multi-worker schedule exploration: a work-stealing frontier over the
//! snapshot pool.
//!
//! Independent subtrees of the schedule tree are embarrassingly parallel —
//! every pending backtrack branch's first run depends only on its forced
//! prefix, not on when (or where) it executes. This module exploits that
//! while keeping the search *byte-identical* to the sequential explorer:
//!
//! - A single **coordinator** thread runs the exact sequential DFS
//!   (`dpor::walk`): the stack, DPOR backtrack sets, budget
//!   checks, pruning counts, snapshot-pool evolution and statistics all
//!   live on one thread and are consumed in sequential order. Nothing a
//!   caller can observe — the interleavings visited, their order, the
//!   failure set, per-interleaving trace hashes, or any
//!   [`InferenceStats`] field — depends on the
//!   worker count.
//! - N **workers** each own a private execution shell (their runs build
//!   their own kernels, observers, policy clones and coroutine engines —
//!   see `dd-sim`'s world/shell split). They pull
//!   jobs from a shared LIFO frontier of `(forced prefix, deepest usable
//!   WorldSnapshot)` items, restore the snapshot, force the remaining
//!   prefix, and post the finished [`RunOutput`] back. Restoring is cheap
//!   everywhere: a snapshot's history lives in `Send + Sync`
//!   `dd_sim::ChunkedLog` chunks shared across the whole pool and all
//!   worker threads, so a fork clones O(live state), never the trace.
//! - After consuming each run, the coordinator **speculatively enqueues**
//!   every branch pending anywhere on its stack (all of them will be
//!   consumed eventually; DPOR backtrack sets only grow). The frontier is
//!   popped deepest-first — the branch the DFS consumes next — so workers
//!   race just ahead of the walk. When the coordinator needs a run that is
//!   still queued, it bumps that job to the top and blocks until a worker
//!   posts it.
//!
//! # Why determinism survives the parallelism
//!
//! Every cross-thread interaction is canonicalized at the coordinator:
//!
//! - **Run outputs** are prefix-deterministic: restore + re-run is
//!   bit-identical to scratch execution (the `dd-sim` snapshot guarantee),
//!   so a worker forking from whichever snapshot existed at enqueue time
//!   produces the same trace the sequential explorer would.
//! - **Budget and statistics accounting** happens only at consumption, in
//!   sequential order, and is charged against the walk's *canonical*
//!   snapshot pool rather than the worker's actual resume depth — so
//!   `explored`/`pruned`/`ticks`/`steps_executed`/`steps_skipped` are
//!   exact and worker-count-invariant (a worker resuming shallower than
//!   the canonical point only spends real wall-clock, never budget).
//! - **Backtrack-set merges** happen at consumption-order join points on
//!   the coordinator: conflict analysis of run *k* is applied before run
//!   *k + 1* is consumed, exactly as in the sequential walk.
//! - **Snapshot-pool merges** drop any snapshot a worker reports at or
//!   below the canonical resume point, so the pool evolves exactly as the
//!   sequential explorer's pool would.
//!
//! Speculative runs the budget cut off before consumption are wasted
//! wall-clock only; they are never charged. The scaling limit is *subtree
//! granularity* — parallelism comes from independent pending branches, so
//! a near-trivial tree (the one-run sum and bufoverflow walks) has
//! nothing to overlap, a deep chain-shaped region serializes on branch
//! discovery (each next branch is only exposed by executing the previous
//! run), and at shallow horizons every speculative run is a full
//! re-execution (no snapshot sits inside a 4-decision prefix), so workers
//! overlap whole runs but fork savings contribute nothing. The deep-wide
//! regime — the deep-horizon msgserver walk — is where both effects
//! compound: many pending subtrees in flight, each forked from a deep
//! snapshot.

use crate::dpor::{
    deepest_compatible, explore_tree, plan_of, walk, RunFetcher, SnapshotPool, TreeConfig,
};
use crate::explorer::{InferenceBudget, InferenceStats};
use crate::lock;
use crate::scenario::{PolicyChoice, RunSpec, Scenario};
use dd_sim::{CheckpointPlan, PrefixPolicy, RunOutput};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, PoisonError};

/// One unit of speculative work: a forced schedule prefix. The snapshot to
/// fork from is *not* bound here — the worker re-binds the deepest
/// compatible snapshot from the shared pool mirror when it actually starts
/// the job, so a branch queued early still benefits from snapshots
/// discovered later.
struct Job {
    prefix: Vec<u32>,
}

/// Frontier state behind the mutex.
struct FrontierQueue {
    /// Pending jobs, popped LIFO (deepest branch last = first out).
    jobs: Vec<Job>,
    /// Finished runs awaiting consumption, keyed by forced prefix.
    results: HashMap<Vec<u32>, RunOutput>,
    /// The prefix the coordinator is currently blocked on, if any. Workers
    /// may run it even when the result buffer is at its high-water mark.
    needed: Option<Vec<u32>>,
    /// Set once the walk returns; workers drain and exit.
    shutdown: bool,
    /// A worker's panic message, if one died mid-run. The coordinator
    /// re-raises it instead of waiting forever for the lost result.
    poisoned: Option<String>,
}

/// The shared frontier: job queue, result buffer, pool mirror and wake-up
/// plumbing.
struct Frontier {
    q: Mutex<FrontierQueue>,
    /// A mirror of the coordinator's canonical snapshot pool, refreshed at
    /// every consumption. Workers re-bind jobs against it at pop time;
    /// entries that the walk has since abandoned are harmless because
    /// compatibility is checked against the job's own prefix, never
    /// assumed.
    mirror: Mutex<SnapshotPool>,
    /// Signalled when jobs arrive, the needed prefix changes, or results
    /// are consumed (workers re-check the high-water mark).
    work: Condvar,
    /// Signalled when a worker posts a result.
    done: Condvar,
    /// Bound on buffered results: workers pause speculation past this point
    /// so a fast pool cannot balloon memory arbitrarily far ahead of the
    /// walk. The job the coordinator is blocked on is exempt.
    high_water: usize,
}

/// Executes one job inside a worker's private shell, forking from the
/// deepest compatible snapshot currently mirrored.
fn execute_job(
    scenario: &Scenario,
    cfg: &TreeConfig<'_>,
    plan: Option<CheckpointPlan>,
    fr: &Frontier,
    job: &Job,
) -> RunOutput {
    let spec = RunSpec {
        seed: cfg.seed,
        policy: PolicyChoice::Prefix(job.prefix.clone(), cfg.tail_seed),
        inputs: cfg.inputs.clone(),
        env: cfg.env.clone(),
    };
    let resume = match plan {
        Some(_) => deepest_compatible(&lock(&fr.mirror), &job.prefix),
        None => None,
    };
    match (plan, resume) {
        (Some(plan), Some((d, snap))) => {
            let forced: Vec<u32> = job.prefix[d as usize..].to_vec();
            scenario.resume(
                &spec,
                &snap,
                Box::new(PrefixPolicy::new(forced, cfg.tail_seed)),
                plan,
            )
        }
        (Some(plan), None) => scenario.execute_checkpointed(&spec, plan, vec![]),
        (None, _) => scenario.execute(&spec, vec![]),
    }
}

/// The worker loop: pop the deepest job, execute it, post the result.
///
/// A panicking run poisons the frontier instead of silently dying: the
/// coordinator would otherwise block forever on a result that will never
/// arrive. The poison re-raises the panic on the coordinator thread, which
/// is where the sequential explorer would have surfaced it.
fn worker_loop(
    scenario: &Scenario,
    cfg: &TreeConfig<'_>,
    plan: Option<CheckpointPlan>,
    fr: &Frontier,
) {
    loop {
        let job = {
            let mut q = lock(&fr.q);
            loop {
                if q.shutdown {
                    return;
                }
                let unthrottled = q.results.len() < fr.high_water
                    || q.jobs
                        .last()
                        .is_some_and(|j| q.needed.as_deref() == Some(j.prefix.as_slice()));
                if unthrottled {
                    if let Some(j) = q.jobs.pop() {
                        break j;
                    }
                }
                q = fr.work.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            execute_job(scenario, cfg, plan, fr, &job)
        }));
        let mut q = lock(&fr.q);
        match result {
            Ok(out) => {
                q.results.insert(job.prefix, out);
                fr.done.notify_all();
            }
            Err(payload) => {
                q.poisoned = Some(panic_message(payload.as_ref()));
                q.shutdown = true;
                fr.done.notify_all();
                fr.work.notify_all();
                return;
            }
        }
    }
}

/// Best-effort extraction of a worker panic's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// The coordinator-side fetcher: schedules jobs on the frontier and blocks
/// on the one the walk needs next.
struct ParallelRuns<'a, 'cfg> {
    fr: &'a Frontier,
    scenario: &'a Scenario,
    cfg: &'a TreeConfig<'cfg>,
    plan: Option<CheckpointPlan>,
    /// Prefixes already enqueued (or already consumed); the walk never
    /// fetches the same prefix twice, so this only prevents duplicate
    /// speculation.
    scheduled: HashSet<Vec<u32>>,
}

impl ParallelRuns<'_, '_> {
    /// Refreshes the workers' pool mirror from the walk's canonical pool
    /// (`Arc` clones — the worlds themselves are shared, not copied).
    fn refresh_mirror(&self, pool: &SnapshotPool) {
        *lock(&self.fr.mirror) = pool.clone();
    }
}

impl RunFetcher for ParallelRuns<'_, '_> {
    fn fetch(&mut self, _spec: &RunSpec, prefix: &[u32], pool: &SnapshotPool) -> RunOutput {
        self.refresh_mirror(pool);
        let mut q = lock(&self.fr.q);
        if let Some(out) = q.results.remove(prefix) {
            self.fr.work.notify_all(); // Buffer shrank below the high-water mark.
            return out;
        }
        // Not finished. If no worker has claimed the job yet (still
        // queued, or never scheduled), execute it inline on this thread:
        // waiting for a worker to wake, pop, execute and post back would
        // insert a cross-thread round trip into the serial discovery chain
        // — exactly the path that dominates when subtrees are shallow.
        let claimed = self.scheduled.insert(prefix.to_vec());
        let queued = q.jobs.iter().position(|j| j.prefix == prefix);
        if claimed || queued.is_some() {
            if let Some(pos) = queued {
                q.jobs.remove(pos);
            }
            drop(q);
            let job = Job {
                prefix: prefix.to_vec(),
            };
            return execute_job(self.scenario, self.cfg, self.plan, self.fr, &job);
        }
        // In flight on a worker: block until it posts the result.
        q.needed = Some(prefix.to_vec());
        self.fr.work.notify_all();
        loop {
            if let Some(msg) = &q.poisoned {
                panic!("a parallel-exploration worker panicked: {msg}");
            }
            if let Some(out) = q.results.remove(prefix) {
                q.needed = None;
                // Consuming a result frees buffer space below the
                // high-water mark.
                self.fr.work.notify_all();
                return out;
            }
            q = self.fr.done.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn speculate(&mut self, branches: Vec<Vec<u32>>, pool: &SnapshotPool) {
        self.refresh_mirror(pool);
        let fresh: Vec<Job> = branches
            .into_iter()
            .filter(|prefix| self.scheduled.insert(prefix.clone()))
            .map(|prefix| Job { prefix })
            .collect();
        if !fresh.is_empty() {
            let mut q = lock(&self.fr.q);
            q.jobs.extend(fresh);
            self.fr.work.notify_all();
        }
    }
}

/// [`explore_tree`] with the run executions
/// spread over the budget's [`workers`](InferenceBudget::workers) threads.
///
/// `workers <= 1` falls through to the sequential explorer — which is also
/// the equivalence oracle: for any worker count the parallel walk returns
/// the byte-identical failure set, walk order, per-interleaving traces and
/// statistics (pinned by `tests/conformance.rs`, the parallel-determinism
/// proptests, and CI's `determinism-matrix` job).
///
/// A panicking run panics the caller, as it would sequentially: a worker's
/// panic through the frontier's poison, a run on the coordinator thread
/// once the workers have been told to exit.
pub(crate) fn explore_tree_parallel(
    scenario: &Scenario,
    cfg: &TreeConfig<'_>,
    budget: &InferenceBudget,
    stats: &mut InferenceStats,
    visit: &mut dyn FnMut(&RunOutput, &RunSpec) -> bool,
) -> Option<(RunOutput, RunSpec)> {
    // An explicit worker count is honored as-is — the determinism contract
    // makes any pool size return identical results, so the only cost of
    // oversubscription is wall-clock, and tests/benches need the frontier
    // to actually run to measure (or pin) anything. Host-sizing the pool
    // is the *defaulted* path's job: `InferenceBudget::default_worker_pool`
    // resolves to 1 on single-core hosts, where speculating workers could
    // only steal cycles from the coordinator.
    let workers = budget.workers;
    if workers <= 1 {
        return explore_tree(scenario, cfg, budget, stats, visit);
    }
    let plan = plan_of(cfg);
    let fr = Frontier {
        q: Mutex::new(FrontierQueue {
            jobs: Vec::new(),
            results: HashMap::new(),
            needed: None,
            shutdown: false,
            poisoned: None,
        }),
        mirror: Mutex::new(SnapshotPool::new()),
        work: Condvar::new(),
        done: Condvar::new(),
        high_water: workers as usize * 4 + 16,
    };
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| worker_loop(scenario, cfg, plan, &fr));
        }
        let mut fetcher = ParallelRuns {
            fr: &fr,
            scenario,
            cfg,
            plan,
            scheduled: HashSet::new(),
        };
        // The walk runs some runs on this thread, the root run always
        // among them. Whether it returns or one of those runs panics, the
        // workers must be told to exit before the scope joins them.
        let result = catch_unwind(AssertUnwindSafe(|| {
            walk(cfg, budget, stats, visit, &mut fetcher)
        }));
        lock(&fr.q).shutdown = true;
        fr.work.notify_all();
        result.unwrap_or_else(|payload| resume_unwind(payload))
    })
}
