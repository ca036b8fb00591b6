//! Search-strategy integration tests: random vs PCT candidate generation,
//! systematic exhaustive vs DPOR exploration, determinism of inference
//! results, and pruned-vs-executed budget accounting.

use dd_replay::{
    enumerate_failures, search_with, InferenceBudget, NondetSpace, Scenario, SearchStrategy,
};
use dd_sim::{Builder, ChanClass, EnvConfig, InputScript, Program};
use std::sync::Arc;

/// A counter whose failure (lost updates) needs a racy interleaving.
struct RacyCounter;

impl Program for RacyCounter {
    fn name(&self) -> &'static str {
        "racy"
    }

    fn setup(&self, b: &mut Builder<'_>) {
        let total = b.var("total", 0i64);
        let out = b.out_port("result");
        let done = b.channel::<i64>("done", ChanClass::Local);
        for i in 0..2 {
            b.spawn(&format!("w{i}"), "g", move |mut ctx| async move {
                for _ in 0..10 {
                    let v = ctx.read(&total, "w::read").await?;
                    ctx.write(&total, v + 1, "w::write").await?;
                }
                ctx.send(&done, 1, "w::done").await
            });
        }
        b.spawn("r", "g", move |mut ctx| async move {
            for _ in 0..2 {
                ctx.recv(&done, "r::recv").await?;
            }
            let v = ctx.read(&total, "r::read").await?;
            ctx.output(out, v, "r::out").await
        });
    }
}

fn scenario() -> Scenario {
    Scenario {
        program: Arc::new(RacyCounter),
        seed: 3,
        sched_seed: 3,
        inputs: InputScript::new(),
        env: EnvConfig::clean(),
        max_steps: 100_000,
        failure_of: Arc::new(|io| {
            let total = io.outputs_on("result").first().and_then(|v| v.as_int())?;
            (total < 20).then(|| dd_trace::FailureSnapshot {
                failure_id: "lost-updates".into(),
                description: format!("total {total} < 20"),
                crashes: vec![],
                counters: Default::default(),
            })
        }),
        space: NondetSpace::schedules_only(32, InputScript::new()),
    }
}

fn lost_updates(out: &dd_sim::RunOutput) -> bool {
    out.io
        .outputs_on("result")
        .first()
        .and_then(|v| v.as_int())
        .is_some_and(|t| t < 20)
}

#[test]
fn both_strategies_find_the_race() {
    let s = scenario();
    let budget = InferenceBudget::executions(32);
    let random = search_with(&s, &budget, SearchStrategy::Random, None, lost_updates);
    assert!(random.stats.found, "random search should find lost updates");
    let pct = search_with(
        &s,
        &budget,
        SearchStrategy::Pct {
            expected_len: 60,
            depth: 2,
        },
        None,
        lost_updates,
    );
    assert!(pct.stats.found, "PCT search should find lost updates");
}

#[test]
fn search_results_are_deterministic() {
    let s = scenario();
    let budget = InferenceBudget::executions(32);
    for strategy in [
        SearchStrategy::Random,
        SearchStrategy::Pct {
            expected_len: 60,
            depth: 2,
        },
    ] {
        let a = search_with(&s, &budget, strategy, None, lost_updates);
        let b = search_with(&s, &budget, strategy, None, lost_updates);
        assert_eq!(a.stats, b.stats, "{strategy:?}");
        assert_eq!(
            a.run.map(|r| r.io),
            b.run.map(|r| r.io),
            "{strategy:?}: accepted runs must be identical"
        );
    }
}

#[test]
fn tick_budget_bounds_the_search() {
    let s = scenario();
    // A tick budget smaller than one run: at most one candidate executes.
    let budget = InferenceBudget::builder()
        .max_executions(100)
        .max_ticks(10)
        .build()
        .expect("valid budget");
    let r = search_with(&s, &budget, SearchStrategy::Random, None, |_| false);
    assert!(r.stats.explored <= 2, "tick budget ignored: {:?}", r.stats);
}

#[test]
fn systematic_strategies_find_the_race() {
    let s = scenario();
    let budget = InferenceBudget::executions(512);
    for strategy in [
        SearchStrategy::Exhaustive { max_depth: 6 },
        SearchStrategy::Dpor { max_depth: 6 },
    ] {
        let r = search_with(&s, &budget, strategy, None, lost_updates);
        assert!(r.stats.found, "{strategy:?} should find lost updates");
        assert!(r.run.is_some() && r.spec.is_some());
    }
}

#[test]
fn dpor_matches_exhaustive_failure_set_with_fewer_runs() {
    let s = scenario();
    let budget = InferenceBudget::executions(4_000);
    let (ex_failures, ex_stats) =
        enumerate_failures(&s, &budget, SearchStrategy::Exhaustive { max_depth: 5 });
    let (po_failures, po_stats) =
        enumerate_failures(&s, &budget, SearchStrategy::Dpor { max_depth: 5 });
    assert!(
        ex_stats.explored < budget.max_executions,
        "exhaustive tree must fit the budget for a fair comparison \
         (executed {})",
        ex_stats.explored
    );
    assert_eq!(po_failures, ex_failures, "DPOR must find the same failures");
    assert!(
        po_stats.explored < ex_stats.explored,
        "DPOR must execute strictly fewer interleavings ({} vs {})",
        po_stats.explored,
        ex_stats.explored
    );
    assert!(po_stats.pruned > 0, "DPOR should report pruned branches");
    assert_eq!(ex_stats.pruned, 0, "exhaustive never prunes");
}

#[test]
fn pruned_branches_do_not_burn_the_execution_budget() {
    let s = scenario();
    // A budget DPOR exhausts: executed interleavings alone must hit the cap.
    let budget = InferenceBudget::executions(8);
    let (_, stats) = enumerate_failures(&s, &budget, SearchStrategy::Dpor { max_depth: 5 });
    assert_eq!(
        stats.explored, 8,
        "executed runs stop exactly at the budget"
    );
    // Pruning is accounted separately from the execution budget: a budget
    // of exactly the executed count must still cover the whole tree. Under
    // the pre-fix conflation, pruned branches would burn budget and the
    // exact-budget run would stop `pruned` executions short.
    let generous = InferenceBudget::executions(4_000);
    let (full_failures, full) =
        enumerate_failures(&s, &generous, SearchStrategy::Dpor { max_depth: 5 });
    assert!(full.pruned > 0, "racy counter must offer pruning");
    assert!(full.explored < generous.max_executions, "tree fits budget");
    let exact = InferenceBudget::executions(full.explored);
    let (exact_failures, capped) =
        enumerate_failures(&s, &exact, SearchStrategy::Dpor { max_depth: 5 });
    assert_eq!(
        capped.explored, full.explored,
        "a budget equal to the executed count must cover the whole tree \
         — pruned branches may not burn it"
    );
    assert_eq!(capped.pruned, full.pruned);
    assert_eq!(exact_failures, full_failures);
}

#[test]
fn systematic_search_is_deterministic() {
    let s = scenario();
    let budget = InferenceBudget::executions(256);
    for strategy in [
        SearchStrategy::Exhaustive { max_depth: 5 },
        SearchStrategy::Dpor { max_depth: 5 },
    ] {
        let a = search_with(&s, &budget, strategy, None, lost_updates);
        let b = search_with(&s, &budget, strategy, None, lost_updates);
        assert_eq!(a.stats, b.stats, "{strategy:?}");
        assert_eq!(
            a.run.map(|r| r.io),
            b.run.map(|r| r.io),
            "{strategy:?}: accepted runs must be identical"
        );
    }
}

#[test]
fn budget_strategy_drives_plain_search() {
    let s = scenario();
    let budget = InferenceBudget::dpor(512, 6);
    let r = dd_replay::search(&s, &budget, None, lost_updates);
    assert!(r.stats.found, "budget-selected DPOR should find the race");
    let spec = r.spec.unwrap();
    assert!(
        matches!(spec.policy, dd_replay::PolicyChoice::Prefix(..)),
        "systematic strategies produce prefix-forced specs"
    );
}

/// Checkpointed (fork-based) DFS is an *execution strategy*, not a search
/// strategy: it must visit the same interleavings in the same order, find
/// the same failures, and prune the same branches as from-scratch DFS —
/// while executing fewer kernel operations once the branching horizon is
/// deep enough for prefixes to carry real work.
#[test]
fn checkpointed_dfs_matches_scratch_dfs_exactly() {
    let s = scenario();
    for strategy in [
        SearchStrategy::Exhaustive { max_depth: 24 },
        SearchStrategy::Dpor { max_depth: 24 },
    ] {
        let budget = InferenceBudget::executions(120);
        let (scratch_failures, scratch) = enumerate_failures(&s, &budget, strategy);
        let (ck_failures, ck) = enumerate_failures(&s, &budget.with_checkpoints(1), strategy);
        assert_eq!(
            ck_failures, scratch_failures,
            "{strategy:?}: failure sets diverged"
        );
        assert_eq!(
            ck.explored, scratch.explored,
            "{strategy:?}: walk order changed"
        );
        assert_eq!(ck.pruned, scratch.pruned, "{strategy:?}: pruning changed");
        // Scratch and checkpointed walks cover the same interleavings, so
        // executed + skipped must equal scratch's executed total.
        assert_eq!(
            ck.steps_executed + ck.steps_skipped,
            scratch.steps_executed,
            "{strategy:?}: step accounting inconsistent"
        );
        assert!(
            ck.steps_skipped > 0,
            "{strategy:?}: nothing was skipped at depth 24"
        );
        let ck_speedup = ck.replay_speedup().expect("depth 24 executes live steps");
        assert!(ck_speedup > 1.0);
        assert_eq!(scratch.replay_speedup(), Some(1.0));
    }
}

/// The snapshot-interval policy trades snapshot count for restore depth:
/// any interval must leave the walk's results untouched.
#[test]
fn snapshot_interval_does_not_change_results() {
    let s = scenario();
    let strategy = SearchStrategy::Exhaustive { max_depth: 16 };
    let base = enumerate_failures(&s, &InferenceBudget::executions(80), strategy);
    for interval in [1u64, 2, 5] {
        let ck = enumerate_failures(
            &s,
            &InferenceBudget::executions(80).with_checkpoints(interval),
            strategy,
        );
        assert_eq!(ck.0, base.0, "interval {interval}: failure set changed");
        assert_eq!(ck.1.explored, base.1.explored);
        assert_eq!(
            ck.1.steps_executed + ck.1.steps_skipped,
            base.1.steps_executed,
            "interval {interval}"
        );
    }
}

/// A found run from a checkpointed search must carry a spec that reproduces
/// it from scratch (the returned prefix is always the full one).
#[test]
fn checkpointed_search_returns_scratch_reproducible_specs() {
    let s = scenario();
    let budget = InferenceBudget::executions(200).with_checkpoints(1);
    let found = search_with(
        &s,
        &budget,
        SearchStrategy::Exhaustive { max_depth: 24 },
        None,
        |out| {
            out.io
                .outputs_on("result")
                .first()
                .and_then(|v| v.as_int())
                .is_some_and(|t| t < 20)
        },
    );
    assert!(
        found.stats.found,
        "racy counter must lose updates somewhere"
    );
    let run = found.run.expect("accepting run returned");
    let spec = found.spec.expect("accepting spec returned");
    // Re-execute the spec from scratch: identical observable behaviour.
    let again = s.execute(&spec, vec![]);
    assert_eq!(again.io, run.io);
    assert_eq!(again.decisions, run.decisions);
}
