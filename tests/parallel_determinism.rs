//! Property tests for the parallel-exploration determinism contract: for
//! *arbitrary* worker counts, execution budgets and checkpoint intervals,
//! `SearchStrategy::Dpor` on the budget's worker pool must return a failure
//! set, pruning count, full statistics block and per-interleaving
//! trace-hash sequence identical to the sequential explorer — on all four
//! paper workloads.
//!
//! This is the property CI's `determinism-matrix` job pins at fixed points
//! (`DD_SEARCH_WORKERS ∈ {1, 4}` crossed with `--test-threads`); here the
//! whole configuration cube is sampled. The worker pool may only buy
//! wall-clock time: the coordinator consumes runs in sequential order and
//! charges them against its canonical snapshot pool, so even the
//! `steps_executed`/`steps_skipped` split is worker-count-invariant.

mod common;

use common::all_workloads;
use debug_determinism::core::Workload;
use debug_determinism::replay::{enumerate_failures, search_with, InferenceBudget, SearchStrategy};
use proptest::prelude::*;

/// Sequential-vs-parallel comparison on one workload under one budget
/// configuration: failure sets, statistics, and the ordered trace-hash
/// sequence of every visited interleaving.
fn assert_equivalent(
    workload: &dyn Workload,
    workers: u32,
    budget_n: u64,
    interval: u64,
    depth: u32,
) -> Result<(), String> {
    let scenario = workload.scenario();
    let sequential = InferenceBudget::executions(budget_n).with_checkpoints(interval);
    let parallel = sequential.with_workers(workers);
    let dpor = SearchStrategy::Dpor { max_depth: depth };
    let label = format!(
        "{} / {workers} workers / budget {budget_n} / interval {interval} / depth {depth}",
        workload.name()
    );

    let (seq_failures, seq_stats) = enumerate_failures(&scenario, &sequential, dpor);
    let (par_failures, par_stats) = enumerate_failures(&scenario, &parallel, dpor);
    if par_failures != seq_failures {
        return Err(format!(
            "{label}: failure set diverged ({par_failures:?} vs {seq_failures:?})"
        ));
    }
    if par_stats != seq_stats {
        return Err(format!(
            "{label}: statistics diverged ({par_stats:?} vs {seq_stats:?})"
        ));
    }

    let hashes = |budget: InferenceBudget| -> Vec<u64> {
        let collected = std::cell::RefCell::new(Vec::new());
        search_with(&scenario, &budget, dpor, None, |out| {
            collected.borrow_mut().push(common::trace_hash(out));
            false
        });
        collected.into_inner()
    };
    let seq_hashes = hashes(sequential);
    let par_hashes = hashes(parallel);
    if par_hashes != seq_hashes {
        return Err(format!(
            "{label}: walk order or an interleaving's trace diverged"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full configuration cube, sampled: any worker count (1..=8), any
    /// small execution budget, any checkpoint interval (0 = scratch), any
    /// branching depth — parallel DPOR is byte-identical to sequential
    /// DPOR on every workload.
    #[test]
    fn parallel_dpor_equals_sequential_for_any_configuration(
        workers in 1u32..9,
        budget_n in 10u64..60,
        interval in 0u64..4,
        depth in 2u32..6,
    ) {
        for workload in all_workloads() {
            assert_equivalent(workload.as_ref(), workers, budget_n, interval, depth)?;
        }
    }

    /// The deep-horizon regime — where snapshots actually carry work and
    /// workers genuinely race ahead — sampled on the msgserver incident.
    #[test]
    fn parallel_dpor_equals_sequential_at_deep_horizons(
        workers in 2u32..9,
        budget_n in 20u64..50,
        interval in 1u64..3,
    ) {
        let workload = common::msgserver();
        assert_equivalent(&workload, workers, budget_n, interval, 256)?;
    }
}
