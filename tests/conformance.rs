//! Cross-model conformance suite: the paper's *semantic* invariants,
//! checked for every determinism model over every workload and a seed grid.
//!
//! What CI enforces here, beyond trace-hash stability:
//!
//! - **The fidelity lattice** (perfect ⊨ value ⊨ output ⊨ failure): each
//!   model's satisfied artifact must imply every weaker model's guarantee —
//!   a perfect replay is value-identical, a divergence-free value replay
//!   reproduces the observable output, an output-matched replay reproduces
//!   the output log, and all of the heavy artifacts imply failure
//!   reproduction. The §2 sum trap (output-lite reproducing "5" via 1+4) is
//!   pinned as the deliberate exception that motivates the paper.
//! - **Replayed-failure equivalence**: a replay that claims to reproduce
//!   the failure must carry the original failure id (or agree the run
//!   passed).
//! - **Metric ranges and budget monotonicity**: DF ∈ [0,1], DE ≥ 0,
//!   DU = DF·DE, and search-based debugging efficiency behaves sanely as
//!   the inference budget grows.
//! - **Partial-order reduction soundness**: at the same branching depth,
//!   `SearchStrategy::Dpor` finds exactly the failure set exhaustive
//!   enumeration finds, executing at most half the interleavings on the
//!   msgserver workload (and never more on any workload).

mod common;

use common::{all_workloads, model_suite, msgserver, output_multisets, scenario_grid, SEED_GRID};
use debug_determinism::core::{
    debugging_efficiency, debugging_utility, DeterminismModel, FailureModel, MsgOrderModel,
    OutputHeavyModel, OutputLiteModel, PerfectModel, RaceCompleteModel, ValueModel, Workload,
};
use debug_determinism::replay::{enumerate_failures, InferenceBudget, ModelKind, SearchStrategy};
use debug_determinism::trace::OutputLog;
use debug_determinism::workloads::SumWorkload;

#[test]
fn fidelity_lattice_and_metrics_hold_for_every_model_workload_and_seed() {
    let budget = InferenceBudget::executions(48);
    for workload in all_workloads() {
        let models = model_suite(workload.as_ref());
        let causes = workload.root_causes();
        for (variant, scenario) in scenario_grid(workload.as_ref(), SEED_GRID)
            .iter()
            .enumerate()
        {
            for model in &models {
                let recording = model.record(scenario);
                let replay = model.replay(scenario, &recording, &budget);
                let utility = debugging_utility(&causes, &recording, &replay);
                let label = format!(
                    "{} / {:?} / seed-variant {variant}",
                    workload.name(),
                    model.kind()
                );

                // Metric ranges.
                assert!(
                    (0.0..=1.0).contains(&utility.fidelity.df),
                    "{label}: DF {} out of [0,1]",
                    utility.fidelity.df
                );
                assert!(utility.de >= 0.0, "{label}: DE {} negative", utility.de);
                assert!(
                    (utility.du - utility.fidelity.df * utility.de).abs() < 1e-9,
                    "{label}: DU {} is not DF × DE",
                    utility.du
                );

                // Replayed-failure equivalence.
                if replay.reproduced_failure {
                    match (&recording.original.failure, &replay.failure) {
                        (Some(orig), Some(rep)) => assert_eq!(
                            orig.failure_id, rep.failure_id,
                            "{label}: reproduced_failure with different failure ids"
                        ),
                        (None, None) => {}
                        (orig, rep) => panic!(
                            "{label}: reproduced_failure but verdicts disagree \
                             (original {orig:?}, replay {rep:?})"
                        ),
                    }
                }

                // The fidelity lattice, edge by edge.
                match model.kind() {
                    ModelKind::Perfect => {
                        assert!(
                            replay.artifact_satisfied,
                            "{label}: perfect replay diverged"
                        );
                        assert_eq!(
                            replay.io, recording.original.io,
                            "{label}: perfect replay must be value-identical"
                        );
                        assert!(
                            replay.reproduced_failure,
                            "{label}: perfect ⊨ failure violated"
                        );
                    }
                    ModelKind::Value => {
                        if replay.value_divergences == 0 {
                            assert_eq!(
                                output_multisets(&replay.io),
                                output_multisets(&recording.original.io),
                                "{label}: divergence-free value replay must reproduce \
                                 the observable output (value ⊨ output)"
                            );
                            assert!(
                                replay.reproduced_failure,
                                "{label}: value ⊨ failure violated"
                            );
                        }
                    }
                    ModelKind::OutputHeavy => {
                        if replay.artifact_satisfied {
                            assert!(
                                OutputLog::from_io(&recording.original.io).matches(&replay.io),
                                "{label}: satisfied output artifact without matching outputs"
                            );
                            // Inputs were recorded too, so the whole I/O
                            // relation — and with it the failure verdict —
                            // is pinned.
                            assert!(
                                replay.reproduced_failure,
                                "{label}: output+inputs ⊨ failure violated"
                            );
                        }
                    }
                    ModelKind::OutputLite => {
                        if replay.artifact_satisfied {
                            assert!(
                                OutputLog::from_io(&recording.original.io).matches(&replay.io),
                                "{label}: satisfied output artifact without matching outputs"
                            );
                            // No failure implication: the §2 sum trap below
                            // is exactly the counterexample.
                        }
                    }
                    ModelKind::Failure => {
                        assert!(
                            !replay.artifact_satisfied || replay.reproduced_failure,
                            "{label}: satisfied failure artifact must reproduce the failure"
                        );
                    }
                    ModelKind::MsgOrder => {
                        // The total grant order is the only time-faithful
                        // pin set under the per-operation clock, so guided
                        // replay is exact on every workload: the order log
                        // must be consumed cleanly and the replay must be
                        // value-identical (msg-order ⊨ value ⊨ failure).
                        assert!(
                            replay.artifact_satisfied,
                            "{label}: msg-order guided replay diverged"
                        );
                        assert_eq!(
                            replay.io, recording.original.io,
                            "{label}: msg-order replay must be value-identical"
                        );
                        assert!(
                            replay.reproduced_failure,
                            "{label}: msg-order ⊨ failure violated"
                        );
                    }
                    ModelKind::RaceComplete => {
                        // The binding Guo-et-al. claim: whatever path the
                        // replayer took (guided, DPOR prefix search, or
                        // outcome feeding), the recorded failure verdict is
                        // reproduced on every workload and seed.
                        assert!(
                            replay.reproduced_failure,
                            "{label}: race-complete must match Perfect's failure set"
                        );
                        // And a satisfied artifact means the racing-access
                        // outcomes were honoured, which pins observable I/O
                        // on these workloads.
                        if replay.artifact_satisfied {
                            assert_eq!(
                                output_multisets(&replay.io),
                                output_multisets(&recording.original.io),
                                "{label}: satisfied race-complete artifact with drifted outputs"
                            );
                        }
                    }
                    ModelKind::Debug => {
                        // Selective recording carries no unconditional
                        // lattice guarantee; the replay must still terminate
                        // with a coherent report.
                        assert!(
                            replay.replay_ticks > 0,
                            "{label}: debug replay did not execute"
                        );
                    }
                }
            }
        }
    }
}

/// Lattice placement on the *recording-cost* axis: the two new models sit
/// strictly between the heavyweight recorders and the search-only ones.
///
/// - **MsgOrder** is replay-exact everywhere (asserted in the lattice test
///   above) while recording strictly fewer bytes than Value — and than
///   Perfect — on the message-passing workloads. Its separation from
///   Perfect is *cost*, not fidelity: RLE task runs instead of
///   per-decision candidate sets and CREW ownership transfers.
/// - **RaceComplete** never records more than Perfect, and records
///   strictly less as soon as the workload has any scheduling decisions
///   (on the race-free, zero-decision workloads both bottom out at the
///   input log and tie). Failure-set parity with Perfect on all four
///   workloads is asserted in the lattice test above.
#[test]
fn new_models_sit_between_value_and_perfect_on_the_recording_cost_axis() {
    for workload in all_workloads() {
        let message_passing = matches!(workload.name(), "msgserver-drops" | "hyperstore-issue63");
        for (variant, scenario) in scenario_grid(workload.as_ref(), SEED_GRID)
            .iter()
            .enumerate()
        {
            let label = format!("{} / seed-variant {variant}", workload.name());
            let perfect = PerfectModel.record(scenario);
            let value = ValueModel.record(scenario);
            let msg = MsgOrderModel.record(scenario);
            let race = RaceCompleteModel.record(scenario);

            assert!(
                race.log.bytes <= perfect.log.bytes,
                "{label}: race-complete recorded {} bytes, perfect {}",
                race.log.bytes,
                perfect.log.bytes
            );
            if message_passing {
                assert!(
                    msg.log.bytes < value.log.bytes,
                    "{label}: msg-order recorded {} bytes, value {}",
                    msg.log.bytes,
                    value.log.bytes
                );
                assert!(
                    msg.log.bytes < perfect.log.bytes,
                    "{label}: msg-order recorded {} bytes, perfect {}",
                    msg.log.bytes,
                    perfect.log.bytes
                );
                assert!(
                    race.log.bytes < perfect.log.bytes,
                    "{label}: race-complete recorded {} bytes, perfect {}",
                    race.log.bytes,
                    perfect.log.bytes
                );
            }
        }
    }
}

/// The §2 anchor: an output-lite replayer asked to reproduce "output 5"
/// synthesises inputs 1 + 4 — output matched, failure gone, DF 0 — while
/// recording inputs (output-heavy) closes the hole.
#[test]
fn sum_trap_separates_output_lite_from_output_heavy() {
    let workload = SumWorkload;
    let scenario = workload.scenario();
    let budget = InferenceBudget::executions(64);

    let lite_rec = OutputLiteModel.record(&scenario);
    let lite = OutputLiteModel.replay(&scenario, &lite_rec, &budget);
    assert!(
        lite.artifact_satisfied,
        "lite search should find an output-matching run"
    );
    assert!(
        !lite.reproduced_failure,
        "the synthesised 1+4 execution must NOT fail — that is the trap"
    );
    let lite_utility = debugging_utility(&workload.root_causes(), &lite_rec, &lite);
    assert_eq!(lite_utility.fidelity.df, 0.0, "lite DF collapses to 0");

    let heavy_rec = OutputHeavyModel.record(&scenario);
    let heavy = OutputHeavyModel.replay(&scenario, &heavy_rec, &budget);
    assert!(heavy.artifact_satisfied, "heavy search should succeed");
    assert!(
        heavy.reproduced_failure,
        "with inputs recorded the true 2+2 failure must reproduce"
    );
}

#[test]
fn debugging_efficiency_is_monotone_in_the_inference_budget() {
    let workload = msgserver();
    let scenario = workload.scenario();
    let recording = FailureModel.record(&scenario);
    assert!(
        recording.original.failure.is_some(),
        "msgserver production run must fail"
    );

    let mut prev: Option<(u64, bool, Option<u64>, f64)> = None;
    for budget in [1u64, 2, 4, 8, 16, 32, 64] {
        let replay =
            FailureModel.replay(&scenario, &recording, &InferenceBudget::executions(budget));
        let de = debugging_efficiency(&recording, &replay);
        assert!(replay.inference.explored <= budget, "budget overrun");
        if let Some((prev_budget, prev_found, prev_at, prev_de)) = prev {
            assert!(
                replay.inference.explored >= 1,
                "budget {budget}: search must try at least one candidate"
            );
            assert!(
                !prev_found || replay.inference.found,
                "found at budget {prev_budget} but lost at {budget}"
            );
            if prev_found && replay.inference.found {
                assert_eq!(
                    replay.inference.found_at, prev_at,
                    "a found candidate must not move as the budget grows"
                );
                assert!(
                    (de - prev_de).abs() < 1e-12,
                    "DE must be stable once the failure is found \
                     ({prev_de} at {prev_budget}, {de} at {budget})"
                );
            }
            if !prev_found && !replay.inference.found {
                assert!(
                    de <= prev_de + 1e-12,
                    "DE must not grow while the search keeps failing \
                     ({prev_de} at {prev_budget}, {de} at {budget})"
                );
            }
        }
        prev = Some((
            budget,
            replay.inference.found,
            replay.inference.found_at,
            de,
        ));
    }
    let (_, found, _, _) = prev.expect("budgets non-empty");
    assert!(found, "64 candidates must be enough to re-find the failure");
}

/// The headline acceptance check: on the msgserver workload across the
/// default seed grid, DPOR reproduces exhaustive search's failure set while
/// executing at most half the interleavings.
#[test]
fn dpor_matches_exhaustive_on_msgserver_with_at_most_half_the_runs() {
    let workload = msgserver();
    let budget = InferenceBudget::executions(2_000);
    const DEPTH: u32 = 4;

    let mut total_exhaustive = 0u64;
    let mut total_dpor = 0u64;
    let mut total_pruned = 0u64;
    for (variant, scenario) in scenario_grid(&workload, SEED_GRID).iter().enumerate() {
        let (exhaustive_failures, exhaustive) = enumerate_failures(
            scenario,
            &budget,
            SearchStrategy::Exhaustive { max_depth: DEPTH },
        );
        let (dpor_failures, dpor) =
            enumerate_failures(scenario, &budget, SearchStrategy::Dpor { max_depth: DEPTH });
        assert!(
            exhaustive.explored < budget.max_executions,
            "variant {variant}: exhaustive tree must fit the budget \
             (executed {})",
            exhaustive.explored
        );
        assert_eq!(
            dpor_failures, exhaustive_failures,
            "variant {variant}: DPOR missed or invented failures"
        );
        assert!(
            dpor.explored <= exhaustive.explored,
            "variant {variant}: DPOR executed more than exhaustive"
        );
        total_exhaustive += exhaustive.explored;
        total_dpor += dpor.explored;
        total_pruned += dpor.pruned;
    }
    assert!(
        total_dpor * 2 <= total_exhaustive,
        "DPOR must execute at most half of exhaustive's interleavings \
         ({total_dpor} vs {total_exhaustive})"
    );
    assert!(total_pruned > 0, "DPOR reported no pruning");
}

/// The soundness direction of partial-order reduction must hold on *every*
/// workload, not just the acceptance target: same failure set, never more
/// executions.
#[test]
fn dpor_never_misses_failures_on_any_workload() {
    let budget = InferenceBudget::executions(1_500);
    for workload in all_workloads() {
        let scenario = workload.scenario();
        // Depth 3 keeps the widest tree (hyperstore, ~8-way branching)
        // inside the budget so the exhaustive set is complete.
        let depth = 3;
        let (exhaustive_failures, exhaustive) = enumerate_failures(
            &scenario,
            &budget,
            SearchStrategy::Exhaustive { max_depth: depth },
        );
        let (dpor_failures, dpor) = enumerate_failures(
            &scenario,
            &budget,
            SearchStrategy::Dpor { max_depth: depth },
        );
        assert!(
            exhaustive.explored < budget.max_executions,
            "{}: exhaustive tree must fit the budget (executed {})",
            workload.name(),
            exhaustive.explored
        );
        assert_eq!(
            dpor_failures,
            exhaustive_failures,
            "{}: DPOR failure set diverged",
            workload.name()
        );
        assert!(
            dpor.explored <= exhaustive.explored,
            "{}: DPOR executed more interleavings than exhaustive",
            workload.name()
        );
    }
}

/// Models pick the systematic strategies straight from the budget — the
/// plumbing the relaxed models use to benefit from DPOR.
#[test]
fn models_select_dpor_through_the_inference_budget() {
    let workload = msgserver();
    let scenario = workload.scenario();
    let budget = InferenceBudget::dpor(256, 5);

    let recording = FailureModel.record(&scenario);
    let replay = FailureModel.replay(&scenario, &recording, &budget);
    assert!(replay.inference.explored > 0, "DPOR search did not run");
    assert!(
        replay.inference.explored <= 256,
        "budget must bound executed interleavings"
    );
    assert!(
        replay.artifact_satisfied,
        "DPOR inference should re-find the msgserver failure"
    );
    assert!(replay.reproduced_failure);

    // And the same budget drives a random search when asked to.
    let random = FailureModel.replay(
        &scenario,
        &recording,
        &InferenceBudget::executions(256).with_strategy(SearchStrategy::Random),
    );
    assert!(random.inference.pruned == 0, "random search never prunes");
}

/// Checkpointed (fork-based) DFS is an execution mechanism, not a search
/// policy: on every workload it must walk the same tree as from-scratch
/// DFS — executing the same interleavings in the same order, pruning the
/// same branches, and returning the byte-identical failure set — while the
/// step accounting stays conservative (executed + skipped = scratch's
/// executed).
#[test]
fn checkpointed_dfs_is_execution_equivalent_on_every_workload() {
    let budget = InferenceBudget::executions(1_000);
    for workload in all_workloads() {
        let scenario = workload.scenario();
        for strategy in [
            SearchStrategy::Exhaustive { max_depth: 3 },
            SearchStrategy::Dpor { max_depth: 3 },
        ] {
            let (scratch_failures, scratch) = enumerate_failures(&scenario, &budget, strategy);
            let (ck_failures, ck) =
                enumerate_failures(&scenario, &budget.with_checkpoints(1), strategy);
            let label = format!("{} / {strategy:?}", workload.name());
            assert_eq!(
                ck_failures, scratch_failures,
                "{label}: checkpointed DFS changed the failure set"
            );
            assert_eq!(ck.explored, scratch.explored, "{label}: walk changed");
            assert_eq!(ck.pruned, scratch.pruned, "{label}: pruning changed");
            assert_eq!(
                ck.steps_executed + ck.steps_skipped,
                scratch.steps_executed,
                "{label}: step accounting inconsistent"
            );
        }
    }
}

/// Every interleaving a checkpointed walk produces is byte-identical to the
/// one the scratch walk produces at the same position: same trace hash,
/// decision for decision. (Snapshot restore may never perturb an
/// execution.)
#[test]
fn checkpointed_dfs_interleavings_are_byte_identical_to_scratch() {
    let workload = msgserver();
    let scenario = workload.scenario();
    let budget = InferenceBudget::executions(40);
    let strategy = SearchStrategy::Dpor { max_depth: 16 };

    let collect = |budget: &InferenceBudget| -> Vec<u64> {
        let hashes = std::cell::RefCell::new(Vec::new());
        debug_determinism::replay::search_with(&scenario, budget, strategy, None, |out| {
            hashes.borrow_mut().push(common::trace_hash(out));
            false
        });
        hashes.into_inner()
    };
    let scratch = collect(&budget);
    let checkpointed = collect(&budget.with_checkpoints(1));
    assert_eq!(scratch.len(), checkpointed.len());
    assert_eq!(
        scratch, checkpointed,
        "a snapshot-resumed interleaving diverged from its scratch twin"
    );
    assert!(scratch.len() >= 30, "walk too small to be meaningful");
}

/// The ABL-7 acceptance gate: in the deep-horizon regime (budget-capped
/// DFS, branch points far into each run), checkpointed search must execute
/// at least 30% fewer kernel operations than scratch search on msgserver —
/// with the identical failure set. (At shallow depths there is nothing to
/// skip: every branch point precedes the first executed operation; see the
/// ABL-7 notes in README.)
#[test]
fn checkpointed_search_saves_at_least_30_percent_on_deep_msgserver() {
    let workload = msgserver();
    let scenario = workload.scenario();
    let budget = InferenceBudget::executions(150);
    let strategy = SearchStrategy::Dpor { max_depth: 256 };
    let (scratch_failures, scratch) = enumerate_failures(&scenario, &budget, strategy);
    let (ck_failures, ck) = enumerate_failures(&scenario, &budget.with_checkpoints(1), strategy);
    assert_eq!(ck_failures, scratch_failures, "failure sets must match");
    assert_eq!(
        ck.steps_executed + ck.steps_skipped,
        scratch.steps_executed,
        "step accounting inconsistent"
    );
    assert!(
        ck.steps_executed * 10 <= scratch.steps_executed * 7,
        "checkpointed search must execute >= 30% fewer kernel operations \
         ({} vs {}, speedup {:?})",
        ck.steps_executed,
        scratch.steps_executed,
        ck.replay_speedup()
    );
}
