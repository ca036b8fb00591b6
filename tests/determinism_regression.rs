//! The workspace-level determinism regression test — the property this
//! repository's CI exists to protect.
//!
//! Runs the same seeded scenarios twice through `dd-sim` and asserts the
//! serialized traces hash identically, bit for bit. If any nondeterminism
//! leaks into the simulator (hash-map iteration order, host randomness,
//! wall-clock dependence), these tests catch it before it can corrupt every
//! replay-debugging result built on top.

use debug_determinism::detect::HbRaceDetector;
use debug_determinism::hyperstore::{HyperConfig, HyperstoreProgram};
use debug_determinism::replay::{costs, OrderCostObserver, PinSet};
use debug_determinism::sim::{
    resume_program, run_program, CheckpointPlan, Observer, Program, RandomPolicy, RunConfig,
};
use debug_determinism::trace::{LogCharger, LogKind};
use debug_determinism::workloads::{
    BufOverflowProgram, BufOverflowWorkload, MsgServerConfig, MsgServerProgram, SumProgram,
};

mod common;

/// FNV-1a over the serialized trace: any divergence anywhere in the event
/// stream changes the hash (delegates to the shared `common::fnv`).
fn trace_hash_with(
    program: &dyn Program,
    cfg: RunConfig,
    policy_seed: u64,
    observers: Vec<Box<dyn Observer>>,
) -> u64 {
    let out = run_program(
        program,
        cfg,
        Box::new(RandomPolicy::new(policy_seed)),
        observers,
    );
    common::trace_hash(&out)
}

fn trace_hash(program: &dyn Program, cfg: RunConfig, policy_seed: u64) -> u64 {
    trace_hash_with(program, cfg, policy_seed, vec![])
}

fn assert_deterministic(name: &str, program: &dyn Program, mk_cfg: impl Fn() -> RunConfig) {
    for seed in [0u64, 1, 7, 42, 1337] {
        let first = trace_hash(program, RunConfig { seed, ..mk_cfg() }, seed);
        let second = trace_hash(program, RunConfig { seed, ..mk_cfg() }, seed);
        assert_eq!(
            first, second,
            "{name}: trace hash diverged between identically-seeded runs (seed {seed})"
        );
    }
}

#[test]
fn sum_trace_hashes_are_reproducible() {
    assert_deterministic("sum", &SumProgram { fixed: false }, RunConfig::default);
}

#[test]
fn msgserver_trace_hashes_are_reproducible() {
    let program = MsgServerProgram {
        cfg: MsgServerConfig::default(),
        fixed: false,
    };
    assert_deterministic("msgserver", &program, RunConfig::default);
}

#[test]
fn hyperstore_trace_hashes_are_reproducible() {
    let cfg = HyperConfig::small();
    let program = HyperstoreProgram::buggy(cfg.clone());
    assert_deterministic("hyperstore", &program, || RunConfig {
        inputs: cfg.input_script(),
        max_steps: 500_000,
        ..RunConfig::default()
    });
}

#[test]
fn bufoverflow_trace_hashes_are_reproducible() {
    let program = BufOverflowProgram { fixed: false };
    assert_deterministic("bufoverflow", &program, || RunConfig {
        inputs: BufOverflowWorkload::production_inputs(),
        max_steps: 50_000,
        ..RunConfig::default()
    });
}

/// The recording fidelities the golden table is checked under: `low`
/// matches RCSE's always-on layer (schedule + inputs), `high` adds
/// value-determinism-grade recording, `msg-order` and `race-complete` are
/// the two order-logging fidelities' recording stacks. Observers charge the
/// wall clock, not the execution clock, so the trace must be bit-identical
/// to the bare run under all of them — recording may never perturb the
/// execution it records.
fn fidelity_observers(level: &str) -> Vec<Box<dyn Observer>> {
    match level {
        "bare" => vec![],
        "low" => vec![Box::new(LogCharger::new(&[
            (LogKind::Schedule, costs::SCHEDULE),
            (LogKind::Input, costs::INPUT),
        ]))],
        "high" => vec![Box::new(LogCharger::new(&[
            (LogKind::Schedule, costs::SCHEDULE),
            (LogKind::Input, costs::INPUT),
            (LogKind::Value, costs::VALUE),
        ]))],
        "msg-order" => vec![
            Box::new(OrderCostObserver::new(costs::MSG_ORDER, PinSet::Total)),
            Box::new(LogCharger::new(&[(LogKind::Input, costs::INPUT)])),
        ],
        "race-complete" => vec![
            Box::new(HbRaceDetector::with_cost(costs::RACE_DETECT_ACCESS)),
            Box::new(OrderCostObserver::new(
                costs::RACE_COMPLETE,
                PinSet::NonLocal,
            )),
            Box::new(LogCharger::new(&[(LogKind::Input, costs::INPUT)])),
        ],
        other => panic!("unknown fidelity {other}"),
    }
}

/// The golden table: every workload's seed-42 production trace, pinned.
const GOLDEN: &[(&str, u64)] = &[
    ("sum", 0x2111_6735_7344_eceb),
    ("msgserver", 0x5749_569f_767f_d389),
    ("bufoverflow", 0xbbeb_f678_ca4d_9894),
    ("hyperstore", 0x126c_6455_5282_2fcb),
];

/// The seed-42 production configuration for a named golden workload.
fn golden_cfg(name: &str) -> (Box<dyn Fn() -> RunConfig>, Box<dyn Program>) {
    match name {
        "sum" => (
            Box::new(|| RunConfig::with_seed(42)),
            Box::new(SumProgram { fixed: false }),
        ),
        "msgserver" => (
            Box::new(|| RunConfig::with_seed(42)),
            Box::new(MsgServerProgram {
                cfg: MsgServerConfig::default(),
                fixed: false,
            }),
        ),
        "bufoverflow" => (
            Box::new(|| RunConfig {
                seed: 42,
                inputs: BufOverflowWorkload::production_inputs(),
                max_steps: 50_000,
                ..RunConfig::default()
            }),
            Box::new(BufOverflowProgram { fixed: false }),
        ),
        "hyperstore" => {
            let cfg = HyperConfig::small();
            let inputs = cfg.input_script();
            (
                Box::new(move || RunConfig {
                    seed: 42,
                    inputs: inputs.clone(),
                    max_steps: 500_000,
                    ..RunConfig::default()
                }),
                Box::new(HyperstoreProgram::buggy(cfg)),
            )
        }
        other => panic!("unknown workload {other}"),
    }
}

/// The golden trace-hash table: every workload's seed-42 production trace,
/// pinned. Any kernel/driver/scheduling change that perturbs any workload's
/// event stream fails this test loudly, naming the workload and fidelity.
/// If a change is *intentional* (new event kind, cost model change),
/// regenerate the constants with the command in the assertion message.
#[test]
fn golden_trace_hash_table_covers_all_workloads_and_fidelities() {
    let run = |name: &str, level: &str| -> u64 {
        match name {
            "sum" => trace_hash_with(
                &SumProgram { fixed: false },
                RunConfig::with_seed(42),
                42,
                fidelity_observers(level),
            ),
            "msgserver" => trace_hash_with(
                &MsgServerProgram {
                    cfg: MsgServerConfig::default(),
                    fixed: false,
                },
                RunConfig::with_seed(42),
                42,
                fidelity_observers(level),
            ),
            "bufoverflow" => trace_hash_with(
                &BufOverflowProgram { fixed: false },
                RunConfig {
                    seed: 42,
                    inputs: BufOverflowWorkload::production_inputs(),
                    max_steps: 50_000,
                    ..RunConfig::default()
                },
                42,
                fidelity_observers(level),
            ),
            "hyperstore" => {
                let cfg = HyperConfig::small();
                trace_hash_with(
                    &HyperstoreProgram::buggy(cfg.clone()),
                    RunConfig {
                        seed: 42,
                        inputs: cfg.input_script(),
                        max_steps: 500_000,
                        ..RunConfig::default()
                    },
                    42,
                    fidelity_observers(level),
                )
            }
            other => panic!("unknown workload {other}"),
        }
    };
    for &(name, golden) in GOLDEN {
        for level in ["bare", "low", "high", "msg-order", "race-complete"] {
            let actual = run(name, level);
            assert_eq!(
                actual, golden,
                "workload {name:?} at fidelity {level:?}: trace hash {actual:#018x} \
                 does not match the golden {golden:#018x}. A kernel change perturbed \
                 this workload's trace; if intentional, update GOLDEN in \
                 tests/determinism_regression.rs (cargo test golden_trace -- --nocapture \
                 prints actuals)."
            );
        }
        println!("golden ok: {name} {:#018x}", golden);
    }
}

/// The golden table must hold for *snapshot-resumed* runs too: running each
/// workload with checkpointing enabled and resuming from every snapshot
/// must land on the exact pinned hash. Checkpointed execution is only
/// admissible because it is invisible in the trace.
#[test]
fn golden_trace_hash_table_holds_for_snapshot_resumed_runs() {
    let mut total_snapshots = 0usize;
    for &(name, golden) in GOLDEN {
        let (mk_cfg, program) = golden_cfg(name);
        let mut cfg = mk_cfg();
        cfg.checkpoints = Some(CheckpointPlan::new(2, 16));
        let original = run_program(
            program.as_ref(),
            cfg,
            Box::new(RandomPolicy::new(42)),
            vec![],
        );
        let full = common::trace_hash(&original);
        assert_eq!(
            full, golden,
            "workload {name:?}: checkpointing perturbed the production trace"
        );
        // A single-task workload (sum) never hits a multi-candidate
        // decision, so it legitimately produces no snapshots.
        total_snapshots += original.snapshots.len();
        for snap in &original.snapshots {
            let resumed = resume_program(program.as_ref(), mk_cfg(), snap, None, vec![]);
            assert_eq!(
                common::trace_hash(&resumed),
                golden,
                "workload {name:?}: snapshot-resumed run (from decision {}) \
                 does not match the golden hash",
                snap.at_decision()
            );
        }
    }
    assert!(
        total_snapshots > 0,
        "no workload produced a snapshot — the resumed-run rows are vacuous"
    );
}

/// The per-decision enabled-set snapshots (`RunOutput::decision_enabled`)
/// must be identical between a scratch run and every snapshot-resumed run —
/// including the channel-receive entries (`OpDesc::Chan`), which ride the
/// chunked log through snapshot history sharing. A resumed run that
/// reconstructed the pre-snapshot prefix differently, or dropped pending-op
/// descriptors across the resume boundary, would silently skew every
/// enabled-set consumer (DPOR conflict analysis, the order-log pin sets).
#[test]
fn decision_enabled_snapshots_survive_snapshot_resume() {
    use debug_determinism::sim::OpDesc;
    let program = MsgServerProgram {
        cfg: MsgServerConfig::default(),
        fixed: false,
    };
    let mk_cfg = || RunConfig {
        seed: 42,
        checkpoints: Some(CheckpointPlan::new(2, 16)),
        ..RunConfig::default()
    };
    let original = run_program(&program, mk_cfg(), Box::new(RandomPolicy::new(42)), vec![]);
    let scratch: Vec<_> = original.decision_enabled.iter().cloned().collect();
    let chan_entries = scratch
        .iter()
        .flatten()
        .filter(|(_, op)| matches!(op, Some(OpDesc::Chan { .. })))
        .count();
    assert!(
        chan_entries > 0,
        "msgserver must exercise channel receives in its enabled sets — \
         otherwise this regression test is vacuous"
    );
    assert!(
        !original.snapshots.is_empty(),
        "checkpoint plan produced no snapshots — the resumed rows are vacuous"
    );
    for snap in &original.snapshots {
        let resumed = resume_program(
            &program,
            RunConfig {
                seed: 42,
                ..RunConfig::default()
            },
            snap,
            None,
            vec![],
        );
        let resumed_sets: Vec<_> = resumed.decision_enabled.iter().cloned().collect();
        assert_eq!(
            resumed_sets,
            scratch,
            "decision_enabled diverged after resuming from decision {}",
            snap.at_decision()
        );
    }
}

/// The coroutine-engine equivalence property, sampled: any (workload,
/// fidelity, resume point) combination must land on the workload's pinned
/// golden hash, whether the run starts from scratch or from a mid-run
/// snapshot with the fidelity's recording stack attached. The exhaustive
/// scratch matrix lives in `golden_trace_hash_table_covers_all_workloads_
/// and_fidelities`; this property additionally crosses fidelities with
/// snapshot resume, where the engine must rebuild mid-operation coroutines
/// before the observers see a single event.
mod engine_equivalence {
    use super::*;
    use debug_determinism::sim::CheckpointPlan;
    use proptest::prelude::*;

    const LEVELS: &[&str] = &["bare", "low", "high", "msg-order", "race-complete"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn any_fidelity_and_resume_point_reproduces_the_golden_trace(
            widx in 0usize..4,
            lidx in 0usize..5,
            snap_sel in 0usize..1024,
        ) {
            let (name, golden) = GOLDEN[widx];
            let level = LEVELS[lidx];
            let (mk_cfg, program) = golden_cfg(name);

            // Scratch run under this fidelity's recording stack.
            let scratch = run_program(
                program.as_ref(),
                mk_cfg(),
                Box::new(RandomPolicy::new(42)),
                fidelity_observers(level),
            );
            let h = common::trace_hash(&scratch);
            prop_assert!(
                h == golden,
                "workload {} at fidelity {}: scratch hash {:#018x} != golden {:#018x}",
                name, level, h, golden
            );

            // Snapshot-resumed run under the same stack.
            let mut cfg = mk_cfg();
            cfg.checkpoints = Some(CheckpointPlan::new(2, 16));
            let original = run_program(
                program.as_ref(),
                cfg,
                Box::new(RandomPolicy::new(42)),
                vec![],
            );
            // Single-task workloads (sum) legitimately never snapshot.
            if !original.snapshots.is_empty() {
                let snap = &original.snapshots[snap_sel % original.snapshots.len()];
                let resumed = resume_program(
                    program.as_ref(),
                    mk_cfg(),
                    snap,
                    None,
                    fidelity_observers(level),
                );
                let h = common::trace_hash(&resumed);
                prop_assert!(
                    h == golden,
                    "workload {} at fidelity {} resumed from decision {}: \
                     hash {:#018x} != golden {:#018x}",
                    name, level, snap.at_decision(), h, golden
                );
            }
        }
    }
}

/// Fault schedules are input nondeterminism: a run under an injected crash,
/// partition, or restart schedule must be exactly as reproducible as a clean
/// run, under every recording fidelity. The golden table pins the seed-42
/// buggy-failover trace for each fault-environment candidate — a kernel or
/// fault-plane change that perturbs any of them fails loudly.
mod fault_schedule_determinism {
    use super::*;
    use debug_determinism::hyperstore::failover_env_candidates;
    use proptest::prelude::*;

    /// Seed-42 buggy-failover hashes, one per `failover_env_candidates`
    /// entry (crash, partition-load, crash+restart, clean — in order).
    const FAULT_GOLDEN: &[u64] = &[
        0xcd93_e8dc_90fa_0f69, // crash during migration window
        0x53ae_903e_3bea_b633, // partition during load, heals pre-migration
        0x9083_45ea_c4d1_0ce2, // crash + restart
        0x1fd6_751e_15e6_e155, // clean
    ];

    fn fault_cfg(env_idx: usize) -> RunConfig {
        let cfg = HyperConfig::default();
        RunConfig {
            seed: 42,
            inputs: cfg.input_script(),
            max_steps: 500_000,
            env: failover_env_candidates(&cfg)[env_idx].clone(),
            ..RunConfig::default()
        }
    }

    #[test]
    fn golden_fault_trace_hashes_hold_across_all_fidelities() {
        let cfg = HyperConfig::default();
        let envs = failover_env_candidates(&cfg);
        assert_eq!(
            envs.len(),
            FAULT_GOLDEN.len(),
            "failover_env_candidates grew: extend FAULT_GOLDEN"
        );
        let program = HyperstoreProgram::buggy_failover(cfg);
        for (i, &golden) in FAULT_GOLDEN.iter().enumerate() {
            for level in ["bare", "low", "high", "msg-order", "race-complete"] {
                let actual = trace_hash_with(&program, fault_cfg(i), 42, fidelity_observers(level));
                assert_eq!(
                    actual, golden,
                    "fault env candidate {i} at fidelity {level:?}: trace hash \
                     {actual:#018x} does not match the golden {golden:#018x}. \
                     If the change is intentional, update FAULT_GOLDEN with \
                     the actual hash printed here."
                );
            }
            println!("fault golden ok: candidate {i} {golden:#018x}");
        }
    }

    /// Seed-42 buggy-failover state-digest streams, one per
    /// `failover_env_candidates` entry (same order as `FAULT_GOLDEN`): the
    /// decision count and FNV-1a over every pre-decision digest, then the
    /// final one, each as an 8-byte little-endian word.
    const FAULT_DIGEST_GOLDEN: &[(usize, u64)] = &[
        (1088, 0xcf71_fab0_61d5_8ad2), // crash during migration window
        (1173, 0x9921_bbcc_4a21_0283), // partition during load, heals pre-migration
        (1586, 0x2632_ffe5_584f_7840), // crash + restart
        (1173, 0xe973_a7f3_0f96_9080), // clean
    ];

    /// The trace hashes above cover no state digest, and the production
    /// digests pinned elsewhere (JSONL goldens, promoted fixtures, the
    /// benchmark's seed-1 counters) run no partition and no restart. This
    /// pins the digest's fault-plane sections: pending, active and healed
    /// partitions, pending, due and fired restarts, crash and restart
    /// counts.
    #[test]
    fn golden_fault_digest_streams_hold() {
        let cfg = HyperConfig::default();
        let program = HyperstoreProgram::buggy_failover(cfg);
        assert_eq!(FAULT_DIGEST_GOLDEN.len(), FAULT_GOLDEN.len());
        let actual: Vec<(usize, u64)> = (0..FAULT_DIGEST_GOLDEN.len())
            .map(|i| {
                let out = run_program(
                    &program,
                    RunConfig {
                        hash_decisions: true,
                        ..fault_cfg(i)
                    },
                    Box::new(RandomPolicy::new(42)),
                    vec![],
                );
                let last = out.final_state_hash.expect("hashed run has a final digest");
                let words = out.decision_hashes.iter().copied().chain([last]);
                let bytes = words.flat_map(u64::to_le_bytes);
                (out.decision_hashes.len(), common::fnv_bytes(bytes))
            })
            .collect();
        assert_eq!(
            actual, FAULT_DIGEST_GOLDEN,
            "fault-environment digest streams moved (decision count, FNV-1a of the \
             digests): a state-digest change that is not a deliberate format \
             migration must keep every value"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any (seed, fault schedule, build, fidelity) records the same
        /// trace twice — and the recording stack never perturbs it.
        #[test]
        fn any_fault_schedule_replays_byte_identically(
            seed in 0u64..64,
            env_sel in 0usize..1024,
            build_sel in 0usize..2,
            lidx in 0usize..5,
        ) {
            let cfg = HyperConfig::default();
            let envs = failover_env_candidates(&cfg);
            let env_idx = env_sel % envs.len();
            let fixed = build_sel == 1;
            let program: Box<dyn Program> = if fixed {
                Box::new(HyperstoreProgram::fixed_failover(cfg.clone()))
            } else {
                Box::new(HyperstoreProgram::buggy_failover(cfg.clone()))
            };
            let mk_cfg = || RunConfig {
                seed,
                inputs: cfg.input_script(),
                max_steps: 500_000,
                env: envs[env_idx].clone(),
                ..RunConfig::default()
            };
            let level = ["bare", "low", "high", "msg-order", "race-complete"][lidx];
            let bare = trace_hash(program.as_ref(), mk_cfg(), seed);
            let again = trace_hash(program.as_ref(), mk_cfg(), seed);
            prop_assert!(
                bare == again,
                "fault run diverged between identical runs (seed {}, env {})",
                seed, env_idx
            );
            let observed = trace_hash_with(
                program.as_ref(),
                mk_cfg(),
                seed,
                fidelity_observers(level),
            );
            prop_assert!(
                bare == observed,
                "fidelity {} perturbed a fault-schedule trace (seed {}, env {})",
                level, seed, env_idx
            );
        }
    }
}

/// Different seeds must be able to produce different schedules — otherwise
/// the "same seed ⇒ same trace" checks above would pass vacuously.
#[test]
fn different_seeds_change_the_racy_schedule() {
    let cfg = HyperConfig::small();
    let program = HyperstoreProgram::buggy(cfg.clone());
    let hashes: Vec<u64> = (0..8)
        .map(|seed| {
            let run_cfg = RunConfig {
                seed,
                inputs: cfg.input_script(),
                max_steps: 500_000,
                ..RunConfig::default()
            };
            trace_hash(&program, run_cfg, seed)
        })
        .collect();
    let distinct: std::collections::BTreeSet<u64> = hashes.iter().copied().collect();
    assert!(
        distinct.len() > 1,
        "8 different seeds all produced identical traces: {hashes:?}"
    );
}

/// The search and race-report golden table: exact DPOR walks, the
/// exhaustive reference walk and the happens-before race reports, pinned
/// on every workload's production configuration, plus the order in which
/// walks over msgserver's search space visit interleavings. The
/// happens-before engine, the event-footprint map and the snapshot pool
/// all feed these numbers, so a change to any of them that alters a walk
/// or a verdict fails here.
mod search_golden {
    use super::*;
    use debug_determinism::core::Workload;
    use debug_determinism::replay::{
        enumerate_failures, search_with, InferenceBudget, InferenceStats, SearchStrategy,
    };

    /// One pinned walk: workload, checkpoint interval, the full
    /// [`InferenceStats`] as (explored, pruned, ticks, steps executed,
    /// steps skipped), and the failure set.
    type Walk = (&'static str, u64, [u64; 5], &'static [&'static str]);

    /// `Dpor { max_depth: 4 }`, budget 400, on all four workloads.
    const DPOR_D4: &[Walk] = &[
        ("sum-2plus2", 0, [1, 0, 13, 5, 0], &["sum.wrong-sum"]),
        ("sum-2plus2", 1, [1, 0, 13, 5, 0], &["sum.wrong-sum"]),
        (
            "msgserver-drops",
            0,
            [209, 74, 334_547, 123_090, 0],
            &["msgserver.excess-drops"],
        ),
        (
            "msgserver-drops",
            1,
            [209, 74, 334_547, 123_090, 0],
            &["msgserver.excess-drops"],
        ),
        ("bufoverflow", 0, [1, 0, 146, 28, 0], &["bufoverflow.crash"]),
        ("bufoverflow", 1, [1, 0, 146, 28, 0], &["bufoverflow.crash"]),
        (
            "hyperstore-issue63",
            0,
            [400, 159, 335_015, 138_523, 0],
            &["hyperstore.rows-missing"],
        ),
        (
            "hyperstore-issue63",
            1,
            [400, 159, 335_015, 138_523, 0],
            &["hyperstore.rows-missing"],
        ),
    ];

    /// `Exhaustive { max_depth: 4 }`, budget 2000, on msgserver: the
    /// reference DPOR is checked against (ABL-6's exhaustive row).
    const EXHAUSTIVE_D4: Walk = (
        "msgserver-drops",
        0,
        [540, 0, 864_346, 317_780, 0],
        &["msgserver.excess-drops"],
    );

    /// `Dpor { max_depth: 256 }`, budget 150, on msgserver: the deep
    /// checkpointed walk of ABL-7.
    const DPOR_DEEP: Walk = (
        "msgserver-drops",
        1,
        [150, 122, 162_033, 40_490, 45_192],
        &["msgserver.excess-drops"],
    );

    /// The order a walk visits interleavings in, on msgserver through
    /// `search_with`: branching depth, execution budget, checkpoint
    /// interval, the number of interleavings visited, and the FNV-1a over
    /// their trace hashes in visiting order. The statistics above pin how
    /// much a walk does; these pin what it visits, run by run.
    const WALK_ORDER: &[(u32, u64, u64, usize, u64)] = &[
        (256, 60, 1, 60, 0x8c4d_fe9d_ea2c_3ae5),
        (4, 400, 0, 400, 0x8828_8e1e_99c2_7627),
        (4, 400, 1, 400, 0x8828_8e1e_99c2_7627),
    ];

    /// Per workload: the race-report count and the FNV-1a of the reports'
    /// JSON from `HbRaceDetector::analyze` on the production trace.
    const RACES: &[(&str, usize, u64)] = &[
        ("sum-2plus2", 0, 0x0961_2b07_b5ec_b5a5),
        ("msgserver-drops", 8, 0x03b0_707b_364b_2036),
        ("bufoverflow", 0, 0x0961_2b07_b5ec_b5a5),
        ("hyperstore-issue63", 11, 0xbf88_c558_4011_fe67),
    ];

    fn assert_walk(workload: &dyn Workload, strategy: SearchStrategy, budget: u64, golden: &Walk) {
        let &(name, interval, [explored, pruned, ticks, steps_executed, steps_skipped], failures) =
            golden;
        assert_eq!(workload.name(), name);
        let budget = InferenceBudget::executions(budget).with_checkpoints(interval);
        let (actual_failures, actual) = enumerate_failures(&workload.scenario(), &budget, strategy);
        let label = format!("{name} / {strategy:?} / interval {interval}");
        let expected = InferenceStats {
            explored,
            pruned,
            ticks,
            steps_executed,
            steps_skipped,
            found: false,
            found_at: None,
        };
        assert_eq!(actual, expected, "{label}: the walk's statistics moved");
        assert!(
            actual_failures.iter().eq(failures),
            "{label}: failure set {actual_failures:?} is not the golden {failures:?}"
        );
    }

    #[test]
    fn dpor_walks_match_the_golden_table() {
        let workloads = common::all_workloads();
        assert_eq!(DPOR_D4.len(), 2 * workloads.len());
        for (row, w) in DPOR_D4.iter().zip(workloads.iter().flat_map(|w| [w, w])) {
            assert_walk(w.as_ref(), SearchStrategy::Dpor { max_depth: 4 }, 400, row);
        }
    }

    #[test]
    fn reference_and_deep_walks_match_the_golden_table() {
        let msgserver = common::msgserver();
        let exhaustive = SearchStrategy::Exhaustive { max_depth: 4 };
        assert_walk(&msgserver, exhaustive, 2000, &EXHAUSTIVE_D4);
        let deep = SearchStrategy::Dpor { max_depth: 256 };
        assert_walk(&msgserver, deep, 150, &DPOR_DEEP);
    }

    #[test]
    fn walks_visit_interleavings_in_the_golden_order() {
        let scenario = common::msgserver().scenario();
        let actual: Vec<_> = WALK_ORDER
            .iter()
            .map(|&(max_depth, executions, interval, _, _)| {
                let budget = InferenceBudget::executions(executions).with_checkpoints(interval);
                let hashes = std::cell::RefCell::new(Vec::new());
                search_with(
                    &scenario,
                    &budget,
                    SearchStrategy::Dpor { max_depth },
                    None,
                    |out| {
                        hashes.borrow_mut().push(common::trace_hash(out));
                        false
                    },
                );
                let hashes = hashes.into_inner();
                let order = common::fnv_bytes(hashes.iter().flat_map(|h| h.to_le_bytes()));
                (max_depth, executions, interval, hashes.len(), order)
            })
            .collect();
        assert_eq!(
            actual, WALK_ORDER,
            "a walk visited other interleavings or visited them in another order"
        );
    }

    #[test]
    fn race_reports_match_the_golden_table() {
        let workloads = common::all_workloads();
        assert_eq!(RACES.len(), workloads.len());
        for (w, &(name, count, hash)) in workloads.iter().zip(RACES) {
            assert_eq!(w.name(), name);
            let scenario = w.scenario();
            let out = scenario.execute(&scenario.original_spec(), vec![]);
            let reports = HbRaceDetector::analyze(&out.trace);
            let json = serde_json::to_string(&reports).expect("race reports serialize");
            assert_eq!(reports.len(), count, "{name}: race-report count moved");
            assert_eq!(
                common::fnv(&json),
                hash,
                "{name}: race reports moved: {json}"
            );
        }
    }
}
