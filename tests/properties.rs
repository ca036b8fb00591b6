//! Cross-crate property-based tests: determinism, replay round trips, and
//! store invariants under arbitrary parameters.

use debug_determinism::detect::HbRaceDetector;
use debug_determinism::hyperstore::{check_run, HyperConfig, HyperstoreProgram, MigrationStep};
use debug_determinism::sim::{
    run_program, Builder, ChanClass, Program, RandomPolicy, RecordedDecision, ReplayPolicy,
    RunConfig, SimData, Value,
};
use debug_determinism::trace::ValueLog;
use proptest::prelude::*;

/// A parameterised racy counter: `workers` tasks each incrementing
/// `iters` times.
struct RacyCounter {
    workers: u32,
    iters: i64,
}

impl Program for RacyCounter {
    fn name(&self) -> &'static str {
        "prop-racy-counter"
    }

    fn setup(&self, b: &mut Builder<'_>) {
        let total = b.var("total", 0i64);
        let out = b.out_port("result");
        let done = b.channel::<i64>("done", ChanClass::Local);
        let n = self.workers;
        let iters = self.iters;
        for i in 0..n {
            b.spawn(&format!("w{i}"), "g", move |mut ctx| async move {
                for _ in 0..iters {
                    let v = ctx.read(&total, "w::read").await?;
                    ctx.write(&total, v + 1, "w::write").await?;
                }
                ctx.send(&done, 1, "w::done").await
            });
        }
        b.spawn("reporter", "main", move |mut ctx| async move {
            for _ in 0..n {
                ctx.recv(&done, "r::recv").await?;
            }
            let v = ctx.read(&total, "r::read").await?;
            ctx.output(out, v, "r::out").await
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed ⇒ bit-identical trace, for arbitrary program shapes.
    #[test]
    fn runs_are_deterministic(workers in 1u32..4, iters in 1i64..8, seed in 0u64..1000) {
        let run = || run_program(
            &RacyCounter { workers, iters },
            RunConfig::with_seed(seed),
            Box::new(RandomPolicy::new(seed)),
            vec![],
        );
        let a = run();
        let b = run();
        prop_assert_eq!(a.trace(), b.trace());
        prop_assert_eq!(a.io, b.io);
        prop_assert_eq!(a.stats, b.stats);
    }

    /// Replaying the recorded decision stream reproduces the execution
    /// exactly, for arbitrary program shapes and seeds.
    #[test]
    fn schedule_replay_round_trips(workers in 1u32..4, iters in 1i64..8, seed in 0u64..1000) {
        let p = RacyCounter { workers, iters };
        let original = run_program(
            &p,
            RunConfig::with_seed(seed),
            Box::new(RandomPolicy::new(seed)),
            vec![],
        );
        let decisions: Vec<RecordedDecision> = original
            .decisions
            .iter()
            .map(|d| RecordedDecision { kind: d.kind, chosen: d.chosen })
            .collect();
        let replay = run_program(
            &p,
            RunConfig::with_seed(seed),
            Box::new(ReplayPolicy::strict(decisions)),
            vec![],
        );
        prop_assert_eq!(original.trace(), replay.trace());
        prop_assert_eq!(original.io, replay.io);
    }

    /// Feeding the value log back reproduces each task's observable
    /// behaviour under a different schedule, for arbitrary shapes.
    #[test]
    fn value_feed_round_trips(workers in 2u32..4, iters in 1i64..6, seed in 0u64..500) {
        let p = RacyCounter { workers, iters };
        let original = run_program(
            &p,
            RunConfig::with_seed(seed),
            Box::new(RandomPolicy::new(seed)),
            vec![],
        );
        let log = ValueLog::from_trace(&original.trace);
        let (cursor, _stats) = log.into_cursor();
        let replay = run_program(
            &p,
            RunConfig {
                nondet_override: Some(Box::new(cursor)),
                ..RunConfig::with_seed(seed.wrapping_add(999))
            },
            Box::new(RandomPolicy::new(seed.wrapping_add(7777))),
            vec![],
        );
        // The reporter's read is fed from the log: same final total.
        prop_assert_eq!(
            original.io.outputs_on("result"),
            replay.io.outputs_on("result")
        );
    }

    /// The fixed hyperstore build never loses rows, for arbitrary migration
    /// plans and schedules.
    #[test]
    fn fixed_store_is_linearizable_under_migrations(
        seed in 0u64..64,
        mig1 in 40u64..200,
        mig2 in 200u64..400,
        r1 in 0u32..4,
        r2 in 0u32..4,
    ) {
        let cfg = HyperConfig {
            migrations: vec![
                MigrationStep { time: mig1, range: r1 },
                MigrationStep { time: mig2, range: r2 },
            ],
            ..HyperConfig::small()
        };
        let inputs = cfg.input_script();
        let failure = check_run(&HyperstoreProgram::fixed(cfg), seed, &inputs);
        prop_assert!(failure.is_none(), "fixed build lost rows: {:?}", failure);
    }

    /// Lock-protected counters never race and never lose updates, for
    /// arbitrary shapes (the HB detector's soundness on real executions).
    #[test]
    fn locked_counter_is_race_free(workers in 1u32..4, iters in 1i64..6, seed in 0u64..500) {
        struct Locked { workers: u32, iters: i64 }
        impl Program for Locked {
            fn name(&self) -> &'static str { "prop-locked" }
            fn setup(&self, b: &mut Builder<'_>) {
                let total = b.var("total", 0i64);
                let m = b.mutex("m");
                let out = b.out_port("result");
                let done = b.channel::<i64>("done", ChanClass::Local);
                let n = self.workers;
                let iters = self.iters;
                for i in 0..n {
                    b.spawn(&format!("w{i}"), "g", move |mut ctx| async move {
                        for _ in 0..iters {
                            ctx.lock(m, "w::lock").await?;
                            let v = ctx.read(&total, "w::read").await?;
                            ctx.write(&total, v + 1, "w::write").await?;
                            ctx.unlock(m, "w::unlock").await?;
                        }
                        ctx.send(&done, 1, "w::done").await
                    });
                }
                b.spawn("reporter", "main", move |mut ctx| async move {
                    for _ in 0..n {
                        ctx.recv(&done, "r::recv").await?;
                    }
                    let v = ctx.read(&total, "r::read").await?;
                    ctx.output(out, v, "r::out").await
                });
            }
        }
        let p = Locked { workers, iters };
        let out = run_program(
            &p,
            RunConfig::with_seed(seed),
            Box::new(RandomPolicy::new(seed)),
            vec![],
        );
        let races = HbRaceDetector::analyze(&out.trace);
        prop_assert!(races.is_empty(), "false positive: {:?}", races);
        prop_assert_eq!(
            out.io.outputs_on("result")[0].as_int(),
            Some(workers as i64 * iters)
        );
    }

    /// Values survive a serde round trip, for arbitrary nested shapes.
    #[test]
    fn value_serde_round_trips(ints in prop::collection::vec(any::<i64>(), 0..8), s in ".{0,24}") {
        let v = Value::List(vec![
            ints.clone().into_value(),
            Value::Str(s),
            Value::Bytes(ints.iter().map(|&i| i as u8).collect()),
        ]);
        let json = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(v, back);
    }
}
