//! Property tests for `dd-detect::vclock` and `dd-detect::hb`: the
//! partial-order laws the whole happens-before stack (race detection, DPOR
//! conflict analysis) relies on, plus agreement between the engine's
//! happens-before order and `dd-sim`'s actual event order on seeded traces.

use dd_detect::{HbClocks, VectorClock};
use dd_sim::{run_program, Builder, ChanClass, Program, RandomPolicy, RunConfig, TaskId};
use proptest::prelude::*;

/// Builds a clock from up to `vals.len()` components. Zeros after the last
/// non-zero value are never stored, so the laws also meet clocks of
/// different stored lengths, which must compare as if padded with zeros.
fn clock_of(vals: &[u64]) -> VectorClock {
    let mut c = VectorClock::new();
    for (t, &v) in vals.iter().enumerate() {
        c.set(TaskId(t as u32), v);
    }
    c
}

fn joined(a: &VectorClock, b: &VectorClock) -> VectorClock {
    let mut j = a.clone();
    j.join(b);
    j
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `≤` is reflexive.
    #[test]
    fn leq_is_reflexive(vals in prop::collection::vec(0u64..5, 4)) {
        let a = clock_of(&vals);
        prop_assert!(a.leq(&a));
    }

    /// `≤` is antisymmetric: mutual dominance means equality.
    #[test]
    fn leq_is_antisymmetric(
        x in prop::collection::vec(0u64..5, 4),
        y in prop::collection::vec(0u64..5, 4),
    ) {
        let a = clock_of(&x);
        let b = clock_of(&y);
        if a.leq(&b) && b.leq(&a) {
            prop_assert_eq!(a, b);
        }
    }

    /// `≤` is transitive — checked on constructed chains (always ordered)
    /// and on arbitrary triples (conditionally).
    #[test]
    fn leq_is_transitive(
        x in prop::collection::vec(0u64..5, 4),
        y in prop::collection::vec(0u64..5, 4),
        z in prop::collection::vec(0u64..5, 4),
    ) {
        let a = clock_of(&x);
        let b = joined(&a, &clock_of(&y));
        let c = joined(&b, &clock_of(&z));
        prop_assert!(a.leq(&b) && b.leq(&c) && a.leq(&c), "constructed chain must be ordered");

        let (p, q, r) = (clock_of(&x), clock_of(&y), clock_of(&z));
        if p.leq(&q) && q.leq(&r) {
            prop_assert!(p.leq(&r), "transitivity violated: {p} ≤ {q} ≤ {r}");
        }
    }

    /// Join is the least upper bound: an upper bound of both arguments, and
    /// below every other upper bound.
    #[test]
    fn join_is_a_least_upper_bound(
        x in prop::collection::vec(0u64..5, 4),
        y in prop::collection::vec(0u64..5, 4),
        extra in prop::collection::vec(0u64..5, 4),
    ) {
        let a = clock_of(&x);
        let b = clock_of(&y);
        let j = joined(&a, &b);
        prop_assert!(a.leq(&j), "join must dominate its left argument");
        prop_assert!(b.leq(&j), "join must dominate its right argument");
        prop_assert_eq!(joined(&a, &b), joined(&b, &a));

        // Every upper bound of a and b dominates the join. Constructed
        // upper bound: j ⊔ extra; arbitrary candidate: extra when it happens
        // to dominate both.
        let ub = joined(&j, &clock_of(&extra));
        prop_assert!(j.leq(&ub));
        let candidate = clock_of(&extra);
        if a.leq(&candidate) && b.leq(&candidate) {
            prop_assert!(j.leq(&candidate), "join must be the LEAST upper bound");
        }
    }

    /// Concurrency is symmetric, irreflexive, and excludes ordering.
    #[test]
    fn concurrent_is_symmetric_and_excludes_order(
        x in prop::collection::vec(0u64..5, 4),
        y in prop::collection::vec(0u64..5, 4),
    ) {
        let a = clock_of(&x);
        let b = clock_of(&y);
        prop_assert_eq!(a.concurrent(&b), b.concurrent(&a));
        prop_assert!(!a.concurrent(&a));
        if a.concurrent(&b) {
            prop_assert!(!a.leq(&b) && !b.leq(&a));
        } else {
            prop_assert!(a.leq(&b) || b.leq(&a));
        }
    }

    /// Ticking advances exactly the ticking task's component, strictly.
    #[test]
    fn tick_strictly_advances_own_component(
        x in prop::collection::vec(0u64..5, 4),
        t in 0u32..4,
    ) {
        let before = clock_of(&x);
        let mut after = before.clone();
        let new = after.tick(TaskId(t));
        prop_assert_eq!(new, before.get(TaskId(t)) + 1);
        prop_assert!(before.leq(&after) && before != after, "tick must strictly increase");
        for other in 0..4u32 {
            if other != t {
                prop_assert_eq!(after.get(TaskId(other)), before.get(TaskId(other)));
            }
        }
    }
}

/// A mixed-synchronisation program: racing workers, a lock-protected
/// counter, channel hand-offs and a join — enough edge variety to exercise
/// every clock rule.
struct MixedSync {
    workers: u32,
    iters: i64,
}

impl Program for MixedSync {
    fn name(&self) -> &'static str {
        "vclock-mixed-sync"
    }

    fn setup(&self, b: &mut Builder<'_>) {
        let shared = b.var("shared", 0i64);
        let guarded = b.var("guarded", 0i64);
        let m = b.mutex("m");
        let done = b.channel::<i64>("done", ChanClass::Local);
        let n = self.workers;
        let iters = self.iters;
        for i in 0..n {
            b.spawn(&format!("w{i}"), "g", move |mut ctx| async move {
                for _ in 0..iters {
                    let v = ctx.read(&shared, "w::read").await?;
                    ctx.write(&shared, v + 1, "w::write").await?;
                    ctx.lock(m, "w::lock").await?;
                    let g = ctx.read(&guarded, "w::gread").await?;
                    ctx.write(&guarded, g + 1, "w::gwrite").await?;
                    ctx.unlock(m, "w::unlock").await?;
                }
                ctx.send(&done, 1, "w::done").await
            });
        }
        b.spawn("collector", "main", move |mut ctx| async move {
            let child = ctx
                .spawn("helper", "main", move |mut c| async move {
                    let _ = c.read(&shared, "h::read").await?;
                    Ok(())
                })
                .await?;
            for _ in 0..n {
                ctx.recv(&done, "c::recv").await?;
            }
            ctx.join(child, "c::join").await?;
            Ok(())
        });
    }
}

/// Runs the program and feeds its trace through the happens-before engine
/// the race detector and DPOR use, returning each advanced task's clock
/// (after its tick) in trace order.
fn event_clocks(program: &MixedSync, seed: u64) -> Vec<(TaskId, VectorClock)> {
    let out = run_program(
        program,
        RunConfig::with_seed(seed),
        Box::new(RandomPolicy::new(seed)),
        vec![],
    );
    let mut hb = HbClocks::new();
    out.trace()
        .iter()
        .filter_map(|(_, event)| hb.observe(event).map(|t| (t, hb.clock(t).clone())))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Happens-before must agree with the simulator's event order: a
    /// task's clocks grow strictly along its own event sequence, and no
    /// later event is ever strictly below an earlier one (an hb edge can
    /// never point backwards in trace order).
    #[test]
    fn happens_before_agrees_with_trace_order(
        workers in 1u32..4,
        iters in 1i64..5,
        seed in 0u64..500,
    ) {
        let clocks = event_clocks(&MixedSync { workers, iters }, seed);
        prop_assert!(!clocks.is_empty());

        // Program order: strictly increasing per task.
        let mut last: std::collections::HashMap<u32, VectorClock> = Default::default();
        for (task, clock) in &clocks {
            if let Some(prev) = last.get(&task.0) {
                prop_assert!(
                    prev.leq(clock) && prev != clock,
                    "task {task}: clock did not strictly advance ({prev} then {clock})"
                );
            }
            last.insert(task.0, clock.clone());
        }

        // Cross-task: happens-before never contradicts trace order.
        let sample: Vec<_> = clocks.iter().take(250).collect();
        for (i, (ti, ci)) in sample.iter().enumerate() {
            for (tj, cj) in sample.iter().skip(i + 1) {
                if ti == tj {
                    continue;
                }
                prop_assert!(
                    !(cj.leq(ci) && cj != ci),
                    "event by {tj} at a later trace position sits strictly \
                     below an earlier event by {ti} ({cj} < {ci})"
                );
            }
        }
    }
}
