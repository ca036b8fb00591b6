//! The O(live-state) snapshot representation, pinned from two sides:
//!
//! - **Observational identity**: a snapshot with chunk-shared history and
//!   its fully-unshared [`WorldSnapshot::deep_clone`] (the PR-3 deep-copy
//!   representation) resume to byte-identical runs — the representation is
//!   invisible to every consumer (the golden-hash grid, `InferenceStats`
//!   and the walk-order pins in the workspace suites re-pin the same
//!   property end to end).
//! - **Cost**: a pool of K snapshots over an N-event history shares its
//!   sealed chunks, so allocated history bytes grow O(N + K·tail), not
//!   O(N·K), and the bytes one snapshot clone copies are independent of
//!   how long the run has been going.

use dd_sim::{
    resume_program, run_program, Builder, ChanClass, CheckpointPlan, Program, RandomPolicy,
    RunConfig, RunOutput,
};
use proptest::prelude::*;

/// Two racy adders and a reporter; history length scales with `iters`
/// while the live machine state (3 tasks, 1 var, 1 channel, 1 port) stays
/// fixed.
///
/// Keep in lockstep with `Stretcher` in
/// `crates/bench/src/snapshot_cost.rs`: the benchmark and these property
/// tests deliberately measure the same regime, and this crate-level test
/// cannot import a shared definition without a dev-dependency cycle
/// through the workload layer.
struct Racy {
    iters: i64,
}

impl Program for Racy {
    fn name(&self) -> &'static str {
        "racy"
    }

    fn setup(&self, b: &mut Builder<'_>) {
        let total = b.var("total", 0i64);
        let out = b.out_port("result");
        let done = b.channel::<i64>("done", ChanClass::Local);
        let iters = self.iters;
        for i in 0..2 {
            b.spawn(&format!("adder{i}"), "workers", move |mut ctx| async move {
                for _ in 0..iters {
                    let v = ctx.read(&total, "racy::read").await?;
                    ctx.write(&total, v + 1, "racy::write").await?;
                    ctx.count("adds", 1, "racy::count").await?;
                }
                ctx.send(&done, 1, "racy::done").await
            });
        }
        b.spawn("reporter", "main", move |mut ctx| async move {
            for _ in 0..2 {
                ctx.recv::<i64>(&done, "racy::recv").await?;
            }
            let v = ctx.read(&total, "racy::report").await?;
            ctx.output(out, v, "racy::out").await
        });
    }
}

fn fnv(json: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn trace_hash(out: &RunOutput) -> u64 {
    fnv(&serde_json::to_string(out.trace()).expect("trace serializes"))
}

fn checkpointed_run(iters: i64, seed: u64, every: u64) -> RunOutput {
    let cfg = RunConfig {
        seed,
        checkpoints: Some(CheckpointPlan::new(every, u64::MAX)),
        max_steps: 1_000_000,
        ..RunConfig::default()
    };
    run_program(
        &Racy { iters },
        cfg,
        Box::new(RandomPolicy::new(seed)),
        vec![],
    )
}

#[test]
fn snapshot_pool_shares_chunks_o_n_plus_k_tail() {
    // A long run with a dense snapshot pool: K snapshots over an N-event
    // history.
    let out = checkpointed_run(512, 42, 8);
    let snaps = &out.snapshots;
    assert!(snaps.len() >= 20, "want a dense pool, got {}", snaps.len());
    let n_events = out.trace().len() as u64;
    assert!(n_events > 2_000, "want a long history, got {n_events}");

    // Deep snapshots share sealed chunks with their neighbours (the
    // common history prefix) — the allocation that makes the pool
    // O(N + K·tail).
    let deepest = snaps.last().unwrap();
    let prev = &snaps[snaps.len() - 2];
    assert!(
        deepest.shared_history_chunks(prev) > 0,
        "adjacent deep snapshots share no history chunks"
    );
    // ... while an unshared deep clone shares nothing.
    assert_eq!(deepest.deep_clone().shared_history_chunks(deepest), 0);

    // Allocated history bytes across the pool: each snapshot owns only
    // its tails (bounded) plus handles; the pool must cost a small
    // multiple of ONE deep copy, not K of them.
    let pool_cloned: u64 = snaps.iter().map(|s| s.cost().cloned_bytes()).sum();
    let pool_deep: u64 = snaps.iter().map(|s| s.cost().deep_bytes()).sum();
    assert!(
        pool_cloned * 4 < pool_deep,
        "pool of {} snapshots copies {pool_cloned} bytes — O(N·K) behaviour \
         (deep total {pool_deep})",
        snaps.len()
    );
}

#[test]
fn snapshot_clone_cost_is_independent_of_history_length() {
    // Same live state, 16x the history: the deepest snapshot's clone cost
    // must stay flat while the deep-copy cost grows with the trace.
    let short = checkpointed_run(64, 7, 16);
    let long = checkpointed_run(1024, 7, 16);
    let short_cost = short.snapshots.last().unwrap().cost();
    let long_cost = long.snapshots.last().unwrap().cost();
    assert!(
        long.trace().len() > 10 * short.trace().len(),
        "history must actually grow"
    );
    assert!(long_cost.deep_bytes() > 5 * short_cost.deep_bytes());
    assert!(
        long_cost.cloned_bytes() < 3 * short_cost.cloned_bytes(),
        "snapshot clone cost grew with history: {} -> {}",
        short_cost.cloned_bytes(),
        long_cost.cloned_bytes()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Observational identity with the deep-clone representation: for
    /// arbitrary seeds, cadences and history lengths, resuming from a
    /// chunk-shared snapshot and from its fully-unshared deep clone
    /// produces bit-identical traces, I/O and statistics — and both match
    /// the uninterrupted run. This is the "representation change, not a
    /// semantics change" guarantee.
    #[test]
    fn shared_and_deep_snapshots_resume_identically(
        seed in 0u64..200,
        every in 1u64..6,
        iters in 8i64..48,
        pick in 0usize..8,
    ) {
        let original = checkpointed_run(iters, seed, every);
        prop_assert!(!original.snapshots.is_empty());
        let want = trace_hash(&original);
        let snap = &original.snapshots[pick % original.snapshots.len()];
        let deep = snap.deep_clone();
        prop_assert_eq!(deep.shared_history_chunks(snap), 0);

        let resume_cfg = || RunConfig {
            seed,
            max_steps: 1_000_000,
            ..RunConfig::default()
        };
        let a = resume_program(&Racy { iters }, resume_cfg(), snap, None, vec![]);
        let b = resume_program(&Racy { iters }, resume_cfg(), &deep, None, vec![]);
        prop_assert_eq!(trace_hash(&a), want);
        prop_assert_eq!(trace_hash(&b), want);
        prop_assert_eq!(&a.io, &b.io);
        prop_assert_eq!(&a.stats, &b.stats);
        prop_assert_eq!(a.stop, b.stop);
        prop_assert_eq!(a.decisions, b.decisions);
    }
}
