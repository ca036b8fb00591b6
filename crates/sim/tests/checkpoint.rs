//! Snapshot/restore determinism: resuming a run from any
//! [`WorldSnapshot`] taken along the way must reproduce the uninterrupted
//! run *exactly* — same trace (bit for bit), same observable I/O, same
//! stop reason — while charging only the post-snapshot work to the resumed
//! run. This is the guarantee the fork-based DFS in `dd-replay` is built
//! on.

use dd_sim::{
    resume_program, run_program, Builder, ChanClass, CheckpointPlan, PrefixPolicy, Program,
    RandomPolicy, RunConfig, RunOutput, SnapshotMark, SnapshotSink, WorldSnapshot,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// A program that exercises every kernel facility the snapshot must carry:
/// shared variables, a lock, a condition variable, local and network
/// channels, timers, RNG draws, runtime spawning, joins, `now()` peeks,
/// counters and outputs.
struct Gauntlet;

impl Program for Gauntlet {
    fn name(&self) -> &'static str {
        "gauntlet"
    }

    fn setup(&self, b: &mut Builder<'_>) {
        let total = b.var("total", 0i64);
        let m = b.mutex("m");
        let cv = b.condvar("cv");
        let ready = b.var("ready", 0i64);
        let work = b.channel::<i64>("work", ChanClass::Local);
        let out = b.out_port("out");

        for i in 0..2 {
            b.spawn(&format!("adder{i}"), "workers", move |mut ctx| async move {
                for _ in 0..4 {
                    let jitter = ctx.rand_below(3, "adder::jitter").await?;
                    ctx.sleep(1 + jitter, "adder::pace").await?;
                    let v = ctx.read(&total, "adder::read").await?;
                    ctx.write(&total, v + 1, "adder::write").await?;
                    ctx.count("adds", 1, "adder::count").await?;
                }
                ctx.send(&work, i, "adder::done").await
            });
        }
        b.spawn("waiter", "main", move |mut ctx| async move {
            ctx.lock(m, "waiter::lock").await?;
            loop {
                if ctx.read(&ready, "waiter::read").await? != 0 {
                    break;
                }
                ctx.wait(cv, m, "waiter::wait").await?;
            }
            ctx.unlock(m, "waiter::unlock").await?;
            ctx.output(out, ctx.now() as i64, "waiter::stamp").await
        });
        b.spawn("driver", "main", move |mut ctx| async move {
            // Collect both adders, then spawn a late reporter and join it.
            ctx.recv::<i64>(&work, "driver::recv0").await?;
            ctx.recv::<i64>(&work, "driver::recv1").await?;
            ctx.lock(m, "driver::lock").await?;
            ctx.write(&ready, 1, "driver::ready").await?;
            ctx.notify_one(cv, "driver::notify").await?;
            ctx.unlock(m, "driver::unlock").await?;
            let late = ctx
                .spawn("late", "main", move |mut ctx| async move {
                    let v = ctx.read(&total, "late::read").await?;
                    ctx.output(out, v, "late::out").await
                })
                .await?;
            ctx.join(late, "driver::join").await
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

fn run_with_checkpoints(seed: u64, plan: CheckpointPlan) -> RunOutput {
    let cfg = RunConfig {
        seed,
        checkpoints: Some(plan),
        ..RunConfig::default()
    };
    run_program(&Gauntlet, cfg, Box::new(RandomPolicy::new(seed)), vec![])
}

fn resume_cfg(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        ..RunConfig::default()
    }
}

#[test]
fn every_snapshot_resumes_to_the_identical_run() {
    for seed in [0u64, 1, 7, 42] {
        let plan = CheckpointPlan::new(1, 64);
        let original = run_with_checkpoints(seed, plan);
        assert!(
            !original.snapshots.is_empty(),
            "seed {seed}: gauntlet must hit at least one multi-candidate decision"
        );
        let want_hash = trace_hash(&original);
        for snap in &original.snapshots {
            let resumed = resume_program(&Gauntlet, resume_cfg(seed), snap, None, vec![]);
            assert_eq!(
                trace_hash(&resumed),
                want_hash,
                "seed {seed}: resume from decision {} diverged",
                snap.at_decision()
            );
            assert_eq!(resumed.io, original.io, "seed {seed}: I/O diverged");
            assert_eq!(resumed.stop, original.stop, "seed {seed}: stop diverged");
            assert_eq!(resumed.stats.steps, original.stats.steps);
            assert_eq!(resumed.stats.exec_ticks, original.stats.exec_ticks);
            // Only the post-snapshot work is charged to the resumed run.
            assert_eq!(resumed.stats.resumed_steps, snap.steps());
            assert_eq!(resumed.stats.resumed_ticks, snap.time());
        }
    }
}

#[test]
fn snapshot_collection_does_not_perturb_the_run() {
    for seed in [0u64, 3, 9] {
        let bare = run_program(
            &Gauntlet,
            resume_cfg(seed),
            Box::new(RandomPolicy::new(seed)),
            vec![],
        );
        let checkpointed = run_with_checkpoints(seed, CheckpointPlan::new(2, 16));
        assert_eq!(trace_hash(&bare), trace_hash(&checkpointed), "seed {seed}");
        assert_eq!(bare.io, checkpointed.io, "seed {seed}");
    }
}

#[test]
fn resume_with_override_policy_forks_the_schedule() {
    let seed = 42;
    let original = run_with_checkpoints(seed, CheckpointPlan::new(1, 32));
    let snap = original.snapshots.last().expect("snapshots were collected");
    let d = snap.at_decision() as usize;
    assert!(d > 0, "need a non-root snapshot to fork at");
    // Fork: replay the original decisions up to the snapshot is implicit in
    // the restored world; force a *different* choice at the fork decision
    // than the original took.
    let original_choice = original.decisions[d].chosen_index;
    let forced = vec![if original_choice == 0 { 1 } else { 0 }];
    let forked = resume_program(
        &Gauntlet,
        resume_cfg(seed),
        snap,
        Some(Box::new(PrefixPolicy::new(forced, 99))),
        vec![],
    );
    // The forked run shares the prefix decision-for-decision…
    assert!(forked.decisions.len() > d);
    assert!(forked
        .decisions
        .iter()
        .take(d)
        .eq(original.decisions.iter().take(d)));
    // …and diverges exactly at the fork point.
    assert_ne!(forked.decisions[d].chosen_index, original_choice);
    assert_eq!(forked.stats.resumed_steps, snap.steps());
}

#[test]
fn snapshots_respect_the_plan_bounds() {
    let out = run_with_checkpoints(11, CheckpointPlan::new(3, 9));
    assert!(!out.snapshots.is_empty());
    let mut prev = 0;
    for s in &out.snapshots {
        assert!(s.at_decision() > 0 && s.at_decision() <= 9);
        assert_eq!(s.at_decision() % 3, 0);
        assert!(s.at_decision() > prev, "snapshots strictly deepen");
        prev = s.at_decision();
    }
}

#[test]
fn runs_without_a_plan_take_no_snapshots() {
    let out = run_program(
        &Gauntlet,
        resume_cfg(5),
        Box::new(RandomPolicy::new(5)),
        vec![],
    );
    assert!(out.snapshots.is_empty());
}

/// What a [`Rotating`] sink was offered and what it answered.
type OfferLog = Arc<Mutex<Vec<(SnapshotMark, Result<Option<u64>, String>)>>>;

/// A sink that keeps, declines and fails its offers in rotation, logging
/// each offer's position in the run with its answer. Like a store, it
/// digests every offer it does not decline, and the run then records that
/// digest for the decision instead of hashing the world again.
struct Rotating {
    log: OfferLog,
}

impl SnapshotSink for Rotating {
    fn offer(&mut self, snap: &WorldSnapshot) -> Result<Option<u64>, String> {
        let mut log = self.log.lock().expect("offer log lock");
        let n = log.len() as u64;
        let answer = match n % 3 {
            0 => Ok(Some(100 + n)),
            1 => Ok(None),
            _ => Err(format!("offer {n} failed")),
        };
        if !matches!(answer, Ok(None)) {
            snap.digest();
        }
        let mark = SnapshotMark {
            decision: snap.at_decision(),
            step: snap.steps(),
            time: snap.time(),
            id: 100 + n,
        };
        log.push((mark, answer.clone()));
        answer
    }
}

/// The driver lends its own world and policy to the sink for each offer.
/// Whether the sink keeps, declines or fails an offer, both come back: the
/// run's trace, decisions and digests equal those of the same run keeping
/// its snapshots in memory, the sink is offered exactly those snapshots,
/// and `spilled` and `spill_errors` hold exactly what the sink answered.
#[test]
fn a_sink_hands_the_world_back_whatever_it_answers() {
    for seed in [0u64, 7, 42] {
        let cfg = |snapshot_sink| RunConfig {
            seed,
            checkpoints: Some(CheckpointPlan::new(1, 64)),
            hash_decisions: true,
            snapshot_sink,
            ..RunConfig::default()
        };
        let kept = run_program(
            &Gauntlet,
            cfg(None),
            Box::new(RandomPolicy::new(seed)),
            vec![],
        );
        let log = OfferLog::default();
        let sink = Rotating {
            log: Arc::clone(&log),
        };
        let spilled = run_program(
            &Gauntlet,
            cfg(Some(Box::new(sink))),
            Box::new(RandomPolicy::new(seed)),
            vec![],
        );
        assert_eq!(trace_hash(&spilled), trace_hash(&kept), "seed {seed}");
        assert!(spilled.decisions.iter().eq(kept.decisions.iter()));
        assert!(!kept.decision_hashes.is_empty());
        assert!(spilled
            .decision_hashes
            .iter()
            .eq(kept.decision_hashes.iter()));
        assert!(kept.final_state_hash.is_some());
        assert_eq!(spilled.final_state_hash, kept.final_state_hash);
        assert!(spilled.snapshots.is_empty());

        let log = log.lock().expect("offer log lock");
        assert!(log.len() >= 3, "seed {seed}: every answer is given");
        let offered: Vec<(u64, u64, u64)> = log
            .iter()
            .map(|(m, _)| (m.decision, m.step, m.time))
            .collect();
        let taken: Vec<(u64, u64, u64)> = kept
            .snapshots
            .iter()
            .map(|s| (s.at_decision(), s.steps(), s.time()))
            .collect();
        assert_eq!(offered, taken, "seed {seed}");
        let marks: Vec<SnapshotMark> = log
            .iter()
            .filter(|(_, answer)| matches!(answer, Ok(Some(_))))
            .map(|(mark, _)| *mark)
            .collect();
        let errors: Vec<String> = log.iter().filter_map(|(_, a)| a.clone().err()).collect();
        assert_eq!(spilled.spilled, marks, "seed {seed}");
        assert_eq!(spilled.spill_errors, errors, "seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The determinism guarantee, property-tested: for arbitrary seeds and
    /// snapshot cadences, restore + re-run reproduces the uninterrupted
    /// trace and observable behaviour from *every* snapshot taken.
    #[test]
    fn restore_and_rerun_is_identity(seed in 0u64..500, every in 1u64..5, pick in 0usize..8) {
        let original = run_with_checkpoints(seed, CheckpointPlan::new(every, 40));
        prop_assert!(!original.snapshots.is_empty(),
            "gauntlet always hits multi-candidate decisions");
        let want = trace_hash(&original);
        let snap = &original.snapshots[pick % original.snapshots.len()];
        let resumed = resume_program(&Gauntlet, resume_cfg(seed), snap, None, vec![]);
        prop_assert_eq!(trace_hash(&resumed), want);
        prop_assert_eq!(&resumed.io, &original.io);
        prop_assert_eq!(resumed.stats.steps, original.stats.steps);
        prop_assert_eq!(resumed.stats.resumed_steps, snap.steps());
    }
}
