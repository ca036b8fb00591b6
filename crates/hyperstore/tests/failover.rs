//! Validation of the replicated failover cluster: the buggy build loses
//! the un-shipped commit-log suffix when a primary crashes mid-load, the
//! fixed build's synchronous shipping survives the same fault schedules,
//! crash recovery replays the commit log, and fault runs replay
//! deterministically.

use dd_core::{CauseCtx, Workload};
use dd_hyperstore::{
    check_failover_run, failover_env_candidates, failover_fault_env, failover_root_causes,
    failover_spec, HyperConfig, HyperstoreFailoverWorkload, HyperstoreProgram, RANGES_UNAVAILABLE,
    RC_LOST_LOG_SUFFIX, ROWS_MISSING,
};
use dd_sim::{run_program, RandomPolicy, RunConfig};

fn run(program: &HyperstoreProgram, seed: u64, env: dd_sim::EnvConfig) -> dd_sim::RunOutput {
    let cfg = RunConfig {
        seed,
        max_steps: 500_000,
        inputs: program.cfg.input_script(),
        env,
        ..RunConfig::default()
    };
    run_program(program, cfg, Box::new(RandomPolicy::new(seed)), vec![])
}

#[test]
fn buggy_failover_loses_acked_rows_under_crash_schedule() {
    let w = HyperstoreFailoverWorkload::discover(HyperConfig::default(), 200)
        .expect("a failing production seed exists under the crash schedule");
    let setup = w.production();
    assert!(
        !setup.env.crashes.is_empty(),
        "the production incident needs the injected crash"
    );
    let program = HyperstoreProgram::buggy_failover(w.config().clone());
    let out = run(&program, setup.seed, setup.env.clone());
    let f = failover_spec(w.config().n_ranges)
        .check(&out.io)
        .expect("production run fails");
    assert_eq!(f.failure_id, ROWS_MISSING);

    // The distinguishing signal: promotion observed the lost suffix.
    assert!(
        out.io.counter("promote_lost_rows") > 0,
        "promotion should have counted lost rows"
    );
    let ctx = CauseCtx {
        trace: &out.trace,
        registry: &out.registry,
        io: &out.io,
    };
    let causes = failover_root_causes();
    let lost = causes.iter().find(|c| c.id == RC_LOST_LOG_SUFFIX).unwrap();
    assert!(lost.active_in(&ctx), "lost-suffix cause active");
}

#[test]
fn fixed_failover_never_loses_acked_rows_under_crash_schedule() {
    let cfg = HyperConfig::default();
    let inputs = cfg.input_script();
    let env = failover_fault_env(&cfg);
    let program = HyperstoreProgram::fixed_failover(cfg);
    for seed in 0..8 {
        let failure = check_failover_run(&program, seed, &inputs, env.clone());
        assert!(
            failure.is_none(),
            "seed {seed}: fixed failover build failed under crash: {failure:?}"
        );
    }
}

#[test]
fn fixed_failover_survives_every_env_candidate() {
    let cfg = HyperConfig::default();
    let inputs = cfg.input_script();
    let program = HyperstoreProgram::fixed_failover(cfg.clone());
    for (i, env) in failover_env_candidates(&cfg).into_iter().enumerate() {
        for seed in 0..4 {
            let failure = check_failover_run(&program, seed, &inputs, env.clone());
            assert!(
                failure.is_none(),
                "env candidate {i}, seed {seed}: fixed failover failed: {failure:?}"
            );
        }
    }
}

#[test]
fn clean_runs_pass_on_both_failover_builds() {
    let cfg = HyperConfig::default();
    let inputs = cfg.input_script();
    for program in [
        HyperstoreProgram::buggy_failover(cfg.clone()),
        HyperstoreProgram::fixed_failover(cfg.clone()),
    ] {
        for seed in 0..8 {
            let failure = check_failover_run(&program, seed, &inputs, dd_sim::EnvConfig::clean());
            assert!(
                failure.is_none(),
                "{}: seed {seed} failed on a clean run: {failure:?}",
                dd_sim::Program::name(&program)
            );
        }
    }
}

#[test]
fn restart_recovers_index_from_commit_log_and_rejoins() {
    let cfg = HyperConfig::default();
    let env = failover_env_candidates(&cfg)
        .into_iter()
        .find(|e| !e.restarts.is_empty())
        .expect("restart candidate exists");
    let program = HyperstoreProgram::buggy_failover(cfg);
    let mut recovered_seen = false;
    for seed in 0..8 {
        let out = run(&program, seed, env.clone());
        if out.io.group_restarts.get("server1").copied() != Some(1) {
            continue;
        }
        if out.trace.probes("hyperstore.recovered").next().is_some() {
            // The recovered control task announced itself to the master.
            assert!(
                out.trace.probes("hyperstore.rejoin").next().is_some(),
                "seed {seed}: recovery without a rejoin grant"
            );
            recovered_seen = true;
            break;
        }
    }
    assert!(
        recovered_seen,
        "no seed exercised the crash-recovery path in 8 tries"
    );
}

#[test]
fn unreachable_server_degrades_dump_coverage() {
    // Partition the dumper away from one primary for the whole run. The
    // loaders never notice (their traffic is unaffected), so nobody
    // suspects the server and no promotion happens — the dump must degrade
    // gracefully, answer from the reachable ranges, and report the
    // availability loss instead of hanging.
    let cfg = HyperConfig::default();
    let env = dd_sim::EnvConfig {
        partitions: vec![dd_sim::PartitionEvent {
            start: 0,
            heal: 1 << 40,
            a: "dumper".into(),
            b: "server0".into(),
        }],
        ..dd_sim::EnvConfig::clean()
    };
    let program = HyperstoreProgram::fixed_failover(cfg.clone());
    for seed in 0..4 {
        let out = run(&program, seed, env.clone());
        let f = failover_spec(cfg.n_ranges)
            .check(&out.io)
            .expect("an unreachable primary must cost dump coverage");
        assert_eq!(
            f.failure_id, RANGES_UNAVAILABLE,
            "seed {seed}: expected degraded coverage, got {f:?}"
        );
    }
}

#[test]
fn fault_schedule_runs_are_deterministic() {
    let cfg = HyperConfig::default();
    for env in failover_env_candidates(&cfg) {
        let program = HyperstoreProgram::buggy_failover(cfg.clone());
        let a = run(&program, 7, env.clone());
        let b = run(&program, 7, env.clone());
        assert_eq!(
            a.final_state_hash, b.final_state_hash,
            "same seed + same fault schedule must replay identically"
        );
        assert_eq!(a.io, b.io, "I/O summaries must match");
    }
}
