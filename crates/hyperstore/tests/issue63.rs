//! Validation of the issue-63 reproduction: the buggy build loses rows
//! under racy schedules, the fixed build never does, and all three §4 root
//! causes are reachable.

use dd_core::{CauseCtx, Workload};
use dd_hyperstore::{
    check_run, env_candidates, hyperstore_root_causes, hyperstore_spec, HyperConfig,
    HyperstoreProgram, HyperstoreWorkload, RC_CLIENT_OOM, RC_MIGRATION_RACE, RC_SERVER_CRASH,
    ROWS_MISSING,
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
fn buggy_build_loses_rows_for_some_schedule() {
    let cfg = HyperConfig::default();
    let program = HyperstoreProgram::buggy(cfg.clone());
    let spec = hyperstore_spec();
    let mut failing = 0;
    let mut passing = 0;
    for seed in 0..24 {
        let out = run(&program, seed, dd_sim::EnvConfig::clean());
        match spec.check(&out.io) {
            Some(f) => {
                assert_eq!(f.failure_id, ROWS_MISSING, "unexpected failure: {f:?}");
                failing += 1;
            }
            None => passing += 1,
        }
    }
    assert!(failing > 0, "no racy schedule lost rows in 24 seeds");
    assert!(
        passing > 0,
        "every schedule failed — bug should be schedule-dependent"
    );
}

#[test]
fn fixed_build_never_loses_rows() {
    let cfg = HyperConfig::default();
    let inputs = cfg.input_script();
    let program = HyperstoreProgram::fixed(cfg);
    for seed in 0..24 {
        let failure = check_run(&program, seed, &inputs);
        assert!(
            failure.is_none(),
            "seed {seed}: fixed build failed: {failure:?}"
        );
    }
}

#[test]
fn race_cause_is_active_in_failing_runs() {
    let w = HyperstoreWorkload::discover(HyperConfig::default(), 200)
        .expect("a failing production seed exists");
    let scenario = w.scenario();
    let out = scenario.execute(&scenario.original_spec(), vec![]);
    let failure = (scenario.failure_of)(&out.io).expect("production run fails");
    assert_eq!(failure.failure_id, ROWS_MISSING);

    let ctx = CauseCtx {
        trace: &out.trace,
        registry: &out.registry,
        io: &out.io,
    };
    let causes = hyperstore_root_causes();
    let active: Vec<&str> = causes
        .iter()
        .filter(|c| c.active_in(&ctx))
        .map(|c| c.id)
        .collect();
    assert_eq!(
        active,
        vec![RC_MIGRATION_RACE],
        "only the race explains a clean-environment failure"
    );
}

#[test]
fn server_crash_env_loses_rows_with_crash_cause() {
    let cfg = HyperConfig::default();
    let program = HyperstoreProgram::buggy(cfg.clone());
    let spec = hyperstore_spec();
    let causes = hyperstore_root_causes();
    let crash_env = env_candidates(&cfg)
        .into_iter()
        .find(|e| !e.crashes.is_empty())
        .expect("crash candidate exists");
    let mut found = false;
    for seed in 0..8 {
        let out = run(&program, seed, crash_env.clone());
        if let Some(f) = spec.check(&out.io) {
            if f.failure_id != ROWS_MISSING {
                continue;
            }
            let ctx = CauseCtx {
                trace: &out.trace,
                registry: &out.registry,
                io: &out.io,
            };
            let crash = causes.iter().find(|c| c.id == RC_SERVER_CRASH).unwrap();
            if crash.active_in(&ctx) {
                found = true;
                break;
            }
        }
    }
    assert!(
        found,
        "server crash should reproduce the missing-rows failure"
    );
}

#[test]
fn dumper_oom_env_loses_rows_with_oom_cause() {
    let cfg = HyperConfig::default();
    let program = HyperstoreProgram::buggy(cfg.clone());
    let spec = hyperstore_spec();
    let causes = hyperstore_root_causes();
    let oom_env = env_candidates(&cfg)
        .into_iter()
        .find(|e| !e.mem_budget.is_empty())
        .expect("oom candidate exists");
    let mut found = false;
    for seed in 0..8 {
        let out = run(&program, seed, oom_env.clone());
        if let Some(f) = spec.check(&out.io) {
            if f.failure_id != ROWS_MISSING {
                continue;
            }
            let ctx = CauseCtx {
                trace: &out.trace,
                registry: &out.registry,
                io: &out.io,
            };
            let oom = causes.iter().find(|c| c.id == RC_CLIENT_OOM).unwrap();
            if oom.active_in(&ctx) {
                found = true;
                break;
            }
        }
    }
    assert!(found, "dumper OOM should truncate the dump");
}

#[test]
fn all_rows_arrive_when_there_is_no_migration() {
    // Without migrations the buggy build is correct: the race needs a
    // migration to lose anything.
    let cfg = HyperConfig {
        migrations: vec![],
        ..HyperConfig::default()
    };
    let inputs = cfg.input_script();
    let program = HyperstoreProgram::buggy(cfg);
    for seed in 0..8 {
        let failure = check_run(&program, seed, &inputs);
        assert!(
            failure.is_none(),
            "seed {seed}: lost rows without migration: {failure:?}"
        );
    }
}

#[test]
fn workload_training_runs_pass() {
    let w = HyperstoreWorkload::discover(HyperConfig::default(), 200).expect("discovery succeeds");
    let spec = hyperstore_spec();
    assert!(!w.training().is_empty(), "training setups found");
    for setup in w.training() {
        let s = w.scenario_for(&setup);
        let out = s.execute(&s.original_spec(), vec![]);
        assert!(spec.check(&out.io).is_none(), "training run failed");
    }
}
