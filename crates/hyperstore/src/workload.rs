//! The hyperstore workload: spec, root causes, search space, and discovery
//! of the failing production incident.

use crate::config::HyperConfig;
use crate::program::HyperstoreProgram;
use dd_classify::Plane;
use dd_core::{snapshot, CauseCtx, FnSpec, RootCause, RunSetup, Spec, Workload};
use dd_replay::NondetSpace;
use dd_sim::{
    CrashEvent, EnvConfig, Event, IoSummary, PartitionEvent, Program, RandomPolicy, RestartEvent,
    RunConfig,
};
use dd_trace::FailureSnapshot;
use std::sync::Arc;

/// The failure id assigned when a dump returns fewer rows than were loaded.
pub const ROWS_MISSING: &str = "hyperstore.rows-missing";
/// The failure id for runs that never produced their load/dump summary.
pub const INCOMPLETE: &str = "hyperstore.incomplete";
/// The failure id when the dump could not reach every range's replica set
/// (availability loss, as opposed to the silent loss of [`ROWS_MISSING`]).
pub const RANGES_UNAVAILABLE: &str = "hyperstore.ranges-unavailable";

/// Root-cause id: the issue-63 migration/commit race.
pub const RC_MIGRATION_RACE: &str = "migration-commit-race";
/// Root-cause id: a range server crashed after rows were loaded.
pub const RC_SERVER_CRASH: &str = "server-crash-after-load";
/// Root-cause id: the dump client ran out of memory mid-dump.
pub const RC_CLIENT_OOM: &str = "client-oom-during-dump";
/// Root-cause id (failover): promotion merged a follower replica that was
/// missing the failed primary's un-shipped commit-log suffix.
pub const RC_LOST_LOG_SUFFIX: &str = "promotion-loses-log-suffix";
/// Root-cause id (failover): a network partition swallowed log shipments,
/// so the replica was stale when it was promoted.
pub const RC_PARTITION_SHIPPING: &str = "partition-stalled-shipping";
/// Root-cause id (failover): a whole replica set was down at dump time, so
/// its ranges went unanswered (availability, not silent loss).
pub const RC_REPLICA_DOWN: &str = "replica-set-down";

/// Builds the hyperstore I/O specification.
///
/// The spec compares the coordinator's loaded count with the dumper's
/// returned count: fewer dumped rows than loaded rows is the §4 failure
/// ("subsequent dumps of the table do not return all rows").
pub fn hyperstore_spec() -> Arc<dyn Spec> {
    Arc::new(FnSpec::new("hyperstore-dump-complete", |io: &IoSummary| {
        let loaded = io.outputs_on("loaded").first().and_then(|v| v.as_int());
        let dumped = io.outputs_on("dumped").first().and_then(|v| v.as_int());
        match (loaded, dumped) {
            (Some(l), Some(d)) if d < l => Some(snapshot(
                ROWS_MISSING,
                format!("dump returned {d} of {l} rows"),
                io,
            )),
            (Some(_), Some(_)) => None,
            _ => Some(snapshot(
                INCOMPLETE,
                "run ended without a load/dump summary".into(),
                io,
            )),
        }
    }))
}

/// Builds the three §4 potential root causes for the missing-rows failure.
pub fn hyperstore_root_causes() -> Vec<RootCause> {
    vec![
        RootCause::new(
            RC_MIGRATION_RACE,
            ROWS_MISSING,
            "rows committed to a server concurrently losing their range \
             (unsynchronised commit vs. migration)",
            |ctx: &CauseCtx<'_>| {
                // Manifestation A: a commit observed its range already gone.
                let unowned_commit = ctx
                    .trace
                    .probes("hyperstore.commit_owned")
                    .any(|(_, v)| v.as_bool() == Some(false));
                if unowned_commit {
                    return true;
                }
                // Manifestation B: a commit and a migration partition
                // clobbered each other's index update.
                !dd_detect::lost_updates(ctx.trace, ctx.registry, |name| {
                    name.ends_with(".index") || name.ends_with(".ranges")
                })
                .is_empty()
            },
        ),
        RootCause::new(
            RC_SERVER_CRASH,
            ROWS_MISSING,
            "a range server crashed after rows were committed to it \
             (expected data loss, not a code defect)",
            |ctx: &CauseCtx<'_>| {
                ctx.trace.any(|e| match e {
                    Event::GroupKilled { group, .. } => group.starts_with("server"),
                    _ => false,
                })
            },
        ),
        RootCause::new(
            RC_CLIENT_OOM,
            ROWS_MISSING,
            "the dump client exhausted its memory budget before finishing \
             the dump (apparent data corruption)",
            |ctx: &CauseCtx<'_>| {
                ctx.trace
                    .any(|e| matches!(e, Event::AllocFail { site, .. } if site == "dumper::alloc"))
            },
        ),
    ]
}

/// Environment candidates a replayer may consider: fault scenarios that can
/// also explain missing rows, plus the clean production environment.
///
/// Fault hypotheses come first: execution synthesis favours the *simplest*
/// execution consistent with the failure evidence, and a node crash or OOM
/// is a much shorter causal path than a precise racy interleaving — this is
/// exactly how a failure-deterministic replayer ends up reporting a
/// different root cause than the original run (§2, §4).
pub fn env_candidates(cfg: &HyperConfig) -> Vec<EnvConfig> {
    let mut envs = Vec::new();
    let crash_time = cfg.migrations.first().map(|m| m.time + 60).unwrap_or(300);
    for j in 0..cfg.n_servers.min(2) {
        envs.push(EnvConfig {
            crashes: vec![CrashEvent {
                time: crash_time,
                group: format!("server{j}"),
            }],
            ..EnvConfig::clean()
        });
    }
    let mut oom = EnvConfig::clean();
    oom.mem_budget.insert(
        "dumper".into(),
        (cfg.row_size as u64) * (cfg.n_rows as u64 / 2).max(1),
    );
    envs.push(oom);
    envs.push(EnvConfig::clean());
    envs
}

/// Builds the failover-cluster I/O specification.
///
/// Checks availability first — a dump that could not reach every range's
/// replica set ([`RANGES_UNAVAILABLE`]) explains its own missing rows — and
/// only then durability: a fully-covered dump returning fewer rows than the
/// clients got acknowledged is silent data loss ([`ROWS_MISSING`]).
pub fn failover_spec(n_ranges: u32) -> Arc<dyn Spec> {
    Arc::new(FnSpec::new(
        "hyperstore-failover-durable",
        move |io: &IoSummary| {
            let loaded = io.outputs_on("loaded").first().and_then(|v| v.as_int());
            let dumped = io.outputs_on("dumped").first().and_then(|v| v.as_int());
            let covered = io.outputs_on("covered").first().and_then(|v| v.as_int());
            match (loaded, dumped, covered) {
                (Some(_), Some(_), Some(c)) if c < n_ranges as i64 => Some(snapshot(
                    RANGES_UNAVAILABLE,
                    format!("dump reached {c} of {n_ranges} ranges"),
                    io,
                )),
                (Some(l), Some(d), Some(_)) if d < l => Some(snapshot(
                    ROWS_MISSING,
                    format!("dump returned {d} of {l} acknowledged rows"),
                    io,
                )),
                (Some(_), Some(_), Some(_)) => None,
                _ => Some(snapshot(
                    INCOMPLETE,
                    "run ended without a load/dump/coverage summary".into(),
                    io,
                )),
            }
        },
    ))
}

/// Builds the potential root causes for the failover cluster's failures.
pub fn failover_root_causes() -> Vec<RootCause> {
    vec![
        RootCause::new(
            RC_LOST_LOG_SUFFIX,
            ROWS_MISSING,
            "promotion merged a follower replica missing the failed \
             primary's un-shipped commit-log suffix (acknowledged rows \
             silently lost)",
            |ctx: &CauseCtx<'_>| ctx.io.counter("promote_lost_rows") > 0,
        ),
        RootCause::new(
            RC_PARTITION_SHIPPING,
            ROWS_MISSING,
            "a network partition swallowed log shipments, leaving the \
             replica stale when it was promoted",
            |ctx: &CauseCtx<'_>| ctx.trace.any(|e| matches!(e, Event::PartitionStart { .. })),
        ),
        RootCause::new(
            RC_SERVER_CRASH,
            ROWS_MISSING,
            "a range server crashed after rows were committed to it \
             (expected to be masked by replication)",
            |ctx: &CauseCtx<'_>| {
                ctx.trace.any(|e| match e {
                    Event::GroupKilled { group, .. } => group.starts_with("server"),
                    _ => false,
                })
            },
        ),
        RootCause::new(
            RC_CLIENT_OOM,
            ROWS_MISSING,
            "the dump client exhausted its memory budget before finishing \
             the dump (apparent data corruption)",
            |ctx: &CauseCtx<'_>| {
                ctx.trace
                    .any(|e| matches!(e, Event::AllocFail { site, .. } if site == "dumper::alloc"))
            },
        ),
        RootCause::new(
            RC_REPLICA_DOWN,
            RANGES_UNAVAILABLE,
            "a replica set was entirely down at dump time, so its ranges \
             went unanswered",
            |ctx: &CauseCtx<'_>| {
                ctx.trace.any(|e| match e {
                    Event::GroupKilled { group, .. } => group.starts_with("server"),
                    _ => false,
                })
            },
        ),
    ]
}

/// The production fault schedule the failover bug needs: a primary dies
/// mid-migration-window, while clients still have acknowledged puts whose
/// shipment batch has not been flushed.
pub fn failover_fault_env(cfg: &HyperConfig) -> EnvConfig {
    let crash_time = cfg.migrations.first().map(|m| m.time + 50).unwrap_or(270);
    EnvConfig {
        crashes: vec![CrashEvent {
            time: crash_time,
            group: "server1".into(),
        }],
        ..EnvConfig::clean()
    }
}

/// Environment candidates for the failover workload: the crash schedule
/// that triggers the bug, a shipping-window partition, a crash+restart
/// (recovery) schedule, and the clean environment.
pub fn failover_env_candidates(cfg: &HyperConfig) -> Vec<EnvConfig> {
    let crash_time = cfg.migrations.first().map(|m| m.time + 50).unwrap_or(270);
    let mut envs = vec![failover_fault_env(cfg)];
    // A partition between two replica-set halves across the early load
    // window. It must heal before the first migration: a `Transfer` dropped
    // on the floor is a plain availability loss in *any* build, not the
    // lost-suffix bug this workload hunts.
    let first_migration = cfg.migrations.first().map(|m| m.time).unwrap_or(u64::MAX);
    envs.push(EnvConfig {
        partitions: vec![PartitionEvent {
            start: 40,
            heal: (40 + cfg.ack_timeout).min(first_migration.saturating_sub(20)),
            a: "server1".into(),
            b: "server2".into(),
        }],
        ..EnvConfig::clean()
    });
    // Crash then restart: recovery replays the commit log and rejoins.
    envs.push(EnvConfig {
        crashes: vec![CrashEvent {
            time: crash_time,
            group: "server1".into(),
        }],
        restarts: vec![RestartEvent {
            time: crash_time + 2 * cfg.ack_timeout,
            group: "server1".into(),
        }],
        ..EnvConfig::clean()
    });
    envs.push(EnvConfig::clean());
    envs
}

/// The hyperstore workload, pinned to a discovered failing production run.
pub struct HyperstoreWorkload {
    cfg: HyperConfig,
    production: RunSetup,
    training: Vec<RunSetup>,
}

impl HyperstoreWorkload {
    /// Configuration accessor.
    pub fn config(&self) -> &HyperConfig {
        &self.cfg
    }

    /// Searches schedule seeds for a production run that fails with the
    /// missing-rows failure *caused by the migration race* (clean
    /// environment), and for passing training runs. Returns `None` if no
    /// failing seed exists within `max_seeds`.
    pub fn discover(cfg: HyperConfig, max_seeds: u64) -> Option<Self> {
        let program = HyperstoreProgram::buggy(cfg.clone());
        let spec = hyperstore_spec();
        let inputs = cfg.input_script();
        let causes = hyperstore_root_causes();
        let race = causes
            .iter()
            .find(|c| c.id == RC_MIGRATION_RACE)
            .expect("race cause declared");

        let mut production = None;
        for seed in 0..max_seeds {
            let out = run_once(&program, seed, &inputs);
            let Some(f) = spec.check(&out.io) else {
                continue;
            };
            if f.failure_id != ROWS_MISSING {
                continue;
            }
            let ctx = CauseCtx {
                trace: &out.trace,
                registry: &out.registry,
                io: &out.io,
            };
            if race.active_in(&ctx) {
                production = Some(RunSetup {
                    seed,
                    sched_seed: seed,
                    inputs: inputs.clone(),
                    env: EnvConfig::clean(),
                    max_steps: 500_000,
                });
                break;
            }
        }
        let production = production?;

        // Training: passing runs only (pre-release test-cluster runs).
        let mut training = Vec::new();
        let mut seed = 1_000;
        while training.len() < 6 && seed < 1_000 + 200 {
            let out = run_once(&program, seed, &inputs);
            if spec.check(&out.io).is_none() {
                training.push(RunSetup {
                    seed,
                    sched_seed: seed,
                    inputs: inputs.clone(),
                    env: EnvConfig::clean(),
                    max_steps: 500_000,
                });
            }
            seed += 1;
        }
        Some(HyperstoreWorkload {
            cfg,
            production,
            training,
        })
    }
}

fn run_once(
    program: &HyperstoreProgram,
    seed: u64,
    inputs: &dd_sim::InputScript,
) -> dd_sim::RunOutput {
    run_once_env(program, seed, inputs, EnvConfig::clean())
}

fn run_once_env(
    program: &HyperstoreProgram,
    seed: u64,
    inputs: &dd_sim::InputScript,
    env: EnvConfig,
) -> dd_sim::RunOutput {
    let cfg = RunConfig {
        seed,
        max_steps: 500_000,
        inputs: inputs.clone(),
        env,
        ..RunConfig::default()
    };
    dd_sim::run_program(program, cfg, Box::new(RandomPolicy::new(seed)), vec![])
}

impl Workload for HyperstoreWorkload {
    fn name(&self) -> &'static str {
        "hyperstore-issue63"
    }

    fn program(&self) -> Arc<dyn Program> {
        Arc::new(HyperstoreProgram::buggy(self.cfg.clone()))
    }

    fn spec(&self) -> Arc<dyn Spec> {
        hyperstore_spec()
    }

    fn root_causes(&self) -> Vec<RootCause> {
        hyperstore_root_causes()
    }

    fn production(&self) -> RunSetup {
        self.production.clone()
    }

    fn space(&self) -> NondetSpace {
        NondetSpace {
            seeds: (0..24).collect(),
            inputs: vec![self.cfg.input_script()],
            envs: env_candidates(&self.cfg),
        }
    }

    fn training(&self) -> Vec<RunSetup> {
        self.training.clone()
    }

    fn plane_truth(&self) -> Vec<(&'static str, Plane)> {
        vec![
            ("master::", Plane::Control),
            ("client::locate", Plane::Control),
            ("client::input", Plane::Control),
            ("client::done", Plane::Control),
            ("client::ack_recv", Plane::Control),
            ("client::put_send", Plane::Data),
            ("server::commit_log", Plane::Data),
            ("server::ack_send", Plane::Control),
            ("serverctl::recv", Plane::Control),
            ("serverctl::transfer_send", Plane::Data),
            ("serverctl::merge_ingest", Plane::Data),
            ("serverctl::done_send", Plane::Control),
            ("serverctl::dump_send", Plane::Control),
            ("coord::", Plane::Control),
            ("dumper::dump_send", Plane::Control),
        ]
    }

    fn fixed_program(&self) -> Option<Arc<dyn Program>> {
        Some(Arc::new(HyperstoreProgram::fixed(self.cfg.clone())))
    }
}

/// The replicated failover workload, pinned to a discovered production
/// incident: a primary crash during the migration window that makes
/// promotion silently lose the un-shipped commit-log suffix.
pub struct HyperstoreFailoverWorkload {
    cfg: HyperConfig,
    production: RunSetup,
    training: Vec<RunSetup>,
}

impl HyperstoreFailoverWorkload {
    /// Configuration accessor.
    pub fn config(&self) -> &HyperConfig {
        &self.cfg
    }

    /// Searches schedule seeds for a production run of the buggy failover
    /// build that fails with silent row loss *caused by the lost log
    /// suffix* under the crash-during-migration fault schedule, plus
    /// passing clean-environment training runs. Returns `None` if no
    /// failing seed exists within `max_seeds`.
    pub fn discover(cfg: HyperConfig, max_seeds: u64) -> Option<Self> {
        let program = HyperstoreProgram::buggy_failover(cfg.clone());
        let spec = failover_spec(cfg.n_ranges);
        let inputs = cfg.input_script();
        let fault_env = failover_fault_env(&cfg);
        let causes = failover_root_causes();
        let lost_suffix = causes
            .iter()
            .find(|c| c.id == RC_LOST_LOG_SUFFIX)
            .expect("lost-suffix cause declared");

        let mut production = None;
        for seed in 0..max_seeds {
            let out = run_once_env(&program, seed, &inputs, fault_env.clone());
            let Some(f) = spec.check(&out.io) else {
                continue;
            };
            if f.failure_id != ROWS_MISSING {
                continue;
            }
            let ctx = CauseCtx {
                trace: &out.trace,
                registry: &out.registry,
                io: &out.io,
            };
            if lost_suffix.active_in(&ctx) {
                production = Some(RunSetup {
                    seed,
                    sched_seed: seed,
                    inputs: inputs.clone(),
                    env: fault_env.clone(),
                    max_steps: 500_000,
                });
                break;
            }
        }
        let production = production?;

        // Training: passing clean-environment runs (pre-release test
        // cluster, no faults injected).
        let mut training = Vec::new();
        let mut seed = 1_000;
        while training.len() < 6 && seed < 1_000 + 200 {
            let out = run_once(&program, seed, &inputs);
            if spec.check(&out.io).is_none() {
                training.push(RunSetup {
                    seed,
                    sched_seed: seed,
                    inputs: inputs.clone(),
                    env: EnvConfig::clean(),
                    max_steps: 500_000,
                });
            }
            seed += 1;
        }
        Some(HyperstoreFailoverWorkload {
            cfg,
            production,
            training,
        })
    }
}

impl Workload for HyperstoreFailoverWorkload {
    fn name(&self) -> &'static str {
        "hyperstore-failover"
    }

    fn program(&self) -> Arc<dyn Program> {
        Arc::new(HyperstoreProgram::buggy_failover(self.cfg.clone()))
    }

    fn spec(&self) -> Arc<dyn Spec> {
        failover_spec(self.cfg.n_ranges)
    }

    fn root_causes(&self) -> Vec<RootCause> {
        failover_root_causes()
    }

    fn production(&self) -> RunSetup {
        self.production.clone()
    }

    fn space(&self) -> NondetSpace {
        NondetSpace {
            seeds: (0..24).collect(),
            inputs: vec![self.cfg.input_script()],
            envs: failover_env_candidates(&self.cfg),
        }
    }

    fn training(&self) -> Vec<RunSetup> {
        self.training.clone()
    }

    fn plane_truth(&self) -> Vec<(&'static str, Plane)> {
        vec![
            ("master::", Plane::Control),
            ("client::locate", Plane::Control),
            ("client::input", Plane::Control),
            ("client::done", Plane::Control),
            ("client::ack_recv", Plane::Control),
            ("client::suspect", Plane::Control),
            ("client::backoff", Plane::Control),
            ("client::put_send", Plane::Data),
            ("server::commit_log", Plane::Data),
            ("server::ack_send", Plane::Control),
            ("server::ship", Plane::Control),
            ("server::ship_ack", Plane::Control),
            ("serverctl::recv", Plane::Control),
            ("serverctl::transfer_send", Plane::Data),
            ("serverctl::merge_ingest", Plane::Data),
            ("serverctl::done_send", Plane::Control),
            ("serverctl::dump_send", Plane::Control),
            ("serverctl::ship_ack", Plane::Control),
            ("serverctl::pong", Plane::Control),
            ("coord::", Plane::Control),
            ("dumper::dump_send", Plane::Control),
            ("dumper::covered", Plane::Control),
        ]
    }

    fn fixed_program(&self) -> Option<Arc<dyn Program>> {
        Some(Arc::new(HyperstoreProgram::fixed_failover(
            self.cfg.clone(),
        )))
    }
}

/// Returns the failure snapshot of one run of the given program under the
/// workload's spec (test helper).
pub fn check_run(
    program: &HyperstoreProgram,
    seed: u64,
    inputs: &dd_sim::InputScript,
) -> Option<FailureSnapshot> {
    let out = run_once(program, seed, inputs);
    hyperstore_spec().check(&out.io)
}

/// Like [`check_run`] but under an injected fault environment and the
/// failover spec (test helper for the replicated cluster).
pub fn check_failover_run(
    program: &HyperstoreProgram,
    seed: u64,
    inputs: &dd_sim::InputScript,
    env: EnvConfig,
) -> Option<FailureSnapshot> {
    let n_ranges = program.cfg.n_ranges;
    let out = run_once_env(program, seed, inputs, env);
    failover_spec(n_ranges).check(&out.io)
}
