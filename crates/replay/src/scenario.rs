//! Scenarios and run specifications: what a replayer knows and may try.
//!
//! A [`Scenario`] is the "production incident": the program, the (hidden)
//! nondeterminism of the original run, a failure oracle, and the
//! [`NondetSpace`] a replayer is allowed to search when inference is needed.
//! Replayers receive the original seed/inputs/environment only through what
//! their recording artifact captured — the scenario's own values are used
//! once, to produce the original run.

use dd_sim::{
    EnvConfig, InputScript, IoSummary, NondetOverride, Observer, Program, RunConfig, RunOutput,
    SchedulePolicy,
};
use dd_trace::{FailureSnapshot, ScheduleLog};
use std::sync::Arc;

/// Decides whether a run's observable behaviour constitutes a failure, and
/// if so assigns it a stable identity. Supplied by the workload's I/O
/// specification (see `dd-core`).
pub type FailureOracle = Arc<dyn Fn(&IoSummary) -> Option<FailureSnapshot> + Send + Sync>;

/// The space of nondeterminism a replayer may search during inference.
///
/// This models what ESD-style execution synthesis explores symbolically:
/// schedules (seeds), alternative inputs, and alternative environments
/// (faults, congestion, resource limits).
#[derive(Clone)]
pub struct NondetSpace {
    /// Candidate schedule seeds.
    pub seeds: Vec<u64>,
    /// Candidate input scripts (for models that did not record inputs).
    pub inputs: Vec<InputScript>,
    /// Candidate environments (for models that did not record the
    /// environment).
    pub envs: Vec<EnvConfig>,
}

impl NondetSpace {
    /// A space of schedule seeds only, with the given input script and a
    /// clean environment as the sole candidates.
    pub fn schedules_only(n_seeds: u64, inputs: InputScript) -> Self {
        NondetSpace {
            seeds: (0..n_seeds).collect(),
            inputs: vec![inputs],
            envs: vec![EnvConfig::clean()],
        }
    }

    /// Total number of candidate combinations.
    pub fn size(&self) -> u64 {
        self.seeds.len() as u64 * self.inputs.len().max(1) as u64 * self.envs.len().max(1) as u64
    }
}

/// A production incident to be debugged via replay.
#[derive(Clone)]
pub struct Scenario {
    /// The program.
    pub program: Arc<dyn Program>,
    /// Kernel RNG seed of the original run.
    pub seed: u64,
    /// Schedule-policy seed of the original run.
    pub sched_seed: u64,
    /// Inputs of the original run.
    pub inputs: InputScript,
    /// Environment of the original run.
    pub env: EnvConfig,
    /// Step bound for every run.
    pub max_steps: u64,
    /// Failure oracle (the I/O specification's verdict).
    pub failure_of: FailureOracle,
    /// What a replayer may search.
    pub space: NondetSpace,
}

impl Scenario {
    /// The [`RunConfig`] of one run of `spec` under this scenario's step
    /// bound; callers switch on what else the run needs.
    fn config(&self, spec: &RunSpec) -> RunConfig {
        RunConfig {
            seed: spec.seed,
            max_steps: self.max_steps,
            inputs: spec.inputs.clone(),
            env: spec.env.clone(),
            ..RunConfig::default()
        }
    }

    /// Builds the [`RunSpec`] of the original production run.
    pub fn original_spec(&self) -> RunSpec {
        RunSpec {
            seed: self.seed,
            policy: PolicyChoice::Random(self.sched_seed),
            inputs: self.inputs.clone(),
            env: self.env.clone(),
        }
    }

    /// Runs a spec against this scenario's program.
    pub fn execute(&self, spec: &RunSpec, observers: Vec<Box<dyn Observer>>) -> RunOutput {
        self.execute_with_override(spec, observers, None)
    }

    /// Runs a spec with per-decision state digests enabled (see
    /// [`dd_sim::RunConfig::hash_decisions`]). The run itself is
    /// bit-identical to [`Scenario::execute`]; the output additionally
    /// carries `decision_hashes` and `final_state_hash` for divergence
    /// localisation.
    pub fn execute_hashed(&self, spec: &RunSpec, observers: Vec<Box<dyn Observer>>) -> RunOutput {
        let cfg = RunConfig {
            hash_decisions: true,
            ..self.config(spec)
        };
        dd_sim::run_program(self.program.as_ref(), cfg, spec.policy.build(), observers)
    }

    /// Runs a spec collecting resumable world snapshots per `plan`
    /// (see [`dd_sim::CheckpointPlan`]). Snapshot collection does not
    /// perturb the run: the trace is bit-identical to [`Scenario::execute`].
    pub fn execute_checkpointed(
        &self,
        spec: &RunSpec,
        plan: dd_sim::CheckpointPlan,
        observers: Vec<Box<dyn Observer>>,
    ) -> RunOutput {
        let cfg = RunConfig {
            checkpoints: Some(plan),
            ..self.config(spec)
        };
        dd_sim::run_program(self.program.as_ref(), cfg, spec.policy.build(), observers)
    }

    /// Runs a spec with both snapshot collection (per `plan`) and
    /// per-decision state digests enabled — the configuration `dd record`
    /// uses to produce a replayable JSONL trace artifact. Neither facility
    /// perturbs the run: the trace is bit-identical to [`Scenario::execute`].
    pub fn execute_recorded(
        &self,
        spec: &RunSpec,
        plan: dd_sim::CheckpointPlan,
        observers: Vec<Box<dyn Observer>>,
    ) -> RunOutput {
        let cfg = RunConfig {
            checkpoints: Some(plan),
            hash_decisions: true,
            ..self.config(spec)
        };
        dd_sim::run_program(self.program.as_ref(), cfg, spec.policy.build(), observers)
    }

    /// [`Scenario::execute_recorded`] with snapshot retention redirected to
    /// a persistent [`dd_sim::SnapshotSink`]: each checkpoint the plan fires
    /// is offered to the sink (typically a `dd-trace` `SnapshotStore`
    /// spilling to disk) instead of accumulating in memory. The run is still
    /// bit-identical to [`Scenario::execute`]; the output's `spilled` marks
    /// identify the snapshots the sink accepted and `snapshots` stays empty.
    pub fn execute_spilled(
        &self,
        spec: &RunSpec,
        plan: dd_sim::CheckpointPlan,
        sink: Box<dyn dd_sim::SnapshotSink>,
        observers: Vec<Box<dyn Observer>>,
    ) -> RunOutput {
        let cfg = RunConfig {
            checkpoints: Some(plan),
            hash_decisions: true,
            snapshot_sink: Some(sink),
            ..self.config(spec)
        };
        dd_sim::run_program(self.program.as_ref(), cfg, spec.policy.build(), observers)
    }

    /// Resumes this scenario's program from a snapshot under `policy`,
    /// continuing to collect deeper snapshots per `plan`. `spec` must carry
    /// the same seed/inputs/environment as the run the snapshot came from.
    pub fn resume(
        &self,
        spec: &RunSpec,
        snapshot: &dd_sim::WorldSnapshot,
        policy: Box<dyn SchedulePolicy>,
        plan: dd_sim::CheckpointPlan,
    ) -> RunOutput {
        let cfg = RunConfig {
            checkpoints: Some(plan),
            ..self.config(spec)
        };
        dd_sim::resume_program(self.program.as_ref(), cfg, snapshot, Some(policy), vec![])
    }

    /// Resumes this scenario's program from a snapshot under `policy`,
    /// with per-decision state digests enabled and no further snapshot
    /// collection — the configuration `dd replay --from` uses to
    /// fast-forward from a stored checkpoint while still localising
    /// divergence. The snapshot carries the digest prefix of the recorded
    /// run, so the output's `decision_hashes` covers the *whole* run:
    /// restored prefix plus re-executed tail.
    pub fn resume_hashed(
        &self,
        spec: &RunSpec,
        snapshot: &dd_sim::WorldSnapshot,
        policy: Box<dyn SchedulePolicy>,
    ) -> RunOutput {
        let cfg = RunConfig {
            hash_decisions: true,
            ..self.config(spec)
        };
        dd_sim::resume_program(self.program.as_ref(), cfg, snapshot, Some(policy), vec![])
    }

    /// Runs a spec under an explicitly constructed policy instance,
    /// ignoring `spec.policy`. This is how the order-guided models attach
    /// stateful policies ([`crate::guided::OrderRecorder`],
    /// [`crate::guided::GuidedOrderPolicy`]) that [`PolicyChoice`] cannot
    /// describe.
    pub fn execute_with_policy(
        &self,
        spec: &RunSpec,
        policy: Box<dyn SchedulePolicy>,
        observers: Vec<Box<dyn Observer>>,
    ) -> RunOutput {
        dd_sim::run_program(self.program.as_ref(), self.config(spec), policy, observers)
    }

    /// Runs a spec with an optional nondeterminism override (value replay).
    pub fn execute_with_override(
        &self,
        spec: &RunSpec,
        observers: Vec<Box<dyn Observer>>,
        nondet_override: Option<Box<dyn NondetOverride>>,
    ) -> RunOutput {
        let cfg = RunConfig {
            nondet_override,
            ..self.config(spec)
        };
        dd_sim::run_program(self.program.as_ref(), cfg, spec.policy.build(), observers)
    }
}

impl core::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Scenario")
            .field("program", &self.program.name())
            .field("seed", &self.seed)
            .field("sched_seed", &self.sched_seed)
            .field("inputs", &self.inputs.len())
            .field("space", &self.space.size())
            .finish()
    }
}

/// How to drive the scheduler for one run.
#[derive(Debug, Clone)]
pub enum PolicyChoice {
    /// Seeded random scheduling (models the production scheduler).
    Random(u64),
    /// Deterministic round-robin.
    RoundRobin,
    /// Strict replay of a recorded schedule.
    Replay(ScheduleLog),
    /// Force a decision-index prefix, then continue randomly (search).
    Prefix(Vec<u32>, u64),
    /// Probabilistic concurrency testing: random priorities with `depth-1`
    /// change points — good at exposing rare interleavings during search.
    Pct {
        /// Policy seed.
        seed: u64,
        /// Expected run length in decisions.
        expected_len: u64,
        /// Bug depth to target.
        depth: u32,
    },
}

impl PolicyChoice {
    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn SchedulePolicy> {
        match self {
            PolicyChoice::Random(seed) => Box::new(dd_sim::RandomPolicy::new(*seed)),
            PolicyChoice::RoundRobin => Box::new(dd_sim::RoundRobinPolicy::new()),
            PolicyChoice::Replay(log) => Box::new(log.clone().into_replay_policy()),
            PolicyChoice::Prefix(prefix, seed) => {
                Box::new(dd_sim::PrefixPolicy::new(prefix.clone(), *seed))
            }
            PolicyChoice::Pct {
                seed,
                expected_len,
                depth,
            } => Box::new(dd_sim::PctPolicy::new(*seed, *expected_len, *depth)),
        }
    }
}

/// One fully specified run: seed, policy, inputs, environment.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Kernel RNG seed.
    pub seed: u64,
    /// Scheduling policy.
    pub policy: PolicyChoice,
    /// Input script.
    pub inputs: InputScript,
    /// Environment.
    pub env: EnvConfig,
}

/// A registered incident (`dd_cli`'s workload names) as its production
/// scenario and two seeded variants, for tests that need real workloads.
#[cfg(test)]
pub(crate) fn incident_variants(name: &str) -> Vec<Scenario> {
    let workload = dd_cli::workload_by_name(name).expect("a registered workload");
    let production = workload.production();
    [(production.seed, production.sched_seed), (1, 38), (2, 69)]
        .into_iter()
        .map(|(seed, sched_seed)| {
            let mut setup = production.clone();
            setup.seed = seed;
            setup.sched_seed = sched_seed;
            // `dd_cli` links the library build of this crate, whose
            // `Scenario` is a distinct type with the same fields.
            let s = workload.scenario_for(&setup);
            Scenario {
                program: s.program,
                seed: s.seed,
                sched_seed: s.sched_seed,
                inputs: s.inputs,
                env: s.env,
                max_steps: s.max_steps,
                failure_of: s.failure_of,
                space: NondetSpace {
                    seeds: s.space.seeds,
                    inputs: s.space.inputs,
                    envs: s.space.envs,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::{Builder, StopReason, Value};

    struct Echo;
    impl Program for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn setup(&self, b: &mut Builder<'_>) {
            let p = b.in_port("in");
            let out = b.out_port("out");
            b.spawn("echo", "g", move |mut ctx| async move {
                let v: i64 = ctx.input(p, "echo::in").await?;
                ctx.output(out, v * 2, "echo::out").await
            });
        }
    }

    fn scenario() -> Scenario {
        let mut inputs = InputScript::new();
        inputs.push("in", 0, Value::Int(21));
        Scenario {
            program: Arc::new(Echo),
            seed: 1,
            sched_seed: 1,
            inputs: inputs.clone(),
            env: EnvConfig::clean(),
            max_steps: 10_000,
            failure_of: Arc::new(|_| None),
            space: NondetSpace::schedules_only(4, inputs),
        }
    }

    #[test]
    fn original_spec_reproduces_configuration() {
        let s = scenario();
        let out = s.execute(&s.original_spec(), vec![]);
        assert_eq!(out.stop, StopReason::Quiescent);
        assert_eq!(out.io.outputs_on("out")[0].as_int(), Some(42));
    }

    #[test]
    fn space_size_multiplies() {
        let s = NondetSpace {
            seeds: vec![1, 2, 3],
            inputs: vec![InputScript::new(), InputScript::new()],
            envs: vec![EnvConfig::clean()],
        };
        assert_eq!(s.size(), 6);
    }

    #[test]
    fn policy_choices_build() {
        for p in [
            PolicyChoice::Random(1),
            PolicyChoice::RoundRobin,
            PolicyChoice::Replay(ScheduleLog::default()),
            PolicyChoice::Prefix(vec![0, 1], 3),
            PolicyChoice::Pct {
                seed: 4,
                expected_len: 100,
                depth: 3,
            },
        ] {
            let _ = p.build();
        }
    }
}
