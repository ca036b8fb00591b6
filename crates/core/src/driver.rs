//! The public driver facade: one [`Session`] behind the `dd` CLI, the
//! repro binaries and the examples.
//!
//! A session owns everything one debugging engagement needs — the workload,
//! the recording fidelity ([`RcseConfig`]), the inference budget and search
//! strategy, and the recording checkpoint plan — and exposes the four
//! pipeline verbs over them:
//!
//! - [`record`](Session::record): run the production incident with
//!   per-decision state digests and produce a [`JsonlTrace`] artifact;
//! - [`replay`](Session::replay): re-execute a trace under the strict
//!   schedule policy, comparing digests at every decision and stopping at
//!   the first divergence;
//! - [`explore`](Session::explore): hand the recorded run's configuration
//!   to the systematic (DPOR) search and look for other executions of the
//!   same failure;
//! - the experiment verbs ([`evaluate`](Session::evaluate),
//!   [`debug_model`](Session::debug_model), [`train`](Session::train))
//!   the figures are built from.
//!
//! Before the facade, every binary assembled scenarios, training seeds and
//! budgets by hand; the session is that assembly, written once.

use crate::experiment::{enumerate_root_causes, evaluate_model_on, ModelReport};
use crate::rcse::{train, DebugModel, RcseConfig, Training};
use crate::workload::{RunSetup, Workload};
use dd_replay::{
    replay_trace, replay_trace_from, search_with, Artifact, DeterminismModel, DivergenceReport,
    FailureModel, InferenceBudget, ModelKind, MsgOrderModel, NondetSpace, OutputHeavyModel,
    OutputLiteModel, PerfectModel, RaceCompleteModel, Recording, ReplayResult, Scenario,
    SearchResult, SearchStrategy, ValueModel, RECORDING_CHECKPOINTS,
};
use dd_sim::{CheckpointPlan, IoSummary, SnapshotSink, WorldSnapshot};
use dd_trace::{JsonlError, JsonlTrace, TraceHeader};
use std::sync::Arc;

/// One debugging engagement: a workload plus every knob the pipeline needs.
///
/// Built builder-style — construct with [`Session::new`] and chain `with_*`
/// methods:
///
/// ```no_run
/// # fn workload() -> std::sync::Arc<dyn dd_core::Workload> { unimplemented!() }
/// use dd_core::driver::Session;
/// use dd_core::InferenceBudget;
///
/// let session = Session::new(workload()).with_budget(InferenceBudget::dpor(64, 8));
/// let trace = session.record().unwrap();
/// let report = session.replay(&trace);
/// assert!(report.identical());
/// ```
pub struct Session {
    workload: Arc<dyn Workload>,
    budget: InferenceBudget,
    recording: RcseConfig,
    checkpoints: CheckpointPlan,
    training_cap: Option<usize>,
    production: Option<RunSetup>,
}

impl Session {
    /// A session over `workload` with the default budget, recording
    /// fidelity and checkpoint cadence.
    pub fn new(workload: Arc<dyn Workload>) -> Self {
        Session {
            workload,
            budget: InferenceBudget::default(),
            recording: RcseConfig::default(),
            checkpoints: RECORDING_CHECKPOINTS,
            training_cap: None,
            production: None,
        }
    }

    /// Replaces the inference budget (bounds + search strategy).
    pub fn with_budget(mut self, budget: InferenceBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Shorthand: bounds inference to `n` candidate executions.
    pub fn with_executions(mut self, n: u64) -> Self {
        self.budget.max_executions = n;
        self
    }

    /// Replaces the recording-fidelity configuration (RCSE knobs: triggers,
    /// quiet window, invariant training, …).
    pub fn with_recording(mut self, cfg: RcseConfig) -> Self {
        self.recording = cfg;
        self
    }

    /// Replaces the checkpoint cadence recording runs use.
    pub fn with_checkpoint_plan(mut self, plan: CheckpointPlan) -> Self {
        self.checkpoints = plan;
        self
    }

    /// Caps how many of the workload's training configurations are used
    /// (default: all of them).
    pub fn with_training_runs(mut self, runs: usize) -> Self {
        self.training_cap = Some(runs);
        self
    }

    /// Overrides the production incident (seeds, inputs, environment, step
    /// bound). Every verb — record, replay scenario assembly, training,
    /// evaluation — uses the override from then on.
    pub fn with_production(mut self, setup: RunSetup) -> Self {
        self.production = Some(setup);
        self
    }

    // ---- accessors -------------------------------------------------------

    /// The workload under debugging.
    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// The session's inference budget.
    pub fn budget(&self) -> &InferenceBudget {
        &self.budget
    }

    /// The production incident this session debugs (the workload's, unless
    /// overridden with [`with_production`](Session::with_production)).
    pub fn production(&self) -> RunSetup {
        self.production
            .clone()
            .unwrap_or_else(|| self.workload.production())
    }

    /// The replay scenario for the production incident.
    pub fn scenario(&self) -> Scenario {
        self.workload.scenario_for(&self.production())
    }

    /// The training seed pairs (kernel seed, schedule seed), honoring the
    /// [`with_training_runs`](Session::with_training_runs) cap.
    pub fn training_seeds(&self) -> Vec<(u64, u64)> {
        let seeds = self.workload.training();
        let cap = self.training_cap.unwrap_or(seeds.len());
        seeds
            .iter()
            .take(cap)
            .map(|s| (s.seed, s.sched_seed))
            .collect()
    }

    // ---- production discovery -------------------------------------------

    /// Scans schedule seeds `0..limit` of the production setup for one
    /// whose run violates the I/O specification, and makes it the session's
    /// production incident. Returns the failing seed, or `None` (session
    /// unchanged) if none exists within the limit.
    pub fn discover_failing_schedule(mut self, limit: u64) -> (Self, Option<u64>) {
        let base = self.production();
        for sched_seed in 0..limit {
            let setup = RunSetup {
                sched_seed,
                ..base.clone()
            };
            let scenario = self.workload.scenario_for(&setup);
            let out = scenario.execute(&scenario.original_spec(), vec![]);
            if (scenario.failure_of)(&out.io).is_some() {
                self.production = Some(setup);
                return (self, Some(sched_seed));
            }
        }
        (self, None)
    }

    // ---- training / experiment verbs ------------------------------------

    /// Runs offline training (plane classification, site profiling and —
    /// if configured — invariant inference) on the workload's passing
    /// configurations.
    pub fn train(&self) -> Training {
        train(&self.scenario(), &self.training_seeds(), &self.recording)
    }

    /// Builds the RCSE debug-determinism model: trains on the workload's
    /// passing runs under this session's recording fidelity.
    pub fn debug_model(&self) -> DebugModel {
        DebugModel::prepare(
            &self.scenario(),
            &self.training_seeds(),
            self.recording.clone(),
        )
    }

    /// Evaluates one determinism model on the production incident:
    /// record, replay from the artifact, assess DF/DE/DU.
    pub fn evaluate(&self, model: &dyn DeterminismModel) -> (ModelReport, Recording, ReplayResult) {
        evaluate_model_on(&self.scenario(), self.workload(), model, &self.budget)
    }

    /// Which declared root causes the explorer can verify reachable within
    /// this session's budget (the §3.2 empirical `n`).
    pub fn reachable_causes(&self) -> Vec<(&'static str, bool)> {
        enumerate_root_causes(self.workload(), &self.budget)
    }

    // ---- determinism-model verbs (`dd record --model=<kind>`) ------------

    /// Builds the determinism model a [`ModelKind`] names. The baselines are
    /// stateless; the RCSE debug model is trained on this session's passing
    /// configurations first.
    pub fn model(&self, kind: ModelKind) -> Box<dyn DeterminismModel> {
        match kind {
            ModelKind::Perfect => Box::new(PerfectModel),
            ModelKind::Value => Box::new(ValueModel),
            ModelKind::OutputLite => Box::new(OutputLiteModel),
            ModelKind::OutputHeavy => Box::new(OutputHeavyModel),
            ModelKind::Failure => Box::new(FailureModel),
            ModelKind::MsgOrder => Box::new(MsgOrderModel),
            ModelKind::RaceComplete => Box::new(RaceCompleteModel),
            ModelKind::Debug => Box::new(self.debug_model()),
        }
    }

    /// Records the production incident under the named determinism model,
    /// producing its [`Recording`] (artifact + log volume + ground truth).
    pub fn record_model(&self, kind: ModelKind) -> Recording {
        self.model(kind).record(&self.scenario())
    }

    /// Replays a model recording against the production incident under this
    /// session's inference budget.
    pub fn replay_model(&self, recording: &Recording) -> ReplayResult {
        self.model(recording.model)
            .replay(&self.scenario(), recording, &self.budget)
    }

    /// Replays a persisted [`Artifact`] (e.g. one `dd record --model` wrote
    /// to disk). Model recording is deterministic, so the ground truth the
    /// fidelity verdicts compare against is regenerated by re-recording;
    /// the *loaded* artifact is then substituted in and replayed.
    pub fn replay_artifact(
        &self,
        kind: ModelKind,
        artifact: Artifact,
    ) -> (Recording, ReplayResult) {
        let mut recording = self.record_model(kind);
        recording.artifact = artifact;
        let result = self.replay_model(&recording);
        (recording, result)
    }

    // ---- the trace pipeline: record / replay / explore -------------------

    /// Records the production incident into a [`JsonlTrace`] artifact: the
    /// run executes under the original (random) policy with per-decision
    /// state digests and the session's checkpoint plan; neither perturbs
    /// the run, so the trace is byte-identical across invocations.
    pub fn record(&self) -> Result<JsonlTrace, JsonlError> {
        let p = self.production();
        let scenario = self.workload.scenario_for(&p);
        let out = scenario.execute_recorded(&scenario.original_spec(), self.checkpoints, vec![]);
        let header = TraceHeader::new(
            self.workload.name(),
            p.seed,
            p.sched_seed,
            p.max_steps,
            p.inputs,
            p.env,
        );
        JsonlTrace::from_run(header, &out)
    }

    /// [`Session::record`] with snapshot retention redirected to a
    /// persistent sink — the `dd record --spill` configuration. The run is
    /// bit-identical to [`Session::record`] (spilling does not perturb
    /// execution), so the trace artifact hashes the same; checkpoints the
    /// session's plan fires are offered to `sink` instead of accumulating
    /// in memory.
    ///
    /// Also returns the sink's write errors (one message per declined
    /// checkpoint): the run itself never fails because a spill did — the
    /// caller decides whether an incomplete store is acceptable.
    pub fn record_spilled(
        &self,
        sink: Box<dyn SnapshotSink>,
    ) -> Result<(JsonlTrace, Vec<String>), JsonlError> {
        let p = self.production();
        let scenario = self.workload.scenario_for(&p);
        let mut out =
            scenario.execute_spilled(&scenario.original_spec(), self.checkpoints, sink, vec![]);
        let spill_errors = std::mem::take(&mut out.spill_errors);
        let header = TraceHeader::new(
            self.workload.name(),
            p.seed,
            p.sched_seed,
            p.max_steps,
            p.inputs,
            p.env,
        );
        JsonlTrace::from_run(header, &out).map(|t| (t, spill_errors))
    }

    /// The replay scenario for a trace's recorded configuration (the
    /// header's seeds/inputs/environment, this session's workload).
    pub fn scenario_for_trace(&self, header: &TraceHeader) -> Scenario {
        self.workload.scenario_for(&RunSetup {
            seed: header.seed,
            sched_seed: header.sched_seed,
            inputs: header.inputs.clone(),
            env: header.env.clone(),
            max_steps: header.max_steps,
        })
    }

    /// Re-executes a recorded trace under the strict schedule policy with
    /// state hashing, comparing digests at every decision point, and
    /// reports the first divergence (see [`dd_replay::divergence`]).
    pub fn replay(&self, trace: &JsonlTrace) -> DivergenceReport {
        let scenario = self.scenario_for_trace(&trace.header);
        replay_trace(&scenario, trace, vec![])
    }

    /// [`Session::replay`] fast-forwarded from a restored mid-run world
    /// snapshot — `dd replay --from`. The strict policy resumes at the
    /// snapshot's decision; the divergence report still covers the whole
    /// run (see [`dd_replay::replay_trace_from`]).
    pub fn replay_from(&self, trace: &JsonlTrace, snapshot: &WorldSnapshot) -> DivergenceReport {
        let scenario = self.scenario_for_trace(&trace.header);
        replay_trace_from(&scenario, trace, snapshot)
    }

    /// Compares recorded vs replayed *behaviour* (the I/O specification's
    /// verdict) instead of machine state — `dd replay --invariant-only`.
    pub fn behavior_check(&self, trace: &JsonlTrace, replayed: &IoSummary) -> BehaviorCheck {
        let scenario = self.scenario_for_trace(&trace.header);
        let recorded_failure = (scenario.failure_of)(&trace.footer.io).map(|f| f.failure_id);
        let replayed_failure = (scenario.failure_of)(replayed).map(|f| f.failure_id);
        BehaviorCheck {
            drifted: recorded_failure != replayed_failure,
            recorded_failure,
            replayed_failure,
        }
    }

    /// Hands the recorded run to the systematic search machinery: fixing
    /// the trace's kernel seed, inputs and environment, explores the
    /// schedule space for other executions exhibiting the recorded failure
    /// (or any failure, if the recorded run passed). Uses the budget's
    /// strategy when it is systematic, otherwise DPOR at the default depth.
    pub fn explore(&self, trace: &JsonlTrace) -> Exploration {
        let mut scenario = self.scenario_for_trace(&trace.header);
        // Walk the recorded run's schedules only: not the workload's other
        // seeds or environments, where a fault could stand in for the
        // recorded cause.
        scenario.space = NondetSpace {
            seeds: vec![scenario.seed],
            inputs: vec![],
            envs: vec![scenario.env.clone()],
        };
        let target = (scenario.failure_of)(&trace.footer.io).map(|f| f.failure_id);
        let strategy = match self.budget.strategy.max_depth() {
            Some(_) => self.budget.strategy,
            None => SearchStrategy::Dpor {
                max_depth: DEFAULT_EXPLORE_DEPTH,
            },
        };
        let inputs = scenario.inputs.clone();
        let sought = target.clone();
        let result = search_with(
            &scenario,
            &self.budget,
            strategy,
            Some(&inputs),
            |out| match (&sought, (scenario.failure_of)(&out.io)) {
                (Some(id), Some(f)) => f.failure_id == *id,
                (None, found) => found.is_some(),
                (Some(_), None) => false,
            },
        );
        Exploration { target, result }
    }
}

/// Branching depth [`Session::explore`] falls back to when the budget's
/// strategy is not systematic.
pub const DEFAULT_EXPLORE_DEPTH: u32 = 8;

impl core::fmt::Debug for Session {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Session")
            .field("workload", &self.workload.name())
            .field("budget", &self.budget)
            .field("checkpoints", &self.checkpoints)
            .field("training_cap", &self.training_cap)
            .field("production_override", &self.production.is_some())
            .finish()
    }
}

/// Recorded-vs-replayed behavioural comparison (`dd replay
/// --invariant-only`): did the specification verdict drift?
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BehaviorCheck {
    /// `true` when the replay's verdict differs from the recording's.
    pub drifted: bool,
    /// Failure id of the recorded run (`None` = the recording passed).
    pub recorded_failure: Option<String>,
    /// Failure id of the replayed run.
    pub replayed_failure: Option<String>,
}

/// The outcome of [`Session::explore`].
pub struct Exploration {
    /// The failure id sought (`None`: the recorded run passed, so any
    /// failure was accepted).
    pub target: Option<String>,
    /// The systematic search's result and statistics.
    pub result: SearchResult,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{snapshot, FnSpec};
    use dd_replay::NondetSpace;
    use dd_sim::{Builder, ChanClass, InputScript, Program};

    /// Two workers race on an unlocked counter; the reporter outputs it.
    struct Racy;
    impl Program for Racy {
        fn name(&self) -> &'static str {
            "racy"
        }
        fn setup(&self, b: &mut Builder<'_>) {
            let total = b.var("total", 0i64);
            let out = b.out_port("result");
            let done = b.channel::<i64>("done", ChanClass::Local);
            for i in 0..2 {
                b.spawn(&format!("w{i}"), "g", move |mut ctx| async move {
                    for _ in 0..4 {
                        let v = ctx.read(&total, "w::read").await?;
                        ctx.write(&total, v + 1, "w::write").await?;
                    }
                    ctx.send(&done, 1, "w::done").await
                });
            }
            b.spawn("r", "main", move |mut ctx| async move {
                for _ in 0..2 {
                    ctx.recv(&done, "r::join").await?;
                }
                let v = ctx.read(&total, "r::read").await?;
                ctx.output(out, v, "r::out").await
            });
        }
    }

    struct RacyWorkload;
    impl Workload for RacyWorkload {
        fn name(&self) -> &'static str {
            "racy"
        }
        fn program(&self) -> Arc<dyn Program> {
            Arc::new(Racy)
        }
        fn spec(&self) -> Arc<dyn crate::Spec> {
            Arc::new(FnSpec::new("racy-total", |io| {
                let total = io.outputs_on("result").first().and_then(|v| v.as_int())?;
                (total < 8).then(|| snapshot("lost-updates", format!("total {total}"), io))
            }))
        }
        fn root_causes(&self) -> Vec<crate::RootCause> {
            Vec::new()
        }
        fn production(&self) -> RunSetup {
            RunSetup {
                max_steps: 100_000,
                ..RunSetup::default()
            }
        }
        fn space(&self) -> NondetSpace {
            NondetSpace::schedules_only(8, InputScript::new())
        }
    }

    fn session() -> Session {
        Session::new(Arc::new(RacyWorkload))
    }

    #[test]
    fn record_then_replay_is_identical() {
        let s = session();
        let trace = s.record().expect("recordable");
        assert_eq!(trace.footer.decisions, trace.decisions.len() as u64);
        let report = s.replay(&trace);
        assert!(report.identical(), "{:?}", report.divergence);
        assert_eq!(report.replayed_decisions, trace.footer.decisions);
    }

    #[test]
    fn recording_is_deterministic() {
        let s = session();
        let a = s.record().unwrap().render();
        let b = s.record().unwrap().render();
        assert_eq!(a, b, "same session must produce byte-identical traces");
    }

    #[test]
    fn mutated_decision_diverges_at_that_index() {
        let s = session();
        let trace = s.record().expect("recordable");
        // Pick a mid-trace decision with more than one candidate and force
        // a different choice; replay must stop exactly there.
        let idx = trace
            .decisions
            .iter()
            .position(|d| d.n > 1)
            .expect("racy program has multi-candidate decisions");
        let mut mutated = trace.clone();
        let old = mutated.decisions[idx].chosen;
        let other = trace
            .decisions
            .iter()
            .map(|d| d.chosen)
            .find(|&c| c != old)
            .unwrap_or(dd_sim::TaskId(old.0 + 1));
        mutated.decisions[idx].chosen = other;
        // Either the forced task is enabled (the digest stream catches the
        // drift at the next comparison point, implicating this decision) or
        // it is not (the strict policy stops here directly) — both report
        // the mutated index.
        let report = s.replay(&mutated);
        let div = report.divergence.expect("mutation must be caught");
        assert_eq!(div.decision, idx as u64, "divergence at the mutated index");
    }

    #[test]
    fn behavior_check_passes_on_faithful_replay() {
        let s = session();
        let trace = s.record().unwrap();
        let report = s.replay(&trace);
        let check = s.behavior_check(&trace, &report.out.io);
        assert!(!check.drifted);
        assert_eq!(check.recorded_failure, check.replayed_failure);
    }

    #[test]
    fn discovery_sets_production_override() {
        let (s, seed) = session().discover_failing_schedule(64);
        let seed = seed.expect("some schedule loses updates");
        assert_eq!(s.production().sched_seed, seed);
        let scenario = s.scenario();
        let out = scenario.execute(&scenario.original_spec(), vec![]);
        assert!((scenario.failure_of)(&out.io).is_some());
    }

    #[test]
    fn explore_finds_the_recorded_failure() {
        let (s, _) = session().discover_failing_schedule(64);
        let s = s.with_executions(256);
        let trace = s.record().unwrap();
        let exploration = s.explore(&trace);
        assert_eq!(exploration.target.as_deref(), Some("lost-updates"));
        assert!(exploration.result.stats.found, "DPOR finds the race");
    }
}
