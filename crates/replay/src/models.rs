//! The baseline determinism models as recorder/replayer pairs.
//!
//! Each model implements [`DeterminismModel`]: `record` runs the production
//! execution with that model's recording cost attached (a [`LogCharger`]
//! pays for each event its logs keep) and projects its artifact logs from
//! the finished run; `replay` produces an execution from the artifact
//! alone — by exact re-execution where the artifact allows it, by value
//! feeding for value determinism, and by bounded search (standing in for
//! symbolic inference) for the ultra-relaxed models.

use crate::explorer::{search, search_with, InferenceBudget, InferenceStats, SearchStrategy};
use crate::guided::{
    pinned_completion_digest, racing_outcomes, GuidedOrderPolicy, OrderCostObserver, OrderEntry,
    OrderLog, OrderRecorder, OutcomeFeed, PinSet, RaceOutcome,
};
use crate::lock;
use crate::recordings::{costs, Artifact, CrewObserver, ModelKind, OriginalRun, Recording};
use crate::scenario::{NondetSpace, PolicyChoice, RunSpec, Scenario};
use dd_detect::HbRaceDetector;
use dd_sim::{EnvConfig, InputScript, IoSummary, Observer, RunOutput, StopReason};
use dd_trace::{
    FailureSnapshot, InputLog, LogCharger, LogKind, LogStats, OutputLog, ScheduleLog, Trace,
    ValueLog,
};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// The execution a replayer produced, with fidelity bookkeeping.
#[derive(Debug)]
pub struct ReplayResult {
    /// Observable behaviour of the replayed execution.
    pub io: IoSummary,
    /// Analysis trace of the replayed execution.
    pub trace: Trace,
    /// Name tables of the replayed execution.
    pub registry: dd_sim::Registry,
    /// How the replayed execution stopped.
    pub stop: StopReason,
    /// Failure verdict of the replayed execution.
    pub failure: Option<FailureSnapshot>,
    /// Whether the replay exhibits the same failure as the original.
    pub reproduced_failure: bool,
    /// Whether the recorded artifact's constraints hold on the replayed
    /// execution (e.g. outputs match, schedule replayed without divergence).
    pub artifact_satisfied: bool,
    /// Inference search statistics (zero for non-inference models).
    pub inference: InferenceStats,
    /// Execution ticks of the replayed run itself.
    pub replay_ticks: u64,
    /// Value-feed divergences (value determinism only).
    pub value_divergences: u64,
}

/// A determinism model: a recording scheme plus a replay procedure.
pub trait DeterminismModel: Send + Sync {
    /// Which model this is.
    fn kind(&self) -> ModelKind;

    /// Runs the production execution, recording under this model.
    fn record(&self, scenario: &Scenario) -> Recording;

    /// Produces a replay execution from the artifact.
    fn replay(
        &self,
        scenario: &Scenario,
        recording: &Recording,
        budget: &InferenceBudget,
    ) -> ReplayResult;
}

/// Returns the failure id of a run, per the scenario's oracle.
fn failure_of(scenario: &Scenario, io: &IoSummary) -> Option<FailureSnapshot> {
    (scenario.failure_of)(io)
}

/// Records and bytes the run's [`LogCharger`] charged.
fn charged(out: &RunOutput) -> LogStats {
    out.observer::<LogCharger>()
        .expect("log charger attached")
        .stats()
}

impl ReplayResult {
    /// The result of a replayed run `out` of `scenario`: its failure
    /// verdict, and whether that is `recording`'s original failure. The run
    /// is consumed: its event log, name tables and I/O move in, the log's
    /// sealed chunks as they are.
    pub fn from_run(
        scenario: &Scenario,
        recording: &Recording,
        out: RunOutput,
        artifact_satisfied: bool,
        inference: InferenceStats,
        value_divergences: u64,
    ) -> Self {
        let failure = failure_of(scenario, &out.io);
        let reproduced_failure = match (&recording.original.failure, &failure) {
            (Some(a), Some(b)) => a.failure_id == b.failure_id,
            (None, None) => true,
            _ => false,
        };
        ReplayResult {
            trace: out.trace,
            registry: out.registry,
            stop: out.stop,
            replay_ticks: out.stats.exec_ticks,
            io: out.io,
            failure,
            reproduced_failure,
            artifact_satisfied,
            inference,
            value_divergences,
        }
    }
}

// ---------------------------------------------------------------------------
// Perfect determinism (SMP-ReVirt-style CREW)
// ---------------------------------------------------------------------------

/// Checkpoint cadence of recording runs: coarse (every 8th decision, first
/// 128 decisions) — enough for artifacts to advertise intermediate replay
/// starting points without cloning the world on every decision.
pub const RECORDING_CHECKPOINTS: dd_sim::CheckpointPlan = dd_sim::CheckpointPlan {
    every: 8,
    max_decision: 128,
};

/// Perfect determinism: records the full interleaving, inputs and
/// environment, paying a CREW ownership-transfer penalty on every cross-CPU
/// shared access. Replay is exact re-execution.
#[derive(Debug, Default)]
pub struct PerfectModel;

impl DeterminismModel for PerfectModel {
    fn kind(&self) -> ModelKind {
        ModelKind::Perfect
    }

    fn record(&self, scenario: &Scenario) -> Recording {
        let observers: Vec<Box<dyn Observer>> = vec![
            Box::new(CrewObserver::new()),
            Box::new(LogCharger::new(&[
                (LogKind::Schedule, costs::SCHEDULE),
                (LogKind::Input, costs::INPUT),
            ])),
        ];
        // The recording run checkpoints at a coarse cadence so the artifact
        // records where resumable replay starting points exist (the
        // availability-guarantee idea: replay need not start from the first
        // instruction). Snapshot collection never perturbs the trace.
        let out = scenario.execute_checkpointed(
            &scenario.original_spec(),
            RECORDING_CHECKPOINTS,
            observers,
        );
        Recording {
            model: ModelKind::Perfect,
            artifact: Artifact::Perfect {
                schedule: ScheduleLog::from_run(&out),
                inputs: InputLog::from_run(&out),
                env: scenario.env.clone(),
                seed: scenario.seed,
            },
            overhead_factor: out.stats.overhead_factor(),
            log: charged(&out),
            original: OriginalRun::from_run(scenario, out),
        }
    }

    fn replay(
        &self,
        scenario: &Scenario,
        recording: &Recording,
        _budget: &InferenceBudget,
    ) -> ReplayResult {
        let Artifact::Perfect {
            schedule,
            inputs,
            env,
            seed,
        } = &recording.artifact
        else {
            panic!("perfect replay requires a perfect artifact");
        };
        let spec = RunSpec {
            seed: *seed,
            policy: PolicyChoice::Replay(schedule.clone()),
            inputs: inputs.to_script(),
            env: env.clone(),
        };
        let out = scenario.execute(&spec, vec![]);
        let satisfied = !matches!(out.stop, StopReason::ReplayDivergence { .. });
        ReplayResult::from_run(
            scenario,
            recording,
            out,
            satisfied,
            InferenceStats::default(),
            0,
        )
    }
}

// ---------------------------------------------------------------------------
// Value determinism (iDNA)
// ---------------------------------------------------------------------------

/// Value determinism: logs every value each task observes (reads, receives,
/// inputs, RNG draws). Replay feeds the logs back per task under an
/// arbitrary schedule — cross-CPU causal order is *not* reproduced, exactly
/// as in iDNA.
#[derive(Debug, Default)]
pub struct ValueModel;

impl DeterminismModel for ValueModel {
    fn kind(&self) -> ModelKind {
        ModelKind::Value
    }

    fn record(&self, scenario: &Scenario) -> Recording {
        let charger = LogCharger::new(&[(LogKind::Value, costs::VALUE)]);
        let out = scenario.execute(&scenario.original_spec(), vec![Box::new(charger)]);
        let overhead_factor = out.stats.overhead_factor();
        let log = charged(&out);
        let original = OriginalRun::from_run(scenario, out);
        Recording {
            model: ModelKind::Value,
            artifact: Artifact::Value {
                values: ValueLog::from_trace(&original.trace),
            },
            overhead_factor,
            log,
            original,
        }
    }

    fn replay(
        &self,
        scenario: &Scenario,
        recording: &Recording,
        _budget: &InferenceBudget,
    ) -> ReplayResult {
        let Artifact::Value { values } = &recording.artifact else {
            panic!("value replay requires a value artifact");
        };
        let (cursor, stats) = values.clone().into_cursor();
        let spec = RunSpec {
            // The schedule and environment are deliberately arbitrary: value
            // determinism guarantees nothing about them.
            seed: 0x1D0_5EED,
            policy: PolicyChoice::Random(0xFEED_FACE),
            inputs: InputScript::new(),
            env: EnvConfig::clean(),
        };
        let out = scenario.execute_with_override(&spec, vec![], Some(Box::new(cursor)));
        let divergences = stats.divergences();
        ReplayResult::from_run(
            scenario,
            recording,
            out,
            divergences == 0,
            InferenceStats::default(),
            divergences,
        )
    }
}

// ---------------------------------------------------------------------------
// Output determinism (ODR)
// ---------------------------------------------------------------------------

/// Output determinism, lightweight scheme: records outputs only and infers
/// *everything* else (inputs, schedule, environment) by search.
#[derive(Debug, Default)]
pub struct OutputLiteModel;

/// Output determinism, heavier scheme: additionally records inputs, leaving
/// only schedule and environment to inference — trading recording overhead
/// for tractable inference, as ODR does.
#[derive(Debug, Default)]
pub struct OutputHeavyModel;

fn record_outputs(scenario: &Scenario, with_inputs: bool) -> Recording {
    let mut logs = vec![(LogKind::Output, costs::OUTPUT)];
    if with_inputs {
        logs.push((LogKind::Input, costs::INPUT));
    }
    let charger = LogCharger::new(&logs);
    let out = scenario.execute(&scenario.original_spec(), vec![Box::new(charger)]);
    let outputs = OutputLog::from_io(&out.io);
    let (model, artifact) = if with_inputs {
        let inputs = InputLog::from_run(&out);
        (
            ModelKind::OutputHeavy,
            Artifact::OutputHeavy { outputs, inputs },
        )
    } else {
        (ModelKind::OutputLite, Artifact::OutputLite { outputs })
    };
    Recording {
        model,
        artifact,
        overhead_factor: out.stats.overhead_factor(),
        log: charged(&out),
        original: OriginalRun::from_run(scenario, out),
    }
}

fn replay_outputs(
    scenario: &Scenario,
    recording: &Recording,
    budget: &InferenceBudget,
    outputs: &dd_trace::OutputLog,
    fixed_inputs: Option<&InputScript>,
) -> ReplayResult {
    let result = search(scenario, budget, fixed_inputs, |out| {
        outputs.matches(&out.io)
    });
    match result.run {
        Some(out) => ReplayResult::from_run(scenario, recording, out, true, result.stats, 0),
        None => {
            // Inference failed within budget: produce a best-effort run so
            // the developer still gets *an* execution, flagged unsatisfied.
            let spec = RunSpec {
                seed: 0,
                policy: PolicyChoice::Random(0),
                inputs: fixed_inputs.cloned().unwrap_or_default(),
                env: EnvConfig::clean(),
            };
            let out = scenario.execute(&spec, vec![]);
            ReplayResult::from_run(scenario, recording, out, false, result.stats, 0)
        }
    }
}

impl DeterminismModel for OutputLiteModel {
    fn kind(&self) -> ModelKind {
        ModelKind::OutputLite
    }

    fn record(&self, scenario: &Scenario) -> Recording {
        record_outputs(scenario, false)
    }

    fn replay(
        &self,
        scenario: &Scenario,
        recording: &Recording,
        budget: &InferenceBudget,
    ) -> ReplayResult {
        let Artifact::OutputLite { outputs } = &recording.artifact else {
            panic!("output-lite replay requires an output artifact");
        };
        replay_outputs(scenario, recording, budget, outputs, None)
    }
}

impl DeterminismModel for OutputHeavyModel {
    fn kind(&self) -> ModelKind {
        ModelKind::OutputHeavy
    }

    fn record(&self, scenario: &Scenario) -> Recording {
        record_outputs(scenario, true)
    }

    fn replay(
        &self,
        scenario: &Scenario,
        recording: &Recording,
        budget: &InferenceBudget,
    ) -> ReplayResult {
        let Artifact::OutputHeavy { outputs, inputs } = &recording.artifact else {
            panic!("output-heavy replay requires an output+input artifact");
        };
        let script = inputs.to_script();
        replay_outputs(scenario, recording, budget, outputs, Some(&script))
    }
}

// ---------------------------------------------------------------------------
// Order-guided determinism (MsgOrder / RaceComplete)
// ---------------------------------------------------------------------------

/// Runs the production execution with the scheduling policy wrapped in an
/// [`OrderRecorder`] over the given pin set, returning the run plus the
/// recorded grant log.
fn record_grants(
    scenario: &Scenario,
    pin: PinSet,
    observers: Vec<Box<dyn Observer>>,
) -> (RunOutput, Vec<OrderEntry>) {
    let grants = Arc::new(Mutex::new(Vec::new()));
    let spec = scenario.original_spec();
    let policy = Box::new(OrderRecorder::new(
        spec.policy.build(),
        pin,
        Arc::clone(&grants),
    ));
    let out = scenario.execute_with_policy(&spec, policy, observers);
    let entries = std::mem::take(&mut *lock(&grants));
    (out, entries)
}

/// Replays an order log under a [`GuidedOrderPolicy`]; returns the run and
/// whether the log was consumed exactly (no divergence, no forced-grant
/// drift, no leftover entries).
fn replay_guided(
    scenario: &Scenario,
    order: &OrderLog,
    pin: PinSet,
    inputs: &dd_trace::InputLog,
    env: &EnvConfig,
    seed: u64,
) -> (RunOutput, bool) {
    let (policy, handle) = GuidedOrderPolicy::new(order, pin);
    let spec = RunSpec {
        seed,
        // Unused: the guided policy is attached directly.
        policy: PolicyChoice::RoundRobin,
        inputs: inputs.to_script(),
        env: env.clone(),
    };
    let out = scenario.execute_with_policy(&spec, Box::new(policy), vec![]);
    let clean = !matches!(out.stop, StopReason::ReplayDivergence { .. }) && handle.fully_consumed();
    (out, clean)
}

/// Message-order determinism (Aumayr et al.): records the order in which
/// the scheduler granted operations (2-byte run-length-encoded task runs —
/// no candidate sets, no value payloads, no CREW ownership machinery) plus
/// inputs. Under the simulator's shared per-operation clock the grant order
/// *is* the receive order of every nondeterminism source, so guided replay
/// is time-faithful and exact; the model's separation from Perfect is the
/// recording cost, not the fidelity.
#[derive(Debug, Default)]
pub struct MsgOrderModel;

impl DeterminismModel for MsgOrderModel {
    fn kind(&self) -> ModelKind {
        ModelKind::MsgOrder
    }

    fn record(&self, scenario: &Scenario) -> Recording {
        let observers: Vec<Box<dyn Observer>> = vec![
            Box::new(OrderCostObserver::new(costs::MSG_ORDER, PinSet::Total)),
            Box::new(LogCharger::new(&[(LogKind::Input, costs::INPUT)])),
        ];
        let (out, entries) = record_grants(scenario, PinSet::Total, observers);
        let order = OrderLog { entries };
        let mut log = order.stats();
        log.merge(charged(&out));
        Recording {
            model: ModelKind::MsgOrder,
            artifact: Artifact::MsgOrder {
                order,
                inputs: InputLog::from_run(&out),
                env: scenario.env.clone(),
                seed: scenario.seed,
            },
            overhead_factor: out.stats.overhead_factor(),
            log,
            original: OriginalRun::from_run(scenario, out),
        }
    }

    fn replay(
        &self,
        scenario: &Scenario,
        recording: &Recording,
        _budget: &InferenceBudget,
    ) -> ReplayResult {
        let Artifact::MsgOrder {
            order,
            inputs,
            env,
            seed,
        } = &recording.artifact
        else {
            panic!("msg-order replay requires a msg-order artifact");
        };
        let (out, clean) = replay_guided(scenario, order, PinSet::Total, inputs, env, *seed);
        ReplayResult::from_run(
            scenario,
            recording,
            out,
            clean,
            InferenceStats::default(),
            0,
        )
    }
}

/// Race-complete determinism (Guo et al.): an online vector-clock pass
/// flags every racing variable; the recording keeps the race report, the
/// outcomes of racing accesses, and the grant order of the racing pin set.
/// Accesses to race-free variables are *not* recorded — their order is
/// happens-before-determined by the pinned operations, so guided replay
/// reconstructs it; if that ever drifts, a DPOR prefix search over the
/// recorded seed/inputs/environment re-finds an interleaving matching the
/// pinned completion order and the racing outcomes.
#[derive(Debug, Default)]
pub struct RaceCompleteModel;

impl DeterminismModel for RaceCompleteModel {
    fn kind(&self) -> ModelKind {
        ModelKind::RaceComplete
    }

    fn record(&self, scenario: &Scenario) -> Recording {
        let observers: Vec<Box<dyn Observer>> = vec![
            Box::new(HbRaceDetector::with_cost(costs::RACE_DETECT_ACCESS)),
            Box::new(OrderCostObserver::new(
                costs::RACE_COMPLETE,
                PinSet::NonLocal,
            )),
            Box::new(LogCharger::new(&[(LogKind::Input, costs::INPUT)])),
        ];
        let (out, entries) = record_grants(scenario, PinSet::NonLocal, observers);
        let races = out
            .observer::<HbRaceDetector>()
            .expect("race detector attached")
            .races()
            .to_vec();
        let pin = PinSet::racing(&races);
        let racing: BTreeSet<u32> = races.iter().map(|r| r.var.0).collect();
        // A race-free execution needs no order log: the digest still pins
        // the channel/lock/io completion order, and any divergence from it
        // is recovered by the constrained search at replay time. This keeps
        // the artifact input-only on race-free workloads, like Perfect's.
        let order = if races.is_empty() {
            OrderLog::default()
        } else {
            OrderLog { entries }.retain_pinned(&pin)
        };
        let events = || out.trace().iter().map(|(_, e)| e);
        let outcomes = racing_outcomes(events(), &racing);
        let order_digest = pinned_completion_digest(events(), &pin);
        let mut log = order.stats();
        log.merge(LogStats {
            records: races.len() as u64 + outcomes.len() as u64,
            bytes: races.len() as u64 * costs::RACE_REPORT_BYTES
                + outcomes.len() as u64 * costs::RACE_OUTCOME_BYTES,
        });
        log.merge(charged(&out));
        Recording {
            model: ModelKind::RaceComplete,
            artifact: Artifact::RaceComplete {
                races,
                outcomes,
                order,
                order_digest,
                inputs: InputLog::from_run(&out),
                env: scenario.env.clone(),
                seed: scenario.seed,
            },
            overhead_factor: out.stats.overhead_factor(),
            log,
            original: OriginalRun::from_run(scenario, out),
        }
    }

    fn replay(
        &self,
        scenario: &Scenario,
        recording: &Recording,
        budget: &InferenceBudget,
    ) -> ReplayResult {
        self.replay_checked(scenario, recording, budget, |check, out| check.accepts(out))
    }
}

/// What a race-complete replay candidate must reproduce: the recording's
/// pinned-operation completion order and its racing-access outcomes.
struct RaceCompleteCheck<'a> {
    pin: PinSet,
    racing: BTreeSet<u32>,
    order_digest: u64,
    outcomes: &'a [RaceOutcome],
}

impl RaceCompleteCheck<'_> {
    /// Whether candidate `out` reproduces both. The candidate's events are
    /// read in place, never copied.
    fn accepts(&self, out: &RunOutput) -> bool {
        let events = || out.trace().iter().map(|(_, e)| e);
        pinned_completion_digest(events(), &self.pin) == self.order_digest
            && racing_outcomes(events(), &self.racing) == self.outcomes
    }
}

impl RaceCompleteModel {
    /// [`replay`](DeterminismModel::replay), judging every candidate run
    /// with `accepts`.
    fn replay_checked(
        &self,
        scenario: &Scenario,
        recording: &Recording,
        budget: &InferenceBudget,
        accepts: impl Fn(&RaceCompleteCheck<'_>, &RunOutput) -> bool,
    ) -> ReplayResult {
        let Artifact::RaceComplete {
            races,
            outcomes,
            order,
            order_digest,
            inputs,
            env,
            seed,
        } = &recording.artifact
        else {
            panic!("race-complete replay requires a race-complete artifact");
        };
        let check = RaceCompleteCheck {
            pin: PinSet::racing(races),
            racing: races.iter().map(|r| r.var.0).collect(),
            order_digest: *order_digest,
            outcomes,
        };
        let satisfies = |out: &RunOutput| accepts(&check, out);

        // Primary path: guided re-execution from the order log. Race-free
        // recordings carry no order log — any deterministic schedule under
        // the recorded seed/inputs/env is a candidate, judged by the digest.
        let (out, clean) = if races.is_empty() {
            let spec = RunSpec {
                seed: *seed,
                policy: PolicyChoice::Random(0x0C0_FEED),
                inputs: inputs.to_script(),
                env: env.clone(),
            };
            (scenario.execute(&spec, vec![]), true)
        } else {
            replay_guided(scenario, order, check.pin.clone(), inputs, env, *seed)
        };
        let mut stats = InferenceStats::default();
        stats.charge_run(&out);
        if clean && satisfies(&out) {
            stats.found = true;
            stats.found_at = Some(0);
            return ReplayResult::from_run(scenario, recording, out, true, stats, 0);
        }

        // Fallback: DPOR prefix search over the recorded configuration,
        // constrained by the pinned completion order and racing outcomes.
        let strategy = match budget.strategy.max_depth() {
            Some(_) => budget.strategy,
            None => SearchStrategy::Dpor { max_depth: 8 },
        };
        let constrained = Scenario {
            space: NondetSpace {
                seeds: vec![*seed],
                inputs: vec![],
                envs: vec![env.clone()],
            },
            ..scenario.clone()
        };
        let script = inputs.to_script();
        let result = search_with(&constrained, budget, strategy, Some(&script), satisfies);
        stats.explored += result.stats.explored;
        stats.pruned += result.stats.pruned;
        stats.ticks += result.stats.ticks;
        stats.steps_executed += result.stats.steps_executed;
        stats.steps_skipped += result.stats.steps_skipped;
        stats.found = result.stats.found;
        stats.found_at = result.stats.found_at.map(|i| i + 1);
        if let Some(found) = result.run {
            return ReplayResult::from_run(scenario, recording, found, true, stats, 0);
        }
        if outcomes.is_empty() {
            // Nothing to feed: the search exhausted its budget without
            // matching the recorded completion digest.
            return ReplayResult::from_run(scenario, recording, out, false, stats, 0);
        }

        // Last resort, for time-driven programs where no search budget will
        // re-find the exact global interleaving: re-deliver the recorded
        // racing-read outcomes directly (Guo et al.'s core observation —
        // the failure depends on what the racing reads observed, which the
        // artifact carries). Race-free reads execute live; the artifact is
        // satisfied when every recorded racing read was re-delivered.
        let (feed, handle) = OutcomeFeed::new(outcomes);
        let spec = RunSpec {
            seed: *seed,
            // Arbitrary deterministic schedule: the racing outcomes, not
            // the interleaving, carry the recorded nondeterminism.
            policy: PolicyChoice::Random(0x0C0_FEED),
            inputs: inputs.to_script(),
            env: env.clone(),
        };
        let fed = scenario.execute_with_override(&spec, vec![], Some(Box::new(feed)));
        stats.charge_run(&fed);
        let satisfied = handle.fully_consumed();
        stats.found = satisfied;
        if satisfied {
            stats.found_at = Some(stats.explored - 1);
        }
        ReplayResult::from_run(scenario, recording, fed, satisfied, stats, 0)
    }
}

// ---------------------------------------------------------------------------
// Failure determinism (ESD)
// ---------------------------------------------------------------------------

/// Failure determinism: records nothing at runtime; the artifact is the
/// failure evidence (bug report / core dump). Replay synthesises *some*
/// execution exhibiting the same failure — which root cause it exhibits is
/// unconstrained.
#[derive(Debug, Default)]
pub struct FailureModel;

impl DeterminismModel for FailureModel {
    fn kind(&self) -> ModelKind {
        ModelKind::Failure
    }

    fn record(&self, scenario: &Scenario) -> Recording {
        let out = scenario.execute(&scenario.original_spec(), vec![]);
        let snapshot = failure_of(scenario, &out.io).unwrap_or_default();
        Recording {
            model: ModelKind::Failure,
            artifact: Artifact::Failure { snapshot },
            // No recording: the production run is native speed.
            overhead_factor: 1.0,
            log: LogStats::default(),
            original: OriginalRun::from_run(scenario, out),
        }
    }

    fn replay(
        &self,
        scenario: &Scenario,
        recording: &Recording,
        budget: &InferenceBudget,
    ) -> ReplayResult {
        let Artifact::Failure { snapshot } = &recording.artifact else {
            panic!("failure replay requires a failure artifact");
        };
        let want = snapshot.failure_id.clone();
        let result = search(scenario, budget, None, |out| {
            match failure_of(scenario, &out.io) {
                Some(f) => f.failure_id == want,
                None => want.is_empty(),
            }
        });
        match result.run {
            Some(out) => ReplayResult::from_run(scenario, recording, out, true, result.stats, 0),
            None => {
                let spec = RunSpec {
                    seed: 0,
                    policy: PolicyChoice::Random(0),
                    inputs: InputScript::new(),
                    env: EnvConfig::clean(),
                };
                let out = scenario.execute(&spec, vec![]);
                ReplayResult::from_run(scenario, recording, out, false, result.stats, 0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::NondetSpace;
    use dd_sim::{Builder, ChanClass, Program};
    use std::sync::Arc;

    /// Two adders racing on a shared total; spec says the final total must
    /// equal 2×iters.
    struct RacyCounter;
    impl Program for RacyCounter {
        fn name(&self) -> &'static str {
            "racy_counter"
        }
        fn setup(&self, b: &mut Builder<'_>) {
            let total = b.var("total", 0i64);
            let out = b.out_port("result");
            let done = b.channel::<i64>("done", ChanClass::Local);
            for i in 0..2 {
                b.spawn(&format!("adder{i}"), "workers", move |mut ctx| async move {
                    for _ in 0..8 {
                        let v = ctx.read(&total, "adder::read").await?;
                        ctx.write(&total, v + 1, "adder::write").await?;
                    }
                    ctx.send(&done, 1, "adder::done").await
                });
            }
            b.spawn("reporter", "main", move |mut ctx| async move {
                for _ in 0..2 {
                    ctx.recv(&done, "reporter::recv").await?;
                }
                let v = ctx.read(&total, "reporter::read").await?;
                ctx.output(out, v, "reporter::out").await
            });
        }
    }

    fn counter_oracle() -> crate::scenario::FailureOracle {
        Arc::new(|io: &IoSummary| {
            let total = io.outputs_on("result").first().and_then(|v| v.as_int())?;
            if total < 16 {
                Some(FailureSnapshot {
                    failure_id: "lost-updates".into(),
                    description: format!("total {total} < 16"),
                    crashes: vec![],
                    counters: Default::default(),
                })
            } else {
                None
            }
        })
    }

    /// Finds a seed whose original run loses updates (fails).
    fn failing_scenario() -> Scenario {
        let oracle = counter_oracle();
        for seed in 0..64u64 {
            let s = Scenario {
                program: Arc::new(RacyCounter),
                seed,
                sched_seed: seed,
                inputs: InputScript::new(),
                env: EnvConfig::clean(),
                max_steps: 100_000,
                failure_of: oracle.clone(),
                space: NondetSpace::schedules_only(64, InputScript::new()),
            };
            let out = s.execute(&s.original_spec(), vec![]);
            if (s.failure_of)(&out.io).is_some() {
                return s;
            }
        }
        panic!("no failing seed found for racy counter");
    }

    /// On every candidate of msgserver's race-complete replay, the
    /// acceptance check agrees with the same check spelled out over the
    /// run's `trace` field.
    #[test]
    fn race_complete_checks_candidates_in_place_as_a_copied_trace_would() {
        let scenario = crate::scenario::incident_variants("msgserver").swap_remove(0);
        let recording = RaceCompleteModel.record(&scenario);
        let checked = std::cell::Cell::new(0);
        let budget = InferenceBudget::executions(64);
        let result =
            RaceCompleteModel.replay_checked(&scenario, &recording, &budget, |check, out| {
                let events = || out.trace.iter().map(|(_, e)| e);
                let copied = pinned_completion_digest(events(), &check.pin) == check.order_digest
                    && racing_outcomes(events(), &check.racing) == check.outcomes;
                let in_place = check.accepts(out);
                assert_eq!(in_place, copied, "candidate {}", checked.get());
                checked.set(checked.get() + 1);
                in_place
            });
        // The guided run drifts from the order log and the 64 search
        // candidates all fail the check, so the outcome feed ends the
        // replay: 66 runs, the check judging the 64 in between.
        assert_eq!(
            result.inference.explored, 66,
            "msgserver's pinned inference runs"
        );
        assert_eq!(checked.get(), 64, "every search candidate is checked");
        assert!(result.artifact_satisfied && result.reproduced_failure);
    }

    /// A recorded run's snapshots share its event log's sealed chunks.
    /// `OriginalRun::from_run` and `ReplayResult::from_run` move the log:
    /// every sealed chunk they hold is one the run held.
    #[test]
    fn from_run_moves_the_event_log_and_copies_no_chunk() {
        let scenario = crate::scenario::incident_variants("msgserver").swap_remove(0);
        let run = || {
            let out =
                scenario.execute_recorded(&scenario.original_spec(), RECORDING_CHECKPOINTS, vec![]);
            assert!(!out.snapshots.is_empty(), "the recording checkpoints");
            let kept = out.trace.clone();
            assert!(kept.sealed_chunk_count() > 1, "the log seals chunks");
            (out, kept)
        };
        let (out, kept) = run();
        let original = OriginalRun::from_run(&scenario, out);
        assert_eq!(
            original.trace.shared_chunks_with(&kept),
            kept.sealed_chunk_count()
        );
        let recording = FailureModel.record(&scenario);
        let (out, kept) = run();
        let replay = ReplayResult::from_run(
            &scenario,
            &recording,
            out,
            true,
            InferenceStats::default(),
            0,
        );
        assert_eq!(
            replay.trace.shared_chunks_with(&kept),
            kept.sealed_chunk_count()
        );
    }

    #[test]
    fn perfect_model_round_trips_exactly() {
        let s = failing_scenario();
        let rec = PerfectModel.record(&s);
        assert!(rec.original.failure.is_some());
        assert!(rec.overhead_factor > 1.0, "CREW must cost something");
        let replay = PerfectModel.replay(&s, &rec, &InferenceBudget::default());
        assert!(replay.artifact_satisfied);
        assert!(replay.reproduced_failure);
        assert_eq!(replay.io, rec.original.io);
    }

    #[test]
    fn perfect_artifacts_record_resumable_epochs() {
        let s = failing_scenario();
        let rec = PerfectModel.record(&s);
        let Artifact::Perfect { schedule, .. } = &rec.artifact else {
            panic!("perfect recording produces a perfect artifact");
        };
        assert_eq!(schedule.version, dd_trace::SCHEDULE_LOG_VERSION);
        // The racy counter makes plenty of multi-candidate decisions, so
        // the recording run's checkpoint cadence must yield epochs.
        assert!(
            !schedule.epochs.is_empty(),
            "recording runs must advertise resumable replay starting points"
        );
        let deepest = schedule
            .deepest_epoch_at_or_before(u64::MAX)
            .expect("epochs exist");
        assert!(deepest.decision > 0);
        assert!((deepest.decision as usize) <= schedule.decisions.len());
    }

    #[test]
    fn charged_records_are_the_projected_log_entries() {
        let s = failing_scenario();
        let rec = PerfectModel.record(&s);
        let Artifact::Perfect {
            schedule, inputs, ..
        } = &rec.artifact
        else {
            panic!("perfect recording produces a perfect artifact");
        };
        assert!(!schedule.is_empty());
        assert_eq!(
            rec.log.records,
            (schedule.len() + inputs.entries.len()) as u64
        );
        let rec = ValueModel.record(&s);
        let Artifact::Value { values } = &rec.artifact else {
            panic!("value recording produces a value artifact");
        };
        assert!(!values.is_empty());
        assert_eq!(rec.log.records, values.len() as u64);
    }

    #[test]
    fn value_model_reproduces_failure_under_different_schedule() {
        let s = failing_scenario();
        let rec = ValueModel.record(&s);
        assert!(rec.overhead_factor > 1.0);
        assert!(rec.log.bytes > 0);
        let replay = ValueModel.replay(&s, &rec, &InferenceBudget::default());
        assert!(
            replay.reproduced_failure,
            "value feeding must reproduce the failure"
        );
        assert_eq!(
            replay.io.outputs_on("result")[0],
            rec.original.io.outputs_on("result")[0]
        );
    }

    #[test]
    fn output_lite_matches_outputs_or_reports_honestly() {
        let s = failing_scenario();
        let rec = OutputLiteModel.record(&s);
        let replay = OutputLiteModel.replay(&s, &rec, &InferenceBudget::executions(64));
        if replay.artifact_satisfied {
            // Outputs matched: by construction the counter value matches, so
            // the failure is reproduced too.
            assert!(replay.reproduced_failure);
            assert!(replay.inference.found);
        } else {
            assert!(replay.inference.explored > 0);
        }
    }

    #[test]
    fn failure_model_records_nothing_and_reproduces_failure() {
        let s = failing_scenario();
        let rec = FailureModel.record(&s);
        assert_eq!(rec.overhead_factor, 1.0);
        assert_eq!(rec.log.bytes, 0);
        let replay = FailureModel.replay(&s, &rec, &InferenceBudget::executions(64));
        assert!(
            replay.artifact_satisfied,
            "search should find a lost-update run"
        );
        assert!(replay.reproduced_failure);
        assert!(replay.inference.explored >= 1);
    }

    #[test]
    fn failure_model_on_passing_run_is_vacuous() {
        // A scenario whose original run passes: failure artifact is empty,
        // and replay accepts any passing run.
        let oracle = counter_oracle();
        let s = Scenario {
            program: Arc::new(RacyCounter),
            seed: 999,
            sched_seed: 1_000_003,
            inputs: InputScript::new(),
            env: EnvConfig::clean(),
            max_steps: 100_000,
            failure_of: oracle,
            space: NondetSpace::schedules_only(8, InputScript::new()),
        };
        let rec = FailureModel.record(&s);
        if rec.original.failure.is_none() {
            let replay = FailureModel.replay(&s, &rec, &InferenceBudget::executions(16));
            if replay.artifact_satisfied {
                assert!(replay.failure.is_none());
            }
        }
    }
}
