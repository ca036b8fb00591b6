//! Root-cause-driven selectivity (RCSE) and the debug-determinism model.
//!
//! RCSE approximates debug determinism without knowing the root cause a
//! priori (§3.1): record with *high* fidelity where root causes are likely —
//! the control plane (code-based selection), invariant-violating executions
//! (data-based selection), and trigger-flagged segments (combined selection)
//! — and with *low* fidelity everywhere else.
//!
//! The [`RcseRecorder`] always records the thread schedule and control-plane
//! data (what the paper's §4 prototype recorded) plus environment events;
//! when a trigger fires it dials up to full recording, and dials back down
//! after a configurable quiet window. It pays for the schedule and the
//! inputs as it goes, but the artifact takes both from the finished run
//! ([`ScheduleLog::from_run`], [`InputLog::from_run`]); what the recorder
//! keeps itself is the control log, the drop script and the crashes.
//! [`DebugModel`] packages training (offline plane classification +
//! invariant inference), recording, and schedule-replay into a
//! [`DeterminismModel`].

use dd_classify::{Plane, PlaneMap, ProfileReport, RateClassifier};
use dd_detect::{InvariantSet, TriggerDetector};
use dd_replay::{
    Artifact, DeterminismModel, InferenceBudget, InferenceStats, ModelKind, OriginalRun,
    PolicyChoice, Recording, ReplayResult, RunSpec, Scenario,
};
use dd_sim::{
    observer_boilerplate, ChanClass, CrashEvent, EnvConfig, Event, EventMeta, Observer, Registry,
    StopReason,
};
use dd_trace::{
    ChargeAcc, CostModel, EventLog, InputLog, LogStats, ScheduleLog, Trace, TraceEvent,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Recording fidelity level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fidelity {
    /// Schedule + control-plane data only.
    Low,
    /// Everything (value-determinism grade).
    High,
}

/// RCSE configuration knobs (the ablation surface).
#[derive(Debug, Clone)]
pub struct RcseConfig {
    /// Data-rate threshold for plane classification (bytes / kilotick).
    pub classifier_threshold: f64,
    /// Ticks without any trigger after which fidelity dials back down.
    pub quiet_window: u64,
    /// Whether runtime triggers (lockset, invariants, crashes) are armed.
    pub use_triggers: bool,
    /// Whether invariants are learned from training runs and monitored.
    pub train_invariants: bool,
    /// Always-on per-access cost of the lockset trigger detector.
    pub lockset_cost: u64,
    /// Cost of a control-plane record at low fidelity.
    pub control_cost: CostModel,
    /// Cost of a record at high fidelity.
    pub full_cost: CostModel,
    /// Cost of a schedule-decision record.
    pub schedule_cost: CostModel,
}

impl Default for RcseConfig {
    fn default() -> Self {
        RcseConfig {
            classifier_threshold: RateClassifier::default().threshold_bytes_per_kilotick,
            quiet_window: 2_000,
            use_triggers: true,
            train_invariants: false,
            lockset_cost: 0,
            control_cost: dd_replay::costs::CONTROL,
            full_cost: dd_replay::costs::VALUE,
            schedule_cost: dd_replay::costs::SCHEDULE,
        }
    }
}

/// A [`PlaneMap`] resolved against a registry for O(1) online lookups by id.
#[derive(Debug, Clone, Default)]
pub struct ResolvedPlaneMap {
    sites: BTreeMap<String, Plane>,
    chan_planes: Vec<Plane>,
    chan_is_network: Vec<bool>,
}

impl ResolvedPlaneMap {
    /// Resolves channel names to ids using the (training-run) registry.
    /// Object creation order is deterministic, so ids are stable across runs
    /// of the same program.
    pub fn new(map: &PlaneMap, registry: &Registry) -> Self {
        let mut sites = map.sites.clone();
        for (name, plane) in &map.overrides {
            sites.insert(name.clone(), *plane);
        }
        ResolvedPlaneMap {
            sites,
            chan_planes: registry
                .chans
                .iter()
                .map(|c| map.chan_plane(&c.name))
                .collect(),
            chan_is_network: registry
                .chans
                .iter()
                .map(|c| c.class == ChanClass::Network)
                .collect(),
        }
    }

    fn site_plane(&self, site: &str) -> Plane {
        self.sites.get(site).copied().unwrap_or(Plane::Control)
    }

    /// Classifies an event (control = record at low fidelity).
    pub fn event_plane(&self, event: &Event) -> Plane {
        match event {
            Event::Send { chan, .. }
            | Event::Recv { chan, .. }
            | Event::SendDropped { chan, .. } => self
                .chan_planes
                .get(chan.index())
                .copied()
                .unwrap_or(Plane::Control),
            _ => match event.site() {
                Some(site) => self.site_plane(site),
                None => Plane::Control,
            },
        }
    }

    fn is_network(&self, chan: dd_sim::ChanId) -> bool {
        self.chan_is_network
            .get(chan.index())
            .copied()
            .unwrap_or(false)
    }
}

/// The RCSE production recorder.
pub struct RcseRecorder {
    resolved: ResolvedPlaneMap,
    triggers: Vec<Box<dyn TriggerDetector>>,
    quiet_window: u64,
    control_cost: CostModel,
    full_cost: CostModel,
    schedule_cost: CostModel,

    level: Fidelity,
    last_trigger_time: u64,

    control: EventLog,
    dropped_sends: BTreeSet<u64>,
    net_send_counter: u64,
    crashes_seen: Vec<CrashEvent>,

    stats: LogStats,
    acc: ChargeAcc,
    /// Times fidelity was dialed up.
    pub dial_ups: u64,
    /// Times fidelity was dialed back down.
    pub dial_downs: u64,
    /// Events recorded while at high fidelity.
    pub high_records: u64,
}

impl RcseRecorder {
    /// Creates a recorder from a resolved plane map, trigger suite and
    /// configuration.
    pub fn new(
        resolved: ResolvedPlaneMap,
        triggers: Vec<Box<dyn TriggerDetector>>,
        cfg: &RcseConfig,
    ) -> Self {
        RcseRecorder {
            resolved,
            triggers,
            quiet_window: cfg.quiet_window,
            control_cost: cfg.control_cost,
            full_cost: cfg.full_cost,
            schedule_cost: cfg.schedule_cost,
            level: Fidelity::Low,
            last_trigger_time: 0,
            control: EventLog::default(),
            dropped_sends: BTreeSet::new(),
            net_send_counter: 0,
            crashes_seen: Vec::new(),
            stats: LogStats::default(),
            acc: ChargeAcc::default(),
            dial_ups: 0,
            dial_downs: 0,
            high_records: 0,
        }
    }

    /// Recording statistics.
    pub fn stats(&self) -> LogStats {
        self.stats
    }

    /// Current fidelity level.
    pub fn level(&self) -> Fidelity {
        self.level
    }

    /// Moves what this recorder kept into the debug-determinism artifact,
    /// around the `schedule` and `inputs` projected from the recorded run.
    /// `base_env` supplies the static deployment configuration (memory
    /// budgets); observed environment nondeterminism (crashes, drops) comes
    /// from the recording.
    pub fn take_artifact(
        &mut self,
        schedule: ScheduleLog,
        inputs: InputLog,
        base_env: &EnvConfig,
    ) -> Artifact {
        let env = EnvConfig {
            crashes: std::mem::take(&mut self.crashes_seen),
            drop_per_mille: 0,
            drop_script: Some(std::mem::take(&mut self.dropped_sends)),
            mem_budget: base_env.mem_budget.clone(),
            partitions: base_env.partitions.clone(),
            restarts: base_env.restarts.clone(),
        };
        Artifact::Debug {
            schedule,
            control: std::mem::take(&mut self.control),
            inputs,
            env,
            // The kernel RNG seed is deliberately NOT recorded: data-plane
            // payload contents are re-synthesised at replay time.
            seed: 0,
        }
    }

    /// Charges one logged record of `event` at `cost`.
    fn charge(&mut self, event: &Event, cost: CostModel) -> u64 {
        let bytes = dd_trace::log_size(event);
        self.stats.add(bytes);
        self.acc.add(cost.cost_milli(bytes))
    }

    fn record_event(&mut self, meta: &EventMeta, event: &Event, cost: CostModel) -> u64 {
        self.control.events.push(TraceEvent {
            meta: *meta,
            event: event.clone(),
        });
        if self.level == Fidelity::High {
            self.high_records += 1;
        }
        self.charge(event, cost)
    }
}

impl Observer for RcseRecorder {
    fn on_event(&mut self, meta: &EventMeta, event: &Event) -> u64 {
        let mut cost = 0;

        // Always-on triggers (their cost is part of RCSE's overhead).
        let mut fired = false;
        for t in &mut self.triggers {
            fired |= t.observe(meta, event);
            cost += t.cost(event);
        }
        if fired {
            if self.level == Fidelity::Low {
                self.level = Fidelity::High;
                self.dial_ups += 1;
            }
            self.last_trigger_time = meta.time;
        } else if self.level == Fidelity::High
            && meta.time.saturating_sub(self.last_trigger_time) > self.quiet_window
        {
            self.level = Fidelity::Low;
            self.dial_downs += 1;
        }

        match event {
            // The thread schedule is always recorded (§4: "the data on
            // control-plane channels and the thread schedule").
            Event::Decision { .. } => cost += self.charge(event, self.schedule_cost),
            // External inputs are control-plane requests in our workloads.
            Event::InputArrival { .. } => cost += self.charge(event, self.control_cost),
            // Environment nondeterminism: tiny, always recorded.
            Event::SendDropped { chan, .. } if self.resolved.is_network(*chan) => {
                self.dropped_sends.insert(self.net_send_counter);
                self.net_send_counter += 1;
                cost += self.record_event(meta, event, self.control_cost);
            }
            Event::Send { chan, .. } if self.resolved.is_network(*chan) => {
                self.net_send_counter += 1;
                if self.level == Fidelity::High
                    || self.resolved.event_plane(event) == Plane::Control
                {
                    let c = if self.level == Fidelity::High {
                        self.full_cost
                    } else {
                        self.control_cost
                    };
                    cost += self.record_event(meta, event, c);
                }
            }
            Event::GroupKilled { group, .. } => {
                self.crashes_seen.push(CrashEvent {
                    time: meta.time,
                    group: group.clone(),
                });
                cost += self.record_event(meta, event, self.control_cost);
            }
            _ => {
                let record = self.level == Fidelity::High
                    || self.resolved.event_plane(event) == Plane::Control;
                if record {
                    let c = if self.level == Fidelity::High {
                        self.full_cost
                    } else {
                        self.control_cost
                    };
                    cost += self.record_event(meta, event, c);
                }
            }
        }
        cost
    }

    observer_boilerplate!();
}

/// The product of RCSE's offline training phase.
#[derive(Debug, Clone)]
pub struct Training {
    /// The classified plane map.
    pub plane_map: PlaneMap,
    /// The training-run registry (for id resolution).
    pub registry: Registry,
    /// Learned invariants, if enabled.
    pub invariants: Option<InvariantSet>,
    /// Profiling data the classification came from.
    pub profile: ProfileReport,
}

/// Runs the offline training phase: profile passing runs, classify planes,
/// optionally infer invariants.
///
/// Training happens before release (on a test cluster, per the paper's §3.1)
/// and therefore contributes nothing to production recording overhead.
pub fn train(scenario: &Scenario, setups: &[(u64, u64)], cfg: &RcseConfig) -> Training {
    let mut traces = Vec::new();
    let mut registry = Registry::default();
    for &(seed, sched_seed) in setups {
        let spec = RunSpec {
            seed,
            policy: PolicyChoice::Random(sched_seed),
            inputs: scenario.inputs.clone(),
            env: scenario.env.clone(),
        };
        let out = scenario.execute(&spec, vec![]);
        registry = out.registry;
        traces.push(out.trace);
    }
    let profile = ProfileReport::merge(
        &traces
            .iter()
            .map(|t| ProfileReport::from_trace(t, &registry))
            .collect::<Vec<_>>(),
    );
    let plane_map = RateClassifier::with_threshold(cfg.classifier_threshold).classify(&profile);
    let invariants = cfg.train_invariants.then(|| InvariantSet::infer(&traces));
    Training {
        plane_map,
        registry,
        invariants,
        profile,
    }
}

/// The §4 *indirect* fidelity check: is the root cause contained in what
/// RCSE recorded?
///
/// The paper's method for RCSE ("we determined whether the observed failure
/// and its root cause were contained in the control-plane code… If the root
/// cause was recorded, we deemed the failure and root cause to be
/// reproducible"). We rebuild a trace from the artifact's recorded events
/// alone and evaluate the root-cause predicate on it: if the predicate
/// fires using only recorded evidence, the cause was captured.
///
/// Returns `None` if the recording is not a debug-determinism artifact.
pub fn root_cause_recorded(
    recording: &Recording,
    cause: &crate::rootcause::RootCause,
) -> Option<bool> {
    let Artifact::Debug { control, .. } = &recording.artifact else {
        return None;
    };
    let recorded_trace: Trace = control
        .events
        .iter()
        .map(|e| (e.meta, e.event.clone()))
        .collect();
    let ctx = crate::rootcause::CauseCtx {
        trace: &recorded_trace,
        registry: &recording.original.registry,
        io: &recording.original.io,
    };
    Some(cause.active_in(&ctx))
}

/// The debug-determinism model: RCSE recording plus schedule-driven replay.
pub struct DebugModel {
    cfg: RcseConfig,
    training: Training,
}

impl DebugModel {
    /// Builds the model by running the offline training phase on the given
    /// `(seed, sched_seed)` pairs.
    pub fn prepare(scenario: &Scenario, training_seeds: &[(u64, u64)], cfg: RcseConfig) -> Self {
        let training = train(scenario, training_seeds, &cfg);
        DebugModel { cfg, training }
    }

    /// The training result (plane map, invariants, profile).
    pub fn training(&self) -> &Training {
        &self.training
    }

    fn make_recorder(&self) -> RcseRecorder {
        let resolved = ResolvedPlaneMap::new(&self.training.plane_map, &self.training.registry);
        let triggers = if self.cfg.use_triggers {
            dd_detect::default_triggers(self.training.invariants.clone(), self.cfg.lockset_cost)
        } else {
            Vec::new()
        };
        RcseRecorder::new(resolved, triggers, &self.cfg)
    }
}

impl DeterminismModel for DebugModel {
    fn kind(&self) -> ModelKind {
        ModelKind::Debug
    }

    fn record(&self, scenario: &Scenario) -> Recording {
        let recorder = self.make_recorder();
        let mut out = scenario.execute(&scenario.original_spec(), vec![Box::new(recorder)]);
        let schedule = ScheduleLog::from_run(&out);
        let inputs = InputLog::from_run(&out);
        let overhead_factor = out.stats.overhead_factor();
        let recorder = out
            .observer_mut::<RcseRecorder>()
            .expect("rcse recorder attached");
        Recording {
            model: ModelKind::Debug,
            log: recorder.stats(),
            artifact: recorder.take_artifact(schedule, inputs, &scenario.env),
            overhead_factor,
            original: OriginalRun::from_run(scenario, out),
        }
    }

    fn replay(
        &self,
        scenario: &Scenario,
        recording: &Recording,
        budget: &InferenceBudget,
    ) -> ReplayResult {
        let Artifact::Debug {
            schedule,
            inputs,
            env,
            ..
        } = &recording.artifact
        else {
            panic!("debug replay requires a debug artifact");
        };
        let spec = RunSpec {
            // Deliberately a different seed: unrecorded data-plane payloads
            // are re-synthesised; control-plane behaviour comes from the
            // schedule, inputs and environment events.
            seed: scenario.seed ^ 0x5C5E_5C5E,
            policy: PolicyChoice::Replay(schedule.clone()),
            inputs: inputs.to_script(),
            env: env.clone(),
        };
        let mut out = scenario.execute(&spec, vec![]);
        let satisfied = !matches!(out.stop, StopReason::ReplayDivergence { .. });
        let mut inference = InferenceStats::default();
        if !satisfied {
            // The recorded schedule could not be re-applied (e.g. the
            // selective artifact under-constrained a data-plane path).
            // Fall back to the budget's search strategy — the same
            // machinery the ultra-relaxed models use — hunting for an
            // execution over the recorded inputs/environment that
            // reproduces the recorded failure. The artifact stays marked
            // unsatisfied; only the replayed behaviour improves.
            let script = inputs.to_script();
            let want = recording.original.failure.clone();
            // The artifact pins the environment (crashes, drop script), so
            // the search may only vary schedules — not wander into
            // environments the recording rules out.
            let mut pinned = scenario.clone();
            pinned.space.envs = vec![env.clone()];
            // Debug determinism takes the checkpointed path on its
            // fallback: when the budget selects a systematic strategy, the
            // tree walk forks from kernel snapshots instead of re-executing
            // every candidate's shared prefix from the first instruction.
            // That changes only how fast the fallback reconnects the
            // relaxed recording to the failure, never what the search
            // returns. (Non-systematic strategies ignore the interval.)
            let mut budget = *budget;
            if budget.checkpoint_interval == 0 {
                budget.checkpoint_interval = InferenceBudget::DEFAULT_CHECKPOINT_INTERVAL;
            }
            let result = dd_replay::search(&pinned, &budget, Some(&script), |candidate| {
                match ((scenario.failure_of)(&candidate.io), &want) {
                    (Some(f), Some(w)) => f.failure_id == w.failure_id,
                    (None, None) => true,
                    _ => false,
                }
            });
            inference = result.stats;
            if let Some(found) = result.run {
                out = found;
            }
        }
        ReplayResult::from_run(scenario, recording, out, satisfied, inference, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolved_map_defaults_to_control() {
        let m = ResolvedPlaneMap::default();
        let e = Event::Yield {
            task: dd_sim::TaskId(0),
            site: "unknown::site".into(),
        };
        assert_eq!(m.event_plane(&e), Plane::Control);
    }

    #[test]
    fn recorder_dials_up_on_trigger_and_down_after_quiet() {
        struct AlwaysOnStep5;
        impl TriggerDetector for AlwaysOnStep5 {
            fn name(&self) -> &'static str {
                "test"
            }
            fn observe(&mut self, meta: &EventMeta, _e: &Event) -> bool {
                meta.time == 50
            }
            fn cost(&self, _e: &Event) -> u64 {
                0
            }
        }
        let cfg = RcseConfig {
            quiet_window: 100,
            ..RcseConfig::default()
        };
        let mut rec = RcseRecorder::new(
            ResolvedPlaneMap::default(),
            vec![Box::new(AlwaysOnStep5)],
            &cfg,
        );
        let yield_ev = |t: u64| {
            (
                EventMeta { step: t, time: t },
                Event::Yield {
                    task: dd_sim::TaskId(0),
                    site: "x".into(),
                },
            )
        };
        let (m, e) = yield_ev(10);
        rec.on_event(&m, &e);
        assert_eq!(rec.level(), Fidelity::Low);
        let (m, e) = yield_ev(50);
        rec.on_event(&m, &e);
        assert_eq!(rec.level(), Fidelity::High);
        assert_eq!(rec.dial_ups, 1);
        let (m, e) = yield_ev(100);
        rec.on_event(&m, &e);
        assert_eq!(rec.level(), Fidelity::High, "still inside quiet window");
        let (m, e) = yield_ev(200);
        rec.on_event(&m, &e);
        assert_eq!(rec.level(), Fidelity::Low, "quiet window elapsed");
        assert_eq!(rec.dial_downs, 1);
    }
}
