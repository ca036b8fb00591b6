//! Artifact log formats: what each determinism model persists at runtime.
//!
//! A *recording artifact* is the only information a replayer gets — the
//! whole point of relaxed determinism is that artifacts shrink as guarantees
//! weaken. Formats here are model-agnostic containers; the determinism
//! models in `dd-replay` and `dd-core` decide what goes into them.

use dd_sim::{
    ChunkedLog, Event, EventMeta, InputScript, IoSummary, RecordedDecision, TaskId, Trace, Value,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Schema version of [`ScheduleLog`] artifacts.
///
/// - v1 — decision stream only (implicit; artifacts predating the version
///   field).
/// - v2 — adds `version` and `epochs`: checkpoint markers recording where
///   resumable snapshot points existed during the recorded run.
/// - v3 — epoch markers may carry a `snapshot` id referencing a snapshot
///   persisted in an on-disk [`SnapshotStore`](crate::SnapshotStore),
///   letting replay restore a stored world instead of re-executing the
///   prefix. An epoch without an id renders as in v2.
///
/// Every written `ScheduleLog` says v3, whether or not an epoch carries an
/// id; readers accept v1 through v3.
pub const SCHEDULE_LOG_VERSION: u32 = 3;

/// One epoch marker: a point in the recorded run where a resumable world
/// snapshot existed. Replay tooling uses these to pick intermediate replay
/// starting points instead of always re-executing from the first
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochMark {
    /// Decision index the snapshot was taken at (state before this
    /// decision).
    pub decision: u64,
    /// Kernel steps executed up to the snapshot point.
    pub step: u64,
    /// Execution-clock value at the snapshot point.
    pub time: u64,
    /// Id of the spilled snapshot in the run's on-disk store, when the
    /// recorder persisted one (v3); `None` for in-memory-only checkpoints
    /// and for all v1/v2 artifacts.
    pub snapshot: Option<u64>,
}

impl EpochMark {
    /// The epoch marker for an in-memory world snapshot.
    pub fn of(snapshot: &dd_sim::WorldSnapshot) -> Self {
        EpochMark {
            decision: snapshot.at_decision(),
            step: snapshot.steps(),
            time: snapshot.time(),
            snapshot: None,
        }
    }

    /// The epoch marker for a snapshot spilled to an on-disk store.
    pub fn of_spilled(mark: &dd_sim::SnapshotMark) -> Self {
        EpochMark {
            decision: mark.decision,
            step: mark.step,
            time: mark.time,
            snapshot: Some(mark.id),
        }
    }
}

// Hand-written so the `snapshot` field is omitted when absent: v2 artifacts
// (no stored snapshots) keep rendering byte-identically, which is what lets
// golden trace hashes survive the v3 migration.
impl Serialize for EpochMark {
    fn serialize(&self, out: &mut dyn serde::Serializer) {
        out.begin_map();
        out.key("decision");
        out.u64(self.decision);
        out.key("step");
        out.u64(self.step);
        out.key("time");
        out.u64(self.time);
        if let Some(id) = self.snapshot {
            out.key("snapshot");
            out.u64(id);
        }
        out.end_map();
    }
}

/// The derive's error for a missing field `field` of type `ty`.
fn missing(field: &str, ty: &str) -> serde::Error {
    serde::Error::custom(format!("missing field `{field}` for `{ty}`"))
}

// Keeps the derive's rules (a repeated key's first occurrence wins, unknown
// keys are rejected, missing fields are reported in declaration order) but
// tolerates a missing `snapshot` (v1/v2 artifacts). The unknown-key text
// keeps the form it has always had (the key as a `Content` dump).
impl Deserialize for EpochMark {
    fn deserialize(de: &mut dyn serde::Deserializer) -> Result<Self, serde::Error> {
        if de.peek()? != serde::Kind::Map {
            return Err(serde::Error::custom("expected an EpochMark map"));
        }
        let mut fields = [None; 4];
        de.begin_map()?;
        while let Some(key) = de.next_key()? {
            let slot = match key {
                "decision" => 0,
                "step" => 1,
                "time" => 2,
                "snapshot" => 3,
                other => {
                    return Err(serde::Error::custom(format!(
                        "unknown EpochMark field Str({other:?})"
                    )))
                }
            };
            match fields[slot] {
                None => fields[slot] = Some(u64::deserialize(de)?),
                Some(_) => de.skip()?,
            }
        }
        let [decision, step, time, snapshot] = fields;
        Ok(EpochMark {
            decision: decision.ok_or_else(|| missing("decision", "EpochMark"))?,
            step: step.ok_or_else(|| missing("step", "EpochMark"))?,
            time: time.ok_or_else(|| missing("time", "EpochMark"))?,
            snapshot,
        })
    }
}

/// The recorded schedule: every multi-candidate decision, in order, plus
/// the checkpoint epochs at which the run can be resumed.
///
/// The decision stream is a [`ChunkedLog`], so cloning an artifact —
/// something replay does per candidate run when it re-applies a recorded
/// schedule — bumps shared chunk handles instead of copying the history.
/// The serialized form is unchanged (a flat sequence).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScheduleLog {
    /// Schema version (see [`SCHEDULE_LOG_VERSION`]).
    pub version: u32,
    /// The decision stream.
    pub decisions: ChunkedLog<RecordedDecision>,
    /// Checkpoint markers, in increasing decision order (empty when the
    /// recorded run took no snapshots).
    pub epochs: Vec<EpochMark>,
}

impl Default for ScheduleLog {
    fn default() -> Self {
        ScheduleLog {
            version: SCHEDULE_LOG_VERSION,
            decisions: ChunkedLog::new(),
            epochs: Vec::new(),
        }
    }
}

// Hand-written so v1 artifacts (decision stream only, predating `version`
// and `epochs`) keep loading: those two fields default to version 1 with no
// epochs. Otherwise the derive's rules hold: `decisions` is required, a
// repeated key's first occurrence wins, and unknown keys are rejected.
impl serde::Deserialize for ScheduleLog {
    fn deserialize(de: &mut dyn serde::Deserializer) -> Result<Self, serde::Error> {
        if de.peek()? != serde::Kind::Map {
            return Err(serde::Error::custom("expected a ScheduleLog map"));
        }
        let (mut version, mut decisions, mut epochs) = (None, None, None);
        de.begin_map()?;
        while let Some(key) = de.next_key()? {
            match key {
                "version" if version.is_none() => version = Some(u32::deserialize(de)?),
                "decisions" if decisions.is_none() => {
                    decisions = Some(ChunkedLog::<RecordedDecision>::deserialize(de)?)
                }
                "epochs" if epochs.is_none() => epochs = Some(Vec::<EpochMark>::deserialize(de)?),
                "version" | "decisions" | "epochs" => de.skip()?,
                other => {
                    return Err(serde::Error::custom(format!(
                        "unknown field `{other}` for ScheduleLog"
                    )))
                }
            }
        }
        Ok(ScheduleLog {
            version: version.unwrap_or(1),
            decisions: decisions.ok_or_else(|| missing("decisions", "ScheduleLog"))?,
            epochs: epochs.unwrap_or_default(),
        })
    }
}

impl ScheduleLog {
    /// Builds the log from a finished run's decision records, carrying over
    /// the run's checkpoint epochs — both in-memory snapshots and marks of
    /// snapshots spilled to an on-disk store (which carry their store id).
    /// The log is [`SCHEDULE_LOG_VERSION`].
    pub fn from_run(out: &dd_sim::RunOutput) -> Self {
        let mut epochs: Vec<EpochMark> = out
            .snapshots
            .iter()
            .map(EpochMark::of)
            .chain(out.spilled.iter().map(EpochMark::of_spilled))
            .collect();
        epochs.sort_by_key(|e| e.decision);
        ScheduleLog {
            version: SCHEDULE_LOG_VERSION,
            decisions: out
                .decisions
                .iter()
                .map(|d| RecordedDecision {
                    kind: d.kind,
                    chosen: d.chosen,
                })
                .collect(),
            epochs,
        }
    }

    /// Converts into a strict replay policy.
    pub fn into_replay_policy(self) -> dd_sim::ReplayPolicy {
        dd_sim::ReplayPolicy::strict(self.decisions)
    }

    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Returns `true` if no decisions were recorded.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// The deepest epoch at or before `decision`, if any — the resumable
    /// point a replayer should start from when it needs decisions from
    /// `decision` onward.
    pub fn deepest_epoch_at_or_before(&self, decision: u64) -> Option<EpochMark> {
        self.epochs
            .iter()
            .take_while(|e| e.decision <= decision)
            .last()
            .copied()
    }
}

/// One recorded external input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputEntry {
    /// Port name.
    pub port: String,
    /// Arrival time.
    pub time: u64,
    /// The value.
    pub value: Value,
}

/// The recorded input log (port name, arrival time, value).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InputLog {
    /// Inputs in arrival order.
    pub entries: Vec<InputEntry>,
}

impl InputLog {
    /// Extracts all input arrivals from a finished run's trace.
    pub fn from_run(out: &dd_sim::RunOutput) -> Self {
        let entries = out
            .trace()
            .iter()
            .filter_map(|(meta, event)| match event {
                Event::InputArrival { port, value } => Some(InputEntry {
                    port: out.registry.ports[port.index()].name.clone(),
                    time: meta.time,
                    value: value.clone(),
                }),
                _ => None,
            })
            .collect();
        InputLog { entries }
    }

    /// Rebuilds an input script that reproduces these arrivals.
    pub fn to_script(&self) -> InputScript {
        let mut s = InputScript::new();
        for e in &self.entries {
            s.push(&e.port, e.time, e.value.clone());
        }
        s
    }

    /// Total payload bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.value.byte_size()).sum()
    }
}

/// The recorded observable output: ordered port writes plus final counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OutputLog {
    /// `(port name, value)` in emission order.
    pub outputs: Vec<(String, Value)>,
    /// Final counter values.
    pub counters: BTreeMap<String, i64>,
}

impl OutputLog {
    /// Builds the log from a run's I/O summary.
    pub fn from_io(io: &IoSummary) -> Self {
        OutputLog {
            outputs: io
                .outputs
                .iter()
                .map(|o| (o.port_name.clone(), o.value.clone()))
                .collect(),
            counters: io.counters.clone(),
        }
    }

    /// Returns `true` if another run's observable output matches this log
    /// exactly (the output-determinism acceptance test).
    pub fn matches(&self, io: &IoSummary) -> bool {
        *self == OutputLog::from_io(io)
    }
}

/// Kinds of task-local nondeterminism captured by a [`ValueLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValKind {
    /// A shared-variable read.
    Read,
    /// A channel receive.
    Recv,
    /// An input-port read.
    Input,
    /// An RNG draw (raw 64-bit value).
    Rng,
}

/// One logged value observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValEntry {
    /// What kind of observation.
    pub kind: ValKind,
    /// The observed value (for RNG draws, the raw value as an `Int`).
    pub value: Value,
}

/// Per-task logs of every value observed — the iDNA-style value-determinism
/// artifact. Feeding these back at the corresponding execution points
/// reproduces each task's behaviour regardless of the global schedule.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ValueLog {
    per_task: BTreeMap<u32, Vec<ValEntry>>,
}

impl ValueLog {
    /// Extracts per-task value observations from a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut per_task: BTreeMap<u32, Vec<ValEntry>> = BTreeMap::new();
        for (_, event) in trace {
            let (task, entry) = match event {
                Event::Read { task, value, .. } => (
                    *task,
                    ValEntry {
                        kind: ValKind::Read,
                        value: value.clone(),
                    },
                ),
                Event::Recv { task, value, .. } => (
                    *task,
                    ValEntry {
                        kind: ValKind::Recv,
                        value: value.clone(),
                    },
                ),
                Event::InputRead { task, value, .. } => (
                    *task,
                    ValEntry {
                        kind: ValKind::Input,
                        value: value.clone(),
                    },
                ),
                Event::RngDraw { task, value, .. } => (
                    *task,
                    ValEntry {
                        kind: ValKind::Rng,
                        value: Value::Int(*value as i64),
                    },
                ),
                _ => continue,
            };
            per_task.entry(task.0).or_default().push(entry);
        }
        ValueLog { per_task }
    }

    /// Entries logged for one task.
    pub fn for_task(&self, task: TaskId) -> &[ValEntry] {
        self.per_task.get(&task.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of logged observations.
    pub fn len(&self) -> usize {
        self.per_task.values().map(Vec::len).sum()
    }

    /// Returns `true` if nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes (the dominant recording cost of value
    /// determinism).
    pub fn bytes(&self) -> u64 {
        self.per_task
            .values()
            .flatten()
            .map(|e| e.value.byte_size())
            .sum()
    }

    /// Creates a replay cursor feeding these values back, plus a shared
    /// stats handle for divergence accounting.
    pub fn into_cursor(self) -> (ValueCursor, ValueCursorStats) {
        let inner = Arc::new(Mutex::new(CursorInner {
            queues: self
                .per_task
                .into_iter()
                .map(|(t, v)| (t, VecDeque::from(v)))
                .collect(),
            fed: 0,
            divergences: 0,
        }));
        (
            ValueCursor {
                inner: Arc::clone(&inner),
            },
            ValueCursorStats { inner },
        )
    }
}

struct CursorInner {
    queues: BTreeMap<u32, VecDeque<ValEntry>>,
    fed: u64,
    divergences: u64,
}

/// A [`dd_sim::NondetOverride`] that feeds a [`ValueLog`] back into a run.
///
/// Kind mismatches (the replay asked for a read where the log has a receive)
/// and exhausted logs are counted as divergences and fall back to live
/// values.
pub struct ValueCursor {
    inner: Arc<Mutex<CursorInner>>,
}

/// Shared handle to a [`ValueCursor`]'s statistics, readable after the run.
#[derive(Clone)]
pub struct ValueCursorStats {
    inner: Arc<Mutex<CursorInner>>,
}

impl ValueCursorStats {
    /// Values successfully fed from the log.
    pub fn fed(&self) -> u64 {
        self.inner.lock().expect("cursor lock poisoned").fed
    }

    /// Replay points where the log did not match.
    pub fn divergences(&self) -> u64 {
        self.inner.lock().expect("cursor lock poisoned").divergences
    }
}

impl ValueCursor {
    fn pop(&mut self, task: TaskId, want: ValKind) -> Option<Value> {
        let mut inner = self.inner.lock().expect("cursor lock poisoned");
        let q = inner.queues.get_mut(&task.0)?;
        match q.front() {
            Some(e) if e.kind == want => {
                let v = q.pop_front().expect("front checked").value;
                inner.fed += 1;
                Some(v)
            }
            Some(_) => {
                inner.divergences += 1;
                None
            }
            None => {
                inner.divergences += 1;
                None
            }
        }
    }
}

impl dd_sim::NondetOverride for ValueCursor {
    fn override_read(
        &mut self,
        task: TaskId,
        _var: dd_sim::VarId,
        _actual: &Value,
    ) -> Option<Value> {
        self.pop(task, ValKind::Read)
    }

    fn override_recv(&mut self, task: TaskId, _chan: dd_sim::ChanId) -> Option<Value> {
        self.pop(task, ValKind::Recv)
    }

    fn override_input(&mut self, task: TaskId, _port: dd_sim::PortId) -> Option<Value> {
        self.pop(task, ValKind::Input)
    }

    fn override_rng(&mut self, task: TaskId) -> Option<u64> {
        self.pop(task, ValKind::Rng)
            .and_then(|v| v.as_int())
            .map(|i| i as u64)
    }
}

/// The failure-determinism artifact: a snapshot of the failure evidence
/// (what ESD would pull from a bug report or core dump).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FailureSnapshot {
    /// Stable failure identifier assigned by the I/O specification.
    pub failure_id: String,
    /// Human-readable description.
    pub description: String,
    /// Crash records, if the failure was a crash.
    pub crashes: Vec<dd_sim::CrashRecord>,
    /// Final counters (performance evidence).
    pub counters: BTreeMap<String, i64>,
}

/// One event an [`EventLog`] kept, with its step/time metadata. Its
/// serialized form, an object with `meta` and `event` fields, is the RCSE
/// artifact's on-disk record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Step/time metadata.
    pub meta: EventMeta,
    /// The event payload.
    pub event: Event,
}

/// A selectively recorded event sequence (the RCSE artifact body).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventLog {
    /// Recorded events with their step metadata.
    pub events: Vec<TraceEvent>,
}

impl EventLog {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Returns `true` if an event satisfying `pred` was recorded.
    pub fn contains(&self, pred: impl Fn(&Event) -> bool) -> bool {
        self.events.iter().any(|e| pred(&e.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::VarId;

    fn ev(step: u64, event: Event) -> (EventMeta, Event) {
        (EventMeta { step, time: step }, event)
    }

    #[test]
    fn value_log_extracts_per_task_streams() {
        let trace = Trace::from(vec![
            ev(
                0,
                Event::Read {
                    task: TaskId(0),
                    var: VarId(0),
                    value: Value::Int(1),
                    site: "s".into(),
                },
            ),
            ev(
                1,
                Event::RngDraw {
                    task: TaskId(1),
                    value: 42,
                    site: "s".into(),
                },
            ),
            ev(
                2,
                Event::Recv {
                    task: TaskId(0),
                    chan: dd_sim::ChanId(0),
                    value: Value::Str("m".into()),
                    site: "s".into(),
                },
            ),
        ]);
        let log = ValueLog::from_trace(&trace);
        assert_eq!(log.len(), 3);
        assert_eq!(log.for_task(TaskId(0)).len(), 2);
        assert_eq!(log.for_task(TaskId(0))[0].kind, ValKind::Read);
        assert_eq!(log.for_task(TaskId(1))[0].kind, ValKind::Rng);
        assert!(log.bytes() >= 8 + 8 + 5);
    }

    #[test]
    fn cursor_feeds_in_order_and_counts_divergence() {
        let trace = Trace::from(vec![
            ev(
                0,
                Event::Read {
                    task: TaskId(0),
                    var: VarId(0),
                    value: Value::Int(5),
                    site: "s".into(),
                },
            ),
            ev(
                1,
                Event::Read {
                    task: TaskId(0),
                    var: VarId(0),
                    value: Value::Int(6),
                    site: "s".into(),
                },
            ),
        ]);
        let (mut cursor, stats) = ValueLog::from_trace(&trace).into_cursor();
        use dd_sim::NondetOverride;
        assert_eq!(
            cursor.override_read(TaskId(0), VarId(0), &Value::Unit),
            Some(Value::Int(5))
        );
        // Kind mismatch: the log has a Read queued, we ask for a Recv.
        assert_eq!(cursor.override_recv(TaskId(0), dd_sim::ChanId(0)), None);
        assert_eq!(
            cursor.override_read(TaskId(0), VarId(0), &Value::Unit),
            Some(Value::Int(6))
        );
        // Exhausted.
        assert_eq!(
            cursor.override_read(TaskId(0), VarId(0), &Value::Unit),
            None
        );
        assert_eq!(stats.fed(), 2);
        assert_eq!(stats.divergences(), 2);
    }

    #[test]
    fn output_log_matching() {
        let mut io = IoSummary::default();
        io.counters.insert("drops".into(), 3);
        let log = OutputLog::from_io(&io);
        assert!(log.matches(&io));
        let mut io2 = io.clone();
        io2.counters.insert("drops".into(), 4);
        assert!(!log.matches(&io2));
    }

    #[test]
    fn schedule_log_round_trips_serde() {
        let log = ScheduleLog {
            decisions: vec![RecordedDecision {
                kind: dd_sim::DecisionKind::NextTask,
                chosen: TaskId(2),
            }]
            .into(),
            epochs: vec![
                EpochMark {
                    decision: 1,
                    step: 0,
                    time: 0,
                    snapshot: None,
                },
                EpochMark {
                    decision: 4,
                    step: 12,
                    time: 31,
                    snapshot: None,
                },
            ],
            ..ScheduleLog::default()
        };
        assert_eq!(log.version, SCHEDULE_LOG_VERSION);
        let s = serde_json::to_string(&log).unwrap();
        let back: ScheduleLog = serde_json::from_str(&s).unwrap();
        assert_eq!(log, back);
        assert_eq!(back.len(), 1);
        assert_eq!(back.epochs.len(), 2);
    }

    #[test]
    fn v1_schedule_artifacts_still_load() {
        // A decision-stream-only artifact as persisted before the version
        // field existed.
        let v1 = r#"{"decisions":[{"kind":"NextTask","chosen":3}]}"#;
        let log: ScheduleLog = serde_json::from_str(v1).expect("v1 artifact loads");
        assert_eq!(log.version, 1);
        assert_eq!(log.decisions.len(), 1);
        assert_eq!(log.decisions[0].chosen, TaskId(3));
        assert!(log.epochs.is_empty());
    }

    #[test]
    fn schedule_artifacts_without_decisions_or_with_unknown_keys_are_rejected() {
        let err = |text: &str| {
            serde_json::from_str::<ScheduleLog>(text)
                .unwrap_err()
                .to_string()
        };
        assert_eq!(
            err(r#"{"version":2,"epochs":[]}"#),
            "missing field `decisions` for `ScheduleLog`"
        );
        assert_eq!(
            err(r#"{"version":2,"decisions":[],"epochs":[],"zz":1}"#),
            "unknown field `zz` for ScheduleLog"
        );
    }

    #[test]
    fn epoch_marks_require_their_fields_and_keep_the_first_of_a_repeated_key() {
        let mark = |text: &str| serde_json::from_str::<EpochMark>(text).map_err(|e| e.to_string());
        assert_eq!(
            mark(r#"{"step":1}"#).unwrap_err(),
            "missing field `decision` for `EpochMark`"
        );
        assert_eq!(
            mark(r#"{"decision":8,"time":3}"#).unwrap_err(),
            "missing field `step` for `EpochMark`"
        );
        assert_eq!(
            mark(r#"{"decision":8,"step":2,"time":3,"step":"x"}"#),
            Ok(EpochMark {
                decision: 8,
                step: 2,
                time: 3,
                snapshot: None,
            })
        );
    }

    #[test]
    fn deepest_epoch_lookup() {
        let log = ScheduleLog {
            epochs: vec![
                EpochMark {
                    decision: 2,
                    step: 3,
                    time: 5,
                    snapshot: None,
                },
                EpochMark {
                    decision: 6,
                    step: 11,
                    time: 20,
                    snapshot: None,
                },
            ],
            ..ScheduleLog::default()
        };
        assert_eq!(log.deepest_epoch_at_or_before(1), None);
        assert_eq!(log.deepest_epoch_at_or_before(2).unwrap().decision, 2);
        assert_eq!(log.deepest_epoch_at_or_before(5).unwrap().decision, 2);
        assert_eq!(log.deepest_epoch_at_or_before(9).unwrap().decision, 6);
    }

    #[test]
    fn input_log_rebuilds_script() {
        let log = InputLog {
            entries: vec![
                InputEntry {
                    port: "req".into(),
                    time: 5,
                    value: Value::Int(1),
                },
                InputEntry {
                    port: "req".into(),
                    time: 9,
                    value: Value::Int(2),
                },
            ],
        };
        let script = log.to_script();
        assert_eq!(script.len(), 2);
        assert_eq!(script.for_port("req")[1].time, 9);
        assert_eq!(log.bytes(), 16);
    }

    #[test]
    fn event_log_contains() {
        let log = EventLog {
            events: vec![TraceEvent {
                meta: EventMeta { step: 0, time: 0 },
                event: Event::Yield {
                    task: TaskId(0),
                    site: "s".into(),
                },
            }],
        };
        assert!(log.contains(|e| matches!(e, Event::Yield { .. })));
        assert!(!log.contains(|e| matches!(e, Event::Crash { .. })));
    }
}
