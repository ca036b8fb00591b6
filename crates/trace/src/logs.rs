//! Artifact log formats: what each determinism model persists at runtime.
//!
//! A *recording artifact* is the only information a replayer gets — the
//! whole point of relaxed determinism is that artifacts shrink as guarantees
//! weaken. Formats here are model-agnostic containers; the determinism
//! models in `dd-replay` and `dd-core` decide what goes into them.

use crate::trace::Trace;
use dd_sim::{ChunkedLog, Event, InputScript, IoSummary, RecordedDecision, TaskId, Value};
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
///   prefix. Writers emit v3 only when at least one epoch carries an id, so
///   artifacts without stored snapshots stay byte-identical to v2; readers
///   accept v1 through v3.
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
    fn to_content(&self) -> serde::Content {
        let mut map = vec![
            (
                serde::Content::Str("decision".into()),
                self.decision.to_content(),
            ),
            (serde::Content::Str("step".into()), self.step.to_content()),
            (serde::Content::Str("time".into()), self.time.to_content()),
        ];
        if let Some(id) = self.snapshot {
            map.push((serde::Content::Str("snapshot".into()), id.to_content()));
        }
        serde::Content::Map(map)
    }

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

// Tolerates a missing `snapshot` (v1/v2 artifacts) but still rejects
// unknown keys, matching the strictness of the derived form it replaces.
impl Deserialize for EpochMark {
    fn from_content(content: &serde::Content) -> Result<Self, serde::Error> {
        let map = content
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected an EpochMark map"))?;
        let mut mark = EpochMark {
            decision: 0,
            step: 0,
            time: 0,
            snapshot: None,
        };
        for (k, v) in map {
            match k.as_str() {
                Some("decision") => mark.decision = u64::from_content(v)?,
                Some("step") => mark.step = u64::from_content(v)?,
                Some("time") => mark.time = u64::from_content(v)?,
                Some("snapshot") => mark.snapshot = Some(u64::from_content(v)?),
                _ => {
                    return Err(serde::Error::custom(format!(
                        "unknown EpochMark field {k:?}"
                    )))
                }
            }
        }
        Ok(mark)
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
// and `epochs`) keep loading: missing fields default to version 1 with no
// epochs instead of failing deserialization.
impl serde::Deserialize for ScheduleLog {
    fn from_content(content: &serde::Content) -> Result<Self, serde::Error> {
        let map = content
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected a ScheduleLog map"))?;
        let field = |name: &str| {
            map.iter()
                .find(|(k, _)| k.as_str() == Some(name))
                .map(|(_, v)| v)
        };
        Ok(ScheduleLog {
            version: match field("version") {
                Some(v) => u32::from_content(v)?,
                None => 1,
            },
            decisions: match field("decisions") {
                Some(v) => ChunkedLog::<RecordedDecision>::from_content(v)?,
                None => ChunkedLog::new(),
            },
            epochs: match field("epochs") {
                Some(v) => Vec::<EpochMark>::from_content(v)?,
                None => Vec::new(),
            },
        })
    }
}

impl ScheduleLog {
    /// Builds the log from a finished run's decision records, carrying over
    /// the run's checkpoint epochs — both in-memory snapshots and marks of
    /// snapshots spilled to an on-disk store (which carry their store id).
    ///
    /// The emitted `version` is the *minimal* one that can express the log:
    /// 2 unless some epoch references a stored snapshot, so recordings
    /// without spill stay byte-identical to pre-v3 artifacts.
    pub fn from_run(out: &dd_sim::RunOutput) -> Self {
        let mut epochs: Vec<EpochMark> = out
            .snapshots
            .iter()
            .map(EpochMark::of)
            .chain(out.spilled.iter().map(EpochMark::of_spilled))
            .collect();
        epochs.sort_by_key(|e| e.decision);
        ScheduleLog {
            version: if epochs.iter().any(|e| e.snapshot.is_some()) {
                SCHEDULE_LOG_VERSION
            } else {
                2
            },
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

    /// Merges epoch marks from another observer of the same logical run
    /// into this log, keeping the union sorted by decision index and free
    /// of duplicates.
    ///
    /// Concurrent recorders — e.g. one per worker of a parallel schedule
    /// explorer — each see only the snapshot slice their own executions
    /// took (a resumed run reports epochs past its restore point only).
    /// Because snapshots at the same decision index of the same schedule
    /// prefix capture the identical world (the determinism contract),
    /// merging is a pure set union: order of merging does not matter, and
    /// a duplicate decision index carries an identical mark, so the first
    /// occurrence is kept.
    ///
    /// Both sides are already ordered by decision (the list invariant, and
    /// snapshots are reported in increasing decision order), so the union
    /// is a single forward merge pass — merging M slices into a log of E
    /// epochs costs O(M + E), not a full re-sort per merge.
    pub fn merge_epochs(&mut self, marks: impl IntoIterator<Item = EpochMark>) {
        let mut incoming: Vec<EpochMark> = marks.into_iter().collect();
        // No early-out on empty input: normalizing `epochs` below is part
        // of this function's contract, and an empty merge must repair an
        // unsorted deserialized list just like a non-empty one.
        // Callers normally hand marks in decision order; tolerate the
        // exception without losing the linear merge below.
        if !incoming.windows(2).all(|w| w[0].decision <= w[1].decision) {
            incoming.sort_by_key(|e| e.decision);
        }
        let mut old = std::mem::take(&mut self.epochs);
        // `epochs` is a pub field a deserialized artifact populates
        // verbatim, so the list invariant cannot be assumed on this side
        // either — re-establish it (once) before the linear merge instead
        // of silently producing an unsorted union.
        if !old.windows(2).all(|w| w[0].decision <= w[1].decision) {
            old.sort_by_key(|e| e.decision);
        }
        let mut merged: Vec<EpochMark> = Vec::with_capacity(old.len() + incoming.len());
        let mut a = old.into_iter().peekable();
        let mut b = incoming.into_iter().peekable();
        loop {
            let take_a = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => x.decision <= y.decision,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let next = if take_a { a.next() } else { b.next() }.expect("peeked side is non-empty");
            match merged.last() {
                Some(prev) if prev.decision == next.decision => {
                    debug_assert!(
                        prev.step == next.step && prev.time == next.time,
                        "epoch marks at decision {} disagree ({}/{} vs {}/{}) — \
                         recorders observed diverging runs",
                        next.decision,
                        prev.step,
                        prev.time,
                        next.step,
                        next.time
                    );
                }
                _ => merged.push(next),
            }
        }
        self.epochs = merged;
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
    /// Extracts all input arrivals from a trace.
    pub fn from_trace(trace: &Trace, registry: &dd_sim::Registry) -> Self {
        let entries = trace
            .iter()
            .filter_map(|e| match &e.event {
                Event::InputArrival { port, value } => Some(InputEntry {
                    port: registry.ports[port.index()].name.clone(),
                    time: e.meta.time,
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
        for e in trace.iter() {
            let (task, entry) = match &e.event {
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

    /// Appends one observation for a task (used by online recorders).
    pub fn push(&mut self, task: TaskId, entry: ValEntry) {
        self.per_task.entry(task.0).or_default().push(entry);
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

/// A selectively recorded event sequence (the RCSE artifact body).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventLog {
    /// Recorded events with their step metadata.
    pub events: Vec<crate::trace::TraceEvent>,
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
    use dd_sim::{EventMeta, VarId};

    fn ev(step: u64, event: Event) -> (EventMeta, Event) {
        (EventMeta { step, time: step }, event)
    }

    #[test]
    fn value_log_extracts_per_task_streams() {
        let trace = Trace::from_events(vec![
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
        let trace = Trace::from_events(vec![
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
    fn merge_epochs_unions_sorted_and_deduplicated() {
        let mark = |decision: u64, step: u64| EpochMark {
            decision,
            step,
            time: step * 2,
            snapshot: None,
        };
        // Three concurrent recorders, each observing a different slice of
        // the same run's snapshot stream (resumed runs only report epochs
        // past their restore point), merged in arbitrary order.
        let slices = [
            vec![mark(2, 3), mark(6, 11)],
            vec![mark(4, 7), mark(6, 11)],
            vec![mark(2, 3), mark(8, 15)],
        ];
        let mut forward = ScheduleLog::default();
        for s in &slices {
            forward.merge_epochs(s.iter().copied());
        }
        let mut backward = ScheduleLog::default();
        for s in slices.iter().rev() {
            backward.merge_epochs(s.iter().copied());
        }
        let want = vec![mark(2, 3), mark(4, 7), mark(6, 11), mark(8, 15)];
        assert_eq!(forward.epochs, want, "union, sorted, deduplicated");
        assert_eq!(backward.epochs, want, "merge order must not matter");
        // The merged log answers resume-point queries across all slices.
        assert_eq!(forward.deepest_epoch_at_or_before(5).unwrap().decision, 4);
        assert_eq!(forward.deepest_epoch_at_or_before(9).unwrap().decision, 8);
    }

    #[test]
    fn merge_epochs_repairs_an_unsorted_deserialized_artifact() {
        let mark = |decision: u64| EpochMark {
            decision,
            step: decision * 10,
            time: decision * 20,
            snapshot: None,
        };
        // `epochs` is a pub field: an externally-produced artifact can
        // arrive unsorted and with duplicates. A merge must re-establish
        // the list invariant rather than assume it.
        let mut log = ScheduleLog {
            epochs: vec![mark(6), mark(2), mark(6)],
            ..ScheduleLog::default()
        };
        log.merge_epochs([mark(4)]);
        assert_eq!(log.epochs, vec![mark(2), mark(4), mark(6)]);
        assert_eq!(log.deepest_epoch_at_or_before(5).unwrap().decision, 4);
        // The repair is part of the merge contract even for an empty
        // slice (a recorder that took no snapshots still absorbs).
        let mut untouched = ScheduleLog {
            epochs: vec![mark(6), mark(2)],
            ..ScheduleLog::default()
        };
        untouched.merge_epochs([]);
        assert_eq!(untouched.epochs, vec![mark(2), mark(6)]);
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
            events: vec![crate::trace::TraceEvent {
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
