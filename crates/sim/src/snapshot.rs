//! The on-disk snapshot codec and the spill hook.
//!
//! A [`WorldSnapshot`] splits into two very
//! different kinds of state:
//!
//! - *live* machine state (tasks, variables, locks, channels, ports,
//!   clocks, RNG, pending environment events) — small, different at every
//!   snapshot; and
//! - *history* logs ([`ChunkedLog`]s) — large, append-only, and chunked
//!   into immutable sealed chunks plus one bounded mutable tail.
//!
//! Sealed chunks never change after sealing, so two snapshots of the same
//! run share every chunk of their common prefix. The on-disk format
//! exploits exactly that: a snapshot *manifest* carries the live state, the
//! inline log tails, and for each log only the *number* of sealed chunks it
//! references — the chunk payloads themselves are content-addressed by
//! `(log name, chunk index)` and written once, the first time any snapshot
//! references them. A later snapshot of the same run is therefore a
//! *delta*: its manifest plus whichever chunks sealed since the previous
//! spill.
//!
//! This module owns the *codec* (world ⇄ manifest and chunk text) and the
//! [`SnapshotSink`] hook the driver offers snapshots through; the store
//! that lays manifests and chunks out on disk (and enforces the
//! replay-starting-point availability bound) lives in `dd-trace`.
//!
//! The manifest is typed: its live state is a mirror of the world's
//! non-log fields, and each log's tail is that log's element vector,
//! decoded according to the log's `name` (which the writer always emits
//! before the tail). Chunk text decodes straight into the log's element
//! type. Decoding builds no intermediate document tree.
//!
//! Integrity: the manifest embeds the world's FNV-1a
//! `WorldState::digest` at encode time, and [`decode_snapshot`] recomputes
//! it after reassembly — a truncated or garbled artifact fails decode
//! instead of resuming from a corrupt world. A [`DecodeError`] says which
//! artifact is at fault: the manifest, or one sealed chunk.

use crate::error::StopReason;
use crate::event::{Event, EventMeta};
use crate::history::ChunkedLog;
use crate::kernel::{
    ChanRec, CrashRecord, CvarRec, DecisionRecord, EnabledSet, LockRec, OutputRecord, PendingInput,
    PortRec, SysLogEntry, TaskRec, VarRec, WorldSnapshot, WorldState,
};
use crate::policy::SchedulePolicy;
use crate::rng::DetRng;
use crate::value::Value;
use serde::{Content, Deserialize, Deserializer, Kind, Serialize, Serializer};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

/// Version tag of the snapshot manifest format.
///
/// Version 2 added the fault-plane runtime state (partition schedule
/// status, restart queue, per-group crash/restart counters) to the live
/// state; version-1 manifests predate scheduled faults and are rejected.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 2;

/// One history log's entry in a [`SnapshotManifest`]: the chunking
/// geometry, how many sealed chunks the snapshot references (their payloads
/// live in separate content-addressed artifacts), and the mutable tail
/// inline.
#[derive(Serialize)]
pub struct LogManifest {
    /// Canonical log name (`"trace"`, `"decisions"`, `"syslog-3"`, …).
    pub name: String,
    /// Elements per sealed chunk.
    pub chunk_len: u64,
    /// Number of sealed chunks; payload `i` is fetched by
    /// `(name, i)` for `i < sealed`.
    pub sealed: u64,
    /// The mutable tail inline (always smaller than one chunk).
    tail: LogTail,
}

/// The serializable form of one [`WorldSnapshot`] minus the sealed chunk
/// payloads (see the [module docs](self) for the delta layout).
#[derive(Serialize, Deserialize)]
pub struct SnapshotManifest {
    /// Format version ([`SNAPSHOT_FORMAT_VERSION`]).
    pub version: u32,
    /// Decision index the snapshot was taken at.
    pub decision: u64,
    /// Successful operations executed up to the snapshot point.
    pub step: u64,
    /// Execution-clock value at the snapshot point.
    pub time: u64,
    /// FNV-1a digest of the world at encode time; decode recomputes and
    /// compares it to reject corrupt or truncated artifacts.
    pub digest: u64,
    /// The live (non-log) machine state.
    pub live: LiveState,
    /// One entry per history log present in the world.
    pub logs: Vec<LogManifest>,
}

/// Identifies one spilled snapshot in a [`RunOutput`](crate::driver::RunOutput):
/// where in the run it was taken and the sink-assigned id it is retrievable
/// under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotMark {
    /// Decision index the snapshot was taken at.
    pub decision: u64,
    /// Operation count at the snapshot point.
    pub step: u64,
    /// Execution-clock value at the snapshot point.
    pub time: u64,
    /// Sink-assigned retrieval id.
    pub id: u64,
}

/// Destination for spilled snapshots (see
/// [`RunConfig::snapshot_sink`](crate::config::RunConfig)).
///
/// When a sink is configured, the driver *offers* it every snapshot the
/// run's [`CheckpointPlan`](crate::config::CheckpointPlan) calls for
/// instead of accumulating them in memory. The sink decides whether to keep the offer (its placement and
/// eviction policy is its own business — `dd-trace`'s store maintains a
/// bounded distance-to-nearest-checkpoint guarantee) and returns the id the
/// kept snapshot is retrievable under.
pub trait SnapshotSink: Send {
    /// Offers one snapshot. Returns `Ok(Some(id))` if the sink kept it,
    /// `Ok(None)` if it declined, and `Err` on a write failure (the run
    /// continues; errors are surfaced in
    /// [`RunOutput::spill_errors`](crate::driver::RunOutput)).
    fn offer(&mut self, snap: &WorldSnapshot) -> Result<Option<u64>, String>;
}

/// The live (non-log) half of a [`WorldState`], in a serializable mirror.
#[derive(Serialize, Deserialize)]
struct LiveFields {
    tasks: Vec<TaskRec>,
    vars: Vec<VarRec>,
    locks: Vec<LockRec>,
    cvars: Vec<CvarRec>,
    chans: Vec<ChanRec>,
    ports: Vec<PortRec>,
    time: u64,
    wall_extra: u64,
    steps: u64,
    events: u64,
    rng: DetRng,
    timers: BinaryHeap<Reverse<(u64, u32)>>,
    pending_inputs: VecDeque<PendingInput>,
    pending_crashes: VecDeque<(u64, String)>,
    pending_partitions: VecDeque<(u64, String, String)>,
    pending_heals: VecDeque<(u64, String, String)>,
    active_partitions: BTreeSet<(String, String)>,
    pending_restarts: VecDeque<(u64, String)>,
    restarts_due: Vec<String>,
    restarts_fired: Vec<(String, u32)>,
    crash_counts: BTreeMap<String, u64>,
    restart_counts: BTreeMap<String, u64>,
    counters: BTreeMap<String, i64>,
    cancelling: bool,
    stop: Option<StopReason>,
    decision_seq: u64,
    net_sends: u64,
    record_syslog: bool,
    hash_decisions: bool,
}

/// The live (non-log) machine state of a [`SnapshotManifest`]. It encodes
/// as a map of its fields; decode errors name the live state.
pub struct LiveState(LiveFields);

impl Serialize for LiveState {
    fn to_content(&self) -> Content {
        self.0.to_content()
    }

    fn serialize(&self, out: &mut dyn Serializer) {
        self.0.serialize(out)
    }
}

impl Deserialize for LiveState {
    fn deserialize(de: &mut dyn Deserializer) -> Result<Self, serde::Error> {
        LiveFields::deserialize(de)
            .map(LiveState)
            .map_err(|e| serde::Error::custom(format!("live state: {e}")))
    }
}

impl LiveState {
    fn of(w: &WorldState) -> LiveState {
        LiveState(LiveFields {
            tasks: w.tasks.clone(),
            vars: w.vars.clone(),
            locks: w.locks.clone(),
            cvars: w.cvars.clone(),
            chans: w.chans.clone(),
            ports: w.ports.clone(),
            time: w.time,
            wall_extra: w.wall_extra,
            steps: w.steps,
            events: w.events,
            rng: w.rng.clone(),
            timers: w.timers.clone(),
            pending_inputs: w.pending_inputs.clone(),
            pending_crashes: w.pending_crashes.clone(),
            pending_partitions: w.pending_partitions.clone(),
            pending_heals: w.pending_heals.clone(),
            active_partitions: w.active_partitions.clone(),
            pending_restarts: w.pending_restarts.clone(),
            restarts_due: w.restarts_due.clone(),
            restarts_fired: w.restarts_fired.clone(),
            crash_counts: w.crash_counts.clone(),
            restart_counts: w.restart_counts.clone(),
            counters: w.counters.clone(),
            cancelling: w.cancelling,
            stop: w.stop.clone(),
            decision_seq: w.decision_seq,
            net_sends: w.net_sends,
            record_syslog: w.record_syslog,
            hash_decisions: w.hash_decisions,
        })
    }
}

/// A log's mutable tail: the element vector of the log it belongs to.
/// It encodes as a plain sequence.
enum LogTail {
    Trace(Vec<(EventMeta, Event)>),
    Outputs(Vec<OutputRecord>),
    InputsSeen(Vec<(String, Value)>),
    Crashes(Vec<CrashRecord>),
    Decisions(Vec<DecisionRecord>),
    DecisionEnabled(Vec<EnabledSet>),
    DecisionHashes(Vec<u64>),
    SysLog(Vec<SysLogEntry>),
    /// The tail of a log this build does not know, which decode ignores:
    /// checked to be well-formed JSON and dropped. [`encode_manifest`]
    /// never makes one; it encodes as an empty sequence.
    Unknown,
}

impl LogTail {
    /// Calls `f` with the tail's element vector, whatever its element
    /// type.
    fn encoded<R>(&self, f: impl FnOnce(&dyn Serialize) -> R) -> R {
        match self {
            LogTail::Trace(v) => f(v),
            LogTail::Outputs(v) => f(v),
            LogTail::InputsSeen(v) => f(v),
            LogTail::Crashes(v) => f(v),
            LogTail::Decisions(v) => f(v),
            LogTail::DecisionEnabled(v) => f(v),
            LogTail::DecisionHashes(v) => f(v),
            LogTail::SysLog(v) => f(v),
            LogTail::Unknown => f(&[(); 0]),
        }
    }

    /// Decodes the tail of the log called `name`.
    fn deserialize_for(name: &str, de: &mut dyn Deserializer) -> Result<Self, serde::Error> {
        Ok(match name {
            "trace" => LogTail::Trace(Vec::deserialize(de)?),
            "outputs" => LogTail::Outputs(Vec::deserialize(de)?),
            "inputs_seen" => LogTail::InputsSeen(Vec::deserialize(de)?),
            "crashes" => LogTail::Crashes(Vec::deserialize(de)?),
            "decisions" => LogTail::Decisions(Vec::deserialize(de)?),
            "decision_enabled" => LogTail::DecisionEnabled(Vec::deserialize(de)?),
            "decision_hashes" => LogTail::DecisionHashes(Vec::deserialize(de)?),
            _ if syslog_task(name).is_some() => LogTail::SysLog(Vec::deserialize(de)?),
            _ => {
                de.skip()?;
                LogTail::Unknown
            }
        })
    }
}

impl Serialize for LogTail {
    fn to_content(&self) -> Content {
        self.encoded(|v| v.to_content())
    }

    fn serialize(&self, out: &mut dyn Serializer) {
        self.encoded(|v| v.serialize(out))
    }
}

/// The task whose syscall log is called `name` (`syslog-<task>`).
fn syslog_task(name: &str) -> Option<usize> {
    name.strip_prefix("syslog-")?.parse().ok()
}

// Hand-written because the tail's type depends on the log's name, which
// must come first; otherwise the derive's rules: the first occurrence of a
// key wins, unknown keys are rejected, missing fields are reported in
// declaration order.
impl Deserialize for LogManifest {
    fn deserialize(de: &mut dyn Deserializer) -> Result<Self, serde::Error> {
        if de.peek()? != Kind::Map {
            return Err(serde::Error::custom("expected map for LogManifest"));
        }
        let (mut name, mut chunk_len, mut sealed, mut tail) = (None, None, None, None);
        de.begin_map()?;
        while let Some(key) = de.next_key()? {
            match key {
                "name" if name.is_none() => name = Some(String::deserialize(de)?),
                "chunk_len" if chunk_len.is_none() => chunk_len = Some(u64::deserialize(de)?),
                "sealed" if sealed.is_none() => sealed = Some(u64::deserialize(de)?),
                "tail" if tail.is_none() => {
                    let Some(name) = &name else {
                        return Err(serde::Error::custom("log entry has `tail` before `name`"));
                    };
                    let decoded = LogTail::deserialize_for(name, de)
                        .map_err(|e| serde::Error::custom(format!("log `{name}` tail: {e}")))?;
                    tail = Some(decoded);
                }
                "name" | "chunk_len" | "sealed" | "tail" => de.skip()?,
                other => {
                    return Err(serde::Error::custom(format!(
                        "unknown field `{other}` for LogManifest"
                    )))
                }
            }
        }
        let missing =
            |f: &str| serde::Error::custom(format!("missing field `{f}` for `LogManifest`"));
        Ok(LogManifest {
            name: name.ok_or_else(|| missing("name"))?,
            chunk_len: chunk_len.ok_or_else(|| missing("chunk_len"))?,
            sealed: sealed.ok_or_else(|| missing("sealed"))?,
            tail: tail.ok_or_else(|| missing("tail"))?,
        })
    }
}

/// A history log element type: which [`LogTail`] variant carries its
/// tail.
trait LogElement: Deserialize {
    fn tail(tail: LogTail) -> Option<Vec<Self>>;
}

macro_rules! log_elements {
    ($($elem:ty => $variant:ident),* $(,)?) => {$(
        impl LogElement for $elem {
            fn tail(tail: LogTail) -> Option<Vec<Self>> {
                match tail {
                    LogTail::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    )*};
}

log_elements!(
    (EventMeta, Event) => Trace,
    OutputRecord => Outputs,
    (String, Value) => InputsSeen,
    CrashRecord => Crashes,
    DecisionRecord => Decisions,
    EnabledSet => DecisionEnabled,
    u64 => DecisionHashes,
    SysLogEntry => SysLog,
);

fn log_manifest<T: Clone>(
    name: &str,
    log: &ChunkedLog<T>,
    tail: fn(Vec<T>) -> LogTail,
) -> LogManifest {
    LogManifest {
        name: name.to_owned(),
        chunk_len: log.chunk_len() as u64,
        sealed: log.sealed_chunk_count() as u64,
        tail: tail(log.tail().to_vec()),
    }
}

/// Encodes a snapshot's manifest: live state, log geometry, inline tails,
/// and the integrity digest. Chunk payloads are fetched separately via
/// [`sealed_chunk`].
///
/// The scheduling policy is *not* part of the manifest — the two consumers
/// supply their own (exact replay rebuilds a
/// [`ReplayPolicy`](crate::policy::ReplayPolicy) from the schedule
/// artifact's decisions; exploration forks with a search policy).
pub fn encode_manifest(snap: &WorldSnapshot) -> SnapshotManifest {
    let w = &snap.world;
    let mut logs = Vec::new();
    if let Some(trace) = &w.trace {
        logs.push(log_manifest("trace", trace, LogTail::Trace));
    }
    logs.push(log_manifest("outputs", &w.outputs, LogTail::Outputs));
    logs.push(log_manifest(
        "inputs_seen",
        &w.inputs_seen,
        LogTail::InputsSeen,
    ));
    logs.push(log_manifest("crashes", &w.crashes, LogTail::Crashes));
    logs.push(log_manifest("decisions", &w.decisions, LogTail::Decisions));
    logs.push(log_manifest(
        "decision_enabled",
        &w.decision_enabled,
        LogTail::DecisionEnabled,
    ));
    logs.push(log_manifest(
        "decision_hashes",
        &w.decision_hashes,
        LogTail::DecisionHashes,
    ));
    for (i, log) in w.sys_log.iter().enumerate() {
        logs.push(log_manifest(&format!("syslog-{i}"), log, LogTail::SysLog));
    }
    SnapshotManifest {
        version: SNAPSHOT_FORMAT_VERSION,
        decision: w.decision_seq,
        step: w.steps,
        time: w.time,
        digest: w.digest(),
        live: LiveState::of(w),
        logs,
    }
}

/// A serializable view of the payload of one sealed chunk of the named
/// log (its elements, borrowed from the world), or `None` if the log or
/// index does not exist in this snapshot. Chunk payloads are immutable:
/// `(log, index)` encodes identically in every later snapshot of the same
/// run, which is what lets a store write each one exactly once.
pub fn sealed_chunk<'a>(
    snap: &'a WorldSnapshot,
    log: &str,
    index: u64,
) -> Option<Box<dyn Serialize + 'a>> {
    fn view<T: Serialize>(
        log: Option<&ChunkedLog<T>>,
        i: usize,
    ) -> Option<Box<dyn Serialize + '_>> {
        Some(Box::new(log?.sealed_chunk(i)?))
    }
    let w = &snap.world;
    let i = usize::try_from(index).ok()?;
    match log {
        "trace" => view(w.trace.as_ref(), i),
        "outputs" => view(Some(&w.outputs), i),
        "inputs_seen" => view(Some(&w.inputs_seen), i),
        "crashes" => view(Some(&w.crashes), i),
        "decisions" => view(Some(&w.decisions), i),
        "decision_enabled" => view(Some(&w.decision_enabled), i),
        "decision_hashes" => view(Some(&w.decision_hashes), i),
        _ => view(syslog_task(log).and_then(|t| w.sys_log.get(t)), i),
    }
}

/// Why a stored snapshot does not decode, and which artifact is at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The manifest: its text does not decode, or its version, its logs
    /// or the digest of the world it reassembles are wrong.
    Manifest(String),
    /// Sealed chunk `index` of log `log`: its text could not be fetched or
    /// does not decode.
    Chunk {
        /// The log's name.
        log: String,
        /// The chunk's index in the log.
        index: u64,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Manifest(detail) => f.write_str(detail),
            DecodeError::Chunk { log, index, detail } => {
                write!(f, "log `{log}` chunk {index}: {detail}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Reassembles the named log from its manifest entry (taken out of
/// `logs`) and its sealed chunks' text.
fn decode_log<T: LogElement>(
    logs: &mut Vec<LogManifest>,
    name: &str,
    fetch: &mut dyn FnMut(&str, u64) -> Result<String, String>,
) -> Result<ChunkedLog<T>, DecodeError> {
    let pos = logs
        .iter()
        .position(|l| l.name == name)
        .ok_or_else(|| DecodeError::Manifest(format!("manifest is missing log `{name}`")))?;
    let m = logs.remove(pos);
    let mut sealed = Vec::new();
    for index in 0..m.sealed {
        let chunk = fetch(name, index)
            .and_then(|text| serde_json::from_str::<Vec<T>>(&text).map_err(|e| e.to_string()));
        sealed.push(chunk.map_err(|detail| DecodeError::Chunk {
            log: name.to_owned(),
            index,
            detail,
        })?);
    }
    let tail = T::tail(m.tail).expect("a log's tail is decoded by its name");
    ChunkedLog::from_parts(m.chunk_len as usize, sealed, tail)
        .map_err(|e| DecodeError::Manifest(format!("log `{name}`: {e}")))
}

/// Reassembles a [`WorldSnapshot`] from a manifest's text, a chunk fetcher
/// (called once per `(log, index)` the manifest references, returning the
/// chunk's text), and the scheduling policy to attach.
///
/// Fails — never panics — on undecodable text, version mismatch, missing
/// or malformed logs, and on any digest mismatch between the manifest and
/// the reassembled world (truncated or garbled artifacts). The error names
/// the chunk at fault, or else the manifest.
pub fn decode_snapshot(
    manifest: &str,
    fetch: &mut dyn FnMut(&str, u64) -> Result<String, String>,
    policy: Box<dyn SchedulePolicy>,
) -> Result<WorldSnapshot, DecodeError> {
    let manifest: SnapshotManifest =
        serde_json::from_str(manifest).map_err(|e| DecodeError::Manifest(e.to_string()))?;
    if manifest.version != SNAPSHOT_FORMAT_VERSION {
        return Err(DecodeError::Manifest(format!(
            "unsupported snapshot format version {} (this build reads {})",
            manifest.version, SNAPSHOT_FORMAT_VERSION
        )));
    }
    let live = manifest.live.0;
    let mut logs = manifest.logs;
    let trace = if logs.iter().any(|l| l.name == "trace") {
        Some(decode_log(&mut logs, "trace", fetch)?)
    } else {
        None
    };
    let outputs = decode_log(&mut logs, "outputs", fetch)?;
    let inputs_seen = decode_log(&mut logs, "inputs_seen", fetch)?;
    let crashes = decode_log(&mut logs, "crashes", fetch)?;
    let decisions = decode_log(&mut logs, "decisions", fetch)?;
    let decision_enabled = decode_log(&mut logs, "decision_enabled", fetch)?;
    let decision_hashes = decode_log(&mut logs, "decision_hashes", fetch)?;
    let mut sys_log = Vec::with_capacity(live.tasks.len());
    for i in 0..live.tasks.len() {
        sys_log.push(decode_log(&mut logs, &format!("syslog-{i}"), fetch)?);
    }
    let world = WorldState {
        tasks: live.tasks,
        vars: live.vars,
        locks: live.locks,
        cvars: live.cvars,
        chans: live.chans,
        ports: live.ports,
        time: live.time,
        wall_extra: live.wall_extra,
        steps: live.steps,
        events: live.events,
        rng: live.rng,
        timers: live.timers,
        pending_inputs: live.pending_inputs,
        pending_crashes: live.pending_crashes,
        pending_partitions: live.pending_partitions,
        pending_heals: live.pending_heals,
        active_partitions: live.active_partitions,
        pending_restarts: live.pending_restarts,
        restarts_due: live.restarts_due,
        restarts_fired: live.restarts_fired,
        crash_counts: live.crash_counts,
        restart_counts: live.restart_counts,
        trace,
        outputs,
        inputs_seen,
        counters: live.counters,
        crashes,
        decisions,
        decision_enabled,
        cancelling: live.cancelling,
        stop: live.stop,
        decision_seq: live.decision_seq,
        net_sends: live.net_sends,
        sys_log,
        record_syslog: live.record_syslog,
        decision_hashes,
        hash_decisions: live.hash_decisions,
    };
    let digest = world.digest();
    if digest != manifest.digest {
        return Err(DecodeError::Manifest(format!(
            "snapshot digest mismatch: manifest says {:016x}, reassembled world is {digest:016x} \
             (corrupt or truncated artifact)",
            manifest.digest
        )));
    }
    Ok(WorldSnapshot { world, policy })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CheckpointPlan, EnvConfig, PartitionEvent, RestartEvent, RunConfig};
    use crate::driver::{resume_program, run_program};
    use crate::policy::RandomPolicy;
    use crate::program::{Builder, Program};

    fn manifest_text(snap: &WorldSnapshot) -> String {
        serde_json::to_string(&encode_manifest(snap)).expect("manifest encodes")
    }

    /// Decodes `manifest` text, fetching chunk text from `snap`.
    fn decode(snap: &WorldSnapshot, manifest: &str) -> Result<WorldSnapshot, DecodeError> {
        decode_snapshot(
            manifest,
            &mut |log, i| {
                let view =
                    sealed_chunk(snap, log, i).ok_or_else(|| format!("no chunk {log}/{i}"))?;
                serde_json::to_string(&view).map_err(|e| e.to_string())
            },
            snap.policy.clone_box(),
        )
    }

    /// Edits the manifest's JSON text as a document tree.
    fn edit_manifest(
        snap: &WorldSnapshot,
        edit: impl FnOnce(&mut Vec<(Content, Content)>),
    ) -> String {
        let mut doc: Content = serde_json::from_str(&manifest_text(snap)).expect("manifest parses");
        let Content::Map(fields) = &mut doc else {
            panic!("the manifest encodes as a map");
        };
        edit(fields);
        serde_json::to_string(&doc).expect("edited manifest encodes")
    }

    /// The value of `key` in a map's fields.
    fn field<'a>(fields: &'a mut [(Content, Content)], key: &str) -> &'a mut Content {
        &mut fields
            .iter_mut()
            .find(|(k, _)| k.as_str() == Some(key))
            .unwrap_or_else(|| panic!("no field `{key}`"))
            .1
    }

    /// Three adders race on a shared total, `increments` times each.
    struct Racer {
        increments: u32,
    }

    const RACER: Racer = Racer { increments: 8 };

    impl Program for Racer {
        fn name(&self) -> &'static str {
            "racer"
        }
        fn setup(&self, b: &mut Builder<'_>) {
            let total = b.var("total", 0i64);
            let out = b.out_port("result");
            let done = b.channel::<i64>("done", crate::config::ChanClass::Local);
            let increments = self.increments;
            for i in 0..3 {
                b.spawn(&format!("adder{i}"), "workers", move |mut ctx| async move {
                    for _ in 0..increments {
                        let v = ctx.read(&total, "adder::read").await?;
                        ctx.write(&total, v + 1, "adder::write").await?;
                    }
                    ctx.send(&done, 1, "adder::done").await
                });
            }
            b.spawn("reporter", "main", move |mut ctx| async move {
                for _ in 0..3 {
                    ctx.recv(&done, "reporter::recv").await?;
                }
                let v = ctx.read(&total, "reporter::read").await?;
                ctx.output(out, v, "reporter::out").await
            });
        }
    }

    fn checkpointed_cfg() -> RunConfig {
        RunConfig {
            seed: 11,
            checkpoints: Some(CheckpointPlan::new(4, 200)),
            hash_decisions: true,
            ..Default::default()
        }
    }

    #[test]
    fn encode_decode_roundtrip_resumes_identically() {
        let out = run_program(
            &RACER,
            checkpointed_cfg(),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        assert!(!out.snapshots.is_empty(), "run took no snapshots");
        let snap = &out.snapshots[out.snapshots.len() / 2];

        let decoded = decode(snap, &manifest_text(snap)).expect("roundtrip decodes");
        assert_eq!(decoded.at_decision(), snap.at_decision());
        assert_eq!(decoded.world.digest(), snap.world.digest());

        // The restored world resumes to the same behaviour as the original.
        let a = resume_program(&RACER, checkpointed_cfg(), snap, None, vec![]);
        let b = resume_program(&RACER, checkpointed_cfg(), &decoded, None, vec![]);
        assert_eq!(a.final_state_hash, b.final_state_hash);
        assert_eq!(a.io, b.io);
    }

    /// Like [`checkpointed_cfg`] but with a fault schedule arranged so every
    /// mid-run snapshot carries non-empty fault-plane state: an immediately
    /// active partition whose heal is far in the future, a second partition
    /// that stays pending forever, and a restart that fires before the first
    /// decision. The partitioned pair never exchanges `Network` messages in
    /// `Racer`, so outputs are unaffected.
    fn faulted_cfg() -> RunConfig {
        RunConfig {
            env: EnvConfig {
                partitions: vec![
                    PartitionEvent {
                        start: 0,
                        heal: 1 << 40,
                        a: "workers".to_owned(),
                        b: "main".to_owned(),
                    },
                    PartitionEvent {
                        start: 1 << 41,
                        heal: (1 << 41) + 1,
                        a: "east".to_owned(),
                        b: "west".to_owned(),
                    },
                ],
                restarts: vec![RestartEvent {
                    time: 0,
                    group: "workers".to_owned(),
                }],
                ..EnvConfig::default()
            },
            ..checkpointed_cfg()
        }
    }

    #[test]
    fn fault_state_roundtrips_and_resumes_identically() {
        let out = run_program(
            &RACER,
            faulted_cfg(),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        assert!(!out.snapshots.is_empty(), "run took no snapshots");
        let snap = &out.snapshots[out.snapshots.len() / 2];
        let w = &snap.world;
        assert!(
            !w.active_partitions.is_empty(),
            "partition should still be active at the snapshot"
        );
        assert!(!w.pending_heals.is_empty());
        assert!(!w.pending_partitions.is_empty());
        assert_eq!(w.restart_counts.get("workers"), Some(&1));
        assert!(!w.restarts_fired.is_empty());

        let decoded = decode(snap, &manifest_text(snap)).expect("fault-state roundtrip decodes");
        assert_eq!(decoded.world.active_partitions, w.active_partitions);
        assert_eq!(decoded.world.restarts_fired, w.restarts_fired);
        assert_eq!(decoded.world.digest(), w.digest());

        let a = resume_program(&RACER, faulted_cfg(), snap, None, vec![]);
        let b = resume_program(&RACER, faulted_cfg(), &decoded, None, vec![]);
        assert_eq!(a.final_state_hash, b.final_state_hash);
        assert_eq!(a.io, b.io);
        assert_eq!(a.io.group_restarts.get("workers"), Some(&1));
    }

    #[test]
    fn truncated_fault_state_is_rejected_naming_the_live_state() {
        let out = run_program(
            &RACER,
            faulted_cfg(),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        let snap = &out.snapshots[out.snapshots.len() / 2];
        // Drop the fault-plane fields from the live-state map — the shape a
        // manifest truncated at the version-1 field boundary would have.
        let text = edit_manifest(snap, |fields| {
            let Content::Map(live) = field(fields, "live") else {
                panic!("live state encodes as a map");
            };
            live.retain(|(k, _)| {
                !matches!(
                    k.as_str(),
                    Some("pending_partitions" | "active_partitions" | "restart_counts")
                )
            });
        });
        let err = decode(snap, &text)
            .expect_err("truncated live state must fail decode")
            .to_string();
        assert!(
            err.contains("live state") && err.contains("pending_partitions"),
            "{err}"
        );
    }

    #[test]
    fn garbled_crash_log_tail_is_rejected_naming_the_log() {
        let out = run_program(
            &RACER,
            faulted_cfg(),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        let snap = &out.snapshots[out.snapshots.len() / 2];
        let text = edit_manifest(snap, |fields| {
            let Content::Seq(logs) = field(fields, "logs") else {
                panic!("logs encode as a sequence");
            };
            let crashes = logs
                .iter_mut()
                .find_map(|log| match log {
                    Content::Map(entry) => {
                        let name = entry.iter().find(|(k, _)| k.as_str() == Some("name"));
                        (name.and_then(|(_, v)| v.as_str()) == Some("crashes")).then_some(entry)
                    }
                    _ => None,
                })
                .expect("manifest carries the crash log");
            *field(crashes, "tail") = Content::Null;
        });
        let err = decode(snap, &text).expect_err("garbled crash-log tail must fail decode");
        assert!(matches!(err, DecodeError::Manifest(_)), "{err:?}");
        assert!(err.to_string().contains("log `crashes` tail"), "{err}");
    }

    /// The writer always emits a log's `name` before its `tail`, whose
    /// element type the name decides; a tail first is corrupt.
    #[test]
    fn log_tail_before_its_name_is_rejected() {
        let out = run_program(
            &RACER,
            checkpointed_cfg(),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        let snap = out.snapshots.first().expect("run took snapshots");
        let text = edit_manifest(snap, |fields| {
            let Content::Seq(logs) = field(fields, "logs") else {
                panic!("logs encode as a sequence");
            };
            let Content::Map(entry) = &mut logs[0] else {
                panic!("a log entry encodes as a map");
            };
            entry.reverse();
        });
        let err = decode(snap, &text).expect_err("tail before name must fail decode");
        assert_eq!(
            err,
            DecodeError::Manifest("log entry has `tail` before `name`".to_owned())
        );
    }

    /// A chunk whose text parses but does not decode is blamed on that
    /// chunk, not on the manifest.
    #[test]
    fn undecodable_chunk_is_blamed_on_the_chunk() {
        // Long enough for the decision log to seal a chunk.
        let out = run_program(
            &Racer { increments: 200 },
            RunConfig {
                checkpoints: Some(CheckpointPlan::new(64, u64::MAX)),
                ..checkpointed_cfg()
            },
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        let snap = out.snapshots.last().expect("run took snapshots");
        let manifest = encode_manifest(snap);
        let log = manifest
            .logs
            .iter()
            .find(|l| l.sealed > 0)
            .expect("a log sealed a chunk")
            .name
            .clone();
        let err = decode_snapshot(
            &manifest_text(snap),
            &mut |name, i| {
                if name == log {
                    return Ok(r#"[{"bogus":1}]"#.to_owned());
                }
                let view =
                    sealed_chunk(snap, name, i).ok_or_else(|| format!("no chunk {name}/{i}"))?;
                serde_json::to_string(&view).map_err(|e| e.to_string())
            },
            snap.policy.clone_box(),
        )
        .expect_err("a wrong-shape chunk must fail decode");
        let DecodeError::Chunk { log: at, index, .. } = &err else {
            panic!("blamed on the manifest: {err}");
        };
        assert_eq!((at.as_str(), *index), (log.as_str(), 0));
    }

    #[test]
    fn garbled_manifest_digest_is_rejected() {
        let out = run_program(
            &RACER,
            checkpointed_cfg(),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        let snap = out.snapshots.first().expect("run took snapshots");
        let mut manifest = encode_manifest(snap);
        manifest.digest ^= 1;
        let text = serde_json::to_string(&manifest).expect("manifest encodes");
        let err = decode(snap, &text).expect_err("digest mismatch must fail decode");
        assert!(matches!(err, DecodeError::Manifest(_)), "{err:?}");
        assert!(err.to_string().contains("digest mismatch"), "{err}");
    }
}
