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
//! Encoding is incremental. A [`SnapshotWriter`] encodes successive
//! snapshots of one run, each manifest's header in full but the rest per
//! changed element. Of the live state's tasks, variables, channels and
//! ports it re-encodes only the elements that differ from the ones it
//! encoded last; the other live fields are small and encoded whole. Of
//! each log's tail it encodes only the elements appended since the
//! previous snapshot, added to the tail text it cached then. When one chunk
//! sealed in between, the cached text becomes the start of that chunk's
//! text. Debug builds check every manifest and every reused chunk text
//! against a fresh writer's. The writer is the only encoder: nothing else
//! writes a manifest or a chunk.
//!
//! Decoding does not depend on the writer. It reads a typed manifest: its
//! live state is a mirror of the world's non-log fields, and each log's
//! tail is that log's element vector, decoded according to the log's
//! `name` (which the writer always emits before the tail). Chunk text
//! decodes straight into the log's element type. Decoding builds no
//! intermediate document tree.
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
use serde::{Deserialize, Deserializer, Kind, Serialize};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::fmt::Write as _;

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

/// A decoded snapshot manifest: one [`WorldSnapshot`] minus the sealed
/// chunk payloads (see the [module docs](self) for the delta layout).
#[derive(Deserialize)]
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
/// instead of accumulating them in memory. The sink decides whether to
/// keep the offer (its placement and eviction policy is its own business —
/// `dd-trace`'s store maintains a bounded distance-to-nearest-checkpoint
/// guarantee) and returns the id the kept snapshot is retrievable under.
pub trait SnapshotSink: Send {
    /// Offers one snapshot. Returns `Ok(Some(id))` if the sink kept it,
    /// `Ok(None)` if it declined, and `Err` on a write failure (the run
    /// continues; errors are surfaced in
    /// [`RunOutput::spill_errors`](crate::driver::RunOutput)).
    ///
    /// `snap` is the run's own world and policy, lent for the call rather
    /// than cloned; the run takes them back when `offer` returns. A sink
    /// that keeps the snapshot in memory must clone it.
    fn offer(&mut self, snap: &WorldSnapshot) -> Result<Option<u64>, String>;
}

/// Declares the live (non-log) fields of a [`WorldState`] once, in
/// manifest order: [`LiveFields`], the owned mirror decode reads them into,
/// and [`LiveCache`], which encodes them from the world as the map
/// [`LiveFields`] decodes. A field written `field: Vec<E> => E` is encoded
/// element by element through an [`ElementCache`]; every other field is
/// encoded whole at every snapshot.
macro_rules! live_fields {
    ($($field:ident: $ty:ty $(=> $elem:ty)?,)*) => {
        /// The live (non-log) half of a [`WorldState`], in a decodable
        /// mirror.
        #[derive(Deserialize)]
        struct LiveFields {
            $($field: $ty,)*
        }

        /// A [`SnapshotWriter`]'s encoder of the live state: one
        /// [`ElementCache`] per vector encoded element by element.
        #[derive(Debug, Default)]
        struct LiveCache {
            $($($field: ElementCache<$elem>,)?)*
        }

        impl LiveCache {
            /// Appends the JSON map of `w`'s live state to `out`.
            fn encode(&mut self, w: &WorldState, out: &mut String) {
                out.push('{');
                $(
                    out.push_str(concat!("\"", stringify!($field), "\":"));
                    encode_live_field!(self, w, out, $field $(, $elem)?);
                    out.push(',');
                )*
                // The closing brace replaces the last field's comma.
                out.pop();
                out.push('}');
            }
        }
    };
}

/// One live field's JSON, appended by a [`LiveCache`]: through its element
/// cache when the field has one, else encoded whole.
macro_rules! encode_live_field {
    ($cache:ident, $w:ident, $out:ident, $field:ident) => {
        push_json($out, &$w.$field)
    };
    ($cache:ident, $w:ident, $out:ident, $field:ident, $elem:ty) => {
        $cache.$field.encode(&$w.$field, $out)
    };
}

live_fields! {
    tasks: Vec<TaskRec> => TaskRec,
    vars: Vec<VarRec> => VarRec,
    locks: Vec<LockRec>,
    cvars: Vec<CvarRec>,
    chans: Vec<ChanRec> => ChanRec,
    ports: Vec<PortRec> => PortRec,
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

/// The live (non-log) machine state of a [`SnapshotManifest`]; decode
/// errors name the live state.
pub struct LiveState(LiveFields);

impl Deserialize for LiveState {
    fn deserialize(de: &mut dyn Deserializer) -> Result<Self, serde::Error> {
        LiveFields::deserialize(de)
            .map(LiveState)
            .map_err(|e| serde::Error::custom(format!("live state: {e}")))
    }
}

/// A log's mutable tail: the element vector of the log it belongs to.
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
    /// checked to be well-formed JSON and dropped. The writer never
    /// writes one.
    Unknown,
}

impl LogTail {
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

/// Appends `value`'s JSON to `out`. JSON rejects only a map key that is
/// not a string, which only a `Content` map can carry, and world state
/// holds none.
fn push_json(out: &mut String, value: &(impl Serialize + ?Sized)) {
    serde_json::append_to_string(out, value).expect("world state encodes as JSON");
}

/// A history log as the writer sees it, whatever its element type.
trait LogText {
    /// Elements per sealed chunk, sealed chunks, and elements in the tail.
    fn shape(&self) -> (usize, usize, usize);

    /// Appends the JSON of elements `from..` of storage run `run`: sealed
    /// chunk `run`, or the tail when `run` is the sealed-chunk count. Each
    /// element but the run's first is preceded by a comma.
    fn push_elements(&self, run: usize, from: usize, out: &mut String);
}

impl<T: Serialize> LogText for ChunkedLog<T> {
    fn shape(&self) -> (usize, usize, usize) {
        (self.chunk_len(), self.sealed_chunk_count(), self.tail_len())
    }

    fn push_elements(&self, run: usize, from: usize, out: &mut String) {
        let elements = self.sealed_chunk(run).unwrap_or(self.tail());
        for (i, element) in elements.iter().enumerate().skip(from) {
            if i > 0 {
                out.push(',');
            }
            push_json(out, element);
        }
    }
}

/// The world's history logs in manifest order, each with its name: the
/// seven fixed logs, the trace first, then one syscall log per task.
fn history_logs<'a>(
    w: &'a WorldState,
) -> impl Iterator<Item = (Cow<'static, str>, &'a dyn LogText)> + 'a {
    let fixed: [(&'static str, &'a dyn LogText); 7] = [
        ("trace", &w.trace),
        ("outputs", &w.outputs),
        ("inputs_seen", &w.inputs_seen),
        ("crashes", &w.crashes),
        ("decisions", &w.decisions),
        ("decision_enabled", &w.decision_enabled),
        ("decision_hashes", &w.decision_hashes),
    ];
    let syslogs = w.sys_log.iter().enumerate();
    fixed
        .into_iter()
        .map(|(name, log)| (Cow::Borrowed(name), log))
        .chain(syslogs.map(|(i, log)| (Cow::Owned(format!("syslog-{i}")), log as &dyn LogText)))
}

/// Sealed chunk `index` of `log`, encoded from its elements.
fn chunk_text(log: &dyn LogText, index: usize) -> String {
    let mut text = String::from("[");
    log.push_elements(index, 0, &mut text);
    text.push(']');
    text
}

/// What a [`SnapshotWriter`] encoded of one live-state vector last time:
/// each element, with its JSON.
#[derive(Debug)]
struct ElementCache<T> {
    elements: Vec<(T, String)>,
}

impl<T> Default for ElementCache<T> {
    fn default() -> Self {
        ElementCache {
            elements: Vec::new(),
        }
    }
}

impl<T: Clone + PartialEq + Serialize> ElementCache<T> {
    /// Appends the JSON array of `elements` to `out`, re-encoding only the
    /// elements that differ from the one cached at the same position.
    fn encode(&mut self, elements: &[T], out: &mut String) {
        self.elements.truncate(elements.len());
        out.push('[');
        for (i, element) in elements.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match self.elements.get_mut(i) {
                Some((cached, _)) if cached == element => {}
                Some((cached, text)) => {
                    cached.clone_from(element);
                    text.clear();
                    push_json(text, element);
                }
                None => {
                    let mut text = String::new();
                    push_json(&mut text, element);
                    self.elements.push((element.clone(), text));
                }
            }
            out.push_str(&self.elements[i].1);
        }
        out.push(']');
    }
}

/// Encodes successive snapshots of one run, each in proportion to what
/// changed since the previous one (see the [module docs](self)).
///
/// The writer keeps each task, variable, channel and port of the live
/// state it encoded last, with that element's JSON, and re-encodes only the
/// elements that compare unequal to the one cached at the same position;
/// the live state's other fields are encoded whole.
///
/// For each history log the writer caches the JSON of the tail it encoded
/// last, with the sealed-chunk count and tail length that text covers. A
/// snapshot then encodes only the tail elements past the cached length.
/// When exactly one chunk sealed since, that chunk's text is the cached
/// text plus the chunk's remaining elements, and the new tail's cache
/// starts empty. Any other shape re-encodes the log from its elements: a
/// new writer's first snapshot (its cache is empty), two or more chunks
/// sealed since, or a tail shorter than the cache.
///
/// The caches are kept by position in the manifest's log list, so
/// successive snapshots must come from one run, in increasing decision
/// order: a run's logs keep their positions, and syscall logs are only
/// ever added.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    /// The live state's element caches.
    live: LiveCache,
    /// One cache per history log of the snapshot written last, in
    /// manifest order.
    logs: Vec<TailCache>,
    /// The manifest written last.
    manifest: String,
}

/// What a [`SnapshotWriter`] encoded of one history log last time.
#[derive(Debug, Default)]
struct TailCache {
    /// The log's name.
    name: String,
    /// Sealed chunks the log had.
    sealed: usize,
    /// Tail elements `text` encodes.
    len: usize,
    /// Those elements' JSON, comma-joined.
    text: String,
    /// The text of chunk `sealed - 1` when it sealed, since the snapshot
    /// before, out of the tail cached then.
    chunk: Option<String>,
}

impl TailCache {
    /// Brings the cache up to `log`'s current tail.
    fn update(&mut self, log: &dyn LogText) {
        let (_, sealed, tail_len) = log.shape();
        self.chunk = None;
        if sealed == self.sealed + 1 {
            let mut chunk = std::mem::take(&mut self.text);
            chunk.insert(0, '[');
            log.push_elements(self.sealed, self.len, &mut chunk);
            chunk.push(']');
            self.chunk = Some(chunk);
            self.len = 0;
        } else if sealed != self.sealed || tail_len < self.len {
            self.text.clear();
            self.len = 0;
        }
        log.push_elements(sealed, self.len, &mut self.text);
        self.sealed = sealed;
        self.len = tail_len;
    }
}

impl SnapshotWriter {
    /// A writer with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes `snap`'s manifest: version, decision, step, time, world
    /// digest and live state, then each history log's name, geometry and
    /// inline tail. Its text is [`manifest`](Self::manifest); chunk
    /// payloads are fetched with [`chunk`](Self::chunk).
    ///
    /// The scheduling policy is *not* part of the manifest — the two
    /// consumers supply their own (exact replay rebuilds a
    /// [`ReplayPolicy`](crate::policy::ReplayPolicy) from the schedule
    /// artifact's decisions; exploration forks with a search policy).
    pub fn write(&mut self, snap: &WorldSnapshot) {
        let w = &snap.world;
        self.encode(w);
        if cfg!(debug_assertions) {
            let mut fresh = SnapshotWriter::new();
            fresh.encode(w);
            debug_assert_eq!(
                self.manifest, fresh.manifest,
                "manifest at decision {} differs from a fresh writer's",
                w.decision_seq
            );
            for (cache, (name, log)) in self.logs.iter().zip(history_logs(w)) {
                if let Some(text) = &cache.chunk {
                    debug_assert_eq!(
                        *text,
                        chunk_text(log, cache.sealed - 1),
                        "reused text of chunk {} of log `{name}` differs from its elements'",
                        cache.sealed - 1
                    );
                }
            }
        }
    }

    /// The text of the manifest written last.
    pub fn manifest(&self) -> &str {
        &self.manifest
    }

    fn encode(&mut self, w: &WorldState) {
        let out = &mut self.manifest;
        out.clear();
        write!(
            out,
            "{{\"version\":{SNAPSHOT_FORMAT_VERSION},\"decision\":{},\"step\":{},\"time\":{},\
             \"digest\":{},\"live\":",
            w.decision_seq,
            w.steps,
            w.time,
            w.digest()
        )
        .expect("writing to a String cannot fail");
        self.live.encode(w, out);
        out.push_str(",\"logs\":[");
        let mut count = 0;
        for (pos, (name, log)) in history_logs(w).enumerate() {
            if pos == self.logs.len() {
                self.logs.push(TailCache {
                    name: name.into_owned(),
                    ..TailCache::default()
                });
            }
            let cache = &mut self.logs[pos];
            cache.update(log);
            if pos > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json(out, &cache.name);
            write!(
                out,
                ",\"chunk_len\":{},\"sealed\":{},\"tail\":[{}]}}",
                log.shape().0,
                cache.sealed,
                cache.text
            )
            .expect("writing to a String cannot fail");
            count = pos + 1;
        }
        self.logs.truncate(count);
        out.push_str("]}");
    }

    /// The name and sealed-chunk count of each history log of the snapshot
    /// written last, in manifest order.
    pub fn logs(&self) -> impl Iterator<Item = (&str, u64)> {
        self.logs.iter().map(|c| (c.name.as_str(), c.sealed as u64))
    }

    /// The text of sealed chunk `index` of the log called `log` in `snap`,
    /// which must be the snapshot written last; `None` if there is no such
    /// chunk. A chunk that sealed out of the cached tail is the text
    /// [`write`](Self::write) finished; any other is encoded from its
    /// elements. Chunk payloads are immutable: `(log, index)` encodes
    /// identically in every later snapshot of the same run, which is what
    /// lets a store write each one exactly once.
    pub fn chunk(&self, snap: &WorldSnapshot, log: &str, index: u64) -> Option<Cow<'_, str>> {
        let cache = self.logs.iter().find(|c| c.name == log)?;
        let index = usize::try_from(index).ok().filter(|&i| i < cache.sealed)?;
        if let Some(text) = cache.chunk.as_deref().filter(|_| index + 1 == cache.sealed) {
            return Some(Cow::Borrowed(text));
        }
        let (_, elements) = history_logs(&snap.world).find(|(name, _)| name == log)?;
        Some(Cow::Owned(chunk_text(elements, index)))
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
    let trace = decode_log(&mut logs, "trace", fetch)?;
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
    use serde::Content;

    fn manifest_text(snap: &WorldSnapshot) -> String {
        let mut writer = SnapshotWriter::new();
        writer.write(snap);
        writer.manifest().to_owned()
    }

    /// Chunk `i` of `log` in `snap`, as a fresh writer encodes it.
    fn chunk_of(snap: &WorldSnapshot, log: &str, i: u64) -> Result<String, String> {
        let mut writer = SnapshotWriter::new();
        writer.write(snap);
        let text = writer.chunk(snap, log, i);
        text.map(Cow::into_owned)
            .ok_or_else(|| format!("no chunk {log}/{i}"))
    }

    /// Decodes `manifest` text, fetching chunk text from `snap`.
    fn decode(snap: &WorldSnapshot, manifest: &str) -> Result<WorldSnapshot, DecodeError> {
        decode_snapshot(
            manifest,
            &mut |log, i| chunk_of(snap, log, i),
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

    /// Every run writes its trace, so a manifest without the `trace` log
    /// is damaged, not a run that skipped it: decode names the missing log.
    #[test]
    fn manifest_without_its_trace_log_is_rejected() {
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
            logs.retain(|entry| {
                let Content::Map(entry) = entry else {
                    panic!("a log entry encodes as a map");
                };
                entry[0].1.as_str() != Some("trace")
            });
        });
        let err = decode(snap, &text).expect_err("a trace-less manifest must fail decode");
        assert_eq!(
            err,
            DecodeError::Manifest("manifest is missing log `trace`".to_owned())
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
        let mut writer = SnapshotWriter::new();
        writer.write(snap);
        let (log, _) = writer
            .logs()
            .find(|&(_, sealed)| sealed > 0)
            .expect("a log sealed a chunk");
        let err = decode_snapshot(
            writer.manifest(),
            &mut |name, i| {
                if name == log {
                    return Ok(r#"[{"bogus":1}]"#.to_owned());
                }
                chunk_of(snap, name, i)
            },
            snap.policy.clone_box(),
        )
        .expect_err("a wrong-shape chunk must fail decode");
        let DecodeError::Chunk { log: at, index, .. } = &err else {
            panic!("blamed on the manifest: {err}");
        };
        assert_eq!((at.as_str(), *index), (log, 0));
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
        let text = edit_manifest(snap, |fields| {
            let Content::U64(digest) = field(fields, "digest") else {
                panic!("the digest encodes as an unsigned integer");
            };
            *digest ^= 1;
        });
        let err = decode(snap, &text).expect_err("digest mismatch must fail decode");
        assert!(matches!(err, DecodeError::Manifest(_)), "{err:?}");
        assert!(err.to_string().contains("digest mismatch"), "{err}");
    }
}
