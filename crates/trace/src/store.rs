//! The on-disk snapshot store: persistent, delta-encoded world snapshots
//! with a bounded replay-distance guarantee.
//!
//! A store is a directory next to (and named after) its trace artifact:
//!
//! ```text
//! trace.jsonl.snapshots/
//! ├── store.json            index: version, retention policy, snapshot table
//! ├── snaps/<id>.json       one SnapshotManifest per stored snapshot
//! └── chunks/<log>-<i>.json sealed ChunkedLog chunks, content-addressed
//!                           by (log name, chunk index), written once
//! ```
//!
//! Sealed chunks of a run's history logs are immutable, so consecutive
//! snapshots of one run share their entire common prefix: saving a new
//! snapshot writes its manifest plus only the chunks sealed since the
//! previous save. The `bytes` column of the index records exactly those
//! fresh bytes — the marginal cost of each snapshot, which is what
//! `BENCH_snapshot_store.json` plots against full snapshot sizes.
//!
//! An offer costs in proportion to what changed since the previous one.
//! The store's [`SnapshotWriter`] re-encodes only the tasks, variables,
//! channels and ports that changed since the previous offer and only the
//! log-tail elements appended since, and a chunk that sealed in between
//! reuses the tail text already encoded.
//! The index keeps each row's encoded text, so an offer encodes one new
//! row and `store.json` is the index frame around the rows' text.
//!
//! An offer that evicts a snapshot writes its manifest into the evicted
//! manifest's file, renamed to the new id, so a store at capacity creates
//! and unlinks no manifest file per offer; only chunks get new files.
//! Creating files slows down as deletions pile up: on a 2-vCPU VM whose
//! root is ext4 mounted with `discard` and no journal, a loop that created
//! a 60 KB file and unlinked the one eight offers older cost 47 µs per
//! offer in the first of eight back-to-back 30 000-offer runs and 134 µs in
//! the last, while renaming and overwriting in place cost 25–35 µs per
//! offer in runs between them.
//!
//! The index is also the chunk ledger: chunk `i` of log `L` is on disk
//! exactly when `i` is below the largest `sealed` count any indexed
//! snapshot records for `L` (eviction deletes the evicted snapshot's
//! chunks at or above it), so a save decides which chunks to write without
//! asking the filesystem. `store.json` is rewritten in place after every
//! offer, not atomically: an index torn by a crash during that write makes
//! [`SnapshotStore::open`] fail naming `store.json`.
//!
//! # The availability bound
//!
//! The store's [`RetentionPolicy`] maintains the invariant that **every
//! decision index in the checkpointed region is within `bound` decisions of
//! a restorable starting point at or before it** (decision 0 — replay from
//! scratch — is an implicit starting point). Capacity pressure
//! (`max_snapshots`) evicts the snapshot whose removal opens the *smallest*
//! merged gap, and refuses to evict at all when every candidate would open
//! a gap wider than `bound`: the bound beats the capacity cap. The
//! invariant is property-tested in this module under random run lengths,
//! checkpoint cadences and eviction pressure.
//!
//! One store holds snapshots of **one** recorded run, offered in
//! increasing decision order. Chunk addresses are only unique within a
//! run's history, so [`SnapshotStore::create`] empties whatever an earlier
//! recording left in the directory. The ledger and the writer's cache both
//! rely on the order: [`SnapshotSink::offer`] declines any snapshot at or
//! before the newest stored decision.
//!
//! # Which file an error names
//!
//! [`SnapshotStore::load`] reads the manifest's and the chunks' text and
//! hands it to [`dd_sim::decode_snapshot`], whose [`DecodeError`] says
//! which artifact is at fault. A chunk that cannot be read, does not parse,
//! or parses but does not decode into its log's elements is named itself;
//! every other fault (the manifest's own text, its version, a missing log,
//! the digest check) names the manifest.

use crate::persist::{load_json, PersistError};
use dd_sim::{
    decode_snapshot, DecodeError, SchedulePolicy, SnapshotSink, SnapshotWriter, WorldSnapshot,
};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Version tag of the `store.json` index format.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Placement/eviction policy of a [`SnapshotStore`]: how many snapshots it
/// may hold and how far apart restorable points are allowed to drift.
///
/// The policy itself is pure (no I/O): [`RetentionPolicy::evictions`] maps
/// a sorted set of stored decision indices to the indices to drop, which is
/// what the availability proptest exercises directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetentionPolicy {
    /// Maximum allowed distance (in decisions) from any decision in the
    /// checkpointed region back to the nearest restorable point at or
    /// before it. Decision 0 is an implicit restorable point.
    pub bound: u64,
    /// Soft capacity: eviction starts above this count, but never at the
    /// price of violating `bound`.
    pub max_snapshots: u64,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        RetentionPolicy {
            bound: 64,
            max_snapshots: 8,
        }
    }
}

impl RetentionPolicy {
    /// A policy with both knobs clamped to at least 1.
    pub fn new(bound: u64, max_snapshots: u64) -> Self {
        RetentionPolicy {
            bound: bound.max(1),
            max_snapshots: max_snapshots.max(1),
        }
    }

    /// The position in `kept` (sorted stored decisions) whose eviction
    /// opens the smallest merged gap, provided that gap stays within
    /// `bound`. The newest snapshot is never a victim — it is the frontier
    /// the next offers extend from. Returns `None` when no snapshot can be
    /// evicted without breaking the availability bound.
    fn victim(&self, kept: &[u64]) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for i in 0..kept.len().saturating_sub(1) {
            let prev = if i == 0 { 0 } else { kept[i - 1] };
            let merged = kept[i + 1] - prev;
            if merged <= self.bound && best.is_none_or(|(g, _)| merged < g) {
                best = Some((merged, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Shrinks `kept` (sorted stored decisions) towards `max_snapshots`,
    /// returning the evicted decisions. Stops early — possibly above
    /// capacity — when further eviction would break the availability
    /// bound.
    pub fn evictions(&self, kept: &mut Vec<u64>) -> Vec<u64> {
        let mut out = Vec::new();
        while kept.len() as u64 > self.max_snapshots {
            match self.victim(kept) {
                Some(i) => out.push(kept.remove(i)),
                None => break,
            }
        }
        out
    }

    /// The worst-case replay distance over decisions `0..=run_len` given
    /// stored points `kept` (sorted): the largest gap between consecutive
    /// restorable points, counting the implicit point at 0 and the distance
    /// from the last point to the end of the run.
    pub fn max_gap(kept: &[u64], run_len: u64) -> u64 {
        let mut prev = 0u64;
        let mut worst = 0u64;
        for &k in kept {
            worst = worst.max(k.saturating_sub(prev));
            prev = k;
        }
        worst.max(run_len.saturating_sub(prev))
    }
}

/// One history log referenced by a stored snapshot (how many sealed chunks
/// of it the snapshot needs — the chunk GC input).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogRef {
    /// Canonical log name (`"decisions"`, `"syslog-3"`, …).
    pub name: String,
    /// Number of sealed chunks referenced (`0..sealed`).
    pub sealed: u64,
}

/// Index row of one stored snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapEntry {
    /// Store-assigned id (monotonic; what [`crate::EpochMark::snapshot`]
    /// references).
    pub id: u64,
    /// Decision index the snapshot restores to.
    pub decision: u64,
    /// Kernel steps at the snapshot point.
    pub step: u64,
    /// Execution-clock value at the snapshot point.
    pub time: u64,
    /// Bytes newly written when this snapshot was saved (its manifest plus
    /// the chunks no earlier snapshot had already persisted) — the
    /// snapshot's marginal on-disk cost.
    pub bytes: u64,
    /// The previously stored snapshot this one delta-encodes against
    /// (`None` for the first snapshot of the run).
    pub parent: Option<u64>,
    /// Chunk references, for garbage collection on eviction.
    pub logs: Vec<LogRef>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct StoreIndex {
    version: u32,
    policy: RetentionPolicy,
    next_id: u64,
    snaps: Vec<SnapEntry>,
}

/// A [`SnapshotStore`] failure. Every variant names the file involved, so
/// the CLI can report *which* artifact is corrupt before exiting.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error on the named file or directory.
    Io {
        /// The path the operation failed on.
        file: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The named file exists but does not decode to a valid artifact
    /// (truncated, garbled, wrong version, or failing the snapshot digest
    /// check), or is a chunk a manifest references that cannot be read.
    Corrupt {
        /// The offending file.
        file: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io { file, source } => {
                write!(f, "snapshot store: {}: {source}", file.display())
            }
            StoreError::Corrupt { file, detail } => {
                write!(
                    f,
                    "snapshot store: corrupt artifact {}: {detail}",
                    file.display()
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

fn persist_err(file: &Path, e: PersistError) -> StoreError {
    match e {
        PersistError::Io(source) => StoreError::Io {
            file: file.to_owned(),
            source,
        },
        PersistError::Codec(e) => StoreError::Corrupt {
            file: file.to_owned(),
            detail: e.to_string(),
        },
    }
}

fn io_err(file: &Path) -> impl Fn(std::io::Error) -> StoreError + '_ {
    move |source| StoreError::Io {
        file: file.to_owned(),
        source,
    }
}

fn to_json<T: Serialize>(value: &T, file: &Path) -> Result<String, StoreError> {
    serde_json::to_string(value).map_err(|e| persist_err(file, PersistError::Codec(e)))
}

/// Writes `text` over the file at `path` (created if missing), then cuts
/// the file to `text`'s length. Returns that length in bytes.
fn write_in_place(text: &str, path: &Path) -> Result<u64, StoreError> {
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(io_err(path))?;
    file.write_all(text.as_bytes()).map_err(io_err(path))?;
    file.set_len(text.len() as u64).map_err(io_err(path))?;
    Ok(text.len() as u64)
}

/// A directory of persistent, delta-encoded snapshots of one recorded run
/// (see the [module docs](self) for layout and guarantees).
///
/// The store implements [`dd_sim::SnapshotSink`], so it plugs straight into
/// [`dd_sim::RunConfig::snapshot_sink`](dd_sim::RunConfig): the kernel
/// offers every planned checkpoint, the store persists it and applies its
/// retention policy, and the run's `RunOutput::spilled` marks (and from
/// them the v3 [`ScheduleLog`](crate::ScheduleLog) epochs) carry the store
/// ids back to replay tooling.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    index: StoreIndex,
    /// The JSON text of each row of `index.snaps`, encoded once.
    rows: Vec<String>,
    /// Encodes this store's offers; each store starts a fresh one.
    writer: SnapshotWriter,
}

impl SnapshotStore {
    /// Creates an empty store at `dir` (the directory and its
    /// substructure are created; an existing index is overwritten and
    /// existing chunks and manifests are deleted — a store describes
    /// exactly one recording, and a chunk left by another would otherwise
    /// stand in for this run's chunk at the same address).
    pub fn create(dir: impl Into<PathBuf>, policy: RetentionPolicy) -> Result<Self, StoreError> {
        let dir = dir.into();
        for sub in ["chunks", "snaps"] {
            let p = dir.join(sub);
            if let Err(e) = std::fs::remove_dir_all(&p) {
                if e.kind() != std::io::ErrorKind::NotFound {
                    return Err(io_err(&p)(e));
                }
            }
            std::fs::create_dir_all(&p).map_err(io_err(&p))?;
        }
        let store = SnapshotStore {
            dir,
            index: StoreIndex {
                version: STORE_FORMAT_VERSION,
                policy,
                next_id: 0,
                snaps: Vec::new(),
            },
            rows: Vec::new(),
            writer: SnapshotWriter::new(),
        };
        store.persist_index()?;
        Ok(store)
    }

    /// Opens an existing store, validating the index format. Its writer
    /// starts empty, so the first save encodes the whole snapshot.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        let ipath = dir.join("store.json");
        let index: StoreIndex = load_json(&ipath).map_err(|e| persist_err(&ipath, e))?;
        if index.version != STORE_FORMAT_VERSION {
            return Err(StoreError::Corrupt {
                file: ipath,
                detail: format!(
                    "unsupported store version {} (this build reads {STORE_FORMAT_VERSION})",
                    index.version
                ),
            });
        }
        let rows = index
            .snaps
            .iter()
            .map(|row| to_json(row, &ipath))
            .collect::<Result<_, _>>()?;
        Ok(SnapshotStore {
            dir,
            index,
            rows,
            writer: SnapshotWriter::new(),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store's retention policy.
    pub fn policy(&self) -> RetentionPolicy {
        self.index.policy
    }

    /// Stored snapshots, in increasing decision order.
    pub fn list(&self) -> &[SnapEntry] {
        &self.index.snaps
    }

    /// The deepest stored snapshot at or before `decision`, if any.
    pub fn nearest_at_or_before(&self, decision: u64) -> Option<&SnapEntry> {
        self.index
            .snaps
            .iter()
            .take_while(|s| s.decision <= decision)
            .last()
    }

    /// The worst-case replay distance anywhere in `0..=run_len` given the
    /// currently stored snapshots (see [`RetentionPolicy::max_gap`]).
    pub fn max_gap(&self, run_len: u64) -> u64 {
        let kept: Vec<u64> = self.index.snaps.iter().map(|s| s.decision).collect();
        RetentionPolicy::max_gap(&kept, run_len)
    }

    /// Total bytes currently on disk (index, manifests and live chunks).
    pub fn disk_bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| {
                    let p = e.path();
                    if p.is_dir() {
                        walk(&p)
                    } else {
                        e.metadata().map(|m| m.len()).unwrap_or(0)
                    }
                })
                .sum()
        }
        walk(&self.dir)
    }

    /// Bytes the stored snapshots would occupy *without* delta encoding:
    /// every snapshot counted as a standalone artifact (its manifest plus
    /// every history chunk it references), so chunks shared between
    /// snapshots are counted once per referencing snapshot. Comparing this
    /// against [`disk_bytes`](Self::disk_bytes) measures what
    /// content-addressed chunk sharing saves (the ABL-12 sweep).
    pub fn standalone_bytes(&self) -> u64 {
        let file_len = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        self.index
            .snaps
            .iter()
            .map(|e| {
                file_len(&self.manifest_path(e.id))
                    + e.logs
                        .iter()
                        .flat_map(|log| {
                            (0..log.sealed).map(|i| file_len(&self.chunk_path(&log.name, i)))
                        })
                        .sum::<u64>()
            })
            .sum()
    }

    fn chunk_path(&self, log: &str, index: u64) -> PathBuf {
        self.dir.join("chunks").join(format!("{log}-{index}.json"))
    }

    fn manifest_path(&self, id: u64) -> PathBuf {
        self.dir.join("snaps").join(format!("{id}.json"))
    }

    /// `store.json`'s text: the index frame around each row's cached text.
    fn index_text(&self) -> String {
        let index = &self.index;
        let mut text = format!("{{\"version\":{},\"policy\":", index.version);
        serde_json::append_to_string(&mut text, &index.policy)
            .expect("a retention policy encodes as JSON");
        write!(text, ",\"next_id\":{},\"snaps\":[", index.next_id)
            .expect("writing to a String cannot fail");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            text.push_str(row);
        }
        text.push_str("]}");
        debug_assert_eq!(
            Some(&text),
            serde_json::to_string(index).ok().as_ref(),
            "the cached index text differs from the index"
        );
        text
    }

    /// Rewrites `store.json` in place: written over the old index, then
    /// cut to the new length.
    fn persist_index(&self) -> Result<(), StoreError> {
        write_in_place(&self.index_text(), &self.dir.join("store.json")).map(drop)
    }

    /// The number of leading chunks of `log` already on disk: the largest
    /// `sealed` count any indexed snapshot records for it (the chunk
    /// ledger, see the [module docs](self)).
    fn chunks_stored(&self, log: &str) -> u64 {
        self.index
            .snaps
            .iter()
            .flat_map(|s| &s.logs)
            .filter(|l| l.name == log)
            .map(|l| l.sealed)
            .max()
            .unwrap_or(0)
    }

    /// Persists one snapshot: writes the chunks the ledger does not hold
    /// yet, picks the snapshots the retention policy evicts, writes the
    /// manifest, then drops the evicted rows and rewrites the index.
    /// Returns the store id the snapshot is retrievable under.
    ///
    /// When the policy evicts, the first victim's manifest file is renamed
    /// to the new id and written over in place (see the
    /// [module docs](self)); further victims' manifests are deleted. If
    /// writing the manifest fails after that rename, the victim is evicted
    /// anyway, since its file is gone.
    ///
    /// The store's writer encodes the manifest: the live-state elements
    /// that changed since the previous offer, each log's tail elements
    /// appended since, and the text of a chunk that sealed in between from
    /// the tail text it already holds. New chunks are written before the
    /// manifest, so a manifest never references an unwritten chunk. The
    /// new index row is encoded once and kept; `store.json` joins the kept
    /// rows' text.
    ///
    /// Both the ledger and the writer assume one run's snapshots in
    /// increasing decision order; [`offer`](SnapshotSink::offer), the only
    /// caller, declines any other.
    ///
    /// The index is rewritten in place rather than truncated and written
    /// anew: on ext4 (mounted with `discard`), a file truncated to zero and
    /// rewritten starts writeback when it is closed, which made a 6.5 KB
    /// rewrite cost 0.12–0.55 ms against 0.006–0.011 ms in place. Neither
    /// write is atomic: a crash during it can leave a torn index, which
    /// [`open`](Self::open) reports as [`StoreError::Corrupt`] naming
    /// `store.json` when it does not parse.
    fn save(&mut self, snap: &WorldSnapshot) -> Result<u64, StoreError> {
        self.writer.write(snap);
        let mut fresh = 0u64;
        let mut logs = Vec::new();
        for (name, sealed) in self.writer.logs() {
            for i in self.chunks_stored(name)..sealed {
                let path = self.chunk_path(name, i);
                let text = self
                    .writer
                    .chunk(snap, name, i)
                    .ok_or_else(|| StoreError::Corrupt {
                        file: path.clone(),
                        detail: format!(
                            "snapshot references chunk {i} of log {name:?} but the world has none"
                        ),
                    })?;
                fresh += write_in_place(&text, &path)?;
            }
            logs.push(LogRef {
                name: name.to_owned(),
                sealed,
            });
        }
        let mut kept: Vec<u64> = self.index.snaps.iter().map(|s| s.decision).collect();
        kept.push(snap.at_decision());
        let evicted = self.index.policy.evictions(&mut kept);
        let id = self.index.next_id;
        self.index.next_id += 1;
        let path = self.manifest_path(id);
        let recycled = evicted
            .first()
            .and_then(|&d| self.index.snaps.iter().find(|s| s.decision == d))
            .map(|s| s.id)
            .filter(|&old| std::fs::rename(self.manifest_path(old), &path).is_ok());
        match write_in_place(self.writer.manifest(), &path) {
            Ok(bytes) => fresh += bytes,
            Err(e) => {
                // The recycled victim's manifest is gone: drop its row too.
                if recycled.is_some() {
                    std::fs::remove_file(&path).ok();
                    self.evict(evicted[0]);
                }
                return Err(e);
            }
        }
        let row = SnapEntry {
            id,
            decision: snap.at_decision(),
            step: snap.steps(),
            time: snap.time(),
            bytes: fresh,
            parent: self.index.snaps.last().map(|s| s.id),
            logs,
        };
        self.rows.push(to_json(&row, &self.dir.join("store.json"))?);
        self.index.snaps.push(row);
        for decision in evicted {
            if let Some(gone) = self.evict(decision).filter(|&gone| Some(gone) != recycled) {
                std::fs::remove_file(self.manifest_path(gone)).ok();
            }
        }
        self.persist_index()?;
        Ok(id)
    }

    /// Drops the snapshot stored at `decision`: removes its index row, then
    /// deletes its chunks that no remaining snapshot references — those at
    /// or above the ledger's count for each log. Returns its id; removing
    /// or recycling its manifest file is the caller's.
    fn evict(&mut self, decision: u64) -> Option<u64> {
        let pos = self
            .index
            .snaps
            .iter()
            .position(|s| s.decision == decision)?;
        let gone = self.index.snaps.remove(pos);
        self.rows.remove(pos);
        for log in &gone.logs {
            for i in self.chunks_stored(&log.name)..log.sealed {
                std::fs::remove_file(self.chunk_path(&log.name, i)).ok();
            }
        }
        Some(gone.id)
    }

    /// Restores the snapshot stored under `id`, attaching `policy` as the
    /// resumed world's scheduler. Fails — naming the offending file —
    /// when the manifest or any referenced chunk is missing, garbled or
    /// fails the world-digest integrity check: a chunk that cannot be read
    /// or does not decode is named itself, everything else names the
    /// manifest.
    pub fn load(
        &self,
        id: u64,
        policy: Box<dyn SchedulePolicy>,
    ) -> Result<WorldSnapshot, StoreError> {
        let mpath = self.manifest_path(id);
        let manifest = std::fs::read_to_string(&mpath).map_err(io_err(&mpath))?;
        let mut fetch = |name: &str, i: u64| {
            std::fs::read_to_string(self.chunk_path(name, i))
                .map_err(|e| PersistError::Io(e).to_string())
        };
        decode_snapshot(&manifest, &mut fetch, policy).map_err(|e| {
            let file = match &e {
                DecodeError::Chunk { log, index, .. } => self.chunk_path(log, *index),
                DecodeError::Manifest(_) => mpath.clone(),
            };
            StoreError::Corrupt {
                file,
                detail: e.to_string(),
            }
        })
    }
}

impl SnapshotSink for SnapshotStore {
    /// Keeps every offer past the newest stored decision and declines the
    /// rest: a repeat, or an offer older than the newest snapshot, which
    /// the store's one-run, increasing-order ledger cannot place. The
    /// newest snapshot is never evicted, so comparing with the last row is
    /// exact. Write failures surface as `Err` (the run records them in
    /// `RunOutput::spill_errors` and continues).
    fn offer(&mut self, snap: &WorldSnapshot) -> Result<Option<u64>, String> {
        if let Some(newest) = self.index.snaps.last() {
            if snap.at_decision() <= newest.decision {
                return Ok(None);
            }
        }
        self.save(snap).map(Some).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::{
        run_program, Builder, ChanClass, CheckpointPlan, InputScript, Program, RandomPolicy,
        ReplayPolicy, RunConfig, Value,
    };
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Three adders race on a shared total, `increments` times each; a
    /// reporter drains their done messages and publishes the result.
    /// Enough contention to generate a long multi-candidate decision
    /// stream.
    struct Racer {
        increments: u32,
    }

    const RACER: Racer = Racer { increments: 40 };

    impl Program for Racer {
        fn name(&self) -> &'static str {
            "racer"
        }

        fn setup(&self, b: &mut Builder<'_>) {
            let total = b.var("total", 0i64);
            let done = b.channel::<i64>("done", ChanClass::Local);
            let out = b.out_port("result");
            let increments = self.increments;
            for i in 0..3 {
                b.spawn("adder", "adders", move |mut ctx| async move {
                    for _ in 0..increments {
                        let v: i64 = ctx.read(&total, "racer::load").await?;
                        ctx.write(&total, v + 1, "racer::store").await?;
                    }
                    ctx.send(&done, i, "racer::done").await?;
                    Ok(())
                });
            }
            b.spawn("reporter", "report", move |mut ctx| async move {
                for _ in 0..3 {
                    let _: i64 = ctx.recv(&done, "racer::join").await?;
                }
                let v: i64 = ctx.read(&total, "racer::final").await?;
                ctx.output(out, v, "racer::out").await
            });
        }
    }

    /// A spawner starts `waves` rounds of two adders on a shared total,
    /// reading it `increments` times between rounds: tasks, and with them
    /// syscall logs, appear mid-run, and the decision stream is long
    /// enough to seal several chunks of every log.
    struct Waves {
        waves: u32,
        increments: u32,
    }

    const WAVES: Waves = Waves {
        waves: 6,
        increments: 40,
    };

    impl Program for Waves {
        fn name(&self) -> &'static str {
            "waves"
        }

        fn setup(&self, b: &mut Builder<'_>) {
            let total = b.var("total", 0i64);
            let (waves, increments) = (self.waves, self.increments);
            b.spawn("spawner", "spawner", move |mut ctx| async move {
                for _ in 0..waves {
                    for _ in 0..2 {
                        ctx.spawn("adder", "adders", move |mut ctx| async move {
                            for _ in 0..increments {
                                let v: i64 = ctx.read(&total, "waves::load").await?;
                                ctx.write(&total, v + 1, "waves::store").await?;
                            }
                            Ok(())
                        })
                        .await?;
                    }
                    for _ in 0..increments {
                        let _: i64 = ctx.read(&total, "waves::peek").await?;
                    }
                }
                Ok(())
            });
        }
    }

    /// A reader takes `requests` scripted inputs off a port, one every
    /// `gap` ticks. For each it spawns a handler and sends it the request
    /// on a channel; the handler counts the request under a lock and
    /// answers on an output port. Channels, ports, the lock and the task
    /// list all change between offers, and tasks keep appearing all run.
    struct Relay {
        requests: u32,
        gap: u64,
    }

    const RELAY: Relay = Relay {
        requests: 100,
        gap: 4,
    };

    impl Relay {
        fn inputs(&self) -> InputScript {
            let mut script = InputScript::new();
            for i in 0..self.requests {
                script.push("requests", self.gap * u64::from(i), Value::Int(i.into()));
            }
            script
        }
    }

    impl Program for Relay {
        fn name(&self) -> &'static str {
            "relay"
        }

        fn setup(&self, b: &mut Builder<'_>) {
            let served = b.var("served", 0i64);
            let m = b.mutex("m");
            let work = b.channel::<i64>("work", ChanClass::Local);
            let requests = b.in_port("requests");
            let replies = b.out_port("replies");
            let count = self.requests;
            b.spawn("reader", "reader", move |mut ctx| async move {
                for _ in 0..count {
                    let request: i64 = ctx.input(requests, "relay::read").await?;
                    ctx.spawn("handler", "handlers", move |mut ctx| async move {
                        let request: i64 = ctx.recv(&work, "relay::take").await?;
                        ctx.lock(m, "relay::lock").await?;
                        let n: i64 = ctx.read(&served, "relay::count").await?;
                        ctx.write(&served, n + 1, "relay::counted").await?;
                        ctx.unlock(m, "relay::unlock").await?;
                        ctx.output(replies, request + n, "relay::reply").await
                    })
                    .await?;
                    ctx.send(&work, request, "relay::forward").await?;
                }
                Ok(())
            });
        }
    }

    /// Every file of the store at `dir`, by path relative to it.
    fn store_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        let mut files = BTreeMap::new();
        for sub in ["", "snaps", "chunks"] {
            for entry in std::fs::read_dir(dir.join(sub)).unwrap() {
                let path = entry.unwrap().path();
                if path.is_file() {
                    let rel = path.strip_prefix(dir).unwrap().display().to_string();
                    files.insert(rel, std::fs::read(&path).unwrap());
                }
            }
        }
        files
    }

    fn spill_cfg(store: SnapshotStore) -> RunConfig {
        RunConfig {
            seed: 11,
            checkpoints: Some(CheckpointPlan::new(4, 400)),
            snapshot_sink: Some(Box::new(store)),
            hash_decisions: true,
            ..RunConfig::default()
        }
    }

    fn tmp_store_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dd-store-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    #[test]
    fn spilled_run_restores_and_resumes_identically() {
        let dir = tmp_store_dir("roundtrip");
        let store = SnapshotStore::create(&dir, RetentionPolicy::new(16, 64)).unwrap();
        let recorded = run_program(
            &RACER,
            spill_cfg(store),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        assert!(
            recorded.spill_errors.is_empty(),
            "{:?}",
            recorded.spill_errors
        );
        assert!(
            recorded.spilled.len() >= 3,
            "deep run spills several snapshots, got {:?}",
            recorded.spilled
        );
        assert!(
            recorded.snapshots.is_empty(),
            "a sink-backed run keeps no snapshots in memory"
        );

        // Cold restart: reopen the store from disk only.
        let store = SnapshotStore::open(&dir).unwrap();
        assert_eq!(store.list().len(), recorded.spilled.len());
        // Delta encoding: with no eviction, each snapshot names the
        // previous one as its delta parent.
        assert!(store.list()[0].parent.is_none());
        for w in store.list().windows(2) {
            assert_eq!(w[1].parent, Some(w[0].id));
        }
        let mid = &recorded.spilled[recorded.spilled.len() / 2];
        let entry = store.nearest_at_or_before(mid.decision).unwrap();
        assert_eq!(entry.decision, mid.decision);
        let replay = ReplayPolicy::resuming_at(
            recorded
                .decisions
                .iter()
                .map(|d| dd_sim::RecordedDecision {
                    kind: d.kind,
                    chosen: d.chosen,
                })
                .collect::<Vec<_>>(),
            entry.decision as usize,
        );
        let snap = store.load(entry.id, Box::new(replay)).unwrap();
        assert_eq!(snap.at_decision(), mid.decision);
        let resumed = dd_sim::resume_program(
            &RACER,
            RunConfig {
                seed: 11,
                hash_decisions: true,
                ..RunConfig::default()
            },
            &snap,
            None,
            vec![],
        );
        assert_eq!(resumed.final_state_hash, recorded.final_state_hash);
        assert_eq!(resumed.io, recorded.io);
        assert_eq!(
            resumed.decision_hashes, recorded.decision_hashes,
            "prefix hashes come from the snapshot, tail hashes from re-execution"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_respects_bound_and_reports_deltas() {
        let dir = tmp_store_dir("evict");
        // Tight capacity: far fewer slots than the run has checkpoints.
        let store = SnapshotStore::create(&dir, RetentionPolicy::new(20, 3)).unwrap();
        let out = run_program(
            &RACER,
            spill_cfg(store),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        let store = SnapshotStore::open(&dir).unwrap();
        let run_len = out.decisions.len() as u64;
        assert!(
            store.max_gap(run_len.min(400)) <= 20,
            "availability bound holds under eviction: gap {} with {:?}",
            store.max_gap(run_len.min(400)),
            store.list().iter().map(|s| s.decision).collect::<Vec<_>>()
        );
        // Parent pointers record the delta parent at save time; an evicted
        // parent does not break loading (the shared chunks survive GC).
        let list = store.list();
        assert!(list.len() >= 2);
        for e in list {
            assert!(e.parent.is_none_or(|p| p < e.id));
        }
        // Each stored snapshot remains loadable.
        for entry in list {
            let snap = store
                .load(entry.id, Box::new(RandomPolicy::new(1)))
                .unwrap();
            assert_eq!(snap.at_decision(), entry.decision);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `create` over a directory another recording used must not let that
    /// recording's chunks stand in for this one's: the second recording's
    /// snapshots restore its own history, and the directory holds exactly
    /// the files the index describes.
    #[test]
    fn create_over_a_used_directory_forgets_the_earlier_recording() {
        use dd_sim::history::DEFAULT_CHUNK_LEN;
        let dir = tmp_store_dir("reuse");
        let racer = Racer { increments: 120 };
        let record = |schedule_seed, policy| {
            let store = SnapshotStore::create(&dir, policy).unwrap();
            let cfg = RunConfig {
                checkpoints: Some(CheckpointPlan::new(4, u64::MAX)),
                ..spill_cfg(store)
            };
            let out = run_program(
                &racer,
                cfg,
                Box::new(RandomPolicy::new(schedule_seed)),
                vec![],
            );
            assert!(out.spill_errors.is_empty(), "{:?}", out.spill_errors);
            out.decisions
                .iter()
                .map(|d| d.chosen_index)
                .collect::<Vec<u32>>()
        };
        // The first recording keeps every snapshot, so it leaves far more
        // manifests behind than the second one writes.
        let first = record(7, RetentionPolicy::new(64, 10_000));
        let second = record(8, RetentionPolicy::default());
        assert!(
            second.len() > DEFAULT_CHUNK_LEN,
            "the decision log seals a chunk"
        );
        assert_ne!(
            first[..DEFAULT_CHUNK_LEN],
            second[..DEFAULT_CHUNK_LEN],
            "the two recordings differ inside the first sealed chunk"
        );

        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store
            .list()
            .iter()
            .any(|e| e.decision > DEFAULT_CHUNK_LEN as u64));
        for entry in store.list() {
            let snap = store
                .load(entry.id, Box::new(RandomPolicy::new(1)))
                .unwrap();
            let prefix: Vec<u32> = snap.decision_prefix().collect();
            assert_eq!(
                prefix,
                second[..entry.decision as usize],
                "snapshot at decision {} restores the second recording's history",
                entry.decision
            );
        }

        let listed = |sub: &str| -> BTreeSet<String> {
            std::fs::read_dir(dir.join(sub))
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect()
        };
        let manifests: BTreeSet<String> = store
            .list()
            .iter()
            .map(|e| format!("{}.json", e.id))
            .collect();
        let logs: BTreeSet<&str> = store
            .list()
            .iter()
            .flat_map(|e| &e.logs)
            .map(|l| l.name.as_str())
            .collect();
        let chunks: BTreeSet<String> = logs
            .iter()
            .flat_map(|log| (0..store.chunks_stored(log)).map(move |i| format!("{log}-{i}.json")))
            .collect();
        assert_eq!(listed("snaps"), manifests);
        assert_eq!(
            listed("chunks"),
            chunks,
            "the chunk ledger matches the disk"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_artifacts_are_rejected_with_the_file_named() {
        let dir = tmp_store_dir("corrupt");
        let store = SnapshotStore::create(&dir, RetentionPolicy::new(16, 64)).unwrap();
        run_program(
            &RACER,
            spill_cfg(store),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        let store = SnapshotStore::open(&dir).unwrap();
        let entry = store.list().last().unwrap().clone();

        // Garble one chunk payload: decode must fail naming that file.
        let mut chunk_files: Vec<PathBuf> = std::fs::read_dir(dir.join("chunks"))
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .collect();
        chunk_files.sort();
        let victim = chunk_files.first().expect("a deep run seals chunks");
        let original = std::fs::read(victim).unwrap();
        let victim_name = victim.file_name().unwrap().to_string_lossy().into_owned();
        // Text that does not parse, and text that parses but does not
        // decode into the log's elements: both name the chunk.
        for garbage in ["{garbled", r#"[{"bogus":1}]"#] {
            std::fs::write(victim, garbage).unwrap();
            let err = store
                .load(entry.id, Box::new(RandomPolicy::new(1)))
                .unwrap_err();
            assert!(
                err.to_string().contains(&victim_name),
                "{garbage}: error names the corrupt file {victim_name}: {err}"
            );
        }
        std::fs::write(victim, &original).unwrap();

        // Truncate the manifest: same contract.
        let mpath = dir.join("snaps").join(format!("{}.json", entry.id));
        let manifest_bytes = std::fs::read(&mpath).unwrap();
        std::fs::write(&mpath, &manifest_bytes[..manifest_bytes.len() / 2]).unwrap();
        let err = store
            .load(entry.id, Box::new(RandomPolicy::new(1)))
            .unwrap_err();
        assert!(
            err.to_string().contains(&format!("{}.json", entry.id)),
            "error names the truncated manifest: {err}"
        );

        // A missing store directory is an I/O error naming the index.
        std::fs::remove_dir_all(&dir).ok();
        let err = SnapshotStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("store.json"), "{err}");
    }

    /// With two slots, offers at decisions 8, 16, then 4: the last is
    /// declined, so the index stays in decision order. Keeping it would
    /// hand the eviction scan an unsorted index (an overflow panic in debug
    /// builds; in release, 8 evicted and `nearest_at_or_before` searching
    /// an index it cannot search).
    #[test]
    fn an_offer_older_than_the_newest_is_declined() {
        let out = run_program(
            &RACER,
            RunConfig {
                checkpoints: Some(CheckpointPlan::new(4, 400)),
                ..RunConfig::with_seed(11)
            },
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        let at = |d: u64| {
            out.snapshots
                .iter()
                .find(|s| s.at_decision() == d)
                .unwrap_or_else(|| panic!("no snapshot at decision {d}"))
        };
        let dir = tmp_store_dir("older");
        let mut store = SnapshotStore::create(&dir, RetentionPolicy::new(64, 2)).unwrap();
        assert!(store.offer(at(8)).unwrap().is_some());
        assert!(store.offer(at(16)).unwrap().is_some());
        assert_eq!(store.offer(at(4)).unwrap(), None);
        assert_eq!(store.offer(at(16)).unwrap(), None, "a repeat is declined");
        let kept: Vec<u64> = store.list().iter().map(|s| s.decision).collect();
        assert_eq!(kept, [8, 16]);
        assert_eq!(store.nearest_at_or_before(9).map(|s| s.decision), Some(8));
        for entry in store.list() {
            let snap = store
                .load(entry.id, Box::new(RandomPolicy::new(1)))
                .unwrap();
            assert_eq!(snap.at_decision(), entry.decision);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A store at capacity writes each manifest into the file of the one
    /// it evicts: the new manifest has the victim's inode, `snaps/` holds
    /// exactly the kept manifests, and each of them loads.
    #[cfg(unix)]
    #[test]
    fn an_evicting_offer_reuses_the_evicted_manifests_file() {
        use std::os::unix::fs::MetadataExt;
        let inode = |path: PathBuf| std::fs::metadata(path).unwrap().ino();
        let out = run_program(
            &RACER,
            RunConfig {
                checkpoints: Some(CheckpointPlan::new(4, 400)),
                ..RunConfig::with_seed(11)
            },
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        let dir = tmp_store_dir("recycle");
        let mut store = SnapshotStore::create(&dir, RetentionPolicy::new(1 << 20, 2)).unwrap();
        let mut recycled = 0;
        for snap in out.snapshots.iter().take(12) {
            let before: BTreeMap<u64, u64> = store
                .list()
                .iter()
                .map(|e| (e.id, inode(store.manifest_path(e.id))))
                .collect();
            let id = store
                .offer(snap)
                .unwrap()
                .expect("a newer snapshot is kept");
            let kept: BTreeSet<u64> = store.list().iter().map(|e| e.id).collect();
            let evicted: Vec<u64> = before
                .keys()
                .filter(|old| !kept.contains(old))
                .copied()
                .collect();
            if let [victim] = evicted[..] {
                assert_eq!(
                    inode(store.manifest_path(id)),
                    before[&victim],
                    "manifest {id} is written into evicted manifest {victim}'s file"
                );
                recycled += 1;
            }
            let on_disk: BTreeSet<u64> = std::fs::read_dir(dir.join("snaps"))
                .unwrap()
                .map(|e| {
                    let name = e.unwrap().file_name().into_string().unwrap();
                    name.trim_end_matches(".json").parse().unwrap()
                })
                .collect();
            assert_eq!(on_disk, kept);
        }
        assert_eq!(recycled, 10, "every offer past the second evicts one");
        for entry in store.list() {
            let snap = store
                .load(entry.id, Box::new(RandomPolicy::new(1)))
                .unwrap();
            assert_eq!(snap.at_decision(), entry.decision);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The writer's caches change no byte: store A keeps one writer
        /// for up to 24 consecutive snapshots of a run, store B is
        /// reopened (with a fresh writer) every `reopen` offers, and the
        /// two directories are identical file for file. Cadences cross the
        /// 64-element syscall and 256-element chunk lengths, some several
        /// chunks at once, and new tasks bring new syscall logs between
        /// offers. The first offer is drawn too, so a writer may start
        /// mid-run with chunks already sealed. Each case runs two
        /// programs: `WAVES` changes one variable, `RELAY` also a channel,
        /// ports and a lock.
        #[test]
        fn a_warm_writer_writes_what_a_reopened_store_writes(
            cadence in 0usize..6,
            first in 0usize..1_200,
            reopen in 1usize..6,
            keep in 2u64..10,
            schedule_seed in 0u64..1_000,
        ) {
            const OFFERS: usize = 24;
            let cadence = [1, 3, 8, 64, 257, 300][cadence];
            let programs: [(&dyn Program, InputScript); 2] =
                [(&WAVES, InputScript::new()), (&RELAY, RELAY.inputs())];
            for (program, inputs) in programs {
                let out = run_program(
                    program,
                    RunConfig {
                        checkpoints: Some(CheckpointPlan::new(cadence, u64::MAX)),
                        hash_decisions: true,
                        inputs,
                        ..RunConfig::with_seed(11)
                    },
                    Box::new(RandomPolicy::new(schedule_seed)),
                    vec![],
                );
                prop_assert!(out.decisions.len() > 600, "{} decisions", out.decisions.len());
                let first = first % out.snapshots.len().saturating_sub(OFFERS).max(1);
                let policy = RetentionPolicy::new(1 << 20, keep);
                let (dir_a, dir_b) = (tmp_store_dir("warm-a"), tmp_store_dir("warm-b"));
                let mut a = SnapshotStore::create(&dir_a, policy).unwrap();
                let mut b = SnapshotStore::create(&dir_b, policy).unwrap();
                for (i, snap) in out.snapshots[first..].iter().take(OFFERS).enumerate() {
                    if i > 0 && i % reopen == 0 {
                        b = SnapshotStore::open(&dir_b).unwrap();
                    }
                    let kept = a.offer(snap).unwrap();
                    prop_assert!(kept.is_some());
                    prop_assert_eq!(b.offer(snap).unwrap(), kept);
                }
                let (files_a, files_b) = (store_files(&dir_a), store_files(&dir_b));
                let differs = files_a
                    .keys()
                    .chain(files_b.keys())
                    .find(|f| files_a.get(*f) != files_b.get(*f));
                prop_assert!(
                    differs.is_none(),
                    "{}: the stores differ at {differs:?}",
                    program.name()
                );
                for entry in a.list() {
                    let snap = a.load(entry.id, Box::new(RandomPolicy::new(1))).unwrap();
                    prop_assert_eq!(snap.at_decision(), entry.decision);
                }
                std::fs::remove_dir_all(&dir_a).ok();
                std::fs::remove_dir_all(&dir_b).ok();
            }
        }

        /// The availability invariant, as an invariant rather than an
        /// example: for any run length, checkpoint cadence no coarser than
        /// the bound, and any (possibly severe) capacity pressure, every
        /// decision index in the checkpointed region stays within `bound`
        /// of a restorable point at or before it — after every single
        /// offer, not just at the end.
        #[test]
        fn availability_bound_survives_eviction_pressure(
            bound in 1u64..40,
            cadence_frac in 1u64..101,
            max_snapshots in 1u64..10,
            run_len in 1u64..2_000,
        ) {
            // Cadence in 1..=bound: offers can never arrive farther apart
            // than the bound itself (a plan coarser than the bound makes
            // the invariant unsatisfiable by construction).
            let cadence = (cadence_frac * bound).div_ceil(100).clamp(1, bound);
            let policy = RetentionPolicy::new(bound, max_snapshots);
            let mut kept: Vec<u64> = Vec::new();
            let mut frontier = 0u64;
            let mut d = cadence;
            while d <= run_len {
                kept.push(d);
                frontier = d;
                let _ = policy.evictions(&mut kept);
                prop_assert!(
                    RetentionPolicy::max_gap(&kept, frontier) <= bound,
                    "gap {} > bound {bound} after offer at {d} (kept {kept:?})",
                    RetentionPolicy::max_gap(&kept, frontier),
                );
                d += cadence;
            }
            // The whole checkpointed region keeps the bound, and capacity
            // pressure was real: we never hold more than max_snapshots
            // unless the bound forced us to.
            prop_assert!(RetentionPolicy::max_gap(&kept, frontier) <= bound);
            if kept.len() as u64 > max_snapshots {
                // Over capacity only because every eviction would break
                // the bound: check that no victim exists.
                let mut probe = kept.clone();
                prop_assert!(policy.evictions(&mut probe).is_empty());
            }
        }
    }
}
