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
//! previous save (see [`dd_sim::encode_manifest`]). The `bytes` column of
//! the index records exactly those fresh bytes — the marginal cost of each
//! snapshot, which is what `BENCH_snapshot_store.json` plots against full
//! snapshot sizes.
//!
//! The index is also the chunk ledger: chunk `i` of log `L` is on disk
//! exactly when `i` is below the largest `sealed` count any indexed
//! snapshot records for `L` (eviction deletes the chunks above it), so a
//! save decides which chunks to write without asking the filesystem.
//! `store.json` is rewritten in place after every offer; see
//! [`SnapshotStore::save`] for what a crash during that write leaves.
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
//! One store holds snapshots of **one** recorded run; chunk addresses are
//! only unique within a run's history, so [`SnapshotStore::create`] empties
//! whatever an earlier recording left in the directory.
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
    decode_snapshot, encode_manifest, sealed_chunk, DecodeError, SchedulePolicy, SnapshotSink,
    WorldSnapshot,
};
use serde::{Deserialize, Serialize};
use std::io::Write;
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

/// Writes `value` as a new JSON file at `path`, returning its length in
/// bytes.
fn write_new<T: Serialize>(value: &T, path: &Path) -> Result<u64, StoreError> {
    let text = to_json(value, path)?;
    std::fs::write(path, &text).map_err(io_err(path))?;
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
        };
        store.persist_index()?;
        Ok(store)
    }

    /// Opens an existing store, validating the index format.
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
        Ok(SnapshotStore { dir, index })
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

    /// Rewrites `store.json` in place: written over the old index, then
    /// cut to the new length.
    fn persist_index(&self) -> Result<(), StoreError> {
        let ipath = self.dir.join("store.json");
        let text = to_json(&self.index, &ipath)?;
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&ipath)
            .map_err(io_err(&ipath))?;
        file.write_all(text.as_bytes()).map_err(io_err(&ipath))?;
        file.set_len(text.len() as u64).map_err(io_err(&ipath))
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
    /// yet, then the manifest, then re-applies the retention policy and
    /// rewrites the index. Returns the store id the snapshot is
    /// retrievable under.
    ///
    /// Snapshots must be offered in increasing decision order (they are, by
    /// construction, when the store is a run's
    /// [`snapshot_sink`](dd_sim::RunConfig)).
    ///
    /// The index is rewritten in place rather than truncated and written
    /// anew: on ext4 (mounted with `discard`), a file truncated to zero and
    /// rewritten starts writeback when it is closed, which made a 6.5 KB
    /// rewrite cost 0.12–0.55 ms against 0.006–0.011 ms in place. Neither
    /// write is atomic: a crash during it can leave a torn index, which
    /// [`open`](Self::open) reports as [`StoreError::Corrupt`] naming
    /// `store.json` when it does not parse.
    pub fn save(&mut self, snap: &WorldSnapshot) -> Result<u64, StoreError> {
        let manifest = encode_manifest(snap);
        let mut fresh = 0u64;
        for log in &manifest.logs {
            for i in self.chunks_stored(&log.name)..log.sealed {
                let path = self.chunk_path(&log.name, i);
                let payload =
                    sealed_chunk(snap, &log.name, i).ok_or_else(|| StoreError::Corrupt {
                        file: path.clone(),
                        detail: format!(
                            "snapshot references chunk {i} of log {:?} but the world has none",
                            log.name
                        ),
                    })?;
                fresh += write_new(&payload, &path)?;
            }
        }
        let id = self.index.next_id;
        self.index.next_id += 1;
        fresh += write_new(&manifest, &self.manifest_path(id))?;
        let parent = self.index.snaps.last().map(|s| s.id);
        self.index.snaps.push(SnapEntry {
            id,
            decision: manifest.decision,
            step: manifest.step,
            time: manifest.time,
            bytes: fresh,
            parent,
            logs: manifest
                .logs
                .iter()
                .map(|l| LogRef {
                    name: l.name.clone(),
                    sealed: l.sealed,
                })
                .collect(),
        });

        let mut kept: Vec<u64> = self.index.snaps.iter().map(|s| s.decision).collect();
        let policy = self.index.policy;
        for decision in policy.evictions(&mut kept) {
            self.evict(decision);
        }
        self.persist_index()?;
        Ok(id)
    }

    /// Drops the snapshot stored at `decision`: removes its index row and
    /// manifest, then garbage-collects chunks no remaining snapshot
    /// references.
    fn evict(&mut self, decision: u64) {
        let Some(pos) = self.index.snaps.iter().position(|s| s.decision == decision) else {
            return;
        };
        let gone = self.index.snaps.remove(pos);
        std::fs::remove_file(self.manifest_path(gone.id)).ok();
        for log in &gone.logs {
            let still_needed = |i: u64| {
                self.index
                    .snaps
                    .iter()
                    .any(|s| s.logs.iter().any(|l| l.name == log.name && l.sealed > i))
            };
            for i in 0..log.sealed {
                if !still_needed(i) {
                    std::fs::remove_file(self.chunk_path(&log.name, i)).ok();
                }
            }
        }
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
    /// Keeps every offer at a decision the store has not seen yet; a
    /// repeated offer at an already-stored decision is declined rather
    /// than duplicated. Write failures surface as `Err` (the run records
    /// them in `RunOutput::spill_errors` and continues).
    fn offer(&mut self, snap: &WorldSnapshot) -> Result<Option<u64>, String> {
        if self
            .index
            .snaps
            .iter()
            .any(|s| s.decision == snap.at_decision())
        {
            return Ok(None);
        }
        self.save(snap).map(Some).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::{
        run_program, Builder, ChanClass, CheckpointPlan, Program, RandomPolicy, ReplayPolicy,
        RunConfig,
    };
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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

    proptest! {
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
