//! # dd-trace — trace model, cost accounting and artifact formats
//!
//! The recording toolkit for the Debug Determinism reproduction:
//!
//! - [`Trace`]: the omniscient event record of a run, re-exported from
//!   `dd-sim`: the kernel's chunk-shared event log itself, which analyses
//!   borrow in place (no modeled cost: only what a model logs is charged).
//! - [`CostModel`] / [`LogStats`]: how recording overhead is charged and
//!   accounted, per logged record and byte.
//! - Artifact formats ([`ScheduleLog`], [`ValueLog`], [`OutputLog`],
//!   [`InputLog`], [`FailureSnapshot`], [`EventLog`]): what each determinism
//!   model persists — relaxation means smaller artifacts. Each log is built
//!   once, as a projection of the finished run.
//! - The recording-cost observer ([`LogCharger`]): pays, during the run,
//!   for each event a model's logs keep ([`LogKind`]) — the same events the
//!   artifact projects.
//! - On-disk artifacts ([`JsonlTrace`], [`SnapshotStore`]): the `dd` trace
//!   file and the spilled snapshot store. Every other artifact is JSON
//!   text that its caller reads and writes with `serde_json`.

pub mod cost;
pub mod jsonl;
pub mod logs;
pub mod recorder;
pub mod store;

pub use cost::{log_size, ChargeAcc, CostModel, LogStats};
pub use dd_sim::Trace;
pub use jsonl::{
    JsonlError, JsonlTrace, TraceDecision, TraceFooter, TraceHeader, JSONL_FORMAT, JSONL_VERSION,
};
pub use logs::{
    EpochMark, EventLog, FailureSnapshot, InputEntry, InputLog, OutputLog, ScheduleLog, TraceEvent,
    ValEntry, ValKind, ValueCursor, ValueCursorStats, ValueLog, SCHEDULE_LOG_VERSION,
};
pub use recorder::{LogCharger, LogKind};
pub use store::{
    LogRef, RetentionPolicy, SnapEntry, SnapshotStore, StoreError, STORE_FORMAT_VERSION,
};

/// Writes `bytes` over the file at `path` (created if missing), then cuts
/// a regular file to their length. Unlike `std::fs::write`, which
/// truncates the file to zero first, this rewrites an existing file's
/// blocks in place: recording to the same path again does not free and
/// reallocate them. A path that is not a regular file (a pipe, a
/// terminal, `/dev/null`) has no length to cut and just receives the
/// bytes. [`JsonlTrace::save`], the [`SnapshotStore`] and `dd record`
/// write through it.
pub fn write_in_place(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    file.write_all(bytes)?;
    if file.metadata()?.is_file() {
        file.set_len(bytes.len() as u64)?;
    }
    Ok(())
}
