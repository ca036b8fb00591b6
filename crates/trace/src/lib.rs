//! # dd-trace — trace model, cost accounting and artifact formats
//!
//! The recording toolkit for the Debug Determinism reproduction:
//!
//! - [`Trace`]: the omniscient, queryable event record of a run (free for
//!   analysis; recorders never see it).
//! - [`CostModel`] / [`LogStats`]: how recording overhead is charged and
//!   accounted, per logged record and byte.
//! - Artifact formats ([`ScheduleLog`], [`ValueLog`], [`OutputLog`],
//!   [`InputLog`], [`FailureSnapshot`], [`EventLog`]): what each determinism
//!   model persists — relaxation means smaller artifacts.
//! - Recorder observers ([`ScheduleRecorder`], [`ValueRecorder`],
//!   [`OutputRecorder`], [`InputRecorder`]): the building blocks `dd-replay`
//!   and `dd-core` assemble into determinism models.
//! - On-disk artifacts ([`JsonlTrace`], [`SnapshotStore`]): the `dd` trace
//!   file and the spilled snapshot store. Every other artifact is JSON
//!   text that its caller reads and writes with `serde_json`.

pub mod cost;
pub mod jsonl;
pub mod logs;
pub mod recorder;
pub mod store;
pub mod trace;

pub use cost::{log_size, ChargeAcc, CostModel, LogStats};
pub use jsonl::{
    JsonlError, JsonlTrace, TraceDecision, TraceFooter, TraceHeader, JSONL_FORMAT, JSONL_VERSION,
};
pub use logs::{
    EpochMark, EventLog, FailureSnapshot, InputEntry, InputLog, OutputLog, ScheduleLog, ValEntry,
    ValKind, ValueCursor, ValueCursorStats, ValueLog, SCHEDULE_LOG_VERSION,
};
pub use recorder::{InputRecorder, OutputRecorder, ScheduleRecorder, ValueRecorder};
pub use store::{
    LogRef, RetentionPolicy, SnapEntry, SnapshotStore, StoreError, STORE_FORMAT_VERSION,
};
pub use trace::{AccessRecord, Trace, TraceEvent};
