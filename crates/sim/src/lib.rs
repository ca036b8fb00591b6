//! # dd-sim — deterministic concurrent-execution simulator
//!
//! The substrate for the Debug Determinism reproduction: a machine whose
//! *every* source of nondeterminism — scheduling, external inputs, faults,
//! randomness — is an explicit, observable, replayable event.
//!
//! Programs are written against [`TaskCtx`]: virtual threads sharing typed
//! variables, locks, condition variables and channels, reading scripted
//! inputs and emitting observable outputs. A seeded [`SchedulePolicy`]
//! resolves every scheduling choice, so a run is a pure function of
//! `(program, config, policy)`.
//!
//! Recorders and detectors attach as [`Observer`]s; the instrumentation cost
//! they return is charged to a separate *wall clock* so that recording
//! overhead is measurable without perturbing program semantics (no probe
//! effect).
//!
//! # Layout
//!
//! Each module holds one decision. The events a run publishes, its
//! observers and its event log ([`Trace`]) live in [`event`]; the machine
//! state a run evolves and its resumable [`WorldSnapshot`]s in `world`;
//! what each operation does in `ops`; the per-decision state digest
//! ([`StateHasher`]) in `digest`;
//! the timed environment events (inputs, timers, crashes, partitions,
//! restarts) in `faults`; and the execution shell around the world —
//! policy, observers, decisions, events, snapshot hand-off — in [`kernel`].
//! [`driver`] polls the task coroutines, [`snapshot`] encodes and decodes
//! stored snapshots, and `snapshot_cost` prices a snapshot clone
//! ([`SnapshotCost`]) for the ABL-9 sweep.
//!
//! # Examples
//!
//! ```
//! use dd_sim::{run_program, Builder, Program, RandomPolicy, RunConfig};
//!
//! struct Counter;
//!
//! impl Program for Counter {
//!     fn name(&self) -> &'static str {
//!         "counter"
//!     }
//!     fn setup(&self, b: &mut Builder<'_>) {
//!         let total = b.var("total", 0i64);
//!         let out = b.out_port("result");
//!         let done = b.channel::<i64>("done", dd_sim::ChanClass::Local);
//!         for i in 0..2 {
//!             b.spawn(&format!("adder{i}"), "workers", move |mut ctx| async move {
//!                 for _ in 0..10 {
//!                     let v = ctx.read(&total, "adder::read").await?;
//!                     ctx.write(&total, v + 1, "adder::write").await?;
//!                 }
//!                 ctx.send(&done, 1, "adder::done").await
//!             });
//!         }
//!         b.spawn("reporter", "main", move |mut ctx| async move {
//!             for _ in 0..2 {
//!                 ctx.recv(&done, "reporter::recv").await?;
//!             }
//!             let v = ctx.read(&total, "reporter::read").await?;
//!             ctx.output(out, v, "reporter::out").await
//!         });
//!     }
//! }
//!
//! let out = run_program(
//!     &Counter,
//!     RunConfig::with_seed(1),
//!     Box::new(RandomPolicy::new(1)),
//!     vec![],
//! );
//! // The unsynchronised increments race: the total may be below 20.
//! let total = out.io.outputs_on("result")[0].as_int().unwrap();
//! assert!(total <= 20);
//! ```

pub mod config;
pub mod conflict;
mod digest;
pub mod driver;
pub mod error;
pub mod event;
mod faults;
pub mod history;
pub mod ids;
pub mod kernel;
mod ops;
pub mod policy;
pub mod program;
pub mod rng;
pub mod snapshot;
mod snapshot_cost;
pub mod value;
mod world;

pub use config::{
    ChanClass, CheckpointPlan, CrashEvent, EnvConfig, InputScript, NoOverride, NondetOverride,
    PartitionEvent, RestartEvent, RunConfig, TimedInput,
};
pub use conflict::OpDesc;
pub use digest::StateHasher;
pub use driver::{
    resume_program, run_program, ChanMeta, IoSummary, PortMeta, Registry, RunOutput, RunStats,
    TaskMeta,
};
pub use error::{SimError, SimResult, StopReason};
pub use event::{AccessKind, DecisionKind, Event, EventMeta, Observer, SiteName, Trace};
pub use history::ChunkedLog;
pub use ids::{ChanId, CondvarId, LockId, PortId, Site, TaskId, VarId, KERNEL_SITE};
pub use kernel::{
    CrashRecord, DecisionRecord, EnabledSet, OutputRecord, PortDir, SnapshotCost, WorldSnapshot,
};
pub use policy::{
    DecisionPoint, PctPolicy, PrefixPolicy, RandomPolicy, RecordedDecision, ReplayPolicy,
    RoundRobinPolicy, SchedulePolicy,
};
pub use program::{
    Builder, ChanHandle, CondvarHandle, InPort, MutexHandle, OutPort, Program, RecoveryBuilder,
    TVar, TaskCtx, TaskFn,
};
pub use rng::DetRng;
pub use snapshot::{
    decode_snapshot, DecodeError, LogManifest, SnapshotManifest, SnapshotMark, SnapshotSink,
    SnapshotWriter, SNAPSHOT_FORMAT_VERSION,
};
pub use value::{SimData, Value};

/// Implements the [`Observer`] upcast boilerplate (`as_any`, `as_any_mut`).
///
/// Paste inside an `impl Observer for T` block.
#[macro_export]
macro_rules! observer_boilerplate {
    () => {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    };
}
