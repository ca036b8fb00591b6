//! The machine state a run evolves, and its snapshots.
//!
//! [`WorldState`] is every piece of *machine* state: tasks, variables,
//! locks, condition variables, channels, ports, clocks, RNG, pending
//! timers/inputs/faults, the trace, the decision stream, each parked task's
//! announced operation (`TaskRec::pending_op`), and the per-task
//! syscall-result log. It is plain data and `Clone`: cloning it at a
//! decision point yields a [`WorldSnapshot`] from which the run can be
//! resumed deterministically (restore + re-run ⇒ the identical trace).
//!
//! The world is two halves. Its live state ([`Live`]) — the *hot* machine
//! state, bounded by the number of live objects — is cloned eagerly, and is
//! what a snapshot manifest's `live` map decodes into. The append-only history
//! logs — the trace, decisions, enabled sets, outputs, consumed inputs,
//! crashes, digests and syscall logs — live in [`ChunkedLog`]s whose
//! sealed chunks are `Arc`-shared between the run and every snapshot, so
//! snapshot cost is O(live state), independent of how long the run has
//! been going (see [`WorldSnapshot::cost`]).
//!
//! Everything tied to *this* execution of the run rather than the machine
//! it simulates — observers, the scheduling policy, the
//! nondeterminism-override hook, collected snapshots — is the kernel's
//! shell ([`Kernel`](crate::kernel::Kernel)). None of it is cloneable and
//! none of it is needed to reconstruct the machine. (The coroutine futures
//! live one layer further out, in the driver's engine — a future is just
//! the *continuation* of a task body; everything it has told the machine is
//! already in the world.)
//!
//! Restoring a snapshot cannot clone the original coroutine futures (Rust
//! futures are not `Clone`), so `resume` re-runs each started task body in
//! *fast-forward* mode: completed operations are fed back from the world's
//! syscall log without touching kernel state, decisions, or events — those
//! are already part of the restored world — until the body re-reaches the
//! sync point it was parked at when the snapshot was taken. This is a thin
//! in-engine replay loop (one synchronous poll per task); there are no
//! threads to re-attach and no per-task runtime state to reconstruct.
//!
//! # Thread-safety
//!
//! The world/shell split is also a *thread-safety* boundary. `WorldState`
//! and [`WorldSnapshot`] are `Send + Sync`, so a caller may move or share
//! a snapshot across threads and resume it in an execution shell of that
//! thread's own: its own observers, policy clone
//! ([`SchedulePolicy::clone_box`] is `Send`-safe), and its own coroutine
//! engine (futures are engine-local and never cross threads). Nothing in
//! the shell crosses threads; everything in the world may. No crate of
//! this workspace spawns a thread.

use crate::config::{ChanClass, EnvConfig};
use crate::conflict::OpDesc;
use crate::error::{SimResult, StopReason};
use crate::event::{DecisionKind, Event, EventMeta};
use crate::history::ChunkedLog;
use crate::ids::{ChanId, CondvarId, LockId, PortId, TaskId};
use crate::ops::Op;
use crate::policy::SchedulePolicy;
use crate::rng::DetRng;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::OnceLock;

/// What a blocked task is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum BlockOn {
    /// Lock is held by someone else.
    Lock(LockId),
    /// Channel is empty (with an optional wake deadline).
    Chan { chan: ChanId, deadline: Option<u64> },
    /// Waiting for a condition-variable notification.
    Cvar(CondvarId),
    /// Input port has no data yet.
    Port(PortId),
    /// Waiting for a task to exit.
    Join(TaskId),
    /// Sleeping until an absolute virtual time.
    Timer { until: u64 },
}

/// Scheduling phase of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Phase {
    /// Parked at a sync point; eligible to be granted.
    Ready,
    /// Granted by the driver; about to execute its operation.
    Granted,
    /// Executing user code between operations.
    Running,
    /// Waiting for a resource or timer.
    Blocked(BlockOn),
    /// Finished (`ok = false` on error or panic).
    Exited { ok: bool },
}

/// Direction of an external port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PortDir {
    /// Scripted inputs flow in.
    In,
    /// Observable outputs flow out.
    Out,
}

/// Snapshot-able per-task machine state. A task's *continuation* (the
/// coroutine future for its body) lives outside the kernel, in the driver's
/// engine; everything the body has told the machine is here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct TaskRec {
    pub name: String,
    pub group: String,
    pub phase: Phase,
    pub killed: bool,
    pub joiners: Vec<TaskId>,
    pub mem_used: u64,
    pub mem_budget: Option<u64>,
    /// Conflict footprint of the operation this task is parked on (set when
    /// the task announces at a sync point, cleared when the op completes).
    /// `None` means the task's next operation is not yet known — explorers
    /// must treat it as conflicting with everything.
    pub pending: Option<OpDesc>,
    /// The announced-but-not-completed operation itself, including any
    /// op-local state it accumulated across blocked attempts (a resolved
    /// recv deadline, a condvar wait past its enter stage, an absolute
    /// sleep time). Held *by value* in the world so a snapshot captures
    /// mid-operation progress; the driver moves it out to execute and puts
    /// it back if the op blocks.
    pub pending_op: Option<Op>,
}

/// One completed interaction between a task body and the kernel, recorded
/// (when checkpointing is enabled) so a restored run can fast-forward a
/// freshly rebuilt task coroutine to its snapshot position by feeding these
/// back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum SysLogEntry {
    /// A completed operation's result.
    Ret(SimResult<Value>),
    /// A completed runtime spawn (the child's id).
    Spawn(TaskId),
    /// A `TaskCtx::now()` observation.
    Now(u64),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct VarRec {
    pub name: String,
    pub value: Value,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct LockRec {
    pub name: String,
    pub holder: Option<TaskId>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CvarRec {
    pub name: String,
    /// FIFO of waiting tasks (each also remembers its lock in its op state).
    pub waiters: Vec<TaskId>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ChanRec {
    pub name: String,
    pub class: ChanClass,
    pub queue: VecDeque<Value>,
    pub closed: bool,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct PortRec {
    pub name: String,
    pub dir: PortDir,
    pub queue: VecDeque<Value>,
    /// Scripted inputs not yet delivered (pending arrival).
    pub remaining_inputs: usize,
}

/// A single observable output emitted by the program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutputRecord {
    /// When it was emitted (exec clock).
    pub time: u64,
    /// The emitting task.
    pub task: TaskId,
    /// The output port.
    pub port: PortId,
    /// Port name (denormalised for convenience).
    pub port_name: String,
    /// The emitted value.
    pub value: Value,
}

/// A task crash (explicit failure or panic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashRecord {
    /// When it happened (exec clock).
    pub time: u64,
    /// The crashed task.
    pub task: TaskId,
    /// Description.
    pub reason: String,
    /// Program site (or `"panic"`).
    pub site: String,
}

/// One resolved nondeterministic decision, with enough context for both
/// exact replay (by task id) and systematic search (by candidate index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// What was decided.
    pub kind: DecisionKind,
    /// How many candidates there were.
    pub n: u32,
    /// Index of the chosen candidate.
    pub chosen_index: u32,
    /// The chosen task.
    pub chosen: TaskId,
}

/// A pending scripted input (time-sorted, consumed front to back).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct PendingInput {
    pub time: u64,
    pub port: PortId,
    pub value: Value,
}

/// One recorded enabled set: every candidate task at a decision point with
/// its pending-operation conflict footprint.
pub type EnabledSet = Vec<(TaskId, Option<OpDesc>)>;

/// Chunk capacity of the per-task syscall logs. Deliberately smaller than
/// the [default](crate::history::DEFAULT_CHUNK_LEN): a snapshot copies one
/// tail *per task*, so the per-task bound is what keeps many-task worlds
/// cheap to clone.
pub(crate) const SYSLOG_CHUNK_LEN: usize = 64;

/// The fields of [`Live`], declared once in manifest order and handed
/// to `$then!`: [`Live`] is declared from them, and so is the snapshot
/// writer's encoder of the manifest's `live` map. A field written
/// `field: Vec<E> => E` is one the writer encodes element by element.
macro_rules! live_fields {
    ($then:ident) => {
        $then! {
            tasks: Vec<TaskRec> => TaskRec,
            vars: Vec<VarRec> => VarRec,
            locks: Vec<LockRec>,
            cvars: Vec<CvarRec>,
            chans: Vec<ChanRec> => ChanRec,
            ports: Vec<PortRec> => PortRec,
            /// Execution clock (virtual ticks; excludes instrumentation).
            time: u64,
            /// Total instrumentation cost charged by observers (wall ticks
            /// beyond `time`).
            wall_extra: u64,
            /// Successful operations so far.
            steps: u64,
            /// Events emitted so far.
            events: u64,
            rng: DetRng,
            /// Wake-up times for sleeping tasks and receive deadlines.
            timers: BinaryHeap<Reverse<(u64, u32)>>,
            /// Time-sorted scripted inputs not yet delivered.
            pending_inputs: VecDeque<PendingInput>,
            /// Time-sorted scheduled crashes not yet fired.
            pending_crashes: VecDeque<(u64, String)>,
            /// Time-sorted scheduled partition starts not yet fired
            /// (`(start, a, b)`).
            pending_partitions: VecDeque<(u64, String, String)>,
            /// Time-sorted scheduled partition heals not yet fired
            /// (`(heal, a, b)`).
            pending_heals: VecDeque<(u64, String, String)>,
            /// Currently active partitions, as order-normalised group-prefix
            /// pairs.
            active_partitions: BTreeSet<(String, String)>,
            /// Time-sorted scheduled restarts not yet fired.
            pending_restarts: VecDeque<(u64, String)>,
            /// Restart groups delivered by
            /// [`deliver_due`](crate::kernel::Kernel::deliver_due) and not
            /// yet respawned. The driver drains this immediately after every
            /// delivery, so it is empty at decision points (and thus in
            /// snapshots).
            restarts_due: Vec<String>,
            /// Completed restarts in firing order: `(group, base task id)` of
            /// each respawned batch. Snapshot resume replays these through
            /// the program's recovery entry point to regenerate the
            /// respawned task bodies.
            restarts_fired: Vec<(String, u32)>,
            /// Per-group environment crash counts (scheduled group kills).
            crash_counts: BTreeMap<String, u64>,
            /// Per-group restart counts.
            restart_counts: BTreeMap<String, u64>,
            counters: BTreeMap<String, i64>,
            /// Set when the run must wind down; tasks observe it and unwind.
            cancelling: bool,
            /// The final stop reason, once determined.
            stop: Option<StopReason>,
            decision_seq: u64,
            /// Network sends seen so far (indexes the drop script).
            net_sends: u64,
            /// Whether completed syscalls are being logged into
            /// [`WorldState::sys_log`] (checkpointing enabled).
            record_syslog: bool,
            /// Whether pre-decision state digests are being recorded into
            /// [`WorldState::decision_hashes`].
            hash_decisions: bool,
        }
    };
}
pub(crate) use live_fields;

macro_rules! declare_live {
    ($($(#[$doc:meta])* $field:ident: $ty:ty $(=> $elem:ty)?,)*) => {
        /// The live (non-log) half of a [`WorldState`]: every object, clock,
        /// counter and pending environment event, bounded by the number of
        /// live objects and copied whole by a snapshot clone. A snapshot
        /// manifest's `live` map decodes straight into it.
        #[derive(Clone, Deserialize)]
        pub(crate) struct Live {
            $($(#[$doc])* pub $field: $ty,)*
        }
    };
}
live_fields!(declare_live);

/// The complete snapshotable machine state of a run (see module docs).
///
/// Everything here is plain data: cloning a `WorldState` at a decision
/// point (no task granted or running) captures the run exactly, and a run
/// resumed from the clone evolves identically to the original. The
/// append-only history logs are [`ChunkedLog`]s, so the clone deep-copies
/// only the live state plus each log's bounded tail; sealed history chunks
/// are shared by reference.
#[derive(Clone)]
pub(crate) struct WorldState {
    /// The hot machine state.
    pub live: Live,
    pub trace: ChunkedLog<(EventMeta, Event)>,
    pub outputs: ChunkedLog<OutputRecord>,
    /// Inputs the program consumed, in consumption order (port name, value).
    pub inputs_seen: ChunkedLog<(String, Value)>,
    pub crashes: ChunkedLog<CrashRecord>,
    pub decisions: ChunkedLog<DecisionRecord>,
    /// Per-decision snapshot of the enabled set with each candidate's
    /// pending-operation footprint, aligned index-for-index with
    /// `decisions`. This is the conflict metadata partial-order-reduced
    /// search consumes.
    pub decision_enabled: ChunkedLog<EnabledSet>,
    /// FNV-1a digest of the machine state *before* each recorded decision,
    /// aligned index-for-index with `decisions` (digest `i` covers the
    /// world after decisions `0..i` were applied and executed). Only grows
    /// when [`hash_decisions`](Live::hash_decisions) is set.
    pub decision_hashes: ChunkedLog<u64>,
    /// Per-task log of completed syscalls since the start of the run, the
    /// raw material of fast-forward resume. Only grows when
    /// [`record_syslog`](Live::record_syslog) is set.
    pub sys_log: Vec<ChunkedLog<SysLogEntry>>,
}

impl WorldState {
    /// A fresh world: no objects and no history, its RNG seeded with
    /// `seed` and `env`'s fault schedule queued in time order.
    pub(crate) fn new(seed: u64, env: &EnvConfig) -> Self {
        fn by_time<T>(mut events: Vec<T>, time: impl Fn(&T) -> u64) -> VecDeque<T> {
            events.sort_by_key(time);
            events.into()
        }
        let crashes = env.crashes.iter().map(|c| (c.time, c.group.clone()));
        let starts = env.partitions.iter();
        let starts = starts.map(|p| (p.start, p.a.clone(), p.b.clone()));
        let heals = env.partitions.iter();
        let heals = heals.map(|p| (p.heal, p.a.clone(), p.b.clone()));
        let restarts = env.restarts.iter().map(|r| (r.time, r.group.clone()));
        let live = Live {
            tasks: Vec::new(),
            vars: Vec::new(),
            locks: Vec::new(),
            cvars: Vec::new(),
            chans: Vec::new(),
            ports: Vec::new(),
            time: 0,
            wall_extra: 0,
            steps: 0,
            events: 0,
            rng: DetRng::seed_from(seed),
            timers: BinaryHeap::new(),
            pending_inputs: VecDeque::new(),
            pending_crashes: by_time(crashes.collect(), |c| c.0),
            pending_partitions: by_time(starts.collect(), |p| p.0),
            pending_heals: by_time(heals.collect(), |p| p.0),
            active_partitions: BTreeSet::new(),
            pending_restarts: by_time(restarts.collect(), |r| r.0),
            restarts_due: Vec::new(),
            restarts_fired: Vec::new(),
            crash_counts: BTreeMap::new(),
            restart_counts: BTreeMap::new(),
            counters: BTreeMap::new(),
            cancelling: false,
            stop: None,
            decision_seq: 0,
            net_sends: 0,
            record_syslog: false,
            hash_decisions: false,
        };
        WorldState {
            live,
            trace: ChunkedLog::new(),
            outputs: ChunkedLog::new(),
            inputs_seen: ChunkedLog::new(),
            crashes: ChunkedLog::new(),
            decisions: ChunkedLog::new(),
            decision_enabled: ChunkedLog::new(),
            decision_hashes: ChunkedLog::new(),
            sys_log: Vec::new(),
        }
    }
}

/// A resumable checkpoint: a clone of the machine state at a decision
/// point, plus the scheduling policy's state at the same instant.
///
/// Produced by runs configured with
/// [`CheckpointPlan`](crate::config::CheckpointPlan) (see
/// [`RunOutput::snapshots`](crate::driver::RunOutput)); consumed by
/// [`resume_program`](crate::driver::resume_program). Resuming with the
/// snapshot's own policy replays the remainder of the original run
/// identically; resuming with an override policy forks the schedule at this
/// point.
pub struct WorldSnapshot {
    pub(crate) world: WorldState,
    pub(crate) policy: Box<dyn SchedulePolicy>,
    /// `world`'s digest, once something has asked for it.
    pub(crate) digest: OnceLock<u64>,
}

impl WorldSnapshot {
    /// The decision index this snapshot was taken at (state *before* the
    /// decision with this sequence number was made).
    pub fn at_decision(&self) -> u64 {
        self.world.live.decision_seq
    }

    /// Successful operations executed up to the snapshot point.
    pub fn steps(&self) -> u64 {
        self.world.live.steps
    }

    /// Execution-clock value at the snapshot point.
    pub fn time(&self) -> u64 {
        self.world.live.time
    }

    /// The state digest of the snapshot's world: the digest a hashed run
    /// records before decision [`at_decision`](Self::at_decision).
    /// Computed on first use and kept: an offered world's digest serves
    /// both its manifest and the run's decision, and a decoded snapshot
    /// keeps the digest its integrity check computed.
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| self.world.digest())
    }

    /// The decision path that leads to this snapshot: the chosen candidate
    /// index of each recorded decision, in order ([`at_decision`](Self::at_decision)
    /// entries).
    ///
    /// A snapshot is usable for a forced schedule prefix iff the prefix
    /// starts with the snapshot's decision path; the schedule walk checks
    /// this of every snapshot it restores in debug builds.
    pub fn decision_prefix(&self) -> impl Iterator<Item = u32> + '_ {
        self.world.decisions.iter().map(|d| d.chosen_index)
    }
}

impl Clone for WorldSnapshot {
    fn clone(&self) -> Self {
        WorldSnapshot {
            world: self.world.clone(),
            policy: self.policy.clone_box(),
            digest: self.digest.clone(),
        }
    }
}

impl core::fmt::Debug for WorldSnapshot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("WorldSnapshot")
            .field("at_decision", &self.at_decision())
            .field("steps", &self.steps())
            .field("time", &self.time())
            .finish()
    }
}

// The public `Send + Sync` promise of snapshots (world + policy clone),
// pinned at compile time: if a field ever loses `Send` or `Sync`, this
// fails to compile rather than surfacing as a distant trait error in a
// caller.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WorldState>();
    assert_send_sync::<WorldSnapshot>();
};
