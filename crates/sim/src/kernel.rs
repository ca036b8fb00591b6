//! Kernel state and operation execution.
//!
//! The kernel owns every machine object (tasks, variables, locks, condition
//! variables, channels, ports), the virtual clocks, the RNG, the pending
//! environment events, and the run's observers. The whole simulation is
//! single-threaded: task bodies are coroutines polled by the driver loop,
//! so exactly one thing touches the kernel at a time — the driver (making
//! scheduling decisions) or the operation it is executing on behalf of the
//! granted task. All methods take `&mut self`; there is no locking here.
//!
//! # The `WorldState` / shell split
//!
//! The kernel is two layers:
//!
//! - `WorldState` — every piece of *machine* state a run evolves: tasks,
//!   variables, locks, condition variables, channels, ports, clocks, RNG,
//!   pending timers/inputs/crashes, the trace, the decision stream, each
//!   parked task's announced operation (`TaskRec::pending_op`), and the
//!   per-task syscall-result log. It is plain data and `Clone`: cloning it
//!   at a decision point yields a [`WorldSnapshot`] from which the run can
//!   be resumed deterministically (restore + re-run ⇒ the identical trace).
//!   Within the world, *hot* machine state (bounded by the number of live
//!   objects) is cloned eagerly, while the append-only history logs — the
//!   trace, decisions, enabled sets, outputs, consumed inputs, crashes and
//!   syscall logs — live in [`ChunkedLog`]s whose sealed chunks are
//!   `Arc`-shared between the run and every snapshot, so snapshot cost is
//!   O(live state), independent of how long the run has been going (see
//!   [`WorldSnapshot::cost`]).
//! - The shell — everything tied to *this* execution of the run rather
//!   than the machine it simulates: observers, the scheduling policy, the
//!   nondeterminism-override hook, and collected snapshots. None of it is
//!   cloneable and none of it is needed to reconstruct the machine. (The
//!   coroutine futures themselves live one layer further out, in the
//!   driver's engine — a future is just the *continuation* of a task body;
//!   everything it has told the machine is already in the world.)
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
//! # Thread-safety of the split
//!
//! The split is also a *thread-safety* boundary. `WorldState` and
//! [`WorldSnapshot`] are `Send + Sync`: a parallel schedule explorer keeps
//! one shared pool of snapshots and hands them to worker threads, each of
//! which owns a private execution shell — its own observers, policy clone
//! ([`SchedulePolicy::clone_box`] is `Send`-safe), and its own coroutine
//! engine (futures are engine-local and never cross threads). Nothing in
//! the shell crosses threads; everything in the world may.

use crate::config::{
    ChanClass, CheckpointPlan, EnvConfig, NondetOverride, RunConfig, TimedInput, OP_COSTS,
};
use crate::conflict::OpDesc;
use crate::error::{SimError, SimResult, StopReason};
use crate::event::{DecisionKind, Event, EventMeta, Observer};
use crate::history::ChunkedLog;
use crate::ids::{ChanId, CondvarId, LockId, PortId, Site, TaskId, VarId, KERNEL_SITE};
use crate::policy::{RoundRobinPolicy, SchedulePolicy};
use crate::rng::DetRng;
use crate::snapshot::{SnapshotMark, SnapshotSink};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
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

struct ObserverSlot {
    obs: Box<dyn Observer>,
    cost: u64,
}

/// A pending scripted input (time-sorted, consumed front to back).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct PendingInput {
    time: u64,
    port: PortId,
    value: Value,
}

/// One recorded enabled set: every candidate task at a decision point with
/// its pending-operation conflict footprint.
pub type EnabledSet = Vec<(TaskId, Option<OpDesc>)>;

/// Chunk capacity of the per-task syscall logs. Deliberately smaller than
/// the [default](crate::history::DEFAULT_CHUNK_LEN): a snapshot copies one
/// tail *per task*, so the per-task bound is what keeps many-task worlds
/// cheap to clone.
const SYSLOG_CHUNK_LEN: usize = 64;

/// The complete snapshotable machine state of a run (see module docs).
///
/// Everything here is plain data: cloning a `WorldState` at a decision
/// point (no task granted or running) captures the run exactly, and a run
/// resumed from the clone evolves identically to the original. The
/// append-only history logs are [`ChunkedLog`]s, so the clone deep-copies
/// only the hot machine state plus each log's bounded tail; sealed history
/// chunks are shared by reference.
#[derive(Clone)]
pub(crate) struct WorldState {
    pub tasks: Vec<TaskRec>,
    pub vars: Vec<VarRec>,
    pub locks: Vec<LockRec>,
    pub cvars: Vec<CvarRec>,
    pub chans: Vec<ChanRec>,
    pub ports: Vec<PortRec>,

    /// Execution clock (virtual ticks; excludes instrumentation).
    pub time: u64,
    /// Total instrumentation cost charged by observers (wall ticks beyond
    /// `time`).
    pub wall_extra: u64,
    /// Successful operations so far.
    pub steps: u64,
    /// Events emitted so far.
    pub events: u64,

    pub rng: DetRng,

    /// Wake-up times for sleeping tasks and receive deadlines.
    pub timers: BinaryHeap<Reverse<(u64, u32)>>,
    /// Time-sorted scripted inputs not yet delivered.
    pub pending_inputs: VecDeque<PendingInput>,
    /// Time-sorted scheduled crashes not yet fired.
    pub pending_crashes: VecDeque<(u64, String)>,
    /// Time-sorted scheduled partition starts not yet fired
    /// (`(start, a, b)`).
    pub pending_partitions: VecDeque<(u64, String, String)>,
    /// Time-sorted scheduled partition heals not yet fired
    /// (`(heal, a, b)`).
    pub pending_heals: VecDeque<(u64, String, String)>,
    /// Currently active partitions, as order-normalised group-prefix pairs.
    pub active_partitions: BTreeSet<(String, String)>,
    /// Time-sorted scheduled restarts not yet fired.
    pub pending_restarts: VecDeque<(u64, String)>,
    /// Restart groups delivered by [`deliver_due`](Kernel::deliver_due) and
    /// not yet respawned. The driver drains this immediately after every
    /// delivery, so it is empty at decision points (and thus in snapshots).
    pub restarts_due: Vec<String>,
    /// Completed restarts in firing order: `(group, base task id)` of each
    /// respawned batch. Snapshot resume replays these through the program's
    /// recovery entry point to regenerate the respawned task bodies.
    pub restarts_fired: Vec<(String, u32)>,
    /// Per-group environment crash counts (scheduled group kills).
    pub crash_counts: BTreeMap<String, u64>,
    /// Per-group restart counts.
    pub restart_counts: BTreeMap<String, u64>,

    pub trace: ChunkedLog<(EventMeta, Event)>,

    pub outputs: ChunkedLog<OutputRecord>,
    /// Inputs the program consumed, in consumption order (port name, value).
    pub inputs_seen: ChunkedLog<(String, Value)>,
    pub counters: BTreeMap<String, i64>,
    pub crashes: ChunkedLog<CrashRecord>,
    pub decisions: ChunkedLog<DecisionRecord>,
    /// Per-decision snapshot of the enabled set with each candidate's
    /// pending-operation footprint, aligned index-for-index with
    /// `decisions`. This is the conflict metadata partial-order-reduced
    /// search consumes.
    pub decision_enabled: ChunkedLog<EnabledSet>,

    /// Set when the run must wind down; tasks observe it and unwind.
    pub cancelling: bool,
    /// The final stop reason, once determined.
    pub stop: Option<StopReason>,
    pub decision_seq: u64,
    /// Network sends seen so far (indexes the drop script).
    pub net_sends: u64,

    /// Per-task log of completed syscalls since the start of the run, the
    /// raw material of fast-forward resume. Only grows when
    /// [`record_syslog`](Self::record_syslog) is set.
    pub sys_log: Vec<ChunkedLog<SysLogEntry>>,
    /// Whether completed syscalls are being logged (checkpointing enabled).
    pub record_syslog: bool,

    /// FNV-1a digest of the machine state *before* each recorded decision,
    /// aligned index-for-index with `decisions` (digest `i` covers the
    /// world after decisions `0..i` were applied and executed). Only grows
    /// when [`hash_decisions`](Self::hash_decisions) is set.
    pub decision_hashes: ChunkedLog<u64>,
    /// Whether pre-decision state digests are being recorded.
    pub hash_decisions: bool,
}

// ---- snapshot byte accounting ------------------------------------------
//
// Estimators for the heap footprint of one element of each state
// collection, used to report what a snapshot clone copies vs. shares. All
// include `size_of` of the element itself plus its owned heap payload
// (strings, values); they are estimates, but the same estimator is applied
// to both sides of every old-vs-new comparison.

fn sz<T>() -> u64 {
    std::mem::size_of::<T>() as u64
}

fn trace_elem_bytes(e: &(EventMeta, Event)) -> u64 {
    sz::<(EventMeta, Event)>() + e.1.payload_bytes()
}

fn enabled_bytes(en: &EnabledSet) -> u64 {
    sz::<EnabledSet>() + en.len() as u64 * sz::<(TaskId, Option<OpDesc>)>()
}

fn syslog_bytes(e: &SysLogEntry) -> u64 {
    sz::<SysLogEntry>()
        + match e {
            SysLogEntry::Ret(Ok(v)) => v.byte_size(),
            SysLogEntry::Ret(Err(_)) => 16,
            SysLogEntry::Spawn(_) | SysLogEntry::Now(_) => 0,
        }
}

fn output_bytes(o: &OutputRecord) -> u64 {
    sz::<OutputRecord>() + o.port_name.len() as u64 + o.value.byte_size()
}

fn input_seen_bytes(e: &(String, Value)) -> u64 {
    sz::<(String, Value)>() + e.0.len() as u64 + e.1.byte_size()
}

fn crash_bytes(c: &CrashRecord) -> u64 {
    sz::<CrashRecord>() + c.reason.len() as u64 + c.site.len() as u64
}

fn decision_bytes(_: &DecisionRecord) -> u64 {
    sz::<DecisionRecord>()
}

fn hash_elem_bytes(_: &u64) -> u64 {
    sz::<u64>()
}

// ---- state digests ------------------------------------------------------

/// Incremental FNV-1a hasher over manually-fed bytes: the workspace-standard
/// stable hash (the golden-hash suites use the same constants), hand-rolled
/// rather than `DefaultHasher` so digests are reproducible across Rust
/// versions and platforms — promoted trace fixtures commit these values.
///
/// Words are fed as their 8 little-endian bytes, but hashing a zero byte is
/// a bare multiply by the prime, so [`u64`](Self::u64) folds a word's
/// high zero bytes into one multiply by a power of the prime. A word below
/// 256 costs one xor and one multiply, and every digest stays byte-at-a-time
/// FNV-1a's.
#[derive(Debug, Clone, Copy)]
struct StateHasher(u64);

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME.pow(k)` for `k` in `0..=8`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

impl StateHasher {
    fn new() -> Self {
        StateHasher(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    fn u64(&mut self, mut v: u64) {
        let mut h = self.0;
        let mut left = 8;
        while v > 0xff {
            h = (h ^ (v & 0xff)).wrapping_mul(FNV_PRIME);
            v >>= 8;
            left -= 1;
        }
        // `v` is the highest non-zero byte (or 0 for a zero word): hash it,
        // then the `left - 1` zero bytes above it, in one multiply.
        self.0 = (h ^ v).wrapping_mul(FNV_PRIME_POW[left]);
    }

    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u64(0),
            Some(x) => {
                self.u64(1);
                self.u64(x);
            }
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Unit => self.u64(0),
            Value::Bool(b) => {
                self.u64(1);
                self.u64(*b as u64);
            }
            Value::Int(i) => {
                self.u64(2);
                self.i64(*i);
            }
            Value::Str(s) => {
                self.u64(3);
                self.str(s);
            }
            Value::Bytes(b) => {
                self.u64(4);
                self.u64(b.len() as u64);
                self.bytes(b);
            }
            Value::List(vs) => {
                self.u64(5);
                self.u64(vs.len() as u64);
                for v in vs {
                    self.value(v);
                }
            }
        }
    }

    fn op_desc(&mut self, d: &OpDesc) {
        match d {
            OpDesc::Var { var, write } => {
                self.u64(0);
                self.u64(var.index() as u64);
                self.u64(*write as u64);
            }
            OpDesc::Lock { lock } => {
                self.u64(1);
                self.u64(lock.index() as u64);
            }
            OpDesc::CvWait { cvar, lock } => {
                self.u64(2);
                self.u64(cvar.index() as u64);
                self.u64(lock.index() as u64);
            }
            OpDesc::CvNotify { cvar } => {
                self.u64(3);
                self.u64(cvar.index() as u64);
            }
            OpDesc::Chan { chan } => {
                self.u64(4);
                self.u64(chan.index() as u64);
            }
            OpDesc::PortIn { port } => {
                self.u64(5);
                self.u64(port.index() as u64);
            }
            OpDesc::PortOut { port } => {
                self.u64(6);
                self.u64(port.index() as u64);
            }
            OpDesc::Rng => self.u64(7),
            OpDesc::Local => self.u64(8),
            OpDesc::Global => self.u64(9),
        }
    }

    fn phase(&mut self, p: &Phase) {
        match p {
            Phase::Ready => self.u64(0),
            Phase::Granted => self.u64(1),
            Phase::Running => self.u64(2),
            Phase::Blocked(b) => {
                self.u64(3);
                match b {
                    BlockOn::Lock(l) => {
                        self.u64(0);
                        self.u64(l.index() as u64);
                    }
                    BlockOn::Chan { chan, deadline } => {
                        self.u64(1);
                        self.u64(chan.index() as u64);
                        self.opt_u64(*deadline);
                    }
                    BlockOn::Cvar(c) => {
                        self.u64(2);
                        self.u64(c.index() as u64);
                    }
                    BlockOn::Port(p) => {
                        self.u64(3);
                        self.u64(p.index() as u64);
                    }
                    BlockOn::Join(t) => {
                        self.u64(4);
                        self.u64(t.index() as u64);
                    }
                    BlockOn::Timer { until } => {
                        self.u64(5);
                        self.u64(*until);
                    }
                }
            }
            Phase::Exited { ok } => {
                self.u64(4);
                self.u64(*ok as u64);
            }
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The approximate heap footprint of one [`WorldSnapshot`], split into the
/// part a snapshot clone *copies* and the part it *shares* with the run
/// that produced it (see [`WorldSnapshot::cost`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotCost {
    /// Bytes of hot machine state (tasks, vars, locks, cvars, channels,
    /// ports, timers, pending environment events, counters) — always
    /// copied, bounded by the number of live objects.
    pub live_bytes: u64,
    /// Bytes of history a clone copies: one 8-byte handle per sealed chunk
    /// plus each log's bounded mutable tail.
    pub history_cloned_bytes: u64,
    /// Bytes the full history occupies — what a structure-unaware deep
    /// clone (the pre-chunking representation) would copy.
    pub history_total_bytes: u64,
}

impl SnapshotCost {
    /// Bytes one snapshot clone actually copies: O(live state).
    pub fn cloned_bytes(&self) -> u64 {
        self.live_bytes + self.history_cloned_bytes
    }

    /// Bytes a deep (history-unaware) clone would copy: O(history).
    pub fn deep_bytes(&self) -> u64 {
        self.live_bytes + self.history_total_bytes
    }

    /// How many times fewer bytes the shared representation copies.
    pub fn reduction(&self) -> f64 {
        self.deep_bytes() as f64 / self.cloned_bytes().max(1) as f64
    }
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
        WorldState {
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
            trace: ChunkedLog::new(),
            outputs: ChunkedLog::new(),
            inputs_seen: ChunkedLog::new(),
            counters: BTreeMap::new(),
            crashes: ChunkedLog::new(),
            decisions: ChunkedLog::new(),
            decision_enabled: ChunkedLog::new(),
            cancelling: false,
            stop: None,
            decision_seq: 0,
            net_sends: 0,
            sys_log: Vec::new(),
            record_syslog: false,
            decision_hashes: ChunkedLog::new(),
            hash_decisions: false,
        }
    }

    /// Approximate heap bytes of the hot machine state a clone copies.
    fn live_bytes(&self) -> u64 {
        let tasks: u64 = self
            .tasks
            .iter()
            .map(|t| {
                sz::<TaskRec>()
                    + t.name.len() as u64
                    + t.group.len() as u64
                    + t.joiners.len() as u64 * sz::<TaskId>()
            })
            .sum();
        let vars: u64 = self
            .vars
            .iter()
            .map(|v| sz::<VarRec>() + v.name.len() as u64 + v.value.byte_size())
            .sum();
        let locks: u64 = self
            .locks
            .iter()
            .map(|l| sz::<LockRec>() + l.name.len() as u64)
            .sum();
        let cvars: u64 = self
            .cvars
            .iter()
            .map(|c| {
                sz::<CvarRec>() + c.name.len() as u64 + c.waiters.len() as u64 * sz::<TaskId>()
            })
            .sum();
        let chans: u64 = self
            .chans
            .iter()
            .map(|c| {
                sz::<ChanRec>()
                    + c.name.len() as u64
                    + c.queue
                        .iter()
                        .map(|v| sz::<Value>() + v.byte_size())
                        .sum::<u64>()
            })
            .sum();
        let ports: u64 = self
            .ports
            .iter()
            .map(|p| {
                sz::<PortRec>()
                    + p.name.len() as u64
                    + p.queue
                        .iter()
                        .map(|v| sz::<Value>() + v.byte_size())
                        .sum::<u64>()
            })
            .sum();
        let timers = self.timers.len() as u64 * sz::<Reverse<(u64, u32)>>();
        let pending_inputs: u64 = self
            .pending_inputs
            .iter()
            .map(|p| sz::<PendingInput>() + p.value.byte_size())
            .sum();
        let pending_crashes: u64 = self
            .pending_crashes
            .iter()
            .map(|(_, g)| sz::<(u64, String)>() + g.len() as u64)
            .sum();
        let faults: u64 = self
            .pending_partitions
            .iter()
            .chain(&self.pending_heals)
            .map(|(_, a, b)| sz::<(u64, String, String)>() + (a.len() + b.len()) as u64)
            .sum::<u64>()
            + self
                .active_partitions
                .iter()
                .map(|(a, b)| sz::<(String, String)>() + (a.len() + b.len()) as u64)
                .sum::<u64>()
            + self
                .pending_restarts
                .iter()
                .map(|(_, g)| sz::<(u64, String)>() + g.len() as u64)
                .sum::<u64>()
            + self
                .restarts_due
                .iter()
                .map(|g| sz::<String>() + g.len() as u64)
                .sum::<u64>()
            + self
                .restarts_fired
                .iter()
                .map(|(g, _)| sz::<(String, u32)>() + g.len() as u64)
                .sum::<u64>()
            + self
                .crash_counts
                .keys()
                .chain(self.restart_counts.keys())
                .map(|k| k.len() as u64 + 8 + 48)
                .sum::<u64>();
        let counters: u64 = self
            .counters
            .keys()
            .map(|k| k.len() as u64 + 8 + 48) // key + value + node overhead
            .sum();
        sz::<WorldState>()
            + tasks
            + vars
            + locks
            + cvars
            + chans
            + ports
            + timers
            + pending_inputs
            + pending_crashes
            + faults
            + counters
    }

    /// Bytes of history a clone of this world copies (chunk handles plus
    /// tails) and bytes the full history occupies, as
    /// `(cloned, total)`.
    fn history_bytes(&self) -> (u64, u64) {
        let mut cloned = 0;
        let mut total = 0;
        cloned += self.trace.clone_bytes(trace_elem_bytes);
        total += self.trace.total_bytes(trace_elem_bytes);
        cloned += self.outputs.clone_bytes(output_bytes);
        total += self.outputs.total_bytes(output_bytes);
        cloned += self.inputs_seen.clone_bytes(input_seen_bytes);
        total += self.inputs_seen.total_bytes(input_seen_bytes);
        cloned += self.crashes.clone_bytes(crash_bytes);
        total += self.crashes.total_bytes(crash_bytes);
        cloned += self.decisions.clone_bytes(decision_bytes);
        total += self.decisions.total_bytes(decision_bytes);
        cloned += self.decision_enabled.clone_bytes(enabled_bytes);
        total += self.decision_enabled.total_bytes(enabled_bytes);
        cloned += self.decision_hashes.clone_bytes(hash_elem_bytes);
        total += self.decision_hashes.total_bytes(hash_elem_bytes);
        for log in &self.sys_log {
            cloned += log.clone_bytes(syslog_bytes);
            total += log.total_bytes(syslog_bytes);
        }
        (cloned, total)
    }

    /// The cost split of snapshotting this world.
    pub(crate) fn snapshot_cost(&self) -> SnapshotCost {
        let (history_cloned_bytes, history_total_bytes) = self.history_bytes();
        SnapshotCost {
            live_bytes: self.live_bytes(),
            history_cloned_bytes,
            history_total_bytes,
        }
    }

    /// Sealed history chunks this world shares (same allocations) with
    /// `other` — two snapshots of the same run share their common prefix.
    fn shared_history_chunks(&self, other: &WorldState) -> usize {
        let mut shared = self.trace.shared_chunks_with(&other.trace);
        shared += self.outputs.shared_chunks_with(&other.outputs);
        shared += self.inputs_seen.shared_chunks_with(&other.inputs_seen);
        shared += self.crashes.shared_chunks_with(&other.crashes);
        shared += self.decisions.shared_chunks_with(&other.decisions);
        shared += self
            .decision_enabled
            .shared_chunks_with(&other.decision_enabled);
        shared += self
            .decision_hashes
            .shared_chunks_with(&other.decision_hashes);
        shared += self
            .sys_log
            .iter()
            .zip(&other.sys_log)
            .map(|(a, b)| a.shared_chunks_with(b))
            .sum::<usize>();
        shared
    }

    /// A deep copy sharing no history chunks with `self` — the
    /// pre-chunking snapshot representation, kept as the baseline the
    /// `snapshot_cost` benchmark measures against.
    fn unshared(&self) -> WorldState {
        let mut w = self.clone();
        w.trace = self.trace.unshared();
        w.outputs = self.outputs.unshared();
        w.inputs_seen = self.inputs_seen.unshared();
        w.crashes = self.crashes.unshared();
        w.decisions = self.decisions.unshared();
        w.decision_enabled = self.decision_enabled.unshared();
        w.decision_hashes = self.decision_hashes.unshared();
        w.sys_log = self.sys_log.iter().map(ChunkedLog::unshared).collect();
        w
    }

    /// FNV-1a digest of the live machine state (see
    /// [`decision_hashes`](Self::decision_hashes)).
    ///
    /// Covers everything that determines the run's future: clocks, step and
    /// event counts, the RNG, every task, variable, lock, condition
    /// variable, channel and port, timers, pending environment events,
    /// counters and the history *lengths* (hashing full history content
    /// would make each digest O(run length); any content divergence
    /// necessarily flows through the live state that produced it).
    /// Instrumentation cost (`wall_extra`) is deliberately excluded:
    /// attached observers differ between a recording and its replay, and
    /// recording overhead must not perturb the digest.
    pub(crate) fn digest(&self) -> u64 {
        let mut h = StateHasher::new();
        h.u64(self.time);
        h.u64(self.steps);
        h.u64(self.events);
        h.u64(self.decision_seq);
        h.u64(self.net_sends);
        h.u64(self.cancelling as u64);
        for w in self.rng.digest_words() {
            h.u64(w);
        }
        h.u64(self.tasks.len() as u64);
        for t in &self.tasks {
            h.phase(&t.phase);
            h.u64(t.killed as u64);
            h.u64(t.mem_used);
            h.u64(t.joiners.len() as u64);
            for j in &t.joiners {
                h.u64(j.index() as u64);
            }
            match &t.pending {
                None => h.u64(0),
                Some(d) => {
                    h.u64(1);
                    h.op_desc(d);
                }
            }
            // Hash the op-local progress the in-flight op has accumulated
            // (the historical `InflightPatch` encoding, kept byte-identical
            // so golden digests survive the coroutine-engine refactor).
            match &t.pending_op {
                Some(Op::CvWait {
                    stage: CvStage::Relock,
                    ..
                }) => h.u64(1),
                Some(Op::Recv {
                    deadline: Some(d), ..
                }) => {
                    h.u64(2);
                    h.u64(*d);
                }
                Some(Op::Sleep { until: Some(u), .. }) => {
                    h.u64(3);
                    h.u64(*u);
                }
                _ => h.u64(0),
            }
        }
        h.u64(self.vars.len() as u64);
        for v in &self.vars {
            h.value(&v.value);
        }
        h.u64(self.locks.len() as u64);
        for l in &self.locks {
            h.opt_u64(l.holder.map(|t| t.index() as u64));
        }
        h.u64(self.cvars.len() as u64);
        for c in &self.cvars {
            h.u64(c.waiters.len() as u64);
            for w in &c.waiters {
                h.u64(w.index() as u64);
            }
        }
        h.u64(self.chans.len() as u64);
        for c in &self.chans {
            h.u64(c.closed as u64);
            h.u64(c.queue.len() as u64);
            for v in &c.queue {
                h.value(v);
            }
        }
        h.u64(self.ports.len() as u64);
        for p in &self.ports {
            h.u64(p.remaining_inputs as u64);
            h.u64(p.queue.len() as u64);
            for v in &p.queue {
                h.value(v);
            }
        }
        // BinaryHeap iteration order is unspecified; hash the sorted view,
        // sorted in a buffer each thread reuses across digests (a receive
        // that completes before its deadline leaves its timer queued, so
        // dozens are common).
        thread_local! {
            static TIMERS: RefCell<Vec<(u64, u32)>> = const { RefCell::new(Vec::new()) };
        }
        TIMERS.with_borrow_mut(|timers| {
            timers.clear();
            timers.extend(self.timers.iter().map(|r| r.0));
            timers.sort_unstable();
            h.u64(timers.len() as u64);
            for &(when, seq) in timers.iter() {
                h.u64(when);
                h.u64(seq as u64);
            }
        });
        h.u64(self.pending_inputs.len() as u64);
        for p in &self.pending_inputs {
            h.u64(p.time);
            h.u64(p.port.index() as u64);
            h.value(&p.value);
        }
        h.u64(self.pending_crashes.len() as u64);
        for (time, group) in &self.pending_crashes {
            h.u64(*time);
            h.str(group);
        }
        // Fault-plane state is hashed only when present, so clean-run
        // digests (pinned by the golden-hash suites and promoted fixtures)
        // are byte-identical to the pre-fault-plane encoding.
        if !self.pending_partitions.is_empty() {
            h.u64(self.pending_partitions.len() as u64);
            for (time, a, b) in &self.pending_partitions {
                h.u64(*time);
                h.str(a);
                h.str(b);
            }
        }
        if !self.pending_heals.is_empty() {
            h.u64(self.pending_heals.len() as u64);
            for (time, a, b) in &self.pending_heals {
                h.u64(*time);
                h.str(a);
                h.str(b);
            }
        }
        if !self.active_partitions.is_empty() {
            h.u64(self.active_partitions.len() as u64);
            for (a, b) in &self.active_partitions {
                h.str(a);
                h.str(b);
            }
        }
        if !self.pending_restarts.is_empty() {
            h.u64(self.pending_restarts.len() as u64);
            for (time, group) in &self.pending_restarts {
                h.u64(*time);
                h.str(group);
            }
        }
        if !self.restarts_due.is_empty() {
            h.u64(self.restarts_due.len() as u64);
            for group in &self.restarts_due {
                h.str(group);
            }
        }
        if !self.restarts_fired.is_empty() {
            h.u64(self.restarts_fired.len() as u64);
            for (group, base) in &self.restarts_fired {
                h.str(group);
                h.u64(*base as u64);
            }
        }
        if !self.crash_counts.is_empty() {
            h.u64(self.crash_counts.len() as u64);
            for (group, n) in &self.crash_counts {
                h.str(group);
                h.u64(*n);
            }
        }
        if !self.restart_counts.is_empty() {
            h.u64(self.restart_counts.len() as u64);
            for (group, n) in &self.restart_counts {
                h.str(group);
                h.u64(*n);
            }
        }
        h.u64(self.counters.len() as u64);
        for (name, total) in &self.counters {
            h.str(name);
            h.i64(*total);
        }
        h.u64(self.outputs.len() as u64);
        h.u64(self.inputs_seen.len() as u64);
        h.u64(self.crashes.len() as u64);
        h.finish()
    }
}

/// A resumable checkpoint: a clone of the machine state at a decision
/// point, plus the scheduling policy's state at the same instant.
///
/// Produced by runs configured with [`CheckpointPlan`]
/// (see [`RunOutput::snapshots`](crate::driver::RunOutput)); consumed by
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
        self.world.decision_seq
    }

    /// Successful operations executed up to the snapshot point.
    pub fn steps(&self) -> u64 {
        self.world.steps
    }

    /// Execution-clock value at the snapshot point.
    pub fn time(&self) -> u64 {
        self.world.time
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
    /// Parallel schedule explorers use this to re-bind a queued subtree job
    /// to the deepest snapshot *compatible with the job's forced prefix* at
    /// execution time — a snapshot is usable for a prefix iff the prefix
    /// starts with the snapshot's decision path.
    pub fn decision_prefix(&self) -> impl Iterator<Item = u32> + '_ {
        self.world.decisions.iter().map(|d| d.chosen_index)
    }

    /// The approximate byte cost of this snapshot: what a clone copies
    /// (hot state + history chunk handles + history tails) vs. what a
    /// history-unaware deep clone would copy. `cost().cloned_bytes()` is
    /// O(live state) — independent of how long the run had been going —
    /// while `cost().deep_bytes()` grows with the trace.
    pub fn cost(&self) -> SnapshotCost {
        self.world.snapshot_cost()
    }

    /// Number of sealed history chunks this snapshot shares (same
    /// allocation) with `other`. Snapshots of the same run share their
    /// entire common history prefix; a [`deep_clone`](Self::deep_clone)
    /// shares nothing.
    pub fn shared_history_chunks(&self, other: &WorldSnapshot) -> usize {
        self.world.shared_history_chunks(&other.world)
    }

    /// A clone sharing no history chunks with `self` — the pre-chunking
    /// O(history) snapshot representation. Exists so the `snapshot_cost`
    /// benchmark (and regression tests) can measure the old cost against
    /// the new one on identical state; exploration never calls this.
    pub fn deep_clone(&self) -> WorldSnapshot {
        WorldSnapshot {
            world: self.world.unshared(),
            policy: self.policy.clone_box(),
            digest: self.digest.clone(),
        }
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

// The load-bearing bounds of parallel exploration, pinned at compile time:
// snapshots (world + policy clone) move between — and are shared by — the
// worker threads of a parallel explorer. If a field ever loses `Send` or
// `Sync`, this fails to compile rather than surfacing as a distant trait
// error in `dd-replay`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WorldState>();
    assert_send_sync::<WorldSnapshot>();
};

/// The machine state plus the execution shell. See module docs for the
/// threading discipline and the `WorldState`/shell split.
pub(crate) struct Kernel {
    /// The snapshotable machine state.
    pub world: WorldState,

    // ---- the shell: this execution's I/O and observation plumbing ------
    pub env: EnvConfig,
    observers: Vec<ObserverSlot>,
    pub policy: Box<dyn SchedulePolicy>,
    pub nondet_override: Option<Box<dyn NondetOverride>>,
    /// Runtime-spawn ceiling (from `RunConfig::max_tasks`): a spawn that
    /// would push `world.tasks` past this fails with
    /// [`SimError::TaskLimit`] instead of growing the world.
    pub max_tasks: u64,
    /// When to snapshot the world (set from `RunConfig::checkpoints`).
    pub checkpoints: Option<CheckpointPlan>,
    /// Snapshots taken so far, in increasing decision order.
    pub snapshots: Vec<WorldSnapshot>,
    /// When set, snapshots the plan calls for are offered to this sink
    /// (spilled) instead of pushed onto `snapshots`.
    pub sink: Option<Box<dyn SnapshotSink>>,
    /// Marks of the offers the sink kept, in increasing decision order.
    pub spilled: Vec<SnapshotMark>,
    /// Sink write failures, in occurrence order (the run keeps going).
    pub spill_errors: Vec<String>,
    /// The digest of `world` as it stands, when the offer just made at
    /// this decision point computed one: the decision that follows
    /// records it rather than hashing the same world again.
    offered_digest: Option<u64>,
    /// Decision index the world stood at when this kernel was built: `0`
    /// for a fresh world, the snapshot's decision for a restored one. The
    /// driver skips re-snapshotting at this index — a resumed run's caller,
    /// by definition, already holds that snapshot.
    pub started_at: u64,
}

/// Outcome of attempting an operation.
pub(crate) enum Attempt {
    /// The operation completed (possibly with an error result).
    Done(SimResult<Value>),
    /// The operation cannot proceed; the task must block.
    Block(BlockOn),
}

/// Stage of a condition-variable wait (the op is re-attempted across wakes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum CvStage {
    /// Not yet enqueued: release the lock and start waiting.
    Enter,
    /// Was notified: reacquire the lock.
    Relock,
}

/// An operation a task asks the kernel to perform.
///
/// Ops are re-attempted after blocking, so variants carry any state that
/// must persist across attempts (e.g. [`CvStage`], resolved sleep deadline).
/// Between attempts the op lives in [`TaskRec::pending_op`] — part of the
/// snapshotable world — so it must be `Clone`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Op {
    Read {
        var: VarId,
        site: Site,
    },
    Write {
        var: VarId,
        value: Value,
        site: Site,
    },
    Lock {
        lock: LockId,
        site: Site,
    },
    Unlock {
        lock: LockId,
        site: Site,
    },
    CvWait {
        cvar: CondvarId,
        lock: LockId,
        stage: CvStage,
        site: Site,
    },
    CvNotify {
        cvar: CondvarId,
        all: bool,
        site: Site,
    },
    Send {
        chan: ChanId,
        value: Value,
        site: Site,
    },
    Recv {
        chan: ChanId,
        deadline: Option<u64>,
        timeout: Option<u64>,
        site: Site,
    },
    CloseChan {
        chan: ChanId,
        site: Site,
    },
    ReadInput {
        port: PortId,
        site: Site,
    },
    WriteOutput {
        port: PortId,
        value: Value,
        site: Site,
    },
    Probe {
        name: &'static str,
        value: Value,
        site: Site,
    },
    Count {
        name: &'static str,
        delta: i64,
        site: Site,
    },
    Rng {
        bound: u64,
        site: Site,
    },
    Sleep {
        until: Option<u64>,
        ticks: u64,
        site: Site,
    },
    Yield {
        site: Site,
    },
    Alloc {
        bytes: u64,
        site: Site,
    },
    Free {
        bytes: u64,
        site: Site,
    },
    Join {
        task: TaskId,
        site: Site,
    },
    Crash {
        reason: String,
        site: Site,
    },
    StopRun {
        site: Site,
    },
}

impl Op {
    /// The conflict footprint of this operation (see [`OpDesc`]).
    pub(crate) fn desc(&self) -> OpDesc {
        match self {
            Op::Read { var, .. } => OpDesc::Var {
                var: *var,
                write: false,
            },
            Op::Write { var, .. } => OpDesc::Var {
                var: *var,
                write: true,
            },
            Op::Lock { lock, .. } | Op::Unlock { lock, .. } => OpDesc::Lock { lock: *lock },
            Op::CvWait { cvar, lock, .. } => OpDesc::CvWait {
                cvar: *cvar,
                lock: *lock,
            },
            Op::CvNotify { cvar, .. } => OpDesc::CvNotify { cvar: *cvar },
            Op::Send { chan, .. } | Op::Recv { chan, .. } | Op::CloseChan { chan, .. } => {
                OpDesc::Chan { chan: *chan }
            }
            Op::ReadInput { port, .. } => OpDesc::PortIn { port: *port },
            Op::WriteOutput { port, .. } => OpDesc::PortOut { port: *port },
            Op::Rng { .. } => OpDesc::Rng,
            // Probes and counters only observe task-local values; sleeps,
            // yields, allocations and joins touch no shared program state.
            Op::Probe { .. }
            | Op::Count { .. }
            | Op::Sleep { .. }
            | Op::Yield { .. }
            | Op::Alloc { .. }
            | Op::Free { .. }
            | Op::Join { .. } => OpDesc::Local,
            // Crashing or stopping the run changes what every other task
            // gets to execute.
            Op::Crash { .. } | Op::StopRun { .. } => OpDesc::Global,
        }
    }
}

impl Kernel {
    /// Builds the execution shell around `world` — a fresh
    /// [`WorldState::new`] or one restored from a snapshot — under `cfg`'s
    /// environment, run bounds, checkpoint plan and digest switch, taking
    /// its nondeterminism override and snapshot sink.
    ///
    /// Nothing per-task is reconstructed here: for a restored world the
    /// driver's engine rebuilds each started task's coroutine by
    /// fast-forwarding its body through the world's retained syscall log
    /// (see `driver::resume_program`).
    pub fn new(
        mut world: WorldState,
        policy: Box<dyn SchedulePolicy>,
        observers: Vec<Box<dyn Observer>>,
        cfg: &mut RunConfig,
    ) -> Self {
        world.record_syslog = cfg.checkpoints.is_some();
        world.hash_decisions = cfg.hash_decisions;
        Kernel {
            started_at: world.decision_seq,
            world,
            env: cfg.env.clone(),
            observers: observers
                .into_iter()
                .map(|obs| ObserverSlot { obs, cost: 0 })
                .collect(),
            policy,
            nondet_override: cfg.nondet_override.take(),
            max_tasks: cfg.max_tasks,
            checkpoints: cfg.checkpoints,
            snapshots: Vec::new(),
            sink: cfg.snapshot_sink.take(),
            spilled: Vec::new(),
            spill_errors: Vec::new(),
            offered_digest: None,
        }
    }

    /// Clones the world (and policy) into a [`WorldSnapshot`].
    ///
    /// Must only be called at a decision point: no task granted or running.
    pub fn take_snapshot(&mut self) -> WorldSnapshot {
        self.debug_assert_decision_point();
        WorldSnapshot {
            world: self.world.clone(),
            policy: self.policy.clone_box(),
            digest: OnceLock::new(),
        }
    }

    /// Offers the world and policy to the attached sink, lent for the call
    /// rather than cloned: both move into a [`WorldSnapshot`] and back once
    /// the sink returns. A kept offer's mark goes onto `spilled`, a write
    /// failure onto `spill_errors`. A digest the sink computed is kept for
    /// the decision that follows.
    ///
    /// Must only be called at a decision point, with a sink attached. Kept
    /// out of line, so the driver loop every run executes does not grow by
    /// the code only spilling runs need.
    #[inline(never)]
    pub fn offer_snapshot(&mut self) {
        self.debug_assert_decision_point();
        let sink = self.sink.as_mut().expect("offer_snapshot needs a sink");
        let snap = WorldSnapshot {
            world: std::mem::replace(&mut self.world, WorldState::new(0, &EnvConfig::clean())),
            policy: std::mem::replace(&mut self.policy, Box::new(RoundRobinPolicy::new())),
            digest: OnceLock::new(),
        };
        let offered = sink.offer(&snap);
        (self.world, self.policy) = (snap.world, snap.policy);
        self.offered_digest = snap.digest.into_inner();
        match offered {
            Ok(Some(id)) => self.spilled.push(SnapshotMark {
                decision: self.world.decision_seq,
                step: self.world.steps,
                time: self.world.time,
                id,
            }),
            Ok(None) => {}
            Err(e) => self.spill_errors.push(e),
        }
    }

    fn debug_assert_decision_point(&self) {
        debug_assert!(
            self.world
                .tasks
                .iter()
                .all(|t| !matches!(t.phase, Phase::Granted | Phase::Running)),
            "snapshots are only valid at decision points"
        );
    }

    /// Appends a completed-syscall log entry for `task` (when enabled).
    pub(crate) fn log_syscall(&mut self, task: TaskId, entry: SysLogEntry) {
        if self.world.record_syslog {
            self.world.sys_log[task.index()].push(entry);
        }
    }

    // ---- registration (setup time and runtime) -------------------------

    pub fn add_task(&mut self, name: &str, group: &str, parent: Option<TaskId>) -> TaskId {
        let id = TaskId(self.world.tasks.len() as u32);
        let mem_budget = self.env.mem_budget.get(group).copied();
        self.world.tasks.push(TaskRec {
            name: name.to_owned(),
            group: group.to_owned(),
            phase: Phase::Ready,
            killed: false,
            joiners: Vec::new(),
            mem_used: 0,
            mem_budget,
            pending: None,
            pending_op: None,
        });
        self.world
            .sys_log
            .push(ChunkedLog::with_chunk_len(SYSLOG_CHUNK_LEN));
        self.emit(Event::TaskSpawn {
            parent,
            child: id,
            name: name.to_owned(),
            group: group.to_owned(),
        });
        id
    }

    pub fn add_var(&mut self, name: &str, init: Value) -> VarId {
        let id = VarId(self.world.vars.len() as u32);
        self.world.vars.push(VarRec {
            name: name.to_owned(),
            value: init,
        });
        id
    }

    pub fn add_lock(&mut self, name: &str) -> LockId {
        let id = LockId(self.world.locks.len() as u32);
        self.world.locks.push(LockRec {
            name: name.to_owned(),
            holder: None,
        });
        id
    }

    pub fn add_cvar(&mut self, name: &str) -> CondvarId {
        let id = CondvarId(self.world.cvars.len() as u32);
        self.world.cvars.push(CvarRec {
            name: name.to_owned(),
            waiters: Vec::new(),
        });
        id
    }

    pub fn add_chan(&mut self, name: &str, class: ChanClass) -> ChanId {
        let id = ChanId(self.world.chans.len() as u32);
        self.world.chans.push(ChanRec {
            name: name.to_owned(),
            class,
            queue: VecDeque::new(),
            closed: false,
        });
        id
    }

    pub fn add_port(&mut self, name: &str, dir: PortDir) -> PortId {
        let id = PortId(self.world.ports.len() as u32);
        self.world.ports.push(PortRec {
            name: name.to_owned(),
            dir,
            queue: VecDeque::new(),
            remaining_inputs: 0,
        });
        id
    }

    /// Loads the input script (after ports exist). Unknown port names are an
    /// error, to catch script/program mismatches early.
    pub fn load_inputs(
        &mut self,
        script: impl Iterator<Item = (String, Vec<TimedInput>)>,
    ) -> Result<(), String> {
        let mut all: Vec<PendingInput> = Vec::new();
        for (port_name, inputs) in script {
            let port = self
                .world
                .ports
                .iter()
                .position(|p| p.name == port_name && p.dir == PortDir::In)
                .map(|i| PortId(i as u32))
                .ok_or_else(|| format!("input script references unknown port {port_name:?}"))?;
            self.world.ports[port.index()].remaining_inputs += inputs.len();
            all.extend(inputs.into_iter().map(|t| PendingInput {
                time: t.time,
                port,
                value: t.value,
            }));
        }
        all.sort_by_key(|p| p.time);
        self.world.pending_inputs = all.into();
        Ok(())
    }

    // ---- event plumbing -------------------------------------------------

    /// Publishes an event to the trace and all observers, charging their
    /// instrumentation costs to the wall clock.
    pub fn emit(&mut self, event: Event) {
        self.world.events += 1;
        let meta = EventMeta {
            step: self.world.steps,
            time: self.world.time,
        };
        for slot in &mut self.observers {
            let c = slot.obs.on_event(&meta, &event);
            slot.cost += c;
            self.world.wall_extra += c;
        }
        self.world.trace.push((meta, event));
    }

    /// Resolves a nondeterministic decision through the policy.
    ///
    /// Decisions with a single candidate are trivial and are neither sent to
    /// the policy nor logged — this keeps decision streams schedule-portable.
    /// A policy error (replay divergence) sets the stop reason and returns
    /// `None`.
    pub fn decide(&mut self, kind: DecisionKind, candidates: &[TaskId]) -> Option<TaskId> {
        debug_assert!(!candidates.is_empty());
        debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]));
        if candidates.len() == 1 {
            // Forced grants stay invisible to logs, digests and events, but
            // order-guided policies still need to see them go by.
            let only = candidates[0];
            let pending = self.world.tasks[only.index()].pending;
            self.policy.note_forced(only, pending.as_ref());
            return Some(only);
        }
        let enabled: EnabledSet = candidates
            .iter()
            .map(|&t| (t, self.world.tasks[t.index()].pending))
            .collect();
        let point = crate::policy::DecisionPoint {
            seq: self.world.decision_seq,
            kind,
            candidates,
            enabled: &enabled,
        };
        // Digest the pre-decision machine state (covering every decision
        // already applied and executed) before the policy resolves this one,
        // so replay can localise the first diverging decision. Pushed even
        // when the policy aborts the run: a strict replay that forced a
        // wrong earlier choice still surfaces the digest covering it, so
        // divergence localisation sees the drift rather than the abort.
        // Never emits an event and never charges cost: golden traces must
        // not move.
        let offered = self.offered_digest.take();
        if self.world.hash_decisions {
            let digest = offered.unwrap_or_else(|| self.world.digest());
            debug_assert!(
                offered.is_none_or(|d| d == self.world.digest()),
                "the offered world's digest is stale at decision {}",
                self.world.decision_seq
            );
            self.world.decision_hashes.push(digest);
        }
        let decided = self.policy.decide(&point);
        match decided {
            Ok(idx) if idx < candidates.len() => {
                self.world.decision_seq += 1;
                let chosen = candidates[idx];
                self.world.decision_enabled.push(enabled);
                self.world.decisions.push(DecisionRecord {
                    kind,
                    n: candidates.len() as u32,
                    chosen_index: idx as u32,
                    chosen,
                });
                self.emit(Event::Decision {
                    kind,
                    candidates: candidates.to_vec(),
                    chosen,
                });
                Some(chosen)
            }
            Ok(bad) => {
                self.world.stop = Some(StopReason::ReplayDivergence {
                    step: self.world.decision_seq,
                    detail: format!("policy returned out-of-range index {bad}"),
                });
                None
            }
            Err(reason) => {
                self.world.stop = Some(reason);
                None
            }
        }
    }

    // ---- wake helpers ---------------------------------------------------

    pub(crate) fn wake(&mut self, task: TaskId) {
        let rec = &mut self.world.tasks[task.index()];
        if !rec.killed && matches!(rec.phase, Phase::Blocked(_)) {
            rec.phase = Phase::Ready;
        }
    }

    fn wake_lock_waiters(&mut self, lock: LockId) {
        let waiting: Vec<TaskId> = self
            .world
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.phase, Phase::Blocked(BlockOn::Lock(l)) if l == lock))
            .map(|(i, _)| TaskId(i as u32))
            .collect();
        for t in waiting {
            self.wake(t);
        }
    }

    fn wake_chan_waiters(&mut self, chan: ChanId) {
        let waiting: Vec<TaskId> = self
            .world
            .tasks
            .iter()
            .enumerate()
            .filter(
                |(_, t)| matches!(t.phase, Phase::Blocked(BlockOn::Chan { chan: c, .. }) if c == chan),
            )
            .map(|(i, _)| TaskId(i as u32))
            .collect();
        for t in waiting {
            self.wake(t);
        }
    }

    fn wake_port_waiters(&mut self, port: PortId) {
        let waiting: Vec<TaskId> = self
            .world
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.phase, Phase::Blocked(BlockOn::Port(p)) if p == port))
            .map(|(i, _)| TaskId(i as u32))
            .collect();
        for t in waiting {
            self.wake(t);
        }
    }

    // ---- environment ----------------------------------------------------

    /// Earliest pending wake-up time (timer, input, crash, partition edge
    /// or restart), if any.
    pub fn next_pending_time(&self) -> Option<u64> {
        let t1 = self.world.timers.peek().map(|Reverse((t, _))| *t);
        let t2 = self.world.pending_inputs.front().map(|p| p.time);
        let t3 = self.world.pending_crashes.front().map(|c| c.0);
        let t4 = self.world.pending_partitions.front().map(|p| p.0);
        let t5 = self.world.pending_heals.front().map(|p| p.0);
        let t6 = self.world.pending_restarts.front().map(|r| r.0);
        [t1, t2, t3, t4, t5, t6].into_iter().flatten().min()
    }

    /// Delivers every input, timer, crash, partition edge and restart due
    /// at or before the current time. Returns `true` if anything was
    /// delivered. Delivered restarts are staged in
    /// [`WorldState::restarts_due`]; the driver respawns them through the
    /// program's recovery entry point right after this returns.
    pub fn deliver_due(&mut self) -> bool {
        let mut any = false;
        while self
            .world
            .pending_inputs
            .front()
            .is_some_and(|p| p.time <= self.world.time)
        {
            let p = self
                .world
                .pending_inputs
                .pop_front()
                .expect("checked non-empty");
            self.world.ports[p.port.index()]
                .queue
                .push_back(p.value.clone());
            self.world.ports[p.port.index()].remaining_inputs -= 1;
            self.emit(Event::InputArrival {
                port: p.port,
                value: p.value,
            });
            self.wake_port_waiters(p.port);
            any = true;
        }
        while self
            .world
            .timers
            .peek()
            .is_some_and(|Reverse((t, _))| *t <= self.world.time)
        {
            let Reverse((due, tid)) = self.world.timers.pop().expect("checked non-empty");
            let task = TaskId(tid);
            let rec = &self.world.tasks[task.index()];
            let fire = match rec.phase {
                Phase::Blocked(BlockOn::Timer { until }) => until <= self.world.time,
                Phase::Blocked(BlockOn::Chan {
                    deadline: Some(d), ..
                }) => d <= self.world.time,
                _ => false,
            };
            let _ = due;
            if fire {
                self.wake(task);
                any = true;
            }
        }
        while self
            .world
            .pending_crashes
            .front()
            .is_some_and(|c| c.0 <= self.world.time)
        {
            let (_, group) = self
                .world
                .pending_crashes
                .pop_front()
                .expect("checked non-empty");
            self.kill_group(&group);
            any = true;
        }
        while self
            .world
            .pending_partitions
            .front()
            .is_some_and(|p| p.0 <= self.world.time)
        {
            let (_, a, b) = self
                .world
                .pending_partitions
                .pop_front()
                .expect("checked non-empty");
            let pair = if a <= b { (a, b) } else { (b, a) };
            self.world.active_partitions.insert(pair.clone());
            self.emit(Event::PartitionStart {
                a: pair.0,
                b: pair.1,
            });
            any = true;
        }
        while self
            .world
            .pending_heals
            .front()
            .is_some_and(|p| p.0 <= self.world.time)
        {
            let (_, a, b) = self
                .world
                .pending_heals
                .pop_front()
                .expect("checked non-empty");
            let pair = if a <= b { (a, b) } else { (b, a) };
            self.world.active_partitions.remove(&pair);
            self.emit(Event::PartitionHeal {
                a: pair.0,
                b: pair.1,
            });
            any = true;
        }
        while self
            .world
            .pending_restarts
            .front()
            .is_some_and(|r| r.0 <= self.world.time)
        {
            let (_, group) = self
                .world
                .pending_restarts
                .pop_front()
                .expect("checked non-empty");
            *self.world.restart_counts.entry(group.clone()).or_insert(0) += 1;
            self.world.restarts_due.push(group);
            any = true;
        }
        any
    }

    /// Whether an active partition separates `task`'s group from the
    /// failure domain that owns channel `chan`.
    ///
    /// The receiving domain is derived from the channel name: everything
    /// before the first `.` (the convention distributed workloads use for
    /// node-owned channels, e.g. `server0.data`). Matching is by group-name
    /// *prefix* in both directions, so a partition between `server0` and
    /// `client` cuts every client group off from `server0`'s channels.
    /// Purely a function of the environment schedule and the clock — no RNG
    /// is consumed, so partitions stay input nondeterminism.
    fn partitioned(&self, task: TaskId, chan: ChanId) -> bool {
        if self.world.active_partitions.is_empty() {
            return false;
        }
        let sender = &self.world.tasks[task.index()].group;
        let chan_name = &self.world.chans[chan.index()].name;
        let receiver = chan_name.split('.').next().unwrap_or(chan_name);
        self.world.active_partitions.iter().any(|(a, b)| {
            (sender.starts_with(a.as_str()) && receiver.starts_with(b.as_str()))
                || (sender.starts_with(b.as_str()) && receiver.starts_with(a.as_str()))
        })
    }

    /// Kills every task in `group` (node crash).
    pub fn kill_group(&mut self, group: &str) {
        *self.world.crash_counts.entry(group.to_owned()).or_insert(0) += 1;
        let victims: Vec<TaskId> = self
            .world
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                t.group == group && !t.killed && !matches!(t.phase, Phase::Exited { .. })
            })
            .map(|(i, _)| TaskId(i as u32))
            .collect();
        for &t in &victims {
            self.world.tasks[t.index()].killed = true;
            // Dead tasks cannot be woken by condition variables.
            for cv in &mut self.world.cvars {
                cv.waiters.retain(|&w| w != t);
            }
            self.emit(Event::TaskKilled {
                task: t,
                reason: format!("group {group:?} crashed"),
            });
            // A killed task will never exit on its own; release joiners now.
            let joiners = std::mem::take(&mut self.world.tasks[t.index()].joiners);
            for j in joiners {
                self.wake(j);
            }
        }
        // A group kill models a *process* crash: in-process mutexes die with
        // it. Force-release every lock a victim held so survivors (and tasks
        // respawned by recovery) are not deadlocked on an orphaned holder.
        for l in 0..self.world.locks.len() {
            let lock = LockId(l as u32);
            match self.world.locks[l].holder {
                Some(h) if victims.contains(&h) => {
                    self.world.locks[l].holder = None;
                    self.emit(Event::LockRelease {
                        task: h,
                        lock,
                        site: KERNEL_SITE.into(),
                    });
                    self.wake_lock_waiters(lock);
                }
                _ => {}
            }
        }
        self.emit(Event::GroupKilled {
            group: group.to_owned(),
            tasks: victims,
        });
    }

    // ---- operation execution --------------------------------------------

    /// Attempts `op` on behalf of `task`.
    ///
    /// On success the execution clock advances by the op's cost and the
    /// corresponding events are emitted. On `Block` nothing is charged.
    pub fn exec_op(&mut self, task: TaskId, op: &mut Op) -> Attempt {
        match op {
            Op::Read { var, site } => {
                let actual = self.world.vars[var.index()].value.clone();
                let value = match &mut self.nondet_override {
                    Some(h) => h.override_read(task, *var, &actual).unwrap_or(actual),
                    None => actual,
                };
                self.charge(OP_COSTS.read_cost(value.byte_size()));
                self.emit(Event::Read {
                    task,
                    var: *var,
                    value: value.clone(),
                    site: (*site).into(),
                });
                Attempt::Done(Ok(value))
            }
            Op::Write { var, value, site } => {
                self.world.vars[var.index()].value = value.clone();
                self.charge(OP_COSTS.write_cost(value.byte_size()));
                self.emit(Event::Write {
                    task,
                    var: *var,
                    value: value.clone(),
                    site: (*site).into(),
                });
                Attempt::Done(Ok(Value::Unit))
            }
            Op::Lock { lock, site } => {
                let rec = &mut self.world.locks[lock.index()];
                match rec.holder {
                    Some(h) if h != task => Attempt::Block(BlockOn::Lock(*lock)),
                    Some(_) => Attempt::Done(Err(SimError::Internal(format!(
                        "task {task} re-acquired lock {lock} (not reentrant)"
                    )))),
                    None => {
                        rec.holder = Some(task);
                        self.charge(OP_COSTS.lock);
                        self.emit(Event::LockAcquire {
                            task,
                            lock: *lock,
                            site: (*site).into(),
                        });
                        Attempt::Done(Ok(Value::Unit))
                    }
                }
            }
            Op::Unlock { lock, site } => {
                let rec = &mut self.world.locks[lock.index()];
                if rec.holder != Some(task) {
                    return Attempt::Done(Err(SimError::Internal(format!(
                        "task {task} released lock {lock} it does not hold"
                    ))));
                }
                rec.holder = None;
                self.charge(OP_COSTS.lock);
                self.emit(Event::LockRelease {
                    task,
                    lock: *lock,
                    site: (*site).into(),
                });
                self.wake_lock_waiters(*lock);
                Attempt::Done(Ok(Value::Unit))
            }
            Op::CvWait {
                cvar,
                lock,
                stage,
                site,
            } => match *stage {
                CvStage::Enter => {
                    let lrec = &mut self.world.locks[lock.index()];
                    if lrec.holder != Some(task) {
                        return Attempt::Done(Err(SimError::Internal(format!(
                            "cv wait on {cvar} without holding {lock}"
                        ))));
                    }
                    lrec.holder = None;
                    self.world.cvars[cvar.index()].waiters.push(task);
                    self.charge(OP_COSTS.lock);
                    self.emit(Event::CondWait {
                        task,
                        cvar: *cvar,
                        lock: *lock,
                        site: (*site).into(),
                    });
                    self.wake_lock_waiters(*lock);
                    *stage = CvStage::Relock;
                    Attempt::Block(BlockOn::Cvar(*cvar))
                }
                CvStage::Relock => {
                    // We were notified; reacquire the lock (may block again).
                    let rec = &mut self.world.locks[lock.index()];
                    match rec.holder {
                        Some(h) if h != task => Attempt::Block(BlockOn::Lock(*lock)),
                        Some(_) => Attempt::Done(Err(SimError::Internal(
                            "cv relock while already holding".into(),
                        ))),
                        None => {
                            rec.holder = Some(task);
                            self.charge(OP_COSTS.lock);
                            self.emit(Event::LockAcquire {
                                task,
                                lock: *lock,
                                site: (*site).into(),
                            });
                            Attempt::Done(Ok(Value::Unit))
                        }
                    }
                }
            },
            Op::CvNotify { cvar, all, site } => {
                let queue = &mut self.world.cvars[cvar.index()].waiters;
                let woken: Vec<TaskId> = if queue.is_empty() {
                    Vec::new()
                } else if *all {
                    // Broadcast drains the queue in place — no copy of a
                    // possibly-long waiter list.
                    std::mem::take(queue)
                } else {
                    // Single wake: the policy wants candidates sorted by
                    // id while the queue keeps FIFO order, and `decide`
                    // needs the kernel mutably — so only this path pays
                    // for a sorted copy.
                    let mut waiters = queue.clone();
                    waiters.sort_unstable();
                    match self.decide(DecisionKind::WakeOne(*cvar), &waiters) {
                        Some(chosen) => {
                            self.world.cvars[cvar.index()]
                                .waiters
                                .retain(|&w| w != chosen);
                            vec![chosen]
                        }
                        // Replay divergence: the run is stopping anyway.
                        None => return Attempt::Done(Err(SimError::Cancelled)),
                    }
                };
                for &w in &woken {
                    self.wake(w);
                }
                self.charge(OP_COSTS.lock);
                self.emit(Event::CondNotify {
                    task,
                    cvar: *cvar,
                    all: *all,
                    woken,
                    site: (*site).into(),
                });
                Attempt::Done(Ok(Value::Unit))
            }
            Op::Send { chan, value, site } => {
                let bytes = value.byte_size();
                let class = self.world.chans[chan.index()].class;
                if class == ChanClass::Network {
                    let idx = self.world.net_sends;
                    self.world.net_sends += 1;
                    // Active partitions drop the send deterministically —
                    // before the drop script / congestion roll, and without
                    // consuming RNG, so the same env replays identically.
                    if self.partitioned(task, *chan) {
                        self.charge(OP_COSTS.msg_cost(bytes));
                        self.emit(Event::SendDropped {
                            task,
                            chan: *chan,
                            bytes,
                            site: (*site).into(),
                        });
                        return Attempt::Done(Ok(Value::Unit));
                    }
                    let dropped = match &self.env.drop_script {
                        Some(script) => script.contains(&idx),
                        None => {
                            self.env.drop_per_mille > 0
                                && self.world.rng.chance(self.env.drop_per_mille as u64, 1000)
                        }
                    };
                    if dropped {
                        self.charge(OP_COSTS.msg_cost(bytes));
                        self.emit(Event::SendDropped {
                            task,
                            chan: *chan,
                            bytes,
                            site: (*site).into(),
                        });
                        return Attempt::Done(Ok(Value::Unit));
                    }
                }
                self.world.chans[chan.index()]
                    .queue
                    .push_back(value.clone());
                self.charge(OP_COSTS.msg_cost(bytes));
                self.emit(Event::Send {
                    task,
                    chan: *chan,
                    value: value.clone(),
                    site: (*site).into(),
                });
                self.wake_chan_waiters(*chan);
                Attempt::Done(Ok(Value::Unit))
            }
            Op::Recv {
                chan,
                deadline,
                timeout,
                site,
            } => {
                if let Some(h) = &mut self.nondet_override {
                    if let Some(v) = h.override_recv(task, *chan) {
                        self.charge(OP_COSTS.msg_cost(v.byte_size()));
                        self.emit(Event::Recv {
                            task,
                            chan: *chan,
                            value: v.clone(),
                            site: (*site).into(),
                        });
                        return Attempt::Done(Ok(v));
                    }
                }
                let rec = &mut self.world.chans[chan.index()];
                if let Some(v) = rec.queue.pop_front() {
                    self.charge(OP_COSTS.msg_cost(v.byte_size()));
                    self.emit(Event::Recv {
                        task,
                        chan: *chan,
                        value: v.clone(),
                        site: (*site).into(),
                    });
                    return Attempt::Done(Ok(v));
                }
                if rec.closed {
                    return Attempt::Done(Err(SimError::ChannelClosed(*chan)));
                }
                // Resolve the relative timeout to an absolute deadline once.
                if deadline.is_none() {
                    if let Some(t) = timeout {
                        let d = self.world.time.saturating_add(*t);
                        *deadline = Some(d);
                        self.world.timers.push(Reverse((d, task.0)));
                    }
                }
                if let Some(d) = *deadline {
                    if d <= self.world.time {
                        return Attempt::Done(Err(SimError::RecvTimeout(*chan)));
                    }
                }
                Attempt::Block(BlockOn::Chan {
                    chan: *chan,
                    deadline: *deadline,
                })
            }
            Op::CloseChan { chan, site } => {
                self.world.chans[chan.index()].closed = true;
                self.charge(OP_COSTS.msg_base);
                let _ = site;
                self.wake_chan_waiters(*chan);
                Attempt::Done(Ok(Value::Unit))
            }
            Op::ReadInput { port, site } => {
                if let Some(h) = &mut self.nondet_override {
                    if let Some(v) = h.override_input(task, *port) {
                        self.charge(OP_COSTS.io);
                        self.world
                            .inputs_seen
                            .push((self.world.ports[port.index()].name.clone(), v.clone()));
                        self.emit(Event::InputRead {
                            task,
                            port: *port,
                            value: v.clone(),
                            site: (*site).into(),
                        });
                        return Attempt::Done(Ok(v));
                    }
                }
                let rec = &mut self.world.ports[port.index()];
                if let Some(v) = rec.queue.pop_front() {
                    self.charge(OP_COSTS.io);
                    self.world
                        .inputs_seen
                        .push((self.world.ports[port.index()].name.clone(), v.clone()));
                    self.emit(Event::InputRead {
                        task,
                        port: *port,
                        value: v.clone(),
                        site: (*site).into(),
                    });
                    return Attempt::Done(Ok(v));
                }
                if rec.remaining_inputs == 0 {
                    return Attempt::Done(Err(SimError::InputExhausted(*port)));
                }
                Attempt::Block(BlockOn::Port(*port))
            }
            Op::WriteOutput { port, value, site } => {
                self.charge(OP_COSTS.io);
                let rec = OutputRecord {
                    time: self.world.time,
                    task,
                    port: *port,
                    port_name: self.world.ports[port.index()].name.clone(),
                    value: value.clone(),
                };
                self.world.outputs.push(rec);
                self.emit(Event::Output {
                    task,
                    port: *port,
                    value: value.clone(),
                    site: (*site).into(),
                });
                Attempt::Done(Ok(Value::Unit))
            }
            Op::Probe { name, value, site } => {
                self.charge(OP_COSTS.probe);
                self.emit(Event::Probe {
                    task,
                    name: (*name).to_owned(),
                    value: value.clone(),
                    site: (*site).into(),
                });
                Attempt::Done(Ok(Value::Unit))
            }
            Op::Count { name, delta, site } => {
                let total = self.world.counters.entry((*name).to_owned()).or_insert(0);
                *total += *delta;
                let total = *total;
                self.charge(OP_COSTS.probe);
                self.emit(Event::Counter {
                    task,
                    name: (*name).to_owned(),
                    total,
                    site: (*site).into(),
                });
                Attempt::Done(Ok(Value::Int(total)))
            }
            Op::Rng { bound, site } => {
                let raw = match &mut self.nondet_override {
                    Some(h) => h
                        .override_rng(task)
                        .unwrap_or_else(|| self.world.rng.next_u64()),
                    None => self.world.rng.next_u64(),
                };
                let v = if *bound == 0 { raw } else { raw % *bound };
                self.charge(OP_COSTS.rng);
                self.emit(Event::RngDraw {
                    task,
                    value: raw,
                    site: (*site).into(),
                });
                Attempt::Done(Ok(Value::Int(v as i64)))
            }
            Op::Sleep { until, ticks, site } => match *until {
                None => {
                    let u = self.world.time.saturating_add(*ticks);
                    *until = Some(u);
                    self.world.timers.push(Reverse((u, task.0)));
                    self.emit(Event::Sleep {
                        task,
                        until: u,
                        site: (*site).into(),
                    });
                    Attempt::Block(BlockOn::Timer { until: u })
                }
                Some(u) if u <= self.world.time => Attempt::Done(Ok(Value::Unit)),
                Some(u) => Attempt::Block(BlockOn::Timer { until: u }),
            },
            Op::Yield { site } => {
                self.charge(OP_COSTS.yield_);
                self.emit(Event::Yield {
                    task,
                    site: (*site).into(),
                });
                Attempt::Done(Ok(Value::Unit))
            }
            Op::Alloc { bytes, site } => {
                let rec = &self.world.tasks[task.index()];
                let new_used = rec.mem_used + *bytes;
                if let Some(budget) = rec.mem_budget {
                    if new_used > budget {
                        self.charge(OP_COSTS.alloc);
                        self.emit(Event::AllocFail {
                            task,
                            requested: *bytes,
                            budget,
                            site: (*site).into(),
                        });
                        return Attempt::Done(Err(SimError::OutOfMemory {
                            requested: *bytes,
                            budget,
                        }));
                    }
                }
                self.world.tasks[task.index()].mem_used = new_used;
                self.charge(OP_COSTS.alloc);
                self.emit(Event::Alloc {
                    task,
                    bytes: *bytes,
                    site: (*site).into(),
                });
                Attempt::Done(Ok(Value::Unit))
            }
            Op::Free { bytes, site } => {
                let rec = &mut self.world.tasks[task.index()];
                rec.mem_used = rec.mem_used.saturating_sub(*bytes);
                self.charge(OP_COSTS.alloc);
                let _ = site;
                Attempt::Done(Ok(Value::Unit))
            }
            Op::Join { task: target, site } => {
                if target.index() >= self.world.tasks.len() {
                    return Attempt::Done(Err(SimError::NoSuchTask(*target)));
                }
                let trec = &self.world.tasks[target.index()];
                if matches!(trec.phase, Phase::Exited { .. }) || trec.killed {
                    self.charge(OP_COSTS.yield_);
                    self.emit(Event::Joined {
                        task,
                        target: *target,
                        site: (*site).into(),
                    });
                    return Attempt::Done(Ok(Value::Unit));
                }
                self.world.tasks[target.index()].joiners.push(task);
                Attempt::Block(BlockOn::Join(*target))
            }
            Op::Crash { reason, site } => {
                self.world.crashes.push(CrashRecord {
                    time: self.world.time,
                    task,
                    reason: reason.clone(),
                    site: (*site).to_owned(),
                });
                self.charge(OP_COSTS.yield_);
                self.emit(Event::Crash {
                    task,
                    reason: reason.clone(),
                    site: (*site).into(),
                });
                Attempt::Done(Ok(Value::Unit))
            }
            Op::StopRun { site } => {
                let _ = site;
                if self.world.stop.is_none() {
                    self.world.stop = Some(StopReason::Stopped);
                }
                Attempt::Done(Ok(Value::Unit))
            }
        }
    }

    /// Records a panic-style crash coming from outside `exec_op` (task body
    /// panicked or returned an unexpected error).
    pub fn record_crash(&mut self, task: TaskId, reason: String, site: &str) {
        self.world.crashes.push(CrashRecord {
            time: self.world.time,
            task,
            reason: reason.clone(),
            site: site.to_owned(),
        });
        self.emit(Event::Crash {
            task,
            reason,
            site: site.to_owned().into(),
        });
    }

    /// Charges a successful op: advances the execution clock and the step
    /// counter.
    pub(crate) fn charge(&mut self, cost: u64) {
        self.world.time = self.world.time.saturating_add(cost);
        self.world.steps += 1;
        // Deliveries that became due mid-op happen before the next decision;
        // the driver calls `deliver_due` at every decision point.
    }

    /// Total wall ticks: execution plus instrumentation.
    pub fn wall_time(&self) -> u64 {
        self.world.time.saturating_add(self.world.wall_extra)
    }

    /// Per-observer instrumentation cost, by observer name.
    pub fn observer_costs(&self) -> Vec<(String, u64)> {
        self.observers
            .iter()
            .map(|s| (s.obs.name().to_owned(), s.cost))
            .collect()
    }

    /// Consumes the kernel's observers for post-run retrieval.
    pub fn take_observers(&mut self) -> Vec<Box<dyn Observer>> {
        std::mem::take(&mut self.observers)
            .into_iter()
            .map(|s| s.obs)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RandomPolicy;

    /// A kernel over a fresh seed-1 world under `cfg`, with `observers`.
    fn kernel_with(mut cfg: RunConfig, observers: Vec<Box<dyn Observer>>) -> Kernel {
        let world = WorldState::new(1, &cfg.env);
        Kernel::new(world, Box::new(RandomPolicy::new(1)), observers, &mut cfg)
    }

    /// A kernel under `env` and otherwise default configuration.
    fn kernel_in(env: EnvConfig) -> Kernel {
        kernel_with(
            RunConfig {
                env,
                ..RunConfig::default()
            },
            Vec::new(),
        )
    }

    /// Byte-at-a-time FNV-1a from state `h`: the definition `StateHasher`
    /// must reproduce.
    fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The bytes `StateHasher::value` feeds for `v`: 8-byte little-endian
    /// words and length-prefixed strings and byte strings.
    fn value_bytes(v: &Value, out: &mut Vec<u8>) {
        let mut word = |w: u64| out.extend(w.to_le_bytes());
        match v {
            Value::Unit => word(0),
            Value::Bool(b) => {
                word(1);
                word(*b as u64);
            }
            Value::Int(i) => {
                word(2);
                word(*i as u64);
            }
            Value::Str(s) => {
                word(3);
                word(s.len() as u64);
                out.extend(s.as_bytes());
            }
            Value::Bytes(b) => {
                word(4);
                word(b.len() as u64);
                out.extend(b);
            }
            Value::List(vs) => {
                word(5);
                word(vs.len() as u64);
                for v in vs {
                    value_bytes(v, out);
                }
            }
        }
    }

    #[test]
    fn state_hasher_equals_byte_at_a_time_fnv1a() {
        let mut words = vec![0, 1, 255, 256, u64::MAX, -1i64 as u64, i64::MIN as u64];
        for k in 1..=7 {
            words.push((1u64 << (8 * k)) - 1);
            words.push(1u64 << (8 * k));
        }
        // Raw draws are nearly all 8 significant bytes; each also goes in
        // shifted right by its low six bits, to cover every fold length.
        let mut rng = crate::rng::SplitMix64::new(0x5EED);
        for _ in 0..10_000 {
            let x = rng.next_u64();
            words.extend([x, x >> (x & 63)]);
        }

        // One running hasher, checked after every word: a fold must be
        // right from any state, not only from the offset basis.
        let mut h = StateHasher::new();
        let mut reference = StateHasher::new().finish();
        for &w in &words {
            h.u64(w);
            reference = fnv_bytes(reference, &w.to_le_bytes());
            assert_eq!(h.finish(), reference, "u64 {w:#x}");
            h.i64(w as i64);
            reference = fnv_bytes(reference, &w.to_le_bytes());
            assert_eq!(h.finish(), reference, "i64 {}", w as i64);
        }

        let long = "x".repeat(300);
        for s in ["", "a", "server1.log", "\0\0", "héllo", long.as_str()] {
            let mut h = StateHasher::new();
            h.str(s);
            let mut bytes = (s.len() as u64).to_le_bytes().to_vec();
            bytes.extend(s.as_bytes());
            assert_eq!(h.finish(), fnv_bytes(StateHasher::new().finish(), &bytes));
        }

        let value = Value::List(vec![
            Value::Unit,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(-256),
            Value::Int(300),
            Value::Str("k".into()),
            Value::Bytes(vec![]),
            Value::Bytes(vec![0, 0, 1, 0, 255]),
            Value::List(vec![
                Value::List(vec![]),
                Value::List(vec![Value::Int(-2), Value::Bytes(vec![0; 260])]),
            ]),
        ]);
        let mut h = StateHasher::new();
        h.value(&value);
        let mut bytes = Vec::new();
        value_bytes(&value, &mut bytes);
        assert_eq!(h.finish(), fnv_bytes(StateHasher::new().finish(), &bytes));
    }

    fn kernel() -> Kernel {
        kernel_in(EnvConfig::clean())
    }

    fn kernel_with_task() -> (Kernel, TaskId) {
        let mut k = kernel();
        let t = k.add_task("t", "g", None);
        (k, t)
    }

    #[test]
    fn read_write_round_trip() {
        let (mut k, t) = kernel_with_task();
        let v = k.add_var("x", Value::Int(0));
        let mut w = Op::Write {
            var: v,
            value: Value::Int(7),
            site: "s",
        };
        assert!(matches!(k.exec_op(t, &mut w), Attempt::Done(Ok(_))));
        let mut r = Op::Read { var: v, site: "s" };
        match k.exec_op(t, &mut r) {
            Attempt::Done(Ok(val)) => assert_eq!(val, Value::Int(7)),
            _ => panic!("read failed"),
        }
        assert_eq!(k.world.steps, 2);
        assert!(k.world.time >= 2);
    }

    #[test]
    fn lock_blocks_second_task() {
        let (mut k, t0) = kernel_with_task();
        let t1 = k.add_task("t1", "g", None);
        let l = k.add_lock("m");
        let mut a = Op::Lock { lock: l, site: "s" };
        assert!(matches!(k.exec_op(t0, &mut a), Attempt::Done(Ok(_))));
        let mut b = Op::Lock { lock: l, site: "s" };
        assert!(matches!(
            k.exec_op(t1, &mut b),
            Attempt::Block(BlockOn::Lock(_))
        ));
        // Unlock wakes the blocked task.
        k.world.tasks[t1.index()].phase = Phase::Blocked(BlockOn::Lock(l));
        let mut u = Op::Unlock { lock: l, site: "s" };
        assert!(matches!(k.exec_op(t0, &mut u), Attempt::Done(Ok(_))));
        assert_eq!(k.world.tasks[t1.index()].phase, Phase::Ready);
    }

    #[test]
    fn unlock_without_holding_is_error() {
        let (mut k, t) = kernel_with_task();
        let l = k.add_lock("m");
        let mut u = Op::Unlock { lock: l, site: "s" };
        match k.exec_op(t, &mut u) {
            Attempt::Done(Err(SimError::Internal(_))) => {}
            _ => panic!("expected internal error"),
        }
    }

    #[test]
    fn send_recv_round_trip() {
        let (mut k, t) = kernel_with_task();
        let c = k.add_chan("ch", ChanClass::Local);
        let mut s = Op::Send {
            chan: c,
            value: Value::Int(3),
            site: "s",
        };
        assert!(matches!(k.exec_op(t, &mut s), Attempt::Done(Ok(_))));
        let mut r = Op::Recv {
            chan: c,
            deadline: None,
            timeout: None,
            site: "s",
        };
        match k.exec_op(t, &mut r) {
            Attempt::Done(Ok(v)) => assert_eq!(v, Value::Int(3)),
            _ => panic!("recv failed"),
        }
    }

    #[test]
    fn recv_on_empty_blocks_and_closed_errors() {
        let (mut k, t) = kernel_with_task();
        let c = k.add_chan("ch", ChanClass::Local);
        let mut r = Op::Recv {
            chan: c,
            deadline: None,
            timeout: None,
            site: "s",
        };
        assert!(matches!(k.exec_op(t, &mut r), Attempt::Block(_)));
        let mut cl = Op::CloseChan { chan: c, site: "s" };
        assert!(matches!(k.exec_op(t, &mut cl), Attempt::Done(Ok(_))));
        let mut r2 = Op::Recv {
            chan: c,
            deadline: None,
            timeout: None,
            site: "s",
        };
        assert!(matches!(
            k.exec_op(t, &mut r2),
            Attempt::Done(Err(SimError::ChannelClosed(_)))
        ));
    }

    #[test]
    fn recv_timeout_resolves_deadline_once() {
        let (mut k, t) = kernel_with_task();
        let c = k.add_chan("ch", ChanClass::Local);
        let mut r = Op::Recv {
            chan: c,
            deadline: None,
            timeout: Some(10),
            site: "s",
        };
        let now = k.world.time;
        assert!(matches!(k.exec_op(t, &mut r), Attempt::Block(_)));
        match r {
            Op::Recv {
                deadline: Some(d), ..
            } => assert_eq!(d, now + 10),
            _ => panic!("deadline not resolved"),
        }
        // Past the deadline the retry reports a timeout.
        k.world.time += 20;
        assert!(matches!(
            k.exec_op(t, &mut r),
            Attempt::Done(Err(SimError::RecvTimeout(_)))
        ));
    }

    #[test]
    fn congestion_drops_network_sends() {
        let mut k = kernel_in(EnvConfig {
            drop_per_mille: 1000,
            ..EnvConfig::clean()
        });
        let t = k.add_task("t", "g", None);
        let c = k.add_chan("net", ChanClass::Network);
        let mut s = Op::Send {
            chan: c,
            value: Value::Int(1),
            site: "s",
        };
        assert!(matches!(k.exec_op(t, &mut s), Attempt::Done(Ok(_))));
        assert!(
            k.world.chans[c.index()].queue.is_empty(),
            "message should be dropped"
        );
        let dropped = k
            .world
            .trace
            .iter()
            .any(|(_, e)| matches!(e, Event::SendDropped { .. }));
        assert!(dropped);
    }

    #[test]
    fn local_channels_never_drop() {
        let mut k = kernel_in(EnvConfig {
            drop_per_mille: 1000,
            ..EnvConfig::clean()
        });
        let t = k.add_task("t", "g", None);
        let c = k.add_chan("loc", ChanClass::Local);
        let mut s = Op::Send {
            chan: c,
            value: Value::Int(1),
            site: "s",
        };
        assert!(matches!(k.exec_op(t, &mut s), Attempt::Done(Ok(_))));
        assert_eq!(k.world.chans[c.index()].queue.len(), 1);
    }

    #[test]
    fn alloc_respects_budget() {
        let mut env = EnvConfig::clean();
        env.mem_budget.insert("g".into(), 100);
        let mut k = kernel_in(env);
        let t = k.add_task("t", "g", None);
        let mut a = Op::Alloc {
            bytes: 60,
            site: "s",
        };
        assert!(matches!(k.exec_op(t, &mut a), Attempt::Done(Ok(_))));
        let mut b = Op::Alloc {
            bytes: 60,
            site: "s",
        };
        assert!(matches!(
            k.exec_op(t, &mut b),
            Attempt::Done(Err(SimError::OutOfMemory { .. }))
        ));
        let mut f = Op::Free {
            bytes: 30,
            site: "s",
        };
        assert!(matches!(k.exec_op(t, &mut f), Attempt::Done(Ok(_))));
        let mut c = Op::Alloc {
            bytes: 60,
            site: "s",
        };
        assert!(matches!(k.exec_op(t, &mut c), Attempt::Done(Ok(_))));
    }

    #[test]
    fn cv_wait_releases_lock_and_relocks_on_wake() {
        let (mut k, t0) = kernel_with_task();
        let l = k.add_lock("m");
        let cv = k.add_cvar("cv");
        let mut a = Op::Lock { lock: l, site: "s" };
        assert!(matches!(k.exec_op(t0, &mut a), Attempt::Done(Ok(_))));
        let mut w = Op::CvWait {
            cvar: cv,
            lock: l,
            stage: CvStage::Enter,
            site: "s",
        };
        assert!(matches!(
            k.exec_op(t0, &mut w),
            Attempt::Block(BlockOn::Cvar(_))
        ));
        assert_eq!(
            k.world.locks[l.index()].holder,
            None,
            "lock released during wait"
        );
        assert_eq!(k.world.cvars[cv.index()].waiters, vec![t0]);
        // Notify from another task.
        k.world.tasks[t0.index()].phase = Phase::Blocked(BlockOn::Cvar(cv));
        let t1 = k.add_task("t1", "g", None);
        let mut n = Op::CvNotify {
            cvar: cv,
            all: false,
            site: "s",
        };
        assert!(matches!(k.exec_op(t1, &mut n), Attempt::Done(Ok(_))));
        assert_eq!(k.world.tasks[t0.index()].phase, Phase::Ready);
        assert!(k.world.cvars[cv.index()].waiters.is_empty());
        // Retry reacquires the lock.
        assert!(matches!(k.exec_op(t0, &mut w), Attempt::Done(Ok(_))));
        assert_eq!(k.world.locks[l.index()].holder, Some(t0));
    }

    #[test]
    fn notify_with_no_waiters_is_noop() {
        let (mut k, t) = kernel_with_task();
        let cv = k.add_cvar("cv");
        let mut n = Op::CvNotify {
            cvar: cv,
            all: true,
            site: "s",
        };
        assert!(matches!(k.exec_op(t, &mut n), Attempt::Done(Ok(_))));
    }

    #[test]
    fn input_port_exhaustion_is_reported() {
        let (mut k, t) = kernel_with_task();
        let p = k.add_port("in", PortDir::In);
        let mut r = Op::ReadInput { port: p, site: "s" };
        assert!(matches!(
            k.exec_op(t, &mut r),
            Attempt::Done(Err(SimError::InputExhausted(_)))
        ));
    }

    #[test]
    fn input_delivery_wakes_waiters() {
        let (mut k, t) = kernel_with_task();
        let p = k.add_port("in", PortDir::In);
        k.load_inputs(
            vec![(
                "in".to_owned(),
                vec![TimedInput {
                    time: 5,
                    value: Value::Int(9),
                }],
            )]
            .into_iter(),
        )
        .unwrap();
        let mut r = Op::ReadInput { port: p, site: "s" };
        assert!(matches!(
            k.exec_op(t, &mut r),
            Attempt::Block(BlockOn::Port(_))
        ));
        k.world.tasks[t.index()].phase = Phase::Blocked(BlockOn::Port(p));
        k.world.time = 5;
        assert!(k.deliver_due());
        assert_eq!(k.world.tasks[t.index()].phase, Phase::Ready);
        match k.exec_op(t, &mut r) {
            Attempt::Done(Ok(v)) => assert_eq!(v, Value::Int(9)),
            _ => panic!("input read failed"),
        }
    }

    #[test]
    fn load_inputs_rejects_unknown_port() {
        let mut k = kernel();
        let err = k.load_inputs(
            vec![(
                "nope".to_owned(),
                vec![TimedInput {
                    time: 0,
                    value: Value::Unit,
                }],
            )]
            .into_iter(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn partition_drops_cross_group_sends_until_heal() {
        use crate::config::PartitionEvent;
        let mut env = EnvConfig::clean();
        env.partitions.push(PartitionEvent {
            start: 5,
            heal: 10,
            a: "server0".into(),
            b: "client".into(),
        });
        let mut k = kernel_in(env);
        let client = k.add_task("loader", "client0", None);
        let server = k.add_task("handler", "server0", None);
        let to_server = k.add_chan("server0.data", ChanClass::Network);
        let to_client = k.add_chan("client0.reply", ChanClass::Network);
        let local = k.add_chan("client0.scratch", ChanClass::Local);
        let send = |chan| Op::Send {
            chan,
            value: Value::Int(1),
            site: "s",
        };
        // Before the partition starts, cross-group sends deliver.
        let mut s = send(to_server);
        assert!(matches!(k.exec_op(client, &mut s), Attempt::Done(Ok(_))));
        assert_eq!(k.world.chans[to_server.index()].queue.len(), 1);
        // Partition starts at t=5: both directions drop; local traffic and
        // the RNG are untouched.
        k.world.time = 5;
        assert!(k.deliver_due());
        let rng_before = k.world.rng.clone();
        let mut s = send(to_server);
        assert!(matches!(k.exec_op(client, &mut s), Attempt::Done(Ok(_))));
        assert_eq!(k.world.chans[to_server.index()].queue.len(), 1);
        let mut s = send(to_client);
        assert!(matches!(k.exec_op(server, &mut s), Attempt::Done(Ok(_))));
        assert!(k.world.chans[to_client.index()].queue.is_empty());
        let mut s = send(local);
        assert!(matches!(k.exec_op(client, &mut s), Attempt::Done(Ok(_))));
        assert_eq!(k.world.chans[local.index()].queue.len(), 1);
        assert_eq!(k.world.rng.digest_words(), rng_before.digest_words());
        let drops = k
            .world
            .trace
            .iter()
            .filter(|(_, e)| matches!(e, Event::SendDropped { .. }))
            .count();
        assert_eq!(drops, 2);
        // Heal at t=10: traffic flows again.
        k.world.time = 10;
        assert!(k.deliver_due());
        assert!(k.world.active_partitions.is_empty());
        let mut s = send(to_server);
        assert!(matches!(k.exec_op(client, &mut s), Attempt::Done(Ok(_))));
        assert_eq!(k.world.chans[to_server.index()].queue.len(), 2);
    }

    #[test]
    fn restart_is_staged_for_the_driver_and_counted() {
        use crate::config::RestartEvent;
        let mut env = EnvConfig::clean();
        env.restarts.push(RestartEvent {
            time: 3,
            group: "node1".into(),
        });
        let mut k = kernel_in(env);
        k.add_task("a", "node1", None);
        assert_eq!(k.next_pending_time(), Some(3));
        k.world.time = 3;
        assert!(k.deliver_due());
        assert_eq!(k.world.restarts_due, vec!["node1".to_owned()]);
        assert_eq!(k.world.restart_counts["node1"], 1);
    }

    #[test]
    fn kill_group_bumps_per_group_crash_count() {
        let mut k = kernel();
        k.add_task("a", "node1", None);
        k.kill_group("node1");
        k.kill_group("node1");
        assert_eq!(k.world.crash_counts["node1"], 2);
        assert!(k.world.restart_counts.is_empty());
    }

    #[test]
    fn kill_group_marks_tasks_and_cleans_cvars() {
        let mut k = kernel();
        let t0 = k.add_task("a", "node1", None);
        let t1 = k.add_task("b", "node2", None);
        let cv = k.add_cvar("cv");
        k.world.cvars[cv.index()].waiters.push(t0);
        k.kill_group("node1");
        assert!(k.world.tasks[t0.index()].killed);
        assert!(!k.world.tasks[t1.index()].killed);
        assert!(k.world.cvars[cv.index()].waiters.is_empty());
    }

    #[test]
    fn kill_group_releases_held_locks_and_wakes_waiters() {
        let mut k = kernel();
        let t0 = k.add_task("a", "node1", None);
        let t1 = k.add_task("b", "node2", None);
        let l = k.add_lock("m");
        let mut a = Op::Lock { lock: l, site: "s" };
        assert!(matches!(k.exec_op(t0, &mut a), Attempt::Done(Ok(_))));
        let mut b = Op::Lock { lock: l, site: "s" };
        assert!(matches!(
            k.exec_op(t1, &mut b),
            Attempt::Block(BlockOn::Lock(_))
        ));
        k.world.tasks[t1.index()].phase = Phase::Blocked(BlockOn::Lock(l));
        // The crash models a process death: its mutexes are released, not
        // orphaned, so the surviving waiter acquires the lock.
        k.kill_group("node1");
        assert_eq!(k.world.locks[l.index()].holder, None);
        assert_eq!(k.world.tasks[t1.index()].phase, Phase::Ready);
        let mut again = Op::Lock { lock: l, site: "s" };
        assert!(matches!(k.exec_op(t1, &mut again), Attempt::Done(Ok(_))));
    }

    #[test]
    fn join_on_killed_task_completes() {
        let mut k = kernel();
        let t0 = k.add_task("a", "node1", None);
        let t1 = k.add_task("b", "node2", None);
        k.kill_group("node1");
        let mut j = Op::Join {
            task: t0,
            site: "s",
        };
        assert!(matches!(k.exec_op(t1, &mut j), Attempt::Done(Ok(_))));
    }

    /// A crash op records the crash and leaves the run going.
    #[test]
    fn crash_op_records_and_optionally_stops() {
        let (mut k, t) = kernel_with_task();
        let mut c = Op::Crash {
            reason: "boom".into(),
            site: "s",
        };
        assert!(matches!(k.exec_op(t, &mut c), Attempt::Done(Ok(_))));
        assert_eq!(k.world.crashes.len(), 1);
        assert!(k.world.stop.is_none());
    }

    #[test]
    fn counters_accumulate() {
        let (mut k, t) = kernel_with_task();
        let mut c1 = Op::Count {
            name: "drops",
            delta: 2,
            site: "s",
        };
        let _ = k.exec_op(t, &mut c1);
        let mut c2 = Op::Count {
            name: "drops",
            delta: 3,
            site: "s",
        };
        match k.exec_op(t, &mut c2) {
            Attempt::Done(Ok(v)) => assert_eq!(v, Value::Int(5)),
            _ => panic!("count failed"),
        }
        assert_eq!(k.world.counters["drops"], 5);
    }

    #[test]
    fn rng_draw_is_recorded_and_bounded() {
        let (mut k, t) = kernel_with_task();
        for _ in 0..50 {
            let mut r = Op::Rng {
                bound: 10,
                site: "s",
            };
            match k.exec_op(t, &mut r) {
                Attempt::Done(Ok(Value::Int(v))) => assert!((0..10).contains(&v)),
                _ => panic!("rng failed"),
            }
        }
        let draws = k
            .world
            .trace
            .iter()
            .filter(|(_, e)| matches!(e, Event::RngDraw { .. }))
            .count();
        assert_eq!(draws, 50);
    }

    #[test]
    fn rng_override_hook_takes_precedence() {
        struct FixedRng;
        impl NondetOverride for FixedRng {
            fn override_rng(&mut self, _t: TaskId) -> Option<u64> {
                Some(7)
            }
        }
        let mut k = kernel_with(
            RunConfig {
                nondet_override: Some(Box::new(FixedRng)),
                ..RunConfig::default()
            },
            Vec::new(),
        );
        let t = k.add_task("t", "g", None);
        let mut r = Op::Rng {
            bound: 100,
            site: "s",
        };
        match k.exec_op(t, &mut r) {
            Attempt::Done(Ok(v)) => assert_eq!(v, Value::Int(7)),
            _ => panic!("rng failed"),
        }
    }

    #[test]
    fn read_override_hook_replaces_value() {
        struct FixedRead;
        impl NondetOverride for FixedRead {
            fn override_read(&mut self, _t: TaskId, _v: VarId, _a: &Value) -> Option<Value> {
                Some(Value::Int(99))
            }
        }
        let mut k = kernel_with(
            RunConfig {
                nondet_override: Some(Box::new(FixedRead)),
                ..RunConfig::default()
            },
            Vec::new(),
        );
        let t = k.add_task("t", "g", None);
        let v = k.add_var("x", Value::Int(1));
        let mut r = Op::Read { var: v, site: "s" };
        match k.exec_op(t, &mut r) {
            Attempt::Done(Ok(val)) => assert_eq!(val, Value::Int(99)),
            _ => panic!("read failed"),
        }
    }

    #[test]
    fn sleep_sets_timer_and_wakes() {
        let (mut k, t) = kernel_with_task();
        let mut s = Op::Sleep {
            until: None,
            ticks: 10,
            site: "s",
        };
        let start = k.world.time;
        assert!(matches!(
            k.exec_op(t, &mut s),
            Attempt::Block(BlockOn::Timer { .. })
        ));
        k.world.tasks[t.index()].phase = Phase::Blocked(BlockOn::Timer { until: start + 10 });
        assert_eq!(k.next_pending_time(), Some(start + 10));
        k.world.time = start + 10;
        assert!(k.deliver_due());
        assert_eq!(k.world.tasks[t.index()].phase, Phase::Ready);
        assert!(matches!(k.exec_op(t, &mut s), Attempt::Done(Ok(_))));
    }

    #[test]
    fn decide_skips_singletons_and_records_multis() {
        let mut k = kernel();
        let t0 = k.add_task("a", "g", None);
        let t1 = k.add_task("b", "g", None);
        assert_eq!(k.decide(DecisionKind::NextTask, &[t0]), Some(t0));
        assert!(k.world.decisions.is_empty());
        let chosen = k.decide(DecisionKind::NextTask, &[t0, t1]).unwrap();
        assert!(chosen == t0 || chosen == t1);
        assert_eq!(k.world.decisions.len(), 1);
        assert_eq!(k.world.decisions[0].n, 2);
    }

    #[test]
    fn observer_costs_accrue_to_wall_clock() {
        struct Pricey;
        impl Observer for Pricey {
            fn name(&self) -> &'static str {
                "pricey"
            }
            fn on_event(&mut self, _m: &EventMeta, _e: &Event) -> u64 {
                5
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut k = kernel_with(RunConfig::default(), vec![Box::new(Pricey)]);
        let t = k.add_task("t", "g", None);
        let v = k.add_var("x", Value::Int(0));
        let mut w = Op::Write {
            var: v,
            value: Value::Int(1),
            site: "s",
        };
        let _ = k.exec_op(t, &mut w);
        // add_task + write events so far; each costs 5 wall ticks.
        assert_eq!(k.world.wall_extra, 10);
        assert!(k.wall_time() > k.world.time);
        assert_eq!(k.observer_costs(), vec![("pricey".to_owned(), 10)]);
    }
}
