//! The driver: a single-threaded coroutine engine and the public
//! [`run_program`] / [`resume_program`] entry points.
//!
//! # Engine
//!
//! Exactly one logical processor exists, and exactly one real thread runs
//! the whole simulation. Every task body is a coroutine (see
//! [`TaskFuture`]); the driver loop owns the
//! kernel and, at every decision point, picks one `Ready` task and *steps*
//! it: the announced operation executes against the kernel, the result is
//! deposited in the task's mailbox (`TaskSlot`), and the body is polled —
//! running user code — until it parks at its next operation, blocks, or
//! exits. There are no locks, no condvars and no context switches; a
//! scheduling decision is a function call. All cross-task interaction flows
//! through kernel operations, so the recorded decision stream plus the
//! input script fully determine the execution.
//!
//! Wakers are never used: the driver always knows which task to poll next,
//! so futures signal readiness purely through the mailbox. A body that
//! awaits a non-simulator future would return `Pending` with no request in
//! its mailbox and is failed loudly with an internal error.
//!
//! # Snapshot resume
//!
//! Restoring a [`WorldSnapshot`] is a pure data copy — there are no threads
//! to re-attach. Coroutines, however, cannot be cloned, so
//! [`resume_program`] rebuilds each started task's future by re-running its
//! body in *fast-forward*: recorded results from the world's syscall log
//! are fed back through the mailbox (no kernel work, no events, no cost —
//! the restored world already contains their effects) until the body
//! re-parks at the operation it had announced when the snapshot was taken.
//! The whole rebuild of one task is a single synchronous poll.

use crate::config::{RunConfig, OP_COSTS};
use crate::conflict::OpDesc;
use crate::error::{SimError, SimResult, StopReason};
use crate::event::{DecisionKind, Event, EventMeta, Observer};
use crate::history::ChunkedLog;
use crate::ids::TaskId;
use crate::kernel::Kernel;
use crate::ops::Attempt;
use crate::policy::SchedulePolicy;
use crate::program::{
    Builder, Program, RecoveryBuilder, Request, TaskCtx, TaskFn, TaskFuture, TaskSlot,
};
use crate::snapshot::SnapshotMark;
use crate::value::Value;
use crate::world::{
    CrashRecord, DecisionRecord, EnabledSet, OutputRecord, Phase, PortDir, SysLogEntry, TaskRec,
    WorldSnapshot, WorldState,
};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Metadata describing one task, for post-run analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskMeta {
    /// Task name.
    pub name: String,
    /// Failure-domain group.
    pub group: String,
}

/// Metadata describing one channel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChanMeta {
    /// Channel name.
    pub name: String,
    /// Local or network.
    pub class: crate::config::ChanClass,
}

/// Metadata describing one port.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortMeta {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
}

/// Name tables for every machine object, for mapping ids in traces and
/// artifacts back to program-level names.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Registry {
    /// Task metadata, indexed by [`TaskId`].
    pub tasks: Vec<TaskMeta>,
    /// Variable names, indexed by `VarId`.
    pub vars: Vec<String>,
    /// Lock names, indexed by `LockId`.
    pub locks: Vec<String>,
    /// Condition-variable names, indexed by `CondvarId`.
    pub cvars: Vec<String>,
    /// Channel metadata, indexed by `ChanId`.
    pub chans: Vec<ChanMeta>,
    /// Port metadata, indexed by `PortId`.
    pub ports: Vec<PortMeta>,
}

impl Registry {
    /// Looks up an input/output port id by name.
    pub fn port_id(&self, name: &str) -> Option<crate::ids::PortId> {
        self.ports
            .iter()
            .position(|p| p.name == name)
            .map(|i| crate::ids::PortId(i as u32))
    }

    /// Looks up a channel id by name.
    pub fn chan_id(&self, name: &str) -> Option<crate::ids::ChanId> {
        self.chans
            .iter()
            .position(|c| c.name == name)
            .map(|i| crate::ids::ChanId(i as u32))
    }

    /// Looks up a variable id by name.
    pub fn var_id(&self, name: &str) -> Option<crate::ids::VarId> {
        self.vars
            .iter()
            .position(|v| v == name)
            .map(|i| crate::ids::VarId(i as u32))
    }
}

/// Aggregate run statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Successful operations executed.
    pub steps: u64,
    /// Final execution-clock value (virtual ticks, semantics only).
    pub exec_ticks: u64,
    /// Final wall-clock value (execution plus instrumentation).
    pub wall_ticks: u64,
    /// Events published to observers.
    pub events: u64,
    /// Nondeterministic decisions resolved (multi-candidate only).
    pub decisions: u64,
    /// Steps inherited from a restored snapshot rather than executed by
    /// this run (`0` for from-scratch runs). `steps - resumed_steps` is the
    /// work this run actually performed.
    pub resumed_steps: u64,
    /// Execution-clock ticks inherited from a restored snapshot (`0` for
    /// from-scratch runs).
    pub resumed_ticks: u64,
    /// Per-observer instrumentation cost, by observer name.
    pub observer_costs: Vec<(String, u64)>,
}

impl RunStats {
    /// Runtime overhead factor: wall time relative to execution time.
    ///
    /// `1.0` means free recording; `3.0` means the instrumented run costs 3×
    /// the native run.
    pub fn overhead_factor(&self) -> f64 {
        if self.exec_ticks == 0 {
            1.0
        } else {
            self.wall_ticks as f64 / self.exec_ticks as f64
        }
    }
}

/// The observable behaviour of a run: outputs, counters and crashes.
///
/// This is what I/O specifications (and therefore failure definitions) are
/// written against, following the paper's definition that "the output
/// includes all observable behavior, including performance characteristics".
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IoSummary {
    /// Ordered outputs.
    pub outputs: Vec<OutputRecord>,
    /// Inputs the program consumed, in consumption order (port name, value).
    pub inputs: Vec<(String, Value)>,
    /// Final counter values.
    pub counters: BTreeMap<String, i64>,
    /// Crashes, in order of occurrence.
    pub crashes: Vec<CrashRecord>,
    /// Environment crash count per failure-domain group (scheduled node
    /// kills — distinct from the task-level `crashes` above).
    pub group_crashes: BTreeMap<String, u64>,
    /// Environment restart count per failure-domain group.
    pub group_restarts: BTreeMap<String, u64>,
}

impl IoSummary {
    /// Returns the output values emitted on the named port, in order.
    pub fn outputs_on(&self, port_name: &str) -> Vec<&Value> {
        self.outputs
            .iter()
            .filter(|o| o.port_name == port_name)
            .map(|o| &o.value)
            .collect()
    }

    /// Returns the input values consumed from the named port, in order.
    pub fn inputs_on(&self, port_name: &str) -> Vec<&Value> {
        self.inputs
            .iter()
            .filter(|(p, _)| p == port_name)
            .map(|(_, v)| v)
            .collect()
    }

    /// Returns a counter value (0 if never touched).
    pub fn counter(&self, name: &str) -> i64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Returns `true` if any task crashed.
    pub fn crashed(&self) -> bool {
        !self.crashes.is_empty()
    }
}

/// Everything a run produces.
pub struct RunOutput {
    /// Why the run stopped.
    pub stop: StopReason,
    /// Aggregate statistics.
    pub stats: RunStats,
    /// Observable behaviour.
    pub io: IoSummary,
    /// Name tables.
    pub registry: Registry,
    /// The resolved decision stream (for replay and search). Chunk-shared
    /// with any snapshots the run took — cloning or absorbing it into a
    /// schedule artifact bumps chunk handles instead of copying records.
    pub decisions: ChunkedLog<DecisionRecord>,
    /// Per-decision enabled-set snapshots with each candidate's
    /// pending-operation conflict footprint, aligned with `decisions`.
    /// Partial-order-reduced search uses this to decide which sibling
    /// schedule branches commute.
    pub decision_enabled: ChunkedLog<EnabledSet>,
    /// The omniscient analysis trace: every event the run emitted.
    pub trace: ChunkedLog<(EventMeta, Event)>,
    /// Resumable world snapshots taken per the run's
    /// [`CheckpointPlan`](crate::config::CheckpointPlan), in increasing
    /// decision order (empty when checkpointing is disabled, and when a
    /// [`snapshot_sink`](crate::config::RunConfig) spilled them to disk
    /// instead — see [`spilled`](Self::spilled)).
    pub snapshots: Vec<WorldSnapshot>,
    /// Marks of the snapshots the configured
    /// [`snapshot_sink`](crate::config::RunConfig) kept, in increasing
    /// decision order (empty unless a sink was configured). Each mark
    /// carries the sink-assigned id the snapshot is restorable under.
    pub spilled: Vec<SnapshotMark>,
    /// Sink write failures, in occurrence order. A failed offer never
    /// stops the run — it only loses that restore point — so callers that
    /// care about the availability bound must check this.
    pub spill_errors: Vec<String>,
    /// FNV-1a digests of the machine state before each recorded decision,
    /// aligned index-for-index with `decisions` (empty unless the run was
    /// configured with [`hash_decisions`](crate::config::RunConfig)).
    /// Digest `i` covers the world after decisions `0..i` were applied and
    /// their granted operations executed — so the first index at which a
    /// replay's stream differs from the recording's implicates decision
    /// `i - 1` as the first diverging choice.
    pub decision_hashes: ChunkedLog<u64>,
    /// Digest of the final machine state (`None` unless the run was
    /// configured with `hash_decisions`). Plays the role of the digest "one
    /// past" the last decision: it is what catches a divergence after the
    /// final decision point.
    pub final_state_hash: Option<u64>,
    observers: Vec<Box<dyn Observer>>,
}

impl RunOutput {
    /// Borrows an attached observer by concrete type.
    pub fn observer<T: Observer>(&self) -> Option<&T> {
        self.observers
            .iter()
            .find_map(|o| o.as_any().downcast_ref())
    }

    /// Mutably borrows an attached observer by concrete type.
    pub fn observer_mut<T: Observer>(&mut self) -> Option<&mut T> {
        self.observers
            .iter_mut()
            .find_map(|o| o.as_any_mut().downcast_mut())
    }

    /// The omniscient analysis trace.
    pub fn trace(&self) -> &ChunkedLog<(EventMeta, Event)> {
        &self.trace
    }
}

impl core::fmt::Debug for RunOutput {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RunOutput")
            .field("stop", &self.stop)
            .field("stats", &self.stats)
            .field("outputs", &self.io.outputs.len())
            .field("crashes", &self.io.crashes.len())
            .field("decisions", &self.decisions.len())
            .finish()
    }
}

/// The engine's handle on one task: the body factory (until first grant),
/// the live coroutine (until exit), and the mailbox both share with the
/// futures the body awaits.
struct TaskCell {
    /// The body factory; consumed at first grant (or during rebuild).
    body: Option<TaskFn>,
    /// The live coroutine, absent before first grant and after exit.
    fut: Option<TaskFuture>,
    /// The mailbox; every future the body creates holds an `Rc` to it.
    slot: Rc<RefCell<TaskSlot>>,
    /// Whether the body factory has been invoked (granted at least once, or
    /// replayed during a snapshot rebuild).
    started: bool,
}

impl TaskCell {
    fn new(body: Option<TaskFn>) -> Self {
        TaskCell {
            body,
            fut: None,
            slot: Rc::new(RefCell::new(TaskSlot::default())),
            started: false,
        }
    }
}

/// Runs `program` to completion under the given configuration, scheduling
/// policy and observers.
///
/// # Panics
///
/// Panics if the input script references a port the program does not
/// declare (a configuration error).
pub fn run_program(
    program: &dyn Program,
    mut cfg: RunConfig,
    policy: Box<dyn SchedulePolicy>,
    observers: Vec<Box<dyn Observer>>,
) -> RunOutput {
    let world = WorldState::new(cfg.seed, &cfg.env);
    let mut kernel = Kernel::new(world, policy, observers, &mut cfg);

    // Setup: declare objects and initial tasks, then load the script.
    let cells = set_up(program, Builder::new(&mut kernel));
    if let Err(msg) = kernel.load_inputs(cfg.inputs.iter().map(|(k, v)| (k.to_owned(), v.to_vec())))
    {
        panic!("{}: {msg}", program.name());
    }
    run_to_completion(program, kernel, cells, &cfg, 0, 0)
}

/// Resumes a run from a [`WorldSnapshot`].
///
/// `program` must be the same program the snapshot came from, and `cfg`
/// must carry the same seed, inputs and environment — the restored
/// world already encodes their effects, and the determinism guarantee
/// (resume + re-run ⇒ the identical trace) only holds against the original
/// configuration. `policy` replaces the scheduling policy from the snapshot
/// point on; pass `None` to continue with the snapshot's own policy state,
/// which replays the remainder of the original run exactly.
///
/// Coroutines cannot be cloned, so each started task body is re-run in
/// fast-forward: completed operations are fed from the snapshot's syscall
/// log (no kernel work, no events — the restored world already contains
/// their effects) until the body re-parks at the sync point it was parked
/// at. [`RunStats::resumed_steps`]/[`RunStats::resumed_ticks`] report the
/// inherited (skipped) work.
pub fn resume_program(
    program: &dyn Program,
    mut cfg: RunConfig,
    snapshot: &WorldSnapshot,
    policy: Option<Box<dyn SchedulePolicy>>,
    observers: Vec<Box<dyn Observer>>,
) -> RunOutput {
    let snap = snapshot.clone();
    let resumed_steps = snap.steps();
    let resumed_ticks = snap.time();
    let policy = policy.unwrap_or(snap.policy);
    let mut kernel = Kernel::new(snap.world, policy, observers, &mut cfg);

    // Rebind setup: re-collect the initial task bodies against the restored
    // world without re-declaring anything (and without re-loading inputs —
    // the pending script is part of the world).
    let mut cells = set_up(program, Builder::rebind(&mut kernel));
    // Restart-spawned tasks have no spawning parent whose syscall log could
    // hand their bodies back, so regenerate them by re-invoking the
    // program's recovery entry point in the original firing order (recovery
    // is deterministic, like setup; names are validated as a divergence
    // tripwire).
    let fired = kernel.world.live.restarts_fired.clone();
    for (group, base) in fired {
        let mut rb = RecoveryBuilder::new(&group);
        program.recover(&group, &mut rb);
        for (j, (name, f)) in rb.spawns.into_iter().enumerate() {
            let idx = base as usize + j;
            match kernel.world.live.tasks.get(idx).map(|t| t.name.as_str()) {
                Some(have) if have == name => {}
                have => panic!(
                    "resume rebind diverged: recovery for group {group:?} declared \
                     task {name:?}, restored world has {have:?} at this position"
                ),
            }
            cells[idx].body = Some(f);
        }
    }
    rebuild(&mut kernel, &mut cells);
    run_to_completion(program, kernel, cells, &cfg, resumed_steps, resumed_ticks)
}

/// Runs `program`'s setup through `b` and returns one engine cell per task
/// of the world, holding the body factories setup declared.
fn set_up(program: &dyn Program, mut b: Builder<'_>) -> Vec<TaskCell> {
    program.setup(&mut b);
    let tasks = b.kernel.world.live.tasks.len();
    let mut cells: Vec<TaskCell> = (0..tasks).map(|_| TaskCell::new(None)).collect();
    for (tid, f) in b.spawns {
        cells[tid.index()].body = Some(f);
    }
    cells
}

/// Drives the run to completion and assembles the [`RunOutput`].
fn run_to_completion(
    program: &dyn Program,
    mut kernel: Kernel,
    mut cells: Vec<TaskCell>,
    cfg: &RunConfig,
    resumed_steps: u64,
    resumed_ticks: u64,
) -> RunOutput {
    drive(&mut kernel, &mut cells, cfg, program);
    drop(cells);

    let live = &kernel.world.live;
    let registry = Registry {
        tasks: live
            .tasks
            .iter()
            .map(|t| TaskMeta {
                name: t.name.clone(),
                group: t.group.clone(),
            })
            .collect(),
        vars: live.vars.iter().map(|v| v.name.clone()).collect(),
        locks: live.locks.iter().map(|l| l.name.clone()).collect(),
        cvars: live.cvars.iter().map(|c| c.name.clone()).collect(),
        chans: live
            .chans
            .iter()
            .map(|c| ChanMeta {
                name: c.name.clone(),
                class: c.class,
            })
            .collect(),
        ports: live
            .ports
            .iter()
            .map(|p| PortMeta {
                name: p.name.clone(),
                dir: p.dir,
            })
            .collect(),
    };
    let stats = RunStats {
        steps: live.steps,
        exec_ticks: live.time,
        wall_ticks: kernel.wall_time(),
        events: live.events,
        decisions: kernel.world.decisions.len() as u64,
        resumed_steps,
        resumed_ticks,
        observer_costs: kernel.observer_costs(),
    };
    // The final digest plays the role of the hash one past the last
    // decision; computed before the counters are moved into the summary.
    let final_state_hash = live.hash_decisions.then(|| kernel.world.digest());
    let stop = live.stop.clone().unwrap_or(StopReason::Quiescent);
    // The I/O summary materializes contiguous vectors once, at run end;
    // during the run these lived in chunk-shared history logs so that
    // snapshots never paid for them.
    let io = IoSummary {
        outputs: kernel.world.outputs.to_vec(),
        inputs: kernel.world.inputs_seen.to_vec(),
        counters: std::mem::take(&mut kernel.world.live.counters),
        crashes: kernel.world.crashes.to_vec(),
        group_crashes: std::mem::take(&mut kernel.world.live.crash_counts),
        group_restarts: std::mem::take(&mut kernel.world.live.restart_counts),
    };
    RunOutput {
        stop,
        stats,
        io,
        registry,
        decisions: std::mem::take(&mut kernel.world.decisions),
        decision_enabled: std::mem::take(&mut kernel.world.decision_enabled),
        trace: std::mem::take(&mut kernel.world.trace),
        snapshots: std::mem::take(&mut kernel.snapshots),
        spilled: std::mem::take(&mut kernel.spilled),
        spill_errors: std::mem::take(&mut kernel.spill_errors),
        decision_hashes: std::mem::take(&mut kernel.world.decision_hashes),
        final_state_hash,
        observers: kernel.take_observers(),
    }
}

/// Respawns every restarted group the kernel staged in
/// [`deliver_due`](Kernel::deliver_due): invokes the program's recovery
/// entry point and registers the replacement tasks. Runs at the driver loop
/// head — before any scheduling decision — so the staging area is always
/// empty at decision points (and therefore in snapshots).
fn respawn_restarted(
    st: &mut Kernel,
    cells: &mut Vec<TaskCell>,
    alive: &mut Vec<u32>,
    program: &dyn Program,
) {
    for group in std::mem::take(&mut st.world.live.restarts_due) {
        let base = st.world.live.tasks.len() as u32;
        let mut rb = RecoveryBuilder::new(&group);
        program.recover(&group, &mut rb);
        let mut tasks = Vec::new();
        for (name, f) in rb.spawns {
            let tid = st.add_task(&name, &group, None);
            cells.push(TaskCell::new(Some(f)));
            alive.push(tid.0);
            tasks.push(tid);
        }
        debug_assert_eq!(cells.len(), st.world.live.tasks.len());
        st.emit(Event::GroupRestarted {
            group: group.clone(),
            tasks,
        });
        st.world.live.restarts_fired.push((group, base));
    }
}

/// The driver loop: schedules tasks until a stop condition, then cancels
/// everything so every task exits.
fn drive(st: &mut Kernel, cells: &mut Vec<TaskCell>, cfg: &RunConfig, program: &dyn Program) {
    // Live tasks (not exited, not killed) in ascending id order. Each
    // scheduling step scans only this list, so a step costs O(live tasks)
    // rather than O(tasks ever spawned) — the difference between linear
    // and quadratic total work for spawn-heavy workloads. Exited and
    // killed tasks never run again, so pruning is sound; new tasks get
    // strictly increasing ids, so appending keeps the order sorted.
    let is_alive = |t: &TaskRec| !matches!(t.phase, Phase::Exited { .. }) && !t.killed;
    let mut alive: Vec<u32> = (0..st.world.live.tasks.len() as u32)
        .filter(|&i| is_alive(&st.world.live.tasks[i as usize]))
        .collect();
    loop {
        if st.world.live.stop.is_some() {
            break;
        }
        st.deliver_due();
        respawn_restarted(st, cells, &mut alive, program);
        if st.world.live.steps >= cfg.max_steps {
            st.world.live.stop = Some(StopReason::MaxSteps);
            break;
        }
        if st.world.live.time >= cfg.max_time {
            st.world.live.stop = Some(StopReason::MaxTime);
            break;
        }

        alive.retain(|&i| is_alive(&st.world.live.tasks[i as usize]));
        let runnable: Vec<TaskId> = alive
            .iter()
            .filter(|&&i| st.world.live.tasks[i as usize].phase == Phase::Ready)
            .map(|&i| TaskId(i))
            .collect();

        if runnable.is_empty() {
            if alive.is_empty() {
                st.world.live.stop = Some(StopReason::Quiescent);
                break;
            }
            // Advance virtual time to the next pending wake source.
            if let Some(t) = st.next_pending_time() {
                st.world.live.time = st.world.live.time.max(t);
                st.deliver_due();
                continue;
            }
            let blocked: Vec<TaskId> = alive
                .iter()
                .filter(|&&i| matches!(st.world.live.tasks[i as usize].phase, Phase::Blocked(_)))
                .map(|&i| TaskId(i))
                .collect();
            st.world.live.stop = Some(StopReason::Deadlock { blocked });
            break;
        }

        // A recorded (multi-candidate) decision is about to be made and no
        // task is granted or running: the canonical checkpoint position.
        if let Some(plan) = st.checkpoints {
            let d = st.world.live.decision_seq;
            let already = if st.sink.is_some() {
                st.spilled.last().is_some_and(|m| m.decision >= d)
            } else {
                st.snapshots.last().is_some_and(|s| s.at_decision() >= d)
            };
            if runnable.len() > 1
                && d > 0
                && d <= plan.max_decision
                && d.is_multiple_of(plan.every.max(1))
                && !already
                // A resumed run's caller already holds the snapshot it was
                // restored from; re-taking it would be a full-world clone
                // the explorer immediately discards.
                && st.started_at != d
            {
                if st.sink.is_some() {
                    // Spill instead of retaining: the sink's policy decides
                    // whether this offer becomes a durable restore point.
                    st.offer_snapshot();
                } else {
                    let snap = st.take_snapshot();
                    st.snapshots.push(snap);
                }
            }
            // Past the last possible snapshot point the syscall log has no
            // consumer (restores replay a *snapshot's* log, never the final
            // one) — stop paying to grow it.
            if st.world.live.record_syslog && d > plan.max_decision {
                st.world.live.record_syslog = false;
            }
        }

        let Some(chosen) = st.decide(DecisionKind::NextTask, &runnable) else {
            break; // Policy error; stop reason already set.
        };
        let known = cells.len();
        step_granted(st, cells, chosen);
        for id in known..cells.len() {
            alive.push(id as u32);
        }
    }

    wind_down(st, cells);
}

/// Executes one grant: run the chosen task's announced operation (or first
/// slice, or parked spawn), then poll its body until it parks again.
fn step_granted(st: &mut Kernel, cells: &mut Vec<TaskCell>, chosen: TaskId) {
    let i = chosen.index();
    st.world.live.tasks[i].phase = Phase::Granted;

    if !cells[i].started {
        // First grant: invoke the body factory and run the first slice.
        cells[i].started = true;
        st.world.live.tasks[i].phase = Phase::Running;
        let body = cells[i]
            .body
            .take()
            .expect("unstarted task has no body factory");
        let ctx = TaskCtx {
            slot: Rc::clone(&cells[i].slot),
            tid: chosen,
        };
        match catch_unwind(AssertUnwindSafe(|| body(ctx))) {
            Ok(fut) => {
                cells[i].fut = Some(fut);
                poll_task(st, cells, chosen);
            }
            Err(payload) => finish_task(st, cells, chosen, Err(payload)),
        }
        return;
    }

    // A parked spawn request keeps its payload (name, group, child body) in
    // the mailbox until granted.
    let spawn_req = cells[i].slot.borrow_mut().request.take();
    if let Some(req) = spawn_req {
        let Request::Spawn { name, group, f } = req else {
            unreachable!("op requests are drained at announce time");
        };
        let reply = if st.world.live.tasks.len() as u64 >= st.max_tasks {
            // Tasks are cheap coroutines, so the ceiling is a policy choice:
            // fail the spawn cleanly (no event, no cost, no new task) and
            // let the spawner decide how to degrade.
            let err = SimError::TaskLimit {
                limit: st.max_tasks,
            };
            st.log_syscall(chosen, SysLogEntry::Ret(Err(err.clone())));
            Err(err)
        } else {
            let child = st.add_task(&name, &group, Some(chosen));
            st.charge(OP_COSTS.spawn);
            st.log_syscall(chosen, SysLogEntry::Spawn(child));
            cells.push(TaskCell::new(Some(f)));
            debug_assert_eq!(cells.len(), st.world.live.tasks.len());
            Ok(child)
        };
        cells[i].slot.borrow_mut().spawn_reply = Some(reply);
    } else {
        // Granted an announced operation: execute it against the kernel.
        let mut op = st.world.live.tasks[i]
            .pending_op
            .take()
            .expect("granted task has neither a spawn request nor a pending op");
        match st.exec_op(chosen, &mut op) {
            Attempt::Done(res) => {
                // The clone is only worth paying when the log keeps it.
                if st.world.live.record_syslog {
                    st.log_syscall(chosen, SysLogEntry::Ret(res.clone()));
                }
                cells[i].slot.borrow_mut().reply = Some(res);
            }
            Attempt::Block(b) => {
                // Put the op back — it carries accumulated op-local state (a
                // resolved deadline, a condvar wait past its enter stage)
                // that the retry after wake-up must see.
                st.world.live.tasks[i].pending_op = Some(op);
                st.world.live.tasks[i].phase = Phase::Blocked(b);
                return;
            }
        }
    }
    // The spawn or operation completed: the body runs on with its result.
    st.world.live.tasks[i].pending = None;
    st.world.live.tasks[i].phase = Phase::Running;
    poll_task(st, cells, chosen);
}

/// Polls a task's coroutine once (running user code up to the next
/// suspension point) and files whatever it asked for.
fn poll_task(st: &mut Kernel, cells: &mut [TaskCell], tid: TaskId) {
    let i = tid.index();
    let Some(mut fut) = cells[i].fut.take() else {
        return;
    };
    {
        let mut slot = cells[i].slot.borrow_mut();
        slot.now = st.world.live.time;
        slot.cancelled = st.world.live.cancelling || st.world.live.tasks[i].killed;
    }
    let mut cx = Context::from_waker(Waker::noop());
    let polled = catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
    let (request, now_obs) = {
        let mut slot = cells[i].slot.borrow_mut();
        (slot.request.take(), std::mem::take(&mut slot.now_obs))
    };
    // Clock peeks are not scheduling points, but a replayed body must see
    // the values the original saw — log one entry per observation.
    for _ in 0..now_obs {
        let t = st.world.live.time;
        st.log_syscall(tid, SysLogEntry::Now(t));
    }
    match polled {
        Err(payload) => finish_task(st, cells, tid, Err(payload)),
        Ok(Poll::Ready(res)) => finish_task(st, cells, tid, Ok(res)),
        Ok(Poll::Pending) => match request {
            Some(request) => {
                let (pending, pending_op) = match request {
                    // Announce: park at the sync point. The pending footprint
                    // is what the driver snapshots at decision points.
                    Request::Op(op) => (op.desc(), Some(op)),
                    // Spawning changes the enabled set itself; its footprint
                    // is global. The payload stays in the mailbox until
                    // granted.
                    req @ Request::Spawn { .. } => {
                        cells[i].slot.borrow_mut().request = Some(req);
                        (OpDesc::Global, None)
                    }
                };
                let t = &mut st.world.live.tasks[i];
                (t.pending, t.pending_op, t.phase) = (Some(pending), pending_op, Phase::Ready);
                cells[i].fut = Some(fut);
            }
            None => {
                // Suspended on a future the engine does not drive: nothing
                // will ever wake it. Fail loudly instead of hanging.
                finish_task(
                    st,
                    cells,
                    tid,
                    Ok(Err(SimError::Internal(
                        "task suspended on a non-simulator future".into(),
                    ))),
                );
            }
        },
    }
}

/// Retires a task whose body returned, panicked, or was cancelled before it
/// ever ran.
fn finish_task(
    st: &mut Kernel,
    cells: &mut [TaskCell],
    tid: TaskId,
    result: Result<SimResult<()>, Box<dyn std::any::Any + Send>>,
) {
    let i = tid.index();
    cells[i].fut = None;
    cells[i].body = None;
    if matches!(st.world.live.tasks[i].phase, Phase::Exited { .. }) {
        return;
    }
    let ok = match result {
        Ok(Ok(())) => true,
        // Cancellation is a clean unwind, not a program failure.
        Ok(Err(SimError::Cancelled)) => true,
        Ok(Err(e)) => {
            st.record_crash(tid, format!("task error: {e}"), "task_error");
            false
        }
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            st.record_crash(tid, format!("panic: {msg}"), "panic");
            false
        }
    };
    st.wake_joiners(tid);
    st.world.live.tasks[i].phase = Phase::Exited { ok };
    st.emit(Event::TaskExit { task: tid, ok });
}

/// Wind down: cancel every live task so its parked operation returns
/// [`SimError::Cancelled`] and the body unwinds. Tasks are retired strictly
/// in task-id order because each exit emits a `TaskExit` event — the same
/// deterministic order the thread-based engine enforced with its serialized
/// cancellation sweep.
fn wind_down(st: &mut Kernel, cells: &mut [TaskCell]) {
    st.world.live.cancelling = true;
    for i in 0..cells.len() {
        let tid = TaskId(i as u32);
        if matches!(st.world.live.tasks[i].phase, Phase::Exited { .. }) {
            continue;
        }
        if !cells[i].started {
            // Never granted: the body never ran; exit cleanly without
            // running it.
            finish_task(st, cells, tid, Ok(Err(SimError::Cancelled)));
            continue;
        }
        {
            let mut slot = cells[i].slot.borrow_mut();
            slot.cancelled = true;
            // Whatever the body is parked on resolves to Cancelled; only
            // the matching future reads its field, the other is cleared
            // when the cell is dropped.
            slot.reply = Some(Err(SimError::Cancelled));
            slot.spawn_reply = Some(Err(SimError::Cancelled));
        }
        poll_task(st, cells, tid);
        if !matches!(st.world.live.tasks[i].phase, Phase::Exited { .. }) {
            // The body swallowed Cancelled and parked again (every request
            // now fails fast, so this is a refusal to unwind). Retire it.
            finish_task(
                st,
                cells,
                tid,
                Ok(Err(SimError::Internal(
                    "task did not unwind on cancellation".into(),
                ))),
            );
        }
    }
}

/// Rebuilds the coroutines of a restored world by fast-forwarding each
/// started task's body through its retained syscall log (one synchronous
/// poll per task; see module docs).
///
/// Processed in task-id order so a replayed spawning parent deposits its
/// children's bodies before the children themselves are rebuilt (a child's
/// id is always greater than its parent's). Exited tasks are only replayed
/// when their log contains spawns to harvest; any mismatch between a body
/// and its log stops the run with [`StopReason::ReplayDivergence`].
fn rebuild(st: &mut Kernel, cells: &mut [TaskCell]) {
    for i in 0..cells.len() {
        let tid = TaskId(i as u32);
        let exited = matches!(st.world.live.tasks[i].phase, Phase::Exited { .. });
        // At a decision point every started non-exited task is parked at an
        // announced operation, so `pending` doubles as the started flag.
        if !exited && st.world.live.tasks[i].pending.is_none() {
            continue; // Never started; takes the normal first-grant path.
        }
        cells[i].started = true;
        let log = &st.world.sys_log[i];
        if exited && !log.iter().any(|e| matches!(e, SysLogEntry::Spawn(_))) {
            // Fully retired and spawned nothing: its exit event, crash
            // records and joiner wakes are all part of the restored world,
            // and there are no child bodies to harvest. Skip the replay.
            cells[i].body = None;
            continue;
        }
        {
            let mut slot = cells[i].slot.borrow_mut();
            slot.ff = log.iter().cloned().collect();
            slot.now = st.world.live.time;
            slot.cancelled = false;
        }
        let Some(body) = cells[i].body.take() else {
            diverge(st, tid, "no body for a started task (program mismatch)");
            return;
        };
        let ctx = TaskCtx {
            slot: Rc::clone(&cells[i].slot),
            tid,
        };
        let mut fut = match catch_unwind(AssertUnwindSafe(|| body(ctx))) {
            Ok(f) => f,
            Err(_) => {
                diverge(st, tid, "body factory panicked during fast-forward");
                return;
            }
        };
        let mut cx = Context::from_waker(Waker::noop());
        let polled = catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
        let (request, divergence, ff_left, spawned) = {
            let mut slot = cells[i].slot.borrow_mut();
            let ff_left = slot.ff.len();
            slot.ff.clear();
            slot.now_obs = 0; // Replay consumed the logged observations instead.
            (
                slot.request.take(),
                slot.divergence.take(),
                ff_left,
                std::mem::take(&mut slot.spawned),
            )
        };
        // Hand harvested child bodies to their cells (children have larger
        // ids, so their own rebuild is still ahead).
        for (child, f) in spawned {
            cells[child.index()].body = Some(f);
        }
        if let Some(detail) = divergence {
            diverge(st, tid, &detail);
            return;
        }
        if ff_left > 0 {
            diverge(st, tid, "body parked before consuming its recorded log");
            return;
        }
        match polled {
            Err(_) if exited => { /* Its recorded crash is already in the world. */ }
            Err(_) => {
                diverge(st, tid, "body panicked during fast-forward");
                return;
            }
            Ok(Poll::Ready(_)) => {
                if !exited {
                    diverge(st, tid, "body completed during fast-forward");
                    return;
                }
            }
            Ok(Poll::Pending) => {
                if exited {
                    diverge(st, tid, "replayed body of an exited task parked");
                    return;
                }
                cells[i].fut = Some(fut);
                match request {
                    // The announced operation is already in the world —
                    // `pending_op` carries any op-local state accumulated
                    // across blocked attempts, which the body's fresh copy
                    // lacks. Discard the fresh copy.
                    Some(Request::Op(_)) => {}
                    // A parked spawn keeps its payload in the mailbox (the
                    // world only records the Global footprint).
                    Some(req @ Request::Spawn { .. }) => {
                        cells[i].slot.borrow_mut().request = Some(req);
                    }
                    None => {
                        diverge(st, tid, "body suspended on a non-simulator future");
                        return;
                    }
                }
            }
        }
    }
}

/// Flags a fast-forward mismatch and stops the run at the first divergence.
fn diverge(st: &mut Kernel, tid: TaskId, detail: &str) {
    if st.world.live.stop.is_none() {
        st.world.live.stop = Some(StopReason::ReplayDivergence {
            step: st.world.live.decision_seq,
            detail: format!("fast-forward divergence for {tid}: {detail}"),
        });
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}
