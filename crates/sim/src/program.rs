//! The program-facing API: [`Program`], [`Builder`], [`TaskCtx`] and typed
//! handles.
//!
//! A program declares its shared objects and initial tasks in
//! [`Program::setup`]; task bodies are `async` coroutines that interact with
//! the machine exclusively through [`TaskCtx`] operations, each of which is
//! an `await` — a scheduling point where the body suspends and the driver
//! decides who runs next. Every operation takes a static [`Site`] label —
//! the stand-in for a source location — which drives plane classification
//! and selective recording.
//!
//! The futures here never touch a real async runtime: awaiting an operation
//! parks the coroutine by leaving a request in its `TaskSlot` mailbox and
//! returning `Pending`; the driver executes the operation against the
//! kernel and re-polls with the result in the mailbox. Wakers are never
//! used (the driver knows exactly whom to poll), so task bodies must await
//! only `TaskCtx` operations — a foreign future that returns `Pending`
//! would suspend the task forever and is reported as an internal error.

use crate::config::ChanClass;
use crate::error::{SimError, SimResult};
use crate::ids::{ChanId, CondvarId, LockId, PortId, Site, TaskId, VarId};
use crate::kernel::Kernel;
use crate::ops::{CvStage, Op};
use crate::value::{SimData, Value};
use crate::world::{PortDir, SysLogEntry};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

/// A typed shared-variable handle.
pub struct TVar<T> {
    /// The underlying variable id.
    pub id: VarId,
    _pd: PhantomData<fn(T) -> T>,
}

impl<T> TVar<T> {
    pub(crate) fn new(id: VarId) -> Self {
        TVar {
            id,
            _pd: PhantomData,
        }
    }
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TVar<T> {}

impl<T> core::fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "TVar({})", self.id)
    }
}

/// A typed channel handle (usable for both sending and receiving).
pub struct ChanHandle<T> {
    /// The underlying channel id.
    pub id: ChanId,
    _pd: PhantomData<fn(T) -> T>,
}

impl<T> ChanHandle<T> {
    pub(crate) fn new(id: ChanId) -> Self {
        ChanHandle {
            id,
            _pd: PhantomData,
        }
    }
}

impl<T> Clone for ChanHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ChanHandle<T> {}

impl<T> core::fmt::Debug for ChanHandle<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ChanHandle({})", self.id)
    }
}

/// A lock handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutexHandle(pub LockId);

/// A condition-variable handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CondvarHandle(pub CondvarId);

/// An input-port handle (scripted external inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InPort(pub PortId);

/// An output-port handle (observable outputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutPort(pub PortId);

/// The pinned coroutine for one task body. `!Send` by design: futures are
/// engine-local (every run builds its own engine), only the *factories*
/// ([`TaskFn`]) may cross threads.
pub type TaskFuture = Pin<Box<dyn Future<Output = SimResult<()>> + 'static>>;

/// A task body factory: runs once, producing the body's coroutine. The body
/// must propagate [`SimError::Cancelled`] promptly.
pub type TaskFn = Box<dyn FnOnce(TaskCtx) -> TaskFuture + Send + 'static>;

/// The per-task mailbox between a body's futures and the driver's engine.
///
/// One poll of the body runs user code from one suspension point to the
/// next; everything the body wants from the machine in between lands here,
/// and everything the machine answers comes back through here.
#[derive(Default)]
pub(crate) struct TaskSlot {
    /// The operation or spawn the body parked on (set by the awaited
    /// future, drained by the engine when the poll returns `Pending`).
    pub request: Option<Request>,
    /// The completed operation's result, deposited by the engine before the
    /// wake-up poll.
    pub reply: Option<SimResult<Value>>,
    /// The completed spawn's result, deposited by the engine before the
    /// wake-up poll.
    pub spawn_reply: Option<SimResult<TaskId>>,
    /// The execution clock as of this poll (the clock only moves between
    /// polls, so every [`TaskCtx::now`] in one poll sees the same value).
    pub now: u64,
    /// Set when the run is winding down (or this task was killed): every
    /// subsequent operation fails fast with [`SimError::Cancelled`].
    pub cancelled: bool,
    /// Fast-forward queue for snapshot resume: recorded syscall results the
    /// body consumes (instead of announcing live operations) while it is
    /// being replayed back to its park point.
    pub ff: VecDeque<SysLogEntry>,
    /// Children harvested while fast-forwarding a spawning parent: the
    /// restored world already has the child task, but only the re-run
    /// parent body can recreate the child's body closure.
    pub spawned: Vec<(TaskId, TaskFn)>,
    /// How many live [`TaskCtx::now`] observations this poll made (the
    /// engine logs one syscall-log entry per observation afterwards).
    pub now_obs: u32,
    /// A fast-forward mismatch detected inside a future (where it cannot
    /// reach the kernel to stop the run).
    pub divergence: Option<String>,
}

/// What a parked task body asked the machine to do.
pub(crate) enum Request {
    /// Execute a kernel operation.
    Op(Op),
    /// Spawn a child task.
    Spawn {
        name: String,
        group: String,
        f: TaskFn,
    },
}

/// Future for one kernel operation: first poll announces the request (or
/// consumes a fast-forward entry), wake-up poll takes the reply.
pub(crate) struct OpCall {
    slot: Rc<RefCell<TaskSlot>>,
    op: Option<Op>,
}

impl Future for OpCall {
    type Output = SimResult<Value>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut slot = this.slot.borrow_mut();
        match this.op.take() {
            Some(op) => {
                if let Some(entry) = slot.ff.pop_front() {
                    // Fast-forward: the restored world already contains this
                    // operation's effects, events and cost — just feed the
                    // recorded result back (without suspending: the whole
                    // replay is one poll).
                    return match entry {
                        SysLogEntry::Ret(res) => Poll::Ready(res),
                        other => {
                            slot.divergence =
                                Some(format!("expected an op result, log has {other:?}"));
                            Poll::Ready(Err(SimError::Cancelled))
                        }
                    };
                }
                if slot.cancelled {
                    return Poll::Ready(Err(SimError::Cancelled));
                }
                slot.request = Some(Request::Op(op));
                Poll::Pending
            }
            None => match slot.reply.take() {
                Some(res) => Poll::Ready(res),
                None => Poll::Pending,
            },
        }
    }
}

/// Future for one runtime spawn (same two-phase shape as [`OpCall`]).
pub(crate) struct SpawnCall {
    slot: Rc<RefCell<TaskSlot>>,
    payload: Option<(String, String, TaskFn)>,
}

impl Future for SpawnCall {
    type Output = SimResult<TaskId>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut slot = this.slot.borrow_mut();
        match this.payload.take() {
            Some((name, group, f)) => {
                if let Some(entry) = slot.ff.pop_front() {
                    // Fast-forward: the child already exists in the restored
                    // world; hand its body to the engine for rebuilding.
                    return match entry {
                        SysLogEntry::Spawn(tid) => {
                            slot.spawned.push((tid, f));
                            Poll::Ready(Ok(tid))
                        }
                        SysLogEntry::Ret(Err(e)) => Poll::Ready(Err(e)),
                        other => {
                            slot.divergence = Some(format!("expected a spawn, log has {other:?}"));
                            Poll::Ready(Err(SimError::Cancelled))
                        }
                    };
                }
                if slot.cancelled {
                    return Poll::Ready(Err(SimError::Cancelled));
                }
                slot.request = Some(Request::Spawn { name, group, f });
                Poll::Pending
            }
            None => match slot.spawn_reply.take() {
                Some(res) => Poll::Ready(res),
                None => Poll::Pending,
            },
        }
    }
}

/// A program the machine can run.
///
/// Implementations must be deterministic: all nondeterminism must flow
/// through [`TaskCtx`] operations (inputs, RNG, scheduling), never through
/// ambient sources like `std::time` or `HashMap` iteration order.
pub trait Program: Send + Sync {
    /// A short stable name (used in reports).
    fn name(&self) -> &'static str;

    /// Declares shared objects and spawns the initial tasks.
    fn setup(&self, b: &mut Builder<'_>);

    /// Respawns tasks for a failure-domain group the environment restarted
    /// (a scheduled [`RestartEvent`](crate::config::RestartEvent) fired
    /// after the group was killed).
    ///
    /// The replacement tasks are fresh coroutines with *new* task ids; the
    /// group's shared objects (variables, locks, channels) survive the
    /// crash untouched, so recovery code typically rebuilds volatile state
    /// from the durable state it finds there — like a database replaying
    /// its commit log. Must be deterministic, like [`setup`](Self::setup).
    ///
    /// The default recovers nothing: the restart is counted but the group
    /// stays down.
    fn recover(&self, group: &str, b: &mut RecoveryBuilder) {
        let _ = (group, b);
    }
}

/// Collects the replacement tasks a program's recovery entry point spawns
/// when the environment restarts a killed failure-domain group (see
/// [`Program::recover`]).
pub struct RecoveryBuilder {
    group: String,
    pub(crate) spawns: Vec<(String, TaskFn)>,
}

impl RecoveryBuilder {
    pub(crate) fn new(group: &str) -> Self {
        RecoveryBuilder {
            group: group.to_owned(),
            spawns: Vec::new(),
        }
    }

    /// The failure-domain group being restarted.
    pub fn group(&self) -> &str {
        &self.group
    }

    /// Spawns a replacement task (in the restarting group).
    pub fn spawn<F, Fut>(&mut self, name: &str, f: F)
    where
        F: FnOnce(TaskCtx) -> Fut + Send + 'static,
        Fut: Future<Output = SimResult<()>> + 'static,
    {
        self.spawns.push((
            name.to_owned(),
            Box::new(move |ctx| Box::pin(f(ctx)) as TaskFuture),
        ));
    }
}

/// Object-declaration counters for rebind-mode setup (see [`Builder`]).
#[derive(Debug, Default, Clone, Copy)]
struct RebindCursor {
    vars: u32,
    locks: u32,
    cvars: u32,
    chans: u32,
    ports: u32,
    tasks: u32,
}

/// Setup-time construction interface handed to [`Program::setup`].
///
/// In the normal (fresh) mode every declaration registers a new machine
/// object. In *rebind* mode — used when resuming a run from a
/// [`WorldSnapshot`](crate::kernel::WorldSnapshot) — the machine objects
/// already exist in the restored world; declarations merely hand back the
/// ids in the original declaration order (setup is deterministic, so the
/// orders match; names are validated as a divergence tripwire) and
/// re-collect the initial task bodies for fast-forward.
pub struct Builder<'k> {
    pub(crate) kernel: &'k mut Kernel,
    pub(crate) spawns: Vec<(TaskId, TaskFn)>,
    rebind: Option<RebindCursor>,
}

impl<'k> Builder<'k> {
    pub(crate) fn new(kernel: &'k mut Kernel) -> Self {
        Builder {
            kernel,
            spawns: Vec::new(),
            rebind: None,
        }
    }

    pub(crate) fn rebind(kernel: &'k mut Kernel) -> Self {
        Builder {
            kernel,
            spawns: Vec::new(),
            rebind: Some(RebindCursor::default()),
        }
    }

    fn rebind_check(kind: &str, declared: &str, existing: Option<&str>) {
        match existing {
            Some(have) if have == declared => {}
            have => panic!(
                "resume rebind diverged: program declared {kind} {declared:?}, \
                 restored world has {have:?} at this position"
            ),
        }
    }

    /// Declares a typed shared variable with an initial value.
    pub fn var<T: SimData>(&mut self, name: &str, init: T) -> TVar<T> {
        TVar::new(self.raw_var(name, init.into_value()))
    }

    /// Declares an untyped shared variable.
    pub fn raw_var(&mut self, name: &str, init: Value) -> VarId {
        if let Some(cur) = &mut self.rebind {
            let id = VarId(cur.vars);
            cur.vars += 1;
            Self::rebind_check(
                "var",
                name,
                self.kernel
                    .world
                    .live
                    .vars
                    .get(id.index())
                    .map(|v| v.name.as_str()),
            );
            return id;
        }
        self.kernel.add_var(name, init)
    }

    /// Declares a lock.
    pub fn mutex(&mut self, name: &str) -> MutexHandle {
        if let Some(cur) = &mut self.rebind {
            let id = crate::ids::LockId(cur.locks);
            cur.locks += 1;
            Self::rebind_check(
                "lock",
                name,
                self.kernel
                    .world
                    .live
                    .locks
                    .get(id.index())
                    .map(|l| l.name.as_str()),
            );
            return MutexHandle(id);
        }
        MutexHandle(self.kernel.add_lock(name))
    }

    /// Declares a condition variable.
    pub fn condvar(&mut self, name: &str) -> CondvarHandle {
        if let Some(cur) = &mut self.rebind {
            let id = CondvarId(cur.cvars);
            cur.cvars += 1;
            Self::rebind_check(
                "condvar",
                name,
                self.kernel
                    .world
                    .live
                    .cvars
                    .get(id.index())
                    .map(|c| c.name.as_str()),
            );
            return CondvarHandle(id);
        }
        CondvarHandle(self.kernel.add_cvar(name))
    }

    /// Declares a typed channel.
    pub fn channel<T: SimData>(&mut self, name: &str, class: ChanClass) -> ChanHandle<T> {
        if let Some(cur) = &mut self.rebind {
            let id = ChanId(cur.chans);
            cur.chans += 1;
            Self::rebind_check(
                "channel",
                name,
                self.kernel
                    .world
                    .live
                    .chans
                    .get(id.index())
                    .map(|c| c.name.as_str()),
            );
            return ChanHandle::new(id);
        }
        ChanHandle::new(self.kernel.add_chan(name, class))
    }

    /// Declares an input port fed by the run's input script.
    pub fn in_port(&mut self, name: &str) -> InPort {
        InPort(self.port(name, PortDir::In))
    }

    /// Declares an output port for observable outputs.
    pub fn out_port(&mut self, name: &str) -> OutPort {
        OutPort(self.port(name, PortDir::Out))
    }

    fn port(&mut self, name: &str, dir: PortDir) -> PortId {
        if let Some(cur) = &mut self.rebind {
            let id = PortId(cur.ports);
            cur.ports += 1;
            Self::rebind_check(
                "port",
                name,
                self.kernel
                    .world
                    .live
                    .ports
                    .get(id.index())
                    .map(|p| p.name.as_str()),
            );
            return id;
        }
        self.kernel.add_port(name, dir)
    }

    /// Spawns an initial task in the given failure-domain `group`.
    pub fn spawn<F, Fut>(&mut self, name: &str, group: &str, f: F) -> TaskId
    where
        F: FnOnce(TaskCtx) -> Fut + Send + 'static,
        Fut: Future<Output = SimResult<()>> + 'static,
    {
        let body: TaskFn = Box::new(move |ctx| Box::pin(f(ctx)) as TaskFuture);
        if let Some(cur) = &mut self.rebind {
            let tid = TaskId(cur.tasks);
            cur.tasks += 1;
            Self::rebind_check(
                "task",
                name,
                self.kernel
                    .world
                    .live
                    .tasks
                    .get(tid.index())
                    .map(|t| t.name.as_str()),
            );
            self.spawns.push((tid, body));
            return tid;
        }
        let tid = self.kernel.add_task(name, group, None);
        self.spawns.push((tid, body));
        tid
    }
}

/// The per-task operation context, owned by the task body's coroutine.
///
/// All async methods are scheduling points: the calling body suspends, the
/// driver picks who runs next, and the operation executes atomically with
/// respect to every other task. Methods return [`SimError::Cancelled`] once
/// the run is winding down; bodies must propagate it (use `?`).
pub struct TaskCtx {
    pub(crate) slot: Rc<RefCell<TaskSlot>>,
    pub(crate) tid: TaskId,
}

impl TaskCtx {
    /// Returns this task's id.
    pub fn me(&self) -> TaskId {
        self.tid
    }

    /// Returns the current execution-clock time.
    ///
    /// Not a scheduling point: the task logically owns the processor while
    /// running, so the clock cannot move underneath it. During fast-forward
    /// after a restore it returns the clock value the original execution
    /// observed at this point.
    pub fn now(&self) -> u64 {
        let mut slot = self.slot.borrow_mut();
        if let Some(entry) = slot.ff.pop_front() {
            match entry {
                SysLogEntry::Now(t) => return t,
                other => {
                    // Divergence (the log holds an op result where the body
                    // asked for the clock). now() cannot propagate an error;
                    // flag it for the engine and fall back to the restored
                    // clock.
                    slot.divergence = Some(format!(
                        "body observed the clock where the log has {other:?}"
                    ));
                    return slot.now;
                }
            }
        }
        slot.now_obs += 1;
        slot.now
    }

    /// Reads a typed shared variable.
    ///
    /// Returns [`SimError::Internal`] if the stored value does not decode as
    /// `T` (a programming error, surfaced loudly).
    pub async fn read<T: SimData>(&mut self, var: &TVar<T>, site: Site) -> SimResult<T> {
        let v = self.syscall(Op::Read { var: var.id, site }).await?;
        T::from_value(&v).ok_or_else(|| {
            SimError::Internal(format!("type mismatch reading {} at {site}", var.id))
        })
    }

    /// Writes a typed shared variable.
    pub async fn write<T: SimData>(
        &mut self,
        var: &TVar<T>,
        value: T,
        site: Site,
    ) -> SimResult<()> {
        self.syscall(Op::Write {
            var: var.id,
            value: value.into_value(),
            site,
        })
        .await
        .map(drop)
    }

    /// Reads an untyped shared variable.
    pub async fn read_raw(&mut self, var: VarId, site: Site) -> SimResult<Value> {
        self.syscall(Op::Read { var, site }).await
    }

    /// Writes an untyped shared variable.
    pub async fn write_raw(&mut self, var: VarId, value: Value, site: Site) -> SimResult<()> {
        self.syscall(Op::Write { var, value, site }).await.map(drop)
    }

    /// Acquires a lock (blocking).
    pub async fn lock(&mut self, m: MutexHandle, site: Site) -> SimResult<()> {
        self.syscall(Op::Lock { lock: m.0, site }).await.map(drop)
    }

    /// Releases a lock.
    pub async fn unlock(&mut self, m: MutexHandle, site: Site) -> SimResult<()> {
        self.syscall(Op::Unlock { lock: m.0, site }).await.map(drop)
    }

    /// Waits on a condition variable, atomically releasing `m`; on return
    /// the lock is held again.
    pub async fn wait(&mut self, cv: CondvarHandle, m: MutexHandle, site: Site) -> SimResult<()> {
        self.syscall(Op::CvWait {
            cvar: cv.0,
            lock: m.0,
            stage: CvStage::Enter,
            site,
        })
        .await
        .map(drop)
    }

    /// Wakes one waiter (scheduling-policy choice among waiters).
    pub async fn notify_one(&mut self, cv: CondvarHandle, site: Site) -> SimResult<()> {
        self.syscall(Op::CvNotify {
            cvar: cv.0,
            all: false,
            site,
        })
        .await
        .map(drop)
    }

    /// Wakes all waiters.
    pub async fn notify_all(&mut self, cv: CondvarHandle, site: Site) -> SimResult<()> {
        self.syscall(Op::CvNotify {
            cvar: cv.0,
            all: true,
            site,
        })
        .await
        .map(drop)
    }

    /// Sends a message (unbounded queue; may be dropped on congested
    /// network channels).
    pub async fn send<T: SimData>(
        &mut self,
        ch: &ChanHandle<T>,
        msg: T,
        site: Site,
    ) -> SimResult<()> {
        self.syscall(Op::Send {
            chan: ch.id,
            value: msg.into_value(),
            site,
        })
        .await
        .map(drop)
    }

    /// Receives a message (blocking).
    pub async fn recv<T: SimData>(&mut self, ch: &ChanHandle<T>, site: Site) -> SimResult<T> {
        let v = self
            .syscall(Op::Recv {
                chan: ch.id,
                deadline: None,
                timeout: None,
                site,
            })
            .await?;
        T::from_value(&v).ok_or_else(|| {
            SimError::Internal(format!("type mismatch receiving on {} at {site}", ch.id))
        })
    }

    /// Receives a message, giving up after `ticks` of virtual time.
    pub async fn recv_timeout<T: SimData>(
        &mut self,
        ch: &ChanHandle<T>,
        ticks: u64,
        site: Site,
    ) -> SimResult<T> {
        let v = self
            .syscall(Op::Recv {
                chan: ch.id,
                deadline: None,
                timeout: Some(ticks),
                site,
            })
            .await?;
        T::from_value(&v).ok_or_else(|| {
            SimError::Internal(format!("type mismatch receiving on {} at {site}", ch.id))
        })
    }

    /// Closes a channel; subsequent receives on an empty queue fail with
    /// [`SimError::ChannelClosed`].
    pub async fn close<T>(&mut self, ch: &ChanHandle<T>, site: Site) -> SimResult<()> {
        self.syscall(Op::CloseChan { chan: ch.id, site })
            .await
            .map(drop)
    }

    /// Reads the next scripted input from a port (blocking until arrival;
    /// fails with [`SimError::InputExhausted`] when the script has ended).
    pub async fn input<T: SimData>(&mut self, p: InPort, site: Site) -> SimResult<T> {
        let v = self.syscall(Op::ReadInput { port: p.0, site }).await?;
        T::from_value(&v).ok_or_else(|| {
            SimError::Internal(format!("type mismatch reading input {} at {site}", p.0))
        })
    }

    /// Emits an observable output.
    pub async fn output<T: SimData>(&mut self, p: OutPort, value: T, site: Site) -> SimResult<()> {
        self.syscall(Op::WriteOutput {
            port: p.0,
            value: value.into_value(),
            site,
        })
        .await
        .map(drop)
    }

    /// Samples a named probe point (consumed by invariant inference).
    pub async fn probe<T: SimData>(
        &mut self,
        name: &'static str,
        value: T,
        site: Site,
    ) -> SimResult<()> {
        self.syscall(Op::Probe {
            name,
            value: value.into_value(),
            site,
        })
        .await
        .map(drop)
    }

    /// Adjusts a named counter (part of the observable I/O summary) and
    /// returns the new total.
    pub async fn count(&mut self, name: &'static str, delta: i64, site: Site) -> SimResult<i64> {
        let v = self.syscall(Op::Count { name, delta, site }).await?;
        Ok(v.as_int().unwrap_or(0))
    }

    /// Draws a uniform value in `[0, bound)` from the kernel RNG
    /// (`bound = 0` means the full 64-bit range).
    pub async fn rand_below(&mut self, bound: u64, site: Site) -> SimResult<u64> {
        let v = self.syscall(Op::Rng { bound, site }).await?;
        Ok(v.as_int().unwrap_or(0) as u64)
    }

    /// Sleeps for `ticks` of virtual time.
    pub async fn sleep(&mut self, ticks: u64, site: Site) -> SimResult<()> {
        self.syscall(Op::Sleep {
            until: None,
            ticks,
            site,
        })
        .await
        .map(drop)
    }

    /// Yields the processor (a pure scheduling point).
    pub async fn yield_now(&mut self, site: Site) -> SimResult<()> {
        self.syscall(Op::Yield { site }).await.map(drop)
    }

    /// Accounts `bytes` of allocation against this task's memory budget.
    pub async fn alloc(&mut self, bytes: u64, site: Site) -> SimResult<()> {
        self.syscall(Op::Alloc { bytes, site }).await.map(drop)
    }

    /// Returns `bytes` of allocation to the budget.
    pub async fn free(&mut self, bytes: u64, site: Site) -> SimResult<()> {
        self.syscall(Op::Free { bytes, site }).await.map(drop)
    }

    /// Blocks until `task` exits (or was killed).
    pub async fn join(&mut self, task: TaskId, site: Site) -> SimResult<()> {
        self.syscall(Op::Join { task, site }).await.map(drop)
    }

    /// Records a crash of this task and unwinds it.
    ///
    /// Always returns an error so it can be written as
    /// `return ctx.crash("reason", site).await`.
    pub async fn crash(&mut self, reason: &str, site: Site) -> SimResult<()> {
        self.syscall(Op::Crash {
            reason: reason.to_owned(),
            site,
        })
        .await?;
        Err(SimError::Cancelled)
    }

    /// Requests an orderly early stop of the whole run.
    pub async fn stop_run(&mut self, site: Site) -> SimResult<()> {
        self.syscall(Op::StopRun { site }).await.map(drop)
    }

    /// Spawns a new task in the given failure-domain group.
    ///
    /// Fails with [`SimError::TaskLimit`] when the run is already at its
    /// configured [`max_tasks`](crate::config::RunConfig) ceiling.
    pub async fn spawn<F, Fut>(&mut self, name: &str, group: &str, f: F) -> SimResult<TaskId>
    where
        F: FnOnce(TaskCtx) -> Fut + Send + 'static,
        Fut: Future<Output = SimResult<()>> + 'static,
    {
        SpawnCall {
            slot: Rc::clone(&self.slot),
            payload: Some((
                name.to_owned(),
                group.to_owned(),
                Box::new(move |ctx| Box::pin(f(ctx)) as TaskFuture),
            )),
        }
        .await
    }

    fn syscall(&mut self, op: Op) -> OpCall {
        OpCall {
            slot: Rc::clone(&self.slot),
            op: Some(op),
        }
    }
}
