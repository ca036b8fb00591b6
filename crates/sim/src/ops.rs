//! Operation semantics: what each [`Op`] a task asks for does to the world.
//!
//! [`Kernel::exec_op`] attempts one operation on behalf of a granted task.
//! A completed operation charges its cost to the execution clock, emits its
//! events and returns its result; one that cannot proceed returns the
//! resource the task must block on, and the driver re-attempts it after a
//! wake-up.

use crate::config::{ChanClass, OP_COSTS};
use crate::conflict::OpDesc;
use crate::error::{SimError, SimResult, StopReason};
use crate::event::{DecisionKind, Event};
use crate::ids::{ChanId, CondvarId, LockId, PortId, Site, TaskId, VarId};
use crate::kernel::Kernel;
use crate::value::Value;
use crate::world::{BlockOn, CrashRecord, OutputRecord, Phase};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

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
/// Between attempts the op lives in
/// [`TaskRec::pending_op`](crate::world::TaskRec::pending_op) — part of the
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
    /// Attempts `op` on behalf of `task`.
    ///
    /// On success the execution clock advances by the op's cost and the
    /// corresponding events are emitted. On `Block` nothing is charged.
    pub fn exec_op(&mut self, task: TaskId, op: &mut Op) -> Attempt {
        match op {
            Op::Read { var, site } => {
                let actual = self.world.live.vars[var.index()].value.clone();
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
                self.world.live.vars[var.index()].value = value.clone();
                self.charge(OP_COSTS.write_cost(value.byte_size()));
                self.emit(Event::Write {
                    task,
                    var: *var,
                    value: value.clone(),
                    site: (*site).into(),
                });
                Attempt::Done(Ok(Value::Unit))
            }
            Op::Lock { lock, site } => self.acquire(task, *lock, site, || {
                format!("task {task} re-acquired lock {lock} (not reentrant)")
            }),
            Op::Unlock { lock, site } => {
                let rec = &mut self.world.live.locks[lock.index()];
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
                self.wake_blocked(|b| b == BlockOn::Lock(*lock));
                Attempt::Done(Ok(Value::Unit))
            }
            Op::CvWait {
                cvar,
                lock,
                stage,
                site,
            } => match *stage {
                CvStage::Enter => {
                    let lrec = &mut self.world.live.locks[lock.index()];
                    if lrec.holder != Some(task) {
                        return Attempt::Done(Err(SimError::Internal(format!(
                            "cv wait on {cvar} without holding {lock}"
                        ))));
                    }
                    lrec.holder = None;
                    self.world.live.cvars[cvar.index()].waiters.push(task);
                    self.charge(OP_COSTS.lock);
                    self.emit(Event::CondWait {
                        task,
                        cvar: *cvar,
                        lock: *lock,
                        site: (*site).into(),
                    });
                    self.wake_blocked(|b| b == BlockOn::Lock(*lock));
                    *stage = CvStage::Relock;
                    Attempt::Block(BlockOn::Cvar(*cvar))
                }
                // We were notified; reacquire the lock (may block again).
                CvStage::Relock => self.acquire(task, *lock, site, || {
                    "cv relock while already holding".into()
                }),
            },
            Op::CvNotify { cvar, all, site } => {
                let queue = &mut self.world.live.cvars[cvar.index()].waiters;
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
                            self.world.live.cvars[cvar.index()]
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
                let class = self.world.live.chans[chan.index()].class;
                if class == ChanClass::Network {
                    let idx = self.world.live.net_sends;
                    self.world.live.net_sends += 1;
                    // Active partitions drop the send deterministically —
                    // before the drop script / congestion roll, and without
                    // consuming RNG, so the same env replays identically.
                    let dropped = self.partitioned(task, *chan)
                        || match &self.env.drop_script {
                            Some(script) => script.contains(&idx),
                            None => {
                                let per_mille = self.env.drop_per_mille as u64;
                                per_mille > 0 && self.world.live.rng.chance(per_mille, 1000)
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
                self.world.live.chans[chan.index()]
                    .queue
                    .push_back(value.clone());
                self.charge(OP_COSTS.msg_cost(bytes));
                self.emit(Event::Send {
                    task,
                    chan: *chan,
                    value: value.clone(),
                    site: (*site).into(),
                });
                self.wake_blocked(|b| matches!(b, BlockOn::Chan { chan: c, .. } if c == *chan));
                Attempt::Done(Ok(Value::Unit))
            }
            Op::Recv {
                chan,
                deadline,
                timeout,
                site,
            } => {
                let overridden = self
                    .nondet_override
                    .as_mut()
                    .and_then(|h| h.override_recv(task, *chan));
                let rec = &mut self.world.live.chans[chan.index()];
                if let Some(v) = overridden.or_else(|| rec.queue.pop_front()) {
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
                        let d = self.world.live.time.saturating_add(*t);
                        *deadline = Some(d);
                        self.world.live.timers.push(Reverse((d, task.0)));
                    }
                }
                if let Some(d) = *deadline {
                    if d <= self.world.live.time {
                        return Attempt::Done(Err(SimError::RecvTimeout(*chan)));
                    }
                }
                Attempt::Block(BlockOn::Chan {
                    chan: *chan,
                    deadline: *deadline,
                })
            }
            Op::CloseChan { chan, site: _ } => {
                self.world.live.chans[chan.index()].closed = true;
                self.charge(OP_COSTS.msg_base);
                self.wake_blocked(|b| matches!(b, BlockOn::Chan { chan: c, .. } if c == *chan));
                Attempt::Done(Ok(Value::Unit))
            }
            Op::ReadInput { port, site } => {
                let overridden = self
                    .nondet_override
                    .as_mut()
                    .and_then(|h| h.override_input(task, *port));
                let rec = &mut self.world.live.ports[port.index()];
                if let Some(v) = overridden.or_else(|| rec.queue.pop_front()) {
                    self.charge(OP_COSTS.io);
                    let name = self.world.live.ports[port.index()].name.clone();
                    self.world.inputs_seen.push((name, v.clone()));
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
                    time: self.world.live.time,
                    task,
                    port: *port,
                    port_name: self.world.live.ports[port.index()].name.clone(),
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
                let total = self
                    .world
                    .live
                    .counters
                    .entry((*name).to_owned())
                    .or_insert(0);
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
                        .unwrap_or_else(|| self.world.live.rng.next_u64()),
                    None => self.world.live.rng.next_u64(),
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
                    let u = self.world.live.time.saturating_add(*ticks);
                    *until = Some(u);
                    self.world.live.timers.push(Reverse((u, task.0)));
                    self.emit(Event::Sleep {
                        task,
                        until: u,
                        site: (*site).into(),
                    });
                    Attempt::Block(BlockOn::Timer { until: u })
                }
                Some(u) if u <= self.world.live.time => Attempt::Done(Ok(Value::Unit)),
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
                let rec = &self.world.live.tasks[task.index()];
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
                self.world.live.tasks[task.index()].mem_used = new_used;
                self.charge(OP_COSTS.alloc);
                self.emit(Event::Alloc {
                    task,
                    bytes: *bytes,
                    site: (*site).into(),
                });
                Attempt::Done(Ok(Value::Unit))
            }
            Op::Free { bytes, site: _ } => {
                let rec = &mut self.world.live.tasks[task.index()];
                rec.mem_used = rec.mem_used.saturating_sub(*bytes);
                self.charge(OP_COSTS.alloc);
                Attempt::Done(Ok(Value::Unit))
            }
            Op::Join { task: target, site } => {
                if target.index() >= self.world.live.tasks.len() {
                    return Attempt::Done(Err(SimError::NoSuchTask(*target)));
                }
                let trec = &self.world.live.tasks[target.index()];
                if matches!(trec.phase, Phase::Exited { .. }) || trec.killed {
                    self.charge(OP_COSTS.yield_);
                    self.emit(Event::Joined {
                        task,
                        target: *target,
                        site: (*site).into(),
                    });
                    return Attempt::Done(Ok(Value::Unit));
                }
                self.world.live.tasks[target.index()].joiners.push(task);
                Attempt::Block(BlockOn::Join(*target))
            }
            Op::Crash { reason, site } => {
                self.world.crashes.push(CrashRecord {
                    time: self.world.live.time,
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
            Op::StopRun { site: _ } => {
                if self.world.live.stop.is_none() {
                    self.world.live.stop = Some(StopReason::Stopped);
                }
                Attempt::Done(Ok(Value::Unit))
            }
        }
    }

    /// Acquires `lock` for `task`, or blocks while another task holds it.
    /// `reentrant` describes the error of a task that already holds it.
    fn acquire(
        &mut self,
        task: TaskId,
        lock: LockId,
        site: Site,
        reentrant: impl FnOnce() -> String,
    ) -> Attempt {
        let rec = &mut self.world.live.locks[lock.index()];
        match rec.holder {
            Some(h) if h != task => Attempt::Block(BlockOn::Lock(lock)),
            Some(_) => Attempt::Done(Err(SimError::Internal(reentrant()))),
            None => {
                rec.holder = Some(task);
                self.charge(OP_COSTS.lock);
                self.emit(Event::LockAcquire {
                    task,
                    lock,
                    site: site.into(),
                });
                Attempt::Done(Ok(Value::Unit))
            }
        }
    }

    /// Records a panic-style crash coming from outside `exec_op` (task body
    /// panicked or returned an unexpected error).
    pub fn record_crash(&mut self, task: TaskId, reason: String, site: &str) {
        self.world.crashes.push(CrashRecord {
            time: self.world.live.time,
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
        self.world.live.time = self.world.live.time.saturating_add(cost);
        self.world.live.steps += 1;
        // Deliveries that became due mid-op happen before the next decision;
        // the driver calls `deliver_due` at every decision point.
    }

    /// Readies `task` if it is blocked and not killed.
    pub(crate) fn wake(&mut self, task: TaskId) {
        let rec = &mut self.world.live.tasks[task.index()];
        if !rec.killed && matches!(rec.phase, Phase::Blocked(_)) {
            rec.phase = Phase::Ready;
        }
    }

    /// Readies every task joined on `task`, which will never run again.
    pub(crate) fn wake_joiners(&mut self, task: TaskId) {
        for j in std::mem::take(&mut self.world.live.tasks[task.index()].joiners) {
            self.wake(j);
        }
    }

    /// Readies every task that is not killed and is blocked on what `on`
    /// accepts.
    pub(crate) fn wake_blocked(&mut self, on: impl Fn(BlockOn) -> bool) {
        for t in &mut self.world.live.tasks {
            if matches!(t.phase, Phase::Blocked(b) if on(b)) && !t.killed {
                t.phase = Phase::Ready;
            }
        }
    }
}
