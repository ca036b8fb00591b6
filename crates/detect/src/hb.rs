//! The happens-before engine: vector clocks advanced along an event stream.
//!
//! One owner for the edges every happens-before consumer relies on — the
//! race detector ([`HbRaceDetector`](crate::HbRaceDetector)) and
//! `dd-replay`'s DPOR conflict analysis both feed their events through
//! [`HbClocks::observe`]:
//!
//! - **spawn**: the child inherits the parent's clock;
//! - **lock**: an acquire joins the clock of the lock's last release (a
//!   condition wait adds no edge: its wake-up re-acquires the lock as a
//!   separate acquire event);
//! - **notify**: every woken task joins the notifier's clock;
//! - **channel**: a receive joins the clock its message was sent with
//!   (one queued snapshot per message, so each receive acquires exactly its
//!   own message);
//! - **join**: the joiner inherits the joined task's clock.
//!
//! Every task-attributed event ticks its task's own component, so each
//! event's clock (read right after [`observe`](HbClocks::observe)) is
//! strictly above the task's previous one: `C(e) ≤ C(f)` holds exactly
//! when `e` happens-before (or is) `f`. Because an event's clock is the
//! only source of its own tick, the one component suffices: for an event
//! `e` of task `p`, `C(e) ≤ C(f)` exactly when `C(e)[p] ≤ C(f)[p]`.
//!
//! # Storage
//!
//! Every table is a `Vec` indexed by id: task clocks by task id, each
//! lock's last-release clock by lock id, and per channel id one flat queue
//! of `u64`s that holds each in-flight message's clock as its length
//! followed by its components. Nothing is hashed or kept in a tree, and a
//! send copies the sender's clock into its channel's queue rather than
//! allocating a clock of its own. [`reset`](HbClocks::reset) empties the
//! tables but keeps their storage, so an engine reused across runs
//! allocates only while a table grows past its earlier size.

use crate::vclock::VectorClock;
use dd_sim::{Event, TaskId};
use std::collections::VecDeque;

/// The clock of a task that has not been observed yet.
static ZERO: VectorClock = VectorClock::new();

/// Per-task, per-lock and per-message vector clocks.
#[derive(Debug, Default)]
pub struct HbClocks {
    /// Each task's current clock, by task id.
    tasks: Vec<VectorClock>,
    /// The clock of each lock's last release, by lock id (zero before the
    /// first release).
    locks: Vec<VectorClock>,
    /// Per channel id, the sender-side clocks of its messages in flight,
    /// oldest first, each stored as its length and then its components.
    chans: Vec<VecDeque<u64>>,
}

/// Entry `id` of an id-indexed table, growing the table to reach it.
fn entry<T: Default>(table: &mut Vec<T>, id: u32) -> &mut T {
    let i = id as usize;
    if i >= table.len() {
        table.resize_with(i + 1, T::default);
    }
    &mut table[i]
}

impl HbClocks {
    /// No task, lock or message observed yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every observed event, keeping the tables' storage.
    pub fn reset(&mut self) {
        self.tasks.iter_mut().for_each(VectorClock::clear);
        self.locks.iter_mut().for_each(VectorClock::clear);
        self.chans.iter_mut().for_each(VecDeque::clear);
    }

    /// Applies `event`'s happens-before edges and ticks the task it
    /// advanced — the child for a spawn, otherwise the acting task —
    /// returning that task. Events with no acting task (decisions, input
    /// arrivals, group and partition events) change nothing and return
    /// `None`.
    pub fn observe(&mut self, event: &Event) -> Option<TaskId> {
        // Acquire edges: joined into the task before its tick.
        let task = match event {
            Event::TaskSpawn { parent, child, .. } => {
                if let Some(p) = parent {
                    self.join_task(*child, *p);
                }
                *child
            }
            Event::LockAcquire { task, lock, .. } => {
                if let Some(released) = self.locks.get(lock.0 as usize) {
                    entry(&mut self.tasks, task.0).join(released);
                }
                *task
            }
            Event::Recv { task, chan, .. } => {
                if let Some(queue) = self.chans.get_mut(chan.0 as usize) {
                    if let Some(len) = queue.pop_front() {
                        let sent = queue.drain(..len as usize);
                        entry(&mut self.tasks, task.0).join_components(sent);
                    }
                }
                *task
            }
            Event::Joined { task, target, .. } => {
                self.join_task(*task, *target);
                *task
            }
            e => e.task()?,
        };
        let clock = entry(&mut self.tasks, task.0);
        clock.tick(task);
        // Release edges: publish the ticked clock.
        match event {
            Event::LockRelease { lock, .. } => {
                entry(&mut self.locks, lock.0).clone_from(clock);
            }
            Event::Send { chan, .. } => {
                let queue = entry(&mut self.chans, chan.0);
                queue.push_back(clock.components().len() as u64);
                queue.extend(clock.components());
            }
            Event::CondNotify { woken, .. } => {
                for w in woken {
                    self.join_task(*w, task);
                }
            }
            _ => {}
        }
        Some(task)
    }

    /// `task`'s current clock (the zero clock before its first event).
    pub fn clock(&self, task: TaskId) -> &VectorClock {
        self.tasks.get(task.0 as usize).unwrap_or(&ZERO)
    }

    /// Joins `src`'s clock into `dst`'s.
    fn join_task(&mut self, dst: TaskId, src: TaskId) {
        entry(&mut self.tasks, dst.0.max(src.0));
        if dst == src {
            return;
        }
        // Moved out and back, so the join borrows two rows and copies none.
        let joined = std::mem::take(&mut self.tasks[src.0 as usize]);
        self.tasks[dst.0 as usize].join(&joined);
        self.tasks[src.0 as usize] = joined;
    }
}
