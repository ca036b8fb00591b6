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
//! when `e` happens-before (or is) `f`.

use crate::vclock::VectorClock;
use dd_sim::{Event, TaskId};
use std::collections::{HashMap, VecDeque};

/// The clock of a task that has not been observed yet.
static ZERO: VectorClock = VectorClock::new();

/// Per-task, per-lock and per-message vector clocks.
#[derive(Debug, Default)]
pub struct HbClocks {
    tasks: HashMap<u32, VectorClock>,
    /// The clock of each lock's last release.
    locks: HashMap<u32, VectorClock>,
    /// Per-channel queue of sender-side clock snapshots, one per message
    /// in flight.
    chans: HashMap<u32, VecDeque<VectorClock>>,
}

impl HbClocks {
    /// No task, lock or message observed yet.
    pub fn new() -> Self {
        Self::default()
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
                    let pvc = self.clock_mut(*p).clone();
                    self.clock_mut(*child).join(&pvc);
                }
                *child
            }
            Event::LockAcquire { task, lock, .. } => {
                if let Some(lvc) = self.locks.get(&lock.0) {
                    self.tasks.entry(task.0).or_default().join(lvc);
                }
                *task
            }
            Event::Recv { task, chan, .. } => {
                if let Some(mvc) = self.chans.get_mut(&chan.0).and_then(VecDeque::pop_front) {
                    self.clock_mut(*task).join(&mvc);
                }
                *task
            }
            Event::Joined { task, target, .. } => {
                let tvc = self.clock_mut(*target).clone();
                self.clock_mut(*task).join(&tvc);
                *task
            }
            e => e.task()?,
        };
        let clock = self.tasks.entry(task.0).or_default();
        clock.tick(task);
        // Release edges: publish the ticked clock.
        match event {
            Event::LockRelease { lock, .. } => {
                self.locks.insert(lock.0, clock.clone());
            }
            Event::Send { chan, .. } => {
                self.chans
                    .entry(chan.0)
                    .or_default()
                    .push_back(clock.clone());
            }
            Event::CondNotify { woken, .. } => {
                let nvc = clock.clone();
                for w in woken {
                    self.clock_mut(*w).join(&nvc);
                }
            }
            _ => {}
        }
        Some(task)
    }

    /// `task`'s current clock (the zero clock before its first event).
    pub fn clock(&self, task: TaskId) -> &VectorClock {
        self.tasks.get(&task.0).unwrap_or(&ZERO)
    }

    fn clock_mut(&mut self, task: TaskId) -> &mut VectorClock {
        self.tasks.entry(task.0).or_default()
    }
}
