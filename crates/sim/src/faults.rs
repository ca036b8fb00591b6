//! The fault plane: the environment's timed events and what they do.
//!
//! Scripted inputs, timers, group crashes, partition starts and heals, and
//! restarts each wait in a time-sorted queue of the world's live state.
//! The driver calls [`Kernel::deliver_due`] at every decision point and
//! advances the clock to [`Kernel::next_pending_time`] when no task can
//! run. Faults are a function of the environment schedule and the clock
//! only — none consumes the RNG — so they stay input nondeterminism and
//! replay identically.

use crate::event::Event;
use crate::ids::{ChanId, LockId, TaskId, KERNEL_SITE};
use crate::kernel::Kernel;
use crate::world::{BlockOn, Phase};
use std::cmp::Reverse;
use std::collections::VecDeque;

/// Pops the front of a time-sorted `queue` if it is due at `now`.
fn pop_due<T>(queue: &mut VecDeque<T>, now: u64, time: impl Fn(&T) -> u64) -> Option<T> {
    queue.front().filter(|e| time(e) <= now)?;
    queue.pop_front()
}

impl Kernel {
    /// Earliest pending wake-up time (timer, input, crash, partition edge
    /// or restart), if any.
    pub fn next_pending_time(&self) -> Option<u64> {
        let w = &self.world.live;
        let t1 = w.timers.peek().map(|Reverse((t, _))| *t);
        let t2 = w.pending_inputs.front().map(|p| p.time);
        let t3 = w.pending_crashes.front().map(|c| c.0);
        let t4 = w.pending_partitions.front().map(|p| p.0);
        let t5 = w.pending_heals.front().map(|p| p.0);
        let t6 = w.pending_restarts.front().map(|r| r.0);
        [t1, t2, t3, t4, t5, t6].into_iter().flatten().min()
    }

    /// Delivers every input, timer, crash, partition edge and restart due
    /// at or before the current time. Returns `true` if anything was
    /// delivered. Delivered restarts are staged in
    /// [`Live::restarts_due`](crate::world::Live::restarts_due); the driver
    /// respawns them through the program's recovery entry point right after
    /// this returns.
    pub fn deliver_due(&mut self) -> bool {
        let now = self.world.live.time;
        let mut any = false;
        while let Some(p) = pop_due(&mut self.world.live.pending_inputs, now, |p| p.time) {
            let port = &mut self.world.live.ports[p.port.index()];
            port.queue.push_back(p.value.clone());
            port.remaining_inputs -= 1;
            self.emit(Event::InputArrival {
                port: p.port,
                value: p.value,
            });
            self.wake_blocked(|b| b == BlockOn::Port(p.port));
            any = true;
        }
        while self
            .world
            .live
            .timers
            .peek()
            .is_some_and(|Reverse((t, _))| *t <= now)
        {
            let Reverse((_, tid)) = self.world.live.timers.pop().expect("checked non-empty");
            let task = TaskId(tid);
            let fire = match self.world.live.tasks[task.index()].phase {
                Phase::Blocked(BlockOn::Timer { until }) => until <= now,
                Phase::Blocked(BlockOn::Chan {
                    deadline: Some(d), ..
                }) => d <= now,
                _ => false,
            };
            if fire {
                self.wake(task);
                any = true;
            }
        }
        while let Some((_, group)) = pop_due(&mut self.world.live.pending_crashes, now, |c| c.0) {
            self.kill_group(&group);
            any = true;
        }
        while let Some((_, a, b)) = pop_due(&mut self.world.live.pending_partitions, now, |p| p.0) {
            let pair = if a <= b { (a, b) } else { (b, a) };
            self.world.live.active_partitions.insert(pair.clone());
            self.emit(Event::PartitionStart {
                a: pair.0,
                b: pair.1,
            });
            any = true;
        }
        while let Some((_, a, b)) = pop_due(&mut self.world.live.pending_heals, now, |p| p.0) {
            let pair = if a <= b { (a, b) } else { (b, a) };
            self.world.live.active_partitions.remove(&pair);
            self.emit(Event::PartitionHeal {
                a: pair.0,
                b: pair.1,
            });
            any = true;
        }
        while let Some((_, group)) = pop_due(&mut self.world.live.pending_restarts, now, |r| r.0) {
            let live = &mut self.world.live;
            *live.restart_counts.entry(group.clone()).or_insert(0) += 1;
            live.restarts_due.push(group);
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
    pub(crate) fn partitioned(&self, task: TaskId, chan: ChanId) -> bool {
        let w = &self.world.live;
        if w.active_partitions.is_empty() {
            return false;
        }
        let sender = &w.tasks[task.index()].group;
        let chan_name = &w.chans[chan.index()].name;
        let receiver = chan_name.split('.').next().unwrap_or(chan_name);
        w.active_partitions.iter().any(|(a, b)| {
            (sender.starts_with(a.as_str()) && receiver.starts_with(b.as_str()))
                || (sender.starts_with(b.as_str()) && receiver.starts_with(a.as_str()))
        })
    }

    /// Kills every task in `group` (node crash).
    pub fn kill_group(&mut self, group: &str) {
        let live = &mut self.world.live;
        *live.crash_counts.entry(group.to_owned()).or_insert(0) += 1;
        let victims: Vec<TaskId> = live
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                t.group == group && !t.killed && !matches!(t.phase, Phase::Exited { .. })
            })
            .map(|(i, _)| TaskId(i as u32))
            .collect();
        for &t in &victims {
            self.world.live.tasks[t.index()].killed = true;
            // Dead tasks cannot be woken by condition variables.
            for cv in &mut self.world.live.cvars {
                cv.waiters.retain(|&w| w != t);
            }
            self.emit(Event::TaskKilled {
                task: t,
                reason: format!("group {group:?} crashed"),
            });
            // A killed task will never exit on its own; release joiners now.
            self.wake_joiners(t);
        }
        // A group kill models a *process* crash: in-process mutexes die with
        // it. Force-release every lock a victim held so survivors (and tasks
        // respawned by recovery) are not deadlocked on an orphaned holder.
        for l in 0..self.world.live.locks.len() {
            let lock = LockId(l as u32);
            match self.world.live.locks[l].holder {
                Some(h) if victims.contains(&h) => {
                    self.world.live.locks[l].holder = None;
                    self.emit(Event::LockRelease {
                        task: h,
                        lock,
                        site: KERNEL_SITE.into(),
                    });
                    self.wake_blocked(|b| b == BlockOn::Lock(lock));
                }
                _ => {}
            }
        }
        self.emit(Event::GroupKilled {
            group: group.to_owned(),
            tasks: victims,
        });
    }
}
