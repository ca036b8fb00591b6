//! The instrumentation interface of the machine: events and observers.
//!
//! Every operation a task performs — and every scheduling decision the
//! driver makes — is published as an [`Event`] to the run's observers.
//! Recorders, race detectors, data-rate profilers and trace collectors are
//! all observers. An observer returns the *instrumentation cost* (in wall
//! ticks) it charges for handling each event, which is how recording
//! overhead is accounted without perturbing execution semantics.

use crate::history::ChunkedLog;
use crate::ids::{ChanId, CondvarId, LockId, PortId, TaskId, VarId};
use std::borrow::Cow;

/// Owned-or-static site label stored in events.
///
/// Built from a static [`Site`](crate::ids::Site) at runtime (no allocation);
/// deserialized traces hold owned strings.
pub type SiteName = Cow<'static, str>;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::any::Any;

/// A run's event log: every event it emitted, in order, with its metadata.
///
/// This is the omniscient record of an execution — the input to root-cause
/// predicates, race detection, plane classification, invariant inference
/// and debugging-fidelity measurement; every artifact log is a projection
/// of it. It is the kernel's own [`ChunkedLog`]
/// ([`RunOutput::trace`](crate::RunOutput)), whose sealed chunks the run's
/// snapshots share. Analyses borrow it in place, and an owner that outlives
/// the run (`dd-replay`'s `OriginalRun`, say) moves it: no path copies a
/// sealed chunk.
pub type Trace = ChunkedLog<(EventMeta, Event)>;

impl Trace {
    /// The probe samples named `name`, in order.
    pub fn probes<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (TaskId, &'a Value)> + 'a {
        self.iter().filter_map(move |(_, e)| match e {
            Event::Probe {
                task,
                name: n,
                value,
                ..
            } if n == name => Some((*task, value)),
            _ => None,
        })
    }

    /// Returns `true` if any event matches the predicate.
    pub fn any(&self, pred: impl Fn(&Event) -> bool) -> bool {
        self.iter().any(|(_, e)| pred(e))
    }

    /// Counts the events matching a predicate.
    pub fn count_matching(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.iter().filter(|(_, e)| pred(e)).count()
    }

    /// The execution-clock time of the last event (0 when empty).
    pub fn duration(&self) -> u64 {
        self.last().map_or(0, |(meta, _)| meta.time)
    }
}

/// Metadata attached to every event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventMeta {
    /// Global operation counter at the time of the event.
    pub step: u64,
    /// Execution-clock timestamp (virtual ticks, excludes instrumentation).
    pub time: u64,
}

/// The kind of nondeterministic decision the driver asked the policy for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DecisionKind {
    /// Which runnable task executes the next operation.
    NextTask,
    /// Which waiter a `notify_one` on the given condition variable wakes.
    WakeOne(CondvarId),
}

/// Whether a memory access is a read or a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load from a shared variable.
    Read,
    /// A store to a shared variable.
    Write,
}

/// A single machine event.
///
/// Events carry enough information for full-fidelity recording: identifiers,
/// values, and the static [`Site`](crate::ids::Site) label of the program location that issued
/// the operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A task was created.
    TaskSpawn {
        /// The spawning task, or `None` for setup-time spawns.
        parent: Option<TaskId>,
        /// The new task.
        child: TaskId,
        /// Human-readable task name.
        name: String,
        /// Failure-domain group (e.g. a node name); used by fault injection.
        group: String,
    },
    /// A task finished.
    TaskExit {
        /// The finished task.
        task: TaskId,
        /// `false` if the task returned an error or panicked.
        ok: bool,
    },
    /// A task was killed by the environment (e.g. node crash).
    TaskKilled {
        /// The killed task.
        task: TaskId,
        /// Why it was killed.
        reason: String,
    },
    /// The driver resolved a nondeterministic choice.
    Decision {
        /// What was being decided.
        kind: DecisionKind,
        /// The deterministic candidate list the policy chose from.
        candidates: Vec<TaskId>,
        /// The chosen candidate.
        chosen: TaskId,
    },
    /// A shared-variable read.
    Read {
        /// The reading task.
        task: TaskId,
        /// The variable.
        var: VarId,
        /// The value observed.
        value: Value,
        /// Program location.
        site: SiteName,
    },
    /// A shared-variable write.
    Write {
        /// The writing task.
        task: TaskId,
        /// The variable.
        var: VarId,
        /// The value stored.
        value: Value,
        /// Program location.
        site: SiteName,
    },
    /// A lock was acquired.
    LockAcquire {
        /// The acquiring task.
        task: TaskId,
        /// The lock.
        lock: LockId,
        /// Program location.
        site: SiteName,
    },
    /// A lock was released.
    LockRelease {
        /// The releasing task.
        task: TaskId,
        /// The lock.
        lock: LockId,
        /// Program location.
        site: SiteName,
    },
    /// A task started waiting on a condition variable (lock released).
    CondWait {
        /// The waiting task.
        task: TaskId,
        /// The condition variable.
        cvar: CondvarId,
        /// The lock released while waiting.
        lock: LockId,
        /// Program location.
        site: SiteName,
    },
    /// A condition variable was signalled.
    CondNotify {
        /// The signalling task.
        task: TaskId,
        /// The condition variable.
        cvar: CondvarId,
        /// `true` for `notify_all`.
        all: bool,
        /// The tasks woken.
        woken: Vec<TaskId>,
        /// Program location.
        site: SiteName,
    },
    /// A message was sent on a channel.
    Send {
        /// The sending task.
        task: TaskId,
        /// The channel.
        chan: ChanId,
        /// The message payload.
        value: Value,
        /// Program location.
        site: SiteName,
    },
    /// A message was received from a channel.
    Recv {
        /// The receiving task.
        task: TaskId,
        /// The channel.
        chan: ChanId,
        /// The message payload.
        value: Value,
        /// Program location.
        site: SiteName,
    },
    /// A send was dropped by the environment (network congestion).
    SendDropped {
        /// The sending task.
        task: TaskId,
        /// The channel.
        chan: ChanId,
        /// Size of the dropped payload.
        bytes: u64,
        /// Program location.
        site: SiteName,
    },
    /// The environment delivered a scripted input to a port queue.
    InputArrival {
        /// The port.
        port: PortId,
        /// The input value.
        value: Value,
    },
    /// A task consumed an input from a port.
    InputRead {
        /// The reading task.
        task: TaskId,
        /// The port.
        port: PortId,
        /// The value consumed.
        value: Value,
        /// Program location.
        site: SiteName,
    },
    /// A task emitted an observable output.
    Output {
        /// The emitting task.
        task: TaskId,
        /// The output port.
        port: PortId,
        /// The value emitted.
        value: Value,
        /// Program location.
        site: SiteName,
    },
    /// A named probe sample (used by invariant inference/monitoring).
    Probe {
        /// The probing task.
        task: TaskId,
        /// Probe point name.
        name: String,
        /// Sampled value.
        value: Value,
        /// Program location.
        site: SiteName,
    },
    /// A named counter was adjusted (observable performance output).
    Counter {
        /// The updating task.
        task: TaskId,
        /// Counter name.
        name: String,
        /// New total.
        total: i64,
        /// Program location.
        site: SiteName,
    },
    /// A task crashed (explicit failure or caught panic).
    Crash {
        /// The crashed task.
        task: TaskId,
        /// Crash description.
        reason: String,
        /// Program location (or `"panic"`).
        site: SiteName,
    },
    /// A task allocated memory (environment accounting).
    Alloc {
        /// The allocating task.
        task: TaskId,
        /// Bytes requested.
        bytes: u64,
        /// Program location.
        site: SiteName,
    },
    /// An allocation failed because the task's memory budget was exceeded.
    AllocFail {
        /// The allocating task.
        task: TaskId,
        /// Bytes requested.
        requested: u64,
        /// The task's budget.
        budget: u64,
        /// Program location.
        site: SiteName,
    },
    /// A task began sleeping until the given virtual time.
    Sleep {
        /// The sleeping task.
        task: TaskId,
        /// Absolute wake-up time (exec clock).
        until: u64,
        /// Program location.
        site: SiteName,
    },
    /// A task completed a join on another task (happens-before edge).
    Joined {
        /// The joining task.
        task: TaskId,
        /// The joined (exited or killed) task.
        target: TaskId,
        /// Program location.
        site: SiteName,
    },
    /// A task yielded the processor voluntarily.
    Yield {
        /// The yielding task.
        task: TaskId,
        /// Program location.
        site: SiteName,
    },
    /// The environment killed a whole group (node crash).
    GroupKilled {
        /// The group name.
        group: String,
        /// Tasks that died.
        tasks: Vec<TaskId>,
    },
    /// The environment restarted a previously killed group (node recovery).
    GroupRestarted {
        /// The group name.
        group: String,
        /// The fresh tasks spawned by the recovery entry point.
        tasks: Vec<TaskId>,
    },
    /// A scheduled network partition between two group prefixes began.
    PartitionStart {
        /// First group prefix of the partitioned pair.
        a: String,
        /// Second group prefix of the partitioned pair.
        b: String,
    },
    /// A scheduled network partition healed.
    PartitionHeal {
        /// First group prefix of the partitioned pair.
        a: String,
        /// Second group prefix of the partitioned pair.
        b: String,
    },
    /// A draw from the kernel RNG (input nondeterminism).
    RngDraw {
        /// The drawing task.
        task: TaskId,
        /// The value drawn.
        value: u64,
        /// Program location.
        site: SiteName,
    },
}

impl Event {
    /// Returns the task that issued this event, if any.
    pub fn task(&self) -> Option<TaskId> {
        match self {
            Event::TaskSpawn { parent, .. } => *parent,
            Event::TaskExit { task, .. }
            | Event::TaskKilled { task, .. }
            | Event::Read { task, .. }
            | Event::Write { task, .. }
            | Event::LockAcquire { task, .. }
            | Event::LockRelease { task, .. }
            | Event::CondWait { task, .. }
            | Event::CondNotify { task, .. }
            | Event::Send { task, .. }
            | Event::Recv { task, .. }
            | Event::SendDropped { task, .. }
            | Event::InputRead { task, .. }
            | Event::Output { task, .. }
            | Event::Probe { task, .. }
            | Event::Counter { task, .. }
            | Event::Crash { task, .. }
            | Event::Alloc { task, .. }
            | Event::AllocFail { task, .. }
            | Event::Sleep { task, .. }
            | Event::Joined { task, .. }
            | Event::Yield { task, .. }
            | Event::RngDraw { task, .. } => Some(*task),
            Event::Decision { .. }
            | Event::InputArrival { .. }
            | Event::GroupKilled { .. }
            | Event::GroupRestarted { .. }
            | Event::PartitionStart { .. }
            | Event::PartitionHeal { .. } => None,
        }
    }

    /// Returns the program site of this event, if it has one.
    pub fn site(&self) -> Option<&str> {
        match self {
            Event::Read { site, .. }
            | Event::Write { site, .. }
            | Event::LockAcquire { site, .. }
            | Event::LockRelease { site, .. }
            | Event::CondWait { site, .. }
            | Event::CondNotify { site, .. }
            | Event::Send { site, .. }
            | Event::Recv { site, .. }
            | Event::SendDropped { site, .. }
            | Event::InputRead { site, .. }
            | Event::Output { site, .. }
            | Event::Probe { site, .. }
            | Event::Counter { site, .. }
            | Event::Crash { site, .. }
            | Event::Alloc { site, .. }
            | Event::AllocFail { site, .. }
            | Event::Sleep { site, .. }
            | Event::Joined { site, .. }
            | Event::Yield { site, .. }
            | Event::RngDraw { site, .. } => Some(site),
            _ => None,
        }
    }

    /// Returns the payload size in bytes carried by this event.
    ///
    /// This is the size of the *program data* moved by the operation (used by
    /// the data-rate classifier and the recording cost model), not the size
    /// of the event structure itself.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Event::Read { value, .. }
            | Event::Write { value, .. }
            | Event::Send { value, .. }
            | Event::Recv { value, .. }
            | Event::InputRead { value, .. }
            | Event::InputArrival { value, .. }
            | Event::Output { value, .. }
            | Event::Probe { value, .. } => value.byte_size(),
            Event::Counter { .. } => 8,
            Event::SendDropped { bytes, .. } => *bytes,
            Event::Alloc { bytes, .. } => *bytes,
            Event::RngDraw { .. } => 8,
            _ => 0,
        }
    }

    /// Returns a short stable name for the event kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Event::TaskSpawn { .. } => "task_spawn",
            Event::TaskExit { .. } => "task_exit",
            Event::TaskKilled { .. } => "task_killed",
            Event::Decision { .. } => "decision",
            Event::Read { .. } => "read",
            Event::Write { .. } => "write",
            Event::LockAcquire { .. } => "lock_acquire",
            Event::LockRelease { .. } => "lock_release",
            Event::CondWait { .. } => "cond_wait",
            Event::CondNotify { .. } => "cond_notify",
            Event::Send { .. } => "send",
            Event::Recv { .. } => "recv",
            Event::SendDropped { .. } => "send_dropped",
            Event::InputArrival { .. } => "input_arrival",
            Event::InputRead { .. } => "input_read",
            Event::Output { .. } => "output",
            Event::Probe { .. } => "probe",
            Event::Counter { .. } => "counter",
            Event::Crash { .. } => "crash",
            Event::Alloc { .. } => "alloc",
            Event::AllocFail { .. } => "alloc_fail",
            Event::Sleep { .. } => "sleep",
            Event::Joined { .. } => "joined",
            Event::Yield { .. } => "yield",
            Event::GroupKilled { .. } => "group_killed",
            Event::GroupRestarted { .. } => "group_restarted",
            Event::PartitionStart { .. } => "partition_start",
            Event::PartitionHeal { .. } => "partition_heal",
            Event::RngDraw { .. } => "rng_draw",
        }
    }
}

/// A synchronous consumer of machine events.
///
/// Observers run inline with the machine (under the kernel lock), so they see
/// a totally ordered event stream. The returned tick count is added to the
/// run's *wall clock* — this is how recording overhead is modelled — but
/// never to the *execution clock*, so observers cannot perturb program
/// behaviour.
pub trait Observer: Send + 'static {
    /// Handles one event; returns instrumentation cost in wall ticks.
    fn on_event(&mut self, meta: &EventMeta, event: &Event) -> u64;

    /// Upcast for post-run retrieval via [`RunOutput`](crate::driver::RunOutput).
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for post-run retrieval.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_event() -> Event {
        Event::Read {
            task: TaskId(1),
            var: VarId(2),
            value: Value::Int(5),
            site: "test::read".into(),
        }
    }

    #[test]
    fn task_and_site_extraction() {
        let e = read_event();
        assert_eq!(e.task(), Some(TaskId(1)));
        assert_eq!(e.site(), Some("test::read"));
        let d = Event::Decision {
            kind: DecisionKind::NextTask,
            candidates: vec![TaskId(0)],
            chosen: TaskId(0),
        };
        assert_eq!(d.task(), None);
        assert_eq!(d.site(), None);
    }

    #[test]
    fn payload_bytes_counts_values() {
        assert_eq!(read_event().payload_bytes(), 8);
        let s = Event::Send {
            task: TaskId(0),
            chan: ChanId(0),
            value: Value::Bytes(vec![0; 64]),
            site: "s".into(),
        };
        assert_eq!(s.payload_bytes(), 68);
        let l = Event::LockAcquire {
            task: TaskId(0),
            lock: LockId(0),
            site: "s".into(),
        };
        assert_eq!(l.payload_bytes(), 0);
    }

    #[test]
    fn kind_names_are_distinct_for_common_kinds() {
        let evs = [
            read_event().kind_name(),
            Event::TaskExit {
                task: TaskId(0),
                ok: true,
            }
            .kind_name(),
            Event::Yield {
                task: TaskId(0),
                site: "s".into(),
            }
            .kind_name(),
        ];
        assert_eq!(
            evs.len(),
            evs.iter().collect::<std::collections::HashSet<_>>().len()
        );
    }

    #[test]
    fn event_serde_round_trip() {
        let e = read_event();
        let s = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&s).unwrap();
        assert_eq!(e, back);
    }

    fn sample_trace() -> Trace {
        let events = [
            read_event(),
            Event::Write {
                task: TaskId(1),
                var: VarId(0),
                value: Value::Int(2),
                site: "b::write".into(),
            },
            Event::Probe {
                task: TaskId(0),
                name: "qlen".into(),
                value: Value::Int(7),
                site: "a::probe".into(),
            },
            Event::Crash {
                task: TaskId(1),
                reason: "boom".into(),
                site: "b::crash".into(),
            },
        ];
        (0u64..)
            .zip(events)
            .map(|(step, event)| {
                let meta = EventMeta {
                    step,
                    time: step * 2,
                };
                (meta, event)
            })
            .collect()
    }

    #[test]
    fn trace_probes_and_crashes() {
        let t = sample_trace();
        let p: Vec<_> = t.probes("qlen").collect();
        assert_eq!(p, [(TaskId(0), &Value::Int(7))]);
        assert_eq!(t.probes("other").count(), 0);
        assert!(t.any(|e| matches!(e, Event::Crash { .. })));
        assert_eq!(t.count_matching(|e| e.task() == Some(TaskId(1))), 3);
    }

    #[test]
    fn trace_duration_and_bytes() {
        let t = sample_trace();
        assert_eq!(t.duration(), 6);
        assert_eq!(Trace::new().duration(), 0);
        assert!(t.iter().map(|(_, e)| e.payload_bytes()).sum::<u64>() >= 16);
    }

    #[test]
    fn trace_serde_round_trip() {
        let t = sample_trace();
        let s = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&s).unwrap();
        assert_eq!(t, back);
    }
}
