//! Run configuration: inputs, environment model, run bounds and replay hooks.

use crate::ids::{ChanId, PortId, TaskId, VarId};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Virtual-time cost (in exec ticks) of each operation kind.
///
/// These drive the execution clock, which in turn drives timers and the
/// data-rate statistics used by plane classification. Every run charges the
/// one table [`OP_COSTS`]: the execution clock is the denominator of every
/// model's recording overhead, so it ticks alike for all of them. Recording
/// costs are *not* here — they are charged to the wall clock by observers.
#[derive(Debug)]
pub(crate) struct OpCosts {
    /// Cost of a shared-variable read.
    pub read: u64,
    /// Cost of a shared-variable write.
    pub write: u64,
    /// Cost of a successful lock acquire or release.
    pub lock: u64,
    /// Extra cost per `mem_bytes_per_tick` payload bytes on reads/writes.
    pub mem_bytes_per_tick: u64,
    /// Base cost of a channel send or receive.
    pub msg_base: u64,
    /// Extra cost per `msg_bytes_per_tick` payload bytes moved.
    pub msg_bytes_per_tick: u64,
    /// Cost of reading an input or writing an output.
    pub io: u64,
    /// Cost of a probe or counter update.
    pub probe: u64,
    /// Cost of an RNG draw.
    pub rng: u64,
    /// Cost of spawning a task.
    pub spawn: u64,
    /// Cost of an allocation bookkeeping operation.
    pub alloc: u64,
    /// Cost of a yield.
    pub yield_: u64,
}

/// The operation costs every run's kernel charges.
pub(crate) const OP_COSTS: OpCosts = OpCosts {
    read: 1,
    write: 1,
    lock: 1,
    mem_bytes_per_tick: 64,
    msg_base: 2,
    msg_bytes_per_tick: 64,
    io: 2,
    probe: 1,
    rng: 1,
    spawn: 5,
    alloc: 1,
    yield_: 1,
};

impl OpCosts {
    /// Returns the cost of moving `bytes` of message payload.
    pub fn msg_cost(&self, bytes: u64) -> u64 {
        self.msg_base + bytes / self.msg_bytes_per_tick.max(1)
    }

    /// Returns the cost of a read moving `bytes` of payload.
    pub fn read_cost(&self, bytes: u64) -> u64 {
        self.read + bytes / self.mem_bytes_per_tick.max(1)
    }

    /// Returns the cost of a write moving `bytes` of payload.
    pub fn write_cost(&self, bytes: u64) -> u64 {
        self.write + bytes / self.mem_bytes_per_tick.max(1)
    }
}

/// A scripted external input: `value` becomes available on a port at `time`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedInput {
    /// Arrival time on the execution clock.
    pub time: u64,
    /// The input value.
    pub value: Value,
}

/// External input script, keyed by input-port *name* (ports get their ids at
/// setup time, after scripts are usually built).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InputScript {
    entries: BTreeMap<String, Vec<TimedInput>>,
}

impl InputScript {
    /// Creates an empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an input for the named port.
    pub fn push(&mut self, port: &str, time: u64, value: Value) -> &mut Self {
        self.entries
            .entry(port.to_owned())
            .or_default()
            .push(TimedInput { time, value });
        self
    }

    /// Returns the inputs scripted for `port`, sorted by arrival time.
    pub fn for_port(&self, port: &str) -> Vec<TimedInput> {
        let mut v = self.entries.get(port).cloned().unwrap_or_default();
        v.sort_by_key(|t| t.time);
        v
    }

    /// Iterates over `(port_name, inputs)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[TimedInput])> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Returns the total number of scripted inputs.
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Returns `true` if no inputs are scripted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the total payload bytes of all scripted inputs.
    pub fn total_bytes(&self) -> u64 {
        self.entries
            .values()
            .flatten()
            .map(|t| t.value.byte_size())
            .sum()
    }
}

/// Whether a channel models an in-process queue or a network link.
///
/// Network channels are subject to the congestion model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChanClass {
    /// In-process channel: reliable.
    Local,
    /// Network link: messages may be dropped under congestion.
    Network,
}

/// A scheduled whole-group kill (models a node crash).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashEvent {
    /// When the crash fires (execution clock).
    pub time: u64,
    /// The task group (node) that dies.
    pub group: String,
}

/// A scheduled network partition between two failure-domain groups.
///
/// From `start` until `heal` (execution clock), every send on a
/// [`ChanClass::Network`] channel crossing the cut — sender in a group
/// matching one side, receiving channel owned by a group matching the other
/// — is deterministically dropped (it behaves exactly like a congestion
/// drop, emitting `SendDropped`). Sides match by group-name prefix, so
/// `"client"` partitions every `client0`, `client1`, … group at once while
/// `"server2"` names one node. Partitions are symmetric and purely
/// time-driven: no RNG is consumed, so the same environment always drops
/// the same messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionEvent {
    /// When the partition starts (execution clock).
    pub start: u64,
    /// When the partition heals; sends at `time >= heal` go through again.
    pub heal: u64,
    /// One side of the cut (group-name prefix).
    pub a: String,
    /// The other side of the cut (group-name prefix).
    pub b: String,
}

/// A scheduled node restart: at `time`, the (typically crashed) group's
/// tasks are respawned through the program's recovery entry point
/// ([`Program::recover`](crate::program::Program::recover)). Shared state
/// (variables, channels, locks) survives — only the group's tasks died —
/// so recovery code rebuilds its in-memory view from whatever durable
/// state the program modelled (e.g. a commit log in a shared variable).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RestartEvent {
    /// When the restart fires (execution clock).
    pub time: u64,
    /// The task group (node) that comes back.
    pub group: String,
}

/// The environment model: faults and resource limits.
///
/// Everything here is *input nondeterminism* from the program's point of
/// view: relaxed-determinism replayers may search over it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnvConfig {
    /// Scheduled node crashes.
    pub crashes: Vec<CrashEvent>,
    /// Per-mille probability that a send on a [`ChanClass::Network`] channel
    /// is dropped (0 = reliable network, 1000 = everything dropped).
    pub drop_per_mille: u16,
    /// Per-group memory budgets in bytes; absent groups are unlimited.
    pub mem_budget: BTreeMap<String, u64>,
    /// Deterministic drop replay: when set, the `n`-th network send (0-based,
    /// counted across all network channels) is dropped iff `n` is in this
    /// set, and `drop_per_mille` is ignored. Used by replayers to reproduce
    /// recorded congestion without knowing the RNG seed.
    pub drop_script: Option<std::collections::BTreeSet<u64>>,
    /// Scheduled network partitions between failure-domain groups.
    pub partitions: Vec<PartitionEvent>,
    /// Scheduled node restarts (respawn a group through
    /// [`Program::recover`](crate::program::Program::recover)).
    pub restarts: Vec<RestartEvent>,
}

impl EnvConfig {
    /// A fault-free environment.
    pub fn clean() -> Self {
        Self::default()
    }

    /// Returns `true` if this environment injects no faults at all.
    ///
    /// Derived by exhaustive destructuring — adding a field to
    /// [`EnvConfig`] without deciding its cleanliness here is a compile
    /// error, so a new fault source can never be silently treated as
    /// clean.
    pub fn is_clean(&self) -> bool {
        let EnvConfig {
            crashes,
            drop_per_mille,
            mem_budget,
            drop_script,
            partitions,
            restarts,
        } = self;
        crashes.is_empty()
            && *drop_per_mille == 0
            && mem_budget.is_empty()
            && drop_script.is_none()
            && partitions.is_empty()
            && restarts.is_empty()
    }
}

/// Hook that lets a replayer substitute recorded values for the
/// task-local nondeterminism sources (reads, receives, inputs, RNG draws).
///
/// This is how value determinism replays: per-task logs are fed back at the
/// corresponding execution points regardless of the live schedule.
pub trait NondetOverride: Send + 'static {
    /// Replacement for the value observed by a shared read, if any.
    fn override_read(&mut self, _task: TaskId, _var: VarId, _actual: &Value) -> Option<Value> {
        None
    }

    /// Replacement for a received message.
    ///
    /// Returning `Some` makes the receive succeed immediately with the given
    /// value without touching the live queue.
    fn override_recv(&mut self, _task: TaskId, _chan: ChanId) -> Option<Value> {
        None
    }

    /// Replacement for an input-port read.
    fn override_input(&mut self, _task: TaskId, _port: PortId) -> Option<Value> {
        None
    }

    /// Replacement for an RNG draw (the raw 64-bit value before reduction).
    fn override_rng(&mut self, _task: TaskId) -> Option<u64> {
        None
    }
}

/// A no-op override (live execution).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoOverride;

impl NondetOverride for NoOverride {}

/// When the driver snapshots the world for checkpointed resume.
///
/// Snapshots are taken at decision points (nothing granted or running), at
/// decision indices `d` with `d > 0`, `d % every == 0` and
/// `d <= max_decision`. Each snapshot clones the whole
/// [`WorldState`](crate::kernel::WorldSnapshot), so callers bound the
/// region of interest: schedule explorers set `max_decision` to their
/// branching horizon — snapshots past the last branch point can never be
/// restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointPlan {
    /// Snapshot every `every`-th recorded decision (`1` = every decision).
    pub every: u64,
    /// No snapshots past this decision index.
    pub max_decision: u64,
}

impl CheckpointPlan {
    /// Snapshots every `every`-th decision up to `max_decision`.
    pub fn new(every: u64, max_decision: u64) -> Self {
        CheckpointPlan {
            every: every.max(1),
            max_decision,
        }
    }
}

/// Full configuration of a single run.
///
/// Every run collects the omniscient analysis trace
/// ([`RunOutput::trace`](crate::driver::RunOutput)) and charges one fixed
/// table of operation costs to the execution clock; neither is
/// configurable.
pub struct RunConfig {
    /// Seed for the kernel RNG (task-visible draws + congestion).
    pub seed: u64,
    /// Stop after this many operations.
    pub max_steps: u64,
    /// Stop after this much virtual time.
    pub max_time: u64,
    /// External input script.
    pub inputs: InputScript,
    /// Fault/environment model.
    pub env: EnvConfig,
    /// Replay hook for task-local nondeterminism.
    pub nondet_override: Option<Box<dyn NondetOverride>>,
    /// Maximum number of live-or-exited tasks a run may create. A runtime
    /// spawn that would exceed it fails with
    /// [`SimError::TaskLimit`](crate::error::SimError) instead of growing
    /// the world. Tasks are coroutines (no OS thread per task), so the
    /// default is generous; lower it to model resource-exhaustion policies.
    pub max_tasks: u64,
    /// When set, the run records the syscall log and takes resumable
    /// [`WorldSnapshot`](crate::kernel::WorldSnapshot)s per this plan.
    pub checkpoints: Option<CheckpointPlan>,
    /// When set (together with `checkpoints`), snapshots are *offered* to
    /// this sink — typically `dd-trace`'s on-disk store — instead of
    /// accumulating in memory; the run's
    /// [`RunOutput::spilled`](crate::driver::RunOutput) reports which
    /// offers the sink kept and under what ids. Spilling bounds the run's
    /// resident snapshot memory at zero while keeping mid-run decisions
    /// restorable after the process exits.
    pub snapshot_sink: Option<Box<dyn crate::snapshot::SnapshotSink>>,
    /// When `true`, the kernel records an FNV-1a digest of the machine
    /// state before every multi-candidate decision (see
    /// [`RunOutput::decision_hashes`](crate::driver::RunOutput)), plus a
    /// final end-of-run digest. Replay tooling compares these streams to
    /// localise the first diverging decision. Digests never emit events and
    /// never charge cost, so enabling them does not perturb the run.
    pub hash_decisions: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 0,
            max_steps: 2_000_000,
            max_time: u64::MAX,
            inputs: InputScript::new(),
            env: EnvConfig::clean(),
            nondet_override: None,
            max_tasks: 1 << 20,
            checkpoints: None,
            snapshot_sink: None,
            hash_decisions: false,
        }
    }
}

impl RunConfig {
    /// Creates a default configuration with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        RunConfig {
            seed,
            ..Default::default()
        }
    }
}

impl core::fmt::Debug for RunConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RunConfig")
            .field("seed", &self.seed)
            .field("max_steps", &self.max_steps)
            .field("max_time", &self.max_time)
            .field("inputs", &self.inputs.len())
            .field("env", &self.env)
            .field("has_override", &self.nondet_override.is_some())
            .field("max_tasks", &self.max_tasks)
            .field("checkpoints", &self.checkpoints)
            .field("has_snapshot_sink", &self.snapshot_sink.is_some())
            .field("hash_decisions", &self.hash_decisions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_are_positive() {
        let c = OP_COSTS;
        assert!(c.read > 0 && c.write > 0 && c.lock > 0 && c.msg_base > 0);
    }

    #[test]
    fn msg_cost_scales_with_bytes() {
        let c = OP_COSTS;
        assert_eq!(c.msg_cost(0), c.msg_base);
        assert_eq!(c.msg_cost(128), c.msg_base + 2);
    }

    #[test]
    fn input_script_sorts_by_time() {
        let mut s = InputScript::new();
        s.push("p", 30, Value::Int(3));
        s.push("p", 10, Value::Int(1));
        let v = s.for_port("p");
        assert_eq!(v[0].time, 10);
        assert_eq!(v[1].time, 30);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn input_script_total_bytes() {
        let mut s = InputScript::new();
        s.push("p", 0, Value::Bytes(vec![0; 10]));
        s.push("q", 0, Value::Int(1));
        assert_eq!(s.total_bytes(), 14 + 8);
    }

    #[test]
    fn env_clean_detection() {
        assert!(EnvConfig::clean().is_clean());
        let mut e = EnvConfig::clean();
        e.drop_per_mille = 5;
        assert!(!e.is_clean());
    }

    #[test]
    fn env_drop_per_mille_endpoints() {
        // 0 per mille is the reliable network — clean.
        let reliable = EnvConfig {
            drop_per_mille: 0,
            ..EnvConfig::clean()
        };
        assert!(reliable.is_clean());
        // 1000 per mille (everything dropped) is the far endpoint — still a
        // fault, still detected.
        let lossy = EnvConfig {
            drop_per_mille: 1000,
            ..EnvConfig::clean()
        };
        assert!(!lossy.is_clean());
    }

    #[test]
    fn env_every_fault_field_defeats_is_clean() {
        let with = |f: &dyn Fn(&mut EnvConfig)| {
            let mut e = EnvConfig::clean();
            f(&mut e);
            e
        };
        assert!(!with(&|e| e.crashes.push(CrashEvent {
            time: 1,
            group: "g".into(),
        }))
        .is_clean());
        assert!(!with(&|e| e.drop_per_mille = 1).is_clean());
        assert!(!with(&|e| {
            e.mem_budget.insert("g".into(), 64);
        })
        .is_clean());
        assert!(!with(&|e| e.drop_script = Some(Default::default())).is_clean());
        assert!(!with(&|e| e.partitions.push(PartitionEvent {
            start: 1,
            heal: 2,
            a: "x".into(),
            b: "y".into(),
        }))
        .is_clean());
        assert!(!with(&|e| e.restarts.push(RestartEvent {
            time: 1,
            group: "g".into(),
        }))
        .is_clean());
    }

    #[test]
    fn run_config_debug_does_not_panic() {
        let cfg = RunConfig::with_seed(7);
        let s = format!("{cfg:?}");
        assert!(s.contains("seed: 7"));
    }
}
