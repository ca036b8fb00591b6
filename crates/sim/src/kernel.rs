//! The kernel shell: one execution of a run around its world.
//!
//! The kernel owns the machine state a run evolves (`WorldState`, whose
//! resumable clone is a [`WorldSnapshot`]) plus everything tied to *this*
//! execution of it: observers, the scheduling policy, the
//! nondeterminism-override hook, the checkpoint plan and collected or
//! spilled snapshots. The whole simulation is single-threaded: task bodies
//! are coroutines polled by the driver loop, so exactly one thing touches
//! the kernel at a time — the driver (making scheduling decisions) or the
//! operation it is executing on behalf of the granted task. All methods take
//! `&mut self`; there is no locking here.
//!
//! The kernel's other decisions live in modules of their own: the world
//! and its snapshots in `world`, operation semantics (`exec_op`) in `ops`,
//! the state digest in `digest`, the fault plane (`deliver_due`) in
//! `faults`, and the snapshot byte accounting ([`SnapshotCost`]) in
//! `snapshot_cost`.

pub use crate::snapshot_cost::SnapshotCost;
pub use crate::world::{
    CrashRecord, DecisionRecord, EnabledSet, OutputRecord, PortDir, WorldSnapshot,
};

use crate::config::{ChanClass, CheckpointPlan, EnvConfig, NondetOverride, RunConfig, TimedInput};
use crate::error::StopReason;
use crate::event::{DecisionKind, Event, EventMeta, Observer};
use crate::history::ChunkedLog;
use crate::ids::{ChanId, CondvarId, LockId, PortId, TaskId, VarId};
use crate::policy::{RoundRobinPolicy, SchedulePolicy};
use crate::snapshot::{SnapshotMark, SnapshotSink};
use crate::value::Value;
use crate::world::{
    ChanRec, CvarRec, LockRec, PendingInput, Phase, PortRec, SysLogEntry, TaskRec, VarRec,
    WorldState, SYSLOG_CHUNK_LEN,
};
use std::collections::VecDeque;
use std::sync::OnceLock;

/// The machine state plus the execution shell. See module docs for the
/// threading discipline and the `WorldState`/shell split.
pub(crate) struct Kernel {
    /// The snapshotable machine state.
    pub world: WorldState,

    // ---- the shell: this execution's I/O and observation plumbing ------
    pub env: EnvConfig,
    observers: Vec<Box<dyn Observer>>,
    pub policy: Box<dyn SchedulePolicy>,
    pub nondet_override: Option<Box<dyn NondetOverride>>,
    /// Runtime-spawn ceiling (from `RunConfig::max_tasks`): a spawn that
    /// would push `world.live.tasks` past this fails with
    /// [`SimError::TaskLimit`](crate::error::SimError::TaskLimit) instead of
    /// growing the world.
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
        world.live.record_syslog = cfg.checkpoints.is_some();
        world.live.hash_decisions = cfg.hash_decisions;
        Kernel {
            started_at: world.live.decision_seq,
            world,
            env: cfg.env.clone(),
            observers,
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
                decision: self.world.live.decision_seq,
                step: self.world.live.steps,
                time: self.world.live.time,
                id,
            }),
            Ok(None) => {}
            Err(e) => self.spill_errors.push(e),
        }
    }

    fn debug_assert_decision_point(&self) {
        debug_assert!(
            self.world
                .live
                .tasks
                .iter()
                .all(|t| !matches!(t.phase, Phase::Granted | Phase::Running)),
            "snapshots are only valid at decision points"
        );
    }

    /// Appends a completed-syscall log entry for `task` (when enabled).
    pub(crate) fn log_syscall(&mut self, task: TaskId, entry: SysLogEntry) {
        if self.world.live.record_syslog {
            self.world.sys_log[task.index()].push(entry);
        }
    }

    // ---- registration (setup time and runtime) -------------------------

    pub fn add_task(&mut self, name: &str, group: &str, parent: Option<TaskId>) -> TaskId {
        let id = TaskId(self.world.live.tasks.len() as u32);
        let mem_budget = self.env.mem_budget.get(group).copied();
        self.world.live.tasks.push(TaskRec {
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
        let id = VarId(self.world.live.vars.len() as u32);
        self.world.live.vars.push(VarRec {
            name: name.to_owned(),
            value: init,
        });
        id
    }

    pub fn add_lock(&mut self, name: &str) -> LockId {
        let id = LockId(self.world.live.locks.len() as u32);
        self.world.live.locks.push(LockRec {
            name: name.to_owned(),
            holder: None,
        });
        id
    }

    pub fn add_cvar(&mut self, name: &str) -> CondvarId {
        let id = CondvarId(self.world.live.cvars.len() as u32);
        self.world.live.cvars.push(CvarRec {
            name: name.to_owned(),
            waiters: Vec::new(),
        });
        id
    }

    pub fn add_chan(&mut self, name: &str, class: ChanClass) -> ChanId {
        let id = ChanId(self.world.live.chans.len() as u32);
        self.world.live.chans.push(ChanRec {
            name: name.to_owned(),
            class,
            queue: VecDeque::new(),
            closed: false,
        });
        id
    }

    pub fn add_port(&mut self, name: &str, dir: PortDir) -> PortId {
        let id = PortId(self.world.live.ports.len() as u32);
        self.world.live.ports.push(PortRec {
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
                .live
                .ports
                .iter()
                .position(|p| p.name == port_name && p.dir == PortDir::In)
                .map(|i| PortId(i as u32))
                .ok_or_else(|| format!("input script references unknown port {port_name:?}"))?;
            self.world.live.ports[port.index()].remaining_inputs += inputs.len();
            all.extend(inputs.into_iter().map(|t| PendingInput {
                time: t.time,
                port,
                value: t.value,
            }));
        }
        all.sort_by_key(|p| p.time);
        self.world.live.pending_inputs = all.into();
        Ok(())
    }

    // ---- event plumbing -------------------------------------------------

    /// Publishes an event to the trace and all observers, charging their
    /// instrumentation costs to the wall clock.
    pub fn emit(&mut self, event: Event) {
        self.world.live.events += 1;
        let meta = EventMeta {
            step: self.world.live.steps,
            time: self.world.live.time,
        };
        for obs in &mut self.observers {
            self.world.live.wall_extra += obs.on_event(&meta, &event);
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
            let pending = self.world.live.tasks[only.index()].pending;
            self.policy.note_forced(only, pending.as_ref());
            return Some(only);
        }
        let enabled: EnabledSet = candidates
            .iter()
            .map(|&t| (t, self.world.live.tasks[t.index()].pending))
            .collect();
        let point = crate::policy::DecisionPoint {
            seq: self.world.live.decision_seq,
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
        if self.world.live.hash_decisions {
            let digest = offered.unwrap_or_else(|| self.world.digest());
            debug_assert!(
                offered.is_none_or(|d| d == self.world.digest()),
                "the offered world's digest is stale at decision {}",
                self.world.live.decision_seq
            );
            self.world.decision_hashes.push(digest);
        }
        let decided = self.policy.decide(&point);
        match decided {
            Ok(idx) if idx < candidates.len() => {
                self.world.live.decision_seq += 1;
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
                self.world.live.stop = Some(StopReason::ReplayDivergence {
                    step: self.world.live.decision_seq,
                    detail: format!("policy returned out-of-range index {bad}"),
                });
                None
            }
            Err(reason) => {
                self.world.live.stop = Some(reason);
                None
            }
        }
    }

    /// Total wall ticks: execution plus instrumentation.
    pub fn wall_time(&self) -> u64 {
        self.world
            .live
            .time
            .saturating_add(self.world.live.wall_extra)
    }

    /// Consumes the kernel's observers for post-run retrieval.
    pub fn take_observers(&mut self) -> Vec<Box<dyn Observer>> {
        std::mem::take(&mut self.observers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::StateHasher;
    use crate::error::SimError;
    use crate::ops::{Attempt, CvStage, Op};
    use crate::policy::RandomPolicy;
    use crate::world::BlockOn;

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
        assert_eq!(k.world.live.steps, 2);
        assert!(k.world.live.time >= 2);
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
        k.world.live.tasks[t1.index()].phase = Phase::Blocked(BlockOn::Lock(l));
        let mut u = Op::Unlock { lock: l, site: "s" };
        assert!(matches!(k.exec_op(t0, &mut u), Attempt::Done(Ok(_))));
        assert_eq!(k.world.live.tasks[t1.index()].phase, Phase::Ready);
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
        let now = k.world.live.time;
        assert!(matches!(k.exec_op(t, &mut r), Attempt::Block(_)));
        match r {
            Op::Recv {
                deadline: Some(d), ..
            } => assert_eq!(d, now + 10),
            _ => panic!("deadline not resolved"),
        }
        // Past the deadline the retry reports a timeout.
        k.world.live.time += 20;
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
            k.world.live.chans[c.index()].queue.is_empty(),
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
        assert_eq!(k.world.live.chans[c.index()].queue.len(), 1);
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
            k.world.live.locks[l.index()].holder,
            None,
            "lock released during wait"
        );
        assert_eq!(k.world.live.cvars[cv.index()].waiters, vec![t0]);
        // Notify from another task.
        k.world.live.tasks[t0.index()].phase = Phase::Blocked(BlockOn::Cvar(cv));
        let t1 = k.add_task("t1", "g", None);
        let mut n = Op::CvNotify {
            cvar: cv,
            all: false,
            site: "s",
        };
        assert!(matches!(k.exec_op(t1, &mut n), Attempt::Done(Ok(_))));
        assert_eq!(k.world.live.tasks[t0.index()].phase, Phase::Ready);
        assert!(k.world.live.cvars[cv.index()].waiters.is_empty());
        // Retry reacquires the lock.
        assert!(matches!(k.exec_op(t0, &mut w), Attempt::Done(Ok(_))));
        assert_eq!(k.world.live.locks[l.index()].holder, Some(t0));
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
        k.world.live.tasks[t.index()].phase = Phase::Blocked(BlockOn::Port(p));
        k.world.live.time = 5;
        assert!(k.deliver_due());
        assert_eq!(k.world.live.tasks[t.index()].phase, Phase::Ready);
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
        assert_eq!(k.world.live.chans[to_server.index()].queue.len(), 1);
        // Partition starts at t=5: both directions drop; local traffic and
        // the RNG are untouched.
        k.world.live.time = 5;
        assert!(k.deliver_due());
        let rng_before = k.world.live.rng.clone();
        let mut s = send(to_server);
        assert!(matches!(k.exec_op(client, &mut s), Attempt::Done(Ok(_))));
        assert_eq!(k.world.live.chans[to_server.index()].queue.len(), 1);
        let mut s = send(to_client);
        assert!(matches!(k.exec_op(server, &mut s), Attempt::Done(Ok(_))));
        assert!(k.world.live.chans[to_client.index()].queue.is_empty());
        let mut s = send(local);
        assert!(matches!(k.exec_op(client, &mut s), Attempt::Done(Ok(_))));
        assert_eq!(k.world.live.chans[local.index()].queue.len(), 1);
        assert_eq!(k.world.live.rng.digest_words(), rng_before.digest_words());
        let drops = k
            .world
            .trace
            .iter()
            .filter(|(_, e)| matches!(e, Event::SendDropped { .. }))
            .count();
        assert_eq!(drops, 2);
        // Heal at t=10: traffic flows again.
        k.world.live.time = 10;
        assert!(k.deliver_due());
        assert!(k.world.live.active_partitions.is_empty());
        let mut s = send(to_server);
        assert!(matches!(k.exec_op(client, &mut s), Attempt::Done(Ok(_))));
        assert_eq!(k.world.live.chans[to_server.index()].queue.len(), 2);
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
        k.world.live.time = 3;
        assert!(k.deliver_due());
        assert_eq!(k.world.live.restarts_due, vec!["node1".to_owned()]);
        assert_eq!(k.world.live.restart_counts["node1"], 1);
    }

    #[test]
    fn kill_group_bumps_per_group_crash_count() {
        let mut k = kernel();
        k.add_task("a", "node1", None);
        k.kill_group("node1");
        k.kill_group("node1");
        assert_eq!(k.world.live.crash_counts["node1"], 2);
        assert!(k.world.live.restart_counts.is_empty());
    }

    #[test]
    fn kill_group_marks_tasks_and_cleans_cvars() {
        let mut k = kernel();
        let t0 = k.add_task("a", "node1", None);
        let t1 = k.add_task("b", "node2", None);
        let cv = k.add_cvar("cv");
        k.world.live.cvars[cv.index()].waiters.push(t0);
        k.kill_group("node1");
        assert!(k.world.live.tasks[t0.index()].killed);
        assert!(!k.world.live.tasks[t1.index()].killed);
        assert!(k.world.live.cvars[cv.index()].waiters.is_empty());
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
        k.world.live.tasks[t1.index()].phase = Phase::Blocked(BlockOn::Lock(l));
        // The crash models a process death: its mutexes are released, not
        // orphaned, so the surviving waiter acquires the lock.
        k.kill_group("node1");
        assert_eq!(k.world.live.locks[l.index()].holder, None);
        assert_eq!(k.world.live.tasks[t1.index()].phase, Phase::Ready);
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
        assert!(k.world.live.stop.is_none());
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
        assert_eq!(k.world.live.counters["drops"], 5);
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
        let start = k.world.live.time;
        assert!(matches!(
            k.exec_op(t, &mut s),
            Attempt::Block(BlockOn::Timer { .. })
        ));
        k.world.live.tasks[t.index()].phase = Phase::Blocked(BlockOn::Timer { until: start + 10 });
        assert_eq!(k.next_pending_time(), Some(start + 10));
        k.world.live.time = start + 10;
        assert!(k.deliver_due());
        assert_eq!(k.world.live.tasks[t.index()].phase, Phase::Ready);
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
        assert_eq!(k.world.live.wall_extra, 10);
        assert!(k.wall_time() > k.world.live.time);
    }
}
