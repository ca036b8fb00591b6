//! Snapshot byte accounting: what a snapshot clone copies and what it
//! shares.
//!
//! The ABL-9 `snapshot_cost` sweep and the history-sharing tests use this
//! to price a [`WorldSnapshot`] against the pre-chunking representation,
//! which deep-copied the whole history on every snapshot. Nothing on the
//! run path reads it.

use crate::conflict::OpDesc;
use crate::event::{Event, EventMeta};
use crate::history::ChunkedLog;
use crate::ids::TaskId;
use crate::value::Value;
use crate::world::{
    ChanRec, CrashRecord, CvarRec, DecisionRecord, EnabledSet, LockRec, OutputRecord, PendingInput,
    PortRec, SysLogEntry, TaskRec, VarRec, WorldSnapshot, WorldState,
};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

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

impl WorldState {
    /// Approximate heap bytes of the hot machine state a clone copies.
    fn live_bytes(&self) -> u64 {
        let tasks: u64 = self
            .live
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
            .live
            .vars
            .iter()
            .map(|v| sz::<VarRec>() + v.name.len() as u64 + v.value.byte_size())
            .sum();
        let locks: u64 = self
            .live
            .locks
            .iter()
            .map(|l| sz::<LockRec>() + l.name.len() as u64)
            .sum();
        let cvars: u64 = self
            .live
            .cvars
            .iter()
            .map(|c| {
                sz::<CvarRec>() + c.name.len() as u64 + c.waiters.len() as u64 * sz::<TaskId>()
            })
            .sum();
        let chans: u64 = self
            .live
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
            .live
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
        let timers = self.live.timers.len() as u64 * sz::<Reverse<(u64, u32)>>();
        let pending_inputs: u64 = self
            .live
            .pending_inputs
            .iter()
            .map(|p| sz::<PendingInput>() + p.value.byte_size())
            .sum();
        let pending_crashes: u64 = self
            .live
            .pending_crashes
            .iter()
            .map(|(_, g)| sz::<(u64, String)>() + g.len() as u64)
            .sum();
        let faults: u64 = self
            .live
            .pending_partitions
            .iter()
            .chain(&self.live.pending_heals)
            .map(|(_, a, b)| sz::<(u64, String, String)>() + (a.len() + b.len()) as u64)
            .sum::<u64>()
            + self
                .live
                .active_partitions
                .iter()
                .map(|(a, b)| sz::<(String, String)>() + (a.len() + b.len()) as u64)
                .sum::<u64>()
            + self
                .live
                .pending_restarts
                .iter()
                .map(|(_, g)| sz::<(u64, String)>() + g.len() as u64)
                .sum::<u64>()
            + self
                .live
                .restarts_due
                .iter()
                .map(|g| sz::<String>() + g.len() as u64)
                .sum::<u64>()
            + self
                .live
                .restarts_fired
                .iter()
                .map(|(g, _)| sz::<(String, u32)>() + g.len() as u64)
                .sum::<u64>()
            + self
                .live
                .crash_counts
                .keys()
                .chain(self.live.restart_counts.keys())
                .map(|k| k.len() as u64 + 8 + 48)
                .sum::<u64>();
        let counters: u64 = self
            .live
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
}

impl WorldSnapshot {
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
