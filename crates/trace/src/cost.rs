//! Recording cost accounting.
//!
//! The paper's Fig. 1 and Fig. 2 compare determinism models by *recording
//! overhead*. Our recorders charge wall-clock ticks per logged record
//! through a [`CostModel`]; the resulting overhead factor is
//! `wall_ticks / exec_ticks` (see [`dd_sim::RunStats::overhead_factor`]).
//!
//! Constants are calibrated so the published overhead *ordering* holds on
//! our workloads: CREW-style perfect determinism is the most expensive,
//! value logging next, output/schedule logging cheap, failure recording
//! free. `BENCH_fig1.json` and `overhead_ordering_matches_fig2` in
//! `crates/hyperstore/tests/fig2_models.rs` pin the ordering. Absolute
//! factors are a documented substitution for the authors' hardware
//! measurements.

use dd_sim::Event;
use serde::{Deserialize, Serialize};

/// Cost charged per logged record, in *milliticks* (1/1000 of a wall tick):
/// a fixed per-record cost plus a per-byte cost. Sub-tick precision matters
/// because cheap recorders (schedule logs) cost well under one tick per
/// record; recorders accumulate fractions through a [`ChargeAcc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    /// Milliticks per logged record.
    pub record_milli: u64,
    /// Milliticks per payload byte.
    pub byte_milli: u64,
}

impl CostModel {
    /// A cost model with only a fixed per-record cost (whole ticks).
    pub const fn per_record(ticks: u64) -> Self {
        CostModel {
            record_milli: ticks * 1000,
            byte_milli: 0,
        }
    }

    /// A free recorder (failure determinism records nothing at runtime).
    pub const fn free() -> Self {
        CostModel {
            record_milli: 0,
            byte_milli: 0,
        }
    }

    /// Returns the millitick cost of logging `bytes` of payload.
    pub fn cost_milli(&self, bytes: u64) -> u64 {
        self.record_milli + bytes * self.byte_milli
    }
}

impl Default for CostModel {
    fn default() -> Self {
        // One tick per record plus an eighth of a tick per 8 payload bytes:
        // roughly a software log append with copy.
        CostModel {
            record_milli: 1000,
            byte_milli: 125,
        }
    }
}

/// Accumulates millitick charges, emitting whole wall ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChargeAcc {
    milli: u64,
}

impl ChargeAcc {
    /// Adds a millitick charge; returns the whole ticks now due.
    pub fn add(&mut self, milli: u64) -> u64 {
        self.milli += milli;
        let ticks = self.milli / 1000;
        self.milli %= 1000;
        ticks
    }
}

/// Approximate on-disk size of one logged event record, in bytes.
///
/// Log sizes drive both recording cost and the log-bandwidth statistics
/// reported alongside overhead. The encoding estimate is: an 8-byte header
/// (step delta, kind, ids) plus the payload for value-carrying events.
pub fn log_size(event: &Event) -> u64 {
    const HEADER: u64 = 8;
    match event {
        // Schedule decisions compress to a couple of bytes in practice.
        Event::Decision { .. } => 4,
        Event::TaskSpawn { name, group, .. } => HEADER + (name.len() + group.len()) as u64,
        Event::TaskExit { .. } | Event::TaskKilled { .. } => HEADER,
        Event::Crash { reason, .. } => HEADER + reason.len() as u64,
        Event::Probe { name, value, .. } => HEADER + name.len() as u64 + value.byte_size(),
        Event::GroupKilled { group, tasks } => HEADER + group.len() as u64 + 4 * tasks.len() as u64,
        e => HEADER + e.payload_bytes(),
    }
}

/// Running totals for one recorder: how many records and bytes it logged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogStats {
    /// Records appended.
    pub records: u64,
    /// Bytes appended.
    pub bytes: u64,
}

impl LogStats {
    /// Accounts one record of `bytes` payload.
    pub fn add(&mut self, bytes: u64) {
        self.records += 1;
        self.bytes += bytes;
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: LogStats) {
        self.records += other.records;
        self.bytes += other.bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::{TaskId, Value, VarId};

    #[test]
    fn cost_scales_with_bytes() {
        let m = CostModel {
            record_milli: 2000,
            byte_milli: 250,
        };
        assert_eq!(m.cost_milli(0), 2000);
        assert_eq!(m.cost_milli(8), 4000);
        assert_eq!(CostModel::free().cost_milli(1_000_000), 0);
        assert_eq!(CostModel::per_record(3).cost_milli(999), 3000);
    }

    #[test]
    fn charge_acc_accumulates_fractions() {
        let mut acc = ChargeAcc::default();
        // 0.4 ticks per record: every 5 records yield 2 ticks.
        let ticks: u64 = (0..5).map(|_| acc.add(400)).sum();
        assert_eq!(ticks, 2);
        assert_eq!(acc.add(600), 0);
        assert_eq!(acc.add(400), 1);
    }

    #[test]
    fn log_size_reflects_payload() {
        let small = Event::Read {
            task: TaskId(0),
            var: VarId(0),
            value: Value::Int(1),
            site: "s".into(),
        };
        let big = Event::Read {
            task: TaskId(0),
            var: VarId(0),
            value: Value::Bytes(vec![0; 1024]),
            site: "s".into(),
        };
        assert!(log_size(&big) > log_size(&small) + 1000);
        let dec = Event::Decision {
            kind: dd_sim::DecisionKind::NextTask,
            candidates: vec![TaskId(0), TaskId(1)],
            chosen: TaskId(0),
        };
        assert_eq!(log_size(&dec), 4);
    }

    #[test]
    fn log_stats_accumulate_and_merge() {
        let mut s = LogStats::default();
        s.add(10);
        s.add(20);
        assert_eq!(
            s,
            LogStats {
                records: 2,
                bytes: 30
            }
        );
        let mut t = LogStats::default();
        t.add(5);
        t.merge(s);
        assert_eq!(
            t,
            LogStats {
                records: 3,
                bytes: 35
            }
        );
    }
}
