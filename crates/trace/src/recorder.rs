//! Reusable recorder observers: the building blocks determinism models are
//! assembled from.
//!
//! Each recorder charges its [`CostModel`] per logged record — this is the
//! recording overhead that Fig. 1/Fig. 2 compare — and accumulates an
//! artifact retrievable after the run via
//! [`RunOutput::observer`](dd_sim::RunOutput::observer).

use crate::cost::{log_size, ChargeAcc, CostModel, LogStats};
use crate::logs::{InputEntry, InputLog, OutputLog, ScheduleLog, ValEntry, ValKind, ValueLog};
use dd_sim::{observer_boilerplate, Event, EventMeta, Observer, RecordedDecision, Value};
use std::collections::BTreeMap;

/// Records the schedule decision stream (thread interleavings).
pub struct ScheduleRecorder {
    cost: CostModel,
    acc: ChargeAcc,
    log: ScheduleLog,
    stats: LogStats,
}

impl ScheduleRecorder {
    /// Creates a recorder with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        ScheduleRecorder {
            cost,
            acc: ChargeAcc::default(),
            log: ScheduleLog::default(),
            stats: LogStats::default(),
        }
    }

    /// The recorded schedule so far.
    pub fn log(&self) -> &ScheduleLog {
        &self.log
    }

    /// Consumes the recorded schedule.
    pub fn take_log(&mut self) -> ScheduleLog {
        std::mem::take(&mut self.log)
    }

    /// Records the checkpoint epochs of a finished run in the artifact.
    ///
    /// Snapshots are taken by the driver, not published as events, so the
    /// observer cannot see them; models call this after the run with the
    /// snapshots from the [`RunOutput`](dd_sim::RunOutput) the recorder was
    /// attached to. The driver reports them in increasing decision order,
    /// which is the order [`ScheduleLog::epochs`] keeps.
    pub fn absorb_epochs(&mut self, snapshots: &[dd_sim::WorldSnapshot]) {
        self.log.epochs = snapshots.iter().map(crate::EpochMark::of).collect();
    }

    /// Recording statistics.
    pub fn stats(&self) -> LogStats {
        self.stats
    }
}

impl Observer for ScheduleRecorder {
    fn name(&self) -> &'static str {
        "schedule-recorder"
    }

    fn on_event(&mut self, _meta: &EventMeta, event: &Event) -> u64 {
        match event {
            Event::Decision { kind, chosen, .. } => {
                self.log.decisions.push(RecordedDecision {
                    kind: *kind,
                    chosen: *chosen,
                });
                let bytes = log_size(event);
                self.stats.add(bytes);
                self.acc.add(self.cost.cost_milli(bytes))
            }
            _ => 0,
        }
    }

    observer_boilerplate!();
}

/// Records every value observation (reads, receives, inputs, RNG draws) —
/// the iDNA-style value-determinism recorder. This is the most expensive
/// recorder: it logs payload bytes on every access.
pub struct ValueRecorder {
    cost: CostModel,
    acc: ChargeAcc,
    log: ValueLog,
    stats: LogStats,
}

impl ValueRecorder {
    /// Creates a recorder with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        ValueRecorder {
            cost,
            acc: ChargeAcc::default(),
            log: ValueLog::default(),
            stats: LogStats::default(),
        }
    }

    /// The accumulated value log.
    pub fn log(&self) -> &ValueLog {
        &self.log
    }

    /// Consumes the accumulated value log.
    pub fn take_log(&mut self) -> ValueLog {
        std::mem::take(&mut self.log)
    }

    /// Recording statistics.
    pub fn stats(&self) -> LogStats {
        self.stats
    }
}

impl Observer for ValueRecorder {
    fn name(&self) -> &'static str {
        "value-recorder"
    }

    fn on_event(&mut self, _meta: &EventMeta, event: &Event) -> u64 {
        let (task, entry) = match event {
            Event::Read { task, value, .. } => (
                *task,
                ValEntry {
                    kind: ValKind::Read,
                    value: value.clone(),
                },
            ),
            Event::Recv { task, value, .. } => (
                *task,
                ValEntry {
                    kind: ValKind::Recv,
                    value: value.clone(),
                },
            ),
            Event::InputRead { task, value, .. } => (
                *task,
                ValEntry {
                    kind: ValKind::Input,
                    value: value.clone(),
                },
            ),
            Event::RngDraw { task, value, .. } => (
                *task,
                ValEntry {
                    kind: ValKind::Rng,
                    value: Value::Int(*value as i64),
                },
            ),
            _ => return 0,
        };
        let bytes = log_size(event);
        self.stats.add(bytes);
        self.log.push(task, entry);
        self.acc.add(self.cost.cost_milli(bytes))
    }

    observer_boilerplate!();
}

/// Records observable outputs and counters — the ODR-lite recorder.
pub struct OutputRecorder {
    cost: CostModel,
    acc: ChargeAcc,
    outputs: Vec<(dd_sim::PortId, Value)>,
    counters: BTreeMap<String, i64>,
    stats: LogStats,
}

impl OutputRecorder {
    /// Creates a recorder with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        OutputRecorder {
            cost,
            acc: ChargeAcc::default(),
            outputs: Vec::new(),
            counters: BTreeMap::new(),
            stats: LogStats::default(),
        }
    }

    /// Resolves the recorded outputs against a registry into an
    /// [`OutputLog`].
    pub fn to_log(&self, registry: &dd_sim::Registry) -> OutputLog {
        OutputLog {
            outputs: self
                .outputs
                .iter()
                .map(|(port, value)| (registry.ports[port.index()].name.clone(), value.clone()))
                .collect(),
            counters: self.counters.clone(),
        }
    }

    /// Recording statistics.
    pub fn stats(&self) -> LogStats {
        self.stats
    }
}

impl Observer for OutputRecorder {
    fn name(&self) -> &'static str {
        "output-recorder"
    }

    fn on_event(&mut self, _meta: &EventMeta, event: &Event) -> u64 {
        match event {
            Event::Output { port, value, .. } => {
                let bytes = log_size(event);
                self.stats.add(bytes);
                self.outputs.push((*port, value.clone()));
                self.acc.add(self.cost.cost_milli(bytes))
            }
            Event::Counter { name, total, .. } => {
                let bytes = log_size(event);
                self.stats.add(bytes);
                self.counters.insert(name.clone(), *total);
                self.acc.add(self.cost.cost_milli(bytes))
            }
            _ => 0,
        }
    }

    observer_boilerplate!();
}

/// Records external input arrivals — the ODR-heavy input log.
pub struct InputRecorder {
    cost: CostModel,
    acc: ChargeAcc,
    entries: Vec<(dd_sim::PortId, u64, Value)>,
    stats: LogStats,
}

impl InputRecorder {
    /// Creates a recorder with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        InputRecorder {
            cost,
            acc: ChargeAcc::default(),
            entries: Vec::new(),
            stats: LogStats::default(),
        }
    }

    /// Resolves the recorded inputs against a registry into an [`InputLog`].
    pub fn to_log(&self, registry: &dd_sim::Registry) -> InputLog {
        InputLog {
            entries: self
                .entries
                .iter()
                .map(|(port, time, value)| InputEntry {
                    port: registry.ports[port.index()].name.clone(),
                    time: *time,
                    value: value.clone(),
                })
                .collect(),
        }
    }

    /// Recording statistics.
    pub fn stats(&self) -> LogStats {
        self.stats
    }
}

impl Observer for InputRecorder {
    fn name(&self) -> &'static str {
        "input-recorder"
    }

    fn on_event(&mut self, meta: &EventMeta, event: &Event) -> u64 {
        match event {
            Event::InputArrival { port, value } => {
                let bytes = log_size(event);
                self.stats.add(bytes);
                self.entries.push((*port, meta.time, value.clone()));
                self.acc.add(self.cost.cost_milli(bytes))
            }
            _ => 0,
        }
    }

    observer_boilerplate!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::{TaskId, VarId};

    fn meta() -> EventMeta {
        EventMeta { step: 0, time: 0 }
    }

    #[test]
    fn schedule_recorder_only_logs_decisions() {
        let mut r = ScheduleRecorder::new(CostModel::per_record(2));
        let c = r.on_event(
            &meta(),
            &Event::Decision {
                kind: dd_sim::DecisionKind::NextTask,
                candidates: vec![TaskId(0), TaskId(1)],
                chosen: TaskId(1),
            },
        );
        assert_eq!(c, 2);
        let c2 = r.on_event(
            &meta(),
            &Event::Yield {
                task: TaskId(0),
                site: "s".into(),
            },
        );
        assert_eq!(c2, 0);
        assert_eq!(r.log().len(), 1);
        assert_eq!(r.stats().records, 1);
    }

    #[test]
    fn value_recorder_charges_for_payload() {
        let mut r = ValueRecorder::new(CostModel {
            record_milli: 1000,
            byte_milli: 1000,
        });
        let big = Event::Read {
            task: TaskId(0),
            var: VarId(0),
            value: Value::Bytes(vec![0; 100]),
            site: "s".into(),
        };
        let c = r.on_event(&meta(), &big);
        assert!(c > 100, "cost {c} should include payload bytes");
        assert_eq!(r.log().len(), 1);
    }

    #[test]
    fn output_recorder_captures_counters() {
        let mut r = OutputRecorder::new(CostModel::per_record(1));
        r.on_event(
            &meta(),
            &Event::Counter {
                task: TaskId(0),
                name: "drops".into(),
                total: 4,
                site: "s".into(),
            },
        );
        let log = r.to_log(&dd_sim::Registry::default());
        assert_eq!(log.counters["drops"], 4);
    }
}
