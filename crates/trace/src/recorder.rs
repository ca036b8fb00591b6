//! The recording-cost observer: what a determinism model pays at run time
//! to log its artifact.
//!
//! Observers cannot change a run, and every run keeps its full event
//! trace, so each artifact log is a projection of the finished run:
//! [`ScheduleLog::from_run`], [`InputLog::from_run`],
//! [`ValueLog::from_trace`] and [`OutputLog::from_io`]. Only the price of
//! logging has to be paid online: [`LogCharger`] charges each log's
//! [`CostModel`] for every event that log keeps — the recording overhead
//! Fig. 1/Fig. 2 compare — and the artifact is the projection of those same
//! events.
//!
//! [`ScheduleLog::from_run`]: crate::ScheduleLog::from_run
//! [`InputLog::from_run`]: crate::InputLog::from_run
//! [`ValueLog::from_trace`]: crate::ValueLog::from_trace
//! [`OutputLog::from_io`]: crate::OutputLog::from_io

use crate::cost::{log_size, ChargeAcc, CostModel, LogStats};
use dd_sim::{observer_boilerplate, Event, EventMeta, Observer};

/// An artifact log, named by the events it keeps. No event is kept by two
/// logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogKind {
    /// [`ScheduleLog`](crate::ScheduleLog): every multi-candidate
    /// scheduling decision.
    Schedule,
    /// [`ValueLog`](crate::ValueLog): every value a task observes — reads,
    /// receives, input reads and RNG draws (iDNA-style, the most expensive
    /// log: it carries payload bytes on every access).
    Value,
    /// [`OutputLog`](crate::OutputLog): port writes and counter updates.
    /// The log keeps each counter's final total, but every update is
    /// charged, as an online recorder would append it.
    Output,
    /// [`InputLog`](crate::InputLog): external input arrivals.
    Input,
}

impl LogKind {
    /// The log that keeps `event`, if any.
    fn of(event: &Event) -> Option<LogKind> {
        Some(match event {
            Event::Decision { .. } => LogKind::Schedule,
            Event::Read { .. }
            | Event::Recv { .. }
            | Event::InputRead { .. }
            | Event::RngDraw { .. } => LogKind::Value,
            Event::Output { .. } | Event::Counter { .. } => LogKind::Output,
            Event::InputArrival { .. } => LogKind::Input,
            _ => return None,
        })
    }
}

/// Charges the wall clock for the artifact logs one recording keeps.
///
/// Each log has its own [`CostModel`] and its own [`ChargeAcc`], so every
/// log's sub-tick fractions accumulate apart; [`stats`](Self::stats) sums
/// the records and bytes of all of them.
pub struct LogCharger {
    logs: Vec<(LogKind, CostModel, ChargeAcc)>,
    stats: LogStats,
}

impl LogCharger {
    /// A charger for the given logs, each priced by its cost model.
    pub fn new(logs: &[(LogKind, CostModel)]) -> Self {
        LogCharger {
            logs: logs
                .iter()
                .map(|&(kind, cost)| (kind, cost, ChargeAcc::default()))
                .collect(),
            stats: LogStats::default(),
        }
    }

    /// Records and bytes charged so far, across every log.
    pub fn stats(&self) -> LogStats {
        self.stats
    }
}

impl Observer for LogCharger {
    fn on_event(&mut self, _meta: &EventMeta, event: &Event) -> u64 {
        let Some(kind) = LogKind::of(event) else {
            return 0;
        };
        let Some((_, cost, acc)) = self.logs.iter_mut().find(|(k, ..)| *k == kind) else {
            return 0;
        };
        let bytes = log_size(event);
        self.stats.add(bytes);
        acc.add(cost.cost_milli(bytes))
    }

    observer_boilerplate!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::{TaskId, Value, VarId};

    fn meta() -> EventMeta {
        EventMeta { step: 0, time: 0 }
    }

    #[test]
    fn schedule_recorder_only_logs_decisions() {
        let mut r = LogCharger::new(&[(LogKind::Schedule, CostModel::per_record(2))]);
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
        assert_eq!(
            r.stats(),
            LogStats {
                records: 1,
                bytes: 4
            }
        );
    }

    #[test]
    fn value_recorder_charges_for_payload() {
        let mut r = LogCharger::new(&[(
            LogKind::Value,
            CostModel {
                record_milli: 1000,
                byte_milli: 1000,
            },
        )]);
        let big = Event::Read {
            task: TaskId(0),
            var: VarId(0),
            value: Value::Bytes(vec![0; 100]),
            site: "s".into(),
        };
        let c = r.on_event(&meta(), &big);
        assert!(c > 100, "cost {c} should include payload bytes");
        assert_eq!(r.stats().records, 1);
        assert_eq!(r.stats().bytes, log_size(&big));
    }

    #[test]
    fn output_recorder_captures_counters() {
        // The output log keeps only each counter's final total, yet every
        // update is charged.
        let mut r = LogCharger::new(&[(LogKind::Output, CostModel::per_record(1))]);
        let update = |total| Event::Counter {
            task: TaskId(0),
            name: "drops".into(),
            total,
            site: "s".into(),
        };
        let ticks: u64 = (1..=4).map(|t| r.on_event(&meta(), &update(t))).sum();
        assert_eq!(ticks, 4);
        assert_eq!(r.stats().records, 4);
    }

    #[test]
    fn each_log_accumulates_its_own_fractions() {
        // 0.6 ticks per decision and 0.6 per input arrival: one shared
        // accumulator would pay a tick on the second event, two pay none.
        let cheap = CostModel {
            record_milli: 600,
            byte_milli: 0,
        };
        let mut r = LogCharger::new(&[(LogKind::Schedule, cheap), (LogKind::Input, cheap)]);
        let decision = Event::Decision {
            kind: dd_sim::DecisionKind::NextTask,
            candidates: vec![TaskId(0), TaskId(1)],
            chosen: TaskId(0),
        };
        let arrival = Event::InputArrival {
            port: dd_sim::PortId(0),
            value: Value::Int(1),
        };
        assert_eq!(r.on_event(&meta(), &decision), 0);
        assert_eq!(r.on_event(&meta(), &arrival), 0);
        assert_eq!(r.on_event(&meta(), &decision), 1);
        assert_eq!(r.on_event(&meta(), &arrival), 1);
        assert_eq!(r.stats().records, 4);
    }
}
