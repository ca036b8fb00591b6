//! The [`Trace`] type: an analysed view over a run's event stream.
//!
//! A trace is the omniscient record of everything the machine did. It is the
//! input to root-cause predicates, race detection, plane classification and
//! debugging-fidelity measurement. Recorders under test never see it — they
//! pay for every byte they log — but analysis is free.

use dd_sim::{AccessKind, Event, EventMeta, RunOutput, TaskId, VarId};
use serde::{Deserialize, Serialize};

/// One timestamped event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Step/time metadata.
    pub meta: EventMeta,
    /// The event payload.
    pub event: Event,
}

/// A shared-memory access extracted from a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccessRecord {
    /// Global step at which the access happened.
    pub step: u64,
    /// Execution-clock time.
    pub time: u64,
    /// The accessing task.
    pub task: TaskId,
    /// The variable.
    pub var: VarId,
    /// Read or write.
    pub kind: AccessKind,
    /// The value observed or stored.
    pub value: dd_sim::Value,
    /// Program site.
    pub site: String,
}

/// An immutable, queryable event sequence from one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Builds a trace from raw `(meta, event)` pairs.
    pub fn from_events(events: Vec<(EventMeta, Event)>) -> Self {
        Trace {
            events: events
                .into_iter()
                .map(|(meta, event)| TraceEvent { meta, event })
                .collect(),
        }
    }

    /// Extracts the trace from a finished run.
    pub fn from_run(out: &RunOutput) -> Self {
        Self::from_events(out.trace().to_vec())
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over all events.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Extracts all shared-memory accesses, in program order.
    pub fn accesses(&self) -> Vec<AccessRecord> {
        self.events
            .iter()
            .filter_map(|e| match &e.event {
                Event::Read {
                    task,
                    var,
                    value,
                    site,
                } => Some(AccessRecord {
                    step: e.meta.step,
                    time: e.meta.time,
                    task: *task,
                    var: *var,
                    kind: AccessKind::Read,
                    value: value.clone(),
                    site: site.to_string(),
                }),
                Event::Write {
                    task,
                    var,
                    value,
                    site,
                } => Some(AccessRecord {
                    step: e.meta.step,
                    time: e.meta.time,
                    task: *task,
                    var: *var,
                    kind: AccessKind::Write,
                    value: value.clone(),
                    site: site.to_string(),
                }),
                _ => None,
            })
            .collect()
    }

    /// Returns all probe samples with the given name, in order.
    pub fn probes(&self, name: &str) -> Vec<(TaskId, &dd_sim::Value)> {
        self.events
            .iter()
            .filter_map(|e| match &e.event {
                Event::Probe {
                    task,
                    name: n,
                    value,
                    ..
                } if n == name => Some((*task, value)),
                _ => None,
            })
            .collect()
    }

    /// Counts events matching a predicate.
    pub fn count_matching(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.event)).count()
    }

    /// Returns `true` if any event matches the predicate.
    pub fn any(&self, pred: impl Fn(&Event) -> bool) -> bool {
        self.events.iter().any(|e| pred(&e.event))
    }

    /// Finds the first event matching a predicate.
    pub fn find(&self, pred: impl Fn(&Event) -> bool) -> Option<&TraceEvent> {
        self.events.iter().find(|e| pred(&e.event))
    }

    /// The execution-clock duration covered by this trace.
    pub fn duration(&self) -> u64 {
        self.events.last().map(|e| e.meta.time).unwrap_or(0)
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::Value;

    fn meta(step: u64) -> EventMeta {
        EventMeta {
            step,
            time: step * 2,
        }
    }

    fn sample() -> Trace {
        Trace::from_events(vec![
            (
                meta(0),
                Event::Read {
                    task: TaskId(0),
                    var: VarId(0),
                    value: Value::Int(1),
                    site: "a::read".into(),
                },
            ),
            (
                meta(1),
                Event::Write {
                    task: TaskId(1),
                    var: VarId(0),
                    value: Value::Int(2),
                    site: "b::write".into(),
                },
            ),
            (
                meta(2),
                Event::Probe {
                    task: TaskId(0),
                    name: "qlen".into(),
                    value: Value::Int(7),
                    site: "a::probe".into(),
                },
            ),
            (
                meta(3),
                Event::Crash {
                    task: TaskId(1),
                    reason: "boom".into(),
                    site: "b::crash".into(),
                },
            ),
        ])
    }

    #[test]
    fn accesses_are_extracted_in_order() {
        let t = sample();
        let acc = t.accesses();
        assert_eq!(acc.len(), 2);
        assert_eq!(acc[0].kind, AccessKind::Read);
        assert_eq!(acc[1].kind, AccessKind::Write);
        assert_eq!(acc[1].task, TaskId(1));
    }

    #[test]
    fn probes_and_crashes() {
        let t = sample();
        let p = t.probes("qlen");
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].1.as_int(), Some(7));
        assert!(t.find(|e| matches!(e, Event::Crash { .. })).is_some());
    }

    #[test]
    fn duration_and_bytes() {
        let t = sample();
        assert_eq!(t.duration(), 6);
        assert!(t.iter().map(|e| e.event.payload_bytes()).sum::<u64>() >= 16);
    }

    #[test]
    fn serde_round_trip() {
        let t = sample();
        let s = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&s).unwrap();
        assert_eq!(t, back);
    }
}
