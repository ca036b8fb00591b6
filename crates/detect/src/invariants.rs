//! Dynamic invariant inference and runtime monitoring (data-based
//! selection, §3.1.2).
//!
//! Following the paper's proposal (citing Ernst et al.'s dynamic invariant
//! detection), invariants are *learned* from probe samples in passing
//! training runs before release. In production the [`InvariantMonitor`]
//! watches the same probes; a violation signals that execution is likely on
//! an error path, which RCSE uses to dial recording fidelity up.

use dd_sim::{observer_boilerplate, Event, EventMeta, Observer, Trace, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// An invariant over one probe point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Invariant {
    /// The probe always had exactly this value.
    Const(Value),
    /// Integer probe within an inclusive range.
    Range {
        /// Smallest training value.
        min: i64,
        /// Largest training value.
        max: i64,
    },
    /// The probe took one of at most a few distinct values.
    OneOf(BTreeSet<Value>),
}

impl Invariant {
    /// Returns `true` if `value` satisfies this invariant.
    pub fn holds(&self, value: &Value) -> bool {
        match self {
            Invariant::Const(v) => v == value,
            Invariant::Range { min, max } => {
                value.as_int().is_some_and(|i| (*min..=*max).contains(&i))
            }
            Invariant::OneOf(set) => set.contains(value),
        }
    }
}

/// A set of learned invariants, keyed by probe name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InvariantSet {
    invariants: BTreeMap<String, Invariant>,
}

/// Maximum cardinality for [`Invariant::OneOf`] before generalising.
const ONE_OF_LIMIT: usize = 8;

/// Slack added to learned integer ranges, as a fraction of the observed
/// span (Daikon-style confidence widening to reduce brittle invariants).
const RANGE_SLACK_NUM: i64 = 1;
const RANGE_SLACK_DEN: i64 = 4;

impl InvariantSet {
    /// Learns invariants from the probe samples in training traces.
    ///
    /// For each probe name: if all samples are equal, learn [`Invariant::Const`];
    /// else if all are integers, learn a slack-widened [`Invariant::Range`];
    /// else if few distinct values, learn [`Invariant::OneOf`]; otherwise
    /// learn nothing for that probe.
    pub fn infer(training: &[Trace]) -> Self {
        let mut samples: BTreeMap<String, Vec<Value>> = BTreeMap::new();
        for trace in training {
            for (_, event) in trace {
                if let Event::Probe { name, value, .. } = event {
                    samples.entry(name.clone()).or_default().push(value.clone());
                }
            }
        }
        let mut invariants = BTreeMap::new();
        for (name, vals) in samples {
            if vals.is_empty() {
                continue;
            }
            let distinct: BTreeSet<Value> = vals.iter().cloned().collect();
            if distinct.len() == 1 {
                invariants.insert(
                    name,
                    Invariant::Const(distinct.into_iter().next().expect("len checked")),
                );
                continue;
            }
            let ints: Option<Vec<i64>> = vals.iter().map(Value::as_int).collect();
            if let Some(ints) = ints {
                let min = *ints.iter().min().expect("non-empty");
                let max = *ints.iter().max().expect("non-empty");
                let slack = ((max - min) * RANGE_SLACK_NUM / RANGE_SLACK_DEN).max(0);
                invariants.insert(
                    name,
                    Invariant::Range {
                        min: min - slack,
                        max: max + slack,
                    },
                );
                continue;
            }
            if distinct.len() <= ONE_OF_LIMIT {
                invariants.insert(name, Invariant::OneOf(distinct));
            }
        }
        InvariantSet { invariants }
    }

    /// Adds or replaces an invariant by hand (developer-provided predicate).
    pub fn insert(&mut self, probe: &str, inv: Invariant) {
        self.invariants.insert(probe.to_owned(), inv);
    }

    /// Looks up the invariant for a probe.
    pub fn get(&self, probe: &str) -> Option<&Invariant> {
        self.invariants.get(probe)
    }

    /// Number of learned invariants.
    pub fn len(&self) -> usize {
        self.invariants.len()
    }

    /// Returns `true` if nothing was learned.
    pub fn is_empty(&self) -> bool {
        self.invariants.is_empty()
    }

    /// Checks a sample; `true` means it satisfies the (possibly absent)
    /// invariant.
    pub fn check(&self, probe: &str, value: &Value) -> bool {
        self.invariants
            .get(probe)
            .is_none_or(|inv| inv.holds(value))
    }
}

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// The probe that violated.
    pub probe: String,
    /// The offending value.
    pub value: Value,
    /// Step of the violation.
    pub step: u64,
    /// Execution-clock time of the violation.
    pub time: u64,
}

/// Online monitor for a learned [`InvariantSet`].
#[derive(Debug, Default)]
pub struct InvariantMonitor {
    set: InvariantSet,
    violations: Vec<Violation>,
    /// Wall ticks charged per probe check when run online.
    pub cost_per_check: u64,
}

impl InvariantMonitor {
    /// Creates a monitor for the given invariants.
    pub fn new(set: InvariantSet) -> Self {
        InvariantMonitor {
            set,
            violations: Vec::new(),
            cost_per_check: 0,
        }
    }

    /// Creates a monitor charging `cost` per probe check.
    pub fn with_cost(set: InvariantSet, cost: u64) -> Self {
        InvariantMonitor {
            set,
            violations: Vec::new(),
            cost_per_check: cost,
        }
    }

    /// Violations seen so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Returns `true` if any violation has fired.
    pub fn fired(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Processes one event; returns `true` on a new violation.
    pub fn handle(&mut self, meta: &EventMeta, event: &Event) -> bool {
        if let Event::Probe { name, value, .. } = event {
            if !self.set.check(name, value) {
                self.violations.push(Violation {
                    probe: name.clone(),
                    value: value.clone(),
                    step: meta.step,
                    time: meta.time,
                });
                return true;
            }
        }
        false
    }
}

impl Observer for InvariantMonitor {
    fn on_event(&mut self, meta: &EventMeta, event: &Event) -> u64 {
        self.handle(meta, event);
        match event {
            Event::Probe { .. } => self.cost_per_check,
            _ => 0,
        }
    }

    observer_boilerplate!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::TaskId;

    fn probe_trace(name: &str, values: &[i64]) -> Trace {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                (
                    EventMeta {
                        step: i as u64,
                        time: i as u64,
                    },
                    Event::Probe {
                        task: TaskId(0),
                        name: name.to_owned(),
                        value: Value::Int(v),
                        site: "s".into(),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn constant_probe_learns_const() {
        let set = InvariantSet::infer(&[probe_trace("mode", &[1, 1, 1])]);
        assert_eq!(set.get("mode"), Some(&Invariant::Const(Value::Int(1))));
        assert!(set.check("mode", &Value::Int(1)));
        assert!(!set.check("mode", &Value::Int(2)));
    }

    #[test]
    fn integer_probe_learns_widened_range() {
        let set = InvariantSet::infer(&[probe_trace("qlen", &[0, 4, 8])]);
        match set.get("qlen") {
            Some(Invariant::Range { min, max }) => {
                // Span 8, slack 2.
                assert_eq!((*min, *max), (-2, 10));
            }
            other => panic!("expected range, got {other:?}"),
        }
        assert!(set.check("qlen", &Value::Int(10)));
        assert!(!set.check("qlen", &Value::Int(50)));
    }

    #[test]
    fn mixed_values_learn_one_of() {
        let t = Trace::from(vec![
            (
                EventMeta { step: 0, time: 0 },
                Event::Probe {
                    task: TaskId(0),
                    name: "state".into(),
                    value: Value::Str("idle".into()),
                    site: "s".into(),
                },
            ),
            (
                EventMeta { step: 1, time: 1 },
                Event::Probe {
                    task: TaskId(0),
                    name: "state".into(),
                    value: Value::Str("busy".into()),
                    site: "s".into(),
                },
            ),
        ]);
        let set = InvariantSet::infer(&[t]);
        assert!(set.check("state", &Value::Str("idle".into())));
        assert!(!set.check("state", &Value::Str("panic".into())));
    }

    #[test]
    fn unknown_probe_always_passes() {
        let set = InvariantSet::infer(&[]);
        assert!(set.check("anything", &Value::Int(999)));
        assert!(set.is_empty());
    }

    #[test]
    fn inferred_invariants_hold_on_training_data() {
        let traces = vec![probe_trace("a", &[3, 7, 5]), probe_trace("a", &[4, 6, 2])];
        let set = InvariantSet::infer(&traces);
        for t in &traces {
            for (_, v) in t.probes("a") {
                assert!(set.check("a", v));
            }
        }
    }

    #[test]
    fn monitor_fires_on_violation() {
        let set = InvariantSet::infer(&[probe_trace("qlen", &[0, 2, 4])]);
        let mut mon = InvariantMonitor::new(set);
        let meta = EventMeta { step: 9, time: 9 };
        let ok_event = Event::Probe {
            task: TaskId(0),
            name: "qlen".into(),
            value: Value::Int(3),
            site: "s".into(),
        };
        assert!(!mon.handle(&meta, &ok_event));
        let bad_event = Event::Probe {
            task: TaskId(0),
            name: "qlen".into(),
            value: Value::Int(100),
            site: "s".into(),
        };
        assert!(mon.handle(&meta, &bad_event));
        assert!(mon.fired());
        assert_eq!(mon.violations()[0].probe, "qlen");
    }

    #[test]
    fn manual_invariants_can_be_added() {
        let mut set = InvariantSet::default();
        set.insert("req_size", Invariant::Range { min: 0, max: 1024 });
        assert!(set.check("req_size", &Value::Int(512)));
        assert!(!set.check("req_size", &Value::Int(4096)));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn serde_round_trip() {
        let set = InvariantSet::infer(&[probe_trace("x", &[1, 2, 3])]);
        let s = serde_json::to_string(&set).unwrap();
        let back: InvariantSet = serde_json::from_str(&s).unwrap();
        assert_eq!(set, back);
    }
}
