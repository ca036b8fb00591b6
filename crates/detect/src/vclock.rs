//! Vector clocks: the partial order underlying happens-before analysis.

use dd_sim::TaskId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A sparse vector clock over task ids.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VectorClock {
    entries: BTreeMap<u32, u64>,
}

impl VectorClock {
    /// The zero clock.
    pub const fn new() -> Self {
        VectorClock {
            entries: BTreeMap::new(),
        }
    }

    /// Returns the component for `task` (0 if absent).
    pub fn get(&self, task: TaskId) -> u64 {
        self.entries.get(&task.0).copied().unwrap_or(0)
    }

    /// Sets the component for `task`.
    pub fn set(&mut self, task: TaskId, v: u64) {
        if v == 0 {
            self.entries.remove(&task.0);
        } else {
            self.entries.insert(task.0, v);
        }
    }

    /// Increments `task`'s own component and returns the new value.
    pub fn tick(&mut self, task: TaskId) -> u64 {
        let e = self.entries.entry(task.0).or_insert(0);
        *e += 1;
        *e
    }

    /// Joins (pointwise max) another clock into this one.
    pub fn join(&mut self, other: &VectorClock) {
        for (&t, &v) in &other.entries {
            let e = self.entries.entry(t).or_insert(0);
            if v > *e {
                *e = v;
            }
        }
    }

    /// Returns `true` if `self ≤ other` pointwise (self happens-before or
    /// equals other).
    pub fn leq(&self, other: &VectorClock) -> bool {
        self.entries
            .iter()
            .all(|(&t, &v)| v <= other.entries.get(&t).copied().unwrap_or(0))
    }

    /// Returns `true` if the two clocks are incomparable (concurrent).
    pub fn concurrent(&self, other: &VectorClock) -> bool {
        !self.leq(other) && !other.leq(self)
    }

    /// Number of non-zero components.
    pub fn width(&self) -> usize {
        self.entries.len()
    }
}

impl core::fmt::Display for VectorClock {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{{")?;
        for (i, (t, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "t{t}:{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(pairs: &[(u32, u64)]) -> VectorClock {
        let mut c = VectorClock::new();
        for &(t, v) in pairs {
            c.set(TaskId(t), v);
        }
        c
    }

    #[test]
    fn tick_and_get() {
        let mut c = VectorClock::new();
        assert_eq!(c.get(TaskId(0)), 0);
        assert_eq!(c.tick(TaskId(0)), 1);
        assert_eq!(c.tick(TaskId(0)), 2);
        assert_eq!(c.get(TaskId(0)), 2);
        assert_eq!(c.width(), 1);
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = vc(&[(0, 3), (1, 1)]);
        let b = vc(&[(0, 1), (1, 5), (2, 2)]);
        a.join(&b);
        assert_eq!(a, vc(&[(0, 3), (1, 5), (2, 2)]));
    }

    #[test]
    fn leq_and_concurrency() {
        let a = vc(&[(0, 1)]);
        let b = vc(&[(0, 2), (1, 1)]);
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
        let c = vc(&[(1, 3)]);
        assert!(a.concurrent(&c));
        assert!(!a.concurrent(&b));
    }

    #[test]
    fn zero_clock_leq_everything() {
        let z = VectorClock::new();
        assert!(z.leq(&z));
        assert!(z.leq(&vc(&[(4, 9)])));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(vc(&[(0, 1), (2, 3)]).to_string(), "{t0:1, t2:3}");
    }

    #[test]
    fn serde_round_trip() {
        let a = vc(&[(0, 3), (7, 2)]);
        let s = serde_json::to_string(&a).unwrap();
        assert_eq!(serde_json::from_str::<VectorClock>(&s).unwrap(), a);
    }
}
