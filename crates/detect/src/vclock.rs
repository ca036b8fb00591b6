//! Vector clocks: the partial order underlying happens-before analysis.

use dd_sim::TaskId;
use serde::{Deserialize, Serialize};

/// A dense vector clock over task ids: task `i`'s component is stored at
/// index `i`, and every component past the end of the storage is zero.
/// Two clocks that differ only in trailing zero components are equal.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct VectorClock {
    components: Vec<u64>,
}

impl VectorClock {
    /// The zero clock.
    pub const fn new() -> Self {
        VectorClock {
            components: Vec::new(),
        }
    }

    /// Returns the component for `task` (0 if absent).
    pub fn get(&self, task: TaskId) -> u64 {
        self.at(task.0 as usize)
    }

    /// Sets the component for `task`.
    pub fn set(&mut self, task: TaskId, v: u64) {
        let i = task.0 as usize;
        if i < self.components.len() {
            self.components[i] = v;
        } else if v != 0 {
            self.components.resize(i + 1, 0);
            self.components[i] = v;
        }
    }

    /// Increments `task`'s own component and returns the new value.
    pub fn tick(&mut self, task: TaskId) -> u64 {
        let i = task.0 as usize;
        if i >= self.components.len() {
            self.components.resize(i + 1, 0);
        }
        self.components[i] += 1;
        self.components[i]
    }

    /// Joins (pointwise max) another clock into this one.
    pub fn join(&mut self, other: &VectorClock) {
        self.join_components(other.components.iter().copied());
    }

    /// Returns `true` if `self ≤ other` pointwise (self happens-before or
    /// equals other).
    pub fn leq(&self, other: &VectorClock) -> bool {
        self.components
            .iter()
            .enumerate()
            .all(|(i, &v)| v <= other.at(i))
    }

    /// Returns `true` if the two clocks are incomparable (concurrent).
    pub fn concurrent(&self, other: &VectorClock) -> bool {
        !self.leq(other) && !other.leq(self)
    }

    /// Number of non-zero components.
    pub fn width(&self) -> usize {
        self.components.iter().filter(|&&v| v != 0).count()
    }

    /// Component `i` (0 past the end).
    fn at(&self, i: usize) -> u64 {
        self.components.get(i).copied().unwrap_or(0)
    }

    /// Joins a clock given as its components, component 0 first.
    pub(crate) fn join_components(&mut self, other: impl ExactSizeIterator<Item = u64>) {
        if other.len() > self.components.len() {
            self.components.resize(other.len(), 0);
        }
        for (mine, v) in self.components.iter_mut().zip(other) {
            *mine = (*mine).max(v);
        }
    }

    /// The stored components, component 0 first.
    pub(crate) fn components(&self) -> &[u64] {
        &self.components
    }

    /// Resets to the zero clock, keeping the storage.
    pub(crate) fn clear(&mut self) {
        self.components.clear();
    }
}

impl Clone for VectorClock {
    fn clone(&self) -> Self {
        VectorClock {
            components: self.components.clone(),
        }
    }

    /// Reuses `self`'s storage, so copying into a grown clock allocates
    /// nothing.
    fn clone_from(&mut self, source: &Self) {
        self.components.clone_from(&source.components);
    }
}

impl PartialEq for VectorClock {
    fn eq(&self, other: &Self) -> bool {
        let n = self.components.len().max(other.components.len());
        (0..n).all(|i| self.at(i) == other.at(i))
    }
}

impl Eq for VectorClock {}

impl core::fmt::Display for VectorClock {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{{")?;
        let nonzero = self.components.iter().enumerate().filter(|(_, &v)| v != 0);
        for (n, (t, v)) in nonzero.enumerate() {
            if n > 0 {
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
    fn trailing_zeros_do_not_count() {
        let mut a = vc(&[(0, 1), (3, 2)]);
        a.set(TaskId(3), 0);
        assert_eq!(a, vc(&[(0, 1)]));
        assert_eq!(a.width(), 1);
        assert!(vc(&[(0, 1)]).leq(&a) && a.leq(&vc(&[(0, 1)])));
    }

    #[test]
    fn clone_from_reuses_storage() {
        let mut a = vc(&[(5, 1)]);
        let before = a.components.as_ptr();
        a.clone_from(&vc(&[(0, 2), (1, 3)]));
        assert_eq!(a, vc(&[(0, 2), (1, 3)]));
        assert_eq!(a.components.as_ptr(), before);
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
