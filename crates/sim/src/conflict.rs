//! Conflict metadata for partial-order reduction.
//!
//! Every operation a task can ask the kernel to perform touches at most one
//! shared resource (plus, for condition-variable waits, the associated
//! lock). An [`OpDesc`] is the schedule-relevant footprint of a pending
//! operation: two enabled operations *commute* — executing them in either
//! order reaches the same state — exactly when their descriptors do not
//! [`conflict`](OpDesc::conflicts). Systematic explorers (`dd-replay`'s
//! DPOR-lite strategy) use this to prune interleavings that only reorder
//! commuting operations; [`OpDesc::of_event`] maps an executed event back to
//! the footprint of the operation it completed.

use crate::event::Event;
use crate::ids::{ChanId, CondvarId, LockId, PortId, VarId};
use serde::{Deserialize, Serialize};

/// The shared-resource footprint of one pending operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpDesc {
    /// A shared-variable access.
    Var {
        /// The variable touched.
        var: VarId,
        /// `true` for a store.
        write: bool,
    },
    /// A lock acquire or release.
    Lock {
        /// The lock touched.
        lock: LockId,
    },
    /// A condition-variable wait (which also releases/reacquires the lock).
    CvWait {
        /// The condition variable waited on.
        cvar: CondvarId,
        /// The lock released while waiting.
        lock: LockId,
    },
    /// A condition-variable notification.
    CvNotify {
        /// The condition variable signalled.
        cvar: CondvarId,
    },
    /// A channel send, receive or close.
    Chan {
        /// The channel touched.
        chan: ChanId,
    },
    /// An input-port read.
    PortIn {
        /// The port read.
        port: PortId,
    },
    /// An output-port write.
    PortOut {
        /// The port written.
        port: PortId,
    },
    /// A draw from the kernel RNG (all draws share one stream).
    Rng,
    /// A purely task-local operation (yield, sleep, alloc, join, probe,
    /// counter): commutes with everything except [`OpDesc::Global`].
    Local,
    /// An operation with an unknown or run-wide footprint (task spawn,
    /// explicit crash/stop, or a task whose next operation is not yet
    /// known): conflicts with everything.
    Global,
}

impl OpDesc {
    /// The footprint of the operation an executed trace event completed,
    /// or `None` for events that are not operation completions (decisions,
    /// exits, kills, failed allocations, input arrivals, faults).
    pub fn of_event(event: &Event) -> Option<OpDesc> {
        Some(match event {
            Event::Read { var, .. } => OpDesc::Var {
                var: *var,
                write: false,
            },
            Event::Write { var, .. } => OpDesc::Var {
                var: *var,
                write: true,
            },
            Event::Send { chan, .. }
            | Event::Recv { chan, .. }
            | Event::SendDropped { chan, .. } => OpDesc::Chan { chan: *chan },
            Event::InputRead { port, .. } => OpDesc::PortIn { port: *port },
            Event::Output { port, .. } => OpDesc::PortOut { port: *port },
            Event::LockAcquire { lock, .. } | Event::LockRelease { lock, .. } => {
                OpDesc::Lock { lock: *lock }
            }
            Event::CondWait { cvar, lock, .. } => OpDesc::CvWait {
                cvar: *cvar,
                lock: *lock,
            },
            Event::CondNotify { cvar, .. } => OpDesc::CvNotify { cvar: *cvar },
            Event::RngDraw { .. } => OpDesc::Rng,
            Event::TaskSpawn { .. } | Event::Crash { .. } => OpDesc::Global,
            Event::Probe { .. }
            | Event::Counter { .. }
            | Event::Alloc { .. }
            | Event::Sleep { .. }
            | Event::Joined { .. }
            | Event::Yield { .. } => OpDesc::Local,
            _ => return None,
        })
    }

    /// Returns `true` if the two operations do *not* commute: executing
    /// them in different orders from the same state can reach different
    /// states (or different observable traces).
    pub fn conflicts(&self, other: &OpDesc) -> bool {
        use OpDesc::*;
        match (self, other) {
            (Global, _) | (_, Global) => true,
            (Local, _) | (_, Local) => false,
            (Var { var: a, write: w1 }, Var { var: b, write: w2 }) => a == b && (*w1 || *w2),
            (Lock { lock: a }, Lock { lock: b }) => a == b,
            (Lock { lock: a }, CvWait { lock: b, .. })
            | (CvWait { lock: a, .. }, Lock { lock: b }) => a == b,
            (CvWait { cvar: a, lock: la }, CvWait { cvar: b, lock: lb }) => a == b || la == lb,
            (CvWait { cvar: a, .. }, CvNotify { cvar: b })
            | (CvNotify { cvar: a }, CvWait { cvar: b, .. })
            | (CvNotify { cvar: a }, CvNotify { cvar: b }) => a == b,
            (Chan { chan: a }, Chan { chan: b }) => a == b,
            (PortIn { port: a }, PortIn { port: b }) => a == b,
            (PortOut { port: a }, PortOut { port: b }) => a == b,
            (Rng, Rng) => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_conflicts_need_a_write() {
        let r = OpDesc::Var {
            var: VarId(0),
            write: false,
        };
        let w = OpDesc::Var {
            var: VarId(0),
            write: true,
        };
        let w_other = OpDesc::Var {
            var: VarId(1),
            write: true,
        };
        assert!(!r.conflicts(&r), "read/read commutes");
        assert!(r.conflicts(&w) && w.conflicts(&r));
        assert!(w.conflicts(&w));
        assert!(!w.conflicts(&w_other), "different variables commute");
    }

    #[test]
    fn conflicts_is_symmetric() {
        let descs = [
            OpDesc::Var {
                var: VarId(0),
                write: true,
            },
            OpDesc::Var {
                var: VarId(0),
                write: false,
            },
            OpDesc::Lock { lock: LockId(0) },
            OpDesc::CvWait {
                cvar: CondvarId(0),
                lock: LockId(0),
            },
            OpDesc::CvNotify { cvar: CondvarId(0) },
            OpDesc::Chan { chan: ChanId(0) },
            OpDesc::PortIn { port: PortId(0) },
            OpDesc::PortOut { port: PortId(0) },
            OpDesc::Rng,
            OpDesc::Local,
            OpDesc::Global,
        ];
        for a in &descs {
            for b in &descs {
                assert_eq!(a.conflicts(b), b.conflicts(a), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn local_commutes_with_everything_but_global() {
        let l = OpDesc::Local;
        assert!(!l.conflicts(&OpDesc::Rng));
        assert!(!l.conflicts(&OpDesc::Lock { lock: LockId(3) }));
        assert!(!l.conflicts(&l));
        assert!(l.conflicts(&OpDesc::Global));
    }

    #[test]
    fn cv_wait_conflicts_with_its_lock() {
        let w = OpDesc::CvWait {
            cvar: CondvarId(0),
            lock: LockId(5),
        };
        assert!(w.conflicts(&OpDesc::Lock { lock: LockId(5) }));
        assert!(!w.conflicts(&OpDesc::Lock { lock: LockId(6) }));
        assert!(w.conflicts(&OpDesc::CvNotify { cvar: CondvarId(0) }));
        assert!(!w.conflicts(&OpDesc::CvNotify { cvar: CondvarId(1) }));
    }

    #[test]
    fn serde_round_trip() {
        let d = OpDesc::CvWait {
            cvar: CondvarId(2),
            lock: LockId(1),
        };
        let s = serde_json::to_string(&d).unwrap();
        assert_eq!(serde_json::from_str::<OpDesc>(&s).unwrap(), d);
    }
}
