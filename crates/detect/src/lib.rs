//! # dd-detect — detectors for races, invariants and deviant behaviour
//!
//! The analysis machinery the paper's selection heuristics rely on:
//!
//! - [`VectorClock`] / [`HbClocks`]: the happens-before engine — the one
//!   place the spawn, lock, notify, channel and join edges are coded. The
//!   race detector and `dd-replay`'s DPOR conflict analysis both run on it.
//! - [`HbRaceDetector`]: precise happens-before data-race detection (online
//!   or offline) over [`HbClocks`], used both for root-cause predicates and
//!   as a high-fidelity trigger.
//! - [`LocksetDetector`]: Eraser-style approximate detection — the cheap
//!   always-on "potential-bug detector" §3.1.3 proposes for dialing
//!   recording fidelity up.
//! - [`InvariantSet`] / [`InvariantMonitor`]: dynamic invariant inference
//!   over probe points and runtime monitoring (data-based selection,
//!   §3.1.2).
//! - [`TriggerDetector`]: the common trigger interface consumed by the RCSE
//!   fidelity controller in `dd-core`.

pub mod hb;
pub mod invariants;
pub mod lockset;
pub mod lostupdate;
pub mod race;
pub mod trigger;
pub mod vclock;

pub use hb::HbClocks;
pub use invariants::{Invariant, InvariantMonitor, InvariantSet, Violation};
pub use lockset::{LocksetDetector, LocksetWarning, VarMode};
pub use lostupdate::{lost_updates, LostUpdate};
pub use race::{HbRaceDetector, RaceEndpoint, RaceReport};
pub use trigger::{default_triggers, CrashTrigger, TriggerDetector};
pub use vclock::VectorClock;
