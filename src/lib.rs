//! # debug-determinism
//!
//! A reproduction of *"Debug Determinism: The Sweet Spot for Replay-Based
//! Debugging"* (Zamfir, Altekar, Candea, Stoica — HotOS XIII, 2011) as a
//! Rust workspace: a deterministic concurrent-execution simulator, the
//! baseline replay-debugging determinism models (perfect, value, output,
//! failure), the paper's debug-determinism model with root-cause-driven
//! selectivity (RCSE), the DF/DE/DU metrics, and the workloads — including
//! a Hypertable-like distributed KV store reproducing issue 63 — that
//! regenerate the paper's figures.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `dd-sim` | the deterministic machine: tasks, shared memory, channels, scripted I/O, fault injection, replayable scheduling |
//! | [`trace`] | `dd-trace` | traces, artifact log formats (each a projection of the finished run), recording cost: an observer pays for each logged event |
//! | [`detect`] | `dd-detect` | happens-before & lockset race detection, lost-update analysis, invariant inference, trigger detectors |
//! | [`classify`] | `dd-classify` | control/data-plane classification by data rate |
//! | [`replay`] | `dd-replay` | the baseline determinism models and the search-based inference engine (random, PCT, exhaustive and DPOR-reduced schedule exploration) |
//! | [`core`] | `dd-core` | debug determinism: specs, root causes, RCSE, the `DebugModel`, DF/DE/DU metrics, the experiment runner |
//! | [`hyperstore`] | `dd-hyperstore` | the §4 case study: a distributed KV store with issue 63 |
//! | [`workloads`] | `dd-workloads` | the §2/§3 motivating programs: sum (2+2=5), msgserver, bufoverflow |
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`, or:
//!
//! ```
//! use debug_determinism::core::{evaluate_model, InferenceBudget, ValueModel, Workload};
//! use debug_determinism::workloads::SumWorkload;
//!
//! let (report, _, replay) =
//!     evaluate_model(&SumWorkload, &ValueModel, &InferenceBudget::executions(8));
//! assert!(replay.reproduced_failure);
//! assert_eq!(report.utility.fidelity.df, 1.0);
//! ```

/// The deterministic concurrent-execution simulator (`dd-sim`).
pub use dd_sim as sim;

/// Trace model, cost accounting and artifact formats (`dd-trace`).
pub use dd_trace as trace;

/// Race/invariant detectors and RCSE triggers (`dd-detect`).
pub use dd_detect as detect;

/// Control/data-plane classification (`dd-classify`).
pub use dd_classify as classify;

/// Baseline determinism models and inference (`dd-replay`).
pub use dd_replay as replay;

/// Debug determinism, RCSE and the metrics (`dd-core`).
pub use dd_core as core;

/// The Hypertable issue-63 case study (`dd-hyperstore`).
pub use dd_hyperstore as hyperstore;

/// The motivating workloads (`dd-workloads`).
pub use dd_workloads as workloads;
