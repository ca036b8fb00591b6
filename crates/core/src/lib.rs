//! # dd-core — debug determinism and root-cause-driven selectivity
//!
//! The primary contribution of *"Debug Determinism: The Sweet Spot for
//! Replay-Based Debugging"* (HotOS 2011), reproduced as a library:
//!
//! - **Failures** are I/O-specification violations ([`Spec`]), including
//!   performance characteristics.
//! - **Root causes** are fix-predicate negations, operationalised as trace
//!   predicates ([`RootCause`]).
//! - **Debug determinism** means replaying the same failure *and* the same
//!   root cause. It is approximated by **RCSE** ([`RcseRecorder`],
//!   [`DebugModel`]): record the thread schedule and control-plane data,
//!   dial fidelity up when potential-bug triggers fire, dial down after a
//!   quiet window.
//! - **Metrics** ([`debugging_fidelity`], [`debugging_efficiency`],
//!   [`debugging_utility`]): DF ∈ {0, 1/n, 1}, DE = t_orig / t_reproduce,
//!   DU = DF × DE.
//! - The [`experiment`] runner evaluates any [`DeterminismModel`] on any
//!   [`Workload`] and prints the Fig. 1 / Fig. 2 rows.

pub mod driver;
pub mod experiment;
pub mod metrics;
pub mod rcse;
pub mod rootcause;
pub mod spec;
pub mod workload;

pub use driver::{BehaviorCheck, Exploration, Session};
pub use experiment::{
    enumerate_root_causes, evaluate_model, evaluate_model_on, find_cause_equivalent_executions,
    CauseWitness, ModelReport,
};
pub use metrics::{
    debugging_efficiency, debugging_fidelity, debugging_utility, FidelityReport, UtilityReport,
};
pub use rcse::{
    root_cause_recorded, train, DebugModel, Fidelity, RcseConfig, RcseRecorder, ResolvedPlaneMap,
    Training,
};
pub use rootcause::{active_causes, causes_for, CauseCtx, CausePredicate, RootCause};
pub use spec::{oracle_of, snapshot, FnSpec, Spec};
pub use workload::{RunSetup, Workload};

// Re-export the pieces users need alongside the core API.
pub use dd_replay::{
    DeterminismModel, FailureModel, InferenceBudget, ModelKind, MsgOrderModel, OutputHeavyModel,
    OutputLiteModel, PerfectModel, RaceCompleteModel, Recording, ReplayResult, ValueModel,
};
