//! # dd-replay — baseline determinism models and inference
//!
//! The replay-debugging systems the paper positions debug determinism
//! against, re-implemented over `dd-sim`:
//!
//! | Model | System | Records | Replays by |
//! |---|---|---|---|
//! | [`PerfectModel`] | SMP-ReVirt | schedule + inputs + env (CREW cost) | exact re-execution |
//! | [`ValueModel`] | iDNA | every value observed per task | feeding logs back |
//! | [`OutputLiteModel`] | ODR (light) | outputs | searching inputs × schedules × envs |
//! | [`OutputHeavyModel`] | ODR (heavy) | outputs + inputs | searching schedules × envs |
//! | [`MsgOrderModel`] | message-order replay | total grant order (RLE task runs) + inputs | order-guided re-execution |
//! | [`RaceCompleteModel`] | race-complete replay | race report + racing outcomes + racing grant order | guided re-execution, DPOR prefix search, outcome feeding |
//! | [`FailureModel`] | ESD | failure evidence only | searching for the same failure |
//!
//! The debug-determinism model (RCSE) lives in `dd-core`, built from the
//! same pieces.
//!
//! Inference is explicit bounded [`search`] over a scenario's
//! [`NondetSpace`] — the substitution for symbolic execution documented in
//! DESIGN.md. Its cost is measured and feeds debugging efficiency. The
//! systematic strategies can run multi-worker
//! ([`InferenceBudget::workers`], see [`parallel`]) with byte-identical
//! results for any worker count. DPOR's conflict analysis takes its
//! happens-before order from `dd-detect`'s `HbClocks`, the engine the race
//! detector runs on, and each executed event's footprint from
//! `dd_sim::OpDesc::of_event`.

pub mod divergence;
pub mod dpor;
pub mod explorer;
pub mod guided;
pub mod models;
pub mod parallel;
pub mod recordings;
pub mod scenario;

pub use divergence::{
    compare_streams, replay_trace, replay_trace_from, replay_trace_with, Divergence,
    DivergenceReport,
};
pub use explorer::{
    enumerate_failures, search, search_with, search_with_warm, BudgetError, InferenceBudget,
    InferenceBudgetBuilder, InferenceStats, SearchResult, SearchStrategy,
};
pub use guided::{
    pinned_completion_digest, racing_outcomes, FeedHandle, GuidedHandle, GuidedOrderPolicy,
    OrderCostObserver, OrderEntry, OrderLog, OrderRecorder, OutcomeFeed, PinSet, RaceOutcome,
};
pub use models::{
    DeterminismModel, FailureModel, MsgOrderModel, OutputHeavyModel, OutputLiteModel, PerfectModel,
    RaceCompleteModel, ReplayResult, ValueModel, RECORDING_CHECKPOINTS,
};
pub use recordings::{
    costs, Artifact, CrewObserver, ModelKind, OriginalRun, Recording, UnknownModelKind,
};
pub use scenario::{FailureOracle, NondetSpace, PolicyChoice, RunSpec, Scenario};
