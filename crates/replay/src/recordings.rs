//! Recording artifacts and model cost constants.

use crate::scenario::Scenario;
use dd_sim::{
    observer_boilerplate, EnvConfig, Event, EventMeta, IoSummary, Observer, RunOutput, StopReason,
};
use dd_trace::{FailureSnapshot, InputLog, LogStats, OutputLog, ScheduleLog, Trace, ValueLog};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Cost constants per determinism model.
///
/// Calibrated so the published overhead *ordering* holds on the bundled
/// workloads (pinned by `BENCH_fig1.json` and by
/// `overhead_ordering_matches_fig2` in
/// `crates/hyperstore/tests/fig2_models.rs`):
/// CREW-style perfect determinism ≫ value logging ≫ output/input logging ≫
/// schedule logging ≫ failure recording (free).
pub mod costs {
    use dd_trace::CostModel;

    /// Schedule (interleaving) log appends: run-length-encoded tiny records
    /// (well under one tick each).
    pub const SCHEDULE: CostModel = CostModel {
        record_milli: 400,
        byte_milli: 0,
    };
    /// Value logging: per-access record plus payload copy. The dominant
    /// recording cost of iDNA-style value determinism.
    pub const VALUE: CostModel = CostModel {
        record_milli: 2000,
        byte_milli: 150,
    };
    /// Output logging.
    pub const OUTPUT: CostModel = CostModel {
        record_milli: 1000,
        byte_milli: 30,
    };
    /// Input logging.
    pub const INPUT: CostModel = CostModel {
        record_milli: 1000,
        byte_milli: 30,
    };
    /// Control-plane record logging (RCSE low-fidelity records).
    pub const CONTROL: CostModel = CostModel {
        record_milli: 500,
        byte_milli: 30,
    };
    /// CREW ownership-transfer penalty (page-protection fault + shootdown),
    /// charged by perfect determinism per cross-task shared access.
    pub const CREW_TRANSFER: u64 = 40;
    /// Message-receive-order logging (Aumayr et al.): one packed append per
    /// pinned operation — schedule-log territory, far below value logging.
    pub const MSG_ORDER: CostModel = CostModel {
        record_milli: 400,
        byte_milli: 0,
    };
    /// Race-complete order/outcome logging (Guo et al.): per pinned append,
    /// plus the per-access vector-clock cost below.
    pub const RACE_COMPLETE: CostModel = CostModel {
        record_milli: 500,
        byte_milli: 30,
    };
    /// Wall ticks the online race pass charges per shared access (vector
    /// clock compare-and-join).
    pub const RACE_DETECT_ACCESS: u64 = 2;
    /// Accounted bytes of one run-length-encoded order-log record.
    pub const ORDER_ENTRY_BYTES: u64 = 2;
    /// Accounted bytes of one race report (packed var + two site ids).
    pub const RACE_REPORT_BYTES: u64 = 12;
    /// Accounted bytes of one racing-access outcome record.
    pub const RACE_OUTCOME_BYTES: u64 = 2;
}

/// Which determinism model produced a recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Full multiprocessor determinism (SMP-ReVirt-style CREW).
    Perfect,
    /// Same values read/written at same per-task points (iDNA).
    Value,
    /// Same outputs, nothing else recorded (ODR lightweight scheme).
    OutputLite,
    /// Same outputs with inputs recorded (ODR heavier scheme).
    OutputHeavy,
    /// Same failure only (ESD).
    Failure,
    /// Same failure and same root cause (this paper).
    Debug,
    /// Pinned-operation (message-receive) order logging (Aumayr et al.).
    MsgOrder,
    /// Race report + racing outcomes, rest reconstructed (Guo et al.).
    RaceComplete,
}

impl core::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            ModelKind::Perfect => "perfect",
            ModelKind::Value => "value",
            ModelKind::OutputLite => "output-lite",
            ModelKind::OutputHeavy => "output-heavy",
            ModelKind::Failure => "failure",
            ModelKind::Debug => "debug (RCSE)",
            ModelKind::MsgOrder => "msg-order",
            ModelKind::RaceComplete => "race-complete",
        };
        f.write_str(s)
    }
}

/// A `--model` string naming no known [`ModelKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownModelKind(pub String);

impl core::fmt::Display for UnknownModelKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "unknown model kind {:?} (expected one of: perfect, value, output-lite, \
             output-heavy, failure, debug, msg-order, race-complete)",
            self.0
        )
    }
}

impl std::error::Error for UnknownModelKind {}

impl core::str::FromStr for ModelKind {
    type Err = UnknownModelKind;

    /// Parses every [`Display`](core::fmt::Display) rendering back to its
    /// kind (so display/parse round-trips), plus the bare `"debug"` the CLI
    /// uses for the RCSE model.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "perfect" => ModelKind::Perfect,
            "value" => ModelKind::Value,
            "output-lite" => ModelKind::OutputLite,
            "output-heavy" => ModelKind::OutputHeavy,
            "failure" => ModelKind::Failure,
            "debug" | "debug (RCSE)" | "rcse" => ModelKind::Debug,
            "msg-order" => ModelKind::MsgOrder,
            "race-complete" => ModelKind::RaceComplete,
            other => return Err(UnknownModelKind(other.to_owned())),
        })
    }
}

/// What a determinism model persisted at runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Artifact {
    /// Perfect determinism: everything needed for exact re-execution.
    Perfect {
        /// The interleaving.
        schedule: ScheduleLog,
        /// All external inputs.
        inputs: InputLog,
        /// The production environment configuration.
        env: EnvConfig,
        /// The kernel RNG seed.
        seed: u64,
    },
    /// Value determinism: per-task value observations.
    Value {
        /// The per-task value logs.
        values: ValueLog,
    },
    /// Output determinism, lightweight scheme: outputs only.
    OutputLite {
        /// The observable output.
        outputs: OutputLog,
    },
    /// Output determinism, heavier scheme: outputs plus inputs.
    OutputHeavy {
        /// The observable output.
        outputs: OutputLog,
        /// All external inputs.
        inputs: InputLog,
    },
    /// Failure determinism: the failure evidence only.
    Failure {
        /// The failure snapshot (bug-report / core-dump equivalent).
        snapshot: FailureSnapshot,
    },
    /// Debug determinism (RCSE): selectively recorded events plus schedule.
    Debug {
        /// The interleaving.
        schedule: ScheduleLog,
        /// Control-plane (and dialed-up) event log.
        control: dd_trace::EventLog,
        /// Inputs on control-plane ports.
        inputs: InputLog,
        /// The production environment configuration.
        env: EnvConfig,
        /// The kernel RNG seed (control-plane configuration).
        seed: u64,
    },
    /// Message-order determinism: the total grant order plus inputs — no
    /// per-decision candidate sets, no value payloads.
    MsgOrder {
        /// Grant-order log (run-length encoded over task runs).
        order: crate::guided::OrderLog,
        /// All external inputs.
        inputs: InputLog,
        /// The production environment configuration.
        env: EnvConfig,
        /// The kernel RNG seed.
        seed: u64,
    },
    /// Race-complete determinism: the dd-detect race report, the outcomes
    /// of racing accesses, and the order of the (much smaller) pinned set —
    /// non-racing order is reconstructed, not recorded.
    RaceComplete {
        /// Data races the online vector-clock pass flagged.
        races: Vec<dd_detect::RaceReport>,
        /// Ordered outcomes of every access to a racing variable.
        outcomes: Vec<crate::guided::RaceOutcome>,
        /// Order log over the racing pin set (non-racing vars released).
        order: crate::guided::OrderLog,
        /// Digest of the pinned completion order (DPOR fallback constraint).
        order_digest: u64,
        /// All external inputs.
        inputs: InputLog,
        /// The production environment configuration.
        env: EnvConfig,
        /// The kernel RNG seed.
        seed: u64,
    },
}

/// Ground truth about the original run, used only for *evaluating* replay
/// fidelity (never handed to replayer logic).
#[derive(Debug, Clone)]
pub struct OriginalRun {
    /// Observable behaviour.
    pub io: IoSummary,
    /// Full analysis trace.
    pub trace: Trace,
    /// Name tables.
    pub registry: dd_sim::Registry,
    /// Stop reason.
    pub stop: StopReason,
    /// The failure the I/O spec assigned, if any.
    pub failure: Option<FailureSnapshot>,
    /// Execution-clock duration.
    pub duration: u64,
}

impl OriginalRun {
    /// The ground truth of a finished run `out` of `scenario`, which it
    /// consumes: the event log, name tables and I/O move in. The log's
    /// sealed chunks move as they are, still shared with any snapshot of
    /// the run.
    pub fn from_run(scenario: &Scenario, out: RunOutput) -> Self {
        OriginalRun {
            failure: (scenario.failure_of)(&out.io),
            duration: out.stats.exec_ticks,
            trace: out.trace,
            io: out.io,
            registry: out.registry,
            stop: out.stop,
        }
    }
}

/// The product of recording one production run under some model.
#[derive(Debug, Clone)]
pub struct Recording {
    /// Which model recorded.
    pub model: ModelKind,
    /// The persisted artifact.
    pub artifact: Artifact,
    /// Recording overhead factor (wall / exec).
    pub overhead_factor: f64,
    /// Log volume.
    pub log: LogStats,
    /// Ground truth for evaluation.
    pub original: OriginalRun,
}

/// Models the CREW (concurrent-read exclusive-write) protocol SMP-ReVirt
/// uses for perfect multiprocessor determinism: every time a shared
/// variable's accessor set changes owner, a page-protection fault and
/// ownership transfer is charged.
pub struct CrewObserver {
    /// Ticks charged per ownership transfer.
    pub transfer_cost: u64,
    owner: HashMap<u32, dd_sim::TaskId>,
    chan_owner: HashMap<u32, dd_sim::TaskId>,
    /// Number of transfers charged.
    pub transfers: u64,
}

impl CrewObserver {
    /// Creates a CREW cost observer with the default transfer cost.
    pub fn new() -> Self {
        Self::with_cost(costs::CREW_TRANSFER)
    }

    /// Creates a CREW cost observer with an explicit transfer cost.
    pub fn with_cost(transfer_cost: u64) -> Self {
        CrewObserver {
            transfer_cost,
            owner: HashMap::new(),
            chan_owner: HashMap::new(),
            transfers: 0,
        }
    }
}

impl Default for CrewObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl Observer for CrewObserver {
    fn on_event(&mut self, _meta: &EventMeta, event: &Event) -> u64 {
        // Channel buffers are shared pages too: cross-task sends/receives
        // fault exactly like cross-task variable accesses.
        let (task, slot) = match event {
            Event::Read { task, var, .. } | Event::Write { task, var, .. } => {
                (*task, self.owner.insert(var.0, *task))
            }
            Event::Send { task, chan, .. }
            | Event::Recv { task, chan, .. }
            | Event::SendDropped { task, chan, .. } => {
                (*task, self.chan_owner.insert(chan.0, *task))
            }
            _ => return 0,
        };
        match slot {
            Some(prev) if prev != task => {
                self.transfers += 1;
                self.transfer_cost
            }
            // Same owner, or first access: no fault.
            _ => 0,
        }
    }

    observer_boilerplate!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::{TaskId, Value, VarId};

    #[test]
    fn crew_charges_only_on_ownership_transfer() {
        let mut crew = CrewObserver::with_cost(10);
        let meta = EventMeta { step: 0, time: 0 };
        let read = |t: u32, v: u32| Event::Read {
            task: TaskId(t),
            var: VarId(v),
            value: Value::Int(0),
            site: "s".into(),
        };
        assert_eq!(crew.on_event(&meta, &read(0, 0)), 0, "first access is free");
        assert_eq!(crew.on_event(&meta, &read(0, 0)), 0, "same owner is free");
        assert_eq!(crew.on_event(&meta, &read(1, 0)), 10, "transfer faults");
        assert_eq!(crew.on_event(&meta, &read(1, 0)), 0);
        assert_eq!(
            crew.on_event(&meta, &read(0, 1)),
            0,
            "per-variable ownership"
        );
        assert_eq!(crew.transfers, 1);
    }

    #[test]
    fn model_kind_display() {
        assert_eq!(ModelKind::Perfect.to_string(), "perfect");
        assert_eq!(ModelKind::Debug.to_string(), "debug (RCSE)");
    }

    #[test]
    fn artifact_serde_round_trip() {
        let a = Artifact::OutputLite {
            outputs: OutputLog::default(),
        };
        let s = serde_json::to_string(&a).unwrap();
        assert_eq!(serde_json::from_str::<Artifact>(&s).unwrap(), a);
    }
}
