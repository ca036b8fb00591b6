#![allow(dead_code)] // Each test binary uses a different fixture subset.

//! Shared fixtures for the workspace-level conformance suite: the paper's
//! four workloads, the full determinism-model suite, and the seed grid the
//! cross-model invariants are checked over.

use debug_determinism::core::{
    DebugModel, DeterminismModel, FailureModel, MsgOrderModel, OutputHeavyModel, OutputLiteModel,
    PerfectModel, RaceCompleteModel, RcseConfig, RunSetup, ValueModel, Workload,
};
use debug_determinism::hyperstore::{HyperConfig, HyperstoreWorkload};
use debug_determinism::replay::Scenario;
use debug_determinism::sim::IoSummary;
use debug_determinism::workloads::{
    BufOverflowWorkload, MsgServerConfig, MsgServerWorkload, SumWorkload,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The default seed grid: every conformance invariant is checked on the
/// workload's pinned failing production run *and* these schedule-seed
/// variants (some of which pass — the invariants must hold either way).
pub const SEED_GRID: &[u64] = &[0, 1, 2];

/// Builds all four paper workloads. The racy ones are pinned to a
/// discovered failing production seed, exactly as the figures do.
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(SumWorkload),
        Box::new(msgserver()),
        Box::new(BufOverflowWorkload),
        Box::new(
            HyperstoreWorkload::discover(HyperConfig::small(), 200)
                .expect("hyperstore failing seed"),
        ),
    ]
}

/// The msgserver workload alone (the DPOR acceptance target).
pub fn msgserver() -> MsgServerWorkload {
    MsgServerWorkload::discover(MsgServerConfig::default(), 64).expect("msgserver failing seed")
}

/// The production scenario plus one variant per grid seed (same program,
/// inputs and environment; different kernel/schedule seeds).
pub fn scenario_grid(workload: &dyn Workload, seeds: &[u64]) -> Vec<Scenario> {
    let base = workload.production();
    let mut grid = vec![workload.scenario()];
    for &seed in seeds {
        grid.push(workload.scenario_for(&RunSetup {
            seed,
            sched_seed: seed.wrapping_mul(31).wrapping_add(7),
            ..base.clone()
        }));
    }
    grid
}

/// Every determinism model, strongest to weakest, ending with the RCSE
/// debug-determinism model trained on the workload's passing runs.
pub fn model_suite(workload: &dyn Workload) -> Vec<Box<dyn DeterminismModel>> {
    let scenario = workload.scenario();
    let seeds: Vec<(u64, u64)> = workload
        .training()
        .iter()
        .map(|s| (s.seed, s.sched_seed))
        .collect();
    let debug = DebugModel::prepare(
        &scenario,
        &seeds,
        RcseConfig {
            use_triggers: false,
            ..RcseConfig::default()
        },
    );
    vec![
        Box::new(PerfectModel),
        Box::new(MsgOrderModel),
        Box::new(ValueModel),
        Box::new(RaceCompleteModel),
        Box::new(OutputHeavyModel),
        Box::new(OutputLiteModel),
        Box::new(FailureModel),
        Box::new(debug),
    ]
}

/// FNV-1a over a serialized artifact: any divergence anywhere in the input
/// changes the hash. The single definition every workspace-level suite
/// (golden table, conformance, checkpoint determinism) compares against.
pub fn fnv(json: &str) -> u64 {
    fnv_bytes(json.bytes())
}

/// FNV-1a over a byte stream.
pub fn fnv_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a hash of a run's trace, rendered in the form the golden hashes
/// pin: `{"events":[{"meta":…,"event":…},…]}`.
pub fn trace_hash(out: &debug_determinism::sim::RunOutput) -> u64 {
    let json = |v: &dyn serde::Serialize| serde_json::to_string(v).expect("trace serializes");
    let events: Vec<String> = out
        .trace
        .iter()
        .map(|(meta, event)| format!("{{\"meta\":{},\"event\":{}}}", json(meta), json(event)))
        .collect();
    fnv(&format!("{{\"events\":[{}]}}", events.join(",")))
}

/// Schedule-order-insensitive view of a run's observable output: per-port
/// value multisets (as canonical JSON) plus final counters. Value
/// determinism guarantees what each task observed and emitted, not the
/// cross-task emission order, so this is the right equality for the
/// "value ⊨ output" lattice edge.
pub fn output_multisets(io: &IoSummary) -> (BTreeMap<String, Vec<String>>, BTreeMap<String, i64>) {
    let mut ports: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for o in &io.outputs {
        ports
            .entry(o.port_name.clone())
            .or_default()
            .push(serde_json::to_string(&o.value).expect("value serializes"));
    }
    for vals in ports.values_mut() {
        vals.sort();
    }
    (ports, io.counters.clone())
}

/// One test's scratch directory under the system temp dir,
/// `dd-<suite>-<pid>-<test>`: created empty, and removed with everything
/// in it when the guard drops. A panicking test drops it too, so failing
/// tests clean up as well.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(suite: &str, test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dd-{suite}-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    /// The path of `name` inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
