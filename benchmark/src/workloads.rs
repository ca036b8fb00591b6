//! The four workloads: their set-up, one closed-loop cycle each, and the
//! correctness checks every cycle runs.
//!
//! Each workload times three kinds of operation ([`Op`]): the bare
//! `Scenario::execute` of a run setup (the uninstrumented baseline), the
//! operation that records a debugging artifact, and the one that replays
//! it. Untraced cycles call the same public functions the `dd` verbs call.
//! Traced cycles make the same calls one layer down, so that each layer
//! gets its own span; where that splits a facade function (`Session::record`,
//! `Session::replay`, `JsonlTrace::save`/`load`), the traced branch makes
//! exactly the calls the facade makes.

use crate::meter::{Meter, Op};
use dd_core::driver::Session;
use dd_core::workload::{RunSetup, Workload};
use dd_core::RcseConfig;
use dd_replay::{
    compare_streams, enumerate_failures, DeterminismModel, FailureModel, InferenceBudget,
    InferenceStats, ModelKind, PolicyChoice, RunSpec, Scenario, SearchStrategy,
    RECORDING_CHECKPOINTS,
};
use dd_sim::{CheckpointPlan, RandomPolicy};
use dd_trace::{JsonlTrace, RetentionPolicy, SnapshotStore, TraceHeader};
use serde::Content;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "record-replay",
    "spill-restore",
    "explore-dpor",
    "fidelity-models",
];

/// The incidents the workloads draw from: metric key and `dd` workload name.
/// `sum` and `bufoverflow` make no multi-candidate scheduling decisions, so
/// they would only add noise.
pub const INCIDENTS: [(&str, &str); 3] = [
    ("msgserver", "msgserver-drops"),
    ("hyperstore", "hyperstore-issue63"),
    ("failover", "hyperstore-failover"),
];

/// Run setups per incident: the production incident plus seeded variants.
pub const VARIANTS: usize = 8;

/// The four DPOR walks of `explore-dpor`: name, incident index, branching
/// depth, execution budget and checkpoint interval. msgserver's shallow walk
/// ends on its own (209 runs, 74 pruned); its deep one restores snapshots
/// at every decision; the hyperstore walks stop at their budget.
pub const WALKS: [(&str, usize, u32, u64, u64); 4] = [
    ("msgserver-d4", 0, 4, 1000, 0),
    ("msgserver-d256", 0, 256, 150, 1),
    ("hyperstore-d4", 1, 4, 250, 0),
    ("failover-d4", 2, 4, 250, 0),
];

/// The eight determinism models, by metric slug.
pub const MODELS: [(&str, ModelKind); 8] = [
    ("perfect", ModelKind::Perfect),
    ("value", ModelKind::Value),
    ("output-lite", ModelKind::OutputLite),
    ("output-heavy", ModelKind::OutputHeavy),
    ("failure", ModelKind::Failure),
    ("debug", ModelKind::Debug),
    ("msg-order", ModelKind::MsgOrder),
    ("race-complete", ModelKind::RaceComplete),
];

/// Incidents `fidelity-models` records (their production setups only).
const FIDELITY_INCIDENTS: usize = 2;

/// What replaying each model's recording of a production incident must
/// report: (incident, model, artifact satisfied, failure reproduced). Value
/// determinism feeds every read back but its replay schedule is arbitrary,
/// so its artifact is not satisfied; every model reproduces the failure.
const EXPECTED_VERDICTS: [(&str, &str, bool, bool); 16] = [
    ("msgserver", "perfect", true, true),
    ("msgserver", "value", false, true),
    ("msgserver", "output-lite", true, true),
    ("msgserver", "output-heavy", true, true),
    ("msgserver", "failure", true, true),
    ("msgserver", "debug", true, true),
    ("msgserver", "msg-order", true, true),
    ("msgserver", "race-complete", true, true),
    ("hyperstore", "perfect", true, true),
    ("hyperstore", "value", false, true),
    ("hyperstore", "output-lite", true, true),
    ("hyperstore", "output-heavy", true, true),
    ("hyperstore", "failure", true, true),
    ("hyperstore", "debug", true, true),
    ("hyperstore", "msg-order", true, true),
    ("hyperstore", "race-complete", true, true),
];

/// SplitMix64 (Steele, Lea and Flood): the stream the run setups are drawn
/// from, so one `--seed` always yields the same inputs.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One incident with its run setups: the discovered production setup, then
/// seeded `(seed, sched_seed)` variants with the production inputs,
/// environment and step bound.
pub struct Incident {
    pub key: &'static str,
    pub workload: Arc<dyn Workload>,
    pub variants: Vec<RunSetup>,
}

/// Wall timings of one set-up: the whole of it, and the layer calls inside,
/// with the factor that turns them into reference time (see `calib.rs`).
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub discover_ms: f64,
    pub train_ms: f64,
    pub scale: f64,
}

/// Discovers the incidents through the CLI's workload registry and draws
/// each one's variants from `seed`.
pub fn incidents(seed: u64, times: &mut SetupTimes) -> Result<Vec<Incident>, String> {
    let start = Instant::now();
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    for (key, name) in INCIDENTS {
        let workload = dd_cli::workload_by_name(name)
            .ok_or_else(|| format!("workload `{name}` is not registered"))?;
        let base = workload.production();
        let mut variants = vec![base.clone()];
        for _ in 1..VARIANTS {
            variants.push(RunSetup {
                seed: rng.next_u64(),
                sched_seed: rng.next_u64(),
                ..base.clone()
            });
        }
        out.push(Incident {
            key,
            workload,
            variants,
        });
    }
    times.discover_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok(out)
}

/// A workload ready to run cycles.
pub trait Bench {
    /// Runs cycle `i`: a fixed sequence of operations, with variants picked
    /// in rotation by `i`.
    fn cycle(&mut self, i: u64, m: &mut Meter);

    /// Cycles until every (incident, variant) the workload uses has run.
    fn rotation(&self) -> u64;
}

/// Builds workload `name`: discovery, sessions, models and the references
/// its checks compare against. Scratch files go under `work`.
pub fn setup(
    name: &str,
    seed: u64,
    work: &Path,
    times: &mut SetupTimes,
) -> Result<Box<dyn Bench>, String> {
    let incidents = incidents(seed, times)?;
    Ok(match name {
        "record-replay" => Box::new(RecordReplay::new(incidents, work)),
        "spill-restore" => Box::new(SpillRestore::new(incidents, work)?),
        "explore-dpor" => Box::new(ExploreDpor::new(incidents)),
        "fidelity-models" => Box::new(FidelityModels::new(incidents, times)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

fn variant_of(i: u64) -> usize {
    (i % VARIANTS as u64) as usize
}

fn bare_run(m: &mut Meter, key: &str, scenario: &Scenario) {
    let out = m.op(Op::Bare, |m| {
        m.span(&format!("sim.execute.{key}"), |_| {
            scenario.execute(&scenario.original_spec(), vec![])
        })
    });
    m.sample(&format!("sim.decisions.{key}"), out.decisions.len() as f64);
    m.sample(&format!("sim.steps.{key}"), out.stats.steps as f64);
}

fn u(v: u64) -> Content {
    Content::U64(v)
}

// ---------------------------------------------------------------------------
// record-replay: `dd record` + `dd replay` of every incident variant
// ---------------------------------------------------------------------------

struct Case {
    key: &'static str,
    session: Session,
    scenario: Scenario,
    path: PathBuf,
}

struct RecordReplay {
    cases: Vec<Vec<Case>>,
}

impl RecordReplay {
    fn new(incidents: Vec<Incident>, work: &Path) -> Self {
        let cases = incidents
            .into_iter()
            .map(|inc| {
                inc.variants
                    .into_iter()
                    .map(|setup| {
                        let session = Session::new(inc.workload.clone()).with_production(setup);
                        Case {
                            key: inc.key,
                            scenario: session.scenario(),
                            session,
                            path: work.join(format!("{}.trace.jsonl", inc.key)),
                        }
                    })
                    .collect()
            })
            .collect();
        RecordReplay { cases }
    }
}

/// `Session::record` + `JsonlTrace::save`.
fn record_trace(c: &Case, m: &mut Meter) -> Result<JsonlTrace, String> {
    if !m.traced() {
        let trace = c.session.record().map_err(|e| e.to_string())?;
        trace.save(&c.path).map_err(|e| e.to_string())?;
        return Ok(trace);
    }
    let p = c.session.production();
    let scenario = c.session.workload().scenario_for(&p);
    let out = m.span(&format!("sim.execute_recorded.{}", c.key), |_| {
        scenario.execute_recorded(&scenario.original_spec(), RECORDING_CHECKPOINTS, vec![])
    });
    let header = TraceHeader::new(
        c.session.workload().name(),
        p.seed,
        p.sched_seed,
        p.max_steps,
        p.inputs,
        p.env,
    );
    let trace = m
        .span("trace.seal", |_| JsonlTrace::from_run(header, &out))
        .map_err(|e| e.to_string())?;
    let text = m.span("trace.render", |_| trace.render());
    m.span("trace.write", |_| std::fs::write(&c.path, &text))
        .map_err(|e| format!("write {}: {e}", c.path.display()))?;
    m.sample("trace.bytes", text.len() as f64);
    m.sample("trace.decisions", trace.footer.decisions as f64);
    Ok(trace)
}

/// `JsonlTrace::load` + `Session::replay`; returns the loaded trace, whether
/// the replay was identical, and the decisions it replayed.
fn replay_trace(c: &Case, m: &mut Meter) -> Result<(JsonlTrace, bool, u64), String> {
    if !m.traced() {
        let trace = JsonlTrace::load(&c.path).map_err(|e| e.to_string())?;
        let report = c.session.replay(&trace);
        return Ok((trace, report.identical(), report.replayed_decisions));
    }
    let text = m
        .span("trace.read", |_| std::fs::read_to_string(&c.path))
        .map_err(|e| format!("read {}: {e}", c.path.display()))?;
    let trace = m
        .span("trace.parse", |_| JsonlTrace::parse(&text))
        .map_err(|e| e.to_string())?;
    let scenario = c.session.scenario_for_trace(&trace.header);
    let spec = RunSpec {
        policy: PolicyChoice::Replay(trace.schedule_log()),
        ..scenario.original_spec()
    };
    let out = m.span(&format!("sim.execute_hashed.{}", c.key), |_| {
        scenario.execute_hashed(&spec, vec![])
    });
    let (divergence, _) = m.span("replay.compare", |_| {
        compare_streams(
            &trace.hashes(),
            trace.footer.final_hash,
            &out.decision_hashes.iter().copied().collect::<Vec<u64>>(),
            out.final_state_hash,
            &out.stop,
        )
    });
    Ok((trace, divergence.is_none(), out.decisions.len() as u64))
}

impl Bench for RecordReplay {
    fn cycle(&mut self, i: u64, m: &mut Meter) {
        let v = variant_of(i);
        for c in self.cases.iter().map(|inc| &inc[v]) {
            bare_run(m, c.key, &c.scenario);
            let recorded = match m.op(Op::Record, |m| record_trace(c, m)) {
                Ok(t) => t,
                Err(e) => {
                    m.fail(format!("record {}/v{v}: {e}", c.key));
                    continue;
                }
            };
            match m.op(Op::Replay, |m| replay_trace(c, m)) {
                Ok((loaded, identical, replayed)) => {
                    let decisions = recorded.footer.decisions;
                    m.expect(
                        identical && replayed == decisions && loaded == recorded,
                        || {
                            format!(
                                "replay {}/v{v}: identical {identical}, replayed {replayed} \
                                 of {decisions} decisions, reloaded trace equal {}",
                                c.key,
                                loaded == recorded
                            )
                        },
                    );
                    m.record_counters(format!("{}/v{v}", c.key), || {
                        let text = loaded.render();
                        vec![
                            ("decisions", u(decisions)),
                            ("log_bytes", u(text.len() as u64)),
                            (
                                "trace_hash",
                                Content::Str(format!("{:016x}", dd_cli::fnv64(text.as_bytes()))),
                            ),
                        ]
                    });
                }
                Err(e) => m.fail(format!("replay {}/v{v}: {e}", c.key)),
            }
        }
    }

    fn rotation(&self) -> u64 {
        VARIANTS as u64
    }
}

// ---------------------------------------------------------------------------
// spill-restore: `dd record --spill` + `dd replay --from decisions/2`
// ---------------------------------------------------------------------------

/// `dd record --spill` defaults: snapshot every 8th decision into a store
/// that keeps every decision within 64 of a restore point and holds 8
/// snapshots when that bound allows.
const SPILL_EVERY: u64 = 8;
const SPILL_BOUND: u64 = 64;
const SPILL_KEEP: u64 = 8;

struct SpillCase {
    key: &'static str,
    session: Session,
    scenario: Scenario,
    dir: PathBuf,
    /// The unspilled recording's digest stream and final digest.
    reference: (Vec<u64>, u64),
}

struct SpillRestore {
    cases: Vec<Vec<SpillCase>>,
}

impl SpillRestore {
    fn new(incidents: Vec<Incident>, work: &Path) -> Result<Self, String> {
        let mut cases = Vec::new();
        for inc in incidents {
            let mut row = Vec::new();
            for setup in inc.variants {
                let plain = Session::new(inc.workload.clone()).with_production(setup);
                let reference = plain.record().map_err(|e| e.to_string())?;
                let session =
                    plain.with_checkpoint_plan(CheckpointPlan::new(SPILL_EVERY, u64::MAX));
                row.push(SpillCase {
                    key: inc.key,
                    scenario: session.scenario(),
                    session,
                    dir: work.join(format!("{}.trace.jsonl.snapshots", inc.key)),
                    reference: (reference.hashes(), reference.footer.final_hash),
                });
            }
            cases.push(row);
        }
        Ok(SpillRestore { cases })
    }
}

/// A fresh store plus `Session::record_spilled`, as `dd record --spill`.
fn record_spilled(c: &SpillCase, m: &mut Meter) -> Result<(JsonlTrace, Vec<String>), String> {
    if c.dir.exists() {
        std::fs::remove_dir_all(&c.dir).map_err(|e| format!("{}: {e}", c.dir.display()))?;
    }
    let store = SnapshotStore::create(&c.dir, RetentionPolicy::new(SPILL_BOUND, SPILL_KEEP))
        .map_err(|e| e.to_string())?;
    let (sink, offers) = m.wrap_sink(Box::new(store));
    m.span("core.record_spilled", |m| {
        let r = c.session.record_spilled(sink);
        if let Some(o) = offers {
            m.absorb_offers(o);
        }
        r
    })
    .map_err(|e| e.to_string())
}

/// `SnapshotStore::open` + `nearest_at_or_before(decisions/2)` + `load` +
/// `Session::replay_from`, as `dd replay --from`. Returns whether the
/// replay was identical, the restored decision and the store's worst
/// restore distance.
fn restore(c: &SpillCase, trace: &JsonlTrace, m: &mut Meter) -> Result<(bool, u64, u64), String> {
    let decisions = trace.footer.decisions;
    let store = m
        .span("store.open", |_| SnapshotStore::open(&c.dir))
        .map_err(|e| e.to_string())?;
    let entry = store
        .nearest_at_or_before(decisions / 2)
        .cloned()
        .ok_or_else(|| format!("no stored snapshot at or before decision {}", decisions / 2))?;
    let snap = m
        .span("store.load", |_| {
            store.load(entry.id, Box::new(RandomPolicy::new(0)))
        })
        .map_err(|e| e.to_string())?;
    let report = m.span("store.resume", |_| c.session.replay_from(trace, &snap));
    Ok((report.identical(), entry.decision, store.max_gap(decisions)))
}

impl Bench for SpillRestore {
    fn cycle(&mut self, i: u64, m: &mut Meter) {
        let v = variant_of(i);
        for c in self.cases.iter().map(|inc| &inc[v]) {
            bare_run(m, c.key, &c.scenario);
            let (trace, spill_errors) = match m.op(Op::Record, |m| record_spilled(c, m)) {
                Ok(r) => r,
                Err(e) => {
                    m.fail(format!("spill {}/v{v}: {e}", c.key));
                    continue;
                }
            };
            let same_digests =
                trace.hashes() == c.reference.0 && trace.footer.final_hash == c.reference.1;
            m.expect(spill_errors.is_empty() && same_digests, || {
                format!(
                    "spill {}/v{v}: spill errors {spill_errors:?}, digests equal the unspilled \
                     recording's: {same_digests}",
                    c.key
                )
            });
            match m.op(Op::Replay, |m| restore(c, &trace, m)) {
                Ok((identical, skipped, max_gap)) => {
                    m.expect(identical && max_gap <= SPILL_BOUND, || {
                        format!(
                            "restore {}/v{v}: identical {identical}, worst restore distance \
                             {max_gap} (bound {SPILL_BOUND})",
                            c.key
                        )
                    });
                    m.sample("store.skipped_decisions", skipped as f64);
                    m.sample("store.max_gap", max_gap as f64);
                    let disk = (m.traced() || m.counters.is_some())
                        .then(|| SnapshotStore::open(&c.dir).map_or(0, |s| s.disk_bytes()));
                    m.sample("store.disk_bytes", disk.unwrap_or(0) as f64);
                    m.record_counters(format!("{}/v{v}", c.key), || {
                        vec![
                            ("decisions", u(trace.footer.decisions)),
                            ("store_bytes", u(disk.unwrap_or(0))),
                            ("restored_at", u(skipped)),
                            ("max_gap", u(max_gap)),
                        ]
                    });
                }
                Err(e) => m.fail(format!("restore {}/v{v}: {e}", c.key)),
            }
        }
    }

    fn rotation(&self) -> u64 {
        VARIANTS as u64
    }
}

// ---------------------------------------------------------------------------
// explore-dpor: failure capture + DPOR walks (failure determinism's pipeline)
// ---------------------------------------------------------------------------

struct ExploreDpor {
    incidents: Vec<Incident>,
    /// `[incident][variant]` scenarios.
    scenarios: Vec<Vec<Scenario>>,
    /// The first result of each (walk, variant), which every repeat must match.
    seen: BTreeMap<(usize, usize), (BTreeSet<String>, InferenceStats)>,
}

impl ExploreDpor {
    fn new(incidents: Vec<Incident>) -> Self {
        let scenarios = incidents
            .iter()
            .map(|inc| {
                inc.variants
                    .iter()
                    .map(|s| inc.workload.scenario_for(s))
                    .collect()
            })
            .collect();
        ExploreDpor {
            incidents,
            scenarios,
            seen: BTreeMap::new(),
        }
    }
}

impl Bench for ExploreDpor {
    fn cycle(&mut self, i: u64, m: &mut Meter) {
        let v = variant_of(i);
        for (n, inc) in self.incidents.iter().enumerate() {
            // msgserver's walks stay on its production incident; the
            // hyperstore walks rotate through the seed's variants.
            let variant = if inc.key == "msgserver" { 0 } else { v };
            let scenario = &self.scenarios[n][variant];
            bare_run(m, inc.key, scenario);
            // The failure report is all failure determinism records.
            let recorded = m.op(Op::Record, |m| {
                m.span("models.record.failure", |_| {
                    let rec = FailureModel.record(scenario);
                    serde_json::to_string(&rec.artifact).map(|s| (s.len(), rec.overhead_factor))
                })
            });
            match recorded {
                Ok((bytes, overhead)) => {
                    m.sample("models.artifact_bytes.failure", bytes as f64);
                    m.sample("models.modeled_overhead.failure", overhead);
                }
                Err(e) => m.fail(format!("failure record {}/v{variant}: {e}", inc.key)),
            }
            for (w, &(name, _, depth, budget, checkpoints)) in
                WALKS.iter().enumerate().filter(|(_, w)| w.1 == n)
            {
                let budget = InferenceBudget::dpor(budget, depth).with_checkpoints(checkpoints);
                let (failures, stats) = m.op(Op::Replay, |m| {
                    m.span(&format!("explore.walk.{name}"), |_| {
                        enumerate_failures(
                            scenario,
                            &budget,
                            SearchStrategy::Dpor { max_depth: depth },
                        )
                    })
                });
                m.sample(
                    &format!("explore.interleavings.{name}"),
                    stats.explored as f64,
                );
                m.sample(&format!("explore.pruned.{name}"), stats.pruned as f64);
                m.sample(
                    &format!("explore.steps_executed.{name}"),
                    stats.steps_executed as f64,
                );
                m.sample(
                    &format!("explore.steps_skipped.{name}"),
                    stats.steps_skipped as f64,
                );
                m.record_counters(format!("{name}/v{variant}"), || {
                    vec![
                        ("interleavings", u(stats.explored)),
                        ("pruned", u(stats.pruned)),
                        ("steps_executed", u(stats.steps_executed)),
                        ("steps_skipped", u(stats.steps_skipped)),
                        (
                            "failures",
                            Content::Seq(
                                failures.iter().map(|f| Content::Str(f.clone())).collect(),
                            ),
                        ),
                    ]
                });
                let first = self
                    .seen
                    .entry((w, variant))
                    .or_insert_with(|| (failures.clone(), stats));
                let repeat_ok = *first == (failures, stats);
                m.expect(repeat_ok, || {
                    format!("walk {name}/v{variant}: a repeat walk returned another failure set or statistics")
                });
            }
        }
    }

    fn rotation(&self) -> u64 {
        VARIANTS as u64
    }
}

// ---------------------------------------------------------------------------
// fidelity-models: record + replay under all eight determinism models
// ---------------------------------------------------------------------------

struct ModelCase {
    key: &'static str,
    scenario: Scenario,
    budget: InferenceBudget,
    models: Vec<(&'static str, Box<dyn DeterminismModel>)>,
}

struct FidelityModels {
    cases: Vec<ModelCase>,
}

impl FidelityModels {
    /// Models are built once, as ABL-10 builds them: 64 inference
    /// executions, RCSE without potential-bug triggers.
    fn new(incidents: Vec<Incident>, times: &mut SetupTimes) -> Self {
        let mut train_ms = 0.0;
        let cases = incidents
            .into_iter()
            .take(FIDELITY_INCIDENTS)
            .map(|inc| {
                let session = Session::new(inc.workload.clone())
                    .with_budget(InferenceBudget::executions(64))
                    .with_recording(RcseConfig {
                        use_triggers: false,
                        ..RcseConfig::default()
                    });
                let models = MODELS
                    .iter()
                    .map(|&(slug, kind)| {
                        let start = Instant::now();
                        let model = session.model(kind);
                        if kind == ModelKind::Debug {
                            train_ms += start.elapsed().as_secs_f64() * 1e3;
                        }
                        (slug, model)
                    })
                    .collect();
                ModelCase {
                    key: inc.key,
                    scenario: session.scenario(),
                    budget: *session.budget(),
                    models,
                }
            })
            .collect();
        times.train_ms = train_ms;
        FidelityModels { cases }
    }
}

impl Bench for FidelityModels {
    fn cycle(&mut self, _i: u64, m: &mut Meter) {
        for c in &self.cases {
            bare_run(m, c.key, &c.scenario);
            for (slug, model) in &c.models {
                let recorded = m.op(Op::Record, |m| {
                    m.span(&format!("models.record.{slug}"), |_| {
                        let rec = model.record(&c.scenario);
                        serde_json::to_string(&rec.artifact).map(|text| (rec, text.len()))
                    })
                });
                let (rec, bytes) = match recorded {
                    Ok(r) => r,
                    Err(e) => {
                        m.fail(format!("record {}/{slug}: {e}", c.key));
                        continue;
                    }
                };
                let result = m.op(Op::Replay, |m| {
                    m.span(&format!("models.replay.{slug}"), |_| {
                        model.replay(&c.scenario, &rec, &c.budget)
                    })
                });
                let got = (result.artifact_satisfied, result.reproduced_failure);
                let want = EXPECTED_VERDICTS
                    .iter()
                    .find(|e| e.0 == c.key && e.1 == *slug)
                    .map(|e| (e.2, e.3));
                m.expect(want == Some(got), || {
                    format!(
                        "replay {}/{slug}: (satisfied, reproduced) = {got:?}, expected {want:?}",
                        c.key
                    )
                });
                m.sample(&format!("models.artifact_bytes.{slug}"), bytes as f64);
                m.sample(
                    &format!("models.modeled_overhead.{slug}"),
                    rec.overhead_factor,
                );
                if *slug == "perfect" && m.traced() {
                    m.span(&format!("detect.race_analyze.{}", c.key), |_| {
                        dd_detect::HbRaceDetector::analyze(&rec.original.trace)
                    });
                }
                m.record_counters(format!("{}/{slug}", c.key), || {
                    vec![
                        ("artifact_bytes", u(bytes as u64)),
                        ("log_bytes", u(rec.log.bytes)),
                        ("inference_runs", u(result.inference.explored)),
                        ("satisfied", Content::Bool(got.0)),
                        ("reproduced", Content::Bool(got.1)),
                    ]
                });
            }
        }
    }

    fn rotation(&self) -> u64 {
        1
    }
}
