//! # dd-cli — the `dd` command-line driver
//!
//! Five verbs over [`dd_core::driver::Session`]:
//!
//! - `dd record <workload>`: run the workload's production incident with
//!   per-decision state digests and write an append-only JSONL trace.
//!   With `--model <kind>`, record under a named determinism model
//!   (perfect, value, …, msg-order, race-complete) instead and write its
//!   artifact as a JSON document. With `--spill`, checkpoints go to an
//!   on-disk [`SnapshotStore`] at
//!   `<trace>.snapshots/` instead of RAM.
//! - `dd replay <trace>`: re-execute the trace under the strict schedule
//!   policy, comparing state digests at every decision, and stop at the
//!   first divergence. With `--model`, replay a model artifact written by
//!   `dd record --model` through that model's replayer instead. With
//!   `--from N`, restore the nearest stored snapshot at or before decision
//!   `N` and fast-forward the remainder.
//! - `dd explore <trace>`: hand the recorded configuration to the
//!   systematic (DPOR / parallel) search and look for other executions of
//!   the recorded failure; `--warm` seeds the walk from the trace's
//!   snapshot store.
//! - `dd snapshots <trace>`: list the trace's on-disk snapshot store.
//! - `dd promote <trace> --emit-test`: render the trace into a committed
//!   fixture plus a Rust integration test that replays it in tier-1.
//!
//! ## Exit codes
//!
//! The contract scripts rely on (see `exit` constants):
//!
//! | code | meaning |
//! |---|---|
//! | 0 | replay identical to the recording (or verb succeeded) |
//! | 1 | replay diverged from the recorded digest stream |
//! | 2 | behavioural (invariant) drift: the specification verdict changed |
//! | 3 | usage error: unknown verb, workload or flag |
//! | 4 | I/O or parse error (bad path, truncated or garbled trace) |

use dd_core::driver::Session;
use dd_core::Workload;
use dd_hyperstore::{HyperConfig, HyperstoreFailoverWorkload, HyperstoreWorkload};
use dd_replay::{Artifact, InferenceBudget, ModelKind, SearchStrategy};
use dd_sim::{
    CheckpointPlan, CrashEvent, PartitionEvent, RandomPolicy, RestartEvent, WorldSnapshot,
};
use dd_trace::{JsonlTrace, RetentionPolicy, SnapshotStore, TraceHeader};
use dd_workloads::{BufOverflowWorkload, MsgServerConfig, MsgServerWorkload, SumWorkload};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Exit codes of the `dd` binary (stable contract).
pub mod exit {
    /// Replay identical / verb succeeded.
    pub const OK: i32 = 0;
    /// Replay diverged from the recorded digest stream.
    pub const DIVERGENCE: i32 = 1;
    /// Behavioural (invariant) drift between recording and replay.
    pub const INVARIANT: i32 = 2;
    /// Usage error (unknown verb/workload/flag).
    pub const USAGE: i32 = 3;
    /// I/O or parse error.
    pub const IO: i32 = 4;
}

/// Workload names `dd record` accepts (canonical name first, then the
/// short alias).
pub const WORKLOADS: &[(&str, &str)] = &[
    ("msgserver-drops", "msgserver"),
    ("sum-2plus2", "sum"),
    ("bufoverflow", "bufoverflow"),
    ("hyperstore-issue63", "hyperstore"),
    ("hyperstore-failover", "failover"),
];

/// Resolves a workload by canonical name or alias. Discovery-based
/// workloads (msgserver, hyperstore) scan their deterministic seed range
/// for the failing production schedule, exactly like the repro binaries.
pub fn workload_by_name(name: &str) -> Option<Arc<dyn Workload>> {
    match name {
        "msgserver" | "msgserver-drops" => Some(Arc::new(
            MsgServerWorkload::discover(MsgServerConfig::default(), 64)
                .expect("msgserver failing seed exists for the default config"),
        )),
        "sum" | "sum-2plus2" => Some(Arc::new(SumWorkload)),
        "bufoverflow" => Some(Arc::new(BufOverflowWorkload)),
        "hyperstore" | "hyperstore-issue63" => Some(Arc::new(
            HyperstoreWorkload::discover(HyperConfig::default(), 200)
                .expect("hyperstore failing seed exists for the default config"),
        )),
        "failover" | "hyperstore-failover" => Some(Arc::new(
            HyperstoreFailoverWorkload::discover(HyperConfig::default(), 200)
                .expect("failover failing seed exists under the crash schedule"),
        )),
        _ => None,
    }
}

/// FNV-1a over bytes — the workspace-standard stable digest, used to print
/// golden trace hashes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = dd_sim::StateHasher::new();
    h.bytes(bytes);
    h.finish()
}

const USAGE: &str = "\
dd — record/replay debugging over the debug-determinism simulator

USAGE:
    dd record    <workload> [--out FILE] [--seed N] [--sched-seed N]
                            [--max-steps N] [--discover N] [--model KIND]
                            [--spill] [--spill-every N] [--spill-bound D]
                            [--spill-keep N] [--crash TIME:GROUP]...
                            [--partition START:HEAL:A:B]...
                            [--restart TIME:GROUP]...
    dd replay    <trace>    [--invariant-only] [--snapshot FILE] [--model]
                            [--from DECISION]
    dd explore   <trace>    [--executions N] [--depth N] [--workers N] [--warm]
    dd snapshots <trace>
    dd promote   <trace>    --emit-test [--name NAME] [--dir DIR]

WORKLOADS:
    msgserver | sum | bufoverflow | hyperstore | failover
    (or their canonical names)

FAULT INJECTION (repeatable, appended to the production environment):
    --crash TIME:GROUP          kill every task in GROUP at virtual TIME
    --partition START:HEAL:A:B  drop messages between groups A and B in
                                [START, HEAL) — deterministic, replayable
    --restart TIME:GROUP        respawn GROUP at TIME through the
                                program's recovery entry point

MODELS (--model):
    perfect | value | output-lite | output-heavy | failure | debug |
    msg-order | race-complete

SNAPSHOT SPILLING:
    `dd record --spill` writes world checkpoints to <trace>.snapshots/
    (an on-disk SnapshotStore) instead of RAM. `dd replay --from N`
    restores the nearest stored snapshot at or before decision N and
    fast-forwards the rest; `dd snapshots` lists the store; `dd explore
    --warm` seeds the search from it.

EXIT CODES:
    0 identical   1 divergence   2 invariant drift   3 usage   4 I/O
";

/// Entry point: parses `args` (without the program name) and runs one verb.
/// Returns the process exit code; diagnostics go to stderr.
pub fn run(args: &[String]) -> i32 {
    let Some(verb) = args.first() else {
        eprint!("{USAGE}");
        return exit::USAGE;
    };
    let rest = &args[1..];
    match verb.as_str() {
        "record" => cmd_record(rest),
        "replay" => cmd_replay(rest),
        "explore" => cmd_explore(rest),
        "snapshots" => cmd_snapshots(rest),
        "promote" => cmd_promote(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            exit::OK
        }
        other => {
            eprintln!("dd: unknown command `{other}`\n");
            eprint!("{USAGE}");
            exit::USAGE
        }
    }
}

/// Minimal flag cursor: positional operands plus `--flag value` pairs.
struct Args<'a> {
    rest: &'a [String],
    i: usize,
}

impl<'a> Args<'a> {
    fn new(rest: &'a [String]) -> Self {
        Args { rest, i: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let a = self.rest.get(self.i)?;
        self.i += 1;
        Some(a.as_str())
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`"))
    }
}

/// Parses a `--crash`/`--restart` operand of the form `TIME:GROUP`.
fn parse_time_group(flag: &str, v: &str) -> Result<(u64, String), String> {
    let (t, g) = v
        .split_once(':')
        .ok_or_else(|| format!("{flag}: expected TIME:GROUP, got `{v}`"))?;
    let time = t
        .parse()
        .map_err(|_| format!("{flag}: cannot parse time `{t}`"))?;
    if g.is_empty() {
        return Err(format!("{flag}: empty group in `{v}`"));
    }
    Ok((time, g.to_owned()))
}

/// Parses a `--partition` operand of the form `START:HEAL:A:B`.
fn parse_partition(v: &str) -> Result<PartitionEvent, String> {
    let parts: Vec<&str> = v.splitn(4, ':').collect();
    let [start, heal, a, b] = parts[..] else {
        return Err(format!("--partition: expected START:HEAL:A:B, got `{v}`"));
    };
    let start: u64 = start
        .parse()
        .map_err(|_| format!("--partition: cannot parse start `{start}`"))?;
    let heal: u64 = heal
        .parse()
        .map_err(|_| format!("--partition: cannot parse heal `{heal}`"))?;
    if heal <= start {
        return Err(format!(
            "--partition: heal {heal} must be after start {start}"
        ));
    }
    if a.is_empty() || b.is_empty() {
        return Err(format!("--partition: empty group in `{v}`"));
    }
    Ok(PartitionEvent {
        start,
        heal,
        a: a.to_owned(),
        b: b.to_owned(),
    })
}

fn load_trace(path: &str) -> Result<JsonlTrace, i32> {
    JsonlTrace::load(Path::new(path)).map_err(|e| {
        eprintln!("dd: {path}: {e}");
        exit::IO
    })
}

fn session_for_trace(trace: &JsonlTrace) -> Result<Session, i32> {
    match workload_by_name(&trace.header.workload) {
        Some(w) => Ok(Session::new(w)),
        None => {
            eprintln!(
                "dd: trace was recorded from workload `{}`, which this binary does not know",
                trace.header.workload
            );
            Err(exit::USAGE)
        }
    }
}

// ---------------------------------------------------------------------------
// dd record
// ---------------------------------------------------------------------------

fn cmd_record(rest: &[String]) -> i32 {
    let mut args = Args::new(rest);
    let mut workload: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut seed: Option<u64> = None;
    let mut sched_seed: Option<u64> = None;
    let mut max_steps: Option<u64> = None;
    let mut discover: Option<u64> = None;
    let mut model: Option<ModelKind> = None;
    let mut spill = false;
    let mut spill_every: u64 = 8;
    let mut spill_bound: u64 = 64;
    let mut spill_keep: u64 = 8;
    let mut crashes: Vec<CrashEvent> = Vec::new();
    let mut partitions: Vec<PartitionEvent> = Vec::new();
    let mut restarts: Vec<RestartEvent> = Vec::new();
    let parse_model = |v: &str| -> Result<ModelKind, String> {
        v.parse()
            .map_err(|e: dd_replay::UnknownModelKind| e.to_string())
    };
    while let Some(a) = args.next() {
        let r = match a {
            "--out" => args.value("--out").map(|v| out = Some(PathBuf::from(v))),
            "--seed" => args.parse("--seed").map(|v| seed = Some(v)),
            "--sched-seed" => args.parse("--sched-seed").map(|v| sched_seed = Some(v)),
            "--max-steps" => args.parse("--max-steps").map(|v| max_steps = Some(v)),
            "--discover" => args.parse("--discover").map(|v| discover = Some(v)),
            "--model" => args
                .value("--model")
                .and_then(&parse_model)
                .map(|k| model = Some(k)),
            "--spill" => {
                spill = true;
                Ok(())
            }
            "--spill-every" => args.parse("--spill-every").map(|v| spill_every = v),
            "--spill-bound" => args.parse("--spill-bound").map(|v| spill_bound = v),
            "--spill-keep" => args.parse("--spill-keep").map(|v| spill_keep = v),
            "--crash" => args
                .value("--crash")
                .and_then(|v| parse_time_group("--crash", v))
                .map(|(time, group)| crashes.push(CrashEvent { time, group })),
            "--partition" => args
                .value("--partition")
                .and_then(parse_partition)
                .map(|p| partitions.push(p)),
            "--restart" => args
                .value("--restart")
                .and_then(|v| parse_time_group("--restart", v))
                .map(|(time, group)| restarts.push(RestartEvent { time, group })),
            kv if kv.starts_with("--model=") => {
                parse_model(&kv["--model=".len()..]).map(|k| model = Some(k))
            }
            p if !p.starts_with('-') && workload.is_none() => {
                workload = Some(p.to_owned());
                Ok(())
            }
            other => Err(format!("unexpected argument `{other}`")),
        };
        if let Err(e) = r {
            eprintln!("dd record: {e}");
            return exit::USAGE;
        }
    }
    let Some(name) = workload else {
        eprintln!("dd record: missing <workload>");
        return exit::USAGE;
    };
    let Some(w) = workload_by_name(&name) else {
        eprintln!(
            "dd record: unknown workload `{name}` (known: {})",
            WORKLOADS
                .iter()
                .map(|(_, alias)| *alias)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return exit::USAGE;
    };

    let mut session = Session::new(w);
    let inject_faults = !crashes.is_empty() || !partitions.is_empty() || !restarts.is_empty();
    if seed.is_some() || sched_seed.is_some() || max_steps.is_some() || inject_faults {
        let mut p = session.production();
        if let Some(s) = seed {
            p.seed = s;
        }
        if let Some(s) = sched_seed {
            p.sched_seed = s;
        }
        if let Some(s) = max_steps {
            p.max_steps = s;
        }
        // Injected faults stack on top of whatever schedule the workload's
        // production incident already carries; the merged environment is
        // sealed into the trace header, so replay sees the same faults.
        p.env.crashes.extend(crashes);
        p.env.partitions.extend(partitions);
        p.env.restarts.extend(restarts);
        session = session.with_production(p);
    }
    if let Some(limit) = discover {
        let (s, found) = session.discover_failing_schedule(limit);
        session = s;
        match found {
            Some(seed) => println!("discovered failing schedule seed {seed}"),
            None => {
                eprintln!("dd record: no failing schedule in 0..{limit}");
                return exit::USAGE;
            }
        }
    }

    if let Some(kind) = model {
        if spill {
            eprintln!("dd record: --spill does not combine with --model");
            return exit::USAGE;
        }
        return record_model_artifact(&session, kind, &name, out);
    }

    let path = out.unwrap_or_else(|| PathBuf::from(format!("dd-{name}.trace.jsonl")));
    let session = if spill {
        session.with_checkpoint_plan(CheckpointPlan::new(spill_every, u64::MAX))
    } else {
        session
    };
    let trace = if spill {
        // Persistent checkpoints: the run offers every snapshot the plan
        // fires to an on-disk SnapshotStore next to the trace instead of
        // keeping them in memory. Spilling does not perturb execution —
        // the decision/digest streams are bit-identical either way; only
        // the footer's epoch marks additionally carry store snapshot ids.
        // `SnapshotStore::create` empties what an earlier recording left.
        let store_dir = PathBuf::from(format!("{}.snapshots", path.display()));
        let store = match SnapshotStore::create(
            &store_dir,
            RetentionPolicy::new(spill_bound, spill_keep),
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("dd record: {e}");
                return exit::IO;
            }
        };
        match session.record_spilled(Box::new(store)) {
            Ok((t, spill_errors)) => {
                if !spill_errors.is_empty() {
                    for e in &spill_errors {
                        eprintln!("dd record: spill: {e}");
                    }
                    return exit::IO;
                }
                t
            }
            Err(e) => {
                eprintln!("dd record: {e}");
                return exit::IO;
            }
        }
    } else {
        match session.record() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("dd record: {e}");
                return exit::IO;
            }
        }
    };
    let text = trace.render();
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("dd record: {}: {e}", path.display());
        return exit::IO;
    }
    let failure = (session.scenario_for_trace(&trace.header).failure_of)(&trace.footer.io);
    println!("workload   : {}", trace.header.workload);
    println!(
        "run        : seed {} sched-seed {}",
        trace.header.seed, trace.header.sched_seed
    );
    println!("decisions  : {}", trace.footer.decisions);
    println!("stop       : {}", trace.footer.stop);
    println!(
        "failure    : {}",
        failure
            .as_ref()
            .map(|f| f.failure_id.as_str())
            .unwrap_or("none (run passed)")
    );
    println!("trace      : {}", path.display());
    if spill {
        let store_dir = PathBuf::from(format!("{}.snapshots", path.display()));
        match SnapshotStore::open(&store_dir) {
            Ok(store) => {
                println!(
                    "snapshots  : {} stored in {} ({} bytes, worst restore distance {})",
                    store.list().len(),
                    store_dir.display(),
                    store.disk_bytes(),
                    store.max_gap(trace.footer.decisions),
                );
            }
            Err(e) => {
                eprintln!("dd record: {e}");
                return exit::IO;
            }
        }
    }
    println!("trace-hash : {:016x}", fnv64(text.as_bytes()));
    exit::OK
}

// ---------------------------------------------------------------------------
// dd record --model / dd replay --model: determinism-model artifacts
// ---------------------------------------------------------------------------

/// The JSON document `dd record --model` writes: enough to rebuild the
/// production scenario (the header — same envelope as the JSONL trace) plus
/// the model's persisted [`Artifact`]. Ground truth is *not* persisted;
/// `dd replay --model` regenerates it deterministically by re-recording.
#[derive(serde::Serialize, serde::Deserialize)]
struct ModelArtifactDoc {
    model: ModelKind,
    header: TraceHeader,
    artifact: Artifact,
}

/// Filesystem-safe rendering of a model kind (`"debug (RCSE)"` → `"debug"`).
fn model_slug(kind: ModelKind) -> String {
    kind.to_string()
        .split_whitespace()
        .next()
        .expect("model kinds render non-empty")
        .to_owned()
}

fn record_model_artifact(
    session: &Session,
    kind: ModelKind,
    name: &str,
    out: Option<PathBuf>,
) -> i32 {
    let p = session.production();
    let rec = session.record_model(kind);
    let doc = ModelArtifactDoc {
        model: kind,
        header: TraceHeader::new(
            session.workload().name(),
            p.seed,
            p.sched_seed,
            p.max_steps,
            p.inputs,
            p.env,
        ),
        artifact: rec.artifact.clone(),
    };
    let text = serde_json::to_string_pretty(&doc).expect("artifact serialises") + "\n";
    let path = out.unwrap_or_else(|| PathBuf::from(format!("dd-{name}.{}.json", model_slug(kind))));
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("dd record: {}: {e}", path.display());
        return exit::IO;
    }
    println!("workload   : {}", session.workload().name());
    println!("model      : {kind}");
    println!(
        "log        : {} records, {} bytes",
        rec.log.records, rec.log.bytes
    );
    println!("overhead   : {:.2}x", rec.overhead_factor);
    println!(
        "failure    : {}",
        rec.original
            .failure
            .as_ref()
            .map(|f| f.failure_id.as_str())
            .unwrap_or("none (run passed)")
    );
    println!("artifact   : {}", path.display());
    println!("artifact-hash : {:016x}", fnv64(text.as_bytes()));
    exit::OK
}

fn replay_model_artifact(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dd replay: {path}: {e}");
            return exit::IO;
        }
    };
    let doc: ModelArtifactDoc = match serde_json::from_str(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("dd replay: {path}: {e}");
            return exit::IO;
        }
    };
    let Some(w) = workload_by_name(&doc.header.workload) else {
        eprintln!(
            "dd replay: artifact was recorded from workload `{}`, which this binary does not know",
            doc.header.workload
        );
        return exit::USAGE;
    };
    let session = Session::new(w).with_production(dd_core::workload::RunSetup {
        seed: doc.header.seed,
        sched_seed: doc.header.sched_seed,
        inputs: doc.header.inputs.clone(),
        env: doc.header.env.clone(),
        max_steps: doc.header.max_steps,
    });
    let (recording, result) = session.replay_artifact(doc.model, doc.artifact);
    println!("model      : {}", doc.model);
    println!("satisfied  : {}", result.artifact_satisfied);
    println!("io identical : {}", result.io == recording.original.io);
    let show = |f: Option<&str>| f.unwrap_or("pass").to_owned();
    println!(
        "recorded verdict : {}",
        show(
            recording
                .original
                .failure
                .as_ref()
                .map(|f| f.failure_id.as_str())
        )
    );
    println!(
        "failure reproduced : {}",
        if result.reproduced_failure {
            "yes"
        } else {
            "no (behavioural drift)"
        }
    );
    if !result.artifact_satisfied {
        println!("replay did not satisfy the recorded artifact");
        return exit::DIVERGENCE;
    }
    if !result.reproduced_failure {
        return exit::INVARIANT;
    }
    println!("replay satisfied the artifact and reproduced the recorded verdict");
    exit::OK
}

// ---------------------------------------------------------------------------
// dd replay
// ---------------------------------------------------------------------------

fn cmd_replay(rest: &[String]) -> i32 {
    let mut args = Args::new(rest);
    let mut trace_path: Option<String> = None;
    let mut invariant_only = false;
    let mut model = false;
    let mut snapshot: Option<PathBuf> = None;
    let mut from: Option<u64> = None;
    while let Some(a) = args.next() {
        let r = match a {
            "--invariant-only" => {
                invariant_only = true;
                Ok(())
            }
            "--model" => {
                model = true;
                Ok(())
            }
            "--snapshot" => args
                .value("--snapshot")
                .map(|v| snapshot = Some(PathBuf::from(v))),
            "--from" => args.parse("--from").map(|v| from = Some(v)),
            p if !p.starts_with('-') && trace_path.is_none() => {
                trace_path = Some(p.to_owned());
                Ok(())
            }
            other => Err(format!("unexpected argument `{other}`")),
        };
        if let Err(e) = r {
            eprintln!("dd replay: {e}");
            return exit::USAGE;
        }
    }
    let Some(path) = trace_path else {
        eprintln!("dd replay: missing <trace>");
        return exit::USAGE;
    };
    if model {
        return replay_model_artifact(&path);
    }
    let trace = match load_trace(&path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let session = match session_for_trace(&trace) {
        Ok(s) => s,
        Err(code) => return code,
    };

    if let Some(from) = from {
        if invariant_only {
            eprintln!("dd replay: --from does not combine with --invariant-only");
            return exit::USAGE;
        }
        return replay_from_store(&session, &trace, &path, from, snapshot);
    }

    let report = session.replay(&trace);
    println!(
        "replayed {} of {} recorded decisions ({} digest comparison points matched)",
        report.replayed_decisions, trace.footer.decisions, report.matched
    );

    if invariant_only {
        // Behavioural comparison only: did the specification verdict move?
        let check = session.behavior_check(&trace, &report.out.io);
        let show = |f: &Option<String>| f.clone().unwrap_or_else(|| "pass".into());
        println!("recorded verdict : {}", show(&check.recorded_failure));
        println!("replayed verdict : {}", show(&check.replayed_failure));
        return if check.drifted {
            println!("behavioural drift: the replay is not debugging the recorded incident");
            exit::INVARIANT
        } else {
            println!("behaviour identical (state digests not enforced)");
            exit::OK
        };
    }

    divergence_verdict(&trace, &report, snapshot)
}

/// Prints the divergence verdict shared by `dd replay` and `dd replay
/// --from` and returns the exit code.
fn divergence_verdict(
    trace: &JsonlTrace,
    report: &dd_replay::DivergenceReport,
    snapshot: Option<PathBuf>,
) -> i32 {
    match &report.divergence {
        None => {
            println!("replay identical: every state digest matched, final digest matched");
            exit::OK
        }
        Some(div) => {
            println!("FIRST DIVERGENCE at decision {}", div.decision);
            println!("  {}", div.detail);
            if let (Some(r), Some(p)) = (div.recorded_hash, div.replayed_hash) {
                println!("  recorded digest {r:016x} / replayed digest {p:016x}");
            }
            // The failing decision sequence: a window of recorded decisions
            // leading into the divergence point.
            let end = (div.decision as usize + 1).min(trace.decisions.len());
            let start = end.saturating_sub(5);
            println!(
                "  failing decision sequence (last {} of {}):",
                end - start,
                end
            );
            for d in &trace.decisions[start..end] {
                println!(
                    "    #{:<6} {:?} chose {} ({} of {} candidates)",
                    d.i,
                    d.kind,
                    d.chosen,
                    d.chosen_index + 1,
                    d.n
                );
            }
            if let Some(snap) = snapshot {
                match write_snapshot_diff(&snap, trace, report) {
                    Ok(()) => println!("  state diff written to {}", snap.display()),
                    Err(e) => {
                        eprintln!("dd replay: {}: {e}", snap.display());
                        return exit::IO;
                    }
                }
            }
            exit::DIVERGENCE
        }
    }
}

/// The snapshot-store directory written next to a trace by `dd record
/// --spill` (and read back by `--from`, `--warm` and `dd snapshots`).
fn store_dir_for(trace_path: &str) -> PathBuf {
    PathBuf::from(format!("{trace_path}.snapshots"))
}

/// Loads stored snapshot `id` for use with `trace`. It must belong to the
/// recorded run: its world's digest, which loading has already verified
/// against the manifest and kept, is the one the trace recorded before
/// the snapshot's decision. A store another recording left at the same
/// path fails here, with an error naming the store and the snapshot.
fn load_for_trace(
    store: &SnapshotStore,
    id: u64,
    trace: &JsonlTrace,
) -> Result<WorldSnapshot, String> {
    let snap = store
        .load(id, Box::new(RandomPolicy::new(0)))
        .map_err(|e| e.to_string())?;
    let d = snap.at_decision();
    let digest = snap.digest();
    match trace.decisions.get(d as usize) {
        Some(line) if line.hash == digest => Ok(snap),
        recorded => Err(format!(
            "{}: snapshot {id} does not belong to this trace: its state digest at decision {d} \
             is {digest:016x}, the trace {}; re-record with --spill",
            store.dir().display(),
            recorded.map_or_else(
                || format!("ends after {} decisions", trace.decisions.len()),
                |line| format!("records {:016x}", line.hash)
            ),
        )),
    }
}

/// `dd replay --from N`: restore the nearest stored snapshot at or before
/// decision `N` from the trace's on-disk store and fast-forward the
/// remainder under the strict replay policy. With no store (or no snapshot
/// that early) the replay falls back to scratch — same verdict, no fast
/// path. A store that exists but cannot be read is an I/O error naming the
/// offending file.
fn replay_from_store(
    session: &Session,
    trace: &JsonlTrace,
    trace_path: &str,
    from: u64,
    snapshot_diff: Option<PathBuf>,
) -> i32 {
    let store_dir = store_dir_for(trace_path);
    let report = if store_dir.exists() {
        let store = match SnapshotStore::open(&store_dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("dd replay: {e}");
                return exit::IO;
            }
        };
        match store.nearest_at_or_before(from) {
            Some(entry) => {
                let snap = match load_for_trace(&store, entry.id, trace) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("dd replay: {e}");
                        return exit::IO;
                    }
                };
                println!(
                    "restored snapshot {} at decision {} ({} recorded decisions skipped, \
                     {} replayed live)",
                    entry.id,
                    entry.decision,
                    entry.decision,
                    trace.footer.decisions.saturating_sub(entry.decision),
                );
                session.replay_from(trace, &snap)
            }
            None => {
                println!("no stored snapshot at or before decision {from}; replaying from scratch");
                session.replay(trace)
            }
        }
    } else {
        println!(
            "no snapshot store at {}; replaying from scratch",
            store_dir.display()
        );
        session.replay(trace)
    };
    println!(
        "replayed {} of {} recorded decisions ({} digest comparison points matched)",
        report.replayed_decisions, trace.footer.decisions, report.matched
    );
    divergence_verdict(trace, &report, snapshot_diff)
}

/// One endpoint (recorded or replayed) in the `--snapshot` diff file.
#[derive(serde::Serialize)]
struct DiffEndpoint {
    decisions: u64,
    stop: String,
    final_hash: Option<u64>,
}

/// One recorded decision in the diff's context window.
#[derive(serde::Serialize)]
struct DiffDecision {
    i: u64,
    kind: String,
    chosen: String,
    n: u32,
    hash: u64,
}

/// The `--snapshot` state-diff document: where the digest streams parted,
/// with the surrounding recorded decisions and both runs' endpoints.
#[derive(serde::Serialize)]
struct SnapshotDiff {
    diverged_at_decision: u64,
    detail: String,
    recorded_hash: Option<u64>,
    replayed_hash: Option<u64>,
    digest_points_matched: u64,
    recorded: DiffEndpoint,
    replayed: DiffEndpoint,
    decision_window: Vec<DiffDecision>,
}

fn write_snapshot_diff(
    path: &Path,
    trace: &JsonlTrace,
    report: &dd_replay::DivergenceReport,
) -> std::io::Result<()> {
    let div = report
        .divergence
        .as_ref()
        .expect("diff requires divergence");
    let window_end = (div.decision as usize + 2).min(trace.decisions.len());
    let window_start = window_end.saturating_sub(8);
    let diff = SnapshotDiff {
        diverged_at_decision: div.decision,
        detail: div.detail.clone(),
        recorded_hash: div.recorded_hash,
        replayed_hash: div.replayed_hash,
        digest_points_matched: report.matched,
        recorded: DiffEndpoint {
            decisions: trace.footer.decisions,
            stop: trace.footer.stop.to_string(),
            final_hash: Some(trace.footer.final_hash),
        },
        replayed: DiffEndpoint {
            decisions: report.replayed_decisions,
            stop: report.out.stop.to_string(),
            final_hash: report.out.final_state_hash,
        },
        decision_window: trace.decisions[window_start..window_end]
            .iter()
            .map(|d| DiffDecision {
                i: d.i,
                kind: format!("{:?}", d.kind),
                chosen: d.chosen.to_string(),
                n: d.n,
                hash: d.hash,
            })
            .collect(),
    };
    let body = serde_json::to_string_pretty(&diff).expect("serialisable");
    std::fs::write(path, body + "\n")
}

// ---------------------------------------------------------------------------
// dd snapshots
// ---------------------------------------------------------------------------

/// `dd snapshots <trace>`: list the on-disk snapshot store a `dd record
/// --spill` run wrote next to the trace — one row per stored snapshot with
/// its decision index, marginal (delta) bytes and delta parent.
fn cmd_snapshots(rest: &[String]) -> i32 {
    let mut args = Args::new(rest);
    let mut trace_path: Option<String> = None;
    while let Some(a) = args.next() {
        match a {
            p if !p.starts_with('-') && trace_path.is_none() => trace_path = Some(p.to_owned()),
            other => {
                eprintln!("dd snapshots: unexpected argument `{other}`");
                return exit::USAGE;
            }
        }
    }
    let Some(path) = trace_path else {
        eprintln!("dd snapshots: missing <trace>");
        return exit::USAGE;
    };
    let store_dir = store_dir_for(&path);
    if !store_dir.exists() {
        eprintln!(
            "dd snapshots: no snapshot store at {} (record with --spill first)",
            store_dir.display()
        );
        return exit::IO;
    }
    let store = match SnapshotStore::open(&store_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dd snapshots: {e}");
            return exit::IO;
        }
    };
    let policy = store.policy();
    println!("store      : {}", store_dir.display());
    println!(
        "policy     : restore-distance bound {}, capacity {} snapshots",
        policy.bound, policy.max_snapshots
    );
    println!(
        "{:>4}  {:>9}  {:>9}  {:>12}  {:>7}",
        "id", "decision", "step", "delta-bytes", "parent"
    );
    for e in store.list() {
        println!(
            "{:>4}  {:>9}  {:>9}  {:>12}  {:>7}",
            e.id,
            e.decision,
            e.step,
            e.bytes,
            e.parent.map_or_else(|| "-".into(), |p| p.to_string()),
        );
    }
    println!(
        "total      : {} snapshots, {} bytes on disk",
        store.list().len(),
        store.disk_bytes()
    );
    exit::OK
}

// ---------------------------------------------------------------------------
// dd explore
// ---------------------------------------------------------------------------

fn cmd_explore(rest: &[String]) -> i32 {
    let mut args = Args::new(rest);
    let mut trace_path: Option<String> = None;
    let mut executions: u64 = 256;
    let mut depth: u32 = dd_core::driver::DEFAULT_EXPLORE_DEPTH;
    let mut workers: u32 = 1;
    let mut warm = false;
    while let Some(a) = args.next() {
        let r = match a {
            "--executions" => args.parse("--executions").map(|v| executions = v),
            "--depth" => args.parse("--depth").map(|v| depth = v),
            "--workers" => args.parse("--workers").map(|v| workers = v),
            "--warm" => {
                warm = true;
                Ok(())
            }
            p if !p.starts_with('-') && trace_path.is_none() => {
                trace_path = Some(p.to_owned());
                Ok(())
            }
            other => Err(format!("unexpected argument `{other}`")),
        };
        if let Err(e) = r {
            eprintln!("dd explore: {e}");
            return exit::USAGE;
        }
    }
    let Some(path) = trace_path else {
        eprintln!("dd explore: missing <trace>");
        return exit::USAGE;
    };
    let budget = match InferenceBudget::builder()
        .max_executions(executions)
        .strategy(SearchStrategy::Dpor { max_depth: depth })
        .workers(workers)
        .build()
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("dd explore: {e}");
            return exit::USAGE;
        }
    };
    let trace = match load_trace(&path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let session = match session_for_trace(&trace) {
        Ok(s) => s.with_budget(budget),
        Err(code) => return code,
    };

    let exploration = if warm {
        // Warm start: seed the tree walk's snapshot pool from the store a
        // spilled recording left next to the trace. Seeds whose decision
        // path diverges from the walk are skipped safely, so this can only
        // save work, never change the search's outcome.
        let store_dir = store_dir_for(&path);
        let store = match SnapshotStore::open(&store_dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("dd explore: {e}");
                return exit::IO;
            }
        };
        let mut seeds = Vec::new();
        for entry in store.list() {
            match load_for_trace(&store, entry.id, &trace) {
                Ok(s) => seeds.push(Arc::new(s)),
                Err(e) => {
                    eprintln!("dd explore: {e}");
                    return exit::IO;
                }
            }
        }
        println!(
            "warm-start : {} stored snapshots from {}",
            seeds.len(),
            store_dir.display()
        );
        session.explore_warm(&trace, seeds)
    } else {
        session.explore(&trace)
    };
    println!(
        "target     : {}",
        exploration
            .target
            .as_deref()
            .unwrap_or("any failure (recorded run passed)")
    );
    let stats = &exploration.result.stats;
    println!(
        "search     : {} executed, {} pruned, {} ticks",
        stats.explored, stats.pruned, stats.ticks
    );
    match (&exploration.result.spec, stats.found_at) {
        (Some(spec), at) => {
            println!(
                "found      : candidate {} reproduces the failure",
                at.map(|i| i.to_string()).unwrap_or_else(|| "?".into())
            );
            println!("  spec     : seed {} policy {:?}", spec.seed, spec.policy);
        }
        (None, _) => println!("found      : nothing within budget"),
    }
    exit::OK
}

// ---------------------------------------------------------------------------
// dd promote
// ---------------------------------------------------------------------------

fn cmd_promote(rest: &[String]) -> i32 {
    let mut args = Args::new(rest);
    let mut trace_path: Option<String> = None;
    let mut emit_test = false;
    let mut name: Option<String> = None;
    let mut dir = PathBuf::from("tests");
    while let Some(a) = args.next() {
        let r = match a {
            "--emit-test" => {
                emit_test = true;
                Ok(())
            }
            "--name" => args.value("--name").map(|v| name = Some(v.to_owned())),
            "--dir" => args.value("--dir").map(|v| dir = PathBuf::from(v)),
            p if !p.starts_with('-') && trace_path.is_none() => {
                trace_path = Some(p.to_owned());
                Ok(())
            }
            other => Err(format!("unexpected argument `{other}`")),
        };
        if let Err(e) = r {
            eprintln!("dd promote: {e}");
            return exit::USAGE;
        }
    }
    let Some(path) = trace_path else {
        eprintln!("dd promote: missing <trace>");
        return exit::USAGE;
    };
    if !emit_test {
        eprintln!("dd promote: nothing to do (pass --emit-test)");
        return exit::USAGE;
    }
    let trace = match load_trace(&path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    // Promotion only makes sense for traces this binary can replay later.
    if let Err(code) = session_for_trace(&trace) {
        return code;
    }
    let name = name.unwrap_or_else(|| {
        format!(
            "promoted_{}",
            trace.header.workload.replace(['-', '.'], "_")
        )
    });
    if !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        eprintln!("dd promote: --name must be a valid Rust module name, got `{name}`");
        return exit::USAGE;
    }

    let fixture_rel = format!("fixtures/{name}.jsonl");
    let fixture_path = dir.join(&fixture_rel);
    let test_path = dir.join(format!("{name}.rs"));
    if let Some(parent) = fixture_path.parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("dd promote: {}: {e}", parent.display());
            return exit::IO;
        }
    }
    if let Err(e) = std::fs::write(&fixture_path, trace.render()) {
        eprintln!("dd promote: {}: {e}", fixture_path.display());
        return exit::IO;
    }
    if let Err(e) = std::fs::write(&test_path, render_promoted_test(&trace, &name)) {
        eprintln!("dd promote: {}: {e}", test_path.display());
        return exit::IO;
    }
    println!("fixture    : {}", fixture_path.display());
    println!("test       : {}", test_path.display());
    println!("run it with: cargo test --test {name}");
    exit::OK
}

/// Renders the integration test `dd promote --emit-test` commits next to
/// its fixture. The test replays the fixture through the same driver facade
/// and fails on the first divergence.
pub fn render_promoted_test(trace: &JsonlTrace, name: &str) -> String {
    format!(
        r#"//! Promoted replay fixture for `{workload}` — generated by
//! `dd promote --emit-test`; regenerate rather than editing by hand.
//!
//! The fixture seals {decisions} scheduling decisions with per-decision
//! state digests. Replaying it must reproduce every digest and the final
//! state digest ({final_hash:#018x}); any divergence names the first
//! differing decision.

use dd_cli::workload_by_name;
use debug_determinism::core::Session;
use debug_determinism::trace::JsonlTrace;

const FIXTURE: &str = include_str!("fixtures/{name}.jsonl");

#[test]
fn fixture_parses_and_is_sealed() {{
    let trace = JsonlTrace::parse(FIXTURE).expect("committed fixture parses");
    assert_eq!(trace.header.workload, "{workload}");
    assert_eq!(trace.footer.decisions, {decisions});
}}

#[test]
fn fixture_replays_without_divergence() {{
    let trace = JsonlTrace::parse(FIXTURE).expect("committed fixture parses");
    let workload = workload_by_name(&trace.header.workload).expect("workload registered");
    let report = Session::new(workload).replay(&trace);
    assert!(
        report.identical(),
        "replay diverged: {{:?}}",
        report.divergence
    );
    assert_eq!(report.replayed_decisions, trace.footer.decisions);
}}
"#,
        workload = trace.header.workload,
        decisions = trace.footer.decisions,
        final_hash = trace.footer.final_hash,
        name = name,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_aliases_and_canonical_names() {
        for (canonical, alias) in [("sum-2plus2", "sum"), ("bufoverflow", "bufoverflow")] {
            let by_alias = workload_by_name(alias).expect("alias resolves");
            let by_name = workload_by_name(canonical).expect("canonical resolves");
            assert_eq!(by_alias.name(), canonical);
            assert_eq!(by_name.name(), canonical);
        }
        assert!(workload_by_name("nope").is_none());
    }

    #[test]
    fn unknown_command_is_usage_error() {
        assert_eq!(run(&["frobnicate".to_owned()]), exit::USAGE);
        assert_eq!(run(&[]), exit::USAGE);
    }

    #[test]
    fn record_requires_known_workload() {
        assert_eq!(run(&["record".to_owned()]), exit::USAGE);
        assert_eq!(
            run(&["record".to_owned(), "no-such-workload".to_owned()]),
            exit::USAGE
        );
    }

    #[test]
    fn replay_rejects_missing_file_with_io_code() {
        assert_eq!(
            run(&["replay".to_owned(), "/nonexistent/trace.jsonl".to_owned()]),
            exit::IO
        );
    }

    #[test]
    fn promoted_test_references_fixture_and_workload() {
        let session = Session::new(workload_by_name("sum").unwrap());
        let trace = session.record().expect("sum records");
        let test = render_promoted_test(&trace, "promoted_sum");
        assert!(test.contains("include_str!(\"fixtures/promoted_sum.jsonl\")"));
        assert!(test.contains("sum-2plus2"));
        assert!(test.contains(&format!("{}", trace.footer.decisions)));
    }

    #[test]
    fn fault_flags_parse_and_reject_garbage() {
        assert_eq!(
            parse_time_group("--crash", "270:server1").unwrap(),
            (270, "server1".to_owned())
        );
        assert!(parse_time_group("--crash", "server1").is_err());
        assert!(parse_time_group("--crash", "x:server1").is_err());
        assert!(parse_time_group("--crash", "270:").is_err());
        let p = parse_partition("40:200:server1:server2").unwrap();
        assert_eq!(
            (p.start, p.heal, p.a.as_str(), p.b.as_str()),
            (40, 200, "server1", "server2")
        );
        assert!(parse_partition("40:server1:server2").is_err());
        assert!(parse_partition("200:40:a:b").is_err(), "heal before start");
        assert!(parse_partition("40:200::b").is_err(), "empty group");
    }

    #[test]
    fn record_rejects_malformed_fault_flags() {
        let a = |s: &str| s.to_owned();
        assert_eq!(
            run(&[a("record"), a("sum"), a("--crash"), a("oops")]),
            exit::USAGE
        );
        assert_eq!(
            run(&[a("record"), a("sum"), a("--partition"), a("1:2:a")]),
            exit::USAGE
        );
        assert_eq!(run(&[a("record"), a("sum"), a("--restart")]), exit::USAGE);
    }

    #[test]
    fn record_rejects_unknown_model_kind() {
        let a = |s: &str| s.to_owned();
        assert_eq!(
            run(&[a("record"), a("sum"), a("--model"), a("nope")]),
            exit::USAGE
        );
        assert_eq!(
            run(&[a("record"), a("sum"), a("--model=nope")]),
            exit::USAGE
        );
    }

    #[test]
    fn model_artifact_round_trips_through_record_and_replay() {
        let out = std::env::temp_dir().join(format!("dd-cli-model-{}.json", std::process::id()));
        let a = |s: &str| s.to_owned();
        assert_eq!(
            run(&[
                a("record"),
                a("sum"),
                a("--model=msg-order"),
                a("--out"),
                out.display().to_string(),
            ]),
            exit::OK
        );
        assert_eq!(
            run(&[a("replay"), out.display().to_string(), a("--model")]),
            exit::OK
        );
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn model_slugs_are_filesystem_safe() {
        assert_eq!(model_slug(ModelKind::Debug), "debug");
        assert_eq!(model_slug(ModelKind::RaceComplete), "race-complete");
        assert_eq!(model_slug(ModelKind::MsgOrder), "msg-order");
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a of the empty string is the offset basis.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
