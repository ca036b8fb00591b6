//! ddbench — wall-clock benchmark of the debug-determinism pipeline.
//!
//! One single-threaded closed loop per process: each workload repeats a
//! fixed cycle of record, replay and baseline operations (see
//! `workloads.rs` and `README.md`) and reports the metrics `BENCHMARK.json`
//! declares.

mod calib;
mod meter;
mod report;
mod stats;
mod workloads;

use meter::{CycleTimes, Meter};
use report::{
    calibration_us, contract, end_to_end, get, metrics_json, number, per_layer, self_time_table,
    text, Contract,
};
use serde::Content;
use stats::{claim_holds, median, quartiles, verdict, Verdict};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Bench, SetupTimes, WORKLOADS};

const USAGE: &str = "\
ddbench — benchmark of record, replay, spill/restore, DPOR search and the eight determinism models

USAGE:
    ddbench run --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
                [--out FILE] [--spans FILE]
    ddbench check --seed <n>
    ddbench compare [--claim METRIC@WORKLOAD]... <A.json>... -- <B.json>...

WORKLOADS:
    record-replay | spill-restore | explore-dpor | fidelity-models

`run` prints one JSON result as the last line of stdout: the end-to-end
metrics, or with --trace 1 the per-layer ones (the first half of the run is
untraced, for the tracing overhead). `check` runs every operation of every
workload twice, checks the outputs, prints the deterministic counters and,
for seed 1, compares them with benchmark/expected/seed-1.json. `compare`
applies BENCHMARK.json's bounds to two sets of `run --out` files.
";

/// Cycles run and discarded before timing starts.
const WARMUP_CYCLES: u64 = 3;
/// Set-ups per run, spread over its measured time; `setup_s` is their
/// median.
const SETUPS: usize = 7;
/// Golden deterministic counters for seed 1.
const EXPECTED_SEED_1: &str = include_str!("../expected/seed-1.json");

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(rest),
        Some("check") => cmd_check(rest),
        Some("compare") => cmd_compare(rest),
        _ => {
            eprint!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn value<T: std::str::FromStr>(
    args: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    let v = args.next().ok_or(format!("{flag} requires a value"))?;
    v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`"))
}

fn usage_error(e: String) -> i32 {
    eprintln!("ddbench: {e}\n");
    eprint!("{USAGE}");
    2
}

/// A scratch directory inside the checkout for traces and snapshot stores.
fn work_dir(workload: &str) -> Result<PathBuf, String> {
    let dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn remove_work_dir(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
    if let Some(parent) = dir.parent() {
        // Only succeeds once no other run is using it.
        std::fs::remove_dir(parent).ok();
    }
}

/// Runs one cycle, turning a panic into a counted failure. Returns the
/// cycle's times unless it panicked.
fn run_cycle(bench: &mut dyn Bench, i: u64, m: &mut Meter) -> Option<CycleTimes> {
    m.begin_cycle(i);
    let ok = catch_unwind(AssertUnwindSafe(|| bench.cycle(i, m))).is_ok();
    let times = m.end_cycle();
    if !ok {
        m.fail(format!("cycle {i} panicked"));
    }
    ok.then_some(times)
}

// ---------------------------------------------------------------------------
// ddbench run
// ---------------------------------------------------------------------------

struct RunOpts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_run(rest: &[String], c: &Contract) -> Result<RunOpts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut opts = RunOpts {
        workload: String::new(),
        seed: 0,
        seconds: c.run_seconds,
        trace: false,
        out: None,
        spans: None,
    };
    let mut args = rest.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => workload = Some(value::<String>(&mut args, a)?),
            "--seed" => seed = Some(value(&mut args, a)?),
            "--seconds" => opts.seconds = value(&mut args, a)?,
            "--trace" => {
                opts.trace = match value::<String>(&mut args, a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => opts.out = Some(value::<PathBuf>(&mut args, a)?),
            "--spans" => opts.spans = Some(value::<PathBuf>(&mut args, a)?),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload `{}`", opts.workload));
    }
    opts.seed = seed.ok_or("--seed is required")?;
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(opts)
}

/// Everything one run measured.
struct Measured {
    meter: Meter,
    setups: Vec<SetupTimes>,
    untraced: Vec<CycleTimes>,
    traced: Vec<CycleTimes>,
}

/// Sets the workload up once, timing it.
fn timed_setup(
    opts: &RunOpts,
    work: &Path,
    setups: &mut Vec<SetupTimes>,
) -> Result<Box<dyn Bench>, String> {
    let mut times = SetupTimes {
        scale: calib::scale(),
        ..SetupTimes::default()
    };
    let start = Instant::now();
    let bench = workloads::setup(&opts.workload, opts.seed, work, &mut times)?;
    times.total_s = start.elapsed().as_secs_f64();
    setups.push(times);
    Ok(bench)
}

/// Set-up, warm-up, then cycles back to back until `--seconds` have passed;
/// a cycle is never cut short. The workload is set up again at evenly
/// spaced points of the measured time (those set-ups are timed and dropped),
/// so `setup_s` samples the whole run, not only its first moments. A traced
/// run spends its first half untraced and its second half traced. Every
/// set-up is calibrated just before it runs (cycles calibrate themselves,
/// see `Meter`).
fn measure(opts: &RunOpts, work: &Path) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut bench = timed_setup(opts, work, &mut setups)?;
    let mut m = Meter::new();
    let mut i = 0;
    for _ in 0..WARMUP_CYCLES {
        run_cycle(bench.as_mut(), i, &mut m);
        i += 1;
    }
    let secs = opts.seconds as f64;
    let untraced_until = if opts.trace { secs / 2.0 } else { secs };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut elapsed = 0.0;
    while elapsed < secs || (opts.trace && traced.is_empty()) {
        let tracing = elapsed >= untraced_until;
        m.set_traced(tracing);
        let times = run_cycle(bench.as_mut(), i, &mut m);
        i += 1;
        if tracing { &mut traced } else { &mut untraced }.extend(times);
        elapsed = start.elapsed().as_secs_f64();
        if setups.len() < SETUPS && elapsed >= secs * setups.len() as f64 / SETUPS as f64 {
            drop(timed_setup(opts, work, &mut setups)?);
            elapsed = start.elapsed().as_secs_f64();
        }
    }
    Ok(Measured {
        meter: m,
        setups,
        untraced,
        traced,
    })
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned())
}

fn cmd_run(rest: &[String]) -> i32 {
    let c = contract();
    let opts = match parse_run(rest, &c) {
        Ok(o) => o,
        Err(e) => return usage_error(e),
    };
    let work = match work_dir(&opts.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("ddbench: {e}");
            return 1;
        }
    };
    let measured = measure(&opts, &work);
    remove_work_dir(&work);
    let r = match measured {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ddbench: {e}");
            return 1;
        }
    };
    let m = &r.meter;
    let (specs, values, samples) = if opts.trace {
        eprintln!(
            "per-layer self time, {} ({} traced cycles):\n{}",
            opts.workload,
            r.traced.len(),
            self_time_table(m, &r.traced)
        );
        let values = per_layer(m, &r.untraced, &r.traced, &r.setups);
        (&c.per_layer, values, r.traced.len())
    } else {
        (
            &c.end_to_end,
            end_to_end(&r.untraced, &r.setups),
            r.untraced.len(),
        )
    };
    let metrics = match metrics_json(specs, &values) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("ddbench: {e}");
            return 1;
        }
    };
    for f in &m.failures {
        eprintln!("ddbench: FAILED {f}");
    }
    let result = vec![
        (text("correct"), Content::Bool(m.failed == 0)),
        (text("attempted"), Content::U64(m.attempted)),
        (text("failed"), Content::U64(m.failed)),
        (text("metrics"), metrics),
    ];
    if let Some(path) = &opts.out {
        let sample_counts = specs
            .iter()
            .map(|spec| {
                let n = match spec.name.as_str() {
                    "setup_s" | "core.train_ms" | "cli.discover_ms" => r.setups.len(),
                    "peak_rss_mb" => 1,
                    "record.tail_ms" | "record.tail_pct" | "record.samples" | "replay.tail_ms"
                    | "replay.tail_pct" | "replay.samples" => r.untraced.len(),
                    "bench.tracing_overhead" | "bench.calibration_us" => {
                        r.untraced.len() + r.traced.len()
                    }
                    _ => samples,
                };
                (text(&spec.name), Content::U64(n as u64))
            })
            .collect();
        let mut doc = vec![
            (text("workload"), text(&opts.workload)),
            (text("seed"), Content::U64(opts.seed)),
            (text("trace"), Content::Bool(opts.trace)),
        ];
        doc.extend(result.iter().cloned());
        let unscaled: Vec<CycleTimes> = r
            .untraced
            .iter()
            .map(|c| CycleTimes { scale: 1.0, ..*c })
            .collect();
        let unscaled_setups: Vec<SetupTimes> = r
            .setups
            .iter()
            .map(|s| SetupTimes { scale: 1.0, ..*s })
            .collect();
        let wall_clock = end_to_end(&unscaled, &unscaled_setups)
            .into_iter()
            .map(|(k, v)| (text(&k), Content::F64(v)))
            .collect();
        let all_cycles: Vec<CycleTimes> = r.untraced.iter().chain(&r.traced).copied().collect();
        doc.extend([
            (text("wall_clock"), Content::Map(wall_clock)),
            (text("samples"), Content::Map(sample_counts)),
            (
                text("failures"),
                Content::Seq(m.failures.iter().map(|f| text(f)).collect()),
            ),
            (
                text("provenance"),
                Content::Map(vec![
                    (
                        text("git_rev"),
                        text(&command_output(
                            "git",
                            &["describe", "--always", "--dirty", "--abbrev=40"],
                        )),
                    ),
                    (text("rustc"), text(&command_output("rustc", &["-V"]))),
                    (
                        text("available_parallelism"),
                        Content::U64(
                            std::thread::available_parallelism().map_or(0, |n| n.get()) as u64
                        ),
                    ),
                    (text("seed"), Content::U64(opts.seed)),
                    (text("seconds"), Content::U64(opts.seconds)),
                    (text("setups"), Content::U64(r.setups.len() as u64)),
                    (text("warmup_cycles_discarded"), Content::U64(WARMUP_CYCLES)),
                    (
                        text("untraced_cycles"),
                        Content::U64(r.untraced.len() as u64),
                    ),
                    (text("traced_cycles"), Content::U64(r.traced.len() as u64)),
                    (text("reference_ns"), Content::F64(calib::REFERENCE_NS)),
                    (
                        text("calibration_us"),
                        Content::F64(calibration_us(&all_cycles)),
                    ),
                ]),
            ),
        ]);
        let body = serde_json::to_string_pretty(&Content::Map(doc)).expect("result serialises");
        if let Err(e) = std::fs::write(path, body + "\n") {
            eprintln!("ddbench: {}: {e}", path.display());
            return 1;
        }
    }
    if let Some(path) = &opts.spans {
        let body = serde_json::to_string(&m.spans_json()).expect("spans serialise");
        if let Err(e) = std::fs::write(path, body + "\n") {
            eprintln!("ddbench: {}: {e}", path.display());
            return 1;
        }
    }
    println!(
        "{}",
        serde_json::to_string(&Content::Map(result)).expect("result serialises")
    );
    0
}

// ---------------------------------------------------------------------------
// ddbench check
// ---------------------------------------------------------------------------

/// Lists the (workload, op) entries where two counter documents differ.
fn counter_diffs(got: &Content, want: &Content) -> Vec<String> {
    let entries = |c: &Content| -> BTreeMap<String, Content> {
        c.as_map()
            .unwrap_or_default()
            .iter()
            .flat_map(|(w, ops)| {
                ops.as_map().unwrap_or_default().iter().map(move |(op, v)| {
                    (
                        format!(
                            "{}/{}",
                            w.as_str().unwrap_or("?"),
                            op.as_str().unwrap_or("?")
                        ),
                        v.clone(),
                    )
                })
            })
            .collect()
    };
    let (got, want) = (entries(got), entries(want));
    let keys: std::collections::BTreeSet<&String> = got.keys().chain(want.keys()).collect();
    keys.into_iter()
        .filter(|k| got.get(*k) != want.get(*k))
        .map(|k| {
            let show = |c: Option<&Content>| {
                c.map_or("missing".to_owned(), |c| {
                    serde_json::to_string(c).unwrap_or_default()
                })
            };
            format!(
                "{k}: got {}, expected {}",
                show(got.get(k)),
                show(want.get(k))
            )
        })
        .collect()
}

fn cmd_check(rest: &[String]) -> i32 {
    let seed: u64 = match rest {
        [flag, v] if flag == "--seed" => match v.parse() {
            Ok(s) => s,
            Err(_) => return usage_error(format!("--seed: cannot parse `{v}`")),
        },
        _ => return usage_error("check takes --seed <n>".into()),
    };
    let mut ok = true;
    let mut doc = Vec::new();
    for name in WORKLOADS {
        let work = match work_dir(name) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("ddbench: {e}");
                return 1;
            }
        };
        let mut times = SetupTimes::default();
        let mut m = Meter::new();
        m.counters = Some(BTreeMap::new());
        match workloads::setup(name, seed, &work, &mut times) {
            // Every op runs twice, so each repeat is checked against the first.
            Ok(mut bench) => {
                for i in 0..2 * bench.rotation() {
                    run_cycle(bench.as_mut(), i, &mut m);
                }
            }
            Err(e) => m.fail(format!("set-up: {e}")),
        }
        remove_work_dir(&work);
        eprintln!(
            "{name:<16} {:>5} ops, {} failed, error_rate {}",
            m.attempted,
            m.failed,
            m.failed as f64 / m.attempted.max(1) as f64
        );
        for f in &m.failures {
            eprintln!("  FAILED {f}");
        }
        ok &= m.failed == 0;
        let ops = m.counters.take().unwrap_or_default();
        doc.push((
            text(name),
            Content::Map(ops.into_iter().map(|(k, v)| (text(&k), v)).collect()),
        ));
    }
    let doc = Content::Map(doc);
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).expect("counters serialise")
    );
    if seed == 1 {
        let diffs = match serde_json::from_str::<Content>(EXPECTED_SEED_1) {
            Ok(want) => counter_diffs(&doc, &want),
            Err(e) => vec![format!("expected/seed-1.json: {e}")],
        };
        if diffs.is_empty() {
            eprintln!("counters equal benchmark/expected/seed-1.json");
        } else {
            ok = false;
            eprintln!("counters differ from benchmark/expected/seed-1.json:");
            for d in diffs.iter().take(20) {
                eprintln!("  {d}");
            }
            if diffs.len() > 20 {
                eprintln!("  ... {} more", diffs.len() - 20);
            }
        }
    }
    if ok {
        0
    } else {
        1
    }
}

// ---------------------------------------------------------------------------
// ddbench compare
// ---------------------------------------------------------------------------

/// One `run --out` file: (workload, traced, metric values).
fn load_result(path: &str) -> Result<(String, bool, BTreeMap<String, f64>), String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Content = serde_json::from_str(&body).map_err(|e| format!("{path}: {e}"))?;
    let doc = doc.as_map().ok_or(format!("{path}: not a JSON object"))?;
    let workload = get(doc, "workload")
        .and_then(Content::as_str)
        .ok_or(format!("{path}: no workload"))?
        .to_owned();
    let traced = matches!(get(doc, "trace"), Some(Content::Bool(true)));
    let metrics = get(doc, "metrics")
        .and_then(Content::as_map)
        .ok_or(format!("{path}: no metrics"))?
        .iter()
        .filter_map(|(k, v)| {
            let value = get(v.as_map()?, "value").and_then(number)?;
            Some((k.as_str()?.to_owned(), value))
        })
        .collect();
    Ok((workload, traced, metrics))
}

fn cmd_compare(rest: &[String]) -> i32 {
    let mut claims = Vec::new();
    let mut sides: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut side = 0;
    let mut args = rest.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--claim" => match args.next().and_then(|c| c.split_once('@')) {
                Some((m, w)) => claims.push((m.to_owned(), w.to_owned())),
                None => return usage_error("--claim takes METRIC@WORKLOAD".into()),
            },
            "--" if side == 0 => side = 1,
            path => sides[side].push(path.to_owned()),
        }
    }
    if sides.iter().any(Vec::is_empty) {
        return usage_error("compare needs result files on both sides of `--`".into());
    }
    let mut loaded: [Vec<(String, BTreeMap<String, f64>)>; 2] = [Vec::new(), Vec::new()];
    for (n, paths) in sides.iter().enumerate() {
        for p in paths {
            match load_result(p) {
                Ok((w, false, m)) => loaded[n].push((w, m)),
                Ok(_) => eprintln!("ddbench: {p}: traced run, skipped (its metrics are per-layer)"),
                Err(e) => {
                    eprintln!("ddbench: {e}");
                    return 1;
                }
            }
        }
    }
    let values = |n: usize, w: &str, metric: &str| -> Vec<f64> {
        loaded[n]
            .iter()
            .filter(|(lw, _)| lw == w)
            .filter_map(|(_, m)| m.get(metric).copied())
            .collect()
    };
    let c = contract();
    let mut worse = false;
    println!(
        "{:<16} {:<16} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "bound"
    );
    for w in &c.workloads {
        for spec in &c.end_to_end {
            let (a, b) = (values(0, w, &spec.name), values(1, w, &spec.name));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let bound = spec.bound.unwrap_or(0.0);
            let v = verdict(&a, &b, spec.better, bound);
            worse |= v == Verdict::Worse;
            let side = |x: &[f64]| {
                let (q1, q3) = quartiles(x);
                format!("{:.4} [{:.4}, {:.4}] ({})", median(x), q1, q3, x.len())
            };
            println!(
                "{:<16} {:<16} {:>34} {:>34} {:>+7.1}% {:>6}  {v}",
                w,
                spec.name,
                side(&a),
                side(&b),
                100.0 * (median(&b) - median(&a)) / median(&a),
                bound,
            );
        }
    }
    let mut claims_hold = true;
    for (metric, w) in &claims {
        let Some(spec) = c.end_to_end.iter().find(|s| &s.name == metric) else {
            return usage_error(format!("--claim: unknown end-to-end metric `{metric}`"));
        };
        let holds = claim_holds(&values(0, w, metric), &values(1, w, metric), spec.better);
        claims_hold &= holds;
        println!(
            "claim {metric}@{w}: {}",
            if holds {
                "holds (B wins >= 9/10 pairs by more than A's IQR)"
            } else {
                "not met"
            }
        );
    }
    if worse || !claims_hold {
        1
    } else {
        0
    }
}
