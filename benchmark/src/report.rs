//! The benchmark's contract (`BENCHMARK.json`) and the metrics a run
//! reports against it.

use crate::calib::REFERENCE_NS;
use crate::meter::{layer_of, CycleTimes, Meter};
use crate::stats::{median, tail, Better};
use crate::workloads::{SetupTimes, INCIDENTS, MODELS, WALKS};
use serde::Content;
use std::collections::BTreeMap;

/// `BENCHMARK.json`, compiled in so every subcommand sees the same bounds.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// A JSON string.
pub fn text(v: &str) -> Content {
    Content::Str(v.to_owned())
}

/// The value under `key` in a JSON object's pairs.
pub fn get<'a>(map: &'a [(Content, Content)], key: &str) -> Option<&'a Content> {
    map.iter()
        .find(|(k, _)| k.as_str() == Some(key))
        .map(|(_, v)| v)
}

/// A JSON number as `f64`.
pub fn number(c: &Content) -> Option<f64> {
    match *c {
        Content::U64(v) => Some(v as f64),
        Content::I64(v) => Some(v as f64),
        Content::F64(v) => Some(v),
        _ => None,
    }
}

fn metrics(list: Option<&Content>) -> Result<Vec<MetricSpec>, String> {
    let list = list
        .and_then(Content::as_seq)
        .ok_or("metric list missing")?;
    list.iter()
        .map(|m| {
            let m = m.as_map().ok_or("metric is not an object")?;
            let field = |k: &str| {
                get(m, k)
                    .and_then(Content::as_str)
                    .map(str::to_owned)
                    .ok_or(format!("metric field `{k}` missing"))
            };
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                better: Better::parse(&field("better")?).ok_or("`better` is not lower/higher")?,
                bound: get(m, "bound").and_then(number),
            })
        })
        .collect()
}

fn parse_contract(json: &str) -> Result<Contract, String> {
    let doc: Content = serde_json::from_str(json).map_err(|e| e.to_string())?;
    let doc = doc.as_map().ok_or("BENCHMARK.json is not an object")?;
    Ok(Contract {
        run_seconds: get(doc, "run_seconds")
            .and_then(number)
            .ok_or("run_seconds missing")? as u64,
        workloads: get(doc, "workloads")
            .and_then(Content::as_seq)
            .ok_or("workloads missing")?
            .iter()
            .filter_map(|w| {
                w.as_map()
                    .and_then(|w| get(w, "name"))
                    .and_then(Content::as_str)
            })
            .map(str::to_owned)
            .collect(),
        end_to_end: metrics(get(doc, "end_to_end"))?,
        per_layer: metrics(get(doc, "per_layer"))?,
    })
}

pub fn contract() -> Contract {
    parse_contract(CONTRACT).expect("the compiled-in BENCHMARK.json parses")
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds of reference time that each cycle spent in `f`'s share.
fn cycle_ms(cycles: &[CycleTimes], f: fn(&CycleTimes) -> u64) -> Vec<f64> {
    cycles.iter().map(|c| c.ms(f(c))).collect()
}

/// Cycles per second at the median cycle time: the closed loop's
/// throughput, robust to the odd cycle a noisy neighbour slows down.
pub fn cycle_rate(cycles: &[CycleTimes]) -> f64 {
    ratio(1e3, median(&cycle_ms(cycles, |c| c.total)))
}

/// The calibration kernel's median wall time over `cycles`, in microseconds.
pub fn calibration_us(cycles: &[CycleTimes]) -> f64 {
    let us: Vec<f64> = cycles
        .iter()
        .map(|c| ratio(REFERENCE_NS, c.scale) / 1e3)
        .collect();
    median(&us)
}

/// The median set-up's `f`, in reference time.
fn setup_median(setups: &[SetupTimes], f: fn(&SetupTimes) -> f64) -> f64 {
    median(&setups.iter().map(|s| f(s) * s.scale).collect::<Vec<_>>())
}

/// The end-to-end metrics of one untraced phase.
pub fn end_to_end(cycles: &[CycleTimes], setups: &[SetupTimes]) -> BTreeMap<String, f64> {
    let ms = |f| cycle_ms(cycles, f);
    let bare: u64 = cycles.iter().map(|c| c.bare).sum();
    let record: u64 = cycles.iter().map(|c| c.record).sum();
    [
        ("setup_s", setup_median(setups, |s| s.total_s)),
        ("cycles_per_s", cycle_rate(cycles)),
        ("record_p50_ms", median(&ms(|c| c.record))),
        ("replay_p50_ms", median(&ms(|c| c.replay))),
        ("record_overhead", record as f64 / bare.max(1) as f64),
        ("peak_rss_mb", peak_rss_mb()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a traced run. Time metrics are span self times
/// summed per traced cycle, then the median over cycles; counters likewise.
/// A layer the workload never calls reads 0.
pub fn per_layer(
    m: &Meter,
    untraced: &[CycleTimes],
    traced: &[CycleTimes],
    setups: &[SetupTimes],
) -> BTreeMap<String, f64> {
    let per_cycle = m.per_cycle();
    let cycles = m.traced_cycles();
    let med = |name: &str| -> f64 {
        let by_cycle = per_cycle.get(name);
        let v: Vec<f64> = cycles
            .iter()
            .map(|c| by_cycle.and_then(|b| b.get(c)).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    };
    let has = |name: &str| per_cycle.contains_key(name);
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: String, v: f64| {
        out.insert(k, v);
    };

    let mut bare_us_all = 0.0;
    for (i, _) in INCIDENTS {
        let run = med(&format!("sim.execute.{i}"));
        let hashed = format!("sim.execute_hashed.{i}");
        let recorded = format!("sim.execute_recorded.{i}");
        bare_us_all += run;
        put(format!("sim.run_us.{i}"), run);
        put(
            format!("sim.decisions.{i}"),
            med(&format!("sim.decisions.{i}")),
        );
        put(
            format!("sim.digest_us.{i}"),
            if has(&hashed) {
                med(&hashed) - run
            } else {
                0.0
            },
        );
        put(
            format!("sim.checkpoint_us.{i}"),
            if has(&recorded) && has(&hashed) {
                med(&recorded) - med(&hashed)
            } else {
                0.0
            },
        );
    }
    for (metric, span) in [
        ("trace.seal_us", "trace.seal"),
        ("trace.render_us", "trace.render"),
        ("trace.write_us", "trace.write"),
        ("trace.read_us", "trace.read"),
        ("trace.parse_us", "trace.parse"),
        ("replay.compare_us", "replay.compare"),
        ("store.offer_us", "store.offer"),
        ("store.offers", "store.offers"),
        ("store.kept", "store.kept"),
        ("store.disk_bytes", "store.disk_bytes"),
        ("store.open_us", "store.open"),
        ("store.load_us", "store.load"),
        ("store.resume_us", "store.resume"),
        ("store.skipped_decisions", "store.skipped_decisions"),
    ] {
        put(metric.to_owned(), med(span));
    }
    put(
        "trace.bytes_per_decision".to_owned(),
        ratio(med("trace.bytes"), med("trace.decisions")),
    );
    put("store.max_gap".to_owned(), m.max_sample("store.max_gap"));

    for &(t, inc, ..) in &WALKS {
        let key = INCIDENTS[inc].0;
        let walk_us = med(&format!("explore.walk.{t}"));
        let explored = med(&format!("explore.interleavings.{t}"));
        let pruned = med(&format!("explore.pruned.{t}"));
        let executed = med(&format!("explore.steps_executed.{t}"));
        let skipped = med(&format!("explore.steps_skipped.{t}"));
        let us_per_step = ratio(
            med(&format!("sim.execute.{key}")),
            med(&format!("sim.steps.{key}")),
        );
        put(format!("explore.walk_ms.{t}"), walk_us / 1e3);
        put(format!("explore.interleavings.{t}"), explored);
        put(format!("explore.pruned.{t}"), pruned);
        put(format!("explore.steps_executed.{t}"), executed);
        put(format!("explore.steps_skipped.{t}"), skipped);
        put(
            format!("explore.prune_ratio.{t}"),
            ratio(pruned, pruned + explored),
        );
        put(
            format!("explore.skip_ratio.{t}"),
            ratio(skipped, skipped + executed),
        );
        put(
            format!("explore.sim_share.{t}"),
            ratio(executed * us_per_step, walk_us),
        );
    }
    for (k, _) in MODELS {
        let record = med(&format!("models.record.{k}"));
        put(format!("models.record_us.{k}"), record);
        put(
            format!("models.replay_us.{k}"),
            med(&format!("models.replay.{k}")),
        );
        put(
            format!("models.artifact_bytes.{k}"),
            med(&format!("models.artifact_bytes.{k}")),
        );
        put(
            format!("models.modeled_overhead.{k}"),
            m.mean_sample(&format!("models.modeled_overhead.{k}")),
        );
        put(
            format!("models.measured_overhead.{k}"),
            ratio(record, bare_us_all),
        );
    }
    for i in ["msgserver", "hyperstore"] {
        put(
            format!("detect.race_analyze_us.{i}"),
            med(&format!("detect.race_analyze.{i}")),
        );
    }
    put(
        "core.train_ms".to_owned(),
        setup_median(setups, |s| s.train_ms),
    );
    put(
        "cli.discover_ms".to_owned(),
        setup_median(setups, |s| s.discover_ms),
    );
    for (op, f) in [
        (
            "record",
            (|c: &CycleTimes| c.record) as fn(&CycleTimes) -> u64,
        ),
        ("replay", |c: &CycleTimes| c.replay),
    ] {
        let t = tail(&cycle_ms(untraced, f));
        put(format!("{op}.tail_ms"), t.value);
        put(format!("{op}.tail_pct"), t.pct);
        put(format!("{op}.samples"), t.n as f64);
    }
    put(
        "bench.tracing_overhead".to_owned(),
        ratio(
            cycle_rate(untraced) - cycle_rate(traced),
            cycle_rate(untraced),
        ),
    );
    let all: Vec<CycleTimes> = untraced.iter().chain(traced).copied().collect();
    put("bench.calibration_us".to_owned(), calibration_us(&all));
    out
}

/// The per-layer self-time table of a traced run: for each span name, its
/// layer, spans per cycle, median self time per cycle and share of the
/// traced cycles' wall time.
pub fn self_time_table(m: &Meter, traced: &[CycleTimes]) -> String {
    let per_cycle = m.per_cycle();
    let cycles = m.traced_cycles();
    let wall_us: f64 = traced.iter().map(|c| c.ms(c.total) * 1e3).sum();
    let counts = m.span_counts();
    let mut rows: Vec<(String, f64, f64)> = counts
        .keys()
        .map(|name| {
            let by_cycle = &per_cycle[name];
            let v: Vec<f64> = cycles
                .iter()
                .map(|c| by_cycle.get(c).copied().unwrap_or(0.0))
                .collect();
            (name.clone(), median(&v), by_cycle.values().sum::<f64>())
        })
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    let mut s = format!(
        "{:<34} {:<10} {:>9} {:>14} {:>7}\n",
        "span", "layer", "n/cycle", "self us/cycle", "share"
    );
    for (name, med_us, total_us) in rows {
        s += &format!(
            "{:<34} {:<10} {:>9.2} {:>14.1} {:>6.1}%\n",
            name,
            layer_of(&name),
            counts[&name] as f64 / cycles.len().max(1) as f64,
            med_us,
            100.0 * ratio(total_us, wall_us),
        );
    }
    s
}

/// `{"name": {"value": v, "unit": u}, ...}` for the declared metrics, in
/// declaration order. Fails on a declared metric the run did not compute.
pub fn metrics_json(
    specs: &[MetricSpec],
    values: &BTreeMap<String, f64>,
) -> Result<Content, String> {
    specs
        .iter()
        .map(|spec| {
            let v = values
                .get(&spec.name)
                .ok_or_else(|| format!("metric `{}` was not computed", spec.name))?;
            Ok((
                text(&spec.name),
                Content::Map(vec![
                    (text("value"), Content::F64(*v)),
                    (text("unit"), text(&spec.unit)),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()
        .map(Content::Map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_declares_exactly_the_metrics_the_run_computes() {
        let c = contract();
        let names = |specs: &[MetricSpec]| {
            let mut v: Vec<String> = specs.iter().map(|m| m.name.clone()).collect();
            v.sort();
            v
        };
        let computed = per_layer(&Meter::new(), &[], &[], &[]);
        assert_eq!(
            names(&c.per_layer),
            computed.keys().cloned().collect::<Vec<_>>()
        );
        assert!(c.per_layer.len() <= 128);
        let computed = end_to_end(&[CycleTimes::default()], &[SetupTimes::default()]);
        assert_eq!(
            names(&c.end_to_end),
            computed.keys().cloned().collect::<Vec<_>>()
        );
        assert!(c
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert_eq!(c.workloads, crate::workloads::WORKLOADS);
    }

    #[test]
    fn a_layer_the_run_never_called_reads_zero() {
        let v = per_layer(&Meter::new(), &[], &[], &[]);
        assert!(v.values().all(|&x| x == 0.0), "{v:?}");
    }
}
