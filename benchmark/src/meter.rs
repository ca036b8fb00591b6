//! Timing, tracing and failure accounting for one benchmark run.
//!
//! Every cycle's operations are timed by kind ([`Op`]); that is all an
//! untraced run records. A traced run additionally keeps a span around each
//! call into a library layer (name, layer, start, end, parent span, cycle)
//! plus per-cycle counters, all in memory until the run ends.

use crate::calib;
use dd_sim::{SnapshotSink, WorldSnapshot};
use serde::Content;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The user-visible operations a cycle is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The uninstrumented baseline run (`Scenario::execute`).
    Bare,
    /// Producing a debugging artifact (trace, store, model recording).
    Record,
    /// Consuming it (replay, restore, search).
    Replay,
}

/// Wall time one cycle spent per operation kind, in nanoseconds, and the
/// factor that turns it into reference time (see `calib.rs`).
#[derive(Debug, Default, Clone, Copy)]
pub struct CycleTimes {
    pub bare: u64,
    pub record: u64,
    pub replay: u64,
    pub total: u64,
    pub scale: f64,
}

impl CycleTimes {
    /// `ns` measured in this cycle, as milliseconds of reference time.
    pub fn ms(&self, ns: u64) -> f64 {
        ns as f64 * self.scale / 1e6
    }
}

/// One traced call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cycle: u64,
}

/// The crate a span name belongs to, from its prefix.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "sim" => "dd-sim",
        "trace" | "store" => "dd-trace",
        "replay" | "explore" | "models" => "dd-replay",
        "detect" => "dd-detect",
        "core" => "dd-core",
        "cli" => "dd-cli",
        _ => "ddbench",
    }
}

/// Failure messages kept per run (the count is kept in full).
const MAX_FAILURE_MESSAGES: usize = 20;

/// The calibration kernel runs at the start of every cycle and, within a
/// cycle, before an operation once this long has passed since it last ran:
/// long cycles are calibrated along their length, at a bounded cost.
const CALIBRATE_EVERY: Duration = Duration::from_millis(20);

pub struct Meter {
    epoch: Instant,
    traced: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    samples: Vec<(String, u64, f64)>,
    /// Each traced cycle's scale to reference time.
    scales: BTreeMap<u64, f64>,
    cycle: u64,
    cycle_start: Option<Instant>,
    current: CycleTimes,
    /// The current cycle's calibrations: kernel time summed and count.
    calibrated_ns: u64,
    calibrations: u64,
    /// Kernel time spent inside the current cycle, left out of its total.
    calibrated_inside_ns: u64,
    last_calibration: Instant,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Deterministic counters by workload op, collected by `ddbench check`.
    pub counters: Option<BTreeMap<String, Content>>,
}

impl Meter {
    pub fn new() -> Self {
        Meter {
            epoch: Instant::now(),
            traced: false,
            spans: Vec::new(),
            open: Vec::new(),
            samples: Vec::new(),
            scales: BTreeMap::new(),
            cycle: 0,
            cycle_start: None,
            current: CycleTimes::default(),
            calibrated_ns: 0,
            calibrations: 0,
            calibrated_inside_ns: 0,
            last_calibration: Instant::now(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            counters: None,
        }
    }

    pub fn set_traced(&mut self, traced: bool) {
        self.traced = traced;
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs the calibration kernel and returns its time.
    fn calibrate(&mut self) -> u64 {
        let ns = calib::kernel_ns();
        self.calibrated_ns += ns;
        self.calibrations += 1;
        self.last_calibration = Instant::now();
        ns
    }

    pub fn begin_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
        self.current = CycleTimes::default();
        self.calibrated_ns = 0;
        self.calibrations = 0;
        self.calibrated_inside_ns = 0;
        self.calibrate();
        self.cycle_start = Some(Instant::now());
    }

    pub fn end_cycle(&mut self) -> CycleTimes {
        let start = self
            .cycle_start
            .take()
            .expect("end_cycle after begin_cycle");
        self.current.total =
            (start.elapsed().as_nanos() as u64).saturating_sub(self.calibrated_inside_ns);
        self.current.scale =
            calib::REFERENCE_NS * self.calibrations as f64 / self.calibrated_ns as f64;
        if self.traced {
            self.scales.insert(self.cycle, self.current.scale);
        }
        // Spans a panicking cycle left open end here.
        let now = self.now_ns();
        for id in std::mem::take(&mut self.open) {
            self.spans[id].end_ns = now;
        }
        self.current
    }

    /// Times one operation of the cycle. Record and replay operations count
    /// as attempted; bare runs are the baseline, not an operation.
    pub fn op<T>(&mut self, kind: Op, f: impl FnOnce(&mut Meter) -> T) -> T {
        if kind != Op::Bare {
            self.attempted += 1;
        }
        let name = match kind {
            Op::Bare => "op.bare",
            Op::Record => "op.record",
            Op::Replay => "op.replay",
        };
        if self.last_calibration.elapsed() >= CALIBRATE_EVERY {
            self.calibrated_inside_ns += self.calibrate();
        }
        let start = Instant::now();
        let out = self.span(name, f);
        let ns = start.elapsed().as_nanos() as u64;
        match kind {
            Op::Bare => self.current.bare += ns,
            Op::Record => self.current.record += ns,
            Op::Replay => self.current.replay += ns,
        }
        out
    }

    /// Runs `f` inside a span named `name` when tracing; runs it bare
    /// otherwise.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Meter) -> T) -> T {
        if !self.traced {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            cycle: self.cycle,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a per-cycle counter for the per-layer report (traced runs only).
    pub fn sample(&mut self, name: &str, value: f64) {
        if self.traced {
            self.samples.push((name.to_owned(), self.cycle, value));
        }
    }

    /// Counts one failed operation unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(what);
        }
    }

    /// Records deterministic counters of one op when `ddbench check` asked
    /// for them; `build` only runs then. A repeat of the op must reproduce
    /// them exactly.
    pub fn record_counters(
        &mut self,
        key: String,
        build: impl FnOnce() -> Vec<(&'static str, Content)>,
    ) {
        let Some(c) = self.counters.as_mut() else {
            return;
        };
        let fields = Content::Map(
            build()
                .into_iter()
                .map(|(k, v)| (crate::report::text(k), v))
                .collect(),
        );
        if let Some(first) = c.get(&key) {
            let same = *first == fields;
            self.expect(same, || format!("{key}: a repeat changed its counters"));
        } else {
            c.insert(key, fields);
        }
    }

    /// A snapshot sink that times each offer into this meter, when tracing.
    pub fn wrap_sink(
        &self,
        inner: Box<dyn SnapshotSink>,
    ) -> (Box<dyn SnapshotSink>, Option<Offers>) {
        if !self.traced {
            return (inner, None);
        }
        let log = Offers::default();
        let sink = TimedSink {
            inner,
            log: log.clone(),
        };
        (Box::new(sink), Some(log))
    }

    /// Turns the offers a [`TimedSink`] logged into `store.offer` spans under
    /// the currently open span.
    pub fn absorb_offers(&mut self, offers: Offers) {
        let log = std::mem::take(&mut *offers.0.lock().expect("offer log lock"));
        let kept = log.iter().filter(|o| o.2).count();
        for (start, end, _) in &log {
            let at = |t: &Instant| t.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name: "store.offer".to_owned(),
                start_ns: at(start),
                end_ns: at(end),
                parent: self.open.last().copied(),
                cycle: self.cycle,
            });
        }
        self.sample("store.offers", log.len() as f64);
        self.sample("store.kept", kept as f64);
    }

    fn samples_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.samples
            .iter()
            .filter(move |s| s.0 == name)
            .map(|s| s.2)
    }

    /// The largest sample recorded under `name` (0 when none).
    pub fn max_sample(&self, name: &str) -> f64 {
        self.samples_of(name).fold(0.0, f64::max)
    }

    /// The mean of the samples recorded under `name` (0 when none).
    pub fn mean_sample(&self, name: &str) -> f64 {
        let (n, sum) = self
            .samples_of(name)
            .fold((0usize, 0.0), |(n, s), v| (n + 1, s + v));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// How many spans carry each name.
    pub fn span_counts(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name.clone()).or_default() += 1;
        }
        out
    }

    /// Traced cycles, in order.
    pub fn traced_cycles(&self) -> Vec<u64> {
        let mut c: Vec<u64> = self.spans.iter().map(|s| s.cycle).collect();
        c.dedup();
        c
    }

    /// Self time (duration minus the time child spans cover) of every span,
    /// in nanoseconds, aligned with the span list.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per-cycle sums by name: span self times in microseconds of reference
    /// time and counter samples as recorded.
    pub fn per_cycle(&self) -> BTreeMap<String, BTreeMap<u64, f64>> {
        let mut out: BTreeMap<String, BTreeMap<u64, f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            let scale = self.scales.get(&s.cycle).copied().unwrap_or(1.0);
            *out.entry(s.name.clone())
                .or_default()
                .entry(s.cycle)
                .or_default() += ns as f64 * scale / 1e3;
        }
        for (name, cycle, v) in &self.samples {
            *out.entry(name.clone())
                .or_default()
                .entry(*cycle)
                .or_default() += v;
        }
        out
    }

    /// The spans as a JSON document (`--spans FILE`).
    pub fn spans_json(&self) -> Content {
        let s = crate::report::text;
        Content::Seq(
            self.spans
                .iter()
                .map(|sp| {
                    Content::Map(vec![
                        (s("name"), s(&sp.name)),
                        (s("layer"), s(layer_of(&sp.name))),
                        (s("start_ns"), Content::U64(sp.start_ns)),
                        (s("end_ns"), Content::U64(sp.end_ns)),
                        (
                            s("parent"),
                            sp.parent.map_or(Content::Null, |p| Content::U64(p as u64)),
                        ),
                        (s("cycle"), Content::U64(sp.cycle)),
                    ])
                })
                .collect(),
        )
    }
}

/// Offer log shared between a [`TimedSink`] (owned by the run) and the
/// meter: start, end, and whether the store kept the snapshot.
#[derive(Clone, Default)]
pub struct Offers(Arc<Mutex<Vec<(Instant, Instant, bool)>>>);

/// Times every offer the kernel makes to the wrapped snapshot sink.
struct TimedSink {
    inner: Box<dyn SnapshotSink>,
    log: Offers,
}

impl SnapshotSink for TimedSink {
    fn offer(&mut self, snap: &WorldSnapshot) -> Result<Option<u64>, String> {
        let start = Instant::now();
        let r = self.inner.offer(snap);
        let kept = matches!(r, Ok(Some(_)));
        self.log
            .0
            .lock()
            .expect("offer log lock")
            .push((start, Instant::now(), kept));
        r
    }
}
