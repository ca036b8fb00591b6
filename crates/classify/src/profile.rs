//! Data-rate profiling: per-site and per-channel traffic statistics.

use dd_sim::{Event, Registry, Trace};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Traffic statistics for one program site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteStats {
    /// Events observed at this site.
    pub records: u64,
    /// Payload bytes moved at this site.
    pub bytes: u64,
}

impl SiteStats {
    /// Bytes per 1000 execution ticks over a run of `duration` ticks.
    pub fn rate_per_kilotick(&self, duration: u64) -> f64 {
        if duration == 0 {
            return self.bytes as f64 * 1000.0;
        }
        self.bytes as f64 * 1000.0 / duration as f64
    }
}

/// Traffic statistics for one channel.
pub type ChanStats = SiteStats;

/// A profiled run: traffic per site and per channel, plus run duration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Per-site traffic.
    pub per_site: BTreeMap<String, SiteStats>,
    /// Per-channel traffic (keyed by channel name).
    pub per_chan: BTreeMap<String, ChanStats>,
    /// Execution-clock duration of the profiled run.
    pub duration: u64,
}

impl ProfileReport {
    /// Profiles a recorded trace.
    ///
    /// Channel names resolve through `registry`; if the registry is empty
    /// (unit tests), channel traffic is keyed by channel id.
    pub fn from_trace(trace: &Trace, registry: &Registry) -> Self {
        let mut report = ProfileReport {
            duration: trace.duration(),
            ..Default::default()
        };
        for (_, event) in trace {
            let bytes = event.payload_bytes();
            if let Some(site) = event.site() {
                let s = report.per_site.entry(site.to_owned()).or_default();
                s.records += 1;
                s.bytes += bytes;
            }
            if let Event::Send { chan, .. }
            | Event::Recv { chan, .. }
            | Event::SendDropped { chan, .. } = event
            {
                let name = registry
                    .chans
                    .get(chan.index())
                    .map(|c| c.name.clone())
                    .unwrap_or_else(|| format!("{chan}"));
                let s = report.per_chan.entry(name).or_default();
                s.records += 1;
                s.bytes += bytes;
            }
        }
        report
    }

    /// Merges several profiled runs (training over multiple executions).
    pub fn merge(reports: &[ProfileReport]) -> ProfileReport {
        let mut out = ProfileReport::default();
        for r in reports {
            out.duration += r.duration;
            for (k, v) in &r.per_site {
                let s = out.per_site.entry(k.clone()).or_default();
                s.records += v.records;
                s.bytes += v.bytes;
            }
            for (k, v) in &r.per_chan {
                let s = out.per_chan.entry(k.clone()).or_default();
                s.records += v.records;
                s.bytes += v.bytes;
            }
        }
        out
    }

    /// Total bytes profiled across all sites.
    pub fn total_bytes(&self) -> u64 {
        self.per_site.values().map(|s| s.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::{EventMeta, TaskId, Value, VarId};

    fn trace() -> Trace {
        Trace::from(vec![
            (
                EventMeta { step: 0, time: 0 },
                Event::Write {
                    task: TaskId(0),
                    var: VarId(0),
                    value: Value::Bytes(vec![0; 96]),
                    site: "data::w".into(),
                },
            ),
            (
                EventMeta { step: 1, time: 500 },
                Event::Write {
                    task: TaskId(0),
                    var: VarId(1),
                    value: Value::Int(1),
                    site: "ctl::w".into(),
                },
            ),
            (
                EventMeta {
                    step: 2,
                    time: 1000,
                },
                Event::Send {
                    task: TaskId(0),
                    chan: dd_sim::ChanId(0),
                    value: Value::Bytes(vec![0; 50]),
                    site: "data::send".into(),
                },
            ),
        ])
    }

    #[test]
    fn per_site_aggregation() {
        let r = ProfileReport::from_trace(&trace(), &Registry::default());
        assert_eq!(r.per_site["data::w"].bytes, 100);
        assert_eq!(r.per_site["ctl::w"].bytes, 8);
        assert_eq!(r.duration, 1000);
    }

    #[test]
    fn channel_traffic_keyed_by_id_without_registry() {
        let r = ProfileReport::from_trace(&trace(), &Registry::default());
        assert_eq!(r.per_chan["ch0"].records, 1);
        assert_eq!(r.per_chan["ch0"].bytes, 54);
    }

    #[test]
    fn rates_scale_with_duration() {
        let s = SiteStats {
            records: 1,
            bytes: 500,
        };
        assert!((s.rate_per_kilotick(1000) - 500.0).abs() < 1e-9);
        assert!((s.rate_per_kilotick(2000) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let a = ProfileReport::from_trace(&trace(), &Registry::default());
        let merged = ProfileReport::merge(&[a.clone(), a.clone()]);
        assert_eq!(merged.per_site["data::w"].bytes, 200);
        assert_eq!(merged.duration, 2000);
        assert_eq!(merged.total_bytes(), 2 * a.total_bytes());
    }
}
