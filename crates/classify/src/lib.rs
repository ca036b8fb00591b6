//! # dd-classify — control/data-plane classification
//!
//! Code-based selection (§3.1.1 of the paper) records control-plane code
//! precisely while relaxing the data plane. The practical discriminator —
//! proposed by Altekar & Stoica, "Focus replay debugging effort on the
//! control plane" (HotDep 2010) and adopted here — is *data rate*: code that
//! moves few bytes per unit time is control plane; code that moves the bulk
//! of the bytes is data plane.
//!
//! This crate profiles a training trace into per-site and per-channel byte
//! rates ([`ProfileReport`]), classifies them against a threshold
//! ([`RateClassifier`] → [`PlaneMap`]), and scores the result against
//! workload ground truth ([`PlaneMap::accuracy`]).

pub mod profile;

pub use profile::{ChanStats, ProfileReport, SiteStats};

use dd_sim::Event;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which plane a site or channel belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Plane {
    /// Manages data flow: low rate, most root causes live here.
    Control,
    /// Moves the bytes: high rate, relaxed recording.
    Data,
}

/// The data-rate classifier.
///
/// Sites/channels moving more than `threshold_bytes_per_kilotick` are
/// classified [`Plane::Data`]; everything else — including sites never seen
/// in training — is conservatively [`Plane::Control`] (unknown code gets the
/// stronger guarantee).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateClassifier {
    /// Data-rate threshold in payload bytes per 1000 execution ticks.
    pub threshold_bytes_per_kilotick: f64,
}

impl Default for RateClassifier {
    fn default() -> Self {
        // Calibrated on the bundled workloads: control-plane RPCs and
        // instrumentation probes run well below this, bulk payload paths an
        // order of magnitude above (see ablation ABL-1 — classification
        // accuracy against ground truth peaks in the 512–1024 range).
        RateClassifier {
            threshold_bytes_per_kilotick: 512.0,
        }
    }
}

impl RateClassifier {
    /// Creates a classifier with an explicit threshold.
    pub fn with_threshold(threshold_bytes_per_kilotick: f64) -> Self {
        RateClassifier {
            threshold_bytes_per_kilotick,
        }
    }

    /// Classifies a profiled run into a [`PlaneMap`].
    pub fn classify(&self, profile: &ProfileReport) -> PlaneMap {
        let mut sites = BTreeMap::new();
        for (site, stats) in &profile.per_site {
            let plane =
                if stats.rate_per_kilotick(profile.duration) > self.threshold_bytes_per_kilotick {
                    Plane::Data
                } else {
                    Plane::Control
                };
            sites.insert(site.clone(), plane);
        }
        let mut chans = BTreeMap::new();
        for (chan, stats) in &profile.per_chan {
            let plane =
                if stats.rate_per_kilotick(profile.duration) > self.threshold_bytes_per_kilotick {
                    Plane::Data
                } else {
                    Plane::Control
                };
            chans.insert(chan.clone(), plane);
        }
        PlaneMap {
            sites,
            chans,
            overrides: BTreeMap::new(),
        }
    }
}

/// The classification result: a plane per site and per channel.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PlaneMap {
    /// Plane per program site.
    pub sites: BTreeMap<String, Plane>,
    /// Plane per channel name.
    pub chans: BTreeMap<String, Plane>,
    /// Manual developer overrides (win over profiled classification).
    pub overrides: BTreeMap<String, Plane>,
}

impl PlaneMap {
    /// Adds a manual override for a site or channel name.
    pub fn with_override(mut self, name: &str, plane: Plane) -> Self {
        self.overrides.insert(name.to_owned(), plane);
        self
    }

    /// Returns the plane of a site (default: control).
    pub fn site_plane(&self, site: &str) -> Plane {
        if let Some(p) = self.overrides.get(site) {
            return *p;
        }
        self.sites.get(site).copied().unwrap_or(Plane::Control)
    }

    /// Returns the plane of a channel name (default: control).
    pub fn chan_plane(&self, chan: &str) -> Plane {
        if let Some(p) = self.overrides.get(chan) {
            return *p;
        }
        self.chans.get(chan).copied().unwrap_or(Plane::Control)
    }

    /// Classifies one event: channel-carried events by their channel,
    /// everything else by its site.
    pub fn event_plane(&self, event: &Event, registry: &dd_sim::Registry) -> Plane {
        match event {
            Event::Send { chan, .. }
            | Event::Recv { chan, .. }
            | Event::SendDropped { chan, .. } => match registry.chans.get(chan.index()) {
                Some(meta) => self.chan_plane(&meta.name),
                None => Plane::Control,
            },
            _ => match event.site() {
                Some(site) => self.site_plane(site),
                // Kernel events (decisions, arrivals) are control.
                None => Plane::Control,
            },
        }
    }

    /// Fraction of sites classified as control plane.
    pub fn control_fraction(&self) -> f64 {
        if self.sites.is_empty() {
            return 1.0;
        }
        let c = self
            .sites
            .values()
            .filter(|&&p| p == Plane::Control)
            .count();
        c as f64 / self.sites.len() as f64
    }

    /// Scores this map against ground-truth `(site prefix, plane)` labels.
    ///
    /// Every classified site matching a prefix is checked; sites matching no
    /// prefix are skipped. Returns `(correct, total)`.
    pub fn accuracy(&self, ground_truth: &[(&str, Plane)]) -> (usize, usize) {
        let mut correct = 0;
        let mut total = 0;
        for (site, &plane) in &self.sites {
            if let Some((_, truth)) = ground_truth
                .iter()
                .find(|(prefix, _)| site.starts_with(prefix))
            {
                total += 1;
                if plane == *truth {
                    correct += 1;
                }
            }
        }
        (correct, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::{EventMeta, TaskId, Trace, Value, VarId};

    /// Builds a trace with one low-rate control site and one high-rate data
    /// site over 1000 ticks.
    fn mixed_trace() -> Trace {
        let mut events = Vec::new();
        // Control: 5 small writes.
        for i in 0..5u64 {
            events.push((
                EventMeta {
                    step: i,
                    time: i * 200,
                },
                Event::Write {
                    task: TaskId(0),
                    var: VarId(0),
                    value: Value::Int(1),
                    site: "master::assign".into(),
                },
            ));
        }
        // Data: 50 large writes.
        for i in 0..50u64 {
            events.push((
                EventMeta {
                    step: 5 + i,
                    time: i * 20,
                },
                Event::Write {
                    task: TaskId(1),
                    var: VarId(1),
                    value: Value::Bytes(vec![0; 512]),
                    site: "server::store".into(),
                },
            ));
        }
        events.push((
            EventMeta {
                step: 60,
                time: 1000,
            },
            Event::Yield {
                task: TaskId(0),
                site: "master::idle".into(),
            },
        ));
        Trace::from(events)
    }

    #[test]
    fn rate_classifier_separates_planes() {
        let profile = ProfileReport::from_trace(&mixed_trace(), &dd_sim::Registry::default());
        let map = RateClassifier::default().classify(&profile);
        assert_eq!(map.site_plane("master::assign"), Plane::Control);
        assert_eq!(map.site_plane("server::store"), Plane::Data);
    }

    #[test]
    fn unknown_sites_default_to_control() {
        let map = PlaneMap::default();
        assert_eq!(map.site_plane("never::seen"), Plane::Control);
        assert_eq!(map.chan_plane("never"), Plane::Control);
    }

    #[test]
    fn overrides_win() {
        let profile = ProfileReport::from_trace(&mixed_trace(), &dd_sim::Registry::default());
        let map = RateClassifier::default()
            .classify(&profile)
            .with_override("server::store", Plane::Control);
        assert_eq!(map.site_plane("server::store"), Plane::Control);
    }

    #[test]
    fn accuracy_scoring() {
        let profile = ProfileReport::from_trace(&mixed_trace(), &dd_sim::Registry::default());
        let map = RateClassifier::default().classify(&profile);
        let truth = [("master::", Plane::Control), ("server::", Plane::Data)];
        let (correct, total) = map.accuracy(&truth);
        assert_eq!(total, 3);
        assert_eq!(correct, 3);
    }

    #[test]
    fn threshold_extremes() {
        let profile = ProfileReport::from_trace(&mixed_trace(), &dd_sim::Registry::default());
        // Threshold 0: everything that moves bytes is data.
        let all_data = RateClassifier::with_threshold(0.0).classify(&profile);
        assert_eq!(all_data.site_plane("master::assign"), Plane::Data);
        // Huge threshold: everything is control.
        let all_ctl = RateClassifier::with_threshold(1e12).classify(&profile);
        assert_eq!(all_ctl.site_plane("server::store"), Plane::Control);
        assert!(all_ctl.control_fraction() > all_data.control_fraction());
    }

    #[test]
    fn plane_map_serde_round_trip() {
        let profile = ProfileReport::from_trace(&mixed_trace(), &dd_sim::Registry::default());
        let map = RateClassifier::default().classify(&profile);
        let s = serde_json::to_string(&map).unwrap();
        assert_eq!(serde_json::from_str::<PlaneMap>(&s).unwrap(), map);
    }
}
