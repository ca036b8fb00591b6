//! Happens-before data-race detection.
//!
//! A vector-clock detector in the Djit+ family: it takes its clocks from
//! the happens-before engine ([`HbClocks`]) and checks every shared access
//! against the variable's last writer and the readers since. Two accesses
//! to the same variable race when at least one is a write and their clocks
//! are incomparable.
//!
//! The detector runs either online (as an [`Observer`]) or offline over a
//! recorded [`Trace`]. Online it is also usable as an RCSE *trigger*: the
//! moment a race is detected, recording fidelity can be dialed up
//! (§3.1.3 of the paper).

use crate::hb::HbClocks;
use crate::vclock::VectorClock;
use dd_sim::{observer_boilerplate, AccessKind, Event, EventMeta, Observer, TaskId, VarId};
use dd_trace::Trace;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One endpoint of a racing pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RaceEndpoint {
    /// The accessing task.
    pub task: TaskId,
    /// Read or write.
    pub kind: AccessKind,
    /// Program site of the access.
    pub site: String,
}

/// A detected data race.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RaceReport {
    /// The variable raced on.
    pub var: VarId,
    /// The earlier access.
    pub first: RaceEndpoint,
    /// The later access (the one that triggered detection).
    pub second: RaceEndpoint,
    /// Step at which the race was detected.
    pub step: u64,
    /// Execution-clock time of detection.
    pub time: u64,
}

#[derive(Debug, Clone, Default)]
struct VarState {
    last_write: Option<(TaskId, String, VectorClock)>,
    /// Reader snapshots since the last write, coalesced per task.
    reads_since: BTreeMap<u32, (String, VectorClock)>,
}

/// The happens-before race detector.
#[derive(Debug, Default)]
pub struct HbRaceDetector {
    hb: HbClocks,
    vars: HashMap<u32, VarState>,
    races: Vec<RaceReport>,
    /// Dedup key: (var, first site, second site).
    seen: HashSet<(u32, String, String)>,
    /// Cost charged per access event when run as an observer (wall ticks).
    pub cost_per_access: u64,
}

impl HbRaceDetector {
    /// Creates a detector with zero observer cost (offline analysis).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a detector charging `cost_per_access` wall ticks per shared
    /// access when run online.
    pub fn with_cost(cost_per_access: u64) -> Self {
        HbRaceDetector {
            cost_per_access,
            ..Self::default()
        }
    }

    /// The races found so far.
    pub fn races(&self) -> &[RaceReport] {
        &self.races
    }

    /// Consumes the detector, returning all race reports.
    pub fn into_races(self) -> Vec<RaceReport> {
        self.races
    }

    /// Returns `true` if any race has been found.
    pub fn found_any(&self) -> bool {
        !self.races.is_empty()
    }

    /// Runs the detector over a full recorded trace.
    pub fn analyze(trace: &Trace) -> Vec<RaceReport> {
        let mut d = HbRaceDetector::new();
        for e in trace.iter() {
            d.handle(&e.meta, &e.event);
        }
        d.into_races()
    }

    /// Processes one event; returns `true` if a *new* race was recorded.
    pub fn handle(&mut self, meta: &EventMeta, event: &Event) -> bool {
        let before = self.races.len();
        self.hb.observe(event);
        match event {
            Event::Read {
                task, var, site, ..
            } => self.check_read(meta, *task, *var, site),
            Event::Write {
                task, var, site, ..
            } => self.check_write(meta, *task, *var, site),
            _ => {}
        }
        self.races.len() > before
    }

    fn check_read(&mut self, meta: &EventMeta, task: TaskId, var: VarId, site: &str) {
        let tvc = self.hb.clock(task).clone();
        let state = self.vars.entry(var.0).or_default();
        if let Some((wt, wsite, wvc)) = &state.last_write {
            if *wt != task && !wvc.leq(&tvc) {
                let report = RaceReport {
                    var,
                    first: RaceEndpoint {
                        task: *wt,
                        kind: AccessKind::Write,
                        site: wsite.clone(),
                    },
                    second: RaceEndpoint {
                        task,
                        kind: AccessKind::Read,
                        site: site.to_owned(),
                    },
                    step: meta.step,
                    time: meta.time,
                };
                let key = (var.0, report.first.site.clone(), report.second.site.clone());
                if self.seen.insert(key) {
                    self.races.push(report);
                }
            }
        }
        state.reads_since.insert(task.0, (site.to_owned(), tvc));
    }

    fn check_write(&mut self, meta: &EventMeta, task: TaskId, var: VarId, site: &str) {
        let tvc = self.hb.clock(task).clone();
        let state = self.vars.entry(var.0).or_default();
        let mut reports = Vec::new();
        if let Some((wt, wsite, wvc)) = &state.last_write {
            if *wt != task && !wvc.leq(&tvc) {
                reports.push(RaceReport {
                    var,
                    first: RaceEndpoint {
                        task: *wt,
                        kind: AccessKind::Write,
                        site: wsite.clone(),
                    },
                    second: RaceEndpoint {
                        task,
                        kind: AccessKind::Write,
                        site: site.to_owned(),
                    },
                    step: meta.step,
                    time: meta.time,
                });
            }
        }
        for (rt, (rsite, rvc)) in &state.reads_since {
            if *rt != task.0 && !rvc.leq(&tvc) {
                reports.push(RaceReport {
                    var,
                    first: RaceEndpoint {
                        task: TaskId(*rt),
                        kind: AccessKind::Read,
                        site: rsite.clone(),
                    },
                    second: RaceEndpoint {
                        task,
                        kind: AccessKind::Write,
                        site: site.to_owned(),
                    },
                    step: meta.step,
                    time: meta.time,
                });
            }
        }
        state.last_write = Some((task, site.to_owned(), tvc));
        state.reads_since.clear();
        for report in reports {
            let key = (var.0, report.first.site.clone(), report.second.site.clone());
            if self.seen.insert(key) {
                self.races.push(report);
            }
        }
    }
}

impl Observer for HbRaceDetector {
    fn name(&self) -> &'static str {
        "hb-race-detector"
    }

    fn on_event(&mut self, meta: &EventMeta, event: &Event) -> u64 {
        self.handle(meta, event);
        match event {
            Event::Read { .. } | Event::Write { .. } => self.cost_per_access,
            _ => 0,
        }
    }

    observer_boilerplate!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::{run_program, Builder, ChanClass, Program, RandomPolicy, RunConfig};

    struct Racy;
    impl Program for Racy {
        fn name(&self) -> &'static str {
            "racy"
        }
        fn setup(&self, b: &mut Builder<'_>) {
            let x = b.var("x", 0i64);
            for i in 0..2 {
                b.spawn(&format!("w{i}"), "g", move |mut ctx| async move {
                    let v = ctx.read(&x, "w::read").await?;
                    ctx.write(&x, v + 1, "w::write").await
                });
            }
        }
    }

    struct LockedProgram;
    impl Program for LockedProgram {
        fn name(&self) -> &'static str {
            "locked"
        }
        fn setup(&self, b: &mut Builder<'_>) {
            let x = b.var("x", 0i64);
            let m = b.mutex("m");
            for i in 0..2 {
                b.spawn(&format!("w{i}"), "g", move |mut ctx| async move {
                    ctx.lock(m, "w::lock").await?;
                    let v = ctx.read(&x, "w::read").await?;
                    ctx.write(&x, v + 1, "w::write").await?;
                    ctx.unlock(m, "w::unlock").await
                });
            }
        }
    }

    struct ChannelProgram;
    impl Program for ChannelProgram {
        fn name(&self) -> &'static str {
            "chan_sync"
        }
        fn setup(&self, b: &mut Builder<'_>) {
            let x = b.var("x", 0i64);
            let ch = b.channel::<i64>("sync", ChanClass::Local);
            b.spawn("producer", "g", move |mut ctx| async move {
                ctx.write(&x, 41, "prod::write").await?;
                ctx.send(&ch, 1, "prod::send").await
            });
            b.spawn("consumer", "g", move |mut ctx| async move {
                ctx.recv(&ch, "cons::recv").await?;
                let v = ctx.read(&x, "cons::read").await?;
                ctx.write(&x, v + 1, "cons::write").await
            });
        }
    }

    fn trace_of(p: &dyn Program, seed: u64) -> Trace {
        let out = run_program(
            p,
            RunConfig::with_seed(seed),
            Box::new(RandomPolicy::new(seed)),
            vec![],
        );
        Trace::from_run(&out)
    }

    #[test]
    fn unsynchronised_accesses_race() {
        let races = HbRaceDetector::analyze(&trace_of(&Racy, 1));
        assert!(!races.is_empty(), "expected a race on x");
        assert!(races.iter().any(|r| r.second.site.starts_with("w::")));
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        for seed in 0..8 {
            let races = HbRaceDetector::analyze(&trace_of(&LockedProgram, seed));
            assert!(races.is_empty(), "seed {seed}: false positive {races:?}");
        }
    }

    #[test]
    fn channel_sync_orders_accesses() {
        for seed in 0..8 {
            let races = HbRaceDetector::analyze(&trace_of(&ChannelProgram, seed));
            assert!(races.is_empty(), "seed {seed}: false positive {races:?}");
        }
    }

    #[test]
    fn online_detection_matches_offline() {
        let out = run_program(
            &Racy,
            RunConfig::with_seed(3),
            Box::new(RandomPolicy::new(3)),
            vec![Box::new(HbRaceDetector::new())],
        );
        let online = out.observer::<HbRaceDetector>().unwrap();
        let offline = HbRaceDetector::analyze(&Trace::from_run(&out));
        assert_eq!(online.races(), offline.as_slice());
    }

    #[test]
    fn spawn_edge_prevents_false_positive() {
        struct SpawnSync;
        impl Program for SpawnSync {
            fn name(&self) -> &'static str {
                "spawn_sync"
            }
            fn setup(&self, b: &mut Builder<'_>) {
                let x = b.var("x", 0i64);
                b.spawn("parent", "g", move |mut ctx| async move {
                    ctx.write(&x, 7, "parent::write").await?;
                    ctx.spawn("child", "g", move |mut cctx| async move {
                        let _ = cctx.read(&x, "child::read").await?;
                        Ok(())
                    })
                    .await?;
                    Ok(())
                });
            }
        }
        for seed in 0..8 {
            let races = HbRaceDetector::analyze(&trace_of(&SpawnSync, seed));
            assert!(
                races.is_empty(),
                "seed {seed}: spawn edge missing {races:?}"
            );
        }
    }

    #[test]
    fn join_edge_prevents_false_positive() {
        struct JoinSync;
        impl Program for JoinSync {
            fn name(&self) -> &'static str {
                "join_sync"
            }
            fn setup(&self, b: &mut Builder<'_>) {
                let x = b.var("x", 0i64);
                b.spawn("parent", "g", move |mut ctx| async move {
                    let child = ctx
                        .spawn("child", "g", move |mut cctx| async move {
                            cctx.write(&x, 9, "child::write").await
                        })
                        .await?;
                    ctx.join(child, "parent::join").await?;
                    let _ = ctx.read(&x, "parent::read").await?;
                    Ok(())
                });
            }
        }
        for seed in 0..8 {
            let races = HbRaceDetector::analyze(&trace_of(&JoinSync, seed));
            assert!(races.is_empty(), "seed {seed}: join edge missing {races:?}");
        }
    }

    #[test]
    fn races_are_deduplicated_by_site_pair() {
        struct ManyRaces;
        impl Program for ManyRaces {
            fn name(&self) -> &'static str {
                "many"
            }
            fn setup(&self, b: &mut Builder<'_>) {
                let x = b.var("x", 0i64);
                for i in 0..2 {
                    b.spawn(&format!("w{i}"), "g", move |mut ctx| async move {
                        for _ in 0..50 {
                            let v = ctx.read(&x, "w::read").await?;
                            ctx.write(&x, v + 1, "w::write").await?;
                        }
                        Ok(())
                    });
                }
            }
        }
        let races = HbRaceDetector::analyze(&trace_of(&ManyRaces, 1));
        // At most a handful of distinct site pairs, not hundreds of reports.
        assert!(!races.is_empty());
        assert!(
            races.len() <= 4,
            "expected deduped reports, got {}",
            races.len()
        );
    }
}
