//! Eraser-style lockset race detection.
//!
//! The classic low-overhead approximate detector: each shared variable keeps
//! a *candidate lockset* — the locks held at every access so far,
//! intersected. If the candidate set becomes empty while the variable is
//! write-shared, a potential race is reported. Unlike happens-before
//! detection this needs no vector clocks, which is why the paper's §3.1.3
//! proposes detectors of this class as cheap always-on triggers.

use dd_sim::{observer_boilerplate, Event, EventMeta, Observer, TaskId, Trace, VarId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// Eraser's per-variable state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VarMode {
    /// Never accessed.
    Virgin,
    /// Only one task has touched it.
    Exclusive,
    /// Multiple tasks, reads only since sharing began.
    Shared,
    /// Multiple tasks with at least one write: lockset violations report.
    SharedModified,
}

/// A potential race flagged by the lockset discipline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocksetWarning {
    /// The variable.
    pub var: VarId,
    /// The access that emptied the candidate set.
    pub task: TaskId,
    /// Site of that access.
    pub site: String,
    /// Step at which it was flagged.
    pub step: u64,
}

#[derive(Debug, Clone)]
struct VarLockState {
    mode: VarMode,
    owner: Option<TaskId>,
    candidates: Option<BTreeSet<u32>>,
    reported: bool,
}

impl Default for VarLockState {
    fn default() -> Self {
        VarLockState {
            mode: VarMode::Virgin,
            owner: None,
            candidates: None,
            reported: false,
        }
    }
}

/// The lockset detector.
#[derive(Debug, Default)]
pub struct LocksetDetector {
    held: HashMap<u32, BTreeSet<u32>>,
    vars: HashMap<u32, VarLockState>,
    warnings: Vec<LocksetWarning>,
    /// Wall ticks charged per shared access when run online. The default 0
    /// models a sampled hardware-assisted detector (DataCollider-style).
    pub cost_per_access: u64,
}

impl LocksetDetector {
    /// Creates a detector with zero online cost.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a detector charging `cost_per_access` per shared access.
    pub fn with_cost(cost_per_access: u64) -> Self {
        LocksetDetector {
            cost_per_access,
            ..Self::default()
        }
    }

    /// Warnings so far.
    pub fn warnings(&self) -> &[LocksetWarning] {
        &self.warnings
    }

    /// Returns `true` if anything has been flagged.
    pub fn found_any(&self) -> bool {
        !self.warnings.is_empty()
    }

    /// Runs the detector over a recorded trace.
    pub fn analyze(trace: &Trace) -> Vec<LocksetWarning> {
        let mut d = LocksetDetector::new();
        for (meta, event) in trace {
            d.handle(meta, event);
        }
        d.warnings
    }

    /// Processes one event; returns `true` if a *new* warning was recorded.
    pub fn handle(&mut self, meta: &EventMeta, event: &Event) -> bool {
        let before = self.warnings.len();
        match event {
            Event::LockAcquire { task, lock, .. } => {
                self.held.entry(task.0).or_default().insert(lock.0);
            }
            Event::LockRelease { task, lock, .. } => {
                if let Some(h) = self.held.get_mut(&task.0) {
                    h.remove(&lock.0);
                }
            }
            Event::Read {
                task, var, site, ..
            } => {
                self.access(meta, *task, *var, site, false);
            }
            Event::Write {
                task, var, site, ..
            } => {
                self.access(meta, *task, *var, site, true);
            }
            _ => {}
        }
        self.warnings.len() > before
    }

    fn access(&mut self, meta: &EventMeta, task: TaskId, var: VarId, site: &str, write: bool) {
        let held = self.held.get(&task.0).cloned().unwrap_or_default();
        let state = self.vars.entry(var.0).or_default();
        match state.mode {
            VarMode::Virgin => {
                state.mode = VarMode::Exclusive;
                state.owner = Some(task);
            }
            VarMode::Exclusive => {
                if state.owner != Some(task) {
                    state.mode = if write {
                        VarMode::SharedModified
                    } else {
                        VarMode::Shared
                    };
                    state.candidates = Some(held.clone());
                }
            }
            VarMode::Shared => {
                let c = state.candidates.get_or_insert_with(|| held.clone());
                *c = c.intersection(&held).copied().collect();
                if write {
                    state.mode = VarMode::SharedModified;
                }
            }
            VarMode::SharedModified => {
                let c = state.candidates.get_or_insert_with(|| held.clone());
                *c = c.intersection(&held).copied().collect();
            }
        }
        if state.mode == VarMode::SharedModified
            && state.candidates.as_ref().is_some_and(BTreeSet::is_empty)
            && !state.reported
        {
            state.reported = true;
            self.warnings.push(LocksetWarning {
                var,
                task,
                site: site.to_owned(),
                step: meta.step,
            });
        }
    }
}

impl Observer for LocksetDetector {
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
    use dd_sim::{run_program, Builder, Program, RandomPolicy, RunConfig};

    struct Unlocked;
    impl Program for Unlocked {
        fn name(&self) -> &'static str {
            "unlocked"
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

    struct Locked;
    impl Program for Locked {
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

    fn trace_of(p: &dyn Program, seed: u64) -> Trace {
        let out = run_program(
            p,
            RunConfig::with_seed(seed),
            Box::new(RandomPolicy::new(seed)),
            vec![],
        );
        out.trace
    }

    #[test]
    fn unlocked_sharing_is_flagged() {
        let warnings = LocksetDetector::analyze(&trace_of(&Unlocked, 1));
        assert_eq!(warnings.len(), 1, "one warning per variable");
    }

    #[test]
    fn consistent_locking_passes() {
        for seed in 0..8 {
            let warnings = LocksetDetector::analyze(&trace_of(&Locked, seed));
            assert!(warnings.is_empty(), "seed {seed}: {warnings:?}");
        }
    }

    #[test]
    fn exclusive_access_never_flagged() {
        struct Solo;
        impl Program for Solo {
            fn name(&self) -> &'static str {
                "solo"
            }
            fn setup(&self, b: &mut Builder<'_>) {
                let x = b.var("x", 0i64);
                b.spawn("only", "g", move |mut ctx| async move {
                    for _ in 0..10 {
                        let v = ctx.read(&x, "only::read").await?;
                        ctx.write(&x, v + 1, "only::write").await?;
                    }
                    Ok(())
                });
            }
        }
        assert!(LocksetDetector::analyze(&trace_of(&Solo, 1)).is_empty());
    }

    #[test]
    fn read_sharing_without_writes_passes() {
        struct Readers;
        impl Program for Readers {
            fn name(&self) -> &'static str {
                "readers"
            }
            fn setup(&self, b: &mut Builder<'_>) {
                let x = b.var("x", 42i64);
                for i in 0..3 {
                    b.spawn(&format!("r{i}"), "g", move |mut ctx| async move {
                        let _ = ctx.read(&x, "r::read").await?;
                        Ok(())
                    });
                }
            }
        }
        assert!(LocksetDetector::analyze(&trace_of(&Readers, 1)).is_empty());
    }

    #[test]
    fn lockset_is_cheaper_than_precise_detection_but_approximate() {
        // The lockset discipline flags consistent-lock programs never, and
        // unlocked write-sharing always — even when the particular
        // interleaving happened to be race-free, which is what makes it a
        // *potential-bug* detector (a trigger, not a verdict).
        let warnings = LocksetDetector::analyze(&trace_of(&Unlocked, 2));
        assert!(!warnings.is_empty());
    }
}
