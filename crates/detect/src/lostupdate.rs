//! Lost-update detection: interleaving analysis for read-modify-write
//! races.
//!
//! A *lost update* happens when task A reads a variable, task B writes it,
//! and A then writes back a value computed from its stale read — B's write
//! vanishes. This is the second manifestation of Hypertable issue 63 (a
//! migration's index partition clobbered by a concurrent commit, or vice
//! versa), and a generally useful root-cause predicate building block.

use dd_sim::{Event, Registry, TaskId, Trace, VarId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One detected lost update.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LostUpdate {
    /// The variable.
    pub var: VarId,
    /// The variable's name (empty if the registry does not know it).
    pub var_name: String,
    /// The task whose stale write clobbered another's.
    pub writer: TaskId,
    /// The task whose intermediate write was lost.
    pub overwritten: TaskId,
    /// Step of the clobbering write.
    pub step: u64,
}

/// Scans a trace for lost updates on variables accepted by `name_filter`.
pub fn lost_updates(
    trace: &Trace,
    registry: &Registry,
    name_filter: impl Fn(&str) -> bool,
) -> Vec<LostUpdate> {
    // Per variable: each task's pending read step, and writes since.
    #[derive(Default)]
    struct VarState {
        pending_reads: HashMap<u32, u64>,
        writes: Vec<(TaskId, u64)>,
    }
    let mut vars: HashMap<u32, VarState> = HashMap::new();
    let mut out = Vec::new();

    let var_name =
        |v: VarId| -> String { registry.vars.get(v.index()).cloned().unwrap_or_default() };

    for (meta, event) in trace {
        match event {
            Event::Read { task, var, .. } => {
                if !name_filter(&var_name(*var)) {
                    continue;
                }
                vars.entry(var.0)
                    .or_default()
                    .pending_reads
                    .insert(task.0, meta.step);
            }
            Event::Write { task, var, .. } => {
                if !name_filter(&var_name(*var)) {
                    continue;
                }
                let st = vars.entry(var.0).or_default();
                if let Some(&read_step) = st.pending_reads.get(&task.0) {
                    // Any other task's write between this task's read and
                    // this write is clobbered.
                    if let Some(&(victim, _)) = st
                        .writes
                        .iter()
                        .find(|(w, s)| *w != *task && *s > read_step && *s < meta.step)
                    {
                        out.push(LostUpdate {
                            var: *var,
                            var_name: var_name(*var),
                            writer: *task,
                            overwritten: victim,
                            step: meta.step,
                        });
                    }
                }
                st.pending_reads.remove(&task.0);
                st.writes.push((*task, meta.step));
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::{EventMeta, Value};

    fn ev(step: u64, event: Event) -> (EventMeta, Event) {
        (EventMeta { step, time: step }, event)
    }

    fn read(step: u64, task: u32, var: u32) -> (EventMeta, Event) {
        ev(
            step,
            Event::Read {
                task: TaskId(task),
                var: VarId(var),
                value: Value::Int(0),
                site: "s".into(),
            },
        )
    }

    fn write(step: u64, task: u32, var: u32) -> (EventMeta, Event) {
        ev(
            step,
            Event::Write {
                task: TaskId(task),
                var: VarId(var),
                value: Value::Int(1),
                site: "s".into(),
            },
        )
    }

    fn registry_with_var() -> Registry {
        Registry {
            vars: vec!["x".into()],
            ..Registry::default()
        }
    }

    #[test]
    fn interleaved_rmw_is_flagged() {
        // A reads, B writes, A writes → B's write lost.
        let trace = Trace::from(vec![read(0, 0, 0), write(1, 1, 0), write(2, 0, 0)]);
        let lu = lost_updates(&trace, &registry_with_var(), |_| true);
        assert_eq!(lu.len(), 1);
        assert_eq!(lu[0].writer, TaskId(0));
        assert_eq!(lu[0].overwritten, TaskId(1));
    }

    #[test]
    fn serialized_rmw_is_clean() {
        // A: read, write; then B: read, write — no interleaving.
        let trace = Trace::from(vec![
            read(0, 0, 0),
            write(1, 0, 0),
            read(2, 1, 0),
            write(3, 1, 0),
        ]);
        assert!(lost_updates(&trace, &registry_with_var(), |_| true).is_empty());
    }

    #[test]
    fn same_task_interleaving_is_not_a_lost_update() {
        let trace = Trace::from(vec![read(0, 0, 0), write(1, 0, 0), write(2, 0, 0)]);
        assert!(lost_updates(&trace, &registry_with_var(), |_| true).is_empty());
    }

    #[test]
    fn name_filter_limits_scope() {
        let trace = Trace::from(vec![read(0, 0, 0), write(1, 1, 0), write(2, 0, 0)]);
        assert!(lost_updates(&trace, &registry_with_var(), |n| n == "y").is_empty());
        assert_eq!(
            lost_updates(&trace, &registry_with_var(), |n| n == "x").len(),
            1
        );
    }
}
