//! Root causes as predicates — the paper's §3 formalisation.
//!
//! > "Let P be the predicate on the program state that constrains the
//! > execution — according to the fix — to produce correct output. The root
//! > cause is the negation of predicate P."
//!
//! A [`RootCause`] names one deviation-from-perfect-implementation that can
//! produce a given failure, with a trace predicate that decides whether a
//! *particular execution* exhibits it. Workloads declare every known
//! potential root cause for each failure; the count is the `n` in the
//! debugging-fidelity value `1/n` (§3.2), and a *fixed* program variant
//! (where P always holds) validates that the predicate corresponds to a
//! real fix.

use dd_sim::{IoSummary, Registry};
use dd_trace::Trace;
use std::sync::Arc;

/// Everything a cause predicate may inspect about one execution.
pub struct CauseCtx<'a> {
    /// The execution's full trace.
    pub trace: &'a Trace,
    /// Name tables.
    pub registry: &'a Registry,
    /// Observable behaviour.
    pub io: &'a IoSummary,
}

/// Decides whether an execution exhibits a root cause.
pub type CausePredicate = Arc<dyn Fn(&CauseCtx<'_>) -> bool + Send + Sync>;

/// One potential root cause of a failure.
#[derive(Clone)]
pub struct RootCause {
    /// Stable identifier (e.g. `"migration-commit-race"`).
    pub id: &'static str,
    /// Human-readable description of the deviation.
    pub description: &'static str,
    /// The failure this cause can explain (a [`Spec`](crate::Spec)
    /// `failure_id`).
    pub failure_id: &'static str,
    /// Whether this execution exhibits the cause.
    pub predicate: CausePredicate,
}

impl RootCause {
    /// Creates a root cause.
    pub fn new(
        id: &'static str,
        failure_id: &'static str,
        description: &'static str,
        predicate: impl Fn(&CauseCtx<'_>) -> bool + Send + Sync + 'static,
    ) -> Self {
        RootCause {
            id,
            description,
            failure_id,
            predicate: Arc::new(predicate),
        }
    }

    /// Evaluates the predicate on an execution.
    pub fn active_in(&self, ctx: &CauseCtx<'_>) -> bool {
        (self.predicate)(ctx)
    }
}

impl core::fmt::Debug for RootCause {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RootCause")
            .field("id", &self.id)
            .field("failure_id", &self.failure_id)
            .finish()
    }
}

/// Returns the ids of all causes active in an execution.
pub fn active_causes<'a>(causes: &'a [RootCause], ctx: &CauseCtx<'_>) -> Vec<&'a RootCause> {
    causes.iter().filter(|c| c.active_in(ctx)).collect()
}

/// Returns the causes that can explain the given failure id.
pub fn causes_for<'a>(causes: &'a [RootCause], failure_id: &str) -> Vec<&'a RootCause> {
    causes
        .iter()
        .filter(|c| c.failure_id == failure_id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::Event;

    fn ctx_with_crash<'a>(
        trace: &'a Trace,
        registry: &'a Registry,
        io: &'a IoSummary,
    ) -> CauseCtx<'a> {
        CauseCtx {
            trace,
            registry,
            io,
        }
    }

    #[test]
    fn predicates_evaluate_on_traces() {
        let cause = RootCause::new("crashy", "f1", "task crashed", |ctx| {
            ctx.trace.any(|e| matches!(e, Event::Crash { .. }))
        });
        let empty = Trace::default();
        let registry = Registry::default();
        let io = IoSummary::default();
        assert!(!cause.active_in(&ctx_with_crash(&empty, &registry, &io)));

        let crashing = Trace::from(vec![(
            dd_sim::EventMeta { step: 0, time: 0 },
            Event::Crash {
                task: dd_sim::TaskId(0),
                reason: "x".into(),
                site: "s".into(),
            },
        )]);
        assert!(cause.active_in(&ctx_with_crash(&crashing, &registry, &io)));
    }

    #[test]
    fn filtering_by_failure_id() {
        let causes = vec![
            RootCause::new("a", "f1", "", |_| true),
            RootCause::new("b", "f1", "", |_| false),
            RootCause::new("c", "f2", "", |_| true),
        ];
        assert_eq!(causes_for(&causes, "f1").len(), 2);
        assert_eq!(causes_for(&causes, "f2")[0].id, "c");
        let trace = Trace::default();
        let registry = Registry::default();
        let io = IoSummary::default();
        let ctx = CauseCtx {
            trace: &trace,
            registry: &registry,
            io: &io,
        };
        let active = active_causes(&causes, &ctx);
        assert_eq!(
            active.iter().map(|c| c.id).collect::<Vec<_>>(),
            vec!["a", "c"]
        );
    }

    #[test]
    fn debug_format_is_compact() {
        let c = RootCause::new("x", "f", "desc", |_| true);
        assert!(format!("{c:?}").contains("\"x\""));
    }
}
