//! Order-guided recording and replay: the machinery behind the
//! [`MsgOrder`](crate::recordings::ModelKind::MsgOrder) and
//! [`RaceComplete`](crate::recordings::ModelKind::RaceComplete) models.
//!
//! Both models record a *pinned-operation order log* instead of a full
//! decision stream. An operation grant is **pinned** when replay must
//! reproduce its position; everything else is **filler** the guided policy
//! re-schedules in deterministic first-candidate order.
//!
//! One simulator property dictates how much must be pinned: every kernel
//! operation charges the global virtual clock (`OpCosts`), so re-ordering
//! *any* two grants shifts the absolute time of everything after them. On
//! time-driven programs (sleep pacing, receive deadlines, timed stops) that
//! shift changes wake-ups and therefore behaviour. The pin sets respond
//! differently:
//!
//! - [`PinSet::Total`] pins every grant — the message-order scheme of
//!   Aumayr et al. mapped onto a shared-clock simulator: the log is the
//!   full receive order of the scheduler's grant stream (run-length-encoded
//!   task ids, no values, no candidate sets, no CREW machinery), and guided
//!   replay is time-faithful and therefore exact.
//! - [`PinSet::Racing`] pins only non-[`OpDesc::Local`] grants that touch
//!   racing state — the race-complete scheme of Guo et al.: accesses to
//!   variables the vector-clock pass proved race-free are
//!   happens-before-ordered by the pinned operations around them, so their
//!   *values* reconstruct themselves even when their timing does not.
//!   Guided replay of a racing pin set is best-effort (it drifts on
//!   time-driven programs); the model backs it with a constrained DPOR
//!   search and, last, with [`OutcomeFeed`] — re-delivering the recorded
//!   racing-read outcomes, which pins the failure without pinning time.
//! - [`PinSet::NonLocal`] (all non-local footprints) sits in between and is
//!   the recording-side superset both models filter from.
//!
//! [`OrderRecorder`] wraps the production scheduling policy and logs pinned
//! grants (including *forced* single-candidate grants, which never reach the
//! decision stream); [`GuidedOrderPolicy`] replays the log, granting filler
//! in deterministic first-candidate order between pinned grants.

use crate::lock;
use crate::recordings::costs;
use dd_sim::{
    DecisionPoint, Event, EventMeta, Observer, OpDesc, SchedulePolicy, StateHasher, StopReason,
    TaskId, Value, VarId,
};
use dd_trace::{ChargeAcc, CostModel, LogStats};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// One pinned grant in an operation-order log.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OrderEntry {
    /// The granted task.
    pub task: TaskId,
    /// The task's pending footprint at grant time (`None` when the kernel
    /// had not yet seen the task's next operation — treated as pinned).
    pub op: Option<OpDesc>,
}

/// A per-run pinned-operation order log.
///
/// The in-memory representation keeps the full footprint per entry (replay
/// needs it to match grants); the *accounted* on-disk encoding is
/// run-length-compressed — consecutive grants to the same task pack into
/// one `(task, class, run-length)` record of
/// [`costs::ORDER_ENTRY_BYTES`] bytes, mirroring how the schedule log
/// charges [`dd_trace::log_size`] 4 bytes per decision.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OrderLog {
    /// Pinned grants, in grant order.
    pub entries: Vec<OrderEntry>,
}

impl OrderLog {
    /// Accounted size in bytes (run-length-encoded by task).
    pub fn byte_size(&self) -> u64 {
        let runs = self
            .entries
            .iter()
            .zip(self.entries.iter().skip(1))
            .filter(|(a, b)| a.task != b.task)
            .count() as u64
            + u64::from(!self.entries.is_empty());
        runs * costs::ORDER_ENTRY_BYTES
    }

    /// Log-volume statistics for [`Recording::log`](crate::Recording).
    pub fn stats(&self) -> LogStats {
        LogStats {
            records: self.entries.len() as u64,
            bytes: self.byte_size(),
        }
    }

    /// Keeps only the entries the given pin set still pins.
    pub fn retain_pinned(mut self, pin: &PinSet) -> Self {
        self.entries.retain(|e| pin.pinned(e.op.as_ref()));
        self
    }
}

/// Which pending footprints an order-guided model pins.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PinSet {
    /// Every grant, local or not (message-order determinism — the only
    /// time-faithful subset under a shared per-operation clock).
    Total,
    /// Every non-[`OpDesc::Local`] footprint.
    NonLocal,
    /// Non-[`OpDesc::Local`] footprints, with accesses to variables *not*
    /// in the racing set released as filler (race-complete determinism).
    Racing(BTreeSet<u32>),
}

impl PinSet {
    /// Builds the racing-variable pin set from a dd-detect race report.
    pub fn racing(races: &[dd_detect::RaceReport]) -> Self {
        PinSet::Racing(races.iter().map(|r| r.var.0).collect())
    }

    /// Returns `true` if a pending footprint must replay in recorded order.
    pub fn pinned(&self, op: Option<&OpDesc>) -> bool {
        if matches!(self, PinSet::Total) {
            return true;
        }
        match op {
            // No pending operation: the grant only lets the task run to its
            // next announce — task-local work with no shared effect, so the
            // partial-order pins treat it like `Local` filler.
            None => false,
            Some(OpDesc::Local) => false,
            Some(OpDesc::Var { var, .. }) => match self {
                PinSet::Total => true,
                PinSet::NonLocal => true,
                PinSet::Racing(vars) => vars.contains(&var.0),
            },
            Some(_) => true,
        }
    }
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// Wraps a production scheduling policy and logs every pinned grant —
/// including forced (single-candidate) grants, which the kernel resolves
/// without consulting the policy and without logging a decision. Delegation
/// never alters the inner policy's choices, so the recorded run is
/// bit-identical to an unwrapped run.
pub struct OrderRecorder {
    inner: Box<dyn SchedulePolicy>,
    pin: PinSet,
    log: Arc<Mutex<Vec<OrderEntry>>>,
}

impl OrderRecorder {
    /// Wraps `inner`, sharing the grant log through `log`.
    pub fn new(
        inner: Box<dyn SchedulePolicy>,
        pin: PinSet,
        log: Arc<Mutex<Vec<OrderEntry>>>,
    ) -> Self {
        OrderRecorder { inner, pin, log }
    }
}

impl SchedulePolicy for OrderRecorder {
    fn label(&self) -> &'static str {
        "order-recorder"
    }

    fn clone_box(&self) -> Box<dyn SchedulePolicy> {
        Box::new(OrderRecorder {
            inner: self.inner.clone_box(),
            pin: self.pin.clone(),
            log: Arc::clone(&self.log),
        })
    }

    fn decide(&mut self, point: &DecisionPoint<'_>) -> Result<usize, StopReason> {
        let idx = self.inner.decide(point)?;
        if let Some(&(task, op)) = point.enabled.get(idx) {
            if self.pin.pinned(op.as_ref()) {
                lock(&self.log).push(OrderEntry { task, op });
            }
        }
        Ok(idx)
    }

    fn note_forced(&mut self, task: TaskId, pending: Option<&OpDesc>) {
        self.inner.note_forced(task, pending);
        if self.pin.pinned(pending) {
            lock(&self.log).push(OrderEntry {
                task,
                op: pending.copied(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct GuidedCursor {
    consumed: usize,
    desync: Option<String>,
}

/// Post-run view of a [`GuidedOrderPolicy`]'s progress through its log.
#[derive(Clone)]
pub struct GuidedHandle {
    state: Arc<Mutex<GuidedCursor>>,
    total: usize,
}

impl GuidedHandle {
    /// How many order entries the replay consumed.
    pub fn consumed(&self) -> usize {
        lock(&self.state).consumed
    }

    /// `true` when every recorded entry was consumed without drift.
    pub fn fully_consumed(&self) -> bool {
        let st = lock(&self.state);
        st.desync.is_none() && st.consumed == self.total
    }

    /// The first forced-grant drift the replay hit, if any.
    pub fn desync(&self) -> Option<String> {
        lock(&self.state).desync.clone()
    }
}

/// Replays a pinned-operation [`OrderLog`]: grants the log's next entry
/// whenever its task is enabled with the recorded footprint, grants filler
/// (the first candidate with an unpinned footprint) otherwise, and reports
/// [`StopReason::ReplayDivergence`] when neither is possible.
pub struct GuidedOrderPolicy {
    entries: Arc<Vec<OrderEntry>>,
    pin: PinSet,
    state: Arc<Mutex<GuidedCursor>>,
}

impl GuidedOrderPolicy {
    /// Builds the policy plus the handle the replayer inspects afterwards.
    pub fn new(log: &OrderLog, pin: PinSet) -> (Self, GuidedHandle) {
        let state = Arc::new(Mutex::new(GuidedCursor::default()));
        let handle = GuidedHandle {
            state: Arc::clone(&state),
            total: log.entries.len(),
        };
        (
            GuidedOrderPolicy {
                entries: Arc::new(log.entries.clone()),
                pin,
                state,
            },
            handle,
        )
    }
}

impl SchedulePolicy for GuidedOrderPolicy {
    fn label(&self) -> &'static str {
        "order-guided"
    }

    fn clone_box(&self) -> Box<dyn SchedulePolicy> {
        Box::new(GuidedOrderPolicy {
            entries: Arc::clone(&self.entries),
            pin: self.pin.clone(),
            state: Arc::clone(&self.state),
        })
    }

    fn decide(&mut self, point: &DecisionPoint<'_>) -> Result<usize, StopReason> {
        let mut st = lock(&self.state);
        if let Some(d) = &st.desync {
            return Err(StopReason::ReplayDivergence {
                step: point.seq,
                detail: d.clone(),
            });
        }
        if let Some(want) = self.entries.get(st.consumed) {
            if let Some(idx) = point.candidates.iter().position(|&t| t == want.task) {
                if point.enabled[idx].1 == want.op {
                    st.consumed += 1;
                    return Ok(idx);
                }
            }
        }
        // The next pinned operation is not enabled (or not yet pending):
        // run commuting filler until it is.
        if let Some(idx) = point
            .enabled
            .iter()
            .position(|(_, op)| !self.pin.pinned(op.as_ref()))
        {
            return Ok(idx);
        }
        let detail = match self.entries.get(st.consumed) {
            Some(want) => format!(
                "order log expects {:?} by {}, but only other pinned operations are enabled",
                want.op, want.task
            ),
            None => "order log exhausted with pinned operations still enabled".into(),
        };
        Err(StopReason::ReplayDivergence {
            step: point.seq,
            detail,
        })
    }

    fn note_forced(&mut self, task: TaskId, pending: Option<&OpDesc>) {
        if !self.pin.pinned(pending) {
            return;
        }
        let mut st = lock(&self.state);
        if st.desync.is_some() {
            return;
        }
        match self.entries.get(st.consumed) {
            Some(want) if want.task == task && want.op.as_ref() == pending => {
                st.consumed += 1;
            }
            Some(want) => {
                st.desync = Some(format!(
                    "forced grant of {pending:?} by {task} where the order log \
                     expects {:?} by {}",
                    want.op, want.task
                ));
            }
            None => {
                st.desync = Some(format!(
                    "forced grant of {pending:?} by {task} past the end of the order log"
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Trace projections (soundness checks and search constraints)
// ---------------------------------------------------------------------------

/// One racing access and its outcome, as recorded by race-complete
/// determinism. The accounted encoding is
/// [`costs::RACE_OUTCOME_BYTES`] per record (packed site id plus value
/// delta), following Guo et al.'s observation that only racing accesses
/// need their outcomes persisted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RaceOutcome {
    /// The accessing task.
    pub task: TaskId,
    /// The racing variable.
    pub var: VarId,
    /// `true` for a store.
    pub write: bool,
    /// The value read or written.
    pub value: Value,
}

/// Extracts the ordered outcomes of all accesses to racing variables from
/// a run's events, read in place.
pub fn racing_outcomes<'a>(
    events: impl IntoIterator<Item = &'a Event>,
    racing: &BTreeSet<u32>,
) -> Vec<RaceOutcome> {
    events
        .into_iter()
        .filter_map(|event| match event {
            Event::Read {
                task, var, value, ..
            } if racing.contains(&var.0) => Some(RaceOutcome {
                task: *task,
                var: *var,
                write: false,
                value: value.clone(),
            }),
            Event::Write {
                task, var, value, ..
            } if racing.contains(&var.0) => Some(RaceOutcome {
                task: *task,
                var: *var,
                write: true,
                value: value.clone(),
            }),
            _ => None,
        })
        .collect()
}

#[derive(Debug, Default)]
struct FeedProgress {
    consumed: usize,
}

/// Post-run view of an [`OutcomeFeed`]'s progress through its queues.
#[derive(Clone)]
pub struct FeedHandle {
    state: Arc<Mutex<FeedProgress>>,
    total: usize,
}

impl FeedHandle {
    /// How many recorded racing-read outcomes were re-delivered.
    pub fn consumed(&self) -> usize {
        lock(&self.state).consumed
    }

    /// `true` when every recorded racing read was re-delivered — the replay
    /// observed at least the recorded racing behaviour, access for access.
    pub fn fully_consumed(&self) -> bool {
        lock(&self.state).consumed == self.total
    }
}

/// Re-delivers recorded racing-*read* outcomes during a replay run,
/// regardless of the live schedule: each task's reads of each racing
/// variable receive the recorded values in recorded per-task order, while
/// every other read (race-free by the vector-clock pass) executes live.
///
/// This is the last-resort replay path of race-complete determinism on
/// time-driven programs, where no search budget will re-find the exact
/// global interleaving: what the failure depends on — the values the racing
/// reads observed — is pinned directly, Guo et al.'s core observation.
pub struct OutcomeFeed {
    queues: std::collections::HashMap<(u32, u32), std::collections::VecDeque<Value>>,
    state: Arc<Mutex<FeedProgress>>,
}

impl OutcomeFeed {
    /// Builds the feed from a recorded outcome log, plus the handle the
    /// replayer inspects afterwards.
    pub fn new(outcomes: &[RaceOutcome]) -> (Self, FeedHandle) {
        let mut queues: std::collections::HashMap<(u32, u32), std::collections::VecDeque<Value>> =
            std::collections::HashMap::new();
        let mut total = 0;
        for o in outcomes.iter().filter(|o| !o.write) {
            queues
                .entry((o.task.0, o.var.0))
                .or_default()
                .push_back(o.value.clone());
            total += 1;
        }
        let state = Arc::new(Mutex::new(FeedProgress::default()));
        let handle = FeedHandle {
            state: Arc::clone(&state),
            total,
        };
        (OutcomeFeed { queues, state }, handle)
    }
}

impl dd_sim::NondetOverride for OutcomeFeed {
    fn override_read(&mut self, task: TaskId, var: VarId, _actual: &Value) -> Option<Value> {
        let v = self.queues.get_mut(&(task.0, var.0))?.pop_front()?;
        lock(&self.state).consumed += 1;
        Some(v)
    }
}

/// FNV-1a digest of a run's pinned-operation *completion* order, read in
/// place from its events.
///
/// Grants and completions differ (a blocked receive is granted more than
/// once but completes once), so this digest is the schedule-independent
/// check that two runs performed the same pinned operations in the same
/// order: it is stored in race-complete artifacts and used both to validate
/// a guided replay and as the acceptance constraint of the DPOR fallback
/// search.
pub fn pinned_completion_digest<'a>(
    events: impl IntoIterator<Item = &'a Event>,
    pin: &PinSet,
) -> u64 {
    let mut h = StateHasher::new();
    let mut mix = |words: &[u64]| {
        for &w in words {
            h.u64(w);
        }
    };
    for event in events {
        let var_pinned = || pin.pinned(OpDesc::of_event(event).as_ref());
        match event {
            Event::Read { task, var, .. } if var_pinned() => {
                mix(&[1, u64::from(task.0), u64::from(var.0)]);
            }
            Event::Write { task, var, .. } if var_pinned() => {
                mix(&[2, u64::from(task.0), u64::from(var.0)]);
            }
            Event::Send { task, chan, .. } => mix(&[3, u64::from(task.0), u64::from(chan.0)]),
            Event::Recv { task, chan, .. } => mix(&[4, u64::from(task.0), u64::from(chan.0)]),
            Event::SendDropped { task, chan, .. } => {
                mix(&[5, u64::from(task.0), u64::from(chan.0)])
            }
            Event::InputRead { task, port, .. } => mix(&[6, u64::from(task.0), u64::from(port.0)]),
            Event::Output { task, port, .. } => mix(&[7, u64::from(task.0), u64::from(port.0)]),
            Event::LockAcquire { task, lock, .. } => {
                mix(&[8, u64::from(task.0), u64::from(lock.0)])
            }
            Event::LockRelease { task, lock, .. } => {
                mix(&[9, u64::from(task.0), u64::from(lock.0)])
            }
            Event::CondWait { task, cvar, .. } => mix(&[10, u64::from(task.0), u64::from(cvar.0)]),
            Event::CondNotify { task, cvar, .. } => {
                mix(&[11, u64::from(task.0), u64::from(cvar.0)])
            }
            Event::RngDraw { task, value, .. } => mix(&[12, u64::from(task.0), *value]),
            Event::TaskSpawn { parent, child, .. } => mix(&[
                13,
                parent.map_or(u64::MAX, |p| u64::from(p.0)),
                u64::from(child.0),
            ]),
            Event::Crash { task, .. } => mix(&[14, u64::from(task.0)]),
            _ => {}
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Recording cost observer
// ---------------------------------------------------------------------------

/// Charges the wall clock for order-log appends during a recording run:
/// one [`CostModel`] charge per pinned operation *completion* (the event
/// stream's view of a grant that executed). Pure instrumentation — never
/// changes the trace.
pub struct OrderCostObserver {
    model: CostModel,
    pin: PinSet,
    acc: ChargeAcc,
}

impl OrderCostObserver {
    /// Creates the observer for the given cost model and pin set.
    pub fn new(model: CostModel, pin: PinSet) -> Self {
        OrderCostObserver {
            model,
            pin,
            acc: ChargeAcc::default(),
        }
    }
}

impl Observer for OrderCostObserver {
    fn on_event(&mut self, _meta: &EventMeta, event: &Event) -> u64 {
        let Some(op) = OpDesc::of_event(event) else {
            return 0;
        };
        if !self.pin.pinned(Some(&op)) {
            return 0;
        }
        self.acc
            .add(self.model.cost_milli(costs::ORDER_ENTRY_BYTES))
    }

    dd_sim::observer_boilerplate!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::{ChanId, DecisionKind};

    fn entry(t: u32, op: Option<OpDesc>) -> OrderEntry {
        OrderEntry {
            task: TaskId(t),
            op,
        }
    }

    const CHAN: OpDesc = OpDesc::Chan { chan: ChanId(0) };

    #[test]
    fn pin_sets_classify_footprints() {
        let total = PinSet::Total;
        assert!(total.pinned(None));
        assert!(total.pinned(Some(&OpDesc::Local)));
        let non_local = PinSet::NonLocal;
        assert!(!non_local.pinned(None), "announce-only grants are filler");
        assert!(!non_local.pinned(Some(&OpDesc::Local)));
        assert!(non_local.pinned(Some(&CHAN)));
        let racy = OpDesc::Var {
            var: VarId(3),
            write: true,
        };
        let benign = OpDesc::Var {
            var: VarId(4),
            write: true,
        };
        assert!(non_local.pinned(Some(&racy)));
        let racing = PinSet::Racing([3u32].into_iter().collect());
        assert!(racing.pinned(Some(&racy)));
        assert!(!racing.pinned(Some(&benign)), "non-racing vars are filler");
        assert!(racing.pinned(Some(&OpDesc::Rng)));
        assert!(!racing.pinned(Some(&OpDesc::Local)));
    }

    #[test]
    fn order_log_bytes_are_run_length_encoded() {
        let log = OrderLog {
            entries: vec![
                entry(0, Some(CHAN)),
                entry(0, Some(CHAN)),
                entry(1, Some(CHAN)),
                entry(0, Some(CHAN)),
            ],
        };
        // Three task runs: [0,0], [1], [0].
        assert_eq!(log.byte_size(), 3 * costs::ORDER_ENTRY_BYTES);
        assert_eq!(log.stats().records, 4);
        assert_eq!(OrderLog::default().byte_size(), 0);
    }

    #[test]
    fn guided_policy_follows_log_and_fills_with_local() {
        let log = OrderLog {
            entries: vec![entry(1, Some(CHAN)), entry(0, Some(CHAN))],
        };
        let (mut p, handle) = GuidedOrderPolicy::new(&log, PinSet::NonLocal);
        let cands = [TaskId(0), TaskId(1)];
        // Task 1's pinned op is next in the log: granted.
        let enabled = [(TaskId(0), Some(CHAN)), (TaskId(1), Some(CHAN))];
        let got = p
            .decide(&DecisionPoint {
                seq: 0,
                kind: DecisionKind::NextTask,
                candidates: &cands,
                enabled: &enabled,
            })
            .unwrap();
        assert_eq!(got, 1);
        // Task 0 pending Local while the log expects its CHAN op: filler.
        let enabled = [
            (TaskId(0), Some(OpDesc::Local)),
            (TaskId(1), Some(OpDesc::Local)),
        ];
        let got = p
            .decide(&DecisionPoint {
                seq: 1,
                kind: DecisionKind::NextTask,
                candidates: &cands,
                enabled: &enabled,
            })
            .unwrap();
        assert_eq!(got, 0, "first unpinned candidate is filler");
        assert_eq!(handle.consumed(), 1);
        // Forced grant of the expected op advances the cursor.
        p.note_forced(TaskId(0), Some(&CHAN));
        assert!(handle.fully_consumed());
    }

    #[test]
    fn guided_policy_reports_divergence_when_stuck() {
        let log = OrderLog {
            entries: vec![entry(1, Some(CHAN))],
        };
        let (mut p, handle) = GuidedOrderPolicy::new(&log, PinSet::NonLocal);
        // Only task 0 is enabled, with a pinned op that is not next.
        let cands = [TaskId(0)];
        let enabled = [(TaskId(0), Some(OpDesc::Rng))];
        let err = p
            .decide(&DecisionPoint {
                seq: 0,
                kind: DecisionKind::NextTask,
                candidates: &cands,
                enabled: &enabled,
            })
            .unwrap_err();
        assert!(matches!(err, StopReason::ReplayDivergence { .. }));
        assert!(!handle.fully_consumed());
    }

    #[test]
    fn guided_policy_desyncs_on_unexpected_forced_grant() {
        let log = OrderLog {
            entries: vec![entry(1, Some(CHAN))],
        };
        let (mut p, handle) = GuidedOrderPolicy::new(&log, PinSet::NonLocal);
        p.note_forced(TaskId(0), Some(&OpDesc::Rng));
        assert!(handle.desync().is_some());
        let cands = [TaskId(1)];
        let enabled = [(TaskId(1), Some(CHAN))];
        let err = p
            .decide(&DecisionPoint {
                seq: 0,
                kind: DecisionKind::NextTask,
                candidates: &cands,
                enabled: &enabled,
            })
            .unwrap_err();
        assert!(matches!(err, StopReason::ReplayDivergence { .. }));
    }

    #[test]
    fn retain_pinned_filters_non_racing_vars() {
        let racy = OpDesc::Var {
            var: VarId(1),
            write: true,
        };
        let benign = OpDesc::Var {
            var: VarId(2),
            write: true,
        };
        let log = OrderLog {
            entries: vec![
                entry(0, Some(racy)),
                entry(1, Some(benign)),
                entry(0, Some(CHAN)),
            ],
        };
        let pin = PinSet::Racing([1u32].into_iter().collect());
        let filtered = log.retain_pinned(&pin);
        assert_eq!(filtered.entries.len(), 2);
        assert!(filtered.entries.iter().all(|e| pin.pinned(e.op.as_ref())));
    }
}
