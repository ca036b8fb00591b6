//! Scheduling policies: how nondeterministic choices are resolved.
//!
//! The driver consults a [`SchedulePolicy`] at every decision point (which
//! task runs next, which condition-variable waiter wakes). Policies are the
//! pluggable heart of record/replay:
//!
//! - [`RandomPolicy`] — seeded uniform choice; models an arbitrary
//!   production scheduler while remaining reproducible.
//! - [`ReplayPolicy`] — replays a recorded decision stream exactly,
//!   reporting divergence if the recorded choice is impossible.
//! - [`PrefixPolicy`] — forces a decision prefix then continues randomly;
//!   the building block of the systematic inference search in `dd-replay`.
//! - [`RoundRobinPolicy`] — deterministic fair rotation (useful in tests).
//! - [`PctPolicy`] — probabilistic concurrency testing: random thread
//!   priorities with `d-1` priority-change points, good at exposing rare
//!   interleavings with few runs.

use crate::conflict::OpDesc;
use crate::error::StopReason;
use crate::event::DecisionKind;
use crate::history::ChunkedLog;
use crate::ids::TaskId;
use crate::rng::DetRng;
use serde::{Deserialize, Serialize};

/// A decision point presented to the policy.
#[derive(Debug)]
pub struct DecisionPoint<'a> {
    /// Global decision sequence number (0-based).
    pub seq: u64,
    /// What is being decided.
    pub kind: DecisionKind,
    /// Candidates, sorted by task id (deterministic).
    pub candidates: &'a [TaskId],
    /// Each candidate's pending-operation conflict footprint, aligned with
    /// `candidates`. This is the same enabled-set snapshot the kernel logs
    /// into [`RunOutput::decision_enabled`](crate::RunOutput); order-guided
    /// policies use it to tell pinned operations from commuting filler.
    pub enabled: &'a [(TaskId, Option<OpDesc>)],
}

/// One recorded decision, as stored in schedule logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordedDecision {
    /// What was decided.
    pub kind: DecisionKind,
    /// The task that was chosen.
    pub chosen: TaskId,
}

/// Resolves nondeterministic choices for the driver.
///
/// Policies are `Send + Sync` so that [`WorldSnapshot`](crate::WorldSnapshot)s
/// (which capture the policy state alongside the machine state) stay
/// `Send + Sync`. The `Sync` bound costs implementors nothing: `decide`
/// takes `&mut self`, so a policy never needs interior mutability.
pub trait SchedulePolicy: Send + Sync {
    /// A short label for diagnostics and reports.
    fn label(&self) -> &'static str;

    /// Chooses one of `point.candidates`, returning its index.
    ///
    /// Returning `Err` aborts the run with the given [`StopReason`]
    /// (used by replay divergence detection).
    fn decide(&mut self, point: &DecisionPoint<'_>) -> Result<usize, StopReason>;

    /// Notifies the policy of a forced (single-candidate) grant.
    ///
    /// Singleton grants are never sent through [`decide`](Self::decide) and
    /// are never logged, which keeps decision streams schedule-portable —
    /// but a policy replaying an *operation-order* log (rather than a
    /// decision stream) still needs to observe them to keep its cursor in
    /// step: an operation that was one of several candidates when recorded
    /// may be the only runnable one under a different interleaving of the
    /// commuting filler around it. The default does nothing.
    fn note_forced(&mut self, _task: TaskId, _pending: Option<&OpDesc>) {}

    /// Clones the policy *with its current state* into a fresh box.
    ///
    /// World snapshots capture this alongside the machine state so that a
    /// resumed run's remaining decisions match the original's exactly. The
    /// clone is `Send`-safe, like the snapshot that carries it.
    fn clone_box(&self) -> Box<dyn SchedulePolicy>;
}

/// Seeded uniform-random policy.
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    rng: DetRng,
}

impl RandomPolicy {
    /// Creates a policy from a seed.
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            rng: DetRng::seed_from(seed),
        }
    }
}

impl SchedulePolicy for RandomPolicy {
    fn label(&self) -> &'static str {
        "random"
    }

    fn clone_box(&self) -> Box<dyn SchedulePolicy> {
        Box::new(self.clone())
    }

    fn decide(&mut self, point: &DecisionPoint<'_>) -> Result<usize, StopReason> {
        Ok(self.rng.pick_index(point.candidates.len()))
    }
}

/// Deterministic round-robin rotation over task ids.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinPolicy {
    last: Option<TaskId>,
}

impl RoundRobinPolicy {
    /// Creates a fresh round-robin policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SchedulePolicy for RoundRobinPolicy {
    fn label(&self) -> &'static str {
        "round-robin"
    }

    fn clone_box(&self) -> Box<dyn SchedulePolicy> {
        Box::new(self.clone())
    }

    fn decide(&mut self, point: &DecisionPoint<'_>) -> Result<usize, StopReason> {
        let idx = match self.last {
            None => 0,
            Some(prev) => {
                // First candidate strictly greater than the previous pick,
                // wrapping to the smallest.
                point.candidates.iter().position(|&t| t > prev).unwrap_or(0)
            }
        };
        if point.kind == DecisionKind::NextTask {
            self.last = Some(point.candidates[idx]);
        }
        Ok(idx)
    }
}

/// Replays a recorded decision stream exactly. A decision past the end of
/// the stream, or one the live run cannot take, stops the run with
/// [`StopReason::ReplayDivergence`].
///
/// The stream is a [`ChunkedLog`], so building the policy from a recorded
/// artifact — and cloning it into every [`WorldSnapshot`](crate::WorldSnapshot)
/// taken during replay — bumps chunk handles instead of copying the
/// decision history.
#[derive(Debug, Clone)]
pub struct ReplayPolicy {
    decisions: ChunkedLog<RecordedDecision>,
    cursor: usize,
}

impl ReplayPolicy {
    /// Creates a strict replay policy (divergence aborts the run).
    pub fn strict(decisions: impl Into<ChunkedLog<RecordedDecision>>) -> Self {
        ReplayPolicy {
            decisions: decisions.into(),
            cursor: 0,
        }
    }

    /// Creates a strict replay policy whose cursor starts at `consumed` —
    /// the policy a run *resumed from a snapshot taken at decision
    /// `consumed`* needs: the restored world already contains the effects
    /// of the first `consumed` recorded decisions, so replay picks up at
    /// the next one.
    pub fn resuming_at(
        decisions: impl Into<ChunkedLog<RecordedDecision>>,
        consumed: usize,
    ) -> Self {
        ReplayPolicy {
            decisions: decisions.into(),
            cursor: consumed,
        }
    }

    /// Returns how many recorded decisions have been consumed.
    pub fn consumed(&self) -> usize {
        self.cursor
    }
}

impl SchedulePolicy for ReplayPolicy {
    fn label(&self) -> &'static str {
        "replay"
    }

    fn clone_box(&self) -> Box<dyn SchedulePolicy> {
        Box::new(self.clone())
    }

    fn decide(&mut self, point: &DecisionPoint<'_>) -> Result<usize, StopReason> {
        if self.cursor >= self.decisions.len() {
            return Err(StopReason::ReplayDivergence {
                step: point.seq,
                detail: "recorded decision stream exhausted".into(),
            });
        }
        let rec = self.decisions[self.cursor];
        self.cursor += 1;
        if rec.kind != point.kind {
            return Err(StopReason::ReplayDivergence {
                step: point.seq,
                detail: format!(
                    "decision kind mismatch: recorded {:?}, live {:?}",
                    rec.kind, point.kind
                ),
            });
        }
        match point.candidates.iter().position(|&t| t == rec.chosen) {
            Some(idx) => Ok(idx),
            None => Err(StopReason::ReplayDivergence {
                step: point.seq,
                detail: format!(
                    "recorded choice {} not runnable (candidates: {:?})",
                    rec.chosen, point.candidates
                ),
            }),
        }
    }
}

/// Forces a prefix of decisions (by candidate index), then continues with
/// seeded random choices.
///
/// This is the primitive used by the systematic explorer: flipping the last
/// index of the prefix enumerates sibling branches of the schedule tree.
#[derive(Debug, Clone)]
pub struct PrefixPolicy {
    prefix: Vec<u32>,
    cursor: usize,
    tail: DetRng,
}

impl PrefixPolicy {
    /// Creates a policy forcing `prefix` (candidate indices), then random
    /// choices from `seed`.
    pub fn new(prefix: Vec<u32>, seed: u64) -> Self {
        PrefixPolicy {
            prefix,
            cursor: 0,
            tail: DetRng::seed_from(seed),
        }
    }
}

impl SchedulePolicy for PrefixPolicy {
    fn label(&self) -> &'static str {
        "prefix"
    }

    fn clone_box(&self) -> Box<dyn SchedulePolicy> {
        Box::new(self.clone())
    }

    fn decide(&mut self, point: &DecisionPoint<'_>) -> Result<usize, StopReason> {
        if self.cursor < self.prefix.len() {
            let want = self.prefix[self.cursor] as usize;
            self.cursor += 1;
            // Clamp: a forced index past the live candidate list means this
            // branch does not exist; report divergence so the explorer can
            // prune it.
            if want >= point.candidates.len() {
                return Err(StopReason::ReplayDivergence {
                    step: point.seq,
                    detail: format!(
                        "forced index {want} out of range ({} candidates)",
                        point.candidates.len()
                    ),
                });
            }
            return Ok(want);
        }
        Ok(self.tail.pick_index(point.candidates.len()))
    }
}

/// Probabilistic concurrency testing (PCT, Burckhardt et al.).
///
/// Tasks get random priorities; the highest-priority runnable task always
/// runs, except at `depth - 1` randomly chosen priority-change points where
/// the running task's priority drops below everyone else's. With `depth = d`
/// this finds any bug of depth `d` with probability ≥ 1/(n·k^(d-1)).
#[derive(Debug, Clone)]
pub struct PctPolicy {
    rng: DetRng,
    /// Steps at which a priority change fires.
    change_points: Vec<u64>,
    /// Priority per task (higher runs first); assigned on first sight.
    priorities: std::collections::HashMap<TaskId, u64>,
    next_low: u64,
    steps: u64,
}

impl PctPolicy {
    /// Creates a PCT policy with the given seed, expected run length (in
    /// decisions) and bug depth.
    pub fn new(seed: u64, expected_len: u64, depth: u32) -> Self {
        let mut rng = DetRng::seed_from(seed);
        let mut change_points = Vec::new();
        for _ in 1..depth {
            change_points.push(rng.next_below(expected_len.max(1)));
        }
        change_points.sort_unstable();
        PctPolicy {
            rng,
            change_points,
            priorities: Default::default(),
            next_low: 0,
            steps: 0,
        }
    }
}

impl SchedulePolicy for PctPolicy {
    fn label(&self) -> &'static str {
        "pct"
    }

    fn clone_box(&self) -> Box<dyn SchedulePolicy> {
        Box::new(self.clone())
    }

    fn decide(&mut self, point: &DecisionPoint<'_>) -> Result<usize, StopReason> {
        if point.kind != DecisionKind::NextTask {
            return Ok(self.rng.pick_index(point.candidates.len()));
        }
        self.steps += 1;
        for &t in point.candidates {
            let rng = &mut self.rng;
            self.priorities
                .entry(t)
                .or_insert_with(|| (rng.next_u64() >> 16) + (1 << 32));
        }
        let (idx, &best) = point
            .candidates
            .iter()
            .enumerate()
            .max_by_key(|&(_, &t)| (self.priorities[&t], t))
            .expect("candidates are never empty");
        if self
            .change_points
            .first()
            .is_some_and(|&cp| self.steps > cp)
        {
            self.change_points.remove(0);
            // Demote the chosen task below every base priority.
            self.next_low += 1;
            self.priorities.insert(best, self.next_low);
        }
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(seq: u64, cands: &[u32]) -> (Vec<TaskId>, u64) {
        (cands.iter().map(|&c| TaskId(c)).collect(), seq)
    }

    fn decide_with(
        p: &mut dyn SchedulePolicy,
        seq: u64,
        cands: &[u32],
    ) -> Result<usize, StopReason> {
        let (c, seq) = point(seq, cands);
        let enabled: Vec<(TaskId, Option<OpDesc>)> = c.iter().map(|&t| (t, None)).collect();
        p.decide(&DecisionPoint {
            seq,
            kind: DecisionKind::NextTask,
            candidates: &c,
            enabled: &enabled,
        })
    }

    #[test]
    fn random_policy_is_deterministic() {
        let mut a = RandomPolicy::new(9);
        let mut b = RandomPolicy::new(9);
        for i in 0..100 {
            assert_eq!(
                decide_with(&mut a, i, &[0, 1, 2, 3]).unwrap(),
                decide_with(&mut b, i, &[0, 1, 2, 3]).unwrap()
            );
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut p = RoundRobinPolicy::new();
        assert_eq!(decide_with(&mut p, 0, &[0, 1, 2]).unwrap(), 0);
        assert_eq!(decide_with(&mut p, 1, &[0, 1, 2]).unwrap(), 1);
        assert_eq!(decide_with(&mut p, 2, &[0, 1, 2]).unwrap(), 2);
        assert_eq!(decide_with(&mut p, 3, &[0, 1, 2]).unwrap(), 0);
    }

    #[test]
    fn round_robin_handles_shrinking_candidates() {
        let mut p = RoundRobinPolicy::new();
        assert_eq!(decide_with(&mut p, 0, &[0, 1, 2]).unwrap(), 0);
        // Task 0 left; next greater than 0 among [1,2] is 1 at index 0.
        assert_eq!(decide_with(&mut p, 1, &[1, 2]).unwrap(), 0);
        assert_eq!(decide_with(&mut p, 2, &[1, 2]).unwrap(), 1);
    }

    #[test]
    fn replay_follows_recorded_choices() {
        let rec = vec![
            RecordedDecision {
                kind: DecisionKind::NextTask,
                chosen: TaskId(2),
            },
            RecordedDecision {
                kind: DecisionKind::NextTask,
                chosen: TaskId(0),
            },
        ];
        let mut p = ReplayPolicy::strict(rec);
        assert_eq!(decide_with(&mut p, 0, &[0, 1, 2]).unwrap(), 2);
        assert_eq!(decide_with(&mut p, 1, &[0, 1]).unwrap(), 0);
        assert_eq!(p.consumed(), 2);
    }

    #[test]
    fn replay_divergence_on_missing_candidate() {
        let rec = vec![RecordedDecision {
            kind: DecisionKind::NextTask,
            chosen: TaskId(5),
        }];
        let mut p = ReplayPolicy::strict(rec);
        let err = decide_with(&mut p, 0, &[0, 1]).unwrap_err();
        assert!(matches!(err, StopReason::ReplayDivergence { .. }));
    }

    #[test]
    fn replay_divergence_on_exhaustion_when_strict() {
        let mut p = ReplayPolicy::strict(vec![]);
        assert!(decide_with(&mut p, 0, &[0]).is_err());
    }

    #[test]
    fn replay_divergence_on_kind_mismatch() {
        let rec = vec![RecordedDecision {
            kind: DecisionKind::WakeOne(crate::ids::CondvarId(0)),
            chosen: TaskId(0),
        }];
        let mut p = ReplayPolicy::strict(rec);
        assert!(decide_with(&mut p, 0, &[0]).is_err());
    }

    #[test]
    fn prefix_policy_forces_then_randomizes() {
        let mut p = PrefixPolicy::new(vec![1, 0], 7);
        assert_eq!(decide_with(&mut p, 0, &[0, 1]).unwrap(), 1);
        assert_eq!(decide_with(&mut p, 1, &[0, 1]).unwrap(), 0);
        // Tail choices are valid indices.
        for i in 2..50 {
            let idx = decide_with(&mut p, i, &[0, 1, 2]).unwrap();
            assert!(idx < 3);
        }
    }

    #[test]
    fn prefix_policy_prunes_impossible_branch() {
        let mut p = PrefixPolicy::new(vec![5], 7);
        assert!(decide_with(&mut p, 0, &[0, 1]).is_err());
    }

    #[test]
    fn pct_policy_prefers_priorities_consistently() {
        let mut a = PctPolicy::new(3, 100, 3);
        let mut b = PctPolicy::new(3, 100, 3);
        for i in 0..100 {
            assert_eq!(
                decide_with(&mut a, i, &[0, 1, 2]).unwrap(),
                decide_with(&mut b, i, &[0, 1, 2]).unwrap()
            );
        }
    }
}
