//! Append-only JSONL trace artifacts: the `dd` CLI's on-disk format.
//!
//! A trace file is one JSON object per line:
//!
//! 1. a **header** (`format`/`version` envelope plus everything needed to
//!    re-create the recorded run: workload name, seeds, step bound, input
//!    script and environment model);
//! 2. one **decision** line per recorded scheduling decision, carrying the
//!    [`ScheduleLog`]-equivalent choice *and* the FNV-1a digest of the
//!    machine state immediately before the decision (see
//!    `RunOutput::decision_hashes` in `dd-sim`);
//! 3. a **footer** with the stop reason, the final state digest, the run's
//!    observable [`IoSummary`] and the checkpoint [`EpochMark`]s.
//!
//! The line-per-record shape is what makes the artifact *append-only*: a
//! recorder can stream decision lines as the run evolves and seal the file
//! with the footer at the end. Parsing reports errors with 1-based line
//! numbers, validates decision-index contiguity, and rejects unknown
//! fields anywhere on a line (a v1 reader must refuse forward-version
//! documents rather than silently drop fields), so a truncated or
//! hand-mutated file fails loudly at the exact offending line.
//!
//! The header is fully deterministic (no timestamps, no host identity):
//! recording the same scenario twice produces byte-identical files, which
//! is what lets golden trace hashes gate the record→replay pipeline.

use crate::logs::{EpochMark, ScheduleLog, SCHEDULE_LOG_VERSION};
use dd_sim::{
    DecisionKind, EnvConfig, InputScript, IoSummary, RecordedDecision, RunOutput, StopReason,
    TaskId,
};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Format identifier written in every header line.
pub const JSONL_FORMAT: &str = "dd-trace-jsonl";

/// Current JSONL envelope schema version.
///
/// - v1 — header + per-decision state hashes + footer.
pub const JSONL_VERSION: u32 = 1;

/// A parse or validation error, located by 1-based line number (`0` for
/// file-level errors: I/O, empty file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonlError {
    /// 1-based line the error was detected on (`0` = whole file).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl JsonlError {
    fn at(line: usize, msg: impl Into<String>) -> Self {
        JsonlError {
            line,
            msg: msg.into(),
        }
    }
}

impl core::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.line == 0 {
            write!(f, "trace file: {}", self.msg)
        } else {
            write!(f, "trace file line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for JsonlError {}

/// The header line: the versioned envelope plus the recorded scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Always [`JSONL_FORMAT`].
    pub format: String,
    /// Envelope schema version (see [`JSONL_VERSION`]).
    pub version: u32,
    /// Workload name (resolvable by the CLI's workload registry).
    pub workload: String,
    /// Kernel RNG seed of the recorded run.
    pub seed: u64,
    /// Schedule seed of the recorded run's original policy.
    pub sched_seed: u64,
    /// Step bound of the recorded run.
    pub max_steps: u64,
    /// Scripted external inputs.
    pub inputs: InputScript,
    /// Fault/environment model.
    pub env: EnvConfig,
}

impl TraceHeader {
    /// A v1 header for the given scenario parameters.
    pub fn new(
        workload: impl Into<String>,
        seed: u64,
        sched_seed: u64,
        max_steps: u64,
        inputs: InputScript,
        env: EnvConfig,
    ) -> Self {
        TraceHeader {
            format: JSONL_FORMAT.to_owned(),
            version: JSONL_VERSION,
            workload: workload.into(),
            seed,
            sched_seed,
            max_steps,
            inputs,
            env,
        }
    }
}

/// One decision line: a recorded choice plus the pre-decision state digest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDecision {
    /// Line tag, always `"d"`.
    pub t: String,
    /// Decision index (0-based, contiguous).
    pub i: u64,
    /// What was decided.
    pub kind: DecisionKind,
    /// The chosen task.
    pub chosen: TaskId,
    /// How many candidates there were.
    pub n: u32,
    /// Index of the chosen candidate in the sorted enabled set.
    pub chosen_index: u32,
    /// FNV-1a digest of the machine state *before* this decision (covers
    /// decisions `0..i` applied and executed).
    pub hash: u64,
}

/// The footer line, sealing the file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceFooter {
    /// Line tag, always `"end"`.
    pub t: String,
    /// Total recorded decisions (must match the decision-line count).
    pub decisions: u64,
    /// Why the recorded run stopped.
    pub stop: StopReason,
    /// FNV-1a digest of the final machine state (the digest "one past" the
    /// last decision).
    pub final_hash: u64,
    /// The recorded run's observable behaviour.
    pub io: IoSummary,
    /// Checkpoint markers from the recorded run (see [`EpochMark`]).
    pub epochs: Vec<EpochMark>,
}

/// A fully-parsed (or about-to-be-rendered) JSONL trace artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonlTrace {
    /// The header line.
    pub header: TraceHeader,
    /// The decision lines, in index order.
    pub decisions: Vec<TraceDecision>,
    /// The footer line.
    pub footer: TraceFooter,
}

impl JsonlTrace {
    /// Assembles the artifact from a finished, hash-enabled run.
    ///
    /// The run must have been configured with
    /// `RunConfig::hash_decisions = true`; otherwise there is no digest
    /// stream to wrap and this returns a file-level error.
    pub fn from_run(header: TraceHeader, out: &RunOutput) -> Result<Self, JsonlError> {
        if out.final_state_hash.is_none() || out.decision_hashes.len() != out.decisions.len() {
            return Err(JsonlError::at(
                0,
                "run was not recorded with hash_decisions enabled",
            ));
        }
        let decisions = out
            .decisions
            .iter()
            .zip(out.decision_hashes.iter())
            .enumerate()
            .map(|(i, (d, hash))| TraceDecision {
                t: "d".to_owned(),
                i: i as u64,
                kind: d.kind,
                chosen: d.chosen,
                n: d.n,
                chosen_index: d.chosen_index,
                hash: *hash,
            })
            .collect::<Vec<_>>();
        let mut epochs: Vec<EpochMark> = out
            .snapshots
            .iter()
            .map(EpochMark::of)
            .chain(out.spilled.iter().map(EpochMark::of_spilled))
            .collect();
        epochs.sort_by_key(|e| e.decision);
        let footer = TraceFooter {
            t: "end".to_owned(),
            decisions: decisions.len() as u64,
            stop: out.stop.clone(),
            final_hash: out.final_state_hash.expect("checked above"),
            io: out.io.clone(),
            epochs,
        };
        Ok(JsonlTrace {
            header,
            decisions,
            footer,
        })
    }

    /// Renders the artifact as JSONL text (one JSON object per line,
    /// trailing newline). Deterministic: same artifact, same bytes.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&serde_json::to_string(&self.header).expect("header serializes"));
        s.push('\n');
        for d in &self.decisions {
            s.push_str(&serde_json::to_string(d).expect("decision serializes"));
            s.push('\n');
        }
        s.push_str(&serde_json::to_string(&self.footer).expect("footer serializes"));
        s.push('\n');
        s
    }

    /// Parses JSONL text, validating the envelope, decision-index
    /// contiguity and the footer seal. Errors carry 1-based line numbers.
    pub fn parse(text: &str) -> Result<Self, JsonlError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(n, l)| (n + 1, l))
            .filter(|(_, l)| !l.trim().is_empty());

        let (hline, htext) = lines
            .next()
            .ok_or_else(|| JsonlError::at(0, "empty trace file"))?;
        let header: TraceHeader = serde_json::from_str(htext)
            .map_err(|e| JsonlError::at(hline, format!("bad header: {e}")))?;
        if header.format != JSONL_FORMAT {
            return Err(JsonlError::at(
                hline,
                format!(
                    "unknown format {:?} (expected {JSONL_FORMAT:?})",
                    header.format
                ),
            ));
        }
        if header.version > JSONL_VERSION {
            return Err(JsonlError::at(
                hline,
                format!(
                    "unsupported version {} (this build reads <= {JSONL_VERSION})",
                    header.version
                ),
            ));
        }

        let mut decisions: Vec<TraceDecision> = Vec::new();
        let mut footer: Option<(usize, TraceFooter)> = None;
        for (n, line) in lines {
            if footer.is_some() {
                return Err(JsonlError::at(n, "content after footer line"));
            }
            if let Ok(d) = serde_json::from_str::<TraceDecision>(line) {
                if d.t != "d" {
                    return Err(JsonlError::at(n, format!("unknown line tag {:?}", d.t)));
                }
                if d.i != decisions.len() as u64 {
                    return Err(JsonlError::at(
                        n,
                        format!(
                            "decision index {} out of order (expected {})",
                            d.i,
                            decisions.len()
                        ),
                    ));
                }
                decisions.push(d);
            } else if let Ok(f) = serde_json::from_str::<TraceFooter>(line) {
                if f.t != "end" {
                    return Err(JsonlError::at(n, format!("unknown line tag {:?}", f.t)));
                }
                footer = Some((n, f));
            } else {
                return Err(JsonlError::at(
                    n,
                    "unparseable line (neither a decision nor a footer)",
                ));
            }
        }
        let (fline, footer) =
            footer.ok_or_else(|| JsonlError::at(0, "truncated trace: missing footer line"))?;
        if footer.decisions != decisions.len() as u64 {
            return Err(JsonlError::at(
                fline,
                format!(
                    "footer seals {} decisions but {} were present",
                    footer.decisions,
                    decisions.len()
                ),
            ));
        }
        Ok(JsonlTrace {
            header,
            decisions,
            footer,
        })
    }

    /// Writes the rendered artifact to `path` with
    /// [`write_in_place`](crate::write_in_place): a file already there is
    /// rewritten in place and cut to length, not truncated first.
    pub fn save(&self, path: &Path) -> Result<(), JsonlError> {
        crate::write_in_place(path, self.render().as_bytes())
            .map_err(|e| JsonlError::at(0, format!("write {}: {e}", path.display())))
    }

    /// Reads and parses an artifact from `path`.
    pub fn load(path: &Path) -> Result<Self, JsonlError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| JsonlError::at(0, format!("read {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// The wrapped [`ScheduleLog`] (v2): the decision stream plus epochs,
    /// ready for `into_replay_policy`.
    pub fn schedule_log(&self) -> ScheduleLog {
        ScheduleLog {
            version: SCHEDULE_LOG_VERSION,
            decisions: self
                .decisions
                .iter()
                .map(|d| RecordedDecision {
                    kind: d.kind,
                    chosen: d.chosen,
                })
                .collect::<Vec<_>>()
                .into(),
            epochs: self.footer.epochs.clone(),
        }
    }

    /// The recorded per-decision digest stream, in index order.
    pub fn hashes(&self) -> Vec<u64> {
        self.decisions.iter().map(|d| d.hash).collect()
    }

    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// `true` if the recorded run made no multi-candidate decisions.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JsonlTrace {
        let header = TraceHeader::new(
            "msgserver",
            7,
            11,
            100_000,
            InputScript::new(),
            EnvConfig::clean(),
        );
        let decisions = (0..5)
            .map(|i| TraceDecision {
                t: "d".to_owned(),
                i,
                kind: DecisionKind::NextTask,
                chosen: TaskId((i % 3) as u32),
                n: 3,
                chosen_index: (i % 3) as u32,
                hash: 0x1000 + i,
            })
            .collect::<Vec<_>>();
        let footer = TraceFooter {
            t: "end".to_owned(),
            decisions: 5,
            stop: StopReason::Quiescent,
            final_hash: 0xdead_beef,
            io: IoSummary::default(),
            epochs: vec![EpochMark {
                decision: 2,
                step: 20,
                time: 40,
                snapshot: None,
            }],
        };
        JsonlTrace {
            header,
            decisions,
            footer,
        }
    }

    #[test]
    fn render_parse_round_trip_is_identity() {
        let t = sample();
        let text = t.render();
        let back = JsonlTrace::parse(&text).unwrap();
        assert_eq!(t, back);
        // And the rendering itself is a fixed point.
        assert_eq!(text, back.render());
    }

    /// `save` over a longer file and over a shorter one leaves exactly the
    /// rendered bytes, and `load` reads the trace back from both. A path
    /// that is not a regular file takes the bytes without an error.
    #[test]
    fn save_over_a_longer_or_shorter_file_leaves_exactly_the_rendering() {
        /// Removes the file when dropped, also when an assertion panics.
        struct Removed(std::path::PathBuf);
        impl Drop for Removed {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        let file = Removed(
            std::env::temp_dir().join(format!("dd-jsonl-save-{}.jsonl", std::process::id())),
        );
        let t = sample();
        let text = t.render();
        for stale in [text.repeat(2), text[..text.len() / 3].to_owned()] {
            std::fs::write(&file.0, &stale).unwrap();
            t.save(&file.0).unwrap();
            assert_eq!(std::fs::read_to_string(&file.0).unwrap(), text);
            assert_eq!(JsonlTrace::load(&file.0).unwrap(), t);
        }
        #[cfg(unix)]
        t.save(std::path::Path::new("/dev/null")).unwrap();
    }

    #[test]
    fn schedule_log_carries_decisions_and_epochs() {
        let t = sample();
        let log = t.schedule_log();
        assert_eq!(log.version, SCHEDULE_LOG_VERSION);
        assert_eq!(log.decisions.len(), 5);
        assert_eq!(log.epochs.len(), 1);
        assert_eq!(t.hashes(), vec![0x1000, 0x1001, 0x1002, 0x1003, 0x1004]);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let t = sample();
        let text = t.render();
        // Drop the footer line.
        let cut = text.lines().take(6).collect::<Vec<_>>().join("\n");
        let err = JsonlTrace::parse(&cut).unwrap_err();
        assert!(err.msg.contains("missing footer"), "{err}");
    }

    #[test]
    fn garbage_line_reports_its_line_number() {
        let t = sample();
        let mut lines: Vec<String> = t.render().lines().map(str::to_owned).collect();
        lines[3] = "{not json".to_owned();
        let err = JsonlTrace::parse(&lines.join("\n")).unwrap_err();
        assert_eq!(err.line, 4);
    }

    #[test]
    fn out_of_order_decision_index_is_rejected() {
        let mut t = sample();
        t.decisions[3].i = 7;
        let err = JsonlTrace::parse(&t.render()).unwrap_err();
        assert_eq!(err.line, 5, "decision 3 sits on line 5");
        assert!(err.msg.contains("out of order"));
    }

    #[test]
    fn footer_count_mismatch_is_rejected() {
        let mut t = sample();
        t.footer.decisions = 4;
        let err = JsonlTrace::parse(&t.render()).unwrap_err();
        assert!(err.msg.contains("seals 4 decisions"), "{err}");
    }

    #[test]
    fn wrong_format_and_future_version_are_rejected() {
        let mut t = sample();
        t.header.format = "mystery".to_owned();
        assert!(JsonlTrace::parse(&t.render())
            .unwrap_err()
            .msg
            .contains("unknown format"));
        let mut t = sample();
        t.header.version = JSONL_VERSION + 1;
        assert!(JsonlTrace::parse(&t.render())
            .unwrap_err()
            .msg
            .contains("unsupported version"));
    }

    #[test]
    fn content_after_footer_is_rejected() {
        let t = sample();
        let mut text = t.render();
        text.push_str(&serde_json::to_string(&t.decisions[0]).unwrap());
        text.push('\n');
        let err = JsonlTrace::parse(&text).unwrap_err();
        assert!(err.msg.contains("after footer"));
    }
}
