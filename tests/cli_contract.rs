//! The `dd` binary's exit-code contract, end to end:
//!
//! - `0` — replay identical to the recording (or `--invariant-only` with no
//!   behavioural drift);
//! - `1` — replay diverged from the recorded digest stream;
//! - `2` — `--invariant-only` found the specification verdict drifted;
//! - `3` — usage error (bad verb, missing operand, unknown workload);
//! - `4` — I/O or parse error on the trace artifact.
//!
//! These run the real binary (`CARGO_BIN_EXE_dd`), so they also pin the
//! user-visible wording the README walkthrough quotes.

use debug_determinism::sim::TaskId;
use debug_determinism::trace::JsonlTrace;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn dd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dd"))
        .args(args)
        .output()
        .expect("spawn dd")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("dd exited with a code")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A per-test scratch file under the target-adjacent temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dd-cli-contract-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn record_msgserver(path: &Path) {
    let out = dd(&["record", "msgserver", "--out", path.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "record failed: {}", stderr(&out));
}

/// Forces an impossible task choice into the first multi-candidate
/// decision, returning the mutated decision's index. The forced task is
/// never runnable, so a strict replay must stop exactly there.
fn sabotage_decision(path: &Path) -> u64 {
    let mut trace = JsonlTrace::load(path).expect("recorded trace parses");
    let idx = trace
        .decisions
        .iter()
        .position(|d| d.n > 1)
        .expect("msgserver has multi-candidate decisions");
    trace.decisions[idx].chosen = TaskId(9999);
    trace.save(path).expect("save mutated trace");
    idx as u64
}

#[test]
fn faithful_replay_exits_zero() {
    let trace = scratch("faithful.jsonl");
    record_msgserver(&trace);
    let out = dd(&["replay", trace.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("replay identical"));
}

#[test]
fn recording_is_byte_stable_across_invocations() {
    let a = scratch("stable-a.jsonl");
    let b = scratch("stable-b.jsonl");
    record_msgserver(&a);
    record_msgserver(&b);
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "same workload + seeds must produce byte-identical golden traces"
    );
}

#[test]
fn mutated_decision_exits_one_at_exactly_that_index() {
    let trace = scratch("mutated.jsonl");
    record_msgserver(&trace);
    let idx = sabotage_decision(&trace);
    let out = dd(&["replay", trace.to_str().unwrap()]);
    assert_eq!(code(&out), 1, "stdout: {}", stdout(&out));
    assert!(
        stdout(&out).contains(&format!("FIRST DIVERGENCE at decision {idx}")),
        "must name the mutated decision; stdout: {}",
        stdout(&out)
    );
}

#[test]
fn snapshot_flag_writes_the_state_diff() {
    let trace = scratch("diffed.jsonl");
    let diff = scratch("diffed.diff.json");
    record_msgserver(&trace);
    let idx = sabotage_decision(&trace);
    let out = dd(&[
        "replay",
        trace.to_str().unwrap(),
        "--snapshot",
        diff.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 1);
    let body = std::fs::read_to_string(&diff).expect("diff file written");
    assert!(body.contains(&format!("\"diverged_at_decision\": {idx}")));
    assert!(body.contains("\"recorded\"") && body.contains("\"replayed\""));
}

#[test]
fn invariant_only_exits_two_on_behavioural_drift() {
    let trace = scratch("drifted.jsonl");
    let out = dd(&["record", "hyperstore", "--out", trace.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "record failed: {}", stderr(&out));
    // The sabotaged schedule stops the replay before the cluster finishes
    // loading: the recorded verdict is `rows-missing`, the truncated
    // replay's is `incomplete` — the verdicts drift.
    sabotage_decision(&trace);
    let out = dd(&["replay", trace.to_str().unwrap(), "--invariant-only"]);
    assert_eq!(code(&out), 2, "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("behavioural drift"));
}

#[test]
fn invariant_only_exits_zero_when_behaviour_matches() {
    let trace = scratch("behaved.jsonl");
    record_msgserver(&trace);
    let out = dd(&["replay", trace.to_str().unwrap(), "--invariant-only"]);
    assert_eq!(code(&out), 0, "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("behaviour identical"));
}

#[test]
fn usage_errors_exit_three() {
    assert_eq!(code(&dd(&[])), 3);
    assert_eq!(code(&dd(&["frobnicate"])), 3);
    assert_eq!(code(&dd(&["replay"])), 3);
    assert_eq!(code(&dd(&["record", "no-such-workload"])), 3);
    assert_eq!(
        code(&dd(&["promote", "x.jsonl"])),
        3,
        "--emit-test is required"
    );
}

/// `dd explore` validates its budget like every library caller: a search
/// that could never run a candidate is a usage error, not an empty result.
#[test]
fn explore_budget_that_explores_nothing_exits_three() {
    let trace = scratch("explore-budget.jsonl");
    record_msgserver(&trace);
    let path = trace.to_str().unwrap();
    for (flag, why) in [
        ("--executions", "max_executions is 0"),
        ("--depth", "max_depth 0"),
    ] {
        let out = dd(&["explore", path, flag, "0"]);
        assert_eq!(code(&out), 3, "{flag} 0: stdout: {}", stdout(&out));
        assert!(
            stderr(&out).contains(why),
            "{flag} 0: stderr: {}",
            stderr(&out)
        );
    }
}

#[test]
fn missing_or_garbage_trace_exits_four() {
    let out = dd(&["replay", "/definitely/not/a/trace.jsonl"]);
    assert_eq!(code(&out), 4);

    let garbage = scratch("garbage.jsonl");
    std::fs::write(&garbage, "this is not a trace\n").unwrap();
    let out = dd(&["replay", garbage.to_str().unwrap()]);
    assert_eq!(code(&out), 4);
    assert!(
        stderr(&out).contains("line 1"),
        "parse errors carry line numbers; stderr: {}",
        stderr(&out)
    );
}

#[test]
fn unknown_trailing_field_exits_four_with_the_line_number() {
    let trace = scratch("unknown-field.jsonl");
    let out = dd(&["record", "sum", "--out", trace.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "record failed: {}", stderr(&out));
    // Append an unknown field to the header line: v1 readers must reject
    // rather than silently drop it.
    let text = std::fs::read_to_string(&trace).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let header = lines[0].strip_suffix('}').expect("header is a JSON object");
    lines[0] = format!("{header},\"junk\":1}}");
    std::fs::write(&trace, lines.join("\n") + "\n").unwrap();

    let out = dd(&["replay", trace.to_str().unwrap()]);
    assert_eq!(code(&out), 4, "stdout: {}", stdout(&out));
    assert!(
        stderr(&out).contains("line 1"),
        "rejection names the offending line; stderr: {}",
        stderr(&out)
    );
}

#[test]
fn model_artifact_record_and_replay_round_trip_through_the_binary() {
    let artifact = scratch("msgserver.msg-order.json");
    let out = dd(&[
        "record",
        "msgserver",
        "--model=msg-order",
        "--out",
        artifact.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "record --model failed: {}", stderr(&out));
    assert!(stdout(&out).contains("model      : msg-order"));

    let out = dd(&["replay", artifact.to_str().unwrap(), "--model"]);
    assert_eq!(code(&out), 0, "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("satisfied  : true"));
    assert!(stdout(&out).contains("failure reproduced : yes"));
}

#[test]
fn unknown_model_kind_exits_three() {
    let out = dd(&["record", "sum", "--model=frobnicate"]);
    assert_eq!(code(&out), 3);
    assert!(
        stderr(&out).contains("unknown model kind"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn promote_emits_a_runnable_fixture_pair() {
    let trace = scratch("promote-src.jsonl");
    let out = dd(&["record", "sum", "--out", trace.to_str().unwrap()]);
    assert_eq!(code(&out), 0);

    let dir = scratch("promoted-tests");
    let out = dd(&[
        "promote",
        trace.to_str().unwrap(),
        "--emit-test",
        "--name",
        "promoted_sum_case",
        "--dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let fixture = dir.join("fixtures/promoted_sum_case.jsonl");
    let test = dir.join("promoted_sum_case.rs");
    assert!(fixture.exists() && test.exists());
    JsonlTrace::load(&fixture).expect("emitted fixture is a sealed trace");
    let body = std::fs::read_to_string(&test).unwrap();
    assert!(body.contains("include_str!"));
    assert!(body.contains("fixture_replays_without_divergence"));
}
