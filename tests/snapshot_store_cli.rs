//! The persistent snapshot store, end to end through the real `dd` binary:
//!
//! - `dd record --spill` writes a `<trace>.snapshots/` store whose trace
//!   artifact is byte-stable across invocations;
//! - `dd replay --from N` restores the nearest stored snapshot in a *fresh
//!   process* (every `dd` invocation here is its own process, cold from
//!   on-disk artifacts) and reproduces the recorded digest stream for all
//!   four workloads — including the scratch fallback when the run is too
//!   short to have stored anything;
//! - corrupt store artifacts (garbled chunk, truncated manifest, garbled
//!   index) exit `4` and name the offending file, never panic;
//! - a store an earlier recording left at the trace's path exits `4` and
//!   names the store, rather than being restored into the wrong run;
//! - `dd snapshots` lists the store.

mod common;

use common::Scratch;
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

fn record_spilled(workload: &str, path: &Path) {
    let out = dd(&[
        "record",
        workload,
        "--out",
        path.to_str().unwrap(),
        "--spill",
        "--spill-every",
        "4",
    ]);
    assert_eq!(code(&out), 0, "record --spill failed: {}", stderr(&out));
}

/// The recorded decision count, parsed from the trace artifact.
fn decisions_of(path: &Path) -> u64 {
    debug_determinism::trace::JsonlTrace::load(path)
        .expect("spilled trace parses")
        .footer
        .decisions
}

#[test]
fn replay_from_reproduces_all_four_workloads_from_cold_artifacts() {
    let tmp = Scratch::new(
        "snapstore-cli",
        "replay_from_reproduces_all_four_workloads_from_cold_artifacts",
    );
    for workload in ["msgserver", "sum", "bufoverflow", "hyperstore"] {
        let trace = tmp.join(format!("grid-{workload}.jsonl"));
        record_spilled(workload, &trace);
        let mid = decisions_of(&trace) / 2;
        let out = dd(&[
            "replay",
            trace.to_str().unwrap(),
            "--from",
            &mid.to_string(),
        ]);
        assert_eq!(
            code(&out),
            0,
            "{workload}: replay --from {mid} failed: {}{}",
            stdout(&out),
            stderr(&out)
        );
        assert!(
            stdout(&out).contains("replay identical"),
            "{workload}: {}",
            stdout(&out)
        );
    }
}

#[test]
fn spilled_recording_is_byte_stable_across_invocations() {
    let tmp = Scratch::new(
        "snapstore-cli",
        "spilled_recording_is_byte_stable_across_invocations",
    );
    let a = tmp.join("stable-a.jsonl");
    let b = tmp.join("stable-b.jsonl");
    record_spilled("msgserver", &a);
    record_spilled("msgserver", &b);
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "dd record --spill must be deterministic"
    );
}

#[test]
fn replay_from_restores_a_mid_run_snapshot_not_scratch() {
    let tmp = Scratch::new(
        "snapstore-cli",
        "replay_from_restores_a_mid_run_snapshot_not_scratch",
    );
    let trace = tmp.join("midrun.jsonl");
    record_spilled("msgserver", &trace);
    let mid = decisions_of(&trace) / 2;
    let out = dd(&[
        "replay",
        trace.to_str().unwrap(),
        "--from",
        &mid.to_string(),
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("restored snapshot"),
        "deep spilled run must restore from the store, got: {text}"
    );
}

#[test]
fn corrupt_chunk_exits_four_and_names_the_file() {
    let tmp = Scratch::new(
        "snapstore-cli",
        "corrupt_chunk_exits_four_and_names_the_file",
    );
    let trace = tmp.join("corrupt-chunk.jsonl");
    record_spilled("msgserver", &trace);
    let chunks = PathBuf::from(format!("{}.snapshots", trace.display())).join("chunks");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&chunks)
        .expect("chunks dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert!(!files.is_empty(), "spilled store has sealed chunks");
    // Which chunks a restore touches depends on which snapshot is nearest,
    // so garble them all: the restore must fail on whichever it reads
    // first, and the error must name that file. Garbage that parses but
    // has the wrong shape must be named as well as garbage that does not
    // parse.
    for garbage in [r#"[{"bogus":1}]"#, "{ not json"] {
        for victim in &files {
            std::fs::write(victim, garbage).unwrap();
        }

        let mid = decisions_of(&trace) / 2;
        let out = dd(&[
            "replay",
            trace.to_str().unwrap(),
            "--from",
            &mid.to_string(),
        ]);
        assert_eq!(
            code(&out),
            4,
            "{garbage}: stdout: {} stderr: {}",
            stdout(&out),
            stderr(&out)
        );
        let err = stderr(&out);
        assert!(
            files
                .iter()
                .any(|f| err.contains(f.file_name().unwrap().to_str().unwrap())),
            "{garbage}: error must name the corrupt chunk file: {err}"
        );
    }
}

#[test]
fn truncated_manifest_exits_four_and_names_the_file() {
    let tmp = Scratch::new(
        "snapstore-cli",
        "truncated_manifest_exits_four_and_names_the_file",
    );
    let trace = tmp.join("corrupt-manifest.jsonl");
    record_spilled("msgserver", &trace);
    let snaps = PathBuf::from(format!("{}.snapshots", trace.display())).join("snaps");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&snaps)
        .expect("snaps dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    for victim in &files {
        let body = std::fs::read(victim).unwrap();
        std::fs::write(victim, &body[..body.len() / 2]).unwrap();
    }
    let mid = decisions_of(&trace) / 2;
    let out = dd(&[
        "replay",
        trace.to_str().unwrap(),
        "--from",
        &mid.to_string(),
    ]);
    assert_eq!(
        code(&out),
        4,
        "stdout: {} stderr: {}",
        stdout(&out),
        stderr(&out)
    );
    assert!(
        stderr(&out).contains(".json"),
        "error must name a manifest file: {}",
        stderr(&out)
    );
}

#[test]
fn garbled_index_exits_four_and_names_store_json() {
    let tmp = Scratch::new(
        "snapstore-cli",
        "garbled_index_exits_four_and_names_store_json",
    );
    let trace = tmp.join("corrupt-index.jsonl");
    record_spilled("msgserver", &trace);
    let index = PathBuf::from(format!("{}.snapshots", trace.display())).join("store.json");
    std::fs::write(&index, "]]]").unwrap();
    let out = dd(&["replay", trace.to_str().unwrap(), "--from", "10"]);
    assert_eq!(code(&out), 4, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("store.json"), "{}", stderr(&out));
}

#[test]
fn snapshots_verb_lists_the_store_and_missing_store_exits_four() {
    let tmp = Scratch::new(
        "snapstore-cli",
        "snapshots_verb_lists_the_store_and_missing_store_exits_four",
    );
    let trace = tmp.join("listing.jsonl");
    record_spilled("msgserver", &trace);
    let out = dd(&["snapshots", trace.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("restore-distance bound"), "{text}");
    assert!(text.contains("delta-bytes"), "{text}");
    assert!(text.contains("snapshots,"), "{text}");

    let bare = tmp.join("no-store.jsonl");
    let out = dd(&["record", "msgserver", "--out", bare.to_str().unwrap()]);
    assert_eq!(code(&out), 0);
    let out = dd(&["snapshots", bare.to_str().unwrap()]);
    assert_eq!(code(&out), 4, "{}", stderr(&out));
    assert!(
        stderr(&out).contains("no snapshot store"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn stale_store_of_an_earlier_recording_exits_four_and_names_it() {
    let tmp = Scratch::new(
        "snapstore-cli",
        "stale_store_of_an_earlier_recording_exits_four_and_names_it",
    );
    let trace = tmp.join("stale.jsonl");
    record_spilled("msgserver", &trace);
    // Re-recording without `--spill` leaves the first recording's store.
    let path = trace.to_str().unwrap();
    let out = dd(&[
        "record",
        "msgserver",
        "--seed",
        "5",
        "--sched-seed",
        "9",
        "--out",
        path,
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let store = format!("{path}.snapshots");
    let out = dd(&["replay", path, "--from", "200"]);
    let err = stderr(&out);
    assert_eq!(code(&out), 4, "stdout: {} stderr: {err}", stdout(&out));
    assert!(
        err.contains(&store) && err.contains("snapshot "),
        "error must name the store and the snapshot: {err}"
    );
}
