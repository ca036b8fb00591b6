//! Decode verdicts of the JSON reader, pinned on single-fault mutants of
//! real artifacts.
//!
//! Inputs are rendered at test time from msgserver: its JSONL header, one
//! decision line and its footer; its `ScheduleLog`; the `Artifact` of each
//! of the eight determinism models; and one sealed chunk each of the
//! `trace`, `decisions` and `decision_enabled` logs. Each input gets one
//! fault per row, drawn from a SplitMix64 stream: a key dropped, duplicated
//! (with the same or an ill-typed value), injected or reordered; a value
//! retyped; a sequence element dropped or duplicated; the text truncated or
//! one byte replaced.
//!
//! A row pins whether the mutant decodes and, if it does, the FNV-1a of the
//! decoded value re-encoded. A rejection also pins its exact text when the
//! fault is a missing key, an unknown key, a mistyped scalar struct field
//! or a truncation. The table in `tests/fixtures/decode_golden.txt` was
//! captured with the tree-building decoder that the streaming one replaced.

use dd_cli::{fnv64, workload_by_name};
use debug_determinism::core::Session;
use debug_determinism::replay::{Artifact, ModelKind};
use debug_determinism::sim::{
    run_program, CheckpointPlan, DecisionRecord, EnabledSet, Event, EventMeta, RandomPolicy,
    RunConfig, SnapshotWriter,
};
use debug_determinism::trace::{ScheduleLog, TraceDecision, TraceFooter, TraceHeader};
use debug_determinism::workloads::{MsgServerConfig, MsgServerProgram};
use serde::{Content, Deserialize, Serialize};

const TABLE: &str = include_str!("fixtures/decode_golden.txt");

/// Mutants drawn per fault class and input.
const DRAWS: u64 = 3;

/// SplitMix64 (Steele, Lea and Flood).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Decodes `text` as `T`: the FNV-1a of the value re-encoded, or the error.
fn verdict<T: Serialize + Deserialize>(text: &str) -> Result<u64, String> {
    serde_json::from_str::<T>(text)
        .map(|v| fnv64(serde_json::to_string(&v).expect("re-encodes").as_bytes()))
        .map_err(|e| e.to_string())
}

struct Input {
    name: String,
    text: String,
    decode: fn(&str) -> Result<u64, String>,
}

fn inputs() -> Vec<Input> {
    let mut out = Vec::new();
    let mut push = |name: &str, text: String, decode: fn(&str) -> Result<u64, String>| {
        out.push(Input {
            name: name.to_owned(),
            text,
            decode,
        })
    };

    let session = Session::new(workload_by_name("msgserver").expect("registered"));
    let trace = session.record().expect("msgserver records");
    let rendered = trace.render();
    let lines: Vec<&str> = rendered.lines().collect();
    push("header", lines[0].to_owned(), verdict::<TraceHeader>);
    push(
        "decision",
        lines[lines.len() / 2].to_owned(),
        verdict::<TraceDecision>,
    );
    push(
        "footer",
        lines[lines.len() - 1].to_owned(),
        verdict::<TraceFooter>,
    );

    let models = [
        ("perfect", ModelKind::Perfect),
        ("value", ModelKind::Value),
        ("output-lite", ModelKind::OutputLite),
        ("output-heavy", ModelKind::OutputHeavy),
        ("failure", ModelKind::Failure),
        ("debug", ModelKind::Debug),
        ("msg-order", ModelKind::MsgOrder),
        ("race-complete", ModelKind::RaceComplete),
    ];
    for (slug, kind) in models {
        let artifact = session.record_model(kind).artifact;
        if let Artifact::Perfect { schedule, .. } = &artifact {
            let text = serde_json::to_string(schedule).expect("serializes");
            push("schedule", text, verdict::<ScheduleLog>);
        }
        let text = serde_json::to_string(&artifact).expect("serializes");
        push(&format!("artifact-{slug}"), text, verdict::<Artifact>);
    }

    let program = MsgServerProgram {
        cfg: MsgServerConfig::default(),
        fixed: false,
    };
    let run = run_program(
        &program,
        RunConfig {
            seed: 3,
            collect_trace: true,
            hash_decisions: true,
            checkpoints: Some(CheckpointPlan::new(64, u64::MAX)),
            ..RunConfig::default()
        },
        Box::new(RandomPolicy::new(3)),
        vec![],
    );
    let snap = run.snapshots.last().expect("run took snapshots");
    let mut writer = SnapshotWriter::new();
    writer.write(snap);
    let chunk = |log: &str| {
        let text = writer.chunk(snap, log, 0).expect("the log sealed a chunk");
        text.into_owned()
    };
    push(
        "chunk-trace",
        chunk("trace"),
        verdict::<Vec<(EventMeta, Event)>>,
    );
    push(
        "chunk-decisions",
        chunk("decisions"),
        verdict::<Vec<DecisionRecord>>,
    );
    push(
        "chunk-decision_enabled",
        chunk("decision_enabled"),
        verdict::<Vec<EnabledSet>>,
    );
    out
}

// ---------------------------------------------------------------------------
// Mutants
// ---------------------------------------------------------------------------

/// The fault classes, in table order.
const CLASSES: &[&str] = &[
    "drop-key",
    "dup-key-same",
    "dup-key-ill",
    "unknown-key",
    "reverse-keys",
    "retype-str",
    "retype-float",
    "retype-neg",
    "retype-u64max",
    "retype-null",
    "retype-seq",
    "retype-map",
    "drop-elem",
    "dup-elem",
    "truncate",
    "replace-byte",
];

/// A node of the tree: the child indices from the root (pair index in a
/// map, element index in a sequence).
type Path = Vec<usize>;

/// Every node below the root, with whether it is a scalar whose parent is
/// a struct's map.
fn nodes(c: &Content, path: &mut Path, out: &mut Vec<(Path, bool)>) {
    match c {
        Content::Seq(items) => {
            for (i, item) in items.iter().enumerate() {
                path.push(i);
                out.push((path.clone(), false));
                nodes(item, path, out);
                path.pop();
            }
        }
        Content::Map(pairs) => {
            let fields = is_struct(pairs);
            for (i, (_, v)) in pairs.iter().enumerate() {
                path.push(i);
                out.push((path.clone(), fields && is_scalar(v)));
                nodes(v, path, out);
                path.pop();
            }
        }
        _ => {}
    }
}

fn is_scalar(c: &Content) -> bool {
    !matches!(c, Content::Seq(_) | Content::Map(_))
}

/// A struct's map, not an enum variant's: field names are snake_case,
/// variant names CamelCase.
fn is_struct(pairs: &[(Content, Content)]) -> bool {
    pairs
        .first()
        .and_then(|(k, _)| k.as_str())
        .is_some_and(|k| k.starts_with(|c: char| c.is_ascii_lowercase() || c == '_'))
}

fn node<'a>(mut c: &'a Content, path: &[usize]) -> &'a Content {
    for &i in path {
        c = match c {
            Content::Seq(items) => &items[i],
            Content::Map(pairs) => &pairs[i].1,
            _ => unreachable!("paths only step into containers"),
        };
    }
    c
}

fn node_mut<'a>(mut c: &'a mut Content, path: &[usize]) -> &'a mut Content {
    for &i in path {
        c = match c {
            Content::Seq(items) => &mut items[i],
            Content::Map(pairs) => &mut pairs[i].1,
            _ => unreachable!("paths only step into containers"),
        };
    }
    c
}

/// Containers of the tree (the root included) matching `want`.
fn containers(root: &Content, want: fn(&Content) -> bool) -> Vec<Path> {
    let mut all = vec![(Vec::new(), false)];
    nodes(root, &mut Vec::new(), &mut all);
    all.into_iter()
        .map(|(p, _)| p)
        .filter(|p| want(node(root, p)))
        .collect()
}

/// One mutant: its label, its text, and whether its rejection text is
/// pinned.
struct Mutant {
    label: String,
    text: String,
    pin_text: bool,
}

fn key_name(pairs: &[(Content, Content)], i: usize) -> String {
    pairs[i].0.as_str().unwrap_or("?").to_owned()
}

/// Draws one mutant of `class` from `text` (parsed as `tree`), or `None`
/// when the input has nothing the class can mutate. The first draw of a
/// key fault targets the root map, which a random draw would rarely reach
/// in an input of many small maps.
fn mutate(class: &str, draw: u64, text: &str, tree: &Content, rng: &mut Rng) -> Option<Mutant> {
    let json = |c: &Content| serde_json::to_string(c).expect("serializes");
    let mut root = tree.clone();
    let pick = |paths: Vec<Path>, rng: &mut Rng| {
        (!paths.is_empty()).then(|| paths[rng.below(paths.len())].clone())
    };
    let non_empty_map = |c: &Content| matches!(c, Content::Map(p) if !p.is_empty());
    let (label, pin_text) = match class {
        "drop-key" | "dup-key-same" | "dup-key-ill" | "reverse-keys" => {
            let want: fn(&Content) -> bool = if class == "reverse-keys" {
                |c| matches!(c, Content::Map(p) if p.len() > 1)
            } else {
                non_empty_map
            };
            let path = if draw == 0 && want(tree) {
                Vec::new()
            } else {
                pick(containers(tree, want), rng)?
            };
            let Content::Map(pairs) = node_mut(&mut root, &path) else {
                unreachable!()
            };
            let fields = is_struct(pairs);
            let i = rng.below(pairs.len());
            let key = key_name(pairs, i);
            match class {
                "drop-key" => {
                    pairs.remove(i);
                    (format!("drop `{key}`"), fields)
                }
                "reverse-keys" => {
                    pairs.reverse();
                    ("reversed".to_owned(), false)
                }
                _ => {
                    let mut dup = pairs[i].clone();
                    if class == "dup-key-ill" {
                        dup.1 = match dup.1 {
                            Content::Str(_) => Content::Bool(true),
                            _ => Content::Str("ill".to_owned()),
                        };
                    }
                    let at = rng.below(pairs.len() + 1);
                    pairs.insert(at, dup);
                    (format!("`{key}` again at {at}"), false)
                }
            }
        }
        "unknown-key" => {
            let is_map: fn(&Content) -> bool = |c| matches!(c, Content::Map(_));
            let path = if draw == 0 && is_map(tree) {
                Vec::new()
            } else {
                pick(containers(tree, is_map), rng)?
            };
            let Content::Map(pairs) = node_mut(&mut root, &path) else {
                unreachable!()
            };
            let fields = is_struct(pairs);
            let at = rng.below(pairs.len() + 1);
            pairs.insert(at, (Content::Str("zz_unknown".to_owned()), Content::U64(1)));
            (format!("at {at}"), fields)
        }
        "drop-elem" | "dup-elem" => {
            let seqs = containers(tree, |c| matches!(c, Content::Seq(s) if !s.is_empty()));
            let path = pick(seqs, rng)?;
            let Content::Seq(items) = node_mut(&mut root, &path) else {
                unreachable!()
            };
            let i = rng.below(items.len());
            if class == "drop-elem" {
                items.remove(i);
            } else {
                let dup = items[i].clone();
                items.insert(i + 1, dup);
            }
            (format!("element {i}"), false)
        }
        "truncate" => {
            let at = loop {
                let at = rng.below(text.len());
                if text.is_char_boundary(at) {
                    break at;
                }
            };
            return Some(Mutant {
                label: format!("at byte {at}"),
                text: text[..at].to_owned(),
                pin_text: true,
            });
        }
        "replace-byte" => {
            const PALETTE: &[u8] = b"\"{}[],:0159a-.e x\\";
            let at = loop {
                let at = rng.below(text.len());
                if text.as_bytes()[at].is_ascii() {
                    break at;
                }
            };
            let mut bytes = text.as_bytes().to_vec();
            let with = PALETTE[rng.below(PALETTE.len())];
            bytes[at] = with;
            return Some(Mutant {
                label: format!("byte {at} := {:?}", with as char),
                text: String::from_utf8(bytes).expect("an ASCII byte for an ASCII byte"),
                pin_text: false,
            });
        }
        retype => {
            let mut all = Vec::new();
            nodes(tree, &mut Vec::new(), &mut all);
            let (path, field_scalar) = all[rng.below(all.len())].clone();
            *node_mut(&mut root, &path) = match retype {
                "retype-str" => Content::Str("x".to_owned()),
                "retype-float" => Content::F64(0.5),
                "retype-neg" => Content::I64(-1),
                "retype-u64max" => Content::U64(u64::MAX),
                "retype-null" => Content::Null,
                "retype-seq" => Content::Seq(Vec::new()),
                "retype-map" => Content::Map(Vec::new()),
                other => unreachable!("unknown class {other}"),
            };
            (format!("node {path:?}"), field_scalar)
        }
    };
    Some(Mutant {
        label,
        text: json(&root),
        pin_text,
    })
}

fn row(
    input: &str,
    class: &str,
    label: &str,
    verdict: Result<u64, String>,
    pin_text: bool,
) -> String {
    let v = match verdict {
        Ok(h) => format!("ok {h:016x}"),
        Err(e) if pin_text => format!("err {e}"),
        Err(_) => "err".to_owned(),
    };
    format!("{input}\t{class}\t{label}\t{v}")
}

#[test]
fn decode_verdicts_of_mutated_artifacts_are_pinned() {
    let mut actual = Vec::new();
    for input in inputs() {
        let tree: Content = serde_json::from_str(&input.text).expect("input parses");
        assert_eq!(
            serde_json::to_string(&tree).expect("serializes"),
            input.text,
            "{}: the tree re-renders to the input",
            input.name
        );
        let base = (input.decode)(&input.text);
        assert!(
            base.is_ok(),
            "{}: the input itself decodes: {base:?}",
            input.name
        );
        actual.push(row(&input.name, "none", "-", base, true));
        for (c, class) in CLASSES.iter().enumerate() {
            let mut rng = Rng(fnv64(input.name.as_bytes()) ^ c as u64);
            for draw in 0..DRAWS {
                let Some(m) = mutate(class, draw, &input.text, &tree, &mut rng) else {
                    continue;
                };
                let v = (input.decode)(&m.text);
                actual.push(row(&input.name, class, &m.label, v, m.pin_text));
            }
        }
    }

    let expected: Vec<&str> = TABLE.lines().collect();
    let diffs: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a != e)
        .map(|(a, e)| format!("  want {e}\n   got {a}"))
        .collect();
    if diffs.is_empty() && actual.len() == expected.len() {
        return;
    }
    let dump = std::env::temp_dir().join(format!("decode_golden-{}.txt", std::process::id()));
    std::fs::write(&dump, actual.join("\n") + "\n").expect("writes the computed table");
    panic!(
        "decode verdicts differ from tests/fixtures/decode_golden.txt \
         ({} rows computed, {} pinned, {} differ; computed table in {}):\n{}",
        actual.len(),
        expected.len(),
        diffs.len(),
        dump.display(),
        diffs
            .iter()
            .take(20)
            .cloned()
            .collect::<Vec<_>>()
            .join("\n")
    );
}
