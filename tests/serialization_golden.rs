//! Byte-level golden values for the JSON this workspace writes.
//!
//! `ddbench check` pins byte *counts* and the trace-hash tables pin the
//! event stream, but a JSON writer that reordered keys, re-spaced pretty
//! output or formatted a number differently could keep every length equal.
//! These tables pin the exact bytes (FNV-1a and length) of every artifact
//! kind — JSONL traces, `dd record --model` documents and every file of a
//! spilled snapshot store — plus exact strings for the writer's edge cases.
//! The values were captured with the tree-building JSON writer that the
//! streaming one replaced, and the kept-store rows with the snapshot
//! encoder that the incremental writer replaced; any change to them is a
//! format change.

use dd_cli::{fnv64, workload_by_name, WORKLOADS};
use debug_determinism::core::Session;
use debug_determinism::sim::{run_program, RandomPolicy, RunConfig};
use debug_determinism::trace::JsonlTrace;
use debug_determinism::workloads::{MsgServerConfig, MsgServerProgram};
use serde::{Content, Serialize};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::process::Command;

/// One pinned artifact: name, FNV-1a of its bytes, byte length.
type Pin = (&'static str, u64, usize);

/// Compares computed pins with a golden table, printing the computed
/// table as Rust source on mismatch so a deliberate format change can be
/// re-pinned in one paste.
fn assert_pins(what: &str, actual: &[(String, u64, usize)], expected: &[Pin]) {
    let same = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|((n, h, l), (en, eh, el))| n == en && h == eh && l == el);
    if !same {
        let table: String = actual
            .iter()
            .map(|(n, h, l)| format!("    ({n:?}, 0x{h:016x}, {l}),\n"))
            .collect();
        panic!("{what}: bytes differ from the golden table; computed:\n{table}");
    }
}

fn pin(name: impl Into<String>, bytes: &[u8]) -> (String, u64, usize) {
    (name.into(), fnv64(bytes), bytes.len())
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dd-serialization-golden-{}-{name}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn dd(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_dd"))
        .args(args)
        .output()
        .expect("spawn dd");
    assert!(
        out.status.success(),
        "dd {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `JsonlTrace::render()` of every registered workload's production
/// recording.
const JSONL_TRACES: &[Pin] = &[
    ("msgserver-drops", 0x1d3507965b073444, 45177),
    ("sum-2plus2", 0x998aa9bf2801eb74, 605),
    ("bufoverflow", 0xdf3f2a405befe7b0, 2464),
    ("hyperstore-issue63", 0x39bf1761ea5d5dd4, 83550),
    ("hyperstore-failover", 0x26053091629ab63c, 109439),
];

#[test]
fn jsonl_trace_of_every_workload_is_pinned() {
    let actual: Vec<_> = WORKLOADS
        .iter()
        .map(|(name, _)| {
            let workload = workload_by_name(name).expect("registered workload");
            let trace = Session::new(workload).record().expect("production records");
            pin(*name, trace.render().as_bytes())
        })
        .collect();
    assert_pins("JSONL traces", &actual, JSONL_TRACES);
}

/// The pretty-printed document `dd record msgserver --model <kind>` writes.
const MODEL_DOCUMENTS: &[Pin] = &[
    ("perfect", 0x21341fe62ecd489b, 39189),
    ("value", 0xdfce8c1b76f6a66b, 182138),
    ("output-lite", 0x4c812acf9571eb11, 731),
    ("output-heavy", 0xd824d4988348f3b8, 782),
    ("failure", 0xa50768b987f85e32, 825),
    ("debug", 0x29887f0d4a734f2a, 634577),
    ("msg-order", 0x2d0656a4220222c4, 77716),
    ("race-complete", 0x9b2c84eebcd2d945, 126132),
];

#[test]
fn model_documents_on_msgserver_are_pinned() {
    let dir = scratch("models");
    let actual: Vec<_> = [
        "perfect",
        "value",
        "output-lite",
        "output-heavy",
        "failure",
        "debug",
        "msg-order",
        "race-complete",
    ]
    .iter()
    .map(|model| {
        let path = dir.join(format!("{model}.json"));
        dd(&[
            "record",
            "msgserver",
            "--model",
            model,
            "--out",
            path.to_str().expect("utf-8 path"),
        ]);
        pin(*model, &std::fs::read(&path).expect("document written"))
    })
    .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert_pins("model documents", &actual, MODEL_DOCUMENTS);
}

/// Every file, sorted by path, of the store
/// `dd record msgserver --spill --spill-every 4` writes (default bound and
/// keep), plus the trace itself.
const SPILLED_STORE: &[Pin] = &[
    ("incident.jsonl", 0xd3b640a5706d2535, 50512),
    ("chunks/decision_enabled-0.json", 0x985c298de0a66869, 17179),
    ("chunks/decision_hashes-0.json", 0x4682cb4885d79aff, 5219),
    ("chunks/decisions-0.json", 0xce35ef9d336bf644, 13825),
    ("chunks/syslog-0-0.json", 0xbf81b39db34be0a0, 1905),
    ("chunks/syslog-1-0.json", 0xb1bb129f4d1024cf, 1911),
    ("chunks/syslog-2-0.json", 0xc1c8de42da6b6c00, 6713),
    ("chunks/syslog-2-1.json", 0x5b543fcbebb72543, 6022),
    ("chunks/syslog-2-2.json", 0x0ed7bbd47bc2771a, 6346),
    ("chunks/syslog-2-3.json", 0x27fcc1428d48e5c5, 6187),
    ("chunks/syslog-3-0.json", 0x891352e50d4bfb5f, 1854),
    ("chunks/trace-0.json", 0x8174af380ce3ba86, 35902),
    ("chunks/trace-1.json", 0x09a687b643027d14, 38578),
    ("chunks/trace-2.json", 0xf460253a1bc928ed, 36898),
    ("snaps/112.json", 0x45ee18376c5bd18a, 67385),
    ("snaps/22.json", 0xfc00f61d7ace2a21, 49191),
    ("snaps/31.json", 0xc6a3c705cd196963, 31766),
    ("snaps/46.json", 0xf9ff105ff4dc9b74, 60646),
    ("snaps/54.json", 0xa9e16a714cd2a431, 75022),
    ("snaps/68.json", 0xbfe85a610577bddd, 29022),
    ("snaps/7.json", 0xa2c615a4d57c009f, 17487),
    ("snaps/82.json", 0x5925c4213f822682, 50950),
    ("snaps/98.json", 0x5fdc4784d8caf144, 39296),
    ("store.json", 0xd259e2c1251118e4, 4284),
];

fn files_under(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable store dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files_under(root, &path, out);
        } else {
            out.push(path.strip_prefix(root).expect("under root").to_owned());
        }
    }
}

#[test]
fn spilled_msgserver_store_is_pinned() {
    let dir = scratch("store");
    let trace = dir.join("incident.jsonl");
    let trace_arg = trace.to_str().expect("utf-8 path");
    dd(&[
        "record",
        "msgserver",
        "--out",
        trace_arg,
        "--spill",
        "--spill-every",
        "4",
    ]);
    let store = dir.join("incident.jsonl.snapshots");
    let mut files = Vec::new();
    files_under(&store, &store, &mut files);
    files.sort();
    let mut actual = vec![pin(
        "incident.jsonl",
        &std::fs::read(&trace).expect("trace written"),
    )];
    actual.extend(files.iter().map(|rel| {
        let bytes = std::fs::read(store.join(rel)).expect("store file");
        pin(rel.to_str().expect("utf-8 path"), &bytes)
    }));
    std::fs::remove_dir_all(&dir).ok();
    assert_pins("spilled store", &actual, SPILLED_STORE);
}

/// One whole store: file count, total bytes, and FNV-1a over every file's
/// path, a NUL byte and its contents, in path order.
type StorePin = (&'static str, usize, u64, u64);

/// Stores that keep every snapshot (`--spill-keep 1000000`), so every
/// manifest a recording writes is pinned: an offer at every msgserver
/// decision; failover's tasks and syscall logs appearing mid-run after its
/// production crash; offers far enough apart that a log's tail seals into
/// a chunk between two of them, or several chunks seal at once; and a
/// failover run with a partition and a restart, whose manifests carry every
/// fault-plane field non-empty in at least one snapshot (pending and active
/// partitions, pending heals and restarts, fired restarts, restart counts).
const KEPT_STORES: &[StorePin] = &[
    (
        "msgserver --spill-every 1",
        467,
        19719147,
        0x6366bbc688069b94,
    ),
    (
        "failover --spill-every 4",
        306,
        17900678,
        0x9fe9257a858a55fb,
    ),
    ("failover --spill-every 300", 30, 642163, 0x15efb46d32b6dbf7),
    (
        "failover --partition 40:200:server0:server2 --restart 1070:server1 --spill-every 8",
        242,
        14959724,
        0xa86c6316bfa57a55,
    ),
];

#[test]
fn every_manifest_of_a_store_that_keeps_all_is_pinned() {
    let dir = scratch("kept");
    let mut actual = Vec::new();
    let faults = [
        "--partition",
        "40:200:server0:server2",
        "--restart",
        "1070:server1",
    ];
    for (name, workload, every, extra) in [
        ("msgserver --spill-every 1", "msgserver", "1", &[][..]),
        ("failover --spill-every 4", "failover", "4", &[]),
        ("failover --spill-every 300", "failover", "300", &[]),
        (KEPT_STORES[3].0, "failover", "8", &faults),
    ] {
        let trace = dir.join(format!("{workload}-{every}.jsonl"));
        let trace_arg = trace.to_str().expect("utf-8 path");
        let mut args = vec!["record", workload, "--out", trace_arg];
        args.extend(extra);
        args.extend(["--spill", "--spill-every", every, "--spill-keep", "1000000"]);
        dd(&args);
        let store = PathBuf::from(format!("{trace_arg}.snapshots"));
        let mut files = Vec::new();
        files_under(&store, &store, &mut files);
        files.sort();
        let (mut all, mut total) = (Vec::new(), 0u64);
        for rel in &files {
            let bytes = std::fs::read(store.join(rel)).expect("store file");
            total += bytes.len() as u64;
            all.extend_from_slice(rel.to_str().expect("utf-8 path").as_bytes());
            all.push(0);
            all.extend_from_slice(&bytes);
        }
        actual.push((name, files.len(), total, fnv64(&all)));
    }
    std::fs::remove_dir_all(&dir).ok();
    if actual != KEPT_STORES {
        let table: String = actual
            .iter()
            .map(|(n, f, b, h)| format!("    ({n:?}, {f}, {b}, 0x{h:016x}),\n"))
            .collect();
        panic!("kept stores: bytes differ from the golden table; computed:\n{table}");
    }
}

// ---------------------------------------------------------------------------
// Edge values
// ---------------------------------------------------------------------------

fn json<T: Serialize + ?Sized>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

fn pretty<T: Serialize + ?Sized>(v: &T) -> String {
    serde_json::to_string_pretty(v).expect("serializes")
}

#[test]
fn string_escapes_are_pinned() {
    // Every escape class: the two mandatory ones, the five short control
    // escapes, `\u00XX` for the rest of the control range; `/` and DEL
    // pass through.
    assert_eq!(
        json("q\"b\\s/n\nr\rt\tb\u{8}f\u{c}z\u{0}u\u{1f}d\u{7f}"),
        "\"q\\\"b\\\\s/n\\nr\\rt\\tb\\bf\\fz\\u0000u\\u001fd\u{7f}\""
    );
    let controls: String = (0u8..0x20).map(char::from).collect();
    assert_eq!(
        json(&controls),
        "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\
         \\b\\t\\n\\u000b\\f\\r\\u000e\\u000f\
         \\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\
         \\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\""
    );
    assert_eq!(json("é中🦀"), "\"é中🦀\"");
    assert_eq!(json("aé\"中\n🦀"), "\"aé\\\"中\\n🦀\"");
    assert_eq!(json(""), "\"\"");
    assert_eq!(json(&'"'), "\"\\\"\"");
    assert_eq!(json(&'🦀'), "\"🦀\"");
}

#[test]
fn numbers_are_pinned() {
    assert_eq!(json(&i64::MIN), "-9223372036854775808");
    assert_eq!(json(&i64::MAX), "9223372036854775807");
    assert_eq!(json(&u64::MAX), "18446744073709551615");
    assert_eq!(json(&0u64), "0");
    assert_eq!(json(&-1i64), "-1");
    assert_eq!(json(&i8::MIN), "-128");
    assert_eq!(json(&u8::MAX), "255");
    assert_eq!(json(&isize::MIN), "-9223372036854775808");
    assert_eq!(json(&usize::MAX), "18446744073709551615");
    assert_eq!(json(&-0.0f64), "-0");
    assert_eq!(json(&0.1f64), "0.1");
    assert_eq!(json(&2.5f64), "2.5");
    assert_eq!(json(&1.0f64), "1");
    assert_eq!(json(&1e300f64), format!("1{}", "0".repeat(300)));
    assert_eq!(json(&1e-7f64), "0.0000001");
    assert_eq!(json(&0.1f32), "0.10000000149011612");
    assert_eq!(json(&f64::NAN), "null");
    assert_eq!(json(&f64::INFINITY), "null");
    assert_eq!(json(&f64::NEG_INFINITY), "null");
    assert_eq!(json(&Content::I64(5)), "5");
    assert_eq!(json(&Content::U64(5)), "5");
    assert_eq!(json(&Content::F64(f64::NAN)), "null");
}

#[derive(Serialize)]
struct Named {
    a: u64,
    b: Option<String>,
    c: Vec<Unit>,
}

#[derive(Serialize)]
struct Pair(i64, bool);

#[derive(Serialize)]
struct Newtype(u32);

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
enum Shape {
    Plain,
    One(u8),
    Two(u8, char),
    Fields { x: i32, y: f64 },
}

#[test]
fn derived_shapes_are_pinned() {
    assert_eq!(
        json(&Named {
            a: 1,
            b: None,
            c: vec![Unit, Unit]
        }),
        r#"{"a":1,"b":null,"c":[null,null]}"#
    );
    assert_eq!(
        json(&Named {
            a: 0,
            b: Some("x".into()),
            c: vec![]
        }),
        r#"{"a":0,"b":"x","c":[]}"#
    );
    assert_eq!(json(&Pair(-3, true)), "[-3,true]");
    assert_eq!(json(&Newtype(7)), "7");
    assert_eq!(json(&Unit), "null");
    assert_eq!(json(&Shape::Plain), r#""Plain""#);
    assert_eq!(json(&Shape::One(4)), r#"{"One":4}"#);
    assert_eq!(json(&Shape::Two(4, 'z')), r#"{"Two":[4,"z"]}"#);
    assert_eq!(
        json(&Shape::Fields { x: -1, y: 2.5 }),
        r#"{"Fields":{"x":-1,"y":2.5}}"#
    );
    assert_eq!(
        pretty(&vec![
            Shape::Plain,
            Shape::Two(1, 'a'),
            Shape::Fields { x: 0, y: 0.5 },
        ]),
        "[\n  \"Plain\",\n  {\n    \"Two\": [\n      1,\n      \"a\"\n    ]\n  },\n  \
         {\n    \"Fields\": {\n      \"x\": 0,\n      \"y\": 0.5\n    }\n  }\n]"
    );
}

fn key(s: &str) -> Content {
    Content::Str(s.to_owned())
}

#[test]
fn empty_and_nested_containers_are_pinned_in_both_layouts() {
    let doc = Content::Map(vec![
        (key("empty_map"), Content::Map(vec![])),
        (key("empty_seq"), Content::Seq(vec![])),
        (
            key("nested"),
            Content::Seq(vec![
                Content::Seq(vec![]),
                Content::Map(vec![(key("k"), Content::U64(1))]),
                Content::Seq(vec![Content::Seq(vec![Content::Null])]),
            ]),
        ),
    ]);
    assert_eq!(
        json(&doc),
        r#"{"empty_map":{},"empty_seq":[],"nested":[[],{"k":1},[[null]]]}"#
    );
    assert_eq!(
        pretty(&doc),
        "{\n  \"empty_map\": {},\n  \"empty_seq\": [],\n  \"nested\": [\n    [],\n    \
         {\n      \"k\": 1\n    },\n    [\n      [\n        null\n      ]\n    ]\n  ]\n}"
    );
    assert_eq!(pretty(&Content::Seq(vec![])), "[]");
    assert_eq!(pretty(&Content::Map(vec![])), "{}");
    assert_eq!(pretty(&Vec::<Vec<u64>>::new()), "[]");
    assert_eq!(
        pretty(&vec![vec![], vec![1u64, 2]]),
        "[\n  [],\n  [\n    1,\n    2\n  ]\n]"
    );
    assert_eq!(pretty(&7u8), "7");
    assert_eq!(pretty("s"), "\"s\"");
}

#[test]
fn std_impls_are_pinned() {
    assert_eq!(json(&Some(3u8)), "3");
    assert_eq!(json(&None::<u8>), "null");
    assert_eq!(json(&Ok::<u8, String>(1)), r#"{"Ok":1}"#);
    assert_eq!(json(&Err::<u8, String>("e".into())), r#"{"Err":"e"}"#);
    assert_eq!(json(&Box::new(5i16)), "5");
    assert_eq!(json(&Cow::Borrowed("cow")), r#""cow""#);
    assert_eq!(json(&Reverse(9u64)), "9");
    assert_eq!(json(&[1u8, 2, 3]), "[1,2,3]");
    assert_eq!(json(&[0u8; 0]), "[]");
    assert_eq!(json(&[4u8, 5][..]), "[4,5]");
    assert_eq!(json(&VecDeque::from([1u16, 2])), "[1,2]");
    assert_eq!(
        json(&BTreeMap::from([("b", 1u8), ("a", 2)])),
        r#"[["a",2],["b",1]]"#
    );
    assert_eq!(json(&BTreeSet::from([3u8, 1])), "[1,3]");
    assert_eq!(json(&(1u8,)), "[1]");
    assert_eq!(json(&(1u8, "two")), r#"[1,"two"]"#);
    assert_eq!(json(&(1u8, "two", 3.5f64)), r#"[1,"two",3.5]"#);
    assert_eq!(json(&(1u8, "two", 3.5f64, 'c')), r#"[1,"two",3.5,"c"]"#);
    assert_eq!(json(&()), "null");
    assert_eq!(json(&true), "true");
    assert_eq!(json(&false), "false");
    assert_eq!(json(&&&"ref"), r#""ref""#);
    assert_eq!(json(&String::from("owned")), r#""owned""#);
    assert_eq!(json(&vec![Some(vec![1i32, -1]), None]), "[[1,-1],null]");
}

#[test]
fn hash_collections_and_heaps_serialize_in_sorted_encoded_order() {
    // Sorted by the encoded key's debug text, not numerically: U64(10)
    // sorts before U64(9).
    let by_u64: HashMap<u64, &str> = HashMap::from([(9, "nine"), (10, "ten"), (1, "one")]);
    assert_eq!(json(&by_u64), r#"[[1,"one"],[10,"ten"],[9,"nine"]]"#);
    let by_str: HashMap<String, u64> =
        HashMap::from([("b".into(), 2), ("a".into(), 1), ("B".into(), 3)]);
    assert_eq!(json(&by_str), r#"[["B",3],["a",1],["b",2]]"#);
    let signed: HashSet<i64> = HashSet::from([-5, 3, 20]);
    assert_eq!(json(&signed), "[-5,20,3]");
    let tuples: HashSet<(u8, String)> = HashSet::from([(2, "x".into()), (10, "a".into())]);
    assert_eq!(json(&tuples), r#"[[10,"a"],[2,"x"]]"#);
    assert_eq!(json(&HashSet::<u8>::new()), "[]");
    assert_eq!(json(&BinaryHeap::from([3i64, -1, 2])), "[-1,2,3]");
    let timers = BinaryHeap::from([Reverse((5u64, 1u32)), Reverse((3, 2)), Reverse((5, 0))]);
    assert_eq!(json(&timers), "[[5,1],[5,0],[3,2]]");
    assert_eq!(
        pretty(&by_u64),
        "[\n  [\n    1,\n    \"one\"\n  ],\n  [\n    10,\n    \"ten\"\n  ],\n  \
         [\n    9,\n    \"nine\"\n  ]\n]"
    );
}

#[test]
fn non_string_object_keys_are_rejected() {
    let bad = Content::Map(vec![(Content::U64(1), Content::Null)]);
    for text in [
        serde_json::to_string(&bad),
        serde_json::to_string_pretty(&bad),
    ] {
        assert_eq!(
            text.unwrap_err().to_string(),
            "JSON object keys must be strings"
        );
    }
    let late = Content::Seq(vec![
        Content::Bool(true),
        Content::Map(vec![
            (key("fine"), Content::Null),
            (Content::Seq(vec![]), Content::Null),
        ]),
    ]);
    assert_eq!(
        serde_json::to_string(&late).unwrap_err().to_string(),
        "JSON object keys must be strings"
    );
    // Appending leaves the text it was given as it was.
    let mut text = "[1,".to_owned();
    assert!(serde_json::append_to_string(&mut text, &late).is_err());
    assert_eq!(text, "[1,");
    serde_json::append_to_string(&mut text, &Content::Bool(true)).expect("encodes");
    assert_eq!(text, "[1,true");
}

/// The compact and the pretty text of every event and event meta of a
/// recorded msgserver run, and of every decision line, the header and the
/// footer of its JSONL trace, one value per line. Captured when every
/// `Serialize` impl also built a `Content` tree: the tree's text and the
/// streamed text agreed on all of them, and these are that text's pins.
const REAL_ARTIFACTS: &[Pin] = &[
    ("events", 0xea3e105c1ac3404a, 132790),
    ("events pretty", 0xb0036099aabe57b6, 333553),
    ("event metas", 0xa52b703f0734d8ef, 26680),
    ("event metas pretty", 0xffcfe958b81b3f69, 36796),
    ("decisions", 0xcaff4252df2c9629, 44096),
    ("decisions pretty", 0x7c2ecdcd1058a5b9, 57262),
    ("header", 0x8772371dac1dc977, 241),
    ("header pretty", 0xfc5e1dd519d321b3, 322),
    ("footer", 0xd3b1996b2a01b1c2, 840),
    ("footer pretty", 0x121f89e542f2f012, 1552),
];

/// The streamed text of real artifacts still equals the text of the
/// `Content` trees they used to build. (A snapshot manifest is not a
/// `Serialize` value: its bytes are pinned by the store tables above.)
#[test]
fn streamed_json_equals_the_content_tree_json_on_real_artifacts() {
    fn pin_each<'a, T: Serialize + 'a>(
        name: &str,
        items: impl IntoIterator<Item = &'a T>,
        actual: &mut Vec<(String, u64, usize)>,
    ) {
        let (mut compact, mut indented) = (String::new(), String::new());
        for item in items {
            compact += &json(item);
            compact.push('\n');
            indented += &pretty(item);
            indented.push('\n');
        }
        actual.push(pin(name, compact.as_bytes()));
        actual.push(pin(format!("{name} pretty"), indented.as_bytes()));
    }
    let program = MsgServerProgram {
        cfg: MsgServerConfig::default(),
        fixed: false,
    };
    let out = run_program(
        &program,
        RunConfig {
            seed: 3,
            hash_decisions: true,
            ..RunConfig::default()
        },
        Box::new(RandomPolicy::new(3)),
        vec![],
    );
    let events = out.trace();
    assert!(events.len() > 100);
    let workload = workload_by_name("msgserver").expect("registered");
    let trace: JsonlTrace = Session::new(workload).record().expect("records");
    let mut actual = Vec::new();
    pin_each("events", events.iter().map(|(_, event)| event), &mut actual);
    pin_each(
        "event metas",
        events.iter().map(|(meta, _)| meta),
        &mut actual,
    );
    pin_each("decisions", &trace.decisions, &mut actual);
    pin_each("header", [&trace.header], &mut actual);
    pin_each("footer", [&trace.footer], &mut actual);
    assert_pins("real artifacts", &actual, REAL_ARTIFACTS);
}
