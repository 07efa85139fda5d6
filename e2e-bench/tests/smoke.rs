//! Runs `mate-e2e --smoke` and checks its report against `BENCHMARK.json`;
//! checks the core workload definitions without searching.

use std::path::{Path, PathBuf};
use std::process::Command;

use mate_e2e_bench::metrics::{per_layer, CALLS, END_TO_END};
use mate_e2e_bench::rep::WARM_PASSES;
use mate_e2e_bench::workload::{find, WireSet, Workload, WORKLOADS};
use mate_netlist::json::{parse_json, JsonValue};
use mate_pipeline::{ArtifactStore, Flow};

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn load_json(path: &Path) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn str_of<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("no string `{key}` in {v:?}"))
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(bench: &JsonValue, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| (str_of(m, "name").to_owned(), str_of(m, "unit").to_owned()))
        .collect()
}

/// `(name, unit)` of every metric of a report object.
fn reported(metrics: &JsonValue) -> Vec<(String, String)> {
    metrics
        .as_object()
        .expect("metrics object")
        .iter()
        .map(|(name, m)| (name.clone(), str_of(m, "unit").to_owned()))
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let bench = load_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    let e2e = declared(&bench, "end_to_end");
    let layers = declared(&bench, "per_layer");
    assert_eq!(e2e, owned(&END_TO_END));
    assert_eq!(
        layers,
        per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect::<Vec<_>>()
    );
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    for (name, _) in e2e.iter().chain(&layers) {
        assert!(well_formed(name), "bad metric name `{name}`");
    }
    let workloads: Vec<(&str, &str)> = bench
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads list")
        .iter()
        .map(|w| (str_of(w, "name"), str_of(w, "why")))
        .collect();
    assert!((2..=8).contains(&workloads.len()));
    assert_eq!(workloads, WORKLOADS.map(|w| (w.name, w.why)));
}

#[test]
fn smoke_run_passes_every_gate_and_reports_every_metric() {
    let report = tmp("smoke-report.json");
    let spans = tmp("smoke-spans.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_mate-e2e"))
        .arg("--smoke")
        .arg("--report")
        .arg(&report)
        .arg("--spans")
        .arg(&spans)
        .output()
        .expect("run mate-e2e");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "mate-e2e --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The last line is the one-line result: end-to-end metrics only.
    let line = parse_json(stdout.lines().last().expect("a result line")).expect("result JSON");
    assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(line.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(line.get("attempted").and_then(JsonValue::as_u64) > Some(0));
    assert_eq!(reported(line.get("metrics").unwrap()), owned(&END_TO_END));

    let report = load_json(&report);
    let workloads = report
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert_eq!(workloads.len(), 1);
    let w = &workloads[0];
    assert_eq!(w.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(w.get("failed").and_then(JsonValue::as_u64), Some(0));
    // Both untraced reps and the traced one produced the same digest.
    let digests = w.get("digests").and_then(JsonValue::as_object).unwrap();
    assert_eq!(digests.len(), 1, "{digests:?}");
    assert_eq!(digests[0].1.as_u64(), Some(3));
    assert_eq!(reported(w.get("end_to_end").unwrap()), owned(&END_TO_END));
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(reported(w.get("per_layer").unwrap()), layers);

    // Every `Flow` call of every pass of the traced rep has a span.
    let spans = std::fs::read_to_string(&spans).unwrap();
    let calls = spans
        .lines()
        .map(|l| parse_json(l).expect("span JSON"))
        .filter(|s| CALLS.contains(&str_of(s, "name")))
        .count();
    assert_eq!(calls, CALLS.len() * (1 + WARM_PASSES));
}

fn wire_count(workload: &Workload, store: &str) -> usize {
    let root = tmp(store);
    let _ = std::fs::remove_dir_all(&root);
    let flow = Flow::new(ArtifactStore::new(&root), workload.design_source()).unwrap();
    let n = workload.wire_spec().resolve(flow.design()).unwrap().len();
    let _ = std::fs::remove_dir_all(&root);
    n
}

#[test]
fn core_workloads_fault_the_papers_wire_sets() {
    let avr = find("avr-fib-ff").unwrap();
    let norf = find("msp430-conv-norf").unwrap();
    let msp_ff = Workload {
        wires: WireSet::Ff,
        ..norf
    };
    assert_eq!(wire_count(&avr, "wires-avr"), 310);
    assert_eq!(wire_count(&msp_ff, "wires-msp430-ff"), 339);
    assert_eq!(wire_count(&norf, "wires-msp430-norf"), 83);
}
