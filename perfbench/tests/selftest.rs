//! Self-test of the benchmark: every workload at smoke size, timed and traced,
//! must pass its output checks, print exactly the metrics `BENCHMARK.json`
//! names with their units, and (traced) write spans that each lie inside their
//! parent.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use f2_perfbench::{run, Options, Outcome, Scale, Workload};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
}

/// The string value of `"key": "value"` in a flat JSON fragment.
fn field(fragment: &str, key: &str) -> String {
    let at = fragment.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("{key} in {fragment}"));
    let rest = &fragment[at + key.len() + 2..];
    let open = rest.find('"').expect("value opens") + 1;
    let close = open + rest[open..].find('"').expect("value closes");
    rest[open..close].to_string()
}

/// The number after `"key": ` in one span line (`null` reads as `None`).
fn number(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
    let rest = &line[at..];
    let end = rest.find([',', '}']).expect("value ends");
    rest[..end].trim().parse().ok()
}

fn smoke(workload: Workload, trace: bool) -> Outcome {
    let tag = format!("selftest-{}-{}", workload.name(), u8::from(trace));
    let options = Options {
        workload,
        seed: 7,
        seconds: Duration::from_secs(1),
        trace,
        scale: Scale::Smoke,
        work_dir: root().join("work").join(&tag),
        trace_dir: root().join("traces").join(&tag),
        probe_exe: PathBuf::from(env!("CARGO_BIN_EXE_f2-perfbench")),
    };
    let outcome = run(&options).expect("the run completes");
    assert!(outcome.correct, "{}: {:?}", workload.name(), outcome.problems);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);
    assert!(outcome.probe_s > 0.0, "{}: probes ran in their own processes", workload.name());
    let expected = declared(if trace { "per_layer" } else { "end_to_end" });
    let printed: Vec<(String, String)> =
        outcome.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
    assert_eq!(printed, expected, "{} prints every declared metric with its unit", workload.name());
    let json = outcome.to_json();
    for (name, unit) in &expected {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = json.find(&entry).unwrap_or_else(|| panic!("{name} printed"));
        let object = &json[at..at + json[at..].find('}').expect("metric object closes")];
        assert!(object.ends_with(&format!("\"unit\": \"{unit}\"")), "{object}");
    }
    if trace {
        let file = options.trace_dir.join(format!("{}-seed7.jsonl", workload.name()));
        check_spans(&file);
    }
    outcome
}

/// Every span in the file lies inside its parent and shares its run.
fn check_spans(file: &Path) {
    let text = std::fs::read_to_string(file).expect("spans written");
    let spans: Vec<_> = text
        .lines()
        .map(|l| {
            let id = number(l, "id").expect("id");
            (id, number(l, "parent"), number(l, "run"), number(l, "start_ns"), number(l, "end_ns"))
        })
        .collect();
    assert!(!spans.is_empty());
    for (i, &(id, parent, run, start, end)) in spans.iter().enumerate() {
        assert_eq!(id, i as u64);
        assert!(start <= end, "span {id} ends before it starts");
        if let Some(p) = parent {
            let (_, _, prun, pstart, pend) = spans[p as usize];
            assert!(
                pstart <= start && end <= pend && prun == run,
                "span {id} lies outside its parent {p}"
            );
        }
    }
}

#[test]
fn synthetic_csv_smoke() {
    smoke(Workload::SyntheticCsv, false);
    smoke(Workload::SyntheticCsv, true);
}

#[test]
fn orders_f2_smoke() {
    smoke(Workload::OrdersF2, false);
    smoke(Workload::OrdersF2, true);
}

#[test]
fn service_2t_smoke() {
    let outcome = smoke(Workload::Service2t, true);
    let requests =
        outcome.metrics.iter().find(|m| m.name == "server.requests").expect("served counter");
    assert!(requests.value > 0.0);
    smoke(Workload::Service2t, false);
}
