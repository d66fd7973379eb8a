//! The harness driven as the driver and a developer drive it: through its
//! command line, on `--quick` inputs (1 repetition, requests ÷ 20).

#[path = "../benches/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::PathBuf;
use std::process::{Command, Output};

use json::Value;

const WORKLOADS: [&str; 4] = ["serve-learn", "serve-steady", "full-stack", "paper-suite"];

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sibyl_benchmark"))
        .args(args)
        .output()
        .expect("the harness binary runs")
}

fn stdout(output: &Output) -> String {
    assert!(
        output.status.success(),
        "exit {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout.clone()).expect("UTF-8 output")
}

fn scratch(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    path.to_str().expect("UTF-8 temp path").to_string()
}

/// The metric names of one section of the committed `BENCHMARK.json`.
fn manifest_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    manifest
        .get(section)
        .expect("section")
        .arr()
        .iter()
        .map(|m| m.get("name").unwrap().str().unwrap().to_string())
        .collect()
}

fn keys(object: Option<&Value>) -> Vec<String> {
    object
        .map(Value::fields)
        .unwrap_or_default()
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn quick_full_run_emits_every_metric_and_compares_clean_against_itself() {
    let report_path = scratch("quick.json");
    let printed = stdout(&harness(&["--quick", "--seed", "7", "--out", &report_path]));
    let report = json::parse(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    assert_eq!(report.get("seed").and_then(Value::num), Some(7.0));
    assert_eq!(report.get("request_scale").and_then(Value::num), Some(0.01));

    let end_to_end = manifest_names("end_to_end");
    let mut layers_seen: Vec<String> = Vec::new();
    for workload in WORKLOADS {
        let w = report
            .get("workloads")
            .and_then(|w| w.get(workload))
            .unwrap_or_else(|| panic!("{workload} missing from the report"));
        assert_eq!(
            w.get("failed").and_then(Value::num),
            Some(0.0),
            "{workload}"
        );
        assert_eq!(keys(w.get("end_to_end")), end_to_end, "{workload}");
        let layers = keys(w.get("per_layer"));
        // The workloads separate the layers: a subsystem a workload does
        // not run has no metrics there.
        let has = |prefix: &str| layers.iter().any(|l| l.starts_with(prefix));
        assert_eq!(has("policies."), workload == "paper-suite", "{workload}");
        assert_eq!(has("coop."), workload == "full-stack", "{workload}");
        assert_eq!(has("migrate."), workload == "full-stack", "{workload}");
        assert_eq!(has("ledger."), workload != "paper-suite", "{workload}");
        if workload != "paper-suite" {
            let drift = w
                .get("per_layer")
                .and_then(|l| l.get("ledger.replica_drift"));
            assert_eq!(
                drift.and_then(|d| d.get("value")).and_then(Value::num),
                Some(0.0),
                "{workload}: the replica must match the engine"
            );
        }
        layers_seen.extend(layers);
    }
    // Between them the four workloads give every per-layer metric, and
    // every name is printed.
    for name in manifest_names("per_layer") {
        assert!(layers_seen.contains(&name), "{name} on no workload");
        assert!(printed.contains(&name), "{name} not printed");
    }

    let same = harness(&["compare", &report_path, &report_path]);
    assert!(stdout(&same).contains("0 regressed or differing"));

    // One changed decision is a behaviour change, whatever the speed.
    let tampered_path = scratch("tampered.json");
    let text = std::fs::read_to_string(&report_path).unwrap();
    let fingerprint = report
        .get("workloads")
        .and_then(|w| w.get("serve-learn"))
        .and_then(|w| w.get("per_layer"))
        .and_then(|l| l.get("sim.fingerprint32"))
        .and_then(|f| f.get("value"))
        .and_then(Value::num)
        .unwrap();
    let tampered = text.replacen(
        &format!("{fingerprint}"),
        &format!("{}", fingerprint + 1.0),
        1,
    );
    assert_ne!(tampered, text);
    std::fs::write(&tampered_path, tampered).unwrap();
    let differs = harness(&["compare", &report_path, &tampered_path]);
    assert_eq!(differs.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&differs.stdout).contains("DIFFERS"));
}

#[test]
fn contract_line_carries_exactly_the_manifest_names() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = stdout(&harness(&[
            "--workload",
            "full-stack",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ]));
        let line = json::parse(out.lines().last().unwrap()).unwrap();
        assert_eq!(
            keys(Some(&line)),
            ["correct", "attempted", "failed", "metrics"]
        );
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("failed").and_then(Value::num), Some(0.0));
        assert!(line.get("attempted").and_then(Value::num).unwrap() >= 1.0);
        assert_eq!(
            keys(line.get("metrics")),
            manifest_names(section),
            "--trace {trace}"
        );
        for (name, metric) in line.get("metrics").unwrap().fields() {
            assert_eq!(keys(Some(metric)), ["value", "unit"], "{name}");
            assert!(metric.get("value").and_then(Value::num).is_some(), "{name}");
        }
    }
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result_line() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["compare", "only-one.json"],
        &["compare", "/nonexistent/a.json", "/nonexistent/b.json"],
        &["child", "serve-learn"],
    ] {
        let out = harness(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn spans_are_written_on_request() {
    let dir = scratch("spans");
    std::fs::create_dir_all(&dir).unwrap();
    stdout(&harness(&[
        "--workload",
        "serve-learn",
        "--trace",
        "1",
        "--quick",
        "--spans",
        &dir,
    ]));
    let text = std::fs::read_to_string(format!("{dir}/serve-learn.spans.jsonl")).unwrap();
    let first = json::parse(text.lines().next().unwrap()).unwrap();
    assert_eq!(
        first.get("name").and_then(Value::str),
        Some("serve.prepass")
    );
    assert_eq!(first.get("parent"), Some(&Value::Null));
    let batch = text
        .lines()
        .map(|l| json::parse(l).unwrap())
        .find(|s| s.get("name").and_then(Value::str) == Some("batch.1.0"))
        .expect("the first batch of shard 1");
    assert!(batch.get("end_ns").and_then(Value::num) > batch.get("start_ns").and_then(Value::num));
}
