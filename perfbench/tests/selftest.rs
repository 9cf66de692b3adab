//! The benchmark's own test: runs every workload `BENCHMARK.json` lists,
//! at its tiny size, and checks each result line against that file.

use std::process::Command;

use mealib_obs::json::{parse, Value};

const BIN: &str = env!("CARGO_BIN_EXE_mealib-perfbench");

/// `(name, unit, better)` of every metric in one `BENCHMARK.json` list.
fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{key} entry without {k}"))
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// Runs one tiny workload and returns its parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> Value {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--size", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last}: {e}"))
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Every listed metric is emitted, with its unit, and nothing else.
fn check_emitted(workload: &str, result: &Value, list: &[(String, String, String)]) {
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}"
    );
    let attempted = result
        .get("attempted")
        .and_then(Value::as_f64)
        .expect("attempted");
    assert!(attempted >= 1.0, "{workload}: attempted {attempted}");
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    assert_eq!(metrics.len(), list.len(), "{workload}: metric count");
    for (name, unit, better) in list {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(
            better == "higher" || better == "lower",
            "{name}: better {better}"
        );
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} not emitted"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let v = m
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(v.is_finite(), "{workload}: {name} = {v}");
    }
}

#[test]
fn every_workload_emits_its_listed_metrics() {
    let doc = benchmark();
    let end_to_end = listed(&doc, "end_to_end");
    let per_layer = listed(&doc, "per_layer");
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    for w in &workloads {
        assert!(valid_name(w), "bad workload name {w}");
        let untraced = run(w, 42, false);
        check_emitted(w, &untraced, &end_to_end);
        for (name, ..) in &end_to_end {
            assert!(
                metric(&untraced, name) != 0.0,
                "{w}: end-to-end {name} is 0"
            );
        }
        let traced = run(w, 42, true);
        check_emitted(w, &traced, &per_layer);
        // Leaf spans never overlap, so their busy time fits in the wall.
        let busy = metric(&traced, "bench.trace.busy_s");
        let wall = metric(&traced, "bench.trace.wall_s");
        assert!(
            busy > 0.0 && busy <= wall,
            "{w}: busy {busy} s, traced wall {wall} s"
        );
    }
}

/// Metrics that come from the simulated hardware, not the host.
const MODELED: [&str; 6] = [
    "serve.report.admitted_frac",
    "serve.report.modeled_makespan_s",
    "serve.report.slowdown_p50",
    "serve.report.slowdown_p99",
    "serve.admission.certify_calls",
    "memsim.analytic.oracle_err",
];

#[test]
fn modeled_metrics_repeat_bit_for_bit() {
    for w in ["serve-many", "paper"] {
        let a = run(w, 42, true);
        let b = run(w, 42, true);
        for name in MODELED {
            assert_eq!(
                metric(&a, name).to_bits(),
                metric(&b, name).to_bits(),
                "{w}: {name} differs between runs with one seed"
            );
        }
    }
}
