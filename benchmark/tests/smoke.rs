//! Smoke test: the built binary runs every workload for a two-second
//! window and prints a result line that follows `/BENCHMARK.json`.
//!
//! Two seconds are too short for `drift_recovery`'s regimes to be
//! detected, so its `correct` is not asserted here; the steady-state
//! workloads must pass every output check even at this length.

use std::path::Path;
use std::process::Command;

/// Minimal field extraction from the flat JSON the binary prints; the
/// binary's own parser is not linked into integration tests.
fn names_in(list_key: &str, contract: &str) -> Vec<String> {
    let start = contract.find(&format!("\"{list_key}\"")).expect("list present");
    let end = start + contract[start..].find(']').expect("list closes");
    contract[start..end]
        .split("\"name\":")
        .skip(1)
        .map(|part| part.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_odin-benchmark"))
        .args(["run", "--workload", workload, "--seed", "7", "--seconds", "2", "--trace", trace])
        .arg("--root")
        .arg(root)
        .output()
        .expect("benchmark binary starts");
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn check_line(line: &str, expected_metrics: &[String], what: &str) {
    for key in ["\"correct\":", "\"attempted\":", "\"failed\":0,", "\"metrics\":{"] {
        assert!(line.contains(key), "{what}: `{key}` missing from {line}");
    }
    for name in expected_metrics {
        assert!(
            line.contains(&format!("\"{name}\":{{\"value\":")),
            "{what}: metric {name} missing"
        );
    }
    assert_eq!(
        line.matches("{\"value\":").count(),
        expected_metrics.len(),
        "{what}: metrics beyond the contract's list in {line}"
    );
    assert!(!line.contains("\"value\":null"), "{what}: a non-finite value in {line}");
}

#[test]
fn every_workload_runs_and_reports_the_contract_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let contract = std::fs::read_to_string(root.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let contract: String = contract.split_whitespace().collect();
    let end_to_end = names_in("end_to_end", &contract);
    let per_layer = names_in("per_layer", &contract);
    assert!(end_to_end.contains(&"setup_s".to_string()));

    for workload in names_in("workloads", &contract) {
        let line = run(&workload, "0");
        check_line(&line, &end_to_end, &workload);
        if workload != "drift_recovery" {
            assert!(line.contains("\"correct\":true"), "{workload}: {line}");
        }
    }
    // One traced run covers the probes and the trace file; the layers
    // probed are the same on every workload.
    let line = run("compute_dagan_teacher", "1");
    check_line(&line, &per_layer, "traced compute_dagan_teacher");
    assert!(line.contains("\"correct\":true"), "traced: {line}");
    let trace = std::fs::read_to_string(root.join("out/trace_compute_dagan_teacher.json"))
        .expect("chrome trace written");
    assert!(trace.starts_with("{\"traceEvents\":[") && trace.contains("\"name\":\"probe\""));
}
