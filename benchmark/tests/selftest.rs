//! Runs the built binary the way the driver does, at a fraction of the
//! declared run length, and holds its output against `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::Command;

use mcbench::decl::{Decl, MetricDecl};
use mcbench::json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_mcbench");
/// A fortieth of the declared run: every size shrinks in proportion.
const SECONDS: &str = "0.3";

/// One driver-style run; returns the parsed result line.
fn run(workload: &str, seed: u64, traced: bool) -> Json {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", SECONDS])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: exit {:?}\n{stderr}", out.status);
    let line = stdout.lines().last().unwrap_or_else(|| panic!("{workload}: no output\n{stderr}"));
    Json::parse(line)
        .unwrap_or_else(|e| panic!("{workload}: result line does not parse: {e}\n{line}"))
}

/// Green, and exactly the declared metrics, each with its declared unit.
/// (The parser refuses duplicate keys, so "exactly once" is implied.)
fn assert_green(workload: &str, result: &Json, declared: &[MetricDecl]) {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}: {result:?}");
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{workload}");
    assert!(result.get("attempted").and_then(Json::as_f64).expect("attempted") >= 1.0);
    let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("{workload}: no metrics") };
    let printed: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut want: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    want.sort_unstable();
    assert_eq!(printed, want, "{workload}: printed metrics differ from BENCHMARK.json");
    for m in declared {
        let got = &metrics[&m.name];
        assert_eq!(got.get("unit").and_then(Json::as_str), Some(m.unit.as_str()), "{}", m.name);
        let v = got.get("value").and_then(Json::as_f64).expect("a numeric value");
        assert!(v.is_finite(), "{workload}: {} = {v}", m.name);
    }
}

#[test]
fn every_workload_runs_green_and_prints_the_declared_metrics() {
    let decl = Decl::load();
    for workload in &decl.workloads {
        let result = run(workload, 1, false);
        assert_green(workload, &result, &decl.end_to_end);
        let Some(Json::Obj(metrics)) = result.get("metrics") else { unreachable!() };
        for m in &decl.end_to_end {
            let v = metrics[&m.name].get("value").and_then(Json::as_f64).expect("value");
            assert!(v > 0.0, "{workload}: end-to-end metric {} is never 0, got {v}", m.name);
        }
    }
}

#[test]
fn another_seed_still_passes_the_correctness_gate() {
    let decl = Decl::load();
    for workload in ["sc_readwrite", "sim_check"] {
        assert_green(workload, &run(workload, 2, false), &decl.end_to_end);
    }
}

#[test]
fn the_traced_run_prints_every_layer_metric_and_a_span_file_that_parses() {
    let decl = Decl::load();
    let result = run("durable_session", 7, true);
    assert_green("durable_session", &result, &decl.per_layer);

    let dir =
        PathBuf::from(BIN).parent().expect("the binary lives in a directory").join("mcbench-trace");
    let text =
        std::fs::read_to_string(dir.join("trace-durable_session-7.json")).expect("span file");
    let doc = Json::parse(&text).expect("the span file is JSON");
    let spans = doc.items();
    assert!(spans.len() > 100, "only {} spans", spans.len());
    let mut names = std::collections::HashSet::new();
    for (i, span) in spans.iter().enumerate() {
        let num = |key: &str| span.get(key).and_then(Json::as_f64);
        assert!(num("start_ns").expect("start_ns") <= num("end_ns").expect("end_ns"), "span {i}");
        assert_eq!(span.get("workload").and_then(Json::as_str), Some("durable_session"));
        match span.get("parent").expect("parent key") {
            Json::Null => {}
            p => {
                let parent = p.as_f64().expect("parent is an index") as usize;
                assert!(
                    parent < spans.len() && parent != i,
                    "span {i}: parent {parent} does not exist"
                );
            }
        }
        names.insert(span.get("name").and_then(Json::as_str).expect("name").to_string());
    }
    for expected in ["layers", "workload", "op.write", "twin.stream", "wire.encode_ns.update"] {
        assert!(names.contains(expected), "no span named {expected}");
    }
}

#[test]
fn a_bad_request_is_refused_without_a_result() {
    let out = Command::new(BIN)
        .args(["--workload", "no_such_workload", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("the benchmark binary starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
