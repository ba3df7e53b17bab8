//! `BENCHMARK.json` against the contract's limits and against what a run
//! really prints: every declared workload and metric is printed by a
//! `--quick` run with the declared unit, and nothing else is.

use pqbench::json::Json;
use pqbench::metrics::{END_TO_END, PER_LAYER};
use pqbench::workloads::NAMES;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn benchmark_json() -> (String, Json) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    let document = Json::parse(&text).expect("BENCHMARK.json parses");
    (text, document)
}

fn is_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

fn keys(value: &Json) -> Vec<&str> {
    value.members().iter().map(|(k, _)| k.as_str()).collect()
}

fn str_of<'a>(value: &'a Json, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("string `{key}`"))
}

#[test]
fn benchmark_json_is_inside_the_contract() {
    let (text, doc) = benchmark_json();
    assert!(text.len() <= 64 * 1024);
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command: Vec<&str> = doc
        .get("command")
        .unwrap()
        .items()
        .iter()
        .map(|s| s.as_str().unwrap())
        .collect();
    assert!(!command.is_empty() && command.len() <= 32);
    assert!(command
        .iter()
        .all(|arg| arg.len() <= 200 && !arg.starts_with('/') && !arg.contains("..")));
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .map(|s| s.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["pqbench"]);
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let mut names = BTreeSet::new();
    let workloads = doc.get("workloads").unwrap().items();
    assert!((2..=8).contains(&workloads.len()));
    for workload in workloads {
        assert_eq!(keys(workload), ["name", "why"]);
        let why = str_of(workload, "why");
        assert!(
            why.chars().count() <= 200 && !why.contains('\n'),
            "why: {why}"
        );
        assert!(is_name(str_of(workload, "name")) && names.insert(str_of(workload, "name")));
    }
    let end_to_end = doc.get("end_to_end").unwrap().items();
    assert!((1..=16).contains(&end_to_end.len()));
    for metric in end_to_end {
        assert_eq!(keys(metric), ["name", "unit", "better", "bound"]);
        let bound = metric.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let per_layer = doc.get("per_layer").unwrap().items();
    assert!((1..=128).contains(&per_layer.len()));
    for metric in per_layer {
        assert_eq!(keys(metric), ["name", "unit", "better"]);
    }
    for metric in end_to_end.iter().chain(per_layer) {
        assert!(is_name(str_of(metric, "name")) && names.insert(str_of(metric, "name")));
        assert!(
            is_unit(str_of(metric, "unit")),
            "unit of {}",
            str_of(metric, "name")
        );
        assert!(matches!(str_of(metric, "better"), "lower" | "higher"));
    }
    let setup = end_to_end
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
    let largest = end_to_end
        .iter()
        .map(|m| m.get("bound").and_then(Json::as_f64).unwrap())
        .fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").and_then(Json::as_f64),
        Some(largest),
        "setup_s has the largest bound"
    );
}

fn declared(doc: &Json, section: &str) -> Vec<(String, String, String)> {
    doc.get(section)
        .unwrap()
        .items()
        .iter()
        .map(|m| {
            (
                str_of(m, "name").to_owned(),
                str_of(m, "unit").to_owned(),
                str_of(m, "better").to_owned(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_crate_measures() {
    let (_, doc) = benchmark_json();
    let own = |table: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|&(n, u, b)| (n.into(), u.into(), b.into()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
    let per_layer: Vec<_> = PER_LAYER.iter().map(|&(d, _)| d).collect();
    assert_eq!(declared(&doc, "per_layer"), own(&per_layer));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    assert_eq!(workloads, NAMES);
}

/// Runs the binary the way the driver does and returns the result line.
fn run(workload: &str, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_pqbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .output()
        .expect("start pqbench");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );
    let last = stdout.trim_end().lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

#[test]
fn a_quick_run_prints_exactly_the_declared_metrics() {
    let (_, doc) = benchmark_json();
    for workload in NAMES {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(workload, trace);
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload}"
            );
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let printed: Vec<(String, String)> = result
                .get("metrics")
                .unwrap()
                .members()
                .iter()
                .map(|(name, m)| {
                    assert_eq!(keys(m), ["value", "unit"]);
                    assert!(
                        m.get("value")
                            .and_then(Json::as_f64)
                            .is_some_and(f64::is_finite),
                        "{name}"
                    );
                    (name.clone(), str_of(m, "unit").to_owned())
                })
                .collect();
            let expected: Vec<(String, String)> = declared(&doc, section)
                .into_iter()
                .map(|(n, u, _)| (n, u))
                .collect();
            assert_eq!(printed, expected, "{workload} trace={trace}");
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    let result = run("hot_replay", false);
    for (name, metric) in result.get("metrics").unwrap().members() {
        assert!(
            metric.get("value").and_then(Json::as_f64).unwrap() > 0.0,
            "{name}"
        );
    }
}

#[test]
fn an_unknown_workload_exits_non_zero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_pqbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("start pqbench");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
