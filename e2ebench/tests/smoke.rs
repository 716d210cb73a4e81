//! The benchmark's own smoke test: every workload end to end at tiny sizes,
//! traced and untraced; a deliberately corrupted reference that the checker
//! must reject and count; a request that fails in transport; and the
//! refusal to compare runs from different hosts.

use mdj_server::json::{parse, Json};
use std::process::Command;

fn bench(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(args)
        .output()
        .expect("run e2ebench");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tiny(workload: &str, trace: &str, extra: &[&str]) -> (bool, String, String) {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--scale",
        "0.01",
    ];
    args.extend_from_slice(extra);
    bench(&args)
}

fn last_json(stdout: &str) -> Json {
    parse(stdout.lines().last().expect("output")).expect("result line is JSON")
}

fn line_json(stdout: &str, prefix: &str) -> Json {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in {stdout}"));
    parse(line).expect("JSON")
}

/// Metric names BENCHMARK.json declares under `section`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let spec = parse(&text).expect("BENCHMARK.json parses");
    let mut names: Vec<String> = spec
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

fn reported(result: &Json) -> Vec<String> {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    let mut names: Vec<String> = metrics.keys().cloned().collect();
    names.sort();
    names
}

#[test]
fn every_workload_runs_clean_and_reports_its_declared_metrics() {
    for workload in ["olap_scan", "dashboard_repeat", "disk_scan"] {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, out, err) = tiny(workload, trace, &[]);
            assert!(ok, "{workload} trace {trace}: {err}");
            let result = last_json(&out);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}: {err}"
            );
            assert_eq!(
                result.get("failed"),
                Some(&Json::Int(0)),
                "{workload}: {err}"
            );
            assert!(result.get("attempted").and_then(Json::as_int).unwrap_or(0) > 0);
            assert_eq!(
                reported(&result),
                declared(section),
                "{workload} trace {trace}"
            );
            if trace == "1" {
                // The directly timed leaves fit in the traced round trip,
                // and no remainder layer came out below its noise margin.
                let value = |name: &str| match result.get("metrics").and_then(|m| m.get(name)) {
                    Some(m) => match m.get("value") {
                        Some(Json::Float(v)) => *v,
                        other => panic!("{name}: {other:?}"),
                    },
                    None => panic!("no {name}"),
                };
                let (leaves, e2e) = (value("trace.leaf_sum_ms"), value("trace.e2e_ms"));
                assert!(e2e > 0.0 && leaves <= e2e, "{workload}: {leaves} > {e2e}");
                assert_eq!(value("trace.violations"), 0.0, "{workload}: {err}");
            }
            let summary = line_json(&out, "summary ");
            let hygiene_ok = summary.get("hygiene_ok");
            assert!(matches!(hygiene_ok, Some(Json::Bool(_))), "{workload}");
            if workload != "disk_scan" {
                assert_eq!(hygiene_ok, Some(&Json::Bool(true)), "{workload}: {err}");
            }
            let fp = line_json(&out, "fingerprint ");
            assert!(fp.get("nproc").and_then(Json::as_int).unwrap_or(0) > 0);
        }
    }
}

#[test]
fn checker_rejects_a_corrupted_reference_and_counts_it() {
    for workload in ["olap_scan", "dashboard_repeat"] {
        let (ok, out, err) = tiny(workload, "0", &["--corrupt-reference"]);
        assert!(ok, "{err}");
        let result = last_json(&out);
        assert_eq!(
            result.get("correct"),
            Some(&Json::Bool(false)),
            "{workload}"
        );
        assert!(result.get("failed").and_then(Json::as_int).unwrap_or(0) >= 1);
        let summary = line_json(&out, "summary ");
        match summary.get("error_ratio") {
            Some(Json::Float(r)) => assert!(*r > 0.0, "{workload}: error_ratio {r}"),
            other => panic!("{workload}: error_ratio {other:?}"),
        }
    }
}

#[test]
fn a_transport_error_counts_as_attempted_and_failed() {
    let (ok, out, err) = tiny("olap_scan", "0", &["--sever-connection"]);
    assert!(ok, "{err}");
    assert!(err.contains("transport"), "{err}");
    let result = last_json(&out);
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    let count = |k: &str| result.get(k).and_then(Json::as_int).unwrap_or(-1);
    assert_eq!(count("failed"), 1, "{err}");
    assert!(count("attempted") > 1);
    let summary = line_json(&out, "summary ");
    match summary.get("error_ratio") {
        Some(Json::Float(r)) => assert!(*r > 0.0 && *r <= 1.0, "error_ratio {r}"),
        other => panic!("error_ratio {other:?}"),
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let (ok, out, _) = bench(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!ok);
    assert!(out.is_empty());
}

#[test]
fn compare_refuses_runs_from_different_hosts() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, nproc: i64, latency: f64| {
        let path = dir.join(name);
        let text = format!(
            "fingerprint {{\"bench\":\"b\",\"commit\":\"{name}\",\"cpu\":\"c\",\"features\":[],\
             \"nproc\":{nproc},\"profile\":\"release\",\"rustc\":\"r\"}}\n\
             {{\"attempted\":1,\"correct\":true,\"failed\":0,\"metrics\":\
             {{\"query_p50_ms\":{{\"unit\":\"ms\",\"value\":{latency:?}}}}}}}\n"
        );
        std::fs::write(&path, text).expect("write run log");
        path.to_string_lossy().into_owned()
    };
    let a = write("a.log", 2, 10.0);
    let b = write("b.log", 2, 12.0);
    let c = write("c.log", 8, 5.0);
    let (ok, out, err) = bench(&["--compare", &a, &b]);
    assert!(ok, "{err}");
    assert!(out.contains("query_p50_ms"), "{out}");
    let (ok, _, err) = bench(&["--compare", &a, &c]);
    assert!(!ok);
    assert!(err.contains("refusing to compare"), "{err}");
}
