//! The names the harness prints are the names `BENCHMARK.json`
//! declares, and every output check passes — at a scale that runs all
//! six workloads, traced and untraced, in seconds.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use embera_benchmark::contract::Contract;
use embera_benchmark::json::Json;

/// Run `bench --workload all --smoke` and return one result per line of
/// standard output.
fn smoke(trace: &str, out: &Path) -> Vec<Json> {
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args([
            "--workload",
            "all",
            "--smoke",
            "--seed",
            "7",
            "--trace",
            trace,
            "--out",
        ])
        .arg(out)
        .output()
        .expect("bench starts");
    assert!(
        output.status.success(),
        "bench failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout)
        .expect("UTF-8 output")
        .lines()
        .map(|line| Json::parse(line).expect("every output line is JSON"))
        .collect()
}

fn names<'a>(items: impl IntoIterator<Item = &'a String>) -> BTreeSet<&'a str> {
    items.into_iter().map(String::as_str).collect()
}

fn assert_well_formed(name: &str) {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    assert!(
        !name.is_empty() && name.len() <= 64 && name.chars().all(ok),
        "`{name}` is not a valid name"
    );
}

#[test]
fn printed_names_equal_declared_names_and_every_check_passes() {
    let contract = Contract::load();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&out);

    let declared_workloads: Vec<&str> = contract.workload_names();
    declared_workloads
        .iter()
        .for_each(|w| assert_well_formed(w));
    let mut measured_layers: BTreeSet<String> = BTreeSet::new();

    for (trace, declared) in [("0", &contract.end_to_end), ("1", &contract.per_layer)] {
        let declared: Vec<String> = declared.iter().map(|m| m.name.clone()).collect();
        declared.iter().for_each(|m| assert_well_formed(m));
        let results = smoke(trace, &out);
        assert_eq!(
            results.len(),
            declared_workloads.len(),
            "one result per workload"
        );

        for (workload, result) in declared_workloads.iter().zip(&results) {
            let keys = result.as_obj().expect("a result is an object").keys();
            assert_eq!(
                names(keys),
                BTreeSet::from(["attempted", "correct", "failed", "metrics"]),
                "{workload}: result keys"
            );
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
            assert!(
                result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0,
                "{workload}"
            );

            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object");
            assert_eq!(
                names(metrics.keys()),
                names(&declared),
                "{workload}: metric names"
            );
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
                assert!(
                    metric.get("unit").and_then(Json::as_str).is_some(),
                    "{workload}: {name}"
                );
                if trace == "0" {
                    assert!(
                        value.unwrap() > 0.0,
                        "{workload}: end-to-end {name} must never be 0"
                    );
                }
            }

            // The full record names what the run really measured, as
            // opposed to what was filled with 0 for a layer it lacks.
            let kind = if trace == "1" { "trace" } else { "run" };
            let record = std::fs::read_to_string(out.join(format!("{workload}.{kind}.json")))
                .expect("--out writes the full record");
            let record = Json::parse(&record).expect("the record is JSON");
            let measured = record
                .get("measured")
                .and_then(Json::as_obj)
                .expect("measured");
            if trace == "1" {
                measured_layers.extend(measured.keys().cloned());
            }
            let provenance = record.get("provenance").expect("provenance");
            for key in ["host_cores", "git_rev", "rustc", "simd_level"] {
                assert!(
                    provenance.get(key).is_some(),
                    "{workload}: provenance.{key}"
                );
            }
            for key in ["seed", "pinned", "repetitions", "samples"] {
                assert!(record.get(key).is_some(), "{workload}: record.{key}");
            }
        }
    }

    // No declared layer metric is a name nothing fills.
    for metric in &contract.per_layer {
        assert!(
            measured_layers.contains(&metric.name),
            "no workload's traced run measures `{}`",
            metric.name
        );
    }

    // The traced run leaves a Chrome trace whose spans nest.
    for workload in ["smp_paper", "mpsoc_sim"] {
        let path = embera_benchmark::run::out_dir().join(format!("{workload}.trace.json"));
        let trace = Json::parse(&std::fs::read_to_string(&path).expect("trace file")).unwrap();
        let events = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        let has = |name: &str| {
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some(name))
        };
        for span in [
            "run",
            "setup",
            "synthesize",
            "reference_checksum",
            "deploy",
            "wait",
            "verify",
        ] {
            assert!(has(span), "{workload}: no `{span}` span");
        }
        assert!(
            has("cell:mjpeg.huffman") && has("cell:simkernel.phold"),
            "{workload}: cell spans"
        );
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--workload", "no_such_workload", "--smoke"])
        .output()
        .expect("bench starts");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty(), "no result line for a refused run");
}
