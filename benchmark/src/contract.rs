//! The benchmark's contract, read from the `BENCHMARK.json` that is
//! compiled into the binary: the harness prints exactly the workloads
//! and metrics that file declares, so the two cannot drift apart.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// Everything `BENCHMARK.json` declares.
#[derive(Debug, Clone)]
pub struct Contract {
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub run_seconds: f64,
}

impl Contract {
    /// Parse the embedded file. Panics on a malformed file: it is part
    /// of the source tree, not outside input.
    pub fn load() -> Contract {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Json> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` must be an array"))
                .to_vec()
        };
        let text = |item: &Json, key: &str| -> String {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing string `{key}`"))
                .to_string()
        };
        let metric = |item: &Json| Metric {
            name: text(item, "name"),
            unit: text(item, "unit"),
            higher_is_better: text(item, "better") == "higher",
            bound: item.get("bound").and_then(Json::as_f64),
        };
        Contract {
            workloads: list("workloads")
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: list("end_to_end").iter().map(metric).collect(),
            per_layer: list("per_layer").iter().map(metric).collect(),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: `run_seconds` must be a number"),
        }
    }

    pub fn workload_names(&self) -> Vec<&str> {
        self.workloads
            .iter()
            .map(|(name, _)| name.as_str())
            .collect()
    }
}
