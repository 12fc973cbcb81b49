//! `compare A B`: one row per (workload, end-to-end metric) with both
//! medians, their ratio and a verdict against the metric's bound.

use std::collections::BTreeMap;
use std::path::Path;

use crate::contract::{Contract, Metric};
use crate::json::Json;
use crate::stats::{iqr_share, median, range};

/// Layer values that must not differ between two runs of one workload
/// on one seed: the simulation's own results and the protocol's counts.
const EXACT: &[&str] = &[
    "mpsoc.sim_time_ms",
    "simkernel.events_dispatched",
    "core.msgs_total",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    InsideBound,
    /// The spread (interquartile range over median) of one side is
    /// wider than the bound and the two sides overlap: nothing can be
    /// said.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::InsideBound => "inside-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Set-up times closer than this are the same, whatever their ratio:
/// most set-ups here take a few milliseconds, and at that size the
/// allocator decides the time (the issue's "10 % or 50 ms, whichever is
/// larger", which `BENCHMARK.json` has no key for).
const SETUP_FLOOR_S: f64 = 0.05;

/// Judge observations `b` against baseline observations `a`.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let (base, new) = (median(a), median(b));
    if metric.name == "setup_s" && (new - base).abs() < SETUP_FLOOR_S {
        return Verdict::InsideBound;
    }
    let worse_by = if metric.higher_is_better {
        (base - new) / base
    } else {
        (new - base) / base
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    let spread = iqr_share(a).unwrap_or(0.0).max(iqr_share(b).unwrap_or(0.0));
    if overlap && spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::InsideBound
    }
}

/// The untraced result files under `path` (a file, or a directory of
/// `.json` files), grouped by workload.
fn load(path: &Path) -> Result<BTreeMap<String, Vec<Json>>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let file = entry
                .map_err(|e| format!("{}: {e}", path.display()))?
                .path();
            if file.extension().is_some_and(|ext| ext == "json") {
                files.push(file);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut by_workload: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let Some(workload) = doc.get("workload").and_then(Json::as_str) else {
            // Not a result file (a Chrome trace, say).
            continue;
        };
        if doc.get("trace").and_then(Json::as_bool) == Some(false) {
            by_workload
                .entry(workload.to_string())
                .or_default()
                .push(doc);
        }
    }
    if by_workload.is_empty() {
        return Err(format!("{}: no untraced result files", path.display()));
    }
    Ok(by_workload)
}

/// One value per run when a side holds several runs of the workload,
/// else the single run's per-repetition samples.
fn observations(runs: &[Json], metric: &str) -> Vec<f64> {
    let numbers = |v: Option<&Json>| -> Vec<f64> {
        v.and_then(Json::as_arr)
            .map_or(Vec::new(), |a| a.iter().filter_map(Json::as_f64).collect())
    };
    match runs {
        [one] => numbers(one.get("samples").and_then(|s| s.get(metric))),
        many => many
            .iter()
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect(),
    }
}

/// Print the table; `Ok(true)` when nothing regressed or differed.
pub fn compare(a: &Path, b: &Path, contract: &Contract) -> Result<bool, String> {
    let (side_a, side_b) = (load(a)?, load(b)?);
    let mut clean = true;
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    for (workload, runs_a) in &side_a {
        let Some(runs_b) = side_b.get(workload) else {
            println!("{workload:<20} only in A");
            continue;
        };
        for metric in &contract.end_to_end {
            let (obs_a, obs_b) = (
                observations(runs_a, &metric.name),
                observations(runs_b, &metric.name),
            );
            if obs_a.is_empty() || obs_b.is_empty() {
                continue;
            }
            let verdict = judge(metric, &obs_a, &obs_b);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{workload:<20} {:<18} {:>14.4} {:>14.4} {:>8.4} {:>5.0}%  {}",
                metric.name,
                median(&obs_a),
                median(&obs_b),
                median(&obs_b) / median(&obs_a),
                metric.bound.unwrap_or(0.0) * 100.0,
                verdict.label()
            );
        }
        // The same inputs must give the same simulation and the same
        // protocol, whatever the host did.
        if let ([run_a], [run_b]) = (runs_a.as_slice(), runs_b.as_slice()) {
            if run_a.get("seed") != run_b.get("seed") {
                continue;
            }
            let value = |run: &Json, name: &str| run.get("measured")?.get(name)?.as_f64();
            let mut exact: Vec<(&str, Option<f64>, Option<f64>)> = EXACT
                .iter()
                .map(|&name| (name, value(run_a, name), value(run_b, name)))
                .collect();
            let failed = |run: &Json| run.get("failed").and_then(Json::as_f64);
            exact.push(("failed", failed(run_a), failed(run_b)));
            for (name, va, vb) in exact {
                if let (Some(va), Some(vb)) = (va, vb) {
                    let same = va == vb;
                    clean &= same;
                    println!(
                        "{workload:<20} {name:<18} {va:>14} {vb:>14} {:>8} {:>6}  {}",
                        "",
                        "exact",
                        if same { "identical" } else { "differs" }
                    );
                }
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> Metric {
        Metric {
            name: "m".into(),
            unit: "1/s".into(),
            higher_is_better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_overlap() {
        let up = metric(true);
        assert_eq!(
            judge(&up, &[100.0, 101.0, 99.0], &[100.5, 99.5, 100.0]),
            Verdict::InsideBound
        );
        assert_eq!(
            judge(&up, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&up, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]),
            Verdict::Improved
        );
        // Wide and overlapping: nothing can be said.
        assert_eq!(
            judge(&up, &[100.0, 130.0, 80.0], &[95.0, 125.0, 85.0]),
            Verdict::Unresolved
        );
        // Wide, but every B beats every A.
        assert_eq!(
            judge(&up, &[100.0, 120.0, 90.0], &[150.0, 180.0, 140.0]),
            Verdict::Improved
        );
        let down = metric(false);
        let setup = Metric {
            name: "setup_s".into(),
            ..down.clone()
        };
        assert_eq!(
            judge(&setup, &[0.002, 0.0021], &[0.003, 0.0031]),
            Verdict::InsideBound
        );
        assert_eq!(
            judge(&setup, &[0.5, 0.51], &[0.7, 0.71]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&down, &[1.0, 1.01, 0.99], &[1.3, 1.31, 1.29]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&down, &[1.0, 1.01, 0.99], &[0.7, 0.71, 0.69]),
            Verdict::Improved
        );
    }
}
