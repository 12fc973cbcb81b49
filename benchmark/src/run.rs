//! One run of one workload: set-up, a warm-up repetition, timed
//! repetitions for the requested number of seconds, and the result in
//! the shape `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::cells;
use crate::contract::{Contract, Metric};
use crate::host::{self, Pin};
use crate::json::Json;
use crate::spans::Spans;
use crate::stats::{median, range};
use crate::workloads::{self, Prepared, Rep, Scale};

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// How long the timed repetitions run, s.
    pub seconds: f64,
    /// A traced run fills the per-layer metrics; an untraced one the
    /// end-to-end metrics.
    pub trace: bool,
    pub scale: Scale,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct Record {
    pub options: Options,
    pub pinned: bool,
    pub repetitions: usize,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// Every metric the run measured, by name.
    pub metrics: BTreeMap<String, f64>,
    /// The per-repetition values behind each end-to-end median.
    pub samples: BTreeMap<String, Vec<f64>>,
}

/// Where traces are written, inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Process exit code: a run whose output is wrong does not exit 0.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }

    fn metrics_json(&self, declared: &[Metric], required: bool) -> Json {
        Json::obj(declared.iter().map(|m| {
            let value = match self.metrics.get(&m.name) {
                Some(&value) => value,
                None if required => panic!("run did not measure `{}`", m.name),
                // A layer this workload does not run.
                None => 0.0,
            };
            let entry = [
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.clone())),
            ];
            (m.name.clone(), Json::obj(entry))
        }))
    }

    /// The four keys the driver reads from the last line of output.
    pub fn result(&self, contract: &Contract) -> Json {
        let metrics = if self.options.trace {
            self.metrics_json(&contract.per_layer, false)
        } else {
            self.metrics_json(&contract.end_to_end, true)
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
    }

    /// The result plus what is needed to compare and to trust it:
    /// provenance, per-repetition samples, every measured name.
    pub fn full(&self, contract: &Contract) -> Json {
        let Json::Obj(mut doc) = self.result(contract) else {
            unreachable!("result is an object")
        };
        let samples = self.samples.iter().map(|(k, v)| (k.clone(), Json::nums(v)));
        let measured = self.metrics.iter().map(|(k, &v)| (k.clone(), Json::Num(v)));
        let errors = self.errors.iter().map(|e| Json::Str(e.clone())).collect();
        let extra = [
            ("workload", Json::Str(self.options.workload.clone())),
            // A string: a u64 seed does not fit a JSON number.
            ("seed", Json::Str(self.options.seed.to_string())),
            ("seconds", Json::Num(self.options.seconds)),
            ("trace", Json::Bool(self.options.trace)),
            ("smoke", Json::Bool(self.options.scale == Scale::Smoke)),
            ("pinned", Json::Bool(self.pinned)),
            ("repetitions", Json::Num(self.repetitions as f64)),
            ("samples", Json::obj(samples)),
            ("measured", Json::obj(measured)),
            ("errors", Json::Arr(errors)),
            ("provenance", host::provenance()),
        ];
        doc.extend(extra.map(|(key, value)| (key.to_string(), value)));
        Json::Obj(doc)
    }
}

/// Run `options.workload`. `Err` for a workload the benchmark does not
/// have.
pub fn run(options: &Options, contract: &Contract) -> Result<Record, String> {
    run_tampered(options, contract, |_| {})
}

/// [`run`], with `tamper` applied to the prepared workload before its
/// first repetition — how the tests spoil an expectation.
pub fn run_tampered(
    options: &Options,
    contract: &Contract,
    tamper: impl FnOnce(&mut dyn Prepared),
) -> Result<Record, String> {
    if !contract
        .workload_names()
        .contains(&options.workload.as_str())
    {
        return Err(format!(
            "unknown workload `{}`; BENCHMARK.json has: {}",
            options.workload,
            contract.workload_names().join(", ")
        ));
    }
    let smoke = options.scale == Scale::Smoke;
    let mut spans = Spans::new(options.trace);
    let mut record = spans.span("run", |spans| {
        let pin = workloads::runs_pinned(&options.workload).then(Pin::to_one_cpu);
        let (mut prepared, setup_s) = set_up(options, spans);
        tamper(&mut *prepared);

        // Caches fill and lazy initialisation finishes here, not in a
        // timed repetition. A smoke run is one repetition, no more.
        spans.set_enabled(false);
        if !smoke {
            prepared.repetition(spans);
        }
        let (min_reps, budget) = match (smoke, options.trace) {
            (true, _) => (1, 0.0),
            (false, true) => (2, options.seconds / 2.0),
            (false, false) => (3, options.seconds),
        };
        let started = Instant::now();
        let mut reps: Vec<Rep> = Vec::new();
        while reps.len() < min_reps || started.elapsed().as_secs_f64() < budget {
            // A traced run alternates recorded and unrecorded
            // repetitions; their difference is the recorder's cost.
            spans.set_enabled(options.trace && reps.len().is_multiple_of(2));
            spans.set_rep(reps.len() as u64 + 1);
            reps.push(spans.span("repetition", |spans| prepared.repetition(spans)));
        }
        spans.set_enabled(options.trace);
        spans.set_rep(0);
        drop(prepared);

        let mut record = aggregate(options, &reps, &setup_s);
        record.pinned = pin.as_ref().is_some_and(Pin::pinned);
        record
            .metrics
            .insert("host.peak_rss_mb".into(), host::peak_rss_mb());
        drop(pin);

        if options.trace {
            let pin = Pin::to_one_cpu();
            record.pinned = pin.pinned();
            let env = cells::Env {
                budget: Duration::from_secs_f64(if smoke {
                    0.005
                } else {
                    options.seconds * 0.015
                }),
                scale: options.scale,
                seed: options.seed,
            };
            for (name, value) in cells::run_all(&env, spans) {
                record.metrics.insert(name.to_string(), value);
            }
        }
        record
    });

    for name in record.metrics.keys() {
        let declared = contract.end_to_end.iter().chain(&contract.per_layer);
        assert!(
            declared.clone().any(|m| &m.name == name),
            "measured `{name}`, which BENCHMARK.json does not declare"
        );
    }
    if options.trace {
        report_spans(&spans);
        let path = out_dir().join(format!("{}.trace.json", options.workload));
        match spans.write_chrome_trace(&path) {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(e) => record
                .errors
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    Ok(record)
}

/// Build the workload's inputs several times and keep the last: set-up
/// time is reported as a median, like everything else. The first set-up
/// is the one the trace shows; it runs cold and only sizes the batches.
/// A set-up shorter than [`MIN_SETUP_SAMPLE_S`] is timed in batches that
/// long, because a sub-millisecond time read once says more about the
/// allocator and the caches than about the set-up.
fn set_up(options: &Options, spans: &mut Spans) -> (Box<dyn Prepared>, Vec<f64>) {
    let prepare = |spans: &mut Spans| {
        workloads::prepare(&options.workload, options.seed, options.scale, spans)
            .expect("a declared workload has an implementation")
    };
    let started = Instant::now();
    let mut prepared = spans.span("setup", prepare);
    let first_s = started.elapsed().as_secs_f64();
    if options.scale == Scale::Smoke {
        return (prepared, vec![first_s]);
    }
    let recording = spans.set_enabled(false);
    let batch = (MIN_SETUP_SAMPLE_S / first_s).ceil().clamp(1.0, 2_000.0);
    let setup_s = (0..SETUP_SAMPLES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch as u32 {
                prepared = prepare(spans);
            }
            started.elapsed().as_secs_f64() / batch
        })
        .collect();
    spans.set_enabled(recording);
    (prepared, setup_s)
}

/// Shortest stretch of set-up work that is timed as one sample, s.
const MIN_SETUP_SAMPLE_S: f64 = 0.1;
/// Batches of set-ups timed.
const SETUP_SAMPLES: usize = 5;

fn aggregate(options: &Options, reps: &[Rep], setup_s: &[f64]) -> Record {
    let mut errors: Vec<String> = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        errors.extend(
            rep.errors
                .iter()
                .map(|e| format!("repetition {}: {e}", i + 1)),
        );
        if let Some(why) = &rep.set_aside {
            eprintln!("repetition {} set aside: {why}", i + 1);
        }
    }
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
    // What the simulation or the protocol reports may not move from one
    // repetition of the same inputs to the next.
    for (name, first) in &reps[0].exact {
        let all: Vec<u64> = reps
            .iter()
            .filter_map(|r| r.exact.iter().find(|(n, _)| n == name).map(|&(_, v)| v))
            .collect();
        if all.iter().any(|v| v != first) {
            errors.push(format!("`{name}` differs between repetitions: {all:?}"));
            failed = attempted;
        }
    }

    // Repetitions set aside still count as attempted; they only stay
    // out of the medians, unless none is left.
    let mut kept: Vec<&Rep> = reps.iter().filter(|r| r.set_aside.is_none()).collect();
    if kept.is_empty() {
        kept = reps.iter().collect();
    }
    let throughput: Vec<f64> = kept
        .iter()
        .map(|r| (r.attempted - r.failed) as f64 * 1e9 / r.wall_ns.max(1) as f64)
        .collect();
    let latency: Vec<f64> = kept.iter().map(|r| r.latency_ms).collect();
    let samples = BTreeMap::from([
        ("throughput_per_s".to_string(), throughput),
        ("latency_p50_ms".to_string(), latency),
        ("setup_s".to_string(), setup_s.to_vec()),
    ]);
    let mut metrics: BTreeMap<String, f64> = samples
        .iter()
        .map(|(name, values)| (name.clone(), median(values)))
        .collect();

    let mut layer_samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rep in &kept {
        for &(name, value) in &rep.layers {
            layer_samples.entry(name).or_default().push(value);
        }
    }
    metrics.extend(
        layer_samples
            .iter()
            .map(|(name, values)| (name.to_string(), median(values))),
    );

    if options.trace {
        // Even repetitions ran with the recorder on, odd ones with it off.
        let walls = |parity: usize| -> Vec<f64> {
            let of_parity = reps.iter().enumerate().filter(|(i, _)| i % 2 == parity);
            of_parity.map(|(_, r)| r.wall_ns as f64).collect()
        };
        let (on, off) = (walls(0), walls(1));
        let overhead = if off.is_empty() {
            0.0
        } else {
            (median(&on) / median(&off) - 1.0) * 100.0
        };
        metrics.insert("bench.trace_overhead_pct".into(), overhead);
    }

    Record {
        options: options.clone(),
        pinned: false,
        repetitions: reps.len(),
        attempted,
        failed,
        errors,
        metrics,
        samples,
    }
}

/// Print each span name's self time; they add up to the run.
fn report_spans(spans: &Spans) {
    let Some(root) = spans.spans().first() else {
        return;
    };
    let run_ns = (root.end_ns - root.start_ns) as f64;
    eprintln!("{:<28} {:>12} {:>7}", "span", "self ms", "share");
    let self_times = spans.self_times();
    for (name, ns) in &self_times {
        eprintln!(
            "{name:<28} {:>12.3} {:>6.1}%",
            *ns as f64 / 1e6,
            *ns as f64 * 100.0 / run_ns
        );
    }
    let total: u64 = self_times.iter().map(|(_, ns)| ns).sum();
    eprintln!(
        "{:<28} {:>12.3} of {:.3} ms run",
        "sum of self times",
        total as f64 / 1e6,
        run_ns / 1e6
    );
}

/// One line for people, on standard error.
pub fn summarize(record: &Record, contract: &Contract) {
    let declared = if record.options.trace {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    eprintln!(
        "{} seed={} trace={} repetitions={} pinned={} attempted={} failed={}",
        record.options.workload,
        record.options.seed,
        u8::from(record.options.trace),
        record.repetitions,
        record.pinned,
        record.attempted,
        record.failed
    );
    for m in declared {
        let Some(value) = record.metrics.get(&m.name) else {
            continue;
        };
        match record.samples.get(&m.name) {
            Some(values) => {
                let (lo, hi) = range(values);
                eprintln!(
                    "  {:<36} {value:>16.4} {:<6} [{lo:.4} .. {hi:.4}] n={}",
                    m.name,
                    m.unit,
                    values.len()
                );
            }
            None => eprintln!("  {:<36} {value:>16.4} {}", m.name, m.unit),
        }
    }
    for error in &record.errors {
        eprintln!("  FAILED: {error}");
    }
}
