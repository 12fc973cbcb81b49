use std::path::{Path, PathBuf};
use std::process::ExitCode;

use embera_benchmark::compare::compare;
use embera_benchmark::contract::Contract;
use embera_benchmark::run::{run, summarize, Options, Record};
use embera_benchmark::workloads::Scale;

const USAGE: &str = "\
usage: bench --workload <name|all> [--seed <u64>] [--seconds <s>] [--trace <0|1>]
             [--smoke] [--out <dir>]
       bench compare <A> <B>

Runs one workload (or all of them) of BENCHMARK.json and prints, as the
last line of standard output per workload, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. --out also writes the
full record (samples, provenance) to <dir>/<workload>.<run|trace>.json.
`compare` judges the untraced records of B against those of A (files, or
directories of them) by the bounds of BENCHMARK.json.";

struct Cli {
    /// `options.workload` may also be `all`.
    options: Options,
    out: Option<PathBuf>,
}

fn parse(args: &[String], contract: &Contract) -> Result<Cli, String> {
    let mut cli = Cli {
        options: Options {
            workload: String::new(),
            seed: 1,
            seconds: contract.run_seconds,
            trace: false,
            scale: Scale::Full,
        },
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.options.workload = value()?.clone(),
            "--seed" => {
                cli.options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                cli.options.seconds = seconds;
            }
            "--trace" => {
                cli.options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--smoke" => cli.options.scale = Scale::Smoke,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.options.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cli)
}

fn write_record(dir: &Path, record: &Record, contract: &Contract) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let kind = if record.options.trace { "trace" } else { "run" };
    let path = dir.join(format!("{}.{kind}.json", record.options.workload));
    std::fs::write(&path, record.full(contract).to_line() + "\n")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let contract = Contract::load();
    if args.first().is_some_and(|a| a == "compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare(Path::new(a), Path::new(b), &contract) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse(&args, &contract) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<String> = if cli.options.workload == "all" {
        contract
            .workload_names()
            .into_iter()
            .map(String::from)
            .collect()
    } else {
        vec![cli.options.workload.clone()]
    };

    let mut exit = 0;
    let mut throughput = Vec::new();
    for workload in workloads {
        let options = Options {
            workload,
            ..cli.options.clone()
        };
        let record = match run(&options, &contract) {
            Ok(record) => record,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        summarize(&record, &contract);
        if let Some(dir) = &cli.out {
            if let Err(e) = write_record(dir, &record, &contract) {
                eprintln!("cannot write the record to {}: {e}", dir.display());
                exit = exit.max(1);
            }
        }
        throughput.push((
            options.workload,
            record.metrics.get("throughput_per_s").copied(),
        ));
        println!("{}", record.result(&contract).to_line());
        exit = exit.max(record.exit_code());
    }

    // The paper's headline cost, where it stands above noise: what the
    // observer takes from the scheduler-bound workload.
    let of = |name: &str| {
        throughput
            .iter()
            .find(|(w, _)| w == name)
            .and_then(|(_, v)| *v)
    };
    if let (Some(plain), Some(observed)) = (of("exec_fanio"), of("exec_fanio_observed")) {
        eprintln!(
            "core.obs_overhead_pct = {:.2} (1 - {observed:.0} / {plain:.0} messages per second)",
            (1.0 - observed / plain) * 100.0
        );
    }
    ExitCode::from(exit as u8)
}
