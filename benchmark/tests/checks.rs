//! The output checks can fail: with its expectation spoiled, every
//! workload reports failed operations and the run does not exit 0.

use embera_benchmark::contract::Contract;
use embera_benchmark::json::Json;
use embera_benchmark::run::{run, run_tampered, Options};
use embera_benchmark::workloads::Scale;

fn smoke_options(workload: &str) -> Options {
    Options {
        workload: workload.to_string(),
        seed: 11,
        seconds: 0.0,
        trace: false,
        scale: Scale::Smoke,
    }
}

#[test]
fn a_corrupted_expectation_fails_every_workload() {
    let contract = Contract::load();
    for workload in contract.workload_names() {
        let record = run_tampered(&smoke_options(workload), &contract, |prepared| {
            prepared.corrupt_expectation()
        })
        .expect("a declared workload runs");
        assert!(
            !record.correct(),
            "{workload}: a spoiled expectation must be noticed"
        );
        assert!(
            record.failed > 0 && record.failed <= record.attempted,
            "{workload}"
        );
        assert!(
            !record.errors.is_empty(),
            "{workload}: the failed check is named"
        );
        assert_ne!(record.exit_code(), 0, "{workload}: must not exit 0");
        let result = record.result(&contract);
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(false),
            "{workload}"
        );
    }
}

#[test]
fn the_same_run_untampered_passes() {
    let contract = Contract::load();
    let record = run(&smoke_options("smp_paper"), &contract).expect("smp_paper runs");
    assert!(record.correct(), "{:?}", record.errors);
    assert_eq!(record.exit_code(), 0);
    assert_eq!(record.attempted, 199);
}

#[test]
fn the_same_seed_gives_the_same_protocol_and_simulation() {
    let contract = Contract::load();
    for workload in ["smp_paper", "mpsoc_sim"] {
        let a = run(&smoke_options(workload), &contract).unwrap();
        let b = run(&smoke_options(workload), &contract).unwrap();
        for exact in ["core.msgs_total", "core.bytes_sent"] {
            assert_eq!(a.metrics[exact], b.metrics[exact], "{workload}: {exact}");
        }
        if workload == "mpsoc_sim" {
            for exact in [
                "mpsoc.sim_time_ms",
                "simkernel.events_dispatched",
                "mpsoc.bus_wait_ms",
            ] {
                assert_eq!(a.metrics[exact], b.metrics[exact], "{workload}: {exact}");
            }
        }
    }
}
