//! Overload decisions are part of the deterministic surface: on the
//! in-process backend two identical open-loop runs must agree
//! bit-for-bit — every shed, every deadline expiry, every autoscale
//! retarget, every completed-frame latency — including under an
//! injected fault plan.

use embera::{FaultPlan, OverloadPolicy, Platform, RunningApp};
use embera_inproc::InprocPlatform;
use embera_trace::{EventKind, TraceCollector, TraceEvent};
use mjpeg::{build_overload_app, ArrivalProcess, AutoscaleConfig, OverloadConfig, Pacing};

/// One traced overload run on inproc; virtual pacing keeps the offered
/// schedule on the logical clock, so wall time never leaks into the
/// trace. Returns the full sorted trace plus the probe-level outcome
/// (latencies and the autoscaler's retarget history).
fn traced_overload_run(
    cfg: &OverloadConfig,
    faults: Option<FaultPlan>,
) -> (Vec<TraceEvent>, Vec<u64>, Vec<u32>) {
    let collector = TraceCollector::new(1 << 16);
    let stream = mjpeg::synthesize_stream(4, 48, 24, 75, 0x0D15_EA5E);
    let (mut app, probe) = build_overload_app(stream, cfg);
    app.with_tracing(collector.trace_config());
    if let Some(plan) = faults {
        app.with_faults(plan);
    }
    InprocPlatform::new()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    (
        collector.drain_sorted(),
        probe.latencies(),
        probe.scale_history(),
    )
}

fn assert_identical(
    (ta, la, sa): &(Vec<TraceEvent>, Vec<u64>, Vec<u32>),
    (tb, lb, sb): &(Vec<TraceEvent>, Vec<u64>, Vec<u32>),
) {
    assert_eq!(la, lb, "completed-frame latencies vary between runs");
    assert_eq!(sa, sb, "autoscale decisions vary between runs");
    assert_eq!(ta.len(), tb.len(), "trace length varies between runs");
    assert_eq!(ta, tb, "full trace varies between runs");
}

fn shed_cfg() -> OverloadConfig {
    OverloadConfig {
        frames: 32,
        mean_gap_ns: 40_000,
        arrival: ArrivalProcess::Poisson,
        deadline_budget_ns: 250_000,
        max_workers: 2,
        initial_workers: 2,
        fetch_policy: Some(OverloadPolicy::drop_oldest(3)),
        pacing: Pacing::Virtual,
        ..OverloadConfig::default()
    }
}

#[test]
fn shed_decisions_are_bit_for_bit_reproducible_on_inproc() {
    // Queue-bound shedding under a bursty Poisson schedule: the exact
    // set of shed tokens is scheduler-order dependent, so this pins the
    // whole decision sequence, not just the counts.
    let cfg = shed_cfg();
    let a = traced_overload_run(&cfg, None);
    let b = traced_overload_run(&cfg, None);
    assert!(
        a.0.iter().any(|e| e.kind == EventKind::Shed),
        "scenario never shed a message"
    );
    assert_identical(&a, &b);
}

#[test]
fn deadline_expiry_decisions_are_bit_for_bit_reproducible_on_inproc() {
    // DeadlineDrop sheds already-expired tokens at Fetch's ingress; the
    // budget is tighter than the offered gap, so expiries are frequent
    // and interleaved with completions.
    let cfg = OverloadConfig {
        fetch_policy: Some(OverloadPolicy::deadline_drop()),
        deadline_budget_ns: 120_000,
        ..shed_cfg()
    };
    let a = traced_overload_run(&cfg, None);
    let b = traced_overload_run(&cfg, None);
    assert!(
        a.0.iter().any(|e| e.kind == EventKind::Shed),
        "scenario never expired a token"
    );
    assert_identical(&a, &b);
}

#[test]
fn autoscale_decisions_are_bit_for_bit_reproducible_on_inproc() {
    // On inproc a stage parks only once its inbox is empty, so every
    // turn drains the whole queue and the deterministic autoscale
    // direction is *down*: quiet queues walk the worker count from 3
    // to the floor, one observation round per step, and that decision
    // sequence must replay exactly.
    let cfg = OverloadConfig {
        frames: 32,
        mean_gap_ns: 30_000,
        arrival: ArrivalProcess::LogNormal { sigma: 0.8 },
        deadline_budget_ns: 10_000_000_000,
        max_workers: 3,
        initial_workers: 3,
        autoscale: Some(AutoscaleConfig {
            high_queue: 1_000,
            low_queue: 10,
            hysteresis_rounds: 1,
            min_workers: 1,
            interval_ns: 50_000,
        }),
        pacing: Pacing::Virtual,
        ..OverloadConfig::default()
    };
    let a = traced_overload_run(&cfg, None);
    let b = traced_overload_run(&cfg, None);
    assert!(
        a.2.ends_with(&[1]),
        "quiet queues must walk the autoscaler to the floor: {:?}",
        a.2
    );
    assert_identical(&a, &b);
}

#[test]
fn overload_run_stays_deterministic_under_injected_fault() {
    // A dropped coeff batch on lane 1 leaves one frame permanently
    // partial at the judge; the perturbed schedule downstream of the
    // drop must still replay identically. (nth counts from 0; only the
    // few tokens surviving the queue bound are ever decoded, so the
    // fault targets the second batch the lane sees.)
    let plan = || FaultPlan::new().drop_message("Fetch", "fetchIdct1", 1);
    let a = traced_overload_run(&shed_cfg(), Some(plan()));
    let b = traced_overload_run(&shed_cfg(), Some(plan()));
    assert!(
        a.0.iter().any(|e| e.kind == EventKind::FaultInjected),
        "fault plan never fired"
    );
    assert_identical(&a, &b);
}
