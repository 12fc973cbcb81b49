//! Hierarchical observation end-to-end: deterministic schedules of the
//! grouped observer tree on the in-process backend (including under
//! injected faults), and region attribution of watchdog stall records.

use bytes::Bytes;
use embera::behavior::behavior_fn;
use embera::{AppBuilder, ComponentSpec, FaultPlan, ObserverConfig, Platform, RunningApp};
use embera_inproc::InprocPlatform;
use embera_smp::SmpPlatform;
use embera_trace::{EventKind, TraceCollector, TraceEvent};

/// Run a traced source -> relay -> sink pipeline on inproc under a
/// two-region grouped observer tree and return the full sorted trace.
/// The `waiter` holds the application open until the root observer has
/// seen every member terminal; the regional observers take their turns
/// on the run queue beside the pipeline, so observation interleaves
/// with the run instead of trailing it.
fn traced_grouped_run(faults: Option<FaultPlan>) -> Vec<TraceEvent> {
    const MSGS: u32 = 30;
    let collector = TraceCollector::new(1 << 14);
    let mut app = AppBuilder::new("adaptive-trace");
    app.add(
        ComponentSpec::new("waiter", behavior_fn(|ctx| ctx.recv("done").map(|_| ())))
            .with_provided("done"),
    );
    app.add(
        ComponentSpec::new(
            "source",
            behavior_fn(|ctx| {
                for i in 0..MSGS {
                    ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                }
                Ok(())
            }),
        )
        .with_required("out"),
    );
    app.add(
        ComponentSpec::new(
            "relay",
            behavior_fn(|ctx| {
                for _ in 0..MSGS {
                    let b = ctx.recv("in")?;
                    ctx.send("out", b)?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_required("out"),
    );
    app.add(
        ComponentSpec::new(
            "sink",
            behavior_fn(|ctx| {
                for _ in 0..MSGS {
                    ctx.recv("in")?;
                }
                Ok(())
            }),
        )
        .with_provided("in"),
    );
    app.connect(("source", "out"), ("relay", "in"));
    app.connect(("relay", "out"), ("sink", "in"));
    app.with_tracing(collector.trace_config());
    if let Some(plan) = faults {
        app.with_faults(plan);
    }
    let _log = app.with_observer(
        ObserverConfig::default()
            .grouped(vec![
                ("left".to_string(), vec!["source".into(), "relay".into()]),
                ("right".to_string(), vec!["sink".into()]),
            ])
            .interval_ns(10_000)
            .notify_done("waiter", "done"),
    );
    InprocPlatform::new()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    collector.drain_sorted()
}

fn obs_served(trace: &[TraceEvent]) -> Vec<TraceEvent> {
    trace
        .iter()
        .copied()
        .filter(|e| e.kind == EventKind::ObsServed)
        .collect()
}

#[test]
fn grouped_schedule_is_deterministic_on_inproc() {
    // Two identical runs must produce the *same* observation schedule:
    // every round polls every member of the group, and on the
    // logical-clock backend that makes the whole `ObsServed` event
    // sequence — timestamps included — reproducible bit-for-bit.
    let a = traced_grouped_run(None);
    let b = traced_grouped_run(None);
    let (sa, sb) = (obs_served(&a), obs_served(&b));
    assert!(
        !sa.is_empty(),
        "grouped observation produced no ObsServed events"
    );
    assert_eq!(sa, sb, "observation schedule varies between runs");
    // Not just the schedule: the complete interleaved trace is identical.
    assert_eq!(a, b, "full trace varies between runs");
}

#[test]
fn grouped_schedule_stays_deterministic_under_injected_fault() {
    // A corrupted message perturbs payloads without losing any (the
    // pipeline still completes); the fault counting lives in the shared
    // runtime, so two faulted runs must still agree event-for-event.
    let plan = || FaultPlan::new().corrupt_message("source", "out", 3);
    let a = traced_grouped_run(Some(plan()));
    let b = traced_grouped_run(Some(plan()));
    assert!(
        a.iter().any(|e| e.kind == EventKind::FaultInjected),
        "fault plan never fired"
    );
    assert_eq!(
        obs_served(&a),
        obs_served(&b),
        "observation schedule varies under an identical fault plan"
    );
    assert_eq!(a, b, "full faulted trace varies between runs");
}

#[test]
fn stall_record_carries_the_reporting_region() {
    // Under the hierarchy the watchdog timestamps come from the regional
    // observer that polled the stalled component, so the record must
    // name that region. `stuck` (region "left") parks in a timed recv on
    // an interface nobody feeds while `ticker`/`pump` (region "right")
    // keep making progress.
    let mut app = AppBuilder::new("stall-region");
    app.add(
        ComponentSpec::new(
            "stuck",
            behavior_fn(|ctx| {
                let _ = ctx.recv_timeout("in", 200_000_000)?;
                Ok(())
            }),
        )
        .with_provided("in")
        .with_stack_bytes(1 << 20)
        .on_cpu(0),
    );
    app.add(
        ComponentSpec::new(
            "ticker",
            behavior_fn(|ctx| {
                for i in 0..40u32 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                }
                Ok(())
            }),
        )
        .with_required("out")
        .with_stack_bytes(1 << 20)
        .on_cpu(1),
    );
    app.add(
        ComponentSpec::new(
            "pump",
            behavior_fn(|ctx| {
                for _ in 0..40u32 {
                    ctx.recv("in")?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_stack_bytes(1 << 20)
        .on_cpu(2),
    );
    app.connect(("ticker", "out"), ("pump", "in"));
    let log = app.with_observer(
        ObserverConfig::default()
            .grouped(vec![
                ("left".to_string(), vec!["stuck".into()]),
                ("right".to_string(), vec!["ticker".into(), "pump".into()]),
            ])
            .interval_ns(5_000_000)
            .watchdog_ns(30_000_000),
    );
    SmpPlatform::new()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    let stalls = log.stalls();
    assert!(!stalls.is_empty(), "watchdog never fired");
    assert!(
        stalls.iter().all(|s| s.component == "stuck"),
        "only `stuck` may stall: {stalls:?}"
    );
    assert!(
        stalls.iter().all(|s| s.region == "left"),
        "stall must carry the reporting region: {stalls:?}"
    );
    // The region also shows up in the rolled-up summaries.
    assert!(log
        .summaries()
        .iter()
        .any(|s| s.region == "left" && s.stalled > 0));
}
