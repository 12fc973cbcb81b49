//! Supervision end-to-end: panic containment, restart policies, health
//! observation with the stall watchdog, and the deterministic
//! fault-injection harness — including the acceptance scenario of an
//! MJPEG pipeline surviving a mid-stream IDCT panic.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use embera::behavior::behavior_fn;
use embera::{
    AppBuilder, AppReport, AppSpec, ComponentSpec, EmberaError, Escalation, FaultPlan,
    ObservationLog, ObserverConfig, Platform, RestartPolicy, RunningApp,
};
use embera_exec::ExecPlatform;
use embera_inproc::InprocPlatform;
use embera_os21::Os21Platform;
use embera_smp::SmpPlatform;
use embera_trace::{EventKind, TraceCollector};
use mjpeg::{build_smp_app, synthesize_stream, MjpegAppConfig};

type RunFn = fn(AppSpec) -> Result<AppReport, EmberaError>;

fn backends() -> Vec<(&'static str, RunFn)> {
    fn smp(spec: AppSpec) -> Result<AppReport, EmberaError> {
        SmpPlatform::new().deploy(spec)?.wait()
    }
    fn os21(spec: AppSpec) -> Result<AppReport, EmberaError> {
        Os21Platform::three_cpu().deploy(spec)?.wait()
    }
    fn inproc(spec: AppSpec) -> Result<AppReport, EmberaError> {
        InprocPlatform::new().deploy(spec)?.wait()
    }
    fn exec(spec: AppSpec) -> Result<AppReport, EmberaError> {
        // Panic containment and restarts must survive fibers sharing
        // carrier threads: two workers for fewer carriers than
        // components in every scenario here.
        ExecPlatform::with_workers(2).deploy(spec)?.wait()
    }
    vec![
        ("smp", smp),
        ("os21", os21),
        ("inproc", inproc),
        ("exec", exec),
    ]
}

#[test]
fn behavior_panic_is_contained_and_attributed_on_every_backend() {
    // A panicking behavior must never poison the application: the peer
    // drains out cleanly and the run's error names the component and
    // carries the panic payload.
    for (backend, run) in backends() {
        let mut app = AppBuilder::new("contain");
        app.add(
            ComponentSpec::new(
                "waiter",
                behavior_fn(|ctx| match ctx.recv("in") {
                    Err(EmberaError::Terminated) => Ok(()),
                    other => panic!("expected Terminated, got {other:?}"),
                }),
            )
            .with_provided("in")
            .with_stack_bytes(1 << 20)
            .on_cpu(0),
        );
        app.add(
            ComponentSpec::new("bomb", behavior_fn(|_| panic!("kaboom at block 7")))
                .with_stack_bytes(1 << 20)
                .on_cpu(1),
        );
        let err = run(app.build().unwrap()).unwrap_err();
        let EmberaError::Platform(msg) = err else {
            panic!("[{backend}] wrong error kind");
        };
        assert!(msg.contains("bomb"), "[{backend}] {msg}");
        assert!(msg.contains("panicked"), "[{backend}] {msg}");
        assert!(msg.contains("kaboom at block 7"), "[{backend}] {msg}");
    }
}

#[test]
fn restart_policy_reruns_failed_behavior_in_place() {
    // First attempt fails, second succeeds: under max_restarts=1 the
    // application completes and the restart is visible in the final
    // report's health block.
    for (backend, run) in backends() {
        let attempts = Arc::new(AtomicU32::new(0));
        let a = Arc::clone(&attempts);
        let mut app = AppBuilder::new("retry");
        app.add(
            ComponentSpec::new(
                "flaky",
                behavior_fn(move |_| {
                    if a.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("first-attempt crash");
                    }
                    Ok(())
                }),
            )
            .with_restart(RestartPolicy {
                max_restarts: 1,
                ..RestartPolicy::default()
            })
            .with_stack_bytes(1 << 20),
        );
        let report = run(app.build().unwrap()).unwrap_or_else(|e| panic!("[{backend}] {e}"));
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "[{backend}]");
        let health = report
            .component("flaky")
            .unwrap()
            .health
            .expect("final report carries health");
        assert_eq!(health.restarts, 1, "[{backend}]");
    }
}

#[test]
fn exhausted_restart_budget_escalates_with_the_last_error() {
    for (backend, run) in backends() {
        let attempts = Arc::new(AtomicU32::new(0));
        let a = Arc::clone(&attempts);
        let mut app = AppBuilder::new("hopeless");
        app.add(
            ComponentSpec::new(
                "doomed",
                behavior_fn(move |_| {
                    a.fetch_add(1, Ordering::SeqCst);
                    Err(EmberaError::Platform("always broken".into()))
                }),
            )
            .with_restart(RestartPolicy {
                max_restarts: 2,
                escalation: Escalation::Escalate,
                ..RestartPolicy::default()
            })
            .with_stack_bytes(1 << 20),
        );
        let err = run(app.build().unwrap()).unwrap_err();
        assert_eq!(
            attempts.load(Ordering::SeqCst),
            3,
            "[{backend}] 1 run + 2 restarts"
        );
        let EmberaError::Platform(msg) = err else {
            panic!("[{backend}] wrong error kind");
        };
        assert!(
            msg.contains("doomed") && msg.contains("always broken"),
            "[{backend}] {msg}"
        );
    }
}

#[test]
fn one_for_one_contains_failure_while_peers_complete() {
    // `doomed` exhausts its budget under OneForOne: its failure is
    // reported, but `worker` — fully independent — still runs to
    // completion instead of being torn down by a fail-fast shutdown.
    for (backend, run) in backends() {
        let done = Arc::new(AtomicU32::new(0));
        let d = Arc::clone(&done);
        let mut app = AppBuilder::new("contained");
        app.add(
            ComponentSpec::new(
                "worker",
                behavior_fn(move |ctx| {
                    for i in 0..20u32 {
                        ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                    }
                    d.store(1, Ordering::SeqCst);
                    Ok(())
                }),
            )
            .with_required("out")
            .with_stack_bytes(1 << 20)
            .on_cpu(0),
        );
        app.add(
            ComponentSpec::new(
                "sink",
                behavior_fn(|ctx| {
                    for _ in 0..20u32 {
                        ctx.recv("in")?;
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_stack_bytes(1 << 20)
            .on_cpu(1),
        );
        app.connect(("worker", "out"), ("sink", "in"));
        app.add(
            ComponentSpec::new(
                "doomed",
                behavior_fn(|_| Err(EmberaError::Platform("contained fault".into()))),
            )
            .with_restart(RestartPolicy {
                max_restarts: 1,
                escalation: Escalation::OneForOne,
                ..RestartPolicy::default()
            })
            .with_stack_bytes(1 << 20)
            .on_cpu(2),
        );
        let err = run(app.build().unwrap()).unwrap_err();
        let EmberaError::Platform(msg) = err else {
            panic!("[{backend}] wrong error kind");
        };
        assert!(
            msg.contains("doomed") && msg.contains("contained fault"),
            "[{backend}] {msg}"
        );
        assert!(
            !msg.contains("worker") && !msg.contains("sink"),
            "[{backend}] healthy components must not appear as failures: {msg}"
        );
        assert_eq!(
            done.load(Ordering::SeqCst),
            1,
            "[{backend}] worker finished its stream"
        );
    }
}

/// Observer poll interval of the stall scenario.
const STALL_INTERVAL_NS: u64 = 5_000_000;
/// Watchdog window of the stall scenario.
const STALL_WATCHDOG_NS: u64 = 30_000_000;

/// The stall scenario, run once on `run`: `stuck` parks in a timed
/// receive on an interface nobody feeds, `ticker` sends to `pump` every
/// 2 ms. `pinned` puts the three components on CPUs 0, 1 and 2. Returns
/// the observer's log and the largest real gap `ticker` left between
/// two sends (from its start to its first send counting as one),
/// measured on the host clock.
fn stall_scenario(name: &str, pinned: bool, run: RunFn) -> (ObservationLog, Duration) {
    let place = |spec: ComponentSpec, cpu: usize| if pinned { spec.on_cpu(cpu) } else { spec };
    let largest_gap = Arc::new(Mutex::new(Duration::ZERO));
    let gap = Arc::clone(&largest_gap);
    let mut app = AppBuilder::new(name);
    app.add(place(
        ComponentSpec::new(
            "stuck",
            behavior_fn(|ctx| {
                let _ = ctx.recv_timeout("in", 200_000_000)?;
                Ok(())
            }),
        )
        .with_provided("in")
        .with_stack_bytes(1 << 20),
        0,
    ));
    app.add(place(
        ComponentSpec::new(
            "ticker",
            behavior_fn(move |ctx| {
                let (mut last, mut largest) = (Instant::now(), Duration::ZERO);
                for i in 0..40u32 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    let now = Instant::now();
                    largest = largest.max(now - last);
                    last = now;
                    ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                }
                *gap.lock().unwrap() = largest;
                Ok(())
            }),
        )
        .with_required("out")
        .with_stack_bytes(1 << 20),
        1,
    ));
    app.add(place(
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
        .with_stack_bytes(1 << 20),
        2,
    ));
    app.connect(("ticker", "out"), ("pump", "in"));
    let log = app.with_observer(
        ObserverConfig::default()
            .interval_ns(STALL_INTERVAL_NS)
            .watchdog_ns(STALL_WATCHDOG_NS),
    );
    run(app.build().unwrap()).unwrap();
    let largest = *largest_gap.lock().unwrap();
    (log, largest)
}

/// The watchdog's contract: a component without progress for the
/// window is flagged, one that makes progress is not. `ticker` makes
/// progress only if the host lets it: a run counts only if its largest
/// gap between sends stayed below the window less one poll interval,
/// which is what the watchdog can tell from a stall. The scenario runs
/// up to three times until one run counts.
fn assert_watchdog_contract(name: &str, pinned: bool, run: RunFn) {
    let bound = Duration::from_nanos(STALL_WATCHDOG_NS - STALL_INTERVAL_NS);
    let mut gaps = Vec::new();
    for _ in 0..3 {
        let (log, gap) = stall_scenario(name, pinned, run);
        if gap >= bound {
            gaps.push(gap);
            continue;
        }
        let stalled = log.stalled_components();
        assert!(stalled.contains(&"stuck".to_string()), "{stalled:?}");
        assert!(!stalled.contains(&"ticker".to_string()), "{stalled:?}");
        assert!(!log.stalls().is_empty());
        return;
    }
    panic!("the host stalled `ticker` in every run: largest gaps {gaps:?}, bound {bound:?}");
}

#[test]
fn watchdog_flags_component_without_progress() {
    // `stuck` is a parked thread; the observer's watchdog must log the
    // stall while the healthy `ticker` keeps making progress and stays
    // off the stall list.
    fn smp(spec: AppSpec) -> Result<AppReport, EmberaError> {
        SmpPlatform::new().deploy(spec)?.wait()
    }
    assert_watchdog_contract("stalled", true, smp);
}

#[test]
fn watchdog_flags_component_without_progress_on_exec() {
    // Same stall scenario on the executor: `stuck` is a parked fiber
    // rather than a parked thread, and the observer (itself a fiber on
    // the same 2-worker pool) must still see its progress counter frozen
    // while `ticker` stays healthy.
    fn exec(spec: AppSpec) -> Result<AppReport, EmberaError> {
        ExecPlatform::with_workers(2).deploy(spec)?.wait()
    }
    assert_watchdog_contract("stalled-exec", false, exec);
}

/// Pipeline used by the message-fault tests: src sends 5 tagged
/// messages, dst drains with a deadline and records what arrived.
fn fault_pipeline(received: Arc<Mutex<Vec<Vec<u8>>>>) -> AppBuilder {
    let mut app = AppBuilder::new("faulted");
    app.add(
        ComponentSpec::new(
            "dst",
            behavior_fn(move |ctx| {
                while let Some(b) = ctx.recv_timeout("in", 50_000_000)? {
                    received.lock().unwrap().push(b.to_vec());
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_stack_bytes(1 << 20)
        .on_cpu(0),
    );
    app.add(
        ComponentSpec::new(
            "src",
            behavior_fn(|ctx| {
                for i in 0..5u8 {
                    ctx.send("out", Bytes::from(vec![i, 0xAA, 0xBB]))?;
                }
                Ok(())
            }),
        )
        .with_required("out")
        .with_stack_bytes(1 << 20)
        .on_cpu(1),
    );
    app.connect(("src", "out"), ("dst", "in"));
    app
}

#[test]
fn injected_drop_and_corrupt_are_deterministic_on_inproc() {
    // Drop message 2, corrupt message 4 (first byte ^ 0xFF): dst sees
    // exactly [0, 1, 3, 4^0xFF] — and two runs agree bit-for-bit.
    let run = || {
        let received = Arc::new(Mutex::new(Vec::new()));
        let mut app = fault_pipeline(Arc::clone(&received));
        app.with_faults(
            FaultPlan::new()
                .drop_message("src", "out", 2)
                .corrupt_message("src", "out", 4),
        );
        let report = InprocPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        let seen = received.lock().unwrap().clone();
        (seen, report.total_sends(), report.total_receives())
    };
    let (seen, sends, receives) = run();
    assert_eq!(
        seen,
        vec![
            vec![0, 0xAA, 0xBB],
            vec![1, 0xAA, 0xBB],
            vec![3, 0xAA, 0xBB],
            vec![4 ^ 0xFF, 0xAA, 0xBB],
        ]
    );
    // A dropped message never reaches the transport: 4 sends, 4 receives.
    assert_eq!((sends, receives), (4, 4));
    assert_eq!(
        run(),
        (seen, sends, receives),
        "fault runs must be reproducible"
    );
}

#[test]
fn injected_faults_behave_identically_on_smp() {
    // Same plan on the threaded backend: identical message outcome (the
    // interleaving is live, the fault arithmetic is not).
    let received = Arc::new(Mutex::new(Vec::new()));
    let mut app = fault_pipeline(Arc::clone(&received));
    app.with_faults(
        FaultPlan::new()
            .drop_message("src", "out", 2)
            .corrupt_message("src", "out", 4),
    );
    let report = SmpPlatform::new()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    let seen = received.lock().unwrap().clone();
    assert_eq!(
        seen,
        vec![
            vec![0, 0xAA, 0xBB],
            vec![1, 0xAA, 0xBB],
            vec![3, 0xAA, 0xBB],
            vec![4 ^ 0xFF, 0xAA, 0xBB],
        ]
    );
    assert_eq!((report.total_sends(), report.total_receives()), (4, 4));
}

#[test]
fn injected_panic_fires_at_exact_receive_iteration() {
    // dst panics on its third data receive; with no restart policy the
    // run fails with an attributed BehaviorPanic.
    for (backend, run) in [backends()[0], backends()[2], backends()[3]] {
        let received = Arc::new(Mutex::new(Vec::new()));
        let mut app = fault_pipeline(Arc::clone(&received));
        app.with_faults(FaultPlan::new().panic_on_iteration("dst", 2));
        let err = run(app.build().unwrap()).unwrap_err();
        let EmberaError::Platform(msg) = err else {
            panic!("[{backend}] wrong error kind");
        };
        assert!(
            msg.contains("dst") && msg.contains("panicked"),
            "[{backend}] {msg}"
        );
        assert!(msg.contains("iteration 2"), "[{backend}] {msg}");
        // Receives 0 and 1 were delivered before the injected panic.
        assert_eq!(received.lock().unwrap().len(), 2, "[{backend}]");
    }
}

/// The acceptance scenario: a mid-stream IDCT panic under
/// `RestartPolicy { max_restarts: 1 }` restarts the component exactly
/// once; the tolerant pipeline completes with
/// `frames_completed == forwarded - dropped`, the lost block's frame
/// being the only casualty.
fn idct_panic_run(run: RunFn) -> (u64, u64, u64, u64, u64) {
    let frames = 8;
    let stream = synthesize_stream(frames, 48, 24, 75, 42);
    let cfg = MjpegAppConfig {
        tolerate_corrupt_frames: true,
        ..MjpegAppConfig::default()
    };
    let (mut app, probe) = build_smp_app(stream, &cfg);
    app.restart_component(
        "IDCT_2",
        RestartPolicy {
            max_restarts: 1,
            ..RestartPolicy::default()
        },
    );
    // Panic at data-receive 10: one coefficient block of one mid-stream
    // frame is consumed and lost.
    app.with_faults(FaultPlan::new().panic_on_iteration("IDCT_2", 10));
    let report = run(app.build().unwrap()).expect("supervised pipeline completes");
    let health = report
        .component("IDCT_2")
        .unwrap()
        .health
        .expect("health in final report");
    (
        probe.frames_completed.load(Ordering::Acquire),
        probe.dropped_frames.load(Ordering::Acquire),
        probe.checksum.load(Ordering::Acquire),
        health.restarts,
        report.total_receives(),
    )
}

#[test]
fn mjpeg_survives_midstream_idct_panic_with_one_restart_on_smp() {
    let (completed, dropped, _checksum, restarts, _receives) =
        idct_panic_run(|spec| SmpPlatform::new().deploy(spec)?.wait());
    assert_eq!(restarts, 1, "exactly one restart");
    assert_eq!(dropped, 1, "exactly one frame lost to the panic");
    assert_eq!(completed, 7 - dropped, "completed = forwarded - dropped");
}

#[test]
fn mjpeg_survives_midstream_idct_panic_with_one_restart_on_exec() {
    // The full acceptance scenario on the M:N executor: the panicking
    // IDCT fiber is caught on its own stack, restarted in place on the
    // 3-worker pool, and the tolerant pipeline completes.
    let (completed, dropped, _checksum, restarts, _receives) =
        idct_panic_run(|spec| ExecPlatform::with_workers(3).deploy(spec)?.wait());
    assert_eq!(restarts, 1, "exactly one restart");
    assert_eq!(dropped, 1, "exactly one frame lost to the panic");
    assert_eq!(completed, 7 - dropped, "completed = forwarded - dropped");
}

#[test]
fn mjpeg_idct_panic_recovery_is_deterministic_on_inproc() {
    let run = || idct_panic_run(|spec| InprocPlatform::new().deploy(spec)?.wait());
    let first = run();
    let (completed, dropped, checksum, restarts, _) = first;
    assert_eq!(restarts, 1);
    assert_eq!(dropped, 1);
    assert_eq!(completed, 6);
    assert_ne!(checksum, 0);
    assert_eq!(
        run(),
        first,
        "logical-clock replay must be bit-for-bit identical"
    );
}

#[test]
fn restart_backoff_never_trips_the_watchdog() {
    // Watchdog-vs-backoff interaction audit: a component pausing in
    // restart backoff reports `Restarting` — a state `is_stalled`
    // excludes — and the re-run re-stamps its progress clock before the
    // behavior resumes. The backoff (100 ms) dwarfs the watchdog
    // deadline (10 ms), so any leak of the backoff pause into the
    // stall predicate would fire many records. A genuinely stuck
    // sibling pins that the watchdog itself is armed and firing in the
    // very same run. The pause itself is the whole backoff in platform
    // time, though the observer's polls reach the restarting component
    // every 2 ms.
    const BACKOFF_NS: u64 = 100_000_000;
    let scenario = |run: RunFn, backend: &str| {
        let attempts = Arc::new(AtomicU32::new(0));
        let a = Arc::clone(&attempts);
        let collector = TraceCollector::new(1 << 14);
        let mut app = AppBuilder::new("backoff-watchdog");
        app.with_tracing(collector.trace_config());
        // Holds the application open until the root observer has seen
        // both members terminal, so the watchdog polls the whole run.
        app.add(
            ComponentSpec::new("waiter", behavior_fn(|ctx| ctx.recv("done").map(|_| ())))
                .with_provided("done")
                .with_stack_bytes(1 << 20)
                .on_cpu(2),
        );
        app.add(
            ComponentSpec::new(
                "stuck",
                behavior_fn(|ctx| {
                    // Parked (Blocked) far beyond the watchdog deadline
                    // on an interface nobody feeds.
                    let _ = ctx.recv_timeout("in", 150_000_000)?;
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_stack_bytes(1 << 20)
            .on_cpu(0),
        );
        app.add(
            ComponentSpec::new(
                "flaky",
                behavior_fn(move |_| {
                    if a.fetch_add(1, Ordering::SeqCst) == 0 {
                        return Err(EmberaError::Platform("first-attempt fault".into()));
                    }
                    Ok(())
                }),
            )
            .with_restart(RestartPolicy {
                max_restarts: 1,
                backoff_ns: BACKOFF_NS,
                ..RestartPolicy::default()
            })
            .with_stack_bytes(1 << 20)
            .on_cpu(1),
        );
        let log = app.with_observer(
            ObserverConfig::default()
                .grouped(vec![(
                    "app".to_string(),
                    vec!["stuck".into(), "flaky".into()],
                )])
                .interval_ns(2_000_000)
                .watchdog_ns(10_000_000)
                .notify_done("waiter", "done"),
        );
        let report = run(app.build().unwrap()).unwrap_or_else(|e| panic!("[{backend}] {e}"));
        assert_eq!(
            report.component("flaky").unwrap().health.unwrap().restarts,
            1,
            "[{backend}] the backoff path must actually have run"
        );
        let stalls = log.stalls();
        assert!(
            stalls.iter().any(|s| s.component == "stuck"),
            "[{backend}] watchdog not armed: the stuck sibling never stalled"
        );
        assert!(
            stalls.iter().all(|s| s.component != "flaky"),
            "[{backend}] false stall during restart backoff: {stalls:?}"
        );
        let flaky = collector.names().iter().position(|n| n == "flaky").unwrap() as u32;
        let mut events = collector.drain_sorted().into_iter();
        let restart = events
            .find(|e| e.component == flaky && e.kind == EventKind::Restart)
            .unwrap_or_else(|| panic!("[{backend}] no Restart event"));
        let rerun = events
            .find(|e| e.component == flaky && e.kind == EventKind::BehaviorStart)
            .unwrap_or_else(|| panic!("[{backend}] no BehaviorStart after the Restart"));
        assert!(
            rerun.ts_ns - restart.ts_ns >= BACKOFF_NS,
            "[{backend}] re-run {} ns after the restart, inside the {BACKOFF_NS} ns backoff",
            rerun.ts_ns - restart.ts_ns
        );
    };
    for (backend, run) in backends() {
        scenario(run, backend);
    }
}
