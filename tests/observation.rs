//! Integration: the observation model end-to-end — the observer
//! component, the Figure 5 structure listing, and the paper's
//! "observed without modifying its code" property.

use bytes::Bytes;
use embera::behavior::behavior_fn;
use embera::{
    AppBuilder, Behavior, ComponentSpec, Ctx, EmberaError, ObserverConfig, Platform, RunningApp,
};
use embera_inproc::InprocPlatform;
use embera_os21::Os21Platform;
use embera_smp::SmpPlatform;
use mjpeg::{build_smp_app, synthesize_stream, MjpegAppConfig};

#[test]
fn figure5_listing_from_deployed_mjpeg_app() {
    // Deploy the paper's MJPEG app and render IDCT_1's interface listing
    // exactly as Figure 5 prints it.
    let stream = synthesize_stream(4, 48, 24, 75, 1);
    let (app, _) = build_smp_app(stream, &MjpegAppConfig::default());
    let report = SmpPlatform::new()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    let idct1 = report.component("IDCT_1").unwrap();
    let listing = idct1.structure.format_figure5();
    let expected = "Interfaces component [IDCT_1]\n\
                    ----------------------------\n\
                    [Interface] [Type]\n\
                    introspection provided\n\
                    _fetchIdct1 provided\n\
                    introspection required\n\
                    idctReorder required\n";
    assert_eq!(listing, expected, "Figure 5 must reproduce verbatim");
}

/// A behavior that knows nothing about observation: the "application
/// code" whose observability must come entirely from the runtime.
struct PlainWorker {
    messages: u32,
}

impl Behavior for PlainWorker {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        for i in 0..self.messages {
            // Simulate periodic work so the observer can catch us live.
            std::thread::sleep(std::time::Duration::from_millis(2));
            ctx.send("out", Bytes::from(vec![0u8; 100 + i as usize]))?;
        }
        Ok(())
    }
}

#[test]
fn observer_collects_multi_level_reports_without_code_changes() {
    let mut app = AppBuilder::new("observed");
    app.add(
        ComponentSpec::new("worker", PlainWorker { messages: 40 })
            .with_required("out")
            .with_stack_bytes(1 << 20),
    );
    app.add(
        ComponentSpec::new(
            "sink",
            behavior_fn(|ctx| {
                for _ in 0..40 {
                    ctx.recv("in")?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_stack_bytes(1 << 20),
    );
    app.connect(("worker", "out"), ("sink", "in"));
    let log = app.with_observer(ObserverConfig::default().interval_ns(4_000_000));
    SmpPlatform::new()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();

    assert!(!log.is_empty(), "observer gathered nothing");
    let reports = log.latest_by_component();
    let worker = reports
        .iter()
        .find(|r| r.component == "worker")
        .expect("worker observed");
    // All three observation levels populated (paper §4.2).
    assert!(worker.os.memory_bytes > 0, "OS level: memory");
    assert!(
        worker.middleware.send.count > 0,
        "middleware level: send timing"
    );
    assert!(worker.app.total_sends > 0, "application level: counters");
    assert!(
        worker
            .structure
            .interfaces
            .iter()
            .any(|e| e.name == "introspection"),
        "application level: structure"
    );
}

#[test]
fn observer_sees_progress_over_rounds() {
    // Counters must increase across observation rounds while the
    // component is running (live observation, not just a final report).
    let mut app = AppBuilder::new("progress");
    app.add(
        ComponentSpec::new("worker", PlainWorker { messages: 60 })
            .with_required("out")
            .with_stack_bytes(1 << 20),
    );
    app.add(
        ComponentSpec::new(
            "sink",
            behavior_fn(|ctx| {
                for _ in 0..60 {
                    ctx.recv("in")?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_stack_bytes(1 << 20),
    );
    app.connect(("worker", "out"), ("sink", "in"));
    let log = app.with_observer(ObserverConfig::default().interval_ns(3_000_000));
    SmpPlatform::new()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    let worker_counts: Vec<u64> = log
        .records()
        .iter()
        .filter(|r| r.report.component == "worker")
        .map(|r| r.report.app.total_sends)
        .collect();
    assert!(
        worker_counts.len() >= 2,
        "need at least two observation rounds, got {worker_counts:?}"
    );
    assert!(
        worker_counts.windows(2).all(|w| w[0] <= w[1]),
        "counters must be monotone: {worker_counts:?}"
    );
}

#[test]
fn same_behaviors_run_on_both_platforms() {
    // The platform-independence claim: identical ComponentSpec wiring
    // (same behavior types) deploys on SMP and on the simulated MPSoC.
    fn build() -> AppBuilder {
        let mut app = AppBuilder::new("portable");
        app.add(
            ComponentSpec::new(
                "ping",
                behavior_fn(|ctx| {
                    for i in 0..10u32 {
                        ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                        let back = ctx.recv("back")?;
                        assert_eq!(back.as_ref(), i.to_le_bytes());
                    }
                    Ok(())
                }),
            )
            .with_required("out")
            .with_provided("back")
            .with_stack_bytes(1 << 20)
            .on_cpu(0),
        );
        app.add(
            ComponentSpec::new(
                "pong",
                behavior_fn(|ctx| {
                    for _ in 0..10 {
                        let msg = ctx.recv("in")?;
                        ctx.send("reply", msg)?;
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_required("reply")
            .with_stack_bytes(1 << 20)
            .on_cpu(1),
        );
        app.connect(("ping", "out"), ("pong", "in"));
        app.connect(("pong", "reply"), ("ping", "back"));
        app
    }

    let smp = SmpPlatform::new()
        .deploy(build().build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    let mpsoc = Os21Platform::three_cpu()
        .deploy(build().build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    for report in [&smp, &mpsoc] {
        assert_eq!(report.component("ping").unwrap().app.total_sends, 10);
        assert_eq!(report.component("pong").unwrap().app.total_receives, 10);
    }
    // The MPSoC run advanced virtual time; the SMP run advanced wall time.
    assert!(mpsoc.wall_time_ns > 0);
}

#[test]
fn observer_works_on_simulated_mpsoc_mjpeg() {
    let stream = synthesize_stream(30, 48, 24, 75, 3);
    let cfg = MjpegAppConfig {
        idct_count: 2,
        ..Default::default()
    };
    let (mut app, _) = mjpeg::build_mpsoc_app(stream, &cfg);
    let log = app.with_observer(
        ObserverConfig::default()
            .interval_ns(2_000_000) // 2 ms of virtual time between rounds
            .rounds(20),
    );
    Os21Platform::three_cpu()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    assert!(!log.is_empty());
    let fr = log
        .latest_by_component()
        .into_iter()
        .find(|r| r.component == "Fetch-Reorder")
        .expect("Fetch-Reorder observed");
    assert!(fr.app.total_sends > 0);
    assert!(
        fr.os.cpu_time_ns > 0,
        "RTOS task_time surfaced via observation"
    );
}

#[test]
fn observation_costs_an_inproc_table1_run_no_cpu_time() {
    // The runtime, not the component, answers a poll: a reply takes
    // logical time, but none of it is the component's CPU time. On the
    // run queue the pipeline finishes before the observer's first turn,
    // so `holder` keeps the application open for 20 rounds of the
    // default flat observer, answered from the quiescent loop.
    let run = |observed: bool| {
        let stream = synthesize_stream(41, 48, 24, 75, 0x5EED);
        let (mut app, _probe) = build_smp_app(stream, &MjpegAppConfig::default());
        app.add(
            ComponentSpec::new(
                "holder",
                behavior_fn(|ctx| ctx.recv_timeout("never", 20_000_000).map(drop)),
            )
            .with_provided("never"),
        );
        let log = observed.then(|| app.with_observer(ObserverConfig::default()));
        let report = InprocPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        let cpu: Vec<(String, u64)> = ["Fetch", "IDCT_1", "IDCT_2", "IDCT_3", "Reorder"]
            .iter()
            .map(|&n| (n.to_string(), report.component(n).unwrap().os.cpu_time_ns))
            .collect();
        (cpu, log.map_or(0, |log| log.len()))
    };
    let (unobserved, _) = run(false);
    let (observed, replies) = run(true);
    assert!(replies >= 20 * unobserved.len(), "{replies} replies");
    assert!(unobserved.iter().all(|(_, ns)| *ns > 0), "{unobserved:?}");
    assert_eq!(observed, unobserved);
}

#[test]
fn unobserved_app_reports_zero_observation_traffic() {
    // Without an observer, introspection interfaces exist but stay
    // silent, and data counters are unaffected.
    let mut app = AppBuilder::new("silent");
    app.add(
        ComponentSpec::new(
            "a",
            behavior_fn(|ctx| ctx.send("out", Bytes::from_static(b"x"))),
        )
        .with_required("out")
        .with_stack_bytes(1 << 20),
    );
    app.add(
        ComponentSpec::new("b", behavior_fn(|ctx| ctx.recv("in").map(|_| ())))
            .with_provided("in")
            .with_stack_bytes(1 << 20),
    );
    app.connect(("a", "out"), ("b", "in"));
    let report = SmpPlatform::new()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(report.component("a").unwrap().app.total_sends, 1);
    assert_eq!(report.total_sends(), 1);
    assert_eq!(report.total_receives(), 1);
}

#[test]
fn custom_metrics_surface_through_observation() {
    // The paper-§6 "what functions should be provided with the
    // observation interface" extension: the MJPEG pipeline registers a
    // frames_completed gauge on its Reorder component, and it arrives in
    // both the live observer reports and the final report.
    let stream = synthesize_stream(25, 48, 24, 75, 0xFEED);
    let (mut app, _probe) = build_smp_app(stream, &MjpegAppConfig::default());
    let log = app.with_observer(ObserverConfig::default().interval_ns(2_000_000));
    let report = SmpPlatform::new()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();

    let reorder = report.component("Reorder").unwrap();
    assert_eq!(reorder.custom.len(), 1);
    assert_eq!(reorder.custom[0].name, "frames_completed");
    assert_eq!(reorder.custom[0].value, 24.0, "24 frames forwarded");
    // Other components registered no metrics.
    assert!(report.component("Fetch").unwrap().custom.is_empty());
    // Live reports carry the gauge too (monotone over rounds).
    let live: Vec<f64> = log
        .records()
        .iter()
        .filter(|r| r.report.component == "Reorder")
        .filter_map(|r| r.report.custom.first().map(|m| m.value))
        .collect();
    assert!(live.windows(2).all(|w| w[0] <= w[1]), "{live:?}");
}

#[test]
fn observer_request_selection_narrows_traffic() {
    // §6 "how to select the events to be observed": poll only
    // application-level counters; the log then carries sparse reports
    // with app stats filled and OS stats untouched.
    let mut app = AppBuilder::new("selected");
    app.add(
        ComponentSpec::new("worker", PlainWorker { messages: 30 })
            .with_required("out")
            .with_stack_bytes(1 << 20),
    );
    app.add(
        ComponentSpec::new(
            "sink",
            behavior_fn(|ctx| {
                for _ in 0..30 {
                    ctx.recv("in")?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_stack_bytes(1 << 20),
    );
    app.connect(("worker", "out"), ("sink", "in"));
    let log = app.with_observer(
        ObserverConfig::default()
            .interval_ns(4_000_000)
            .request(embera::ObsRequest::AppStats),
    );
    SmpPlatform::new()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    let worker_records: Vec<_> = log
        .records()
        .into_iter()
        .filter(|r| r.report.component == "worker")
        .collect();
    assert!(!worker_records.is_empty());
    let last = worker_records.last().unwrap();
    assert!(last.report.app.total_sends > 0, "app level present");
    assert_eq!(last.report.os.memory_bytes, 0, "OS level not requested");
    assert!(
        last.report.structure.interfaces.is_empty(),
        "structure not requested"
    );
}
