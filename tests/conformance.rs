//! Backend conformance suite: the four platforms (SMP threads,
//! simulated MPSoC, in-process deterministic, M:N executor) must be
//! indistinguishable through the `Ctx` API and the observation reports.
//! Every test here runs the *same* application description on all four
//! and pins the shared-runtime guarantees: FIFO delivery, the error
//! contract, introspection service while blocked, termination
//! semantics, counter conservation, and the order and timing of a
//! receive that waits on several interfaces.

use bytes::Bytes;
use embera::behavior::behavior_fn;
use embera::{
    AppBuilder, AppReport, AppSpec, ComponentSpec, Connection, Ctx, EmberaError, Endpoint,
    FnMetric, HealthState, Message, ObsReply, ObsRequest, ObserverConfig, OverloadPolicy, Platform,
    RunningApp, INTROSPECTION,
};
use embera_exec::ExecPlatform;
use embera_inproc::InprocPlatform;
use embera_os21::Os21Platform;
use embera_smp::SmpPlatform;

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
        // Two workers regardless of host cores: the conformance matrix
        // must exercise real cross-worker scheduling even on small CI
        // machines.
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
fn fifo_order_per_connection() {
    for (backend, run) in backends() {
        let mut app = AppBuilder::new("fifo");
        app.add(
            ComponentSpec::new(
                "src",
                behavior_fn(|ctx| {
                    for i in 0..50u32 {
                        ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                    }
                    Ok(())
                }),
            )
            .with_required("out")
            .with_stack_bytes(1 << 20)
            .on_cpu(0),
        );
        app.add(
            ComponentSpec::new(
                "dst",
                behavior_fn(|ctx| {
                    for i in 0..50u32 {
                        let b = ctx.recv("in")?;
                        assert_eq!(b.as_ref(), i.to_le_bytes(), "out-of-order delivery");
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_stack_bytes(1 << 20)
            .on_cpu(1),
        );
        app.connect(("src", "out"), ("dst", "in"));
        let report = run(app.build().unwrap()).unwrap_or_else(|e| panic!("[{backend}] {e}"));
        assert_eq!(report.total_sends(), 50, "[{backend}]");
        assert_eq!(report.total_receives(), 50, "[{backend}]");
    }
}

#[test]
fn blocking_recv_after_shutdown_is_terminated() {
    // `failer` errors immediately; the fail-fast shutdown must drain
    // `waiter` out of its blocking recv with `Terminated` (never a
    // hang), and the report must carry the *originating* error.
    for (backend, run) in backends() {
        let mut app = AppBuilder::new("failfast");
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
            ComponentSpec::new(
                "failer",
                behavior_fn(|_| Err(EmberaError::Platform("injected fault".into()))),
            )
            .with_stack_bytes(1 << 20)
            .on_cpu(1),
        );
        let err = run(app.build().unwrap()).unwrap_err();
        let EmberaError::Platform(msg) = err else {
            panic!("[{backend}] wrong error kind");
        };
        assert!(
            msg.contains("failer") && msg.contains("injected fault"),
            "[{backend}] {msg}"
        );
    }
}

#[test]
fn introspection_answered_while_blocked_in_recv() {
    // The paper's key property: a component is observable while blocked
    // in a receive, with zero cooperation from its behavior. `prober`
    // sends an observation request to `blocked` (which is parked in
    // `recv` and will stay parked until `prober` later feeds it), waits
    // for the reply, and only then unblocks it.
    for (backend, run) in backends() {
        let mut app = AppBuilder::new("probe");
        app.add(
            ComponentSpec::new(
                "blocked",
                behavior_fn(|ctx| {
                    let b = ctx.recv("in")?;
                    assert_eq!(b.as_ref(), b"unblock");
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_stack_bytes(1 << 20)
            .on_cpu(0),
        );
        app.add(
            ComponentSpec::new(
                "prober",
                behavior_fn(|ctx| {
                    ctx.send_message(
                        "ask",
                        Message::ObsRequest {
                            from: "prober".into(),
                            request: ObsRequest::AppStats,
                        },
                    )?;
                    let reply = ctx.recv_message("replies")?;
                    let Message::ObsReply { from, .. } = reply else {
                        panic!("expected ObsReply, got {reply:?}");
                    };
                    assert_eq!(from, "blocked");
                    ctx.send("out", Bytes::from_static(b"unblock"))?;
                    Ok(())
                }),
            )
            .with_provided("replies")
            .with_required("ask")
            .with_required("out")
            .with_stack_bytes(1 << 20)
            .on_cpu(1),
        );
        app.connect(("prober", "ask"), ("blocked", INTROSPECTION));
        app.connect(("blocked", INTROSPECTION), ("prober", "replies"));
        app.connect(("prober", "out"), ("blocked", "in"));
        let report = run(app.build().unwrap()).unwrap_or_else(|e| panic!("[{backend}] {e}"));
        // Observation traffic is runtime traffic: only the one data
        // message counts.
        let blocked = report.component("blocked").unwrap();
        assert_eq!(blocked.app.total_receives, 1, "[{backend}]");
        assert_eq!(
            report.component("prober").unwrap().app.total_sends,
            1,
            "[{backend}]"
        );
    }
}

/// The next observation reply on `replies`: what the target's own
/// runtime answered to a request that went into its mailbox.
fn reply_by_message(ctx: &mut dyn Ctx) -> Result<ObsReply, EmberaError> {
    match ctx.recv_message("replies")? {
        Message::ObsReply { reply, .. } => Ok(*reply),
        other => panic!("expected ObsReply, got {other:?}"),
    }
}

/// `reply` without what differs between platforms by design: their
/// clocks (execution and CPU time, primitive durations, the progress
/// stamp) and their memory formula.
fn timeless(mut reply: ObsReply) -> ObsReply {
    fn os(os: &mut embera::OsStats) {
        (os.exec_time_ns, os.cpu_time_ns, os.memory_bytes) = (0, 0, 0);
    }
    fn middleware(mw: &mut embera::MiddlewareStats) {
        for timing in [&mut mw.send, &mut mw.recv] {
            (timing.total_ns, timing.min_ns, timing.max_ns) = (0, 0, 0);
        }
    }
    match &mut reply {
        ObsReply::Os(o) => os(o),
        ObsReply::Middleware(mw) => middleware(mw),
        ObsReply::Health(h) => h.last_progress_ns = 0,
        ObsReply::Full(report) => {
            os(&mut report.os);
            middleware(&mut report.middleware);
            let health = report.health.as_mut().expect("a full report");
            health.last_progress_ns = 0;
        }
        _ => {}
    }
    reply
}

#[test]
fn observe_in_place_equals_the_message_reply() {
    // `Ctx::observe` may answer where the observer stands (smp, exec)
    // or send the request (os21, inproc). For a quiesced target the
    // two must be the same reply, for every kind of request — and,
    // clocks and the memory formula aside, the same on every backend,
    // with inproc as the oracle. The target is left with two unreceived
    // messages which, on the host backends, sit in its runtime's
    // private stash: the gauges an outside reader computes must count
    // them.
    const REQUESTS: [ObsRequest; 7] = [
        ObsRequest::OsStats,
        ObsRequest::MiddlewareStats,
        ObsRequest::AppStats,
        ObsRequest::Structure,
        ObsRequest::Custom,
        ObsRequest::Health,
        ObsRequest::Full,
    ];
    type Replies = Vec<(Option<ObsReply>, ObsReply)>;
    let mut by_backend: Vec<(&str, Replies)> = Vec::new();
    for (backend, run) in backends() {
        let collected = std::sync::Arc::new(std::sync::Mutex::new(Replies::new()));
        let sink = std::sync::Arc::clone(&collected);
        let mut app = AppBuilder::new("read-vs-message");
        app.add(
            ComponentSpec::new(
                "prober",
                behavior_fn(move |ctx| {
                    for i in 0..5u8 {
                        ctx.send("feed", Bytes::from(vec![i; 10 + usize::from(i)]))?;
                    }
                    ctx.send("kick", Bytes::from_static(b"go"))?;
                    ctx.recv("done")?;
                    // The target's last act was that send; wait until
                    // its behavior has returned as well.
                    loop {
                        let health = match ctx.observe("ask", ObsRequest::Health)? {
                            Some(reply) => reply,
                            None => reply_by_message(ctx)?,
                        };
                        let ObsReply::Health(health) = health else {
                            panic!("expected Health, got {health:?}");
                        };
                        if health.state == HealthState::Finished {
                            break;
                        }
                        assert!(ctx.recv_timeout("done", 100_000)?.is_none());
                    }
                    for request in REQUESTS {
                        let in_place = ctx.observe("ask", request)?;
                        if in_place.is_some() {
                            // Answered here: now ask by hand as well.
                            let from = ctx.component().to_string();
                            ctx.send_message("ask", Message::ObsRequest { from, request })?;
                        }
                        let by_message = reply_by_message(ctx)?;
                        sink.lock().unwrap().push((in_place, by_message));
                    }
                    Ok(())
                }),
            )
            .with_required("feed")
            .with_required("kick")
            .with_required("ask")
            .with_provided("replies")
            .with_provided("done")
            .with_stack_bytes(1 << 20)
            .on_cpu(1),
        );
        app.add(
            ComponentSpec::new(
                "target",
                behavior_fn(|ctx| {
                    // All five are queued by now: one bulk drain.
                    ctx.recv("go")?;
                    for _ in 0..3 {
                        ctx.recv("in")?;
                    }
                    ctx.send("done", Bytes::from_static(b"done"))
                }),
            )
            .with_provided("in")
            .with_provided("go")
            .with_required("done")
            .with_metric(FnMetric::new("gauge", || 7.5))
            .with_stack_bytes(1 << 20)
            .on_cpu(0),
        );
        app.connect(("prober", "feed"), ("target", "in"));
        app.connect(("prober", "kick"), ("target", "go"));
        app.connect(("prober", "ask"), ("target", INTROSPECTION));
        app.connect(("target", INTROSPECTION), ("prober", "replies"));
        app.connect(("target", "done"), ("prober", "done"));
        run(app.build().unwrap()).unwrap_or_else(|e| panic!("[{backend}] {e}"));
        let replies = std::mem::take(&mut *collected.lock().unwrap());
        assert_eq!(replies.len(), REQUESTS.len(), "[{backend}]");
        let reads_in_place = matches!(backend, "smp" | "exec");
        for (request, (in_place, by_message)) in REQUESTS.iter().zip(&replies) {
            match in_place {
                // Same platform, same clock, nothing moving: identical.
                Some(in_place) => assert_eq!(in_place, by_message, "[{backend}] {request:?}"),
                None => assert!(!reads_in_place, "[{backend}] {request:?} went by message"),
            }
            let read = in_place.is_some();
            assert_eq!(read, reads_in_place, "[{backend}] {request:?}");
        }
        by_backend.push((backend, replies));
    }
    let oracle = by_backend
        .iter()
        .find(|(backend, _)| *backend == "inproc")
        .map(|(_, replies)| replies.clone())
        .expect("inproc ran");
    // What the oracle itself must say about the two stranded messages
    // (13 and 14 bytes).
    let ObsReply::Health(health) = &oracle[5].1 else {
        panic!("not a health reply: {:?}", oracle[5].1);
    };
    assert_eq!((health.queued_messages, health.queued_bytes), (2, 27));
    for (backend, replies) in by_backend {
        for ((in_place, by_message), (_, expected)) in replies.into_iter().zip(&oracle) {
            let expected = timeless(expected.clone());
            assert_eq!(timeless(by_message), expected, "[{backend}]");
            if let Some(in_place) = in_place {
                assert_eq!(timeless(in_place), expected, "[{backend}] read in place");
            }
        }
    }
}

#[test]
fn back_to_back_observer_on_one_exec_worker_starves_nobody() {
    // An observer whose rounds run back to back answers its polls in
    // place, on the one worker the data path has: the application must
    // still deliver every message, and the observer must still get a
    // whole round in.
    const RELAYS: usize = 50;
    const PER_RELAY: u64 = 200;
    let mut app = AppBuilder::new("one-worker");
    let mut source = ComponentSpec::new(
        "source",
        behavior_fn(|ctx| {
            for _ in 0..PER_RELAY {
                for r in 0..RELAYS {
                    ctx.send(&format!("out{r}"), Bytes::from_static(&[7; 64]))?;
                }
            }
            Ok(())
        }),
    );
    app.add(
        ComponentSpec::new(
            "sink",
            behavior_fn(|ctx| {
                for _ in 0..RELAYS as u64 * PER_RELAY {
                    ctx.recv("in")?;
                }
                Ok(())
            }),
        )
        .with_provided("in"),
    );
    for r in 0..RELAYS {
        source = source.with_required(format!("out{r}"));
        let relay = format!("relay{r}");
        app.add(
            ComponentSpec::new(
                &relay,
                behavior_fn(|ctx| {
                    for _ in 0..PER_RELAY {
                        let payload = ctx.recv("in")?;
                        ctx.send("out", payload)?;
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_required("out"),
        );
        let out = format!("out{r}");
        app.connect(("source", out.as_str()), (relay.as_str(), "in"));
        app.connect((relay.as_str(), "out"), ("sink", "in"));
    }
    app.add(source);
    let log = app.with_observer(
        ObserverConfig::default()
            .interval_ns(0)
            .request(ObsRequest::Full),
    );
    let report = ExecPlatform::with_workers(1)
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    let delivered = RELAYS as u64 * PER_RELAY;
    let sink = report.component("sink").unwrap();
    assert_eq!(sink.app.total_receives, delivered);
    assert_eq!(report.total_sends(), 2 * delivered);
    let observed = log.latest_by_component();
    assert_eq!(observed.len(), RELAYS + 2, "a whole round was logged");
    assert!(log.len() >= RELAYS + 2);
}

#[test]
fn counters_are_conserved_across_a_pipeline() {
    // Σ sends == Σ receives when every queued message is consumed, on
    // every backend, with mixed payload sizes.
    for (backend, run) in backends() {
        const N: u32 = 20;
        let payload = |i: u32| Bytes::from(vec![i as u8; 4 + (i as usize % 7) * 16]);
        let mut app = AppBuilder::new("conserve");
        let p = payload;
        app.add(
            ComponentSpec::new(
                "src",
                behavior_fn(move |ctx| {
                    for i in 0..N {
                        ctx.send("out", p(i))?;
                    }
                    Ok(())
                }),
            )
            .with_required("out")
            .with_stack_bytes(1 << 20)
            .on_cpu(0),
        );
        app.add(
            ComponentSpec::new(
                "mid",
                behavior_fn(move |ctx| {
                    for _ in 0..N {
                        let b = ctx.recv("in")?;
                        ctx.send("out", b)?;
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_required("out")
            .with_stack_bytes(1 << 20)
            .on_cpu(1),
        );
        let q = payload;
        app.add(
            ComponentSpec::new(
                "dst",
                behavior_fn(move |ctx| {
                    for i in 0..N {
                        let b = ctx.recv("in")?;
                        assert_eq!(b, q(i));
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_stack_bytes(1 << 20)
            .on_cpu(2),
        );
        app.connect(("src", "out"), ("mid", "in"));
        app.connect(("mid", "out"), ("dst", "in"));
        let report = run(app.build().unwrap()).unwrap_or_else(|e| panic!("[{backend}] {e}"));
        assert_eq!(report.total_sends(), 2 * u64::from(N), "[{backend}]");
        assert_eq!(
            report.total_sends(),
            report.total_receives(),
            "[{backend}] send/receive conservation"
        );
    }
}

#[test]
fn recv_any_delivers_in_listed_order_and_waits_on_the_whole_set() {
    // Two producers, one consumer that waits on both of its inboxes at
    // once. `pa` queues 7 messages into `a`, `pb` 5 into `b`, and each
    // then says so on `ready` — so when the consumer starts taking,
    // both inboxes are full and which one delivers is the receive's
    // rule alone: the *listed* order, here `b` before `a`, against the
    // order of declaration.
    const WAIT_NS: u64 = 2_000_000;
    for (backend, run) in backends() {
        let mut app = AppBuilder::new("recv-any");
        app.add(
            ComponentSpec::new(
                "cons",
                behavior_fn(|ctx| {
                    // Nothing to wait for is not a wait.
                    let t0 = ctx.now_ns();
                    assert!(ctx.recv_any_message(&[], None)?.is_none());
                    assert!(ctx.recv_any(&[], Some(u64::MAX))?.is_none());
                    // One bad name spoils the set, before anything
                    // blocks or is taken.
                    match ctx.recv_any(&["a", "ghost", "b"], None) {
                        Err(EmberaError::UnknownInterface { interface, .. }) => {
                            assert_eq!(interface, "ghost");
                        }
                        other => panic!("expected UnknownInterface, got {other:?}"),
                    }
                    // A timed wait on inboxes nobody feeds lasts its
                    // timeout on the platform clock (logical on inproc
                    // and os21), whatever else wakes the component.
                    assert!(ctx.recv_any(&["idle1", "idle2"], Some(WAIT_NS))?.is_none());
                    assert!(ctx.now_ns() - t0 >= WAIT_NS);
                    ctx.recv("ready")?;
                    ctx.recv("ready")?;
                    let lanes = ["b", "a"];
                    let mut next = [0u32; 2];
                    let mut order = Vec::new();
                    for _ in 0..12 {
                        let (lane, msg) = ctx.recv_any(&lanes, None)?.expect("12 are queued");
                        assert_eq!(msg.as_ref(), next[lane].to_le_bytes(), "FIFO per interface");
                        next[lane] += 1;
                        order.push(lanes[lane]);
                    }
                    assert_eq!(order[..5], ["b"; 5], "the listed-first inbox wins");
                    assert_eq!(order[5..], ["a"; 7]);
                    // Both dry: a zero timeout is a scan, not a wait.
                    assert!(ctx.recv_any_message(&lanes, Some(0))?.is_none());
                    Ok(())
                }),
            )
            .with_provided("a")
            .with_provided("b")
            .with_provided("ready")
            .with_provided("idle1")
            .with_provided("idle2")
            .with_stack_bytes(1 << 20)
            .on_cpu(0),
        );
        for (name, lane, count, cpu) in [("pa", "a", 7u32, 1), ("pb", "b", 5, 2)] {
            app.add(
                ComponentSpec::new(
                    name,
                    behavior_fn(move |ctx| {
                        for i in 0..count {
                            ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                        }
                        ctx.send("ready", Bytes::new())
                    }),
                )
                .with_required("out")
                .with_required("ready")
                .with_stack_bytes(1 << 20)
                .on_cpu(cpu),
            );
            app.connect((name, "out"), ("cons", lane));
            app.connect((name, "ready"), ("cons", "ready"));
        }
        let report = run(app.build().unwrap()).unwrap_or_else(|e| panic!("[{backend}] {e}"));
        // Each receive is booked on the interface that delivered it.
        let cons = &report.component("cons").unwrap().app;
        let received: Vec<(&str, u64)> = cons
            .interfaces
            .iter()
            .map(|i| (i.interface.as_str(), i.receives))
            .filter(|(_, n)| *n > 0)
            .collect();
        assert_eq!(received, [("a", 7), ("b", 5), ("ready", 2)], "[{backend}]");
        assert_eq!(cons.total_receives, 14, "[{backend}]");
        assert_eq!(report.total_sends(), 14, "[{backend}]");
    }
}

#[test]
fn error_contract_is_identical_on_every_backend() {
    // Declared-but-unbound requires a hand-built spec: `AppBuilder`
    // validation rejects it up front, which is itself part of the
    // contract. The backends must still agree on what happens.
    for (backend, run) in backends() {
        let solo = ComponentSpec::new(
            "solo",
            behavior_fn(|ctx| {
                match ctx.send("loose", Bytes::new()) {
                    Err(EmberaError::Disconnected { interface, .. }) => {
                        assert_eq!(interface, "loose");
                    }
                    other => panic!("declared-but-unbound: expected Disconnected, got {other:?}"),
                }
                match ctx.send("ghost", Bytes::new()) {
                    Err(EmberaError::UnknownInterface { interface, .. }) => {
                        assert_eq!(interface, "ghost");
                    }
                    other => panic!("undeclared send: expected UnknownInterface, got {other:?}"),
                }
                match ctx.recv_timeout("nowhere", 1_000) {
                    Err(EmberaError::UnknownInterface { interface, .. }) => {
                        assert_eq!(interface, "nowhere");
                    }
                    other => panic!("undeclared recv: expected UnknownInterface, got {other:?}"),
                }
                // Unattached introspection is silently dropped.
                ctx.send_message(
                    INTROSPECTION,
                    Message::ObsRequest {
                        from: "solo".into(),
                        request: ObsRequest::AppStats,
                    },
                )?;
                Ok(())
            }),
        )
        .with_required("loose")
        .with_stack_bytes(1 << 20);
        let spec = AppSpec {
            name: "contract".into(),
            components: vec![solo],
            connections: Vec::new(),
            has_observer: false,
            trace: None,
            faults: None,
            pool: None,
        };
        run(spec).unwrap_or_else(|e| panic!("[{backend}] {e}"));
    }
}

#[test]
fn dangling_connection_is_a_validation_error_on_every_backend() {
    // `AppBuilder` rejects this up front; a hand-edited `AppSpec` gets
    // past it, and deployment must then refuse with the same error
    // everywhere — before any component runs.
    for (backend, run) in backends() {
        let mut app = AppBuilder::new("dangling");
        app.add(
            ComponentSpec::new("src", behavior_fn(|ctx| ctx.send("out", Bytes::new())))
                .with_required("out")
                .with_stack_bytes(1 << 20)
                .on_cpu(0),
        );
        app.add(
            ComponentSpec::new("dst", behavior_fn(|ctx| ctx.recv("in").map(|_| ())))
                .with_provided("in")
                .with_stack_bytes(1 << 20)
                .on_cpu(1),
        );
        app.connect(("src", "out"), ("dst", "in"));
        let mut spec = app.build().unwrap();
        spec.connections.push(Connection {
            from: Endpoint::new("src", "extra"),
            to: Endpoint::new("ghost", "in"),
        });
        match run(spec) {
            Err(EmberaError::Validation(msg)) => {
                assert!(msg.contains("ghost"), "[{backend}] {msg}");
            }
            other => panic!("[{backend}] expected Validation, got {other:?}"),
        }
    }
}

#[test]
fn unmodified_mjpeg_behaviors_deploy_on_inproc() {
    // The acceptance bar for the runtime extraction: the MJPEG behavior
    // structs written for the SMP backend run unchanged on the
    // in-process scheduler and decode the same stream to the same
    // counts and checksum.
    let cfg = mjpeg::MjpegAppConfig::default();
    let run = |platform_run: RunFn| {
        let stream = mjpeg::synthesize_stream(4, 48, 24, 75, 9);
        let (app, probe) = mjpeg::build_smp_app(stream, &cfg);
        let report = platform_run(app.build().unwrap()).unwrap();
        (
            probe
                .frames_completed
                .load(std::sync::atomic::Ordering::Acquire),
            probe.checksum.load(std::sync::atomic::Ordering::Acquire),
            report.total_sends(),
            report.total_receives(),
        )
    };
    let smp = run(|spec| SmpPlatform::new().deploy(spec)?.wait());
    let inp = run(|spec| InprocPlatform::new().deploy(spec)?.wait());
    let exe = run(|spec| ExecPlatform::with_workers(2).deploy(spec)?.wait());
    assert!(smp.0 > 0, "pipeline decoded no frames");
    assert_eq!(smp, inp, "(frames, checksum, sends, receives) must match");
    assert_eq!(smp, exe, "smp vs exec: counts and checksum must match");
}

#[test]
fn mjpeg_worker_counts_agree_across_backends() {
    // The N-worker generalization must be invisible to everything but
    // the per-lane split: for N ∈ {1, 3, 4, 6} IDCT workers, every backend
    // must decode the same frames to the same checksum, the Table-2
    // count structure (Fetch sends 18·(F−1), each IDCT k handles its
    // round-robin share, Reorder receives 18·(F−1)) must hold exactly,
    // and the three backends must agree bit-for-bit per N.
    const FRAMES: usize = 4;
    let fwd = (FRAMES - 1) as u64;
    let mut checksums = Vec::new();
    for n in [1usize, 3, 4, 6] {
        let cfg = mjpeg::MjpegAppConfig {
            idct_count: n,
            ..mjpeg::MjpegAppConfig::default()
        };
        let run = |platform_run: &dyn Fn(AppSpec) -> Result<AppReport, EmberaError>| {
            let stream = mjpeg::synthesize_stream(FRAMES, 48, 24, 75, 9);
            let (app, probe) = mjpeg::build_smp_app(stream, &cfg);
            let report = platform_run(app.build().unwrap()).unwrap();
            assert_eq!(
                report.component("Fetch").unwrap().app.total_sends,
                18 * fwd,
                "{n} workers: Fetch send count"
            );
            for k in 1..=n {
                let share = ((k - 1) as u64..18).step_by(n).count() as u64 * fwd;
                let r = report.component(&format!("IDCT_{k}")).unwrap();
                assert_eq!(
                    r.app.total_receives, share,
                    "{n} workers: IDCT_{k} receives"
                );
                assert_eq!(r.app.total_sends, share, "{n} workers: IDCT_{k} sends");
            }
            assert_eq!(
                report.component("Reorder").unwrap().app.total_receives,
                18 * fwd,
                "{n} workers: Reorder receive count"
            );
            (
                probe
                    .frames_completed
                    .load(std::sync::atomic::Ordering::Acquire),
                probe.checksum.load(std::sync::atomic::Ordering::Acquire),
                report.total_sends(),
                report.total_receives(),
            )
        };
        let smp = run(&|spec| SmpPlatform::new().deploy(spec)?.wait());
        // The 3-worker SMP topology needs CPUs 0..=3; give the simulated
        // MPSoC one ST231 accelerator per IDCT worker.
        let os21 = run(&|spec| {
            Os21Platform::with_config(mpsoc_sim::MachineConfig::with_accelerators(n))
                .deploy(spec)?
                .wait()
        });
        let inp = run(&|spec| InprocPlatform::new().deploy(spec)?.wait());
        // A 3-worker executor pool multiplexes the 5-component pipeline
        // onto fewer carriers than components — the counts must not care.
        let exe = run(&|spec| ExecPlatform::with_workers(3).deploy(spec)?.wait());
        assert_eq!(smp.0, fwd, "{n} workers: frames completed");
        assert_eq!(smp, os21, "{n} workers: smp vs os21");
        assert_eq!(smp, inp, "{n} workers: smp vs inproc");
        assert_eq!(smp, exe, "{n} workers: smp vs exec");
        checksums.push(smp.1);
    }
    // Same pixels regardless of how many workers split the IDCT load.
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "checksum varies with worker count: {checksums:?}"
    );
}

#[test]
fn observed_hierarchy_rolls_up_identical_counters_on_every_backend() {
    // A fan-out application (source -> 4 relays -> sink) observed by a
    // two-level observer tree: two regional observers each polling half
    // the components, rolling `RegionSummary` aggregates up to the root.
    // The rolled-up totals must be exact and identical on all four
    // backends — hierarchical observation may change *who* polls, never
    // *what* is counted. A `waiter` component (deliberately left out of
    // every region) blocks until the root's done-notification, keeping
    // the application alive until observation of the whole run has
    // converged.
    const RELAYS: usize = 4;
    const PER_RELAY: u64 = 5;
    let mut rollups = Vec::new();
    for (backend, run) in backends() {
        let mut app = AppBuilder::new("observed-hierarchy");
        let mut source = ComponentSpec::new(
            "source",
            behavior_fn(|ctx| {
                for r in 0..RELAYS {
                    for i in 0..PER_RELAY {
                        let payload = (r as u64 * PER_RELAY + i).to_le_bytes();
                        ctx.send(&format!("out{r}"), Bytes::copy_from_slice(&payload))?;
                    }
                }
                Ok(())
            }),
        )
        .with_stack_bytes(1 << 20);
        for r in 0..RELAYS {
            source = source.with_required(format!("out{r}"));
        }
        app.add(source);
        app.add(
            ComponentSpec::new(
                "sink",
                behavior_fn(|ctx| {
                    for _ in 0..RELAYS as u64 * PER_RELAY {
                        ctx.recv("in")?;
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_stack_bytes(1 << 20),
        );
        for r in 0..RELAYS {
            app.add(
                ComponentSpec::new(
                    format!("relay{r}"),
                    behavior_fn(|ctx| {
                        for _ in 0..PER_RELAY {
                            let b = ctx.recv("in")?;
                            ctx.send("out", b)?;
                        }
                        Ok(())
                    }),
                )
                .with_provided("in")
                .with_required("out")
                .with_stack_bytes(1 << 20),
            );
            let out = format!("out{r}");
            let relay = format!("relay{r}");
            app.connect(("source", out.as_str()), (relay.as_str(), "in"));
            app.connect((relay.as_str(), "out"), ("sink", "in"));
        }
        // Deployed after the pipeline, and kept waiting until the root
        // observer has seen the whole run.
        app.add(
            ComponentSpec::new("waiter", behavior_fn(|ctx| ctx.recv("done").map(|_| ())))
                .with_provided("done")
                .with_stack_bytes(1 << 20),
        );
        let log = app.with_observer(
            ObserverConfig::default()
                .grouped(vec![
                    (
                        "left".to_string(),
                        vec!["source".into(), "relay0".into(), "relay1".into()],
                    ),
                    (
                        "right".to_string(),
                        vec!["relay2".into(), "relay3".into(), "sink".into()],
                    ),
                ])
                .notify_done("waiter", "done"),
        );
        let report = run(app.build().unwrap()).unwrap();
        assert_eq!(
            report.component("waiter").unwrap().app.total_receives,
            1,
            "[{backend}] waiter got the root's done notification"
        );
        let rollup = log
            .rollup()
            .unwrap_or_else(|| panic!("[{backend}] no region summaries reached the root"));
        assert_eq!(rollup.regions, 2, "[{backend}]");
        assert_eq!(rollup.components, 6, "[{backend}]");
        assert_eq!(rollup.finished, 6, "[{backend}]");
        assert_eq!(rollup.faulted, 0, "[{backend}]");
        // source 20 sends + each relay 5: the hierarchy's final counters
        // are the exact application totals, not a sample.
        assert_eq!(rollup.total_sends, 40, "[{backend}]");
        assert_eq!(rollup.total_receives, 40, "[{backend}]");
        assert!(rollup.all_terminal, "[{backend}]");
        rollups.push((
            backend,
            (
                rollup.regions,
                rollup.components,
                rollup.finished,
                rollup.faulted,
                rollup.total_sends,
                rollup.total_receives,
                rollup.all_terminal,
            ),
        ));
    }
    let (_, first) = rollups[0];
    for (backend, totals) in &rollups {
        assert_eq!(*totals, first, "[{backend}] rollup differs across backends");
    }
}

#[test]
fn timed_recv_under_shutdown_drains_queued_then_reports_none() {
    // The timed-receive shutdown contract, identical on every backend:
    // once fail-fast shutdown is initiated, a timed receive still
    // drains messages already queued (`Ok(Some)`), then reports
    // `Ok(None)` *immediately* — it must neither sleep out its timeout
    // slice nor turn into `Terminated` (that is the blocking-receive
    // path). The 10-second timeouts below only ever elapse if the
    // contract is broken.
    for (backend, run) in backends() {
        let mut app = AppBuilder::new("timed-shutdown");
        app.add(
            ComponentSpec::new(
                "waiter",
                behavior_fn(|ctx| {
                    // Message 1 is guaranteed: the producer queues all
                    // three before it fails.
                    ctx.recv("in")?;
                    // Ride out the shutdown race on a never-connected
                    // pacing interface.
                    while !ctx.should_stop() {
                        ctx.recv_timeout("tick", 100_000)?;
                    }
                    // Shutdown is now initiated; the two queued
                    // messages must still come out...
                    assert!(ctx.recv_timeout("in", 10_000_000_000)?.is_some());
                    assert!(ctx.recv_timeout("in", 10_000_000_000)?.is_some());
                    // ...then the timeout path reports empty, promptly.
                    assert!(ctx.recv_timeout("in", 10_000_000_000)?.is_none());
                    // The blocking path, by contrast, is `Terminated`.
                    match ctx.recv("in") {
                        Err(EmberaError::Terminated) => Ok(()),
                        other => panic!("expected Terminated, got {other:?}"),
                    }
                }),
            )
            .with_provided("in")
            .with_provided("tick")
            .with_stack_bytes(1 << 20)
            .on_cpu(0),
        );
        app.add(
            ComponentSpec::new(
                "producer",
                behavior_fn(|ctx| {
                    for i in 0..3u32 {
                        ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                    }
                    Err(EmberaError::Platform("injected fault".into()))
                }),
            )
            .with_required("out")
            .with_stack_bytes(1 << 20)
            .on_cpu(1),
        );
        app.connect(("producer", "out"), ("waiter", "in"));
        let err = run(app.build().unwrap()).unwrap_err();
        let EmberaError::Platform(msg) = err else {
            panic!("[{backend}] wrong error kind");
        };
        assert!(
            msg.contains("producer") && msg.contains("injected fault"),
            "[{backend}] {msg}"
        );
    }
}

/// Overload conformance harness: `producer` queues a burst into
/// `consumer`'s bounded ingress, then opens the `gate`; `consumer`
/// recvs the gate first, so the whole burst is already queued when the
/// drain starts and the shed decisions are a pure function of the
/// policy. Returns (messages received, shed, expired) per the report.
fn gated_overload_rollup(
    run: RunFn,
    policy: OverloadPolicy,
    send: impl Fn(&mut dyn embera::behavior::Ctx) -> Result<(), EmberaError>
        + Send
        + Sync
        + Clone
        + 'static,
) -> (u64, u64, u64) {
    let mut app = AppBuilder::new("gated-overload");
    app.add(
        ComponentSpec::new(
            "consumer",
            behavior_fn(|ctx| {
                ctx.recv("gate")?;
                while ctx.recv_timeout("data", 0)?.is_some() {}
                Ok(())
            }),
        )
        .with_provided("data")
        .with_provided("gate")
        .with_overload(policy)
        .with_stack_bytes(1 << 20)
        .on_cpu(0),
    );
    app.add(
        ComponentSpec::new(
            "producer",
            behavior_fn(move |ctx| {
                send(ctx)?;
                ctx.send("go", Bytes::from_static(b"g"))
            }),
        )
        .with_required("out")
        .with_required("go")
        .with_stack_bytes(1 << 20)
        .on_cpu(1),
    );
    app.connect(("producer", "out"), ("consumer", "data"));
    app.connect(("producer", "go"), ("consumer", "gate"));
    let report = run(app.build().unwrap()).unwrap();
    let consumer = report.component("consumer").unwrap();
    let health = consumer.health.unwrap();
    (
        consumer.app.total_receives,
        health.shed_messages,
        health.expired_messages,
    )
}

#[test]
fn drop_oldest_shed_rollup_is_identical_on_every_backend() {
    // 10 queued messages against a bound of 3: the ingress sheds the 7
    // oldest and delivers the newest 3 (plus the gate). The shed
    // decision depends only on queue depth at pop time, so all four
    // backends must agree exactly — shedding is part of the conformance
    // surface, not a backend heuristic.
    let mut rollups = Vec::new();
    for (backend, run) in backends() {
        let rollup = gated_overload_rollup(run, OverloadPolicy::drop_oldest(3), |ctx| {
            for i in 0..10u32 {
                ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
            }
            Ok(())
        });
        // 3 burst survivors + the gate message.
        assert_eq!(rollup, (4, 7, 0), "[{backend}]");
        rollups.push((backend, rollup));
    }
    let first = rollups[0].1;
    for (backend, r) in &rollups {
        assert_eq!(*r, first, "[{backend}] shed rollup differs");
    }
}

#[test]
fn deadline_drop_shed_rollup_is_identical_on_every_backend() {
    // DeadlineDrop judges each message's own deadline stamp at pop
    // time: deadline 0 is born expired, `u64::MAX` never expires, and
    // plain data (no deadline) is never shed. Every backend must
    // classify the mixed burst identically.
    let mut rollups = Vec::new();
    for (backend, run) in backends() {
        let rollup = gated_overload_rollup(run, OverloadPolicy::deadline_drop(), |ctx| {
            for i in 0..4u32 {
                ctx.send_deadlined("out", Bytes::copy_from_slice(&i.to_le_bytes()), 0)?;
            }
            for i in 0..3u32 {
                ctx.send_deadlined("out", Bytes::copy_from_slice(&i.to_le_bytes()), u64::MAX)?;
            }
            for i in 0..3u32 {
                ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
            }
            Ok(())
        });
        // 3 immortal + 3 plain + the gate; the 4 born-expired are shed.
        assert_eq!(rollup, (7, 0, 4), "[{backend}]");
        rollups.push((backend, rollup));
    }
    let first = rollups[0].1;
    for (backend, r) in &rollups {
        assert_eq!(*r, first, "[{backend}] expiry rollup differs");
    }
}

/// A producer that waits 1 ms on its own (never fed) `tick` inbox
/// before each of its 5 sends, into `cons`'s `in`.
fn paced_producer() -> ComponentSpec {
    ComponentSpec::new(
        "prod",
        behavior_fn(|ctx| {
            for i in 0..5u32 {
                assert!(ctx.recv_timeout("tick", 1_000_000)?.is_none());
                ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
            }
            Ok(())
        }),
    )
    .with_provided("tick")
    .with_required("out")
    .with_stack_bytes(1 << 20)
    .on_cpu(1)
}

/// Takes the paced producer's 5 messages, in order.
fn paced_consumer() -> ComponentSpec {
    ComponentSpec::new(
        "cons",
        behavior_fn(|ctx| {
            for i in 0..5u32 {
                assert_eq!(ctx.recv("in")?.as_ref(), i.to_le_bytes());
            }
            Ok(())
        }),
    )
    .with_provided("in")
    .with_stack_bytes(1 << 20)
    .on_cpu(0)
}

#[test]
fn a_paced_producer_feeds_a_consumer_deployed_after_it() {
    // The producer parks in a timed receive before its consumer has
    // started: that is a wait, not a deadlock, on every backend.
    for (backend, run) in backends() {
        let mut app = AppBuilder::new("paced");
        app.add(paced_producer());
        app.add(paced_consumer());
        app.connect(("prod", "out"), ("cons", "in"));
        let report = run(app.build().unwrap()).unwrap_or_else(|e| panic!("[{backend}] {e}"));
        assert_eq!(
            report.component("cons").unwrap().app.total_receives,
            5,
            "[{backend}]"
        );
    }
}

#[test]
fn request_response_works_in_either_deployment_order() {
    // `client` asks, `server` answers, three times. Whichever of the two
    // is deployed first blocks first; neither order may deadlock.
    for server_first in [true, false] {
        for (backend, run) in backends() {
            let server = ComponentSpec::new(
                "server",
                behavior_fn(|ctx| {
                    for _ in 0..3 {
                        let req = ctx.recv("req")?;
                        ctx.send("resp", Bytes::from([req.as_ref(), b"!"].concat()))?;
                    }
                    Ok(())
                }),
            )
            .with_provided("req")
            .with_required("resp")
            .with_stack_bytes(1 << 20)
            .on_cpu(0);
            let client = ComponentSpec::new(
                "client",
                behavior_fn(|ctx| {
                    for i in 0..3u8 {
                        ctx.send("req", Bytes::from(vec![i]))?;
                        assert_eq!(ctx.recv("resp")?.as_ref(), [i, b'!']);
                    }
                    Ok(())
                }),
            )
            .with_provided("resp")
            .with_required("req")
            .with_stack_bytes(1 << 20)
            .on_cpu(1);
            let mut app = AppBuilder::new("request-response");
            if server_first {
                app.add(server);
                app.add(client);
            } else {
                app.add(client);
                app.add(server);
            }
            app.connect(("client", "req"), ("server", "req"));
            app.connect(("server", "resp"), ("client", "resp"));
            let report = run(app.build().unwrap())
                .unwrap_or_else(|e| panic!("[{backend}] server first: {server_first}: {e}"));
            assert_eq!(
                report.total_sends(),
                6,
                "[{backend}] server first: {server_first}"
            );
            assert_eq!(
                report.total_receives(),
                6,
                "[{backend}] server first: {server_first}"
            );
        }
    }
}

#[test]
fn a_polling_observer_sees_components_mid_run() {
    // The paper's observer queries components while they run (§4.2):
    // polling every 100 µs over a run of at least 5 ms, some reply must
    // catch the consumer before it has finished.
    for (backend, run) in backends() {
        let mut app = AppBuilder::new("observed-mid-run");
        app.add(paced_consumer());
        app.add(paced_producer());
        app.connect(("prod", "out"), ("cons", "in"));
        let log = app.with_observer(
            ObserverConfig::default()
                .interval_ns(100_000)
                .request(ObsRequest::Health),
        );
        run(app.build().unwrap()).unwrap_or_else(|e| panic!("[{backend}] {e}"));
        let states: Vec<HealthState> = log
            .records()
            .iter()
            .filter(|r| r.report.component == "cons")
            .filter_map(|r| r.report.health.map(|h| h.state))
            .collect();
        assert!(
            states
                .iter()
                .any(|s| matches!(s, HealthState::Running | HealthState::Blocked)),
            "[{backend}] the consumer was only ever seen as {states:?}"
        );
    }
}
