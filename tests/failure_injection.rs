//! Failure injection: misbehaving components, corrupt messages, and
//! stuck pipelines must surface as diagnosable errors, not hangs. Every
//! scenario also runs on the deterministic in-process backend, which
//! must produce the *same error kind* as the live backends.

use bytes::Bytes;
use embera::behavior::behavior_fn;
use embera::{AppBuilder, ComponentSpec, EmberaError, Platform, RunningApp};
use embera_inproc::InprocPlatform;
use embera_os21::Os21Platform;
use embera_smp::SmpPlatform;

fn two_stage(
    src: impl embera::Behavior + 'static,
    dst: impl embera::Behavior + 'static,
) -> AppBuilder {
    let mut app = AppBuilder::new("fault");
    app.add(
        ComponentSpec::new("dst", dst)
            .with_provided("in")
            .with_stack_bytes(1 << 20)
            .on_cpu(1),
    );
    app.add(
        ComponentSpec::new("src", src)
            .with_required("out")
            .with_stack_bytes(1 << 20)
            .on_cpu(0),
    );
    app.connect(("src", "out"), ("dst", "in"));
    app
}

#[test]
fn behavior_error_is_attributed_on_smp() {
    let app = two_stage(
        behavior_fn(|_ctx| Err(EmberaError::Platform("injected fault".into()))),
        behavior_fn(|ctx| {
            // Must not hang: bounded wait, then give up.
            let _ = ctx.recv_timeout("in", 50_000_000)?;
            Ok(())
        }),
    );
    let err = SmpPlatform::new()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap_err();
    let EmberaError::Platform(msg) = err else {
        panic!("wrong error kind");
    };
    assert!(msg.contains("src"), "{msg}");
    assert!(msg.contains("injected fault"), "{msg}");
}

#[test]
fn behavior_error_is_attributed_on_mpsoc() {
    let app = two_stage(
        behavior_fn(|_ctx| Err(EmberaError::Platform("injected fault".into()))),
        behavior_fn(|ctx| {
            let _ = ctx.recv_timeout("in", 50_000_000)?;
            Ok(())
        }),
    );
    let err = Os21Platform::three_cpu()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap_err();
    let EmberaError::Platform(msg) = err else {
        panic!("wrong error kind");
    };
    assert!(
        msg.contains("src") && msg.contains("injected fault"),
        "{msg}"
    );
}

#[test]
fn behavior_error_is_attributed_on_inproc() {
    // Identical scenario, identical error kind on the deterministic
    // backend.
    let app = two_stage(
        behavior_fn(|_ctx| Err(EmberaError::Platform("injected fault".into()))),
        behavior_fn(|ctx| {
            let _ = ctx.recv_timeout("in", 50_000_000)?;
            Ok(())
        }),
    );
    let err = InprocPlatform::new()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap_err();
    let EmberaError::Platform(msg) = err else {
        panic!("wrong error kind");
    };
    assert!(
        msg.contains("src") && msg.contains("injected fault"),
        "{msg}"
    );
}

#[test]
fn stuck_receiver_on_mpsoc_is_diagnosed_as_deadlock() {
    // dst waits forever for a message src never sends: the simulator's
    // deadlock detector must fire (instead of hanging the host).
    let app = two_stage(
        behavior_fn(|_ctx| Ok(())), // sends nothing
        behavior_fn(|ctx| {
            let _ = ctx.recv("in")?; // blocks forever
            Ok(())
        }),
    );
    let err = Os21Platform::three_cpu()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap_err();
    let EmberaError::Platform(msg) = err else {
        panic!("wrong error kind");
    };
    assert!(msg.contains("deadlock"), "{msg}");
    assert!(
        msg.contains("dst"),
        "blocked component must be named: {msg}"
    );
}

#[test]
fn stuck_receiver_on_inproc_is_diagnosed_as_deadlock() {
    // Same stuck pipeline on the logical-clock scheduler: the error kind
    // (a named deadlock diagnosis) must match the simulator's.
    let app = two_stage(
        behavior_fn(|_ctx| Ok(())), // sends nothing
        behavior_fn(|ctx| {
            let _ = ctx.recv("in")?; // blocks forever
            Ok(())
        }),
    );
    let err = InprocPlatform::new()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap_err();
    let EmberaError::Platform(msg) = err else {
        panic!("wrong error kind");
    };
    assert!(msg.contains("deadlock"), "{msg}");
    assert!(
        msg.contains("dst"),
        "blocked component must be named: {msg}"
    );
}

#[test]
fn corrupt_wire_message_is_rejected_not_misparsed() {
    // A pipeline stage that receives a malformed coefficient message
    // must fail cleanly with a length diagnosis — on the threaded and
    // the deterministic backend alike.
    let runs: [fn(embera::AppSpec) -> Result<embera::AppReport, EmberaError>; 2] = [
        |spec| SmpPlatform::new().deploy(spec)?.wait(),
        |spec| InprocPlatform::new().deploy(spec)?.wait(),
    ];
    for run in runs {
        let app = two_stage(
            behavior_fn(|ctx| ctx.send("out", Bytes::from_static(b"not a block"))),
            behavior_fn(|ctx| {
                let msg = ctx.recv("in")?;
                mjpeg::pipeline::decode_coeff_msg(&msg).map(|_| ())
            }),
        );
        let err = run(app.build().unwrap()).unwrap_err();
        let EmberaError::Platform(msg) = err else {
            panic!("wrong error kind")
        };
        assert!(msg.contains("bad coefficient message length"), "{msg}");
    }
}

#[test]
fn truncated_stream_fails_with_frame_and_block_context() {
    // Truncate a frame's entropy data: the Fetch behavior must name the
    // frame and block where decoding died, identically on both backends.
    let runs: [fn(embera::AppSpec) -> Result<embera::AppReport, EmberaError>; 2] = [
        |spec| SmpPlatform::new().deploy(spec)?.wait(),
        |spec| InprocPlatform::new().deploy(spec)?.wait(),
    ];
    for run in runs {
        let mut stream = mjpeg::synthesize_stream(4, 48, 24, 75, 9);
        let data = &mut stream.frames[2].data;
        data.truncate(data.len() / 4);
        let (app, _probe) = mjpeg::build_smp_app(stream, &mjpeg::MjpegAppConfig::default());
        let err = run(app.build().unwrap()).unwrap_err();
        let EmberaError::Platform(msg) = err else {
            panic!("wrong error kind")
        };
        assert!(msg.contains("frame 2"), "{msg}");
        assert!(msg.contains("exhausted"), "{msg}");
    }
}

#[test]
fn unknown_interface_access_is_reported() {
    let runs: [fn(embera::AppSpec) -> Result<embera::AppReport, EmberaError>; 2] = [
        |spec| SmpPlatform::new().deploy(spec)?.wait(),
        |spec| InprocPlatform::new().deploy(spec)?.wait(),
    ];
    for run in runs {
        let app = two_stage(
            behavior_fn(|ctx| match ctx.recv_timeout("no_such_iface", 1_000) {
                Err(EmberaError::UnknownInterface { interface, .. }) => {
                    assert_eq!(interface, "no_such_iface");
                    Ok(())
                }
                other => panic!("expected UnknownInterface, got {other:?}"),
            }),
            behavior_fn(|ctx| {
                let _ = ctx.recv_timeout("in", 1_000)?;
                Ok(())
            }),
        );
        run(app.build().unwrap()).unwrap();
    }
}

#[test]
fn multiple_faults_aggregate_in_deterministic_order_on_inproc() {
    // Two contained failures in one run: `RunningApp::wait` must report
    // BOTH (no first-error truncation), originating failures in the
    // order the scheduler recorded them — and a second run must produce
    // the byte-identical report.
    use embera::{Escalation, RestartPolicy};
    let run = || {
        let mut app = AppBuilder::new("multi");
        for (name, text) in [("alpha", "first fault"), ("beta", "second fault")] {
            app.add(
                ComponentSpec::new(
                    name,
                    behavior_fn(move |_| Err(EmberaError::Platform(text.into()))),
                )
                .with_restart(RestartPolicy {
                    max_restarts: 0,
                    escalation: Escalation::OneForOne,
                    ..RestartPolicy::default()
                })
                .with_stack_bytes(1 << 20),
            );
        }
        app.add(ComponentSpec::new("gamma", behavior_fn(|_| Ok(()))).with_stack_bytes(1 << 20));
        let err = InprocPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap_err();
        let EmberaError::Platform(msg) = err else {
            panic!("wrong error kind")
        };
        msg
    };
    let msg = run();
    assert!(
        msg.starts_with("component 'alpha' failed: platform error: first fault"),
        "{msg}"
    );
    assert!(msg.contains("[2 components faulted:"), "{msg}");
    assert!(msg.contains("alpha: platform error: first fault"), "{msg}");
    assert!(msg.contains("beta: platform error: second fault"), "{msg}");
    assert!(
        !msg.contains("gamma"),
        "healthy component listed as faulted: {msg}"
    );
    assert_eq!(run(), msg, "aggregated report must be reproducible");
}
