//! Run-to-run determinism of the full os21 stack: the same application
//! deployed twice on the simulated three-CPU STi7200 must produce an
//! identical report and identical kernel statistics — through
//! deployment, scheduling, observation, time-outs and faults.

use bytes::Bytes;
use embera::behavior::behavior_fn;
use embera::{
    AppBuilder, AppSpec, ComponentSpec, FaultPlan, ObserverConfig, Platform, Work, WorkClass,
};
use embera_os21::Os21Platform;
use embera_repro::runner;
use sim_kernel::KernelStats;

/// Deploy on the simulated three-CPU STi7200 and return everything
/// observable from the run in one comparable value. The report's Debug
/// form covers every field deterministically (interface counters are
/// declaration-ordered vectors, times are virtual), and `KernelStats`
/// derives `PartialEq`.
fn fingerprint(spec: AppSpec) -> (String, KernelStats) {
    let (report, stats) = Os21Platform::three_cpu()
        .deploy(spec)
        .expect("deploy")
        .wait_with_stats()
        .expect("run");
    (format!("{report:?}"), stats)
}

/// A three-stage pipeline spread over the three CPUs, with enough
/// messages that any schedule divergence shows up in the counters.
fn pipeline_app() -> AppSpec {
    let mut app = AppBuilder::new("det-pipe");
    app.add(
        ComponentSpec::new(
            "src",
            behavior_fn(|ctx| {
                for i in 0..40u32 {
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
            "mid",
            behavior_fn(|ctx| {
                for _ in 0..40u32 {
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
    app.add(
        ComponentSpec::new(
            "dst",
            behavior_fn(|ctx| {
                for i in 0..40u32 {
                    let b = ctx.recv("in")?;
                    assert_eq!(b.as_ref(), i.to_le_bytes(), "out-of-order delivery");
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
    app.build().unwrap()
}

/// The pipeline with an observer polling every component — observation
/// traffic rides the same kernel.
fn observed_app() -> AppSpec {
    let mut app = AppBuilder::new("det-observed");
    app.add(
        ComponentSpec::new(
            "src",
            behavior_fn(|ctx| {
                for i in 0..24u32 {
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
                for _ in 0..24u32 {
                    ctx.recv("in")?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_stack_bytes(1 << 20)
        .on_cpu(1),
    );
    app.connect(("src", "out"), ("dst", "in"));
    let _log = app.with_observer(ObserverConfig::default().interval_ns(200_000));
    app.build().unwrap()
}

/// Timed receives: the timeout path exercises `notify_after` wakeups,
/// the schedule shape most sensitive to queue-order changes.
fn timed_app() -> AppSpec {
    let mut app = AppBuilder::new("det-timed");
    app.add(
        ComponentSpec::new(
            "t",
            behavior_fn(|ctx| {
                for _ in 0..8 {
                    assert!(ctx.recv_timeout("in", 10_000)?.is_none());
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_stack_bytes(1 << 20)
        .on_cpu(0),
    );
    app.build().unwrap()
}

/// One message handed back and forth in strict turns between two
/// components on CPUs 0 and 2, each computing in many short pieces
/// while it holds it: never more than one runnable task, so the kernel
/// runs ahead over nearly every event.
fn turns_app() -> AppSpec {
    fn player(name: &str, serves: bool) -> ComponentSpec {
        ComponentSpec::new(
            name,
            behavior_fn(move |ctx| {
                for turn in 0..12u32 {
                    if !serves || turn > 0 {
                        ctx.recv("in")?;
                    }
                    for _ in 0..20 {
                        ctx.compute(Work::ops(WorkClass::Control, 500));
                    }
                    ctx.send("out", Bytes::copy_from_slice(&turn.to_le_bytes()))?;
                }
                if serves {
                    ctx.recv("in")?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_required("out")
        .with_stack_bytes(1 << 20)
    }
    let mut app = AppBuilder::new("det-turns");
    app.add(player("ping", true).on_cpu(0));
    app.add(player("pong", false).on_cpu(2));
    app.connect(("ping", "out"), ("pong", "in"));
    app.connect(("pong", "out"), ("ping", "in"));
    app.build().unwrap()
}

#[test]
fn os21_runs_are_identical_from_run_to_run() {
    for (name, build) in [
        ("pipeline", pipeline_app as fn() -> AppSpec),
        ("observed", observed_app),
        ("timed", timed_app),
        ("turns", turns_app),
    ] {
        let first = fingerprint(build());
        assert!(first.1.events_dispatched > 0, "[{name}] nothing ran");
        assert_eq!(first, fingerprint(build()), "[{name}] two runs diverged");
    }
}

#[test]
fn fault_plan_runs_are_identical_from_run_to_run() {
    // A deterministic injected corruption: delivery still happens, so
    // the run completes, but the fault machinery (detection counters,
    // supervision bookkeeping) joins the compared surface.
    fn faulted() -> AppSpec {
        let mut app = AppBuilder::new("det-faulted");
        app.add(
            ComponentSpec::new(
                "src",
                behavior_fn(|ctx| {
                    for i in 0..16u32 {
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
                    for _ in 0..16u32 {
                        ctx.recv("in")?;
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_stack_bytes(1 << 20)
            .on_cpu(1),
        );
        app.connect(("src", "out"), ("dst", "in"));
        app.with_faults(FaultPlan::new().corrupt_message("src", "out", 3));
        app.build().unwrap()
    }
    assert_eq!(
        fingerprint(faulted()),
        fingerprint(faulted()),
        "two runs diverged under a fault plan"
    );
}

#[test]
fn identical_cells_through_the_job_pool_are_deterministic() {
    // The bench runner fanning real platform runs: three identical
    // cells on 3 worker threads — three kernels running at once, each on
    // a thread of its own. Results must land in cell order and agree
    // with the inline dispatch and with each other.
    const CELLS: usize = 3;
    let fanned = runner::run_cells(3, CELLS, |_| fingerprint(pipeline_app()));
    let inline = runner::run_cells(1, CELLS, |_| fingerprint(pipeline_app()));
    assert_eq!(fanned, inline, "job-pool dispatch changed the outcome");
    assert!(
        fanned.windows(2).all(|w| w[0] == w[1]),
        "identical cells disagree"
    );
}
