//! Differential determinism of the full os21 stack under kernel
//! sharding: the same application deployed at `shards` ∈ {1, 2, 4}
//! must produce an identical report and identical kernel statistics.
//!
//! The os21 backend's EMBX transports declare no channel latency, so
//! its effective lookahead is zero and `shards > 1` exercises the
//! kernel's shared-queue fallback — the mode real platform workloads
//! take today. The windowed mode's own differential coverage lives in
//! `crates/simkernel/tests/sharded.rs`; this suite pins the contract
//! end to end through deployment, scheduling, faults, and observation.

use bytes::Bytes;
use embera::behavior::behavior_fn;
use embera::{
    AppBuilder, AppReport, AppSpec, ComponentSpec, FaultPlan, ObserverConfig, Platform, Work,
    WorkClass,
};
use embera_bench::runner;
use embera_os21::Os21Platform;
use sim_kernel::{KernelConfig, KernelStats};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Deploy on the simulated three-CPU STi7200 with the given kernel
/// sharding and return the full run outcome.
fn run_sharded(spec: AppSpec, shards: usize) -> (AppReport, KernelStats) {
    run_configured(spec, KernelConfig::default().shards(shards))
}

fn run_configured(spec: AppSpec, kernel: KernelConfig) -> (AppReport, KernelStats) {
    Os21Platform::three_cpu()
        .kernel_config(kernel)
        .deploy(spec)
        .expect("deploy")
        .wait_with_stats()
        .expect("run")
}

/// Everything observable from a run, in one comparable value. The
/// report's Debug form covers every field deterministically (interface
/// counters are declaration-ordered vectors, times are virtual), and
/// `KernelStats` derives `PartialEq` — the fallback queue is gauged
/// exactly like the sequential heap, so even `max_queue_depth` must
/// agree.
fn fingerprint((report, stats): (AppReport, KernelStats)) -> (String, KernelStats) {
    (format!("{report:?}"), stats)
}

/// A three-stage pipeline spread over the three CPUs, with enough
/// messages that any schedule divergence shows up in the counters.
fn pipeline_app() -> AppSpec {
    let mut app = AppBuilder::new("shard-pipe");
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
/// traffic rides the same kernel and must shard identically.
fn observed_app() -> AppSpec {
    let mut app = AppBuilder::new("shard-observed");
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
    let mut app = AppBuilder::new("shard-timed");
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
/// components, `cpus` apart, each computing in many short pieces while
/// it holds it: never more than one runnable task, so the sequential
/// kernel runs ahead over nearly every event.
fn turns_app(cpus: usize) -> AppSpec {
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
    let mut app = AppBuilder::new("shard-turns");
    app.add(player("ping", true).on_cpu(0));
    app.add(player("pong", false).on_cpu(cpus - 1));
    app.connect(("ping", "out"), ("pong", "in"));
    app.connect(("pong", "out"), ("ping", "in"));
    app.build().unwrap()
}

#[test]
fn a_run_ahead_schedule_matches_a_yielding_one() {
    // Both tasks on CPU 0, hence in shard 0, which makes windowed
    // execution legal for the zero-delay os21 stack — and with windows
    // one nanosecond wide no `advance` fits inside one, so that kernel
    // switches at every event where the sequential one runs ahead.
    let (report, stats) = run_sharded(turns_app(1), 1);
    let (yielding_report, yielding) =
        run_configured(turns_app(1), KernelConfig::default().shards(2).lookahead(1));
    assert_eq!(format!("{report:?}"), format!("{yielding_report:?}"));
    // The queue-depth gauge included: with every process in shard 0 the
    // shard-local queue is the whole queue.
    assert_eq!(stats, yielding);
    assert!(stats.events_dispatched > 500, "{stats:?}");
}

#[test]
fn os21_runs_are_identical_for_any_shard_count() {
    for (name, build) in [
        ("pipeline", pipeline_app as fn() -> AppSpec),
        ("observed", observed_app),
        ("timed", timed_app),
        ("turns", || turns_app(3)),
    ] {
        let reference = fingerprint(run_sharded(build(), 1));
        for shards in &SHARD_COUNTS[1..] {
            let outcome = fingerprint(run_sharded(build(), *shards));
            assert_eq!(
                reference, outcome,
                "[{name}] shards={shards} diverged from the sequential run"
            );
        }
    }
}

#[test]
fn fault_plan_runs_are_identical_for_any_shard_count() {
    // A deterministic injected corruption: delivery still happens, so
    // the run completes, but the fault machinery (detection counters,
    // supervision bookkeeping) joins the compared surface.
    fn faulted() -> AppSpec {
        let mut app = AppBuilder::new("shard-faulted");
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
    let reference = fingerprint(run_sharded(faulted(), 1));
    for shards in &SHARD_COUNTS[1..] {
        let outcome = fingerprint(run_sharded(faulted(), *shards));
        assert_eq!(
            reference, outcome,
            "shards={shards} diverged from the sequential run under a fault plan"
        );
    }
}

#[test]
fn shard_sweep_through_the_job_pool_is_deterministic() {
    // The bench runner fanning real platform runs: every cell is one
    // shard count, dispatched on 3 worker threads. Results must land in
    // cell order and agree with the inline sequential dispatch.
    let fanned = runner::run_cells(3, SHARD_COUNTS.len(), |i| {
        fingerprint(run_sharded(pipeline_app(), SHARD_COUNTS[i]))
    });
    let inline = runner::run_cells(1, SHARD_COUNTS.len(), |i| {
        fingerprint(run_sharded(pipeline_app(), SHARD_COUNTS[i]))
    });
    assert_eq!(fanned, inline, "job-pool dispatch changed the outcome");
    assert!(fanned.windows(2).all(|w| w[0] == w[1]), "shard counts disagree");
}
