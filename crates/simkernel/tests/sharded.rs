//! Differential tests for sharded execution: the windowed parallel mode
//! and the threadsafe fallback must reproduce the sequential kernel's
//! schedule exactly.

use std::sync::Arc;

use parking_lot::Mutex;
use sim_kernel::{Kernel, KernelConfig, KernelStats, LatentChannel, SimChannel, SimError, Time};

/// A PHOLD-style token ring: `procs` processes, each owning a
/// latency-`lat` inbox, forwarding tokens to its successor. With more
/// than one shard every hop crosses a shard boundary (successor pid =
/// pid + 1 lands in the next round-robin shard), exercising the window
/// protocol on its hardest case.
///
/// Every process injects one token that makes `hops` hops; each process
/// therefore receives exactly `hops` tokens. Returns the final virtual
/// time, the kernel stats, and each process's receive-time log.
fn phold(shards: usize, procs: usize, hops: u32, lat: Time, work: Time) -> PholdRun {
    ring(shards, procs, procs, hops, lat, work, 1).0
}

/// The ring behind [`phold`], with two more dials: only the first
/// `injectors` processes start a token (each process then receives
/// `injectors * hops / procs` of them), and a holder passes its `work`
/// in `slices` equal advances. Also returns the kernel's fiber switches.
fn ring(
    shards: usize,
    procs: usize,
    injectors: usize,
    hops: u32,
    lat: Time,
    work: Time,
    slices: u32,
) -> (PholdRun, u64) {
    let receives = injectors as u32 * hops / procs as u32;
    let mut kernel = Kernel::with_config(KernelConfig::default().shards(shards));
    let channels: Vec<LatentChannel<u32>> = (0..procs)
        .map(|_| LatentChannel::new(&mut kernel, lat))
        .collect();
    let logs: Vec<Arc<Mutex<Vec<Time>>>> = (0..procs)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    for pid in 0..procs {
        let inbox = channels[pid].clone();
        let next = channels[(pid + 1) % procs].clone();
        let log = Arc::clone(&logs[pid]);
        kernel.spawn(format!("site{pid}"), move |ctx| {
            if pid < injectors {
                next.send(&ctx, hops);
            }
            for _ in 0..receives {
                let remaining = inbox.recv(&ctx);
                log.lock().push(ctx.now());
                for _ in 0..slices {
                    ctx.advance(work / Time::from(slices));
                }
                if remaining > 1 {
                    next.send(&ctx, remaining - 1);
                }
            }
        });
    }
    kernel.run().unwrap();
    let run = PholdRun {
        final_time: kernel.now(),
        stats: kernel.stats(),
        logs: logs.iter().map(|l| l.lock().clone()).collect(),
    };
    (run, kernel.switches())
}

#[derive(Debug, PartialEq, Eq)]
struct PholdRun {
    final_time: Time,
    stats: KernelStats,
    logs: Vec<Vec<Time>>,
}

impl PholdRun {
    /// Everything except the queue-depth gauge, which is measured
    /// per-shard-queue under windowed execution and globally otherwise.
    fn comparable(&self) -> (Time, u64, u64, u64, &Vec<Vec<Time>>) {
        (
            self.final_time,
            self.stats.events_dispatched,
            self.stats.processes_spawned,
            self.stats.notifications_delivered,
            &self.logs,
        )
    }
}

#[test]
fn windowed_execution_matches_sequential_for_any_shard_count() {
    let reference = phold(1, 8, 12, 1_000, 250);
    assert!(reference.stats.events_dispatched > 0);
    for shards in [2, 4] {
        let parallel = phold(shards, 8, 12, 1_000, 250);
        assert_eq!(
            reference.comparable(),
            parallel.comparable(),
            "shards={shards} diverged from the sequential schedule"
        );
    }
}

#[test]
fn windowed_execution_is_internally_deterministic() {
    // Two identical parallel runs: byte-identical including queue depth.
    let a = phold(4, 16, 10, 500, 125);
    let b = phold(4, 16, 10, 500, 125);
    assert_eq!(a, b);
}

#[test]
fn windowed_handles_work_exceeding_the_lookahead() {
    // Per-hop work much larger than the latency: windows frequently open
    // on one shard while others idle.
    let reference = phold(1, 6, 8, 100, 7_777);
    let parallel = phold(3, 6, 8, 100, 7_777);
    assert_eq!(reference.comparable(), parallel.comparable());
}

/// One token walking a ring of four sites, each holder passing its time
/// in 25 advances of 40 ns: a single active process, so the sequential
/// kernel has nothing queued ahead of it and runs ahead over nearly
/// every event.
fn lone_token(shards: usize, lat: Time) -> (PholdRun, u64) {
    ring(shards, 4, 1, 40, lat, 1_000, 25)
}

#[test]
fn a_run_ahead_schedule_matches_a_yielding_one() {
    // Sequential: one switch per hop, the 25 advances in place.
    let (reference, switches) = lone_token(1, 30);
    let events = reference.stats.events_dispatched;
    assert!(events > 1_000, "{events} events");
    assert!(switches < events / 10, "{switches} switches for {events} events");
    // A window 30 ns wide ends before any 40 ns advance does, so there
    // the same schedule is produced by yielding every time.
    for shards in [2, 4] {
        let (windowed, switches) = lone_token(shards, 30);
        assert_eq!(reference.comparable(), windowed.comparable(), "shards={shards}");
        assert_eq!(switches, events, "shards={shards}");
    }
    // Zero latency: the fallback runs the sequential loop on the shared
    // queue and runs ahead exactly as far.
    let sequential = lone_token(1, 0);
    assert_eq!(sequential, lone_token(2, 0));
    assert_eq!(sequential, lone_token(4, 0));
}

#[test]
fn windowed_horizon_pauses_and_resumes() {
    fn run(shards: usize) -> (Time, Time, u64) {
        let mut kernel = Kernel::with_config(KernelConfig::default().shards(shards));
        let ch: Vec<LatentChannel<u32>> = (0..4)
            .map(|_| LatentChannel::new(&mut kernel, 1_000))
            .collect();
        for pid in 0..4usize {
            let inbox = ch[pid].clone();
            let next = ch[(pid + 1) % 4].clone();
            kernel.spawn(format!("p{pid}"), move |ctx| {
                next.send(&ctx, 6u32);
                for _ in 0..6 {
                    let r = inbox.recv(&ctx);
                    ctx.advance(100);
                    if r > 1 {
                        next.send(&ctx, r - 1);
                    }
                }
            });
        }
        let mid = kernel.run_until(2_500).unwrap();
        assert_eq!(mid, sim_kernel::RunOutcome::Horizon);
        let mid_time = kernel.now();
        kernel.run().unwrap();
        (mid_time, kernel.now(), kernel.stats().events_dispatched)
    }
    assert_eq!(run(1), run(2));
    assert_eq!(run(1), run(4));
}

#[test]
fn zero_latency_cross_shard_notify_is_a_lookahead_violation() {
    // Force windowed mode with an explicit lookahead, then communicate
    // through a zero-time channel whose endpoints sit in different
    // shards: the kernel must abort loudly instead of racing.
    let mut kernel = Kernel::with_config(KernelConfig::default().shards(2).lookahead(100));
    let ch: SimChannel<u32> = SimChannel::with_event(kernel.alloc_event());
    let rx = ch.clone();
    kernel.spawn("receiver", move |ctx| {
        let v = rx.recv(&ctx);
        assert_eq!(v, 1);
    });
    kernel.spawn("sender", move |ctx| {
        ctx.advance(250);
        ch.send(&ctx, 1);
    });
    match kernel.run() {
        Err(SimError::LookaheadViolation { detail, .. }) => {
            assert!(detail.contains("cross-shard"), "unexpected detail: {detail}");
        }
        other => panic!("expected a lookahead violation, got {other:?}"),
    }
}

#[test]
fn short_notify_after_is_a_lookahead_violation() {
    let mut kernel = Kernel::with_config(KernelConfig::default().shards(2).lookahead(1_000));
    let event = kernel.alloc_event();
    kernel.spawn("waiter", move |ctx| ctx.wait(event));
    kernel.spawn("notifier", move |ctx| {
        ctx.advance(10);
        ctx.notify_after(event, 5); // 5 < lookahead 1000
    });
    match kernel.run() {
        Err(SimError::LookaheadViolation { detail, .. }) => {
            assert!(detail.contains("shorter"), "unexpected detail: {detail}");
        }
        other => panic!("expected a lookahead violation, got {other:?}"),
    }
}

#[test]
fn in_window_spawn_is_a_lookahead_violation() {
    let mut kernel = Kernel::with_config(KernelConfig::default().shards(2).lookahead(1_000));
    kernel.spawn("other", |ctx| ctx.advance(5_000));
    kernel.spawn("parent", move |ctx| {
        ctx.advance(10);
        ctx.spawn("child", |c| c.advance(1));
        ctx.advance(10);
    });
    match kernel.run() {
        Err(SimError::LookaheadViolation { detail, .. }) => {
            assert!(detail.contains("spawned"), "unexpected detail: {detail}");
        }
        other => panic!("expected a lookahead violation, got {other:?}"),
    }
}

#[test]
fn intra_shard_zero_time_channels_work_under_windowing() {
    // Both endpoints pinned to shard 0: zero-delay wakeups stay local and
    // are legal inside a window; a latency channel elsewhere keeps the
    // kernel in windowed mode.
    fn run(shards: usize) -> (Time, u64) {
        let mut kernel = Kernel::with_config(KernelConfig::default().shards(shards));
        let zero: SimChannel<u32> = SimChannel::with_event(kernel.alloc_event());
        let latent: LatentChannel<u32> = LatentChannel::new(&mut kernel, 500);
        let (tx, rx) = (zero.clone(), zero);
        let (ltx, lrx) = (latent.clone(), latent);
        kernel.spawn_on(0, "local-producer", move |ctx| {
            for i in 0..20 {
                ctx.advance(40);
                tx.send(&ctx, i);
            }
        });
        kernel.spawn_on(0, "bridge", move |ctx| {
            for _ in 0..20 {
                let v = rx.recv(&ctx);
                ltx.send(&ctx, v);
            }
        });
        kernel.spawn_on(1, "remote-sink", move |ctx| {
            for i in 0..20 {
                assert_eq!(lrx.recv(&ctx), i);
            }
        });
        kernel.run().unwrap();
        (kernel.now(), kernel.stats().events_dispatched)
    }
    assert_eq!(run(1), run(2));
}
