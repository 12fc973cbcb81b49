//! What running simulated processes as fibers changes: process counts
//! far beyond what host threads allow, a fixed stack per process, and
//! processes that change host thread when their kernel does.

use std::sync::{Arc, Mutex};

use sim_kernel::{Kernel, KernelStats, LatentChannel, Pid, RunOutcome, Time, PROCESS_STACK_BYTES};

/// True when processes run on the assembly switch, false on the
/// thread-backed oracle (where a body never leaves its carrier thread).
fn stack_fibers() -> bool {
    cfg!(target_arch = "x86_64")
        && !std::env::var("EMBERA_EXEC_FIBER").is_ok_and(|v| v.eq_ignore_ascii_case("thread"))
}

/// `procs` processes in a ring; a single token makes `laps` laps, each
/// holder advancing time before passing it on. Returns the order in
/// which processes held the token, the final time and the stats.
fn token_ring(procs: usize, laps: usize) -> (Vec<(Pid, Time)>, Time, KernelStats) {
    let mut kernel = Kernel::new();
    let events: Vec<_> = (0..procs).map(|_| kernel.alloc_event()).collect();
    let order = Arc::new(Mutex::new(Vec::with_capacity(procs * laps)));
    for i in 0..procs {
        let mine = events[i];
        let next = events[(i + 1) % procs];
        let order = Arc::clone(&order);
        kernel.spawn(format!("site{i}"), move |ctx| {
            for lap in 0..laps {
                // Site 0 starts the token; everyone else waits for it.
                if i != 0 || lap != 0 {
                    ctx.wait(mine);
                }
                order.lock().unwrap().push((ctx.pid(), ctx.now()));
                ctx.advance(3);
                ctx.notify(next);
            }
            if i == 0 {
                ctx.wait(mine); // absorb the token after the last lap
            }
        });
    }
    kernel.run().unwrap();
    let order = std::mem::take(&mut *order.lock().unwrap());
    (order, kernel.now(), kernel.stats())
}

#[test]
fn ten_thousand_process_ring_completes_and_repeats_its_schedule() {
    const LAPS: usize = 2;
    // The oracle really is 10 000 host threads (20 s of thread start-up
    // and teardown here), so it gets a ring it can finish in CI time.
    let procs = if stack_fibers() { 10_000 } else { 500 };
    let first = token_ring(procs, LAPS);
    assert_eq!(first.0.len(), procs * LAPS);
    assert_eq!(first.1, (procs * LAPS) as Time * 3);
    assert_eq!(first.2.processes_spawned, procs as u64);
    for (hop, &(pid, at)) in first.0.iter().enumerate() {
        assert_eq!((pid, at), (hop % procs, hop as Time * 3));
    }
    assert_eq!(first, token_ring(procs, LAPS));
}

/// Recurse until `budget` bytes of stack are in use below `top`, block
/// there, and return the depth reached.
#[inline(never)]
fn recurse_until(ctx: &sim_kernel::SimCtx, top: usize, budget: usize) -> usize {
    let frame = [0u8; 256];
    let here = std::hint::black_box(&frame) as *const _ as usize;
    if top - here >= budget {
        ctx.advance(1);
        return 1;
    }
    1 + recurse_until(ctx, top, budget) + usize::from(std::hint::black_box(frame)[0])
}

#[test]
fn process_can_use_half_its_stack() {
    let depth = Arc::new(Mutex::new(0));
    let reached = Arc::clone(&depth);
    let mut kernel = Kernel::new();
    kernel.spawn("deep", move |ctx| {
        let marker = 0u8;
        let top = std::hint::black_box(&marker) as *const u8 as usize;
        *reached.lock().unwrap() = recurse_until(&ctx, top, PROCESS_STACK_BYTES / 2);
        ctx.advance(1);
    });
    kernel.run().unwrap();
    assert_eq!(kernel.now(), 2);
    assert!(*depth.lock().unwrap() > 1);
}

#[test]
fn a_kernel_moved_between_threads_mid_run_matches_an_unmoved_one() {
    type Log = Vec<Vec<(Time, u32)>>;
    /// A ring of latency-bearing channels, every process holding a
    /// token. `drive` runs the kernel to completion.
    fn ring(drive: impl FnOnce(Kernel) -> Kernel) -> (Time, u64, Log) {
        const PROCS: usize = 6;
        const HOPS: u32 = 10;
        let mut kernel = Kernel::new();
        let channels: Vec<LatentChannel<u32>> = (0..PROCS)
            .map(|_| LatentChannel::new(&mut kernel, 1_000))
            .collect();
        let logs: Vec<_> = (0..PROCS)
            .map(|_| Arc::new(Mutex::new(Vec::new())))
            .collect();
        for pid in 0..PROCS {
            let inbox = channels[pid].clone();
            let next = channels[(pid + 1) % PROCS].clone();
            let log = Arc::clone(&logs[pid]);
            kernel.spawn(format!("site{pid}"), move |ctx| {
                next.send(&ctx, HOPS);
                for _ in 0..HOPS {
                    let remaining = inbox.recv(&ctx);
                    log.lock().unwrap().push((ctx.now(), remaining));
                    ctx.advance(250);
                    if remaining > 1 {
                        next.send(&ctx, remaining - 1);
                    }
                }
            });
        }
        let kernel = drive(kernel);
        (
            kernel.now(),
            kernel.stats().events_dispatched,
            logs.iter().map(|l| l.lock().unwrap().clone()).collect(),
        )
    }
    let unmoved = ring(|mut kernel| {
        kernel.run().unwrap();
        kernel
    });
    // Every process is suspended mid-body, with deliveries in flight,
    // when the kernel comes back from the thread that started it.
    let moved = ring(|mut kernel| {
        let mut kernel = std::thread::spawn(move || {
            assert_eq!(kernel.run_until(4_600).unwrap(), RunOutcome::Horizon);
            kernel
        })
        .join()
        .unwrap();
        assert_eq!(kernel.now(), 4_600);
        kernel.run().unwrap();
        kernel
    });
    assert!(unmoved.0 > 4_600, "the run ended before the move");
    assert_eq!(unmoved, moved);
}

/// Compile-time: a kernel, suspended processes and all, may change host
/// thread between runs.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Kernel>();
};
