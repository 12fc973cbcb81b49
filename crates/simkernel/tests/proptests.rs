//! Property-based tests of the simulation kernel: determinism, clock
//! monotonicity, and channel FIFO order under arbitrary schedules.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use sim_kernel::{Kernel, KernelStats, SimChannel, Time};

/// `(worker, time)` of every worker step, in execution order.
type StepLog = Vec<(usize, Time)>;

/// Run a randomized workload: `workers` processes doing interleaved
/// advances and notifications — every other one a timed notification,
/// due up to 6 ns later — and one collector waiting for all events.
fn run_workload(delays: &[Vec<u64>]) -> (Time, KernelStats, StepLog) {
    let (kernel, log) = drive_workload(delays, |kernel| kernel.run().unwrap());
    (kernel.now(), kernel.stats(), log)
}

/// [`run_workload`] with the caller deciding how the kernel is run to
/// completion.
fn drive_workload(delays: &[Vec<u64>], drive: impl FnOnce(&mut Kernel)) -> (Kernel, StepLog) {
    let mut kernel = Kernel::new();
    let event = kernel.alloc_event();
    let log: Arc<Mutex<StepLog>> = Arc::default();
    let total: usize = delays.iter().map(|d| d.len()).sum();

    for (i, seq) in delays.iter().enumerate() {
        let seq = seq.clone();
        let log = Arc::clone(&log);
        kernel.spawn(format!("w{i}"), move |ctx| {
            for (step, d) in seq.into_iter().enumerate() {
                ctx.advance(d + 1);
                log.lock().unwrap().push((i, ctx.now()));
                if step % 2 == 0 {
                    ctx.notify(event);
                } else {
                    ctx.notify_after(event, d % 7);
                }
            }
        });
    }
    let woken = Arc::new(AtomicU64::new(0));
    let w = Arc::clone(&woken);
    kernel.spawn("collector", move |ctx| {
        let mut seen = 0usize;
        while seen < total {
            ctx.wait_timeout(event, 1_000_000);
            seen += 1;
            w.fetch_add(1, Ordering::SeqCst);
        }
    });
    drive(&mut kernel);
    let log = std::mem::take(&mut *log.lock().unwrap());
    (kernel, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn identical_workloads_simulate_identically(
        delays in prop::collection::vec(
            prop::collection::vec(0u64..1000, 1..10), 1..6)
    ) {
        let a = run_workload(&delays);
        let b = run_workload(&delays);
        prop_assert_eq!(a.0, b.0, "final clock must match");
        prop_assert_eq!(a.1, b.1, "event counts must match");
        prop_assert_eq!(a.2, b.2, "observation order must match");
    }

    #[test]
    fn running_ahead_and_yielding_at_every_event_time_agree(
        delays in prop::collection::vec(
            prop::collection::vec(0u64..1000, 1..10), 1..6)
    ) {
        let (free, free_log) = drive_workload(&delays, |kernel| kernel.run().unwrap());
        // The same workload with the horizon stepped through time 0 and
        // every instant at which something happened: each slice then
        // runs *at* the horizon, so every advance (all are >= 1) lands
        // beyond it and has to yield — the maximally yielding schedule,
        // on the same kernel.
        let mut instants: Vec<Time> = free_log.iter().map(|&(_, t)| t).collect();
        instants.push(0);
        instants.sort_unstable();
        instants.dedup();
        let (stepped, stepped_log) = drive_workload(&delays, |kernel| {
            for &t in &instants {
                kernel.run_until(t).unwrap();
                assert_eq!(kernel.switches(), kernel.stats().events_dispatched);
            }
            kernel.run().unwrap();
        });
        prop_assert_eq!(free_log, stepped_log, "execution order must match");
        prop_assert_eq!(free.now(), stepped.now(), "final clock must match");
        prop_assert_eq!(free.stats(), stepped.stats(), "statistics must match");
        prop_assert!(free.switches() <= stepped.switches());
    }

    #[test]
    fn clock_is_monotone_and_bounded(
        delays in prop::collection::vec(
            prop::collection::vec(0u64..1000, 1..10), 1..6)
    ) {
        let (end, _, log) = run_workload(&delays);
        // Each worker's own observations are monotone; the merged log is
        // bounded by the final clock.
        prop_assert!(log.iter().all(|&(_, t)| t <= end));
        // Final clock equals the max per-worker cumulative delay
        // (workers run in parallel virtual time).
        let max_path: u64 = delays
            .iter()
            .map(|seq| seq.iter().map(|d| d + 1).sum::<u64>())
            .max()
            .unwrap_or(0);
        prop_assert!(end >= max_path, "end {} < longest path {}", end, max_path);
    }

    #[test]
    fn channel_preserves_fifo_under_any_timing(
        gaps in prop::collection::vec(0u64..50, 1..100)
    ) {
        let mut kernel = Kernel::new();
        let ch: SimChannel<usize> = SimChannel::with_event(kernel.alloc_event());
        let tx = ch.clone();
        let gaps2 = gaps.clone();
        kernel.spawn("producer", move |ctx| {
            for (i, g) in gaps2.iter().enumerate() {
                ctx.advance(*g);
                tx.send(&ctx, i);
            }
        });
        let received = Arc::new(Mutex::new(Vec::new()));
        let r = Arc::clone(&received);
        let n = gaps.len();
        kernel.spawn("consumer", move |ctx| {
            for _ in 0..n {
                r.lock().unwrap().push(ch.recv(&ctx));
            }
        });
        kernel.run().unwrap();
        let received = received.lock().unwrap().clone();
        prop_assert_eq!(received, (0..n).collect::<Vec<_>>());
    }
}
