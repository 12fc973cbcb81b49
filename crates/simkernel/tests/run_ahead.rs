//! Run-ahead: an `advance` the kernel would answer by resuming the very
//! same process returns without a switch — and nothing a simulation can
//! observe tells the two apart.
//!
//! [`Kernel::switches`] is what shows which path a call took; the logs,
//! the clock and [`KernelStats`] are what must not depend on it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use sim_kernel::{EventId, Kernel, KernelStats, RunOutcome, SimChannel, SimCtx, SimError, Time};

/// `(who, when)` in the order the processes got there.
type Log = Arc<Mutex<Vec<(&'static str, Time)>>>;

fn record(log: &Log, who: &'static str, ctx: &SimCtx) {
    log.lock().unwrap().push((who, ctx.now()));
}

fn taken(log: &Log) -> Vec<(&'static str, Time)> {
    std::mem::take(&mut *log.lock().unwrap())
}

#[test]
fn a_lone_advancer_never_switches_out() {
    let mut kernel = Kernel::new();
    kernel.spawn("lone", |ctx| {
        for step in 1..=10_000u64 {
            ctx.advance(7);
            assert_eq!(ctx.now(), step * 7);
        }
    });
    kernel.run().unwrap();
    assert_eq!(kernel.now(), 70_000);
    assert_eq!(kernel.stats().events_dispatched, 10_001);
    assert!(kernel.switches() <= 2, "{} switches", kernel.switches());
}

#[test]
fn a_queued_notification_is_delivered_before_time_passes() {
    let mut kernel = Kernel::new();
    let event = kernel.alloc_event();
    let log = Log::default();
    let (waiter_log, notifier_log) = (Arc::clone(&log), Arc::clone(&log));
    kernel.spawn("waiter", move |ctx| {
        ctx.wait(event);
        record(&waiter_log, "waiter", &ctx);
    });
    kernel.spawn("notifier", move |ctx| {
        ctx.notify(event);
        ctx.advance(10);
        record(&notifier_log, "notifier", &ctx);
    });
    kernel.run().unwrap();
    assert_eq!(taken(&log), [("waiter", 0), ("notifier", 10)]);
    // Start, start, the woken waiter, the notifier's advance: all real.
    assert_eq!(kernel.stats().events_dispatched, 4);
    assert_eq!(kernel.switches(), 4);
}

#[test]
fn a_timed_notification_falls_inside_the_advance() {
    let mut kernel = Kernel::new();
    let event = kernel.alloc_event();
    let log = Log::default();
    let (waiter_log, notifier_log) = (Arc::clone(&log), Arc::clone(&log));
    kernel.spawn("waiter", move |ctx| {
        ctx.wait(event);
        record(&waiter_log, "waiter", &ctx);
    });
    kernel.spawn("notifier", move |ctx| {
        ctx.notify_after(event, 5);
        ctx.advance(10);
        record(&notifier_log, "notifier", &ctx);
    });
    kernel.run().unwrap();
    assert_eq!(taken(&log), [("waiter", 5), ("notifier", 10)]);
    assert_eq!(kernel.switches(), 4);
}

#[test]
fn a_spawned_child_starts_at_its_parents_old_time() {
    let mut kernel = Kernel::new();
    let log = Log::default();
    let (parent_log, child_log) = (Arc::clone(&log), Arc::clone(&log));
    kernel.spawn("parent", move |ctx| {
        ctx.advance(3); // alone so far: in place
        ctx.spawn("child", move |c| record(&child_log, "child", &c));
        ctx.advance(10);
        record(&parent_log, "parent", &ctx);
    });
    kernel.run().unwrap();
    assert_eq!(taken(&log), [("child", 3), ("parent", 13)]);
    assert_eq!(kernel.stats().events_dispatched, 4);
    assert_eq!(kernel.switches(), 3);
}

#[test]
fn the_bound_is_strict() {
    // `early` is queued for t = 10 before `late` asks to be there too:
    // the older entry goes first, so `late` has to queue up behind it.
    let mut kernel = Kernel::new();
    let log = Log::default();
    let (early_log, late_log) = (Arc::clone(&log), Arc::clone(&log));
    kernel.spawn("early", move |ctx| {
        ctx.advance(10);
        record(&early_log, "early", &ctx);
    });
    kernel.spawn("late", move |ctx| {
        ctx.advance(10);
        record(&late_log, "late", &ctx);
    });
    kernel.run().unwrap();
    assert_eq!(taken(&log), [("early", 10), ("late", 10)]);
    assert_eq!(kernel.stats().events_dispatched, 4);
    assert_eq!(kernel.switches(), 4);

    // One tick of room is enough: with `far` queued for t = 11, `near`
    // reaches t = 10 without giving way.
    let mut kernel = Kernel::new();
    let (far_log, near_log) = (Arc::clone(&log), Arc::clone(&log));
    kernel.spawn("far", move |ctx| {
        ctx.advance(11);
        record(&far_log, "far", &ctx);
    });
    kernel.spawn("near", move |ctx| {
        ctx.advance(10);
        record(&near_log, "near", &ctx);
    });
    kernel.run().unwrap();
    assert_eq!(taken(&log), [("near", 10), ("far", 11)]);
    assert_eq!(kernel.stats().events_dispatched, 4);
    assert_eq!(kernel.switches(), 3);
}

#[test]
fn the_horizon_is_part_of_the_bound() {
    let sleeper = |done: Arc<AtomicBool>| {
        move |ctx: SimCtx| {
            ctx.advance(100);
            done.store(true, Ordering::SeqCst);
        }
    };

    let done = Arc::new(AtomicBool::new(false));
    let mut kernel = Kernel::new();
    kernel.spawn("sleeper", sleeper(Arc::clone(&done)));
    assert_eq!(kernel.run_until(50).unwrap(), RunOutcome::Horizon);
    assert_eq!(kernel.now(), 50);
    assert!(!done.load(Ordering::SeqCst), "ran past the horizon");
    assert_eq!(kernel.switches(), 1);
    assert_eq!(kernel.run_until(Time::MAX).unwrap(), RunOutcome::Completed);
    assert_eq!(kernel.now(), 100);
    assert!(done.load(Ordering::SeqCst));
    assert_eq!(kernel.switches(), 2);

    // A horizon of exactly the wake-up time includes it.
    let done = Arc::new(AtomicBool::new(false));
    let mut kernel = Kernel::new();
    kernel.spawn("sleeper", sleeper(Arc::clone(&done)));
    assert_eq!(kernel.run_until(100).unwrap(), RunOutcome::Completed);
    assert_eq!(kernel.now(), 100);
    assert!(done.load(Ordering::SeqCst));
    assert_eq!(kernel.stats().events_dispatched, 2);
    assert_eq!(kernel.switches(), 1);
}

#[test]
fn no_running_ahead_of_a_kernel_that_is_going_away() {
    let caught = Arc::new(AtomicBool::new(false));
    let survived = Arc::new(AtomicBool::new(false));
    let (caught_in, survived_in) = (Arc::clone(&caught), Arc::clone(&survived));
    let mut kernel = Kernel::new();
    let never = kernel.alloc_event();
    kernel.spawn("stubborn", move |ctx| {
        // Alone, with the widest bound there is, when it blocks.
        let killed = catch_unwind(AssertUnwindSafe(|| ctx.wait(never)));
        caught_in.store(killed.is_err(), Ordering::SeqCst);
        ctx.advance(1);
        survived_in.store(true, Ordering::SeqCst);
    });
    assert!(matches!(kernel.run(), Err(SimError::Deadlock(_))));
    drop(kernel);
    assert!(
        caught.load(Ordering::SeqCst),
        "the kill unwind was not seen"
    );
    assert!(
        !survived.load(Ordering::SeqCst),
        "advanced in place after the kernel was gone"
    );
}

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// xorshift64*: the workload's only source of choice.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % n
    }
}

const WORKERS: usize = 8;
const STEPS: u64 = 400;
const SHARED_EVENTS: usize = 3;

/// What the mixed workload shares: one log of `(time, pid, what
/// happened)` in execution order, the events, a channel the workers
/// trade items over and one they sign off on.
#[derive(Clone)]
struct Mixed {
    log: Arc<Mutex<Vec<(Time, u64, u64)>>>,
    own: Arc<Vec<EventId>>,
    shared: Arc<Vec<EventId>>,
    channel: SimChannel<u64>,
    done: SimChannel<u64>,
}

impl Mixed {
    fn log(&self, ctx: &SimCtx, what: u64) {
        self.log
            .lock()
            .unwrap()
            .push((ctx.now(), ctx.pid() as u64, what));
    }

    /// One worker: `STEPS` seeded choices among every `SimCtx`
    /// operation, each logged with its outcome. Delays are short so that
    /// equal-time ties — where a wrong bound or a wrong sequence number
    /// shows — are the rule.
    fn worker(self, index: usize, seed: u64, ctx: SimCtx) {
        let mut rng = Rng(seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for step in 0..STEPS {
            let op = rng.below(10);
            let outcome = match op {
                0..=2 => {
                    ctx.advance(rng.below(6));
                    0
                }
                3 => {
                    ctx.yield_now();
                    0
                }
                4 => {
                    ctx.notify(self.shared[rng.below(SHARED_EVENTS as u64) as usize]);
                    ctx.notify(self.own[rng.below(WORKERS as u64) as usize]);
                    0
                }
                5 => {
                    let event = self.shared[rng.below(SHARED_EVENTS as u64) as usize];
                    ctx.notify_after(event, 1 + rng.below(9));
                    0
                }
                6 => {
                    // A wake-up of its own making bounds the wait; a
                    // peer's notification may end it sooner.
                    ctx.notify_after(self.own[index], 1 + rng.below(7));
                    ctx.wait(self.own[index]);
                    0
                }
                7 => {
                    let event = self.shared[rng.below(SHARED_EVENTS as u64) as usize];
                    u64::from(ctx.wait_timeout(event, rng.below(12)))
                }
                8 => {
                    self.channel.send(&ctx, ((index as u64) << 32) | step);
                    self.channel.recv_timeout(&ctx, rng.below(4)).unwrap_or(1)
                }
                _ => {
                    let child = self.clone();
                    let hops = 1 + rng.below(3);
                    ctx.spawn(format!("child{index}.{step}"), move |c| {
                        for hop in 0..hops {
                            c.advance(hop);
                            child.log(&c, 100 + hop);
                        }
                        c.notify(child.shared[0]);
                    });
                    0
                }
            };
            self.log(&ctx, (op << 48) ^ outcome);
        }
        self.done.send(&ctx, index as u64);
    }

    /// Blocks on the sign-off channel until every worker is through.
    fn collector(self, ctx: SimCtx) {
        for _ in 0..WORKERS {
            let who = self.done.recv(&ctx);
            self.log(&ctx, who);
        }
    }
}

/// Digest of the whole run — every log entry in order, the final time,
/// the statistics — and the kernel that ran it.
fn mixed_workload(seed: u64) -> (u64, KernelStats, Kernel) {
    let mut kernel = Kernel::new();
    let mixed = Mixed {
        log: Arc::default(),
        own: Arc::new((0..WORKERS).map(|_| kernel.alloc_event()).collect()),
        shared: Arc::new((0..SHARED_EVENTS).map(|_| kernel.alloc_event()).collect()),
        channel: SimChannel::with_event(kernel.alloc_event()),
        done: SimChannel::with_event(kernel.alloc_event()),
    };
    for index in 0..WORKERS {
        let worker = mixed.clone();
        kernel.spawn(format!("worker{index}"), move |ctx| {
            worker.worker(index, seed, ctx)
        });
    }
    let collector = mixed.clone();
    kernel.spawn("collector", move |ctx| collector.collector(ctx));
    kernel.run().unwrap();

    let stats = kernel.stats();
    let mut digest = Fnv::new();
    for &(time, pid, what) in mixed.log.lock().unwrap().iter() {
        digest.word(time);
        digest.word(pid);
        digest.word(what);
    }
    digest.word(kernel.now());
    digest.word(stats.events_dispatched);
    digest.word(stats.processes_spawned);
    digest.word(stats.notifications_delivered);
    digest.word(stats.max_queue_depth);
    (digest.0, stats, kernel)
}

/// The mixed workload's digest on the kernel *before* run-ahead existed:
/// recorded by running this file's `mixed_workload(MIXED_SEED)` — the
/// same source, nothing in it refers to run-ahead — against commit
/// `9b7d798` (PR 14), where every `advance` and every `yield_now` was a
/// switch.
const MIXED_DIGEST_AT_9B7D798: u64 = 0x5551_a66e_571e_cfd2;
const MIXED_SEED: u64 = 0x15_5EED;

#[test]
fn a_mixed_workload_is_the_schedule_it_was_before_run_ahead() {
    let (digest, stats, kernel) = mixed_workload(MIXED_SEED);
    assert!(
        stats.events_dispatched > 2 * WORKERS as u64 * STEPS / 3,
        "the workload shrank: {stats:?}"
    );
    // Both paths are in it: some events were run ahead over, most not.
    assert!((stats.events_dispatched / 2..stats.events_dispatched).contains(&kernel.switches()));
    assert_eq!(
        digest, MIXED_DIGEST_AT_9B7D798,
        "digest {digest:#018x}: the schedule is not the yielding kernel's"
    );
}
