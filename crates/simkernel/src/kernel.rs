//! The discrete-event kernel: event queue, scheduling loop, determinism.
//!
//! One loop on one thread. Pending work lives in two heaps: the event
//! queue, popped in `(time, seq)` order — `seq` is the push order, so
//! same-time entries dispatch first-in first-out — and the timed
//! notifications of [`SimCtx::notify_after`], delivered in
//! `(time, producer pid, dispatch index, effect index)` order and ahead
//! of queue entries due at the same instant. The loop takes whichever
//! head is earlier, moves the clock there and either wakes the waiters
//! of an event or resumes one process until it gives way again. Nothing
//! in that order depends on the host, which is what makes two runs of
//! the same simulation the same schedule.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use embera_fiber::Fiber;

use crate::error::{DeadlockInfo, SimError};
use crate::process::{
    process_fiber, Directory, EventId, Link, Pid, ProcessBody, ResumeKind, SharedClock, SimCtx,
    SpawnRequest, YieldReason,
};
use crate::Time;

/// Outcome of [`Kernel::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All processes completed.
    Completed,
    /// The horizon was reached with work still pending.
    Horizon,
}

/// Aggregate statistics about a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Number of events dispatched.
    pub events_dispatched: u64,
    /// Number of processes ever spawned.
    pub processes_spawned: u64,
    /// Number of event notifications delivered to waiters.
    pub notifications_delivered: u64,
    /// High-water mark of the event queue; an event a process ran ahead
    /// over counts as the push it stood for. The queue is pre-sized to
    /// twice the number of processes — a resume and a timeout in flight
    /// each — and this gauge says whether that sufficed.
    pub max_queue_depth: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueItem {
    Resume(Pid, ResumeKind),
    /// Timeout check for a process that issued `wait_timeout`; `epoch`
    /// invalidates the check if the process was notified first.
    Timeout(Pid, u64),
}

#[derive(PartialEq, Eq)]
struct Entry {
    time: Time,
    seq: u64,
    item: QueueItem,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Identity of one side effect: which process produced it, during which
/// of its dispatches, at which position in the effect stream of that
/// dispatch. Together with the delivery time this totally orders timed
/// notifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EffectTag {
    pid: Pid,
    dispatch: u64,
    effect: u32,
}

/// A deferred notification: deliver `event` at `time`, ordered by
/// `(time, tag)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TimedEntry {
    time: Time,
    tag: EffectTag,
    event: EventId,
}

/// Who waits on which event, in registration order — which, with one
/// queue, is the `(time, seq)` order of the dispatches that registered
/// them. Indexed by [`EventId`], a dense counter
/// ([`Kernel::alloc_event`]). A notification drains the event's list
/// and puts it back empty, so each slot keeps its capacity and the
/// wait→notify cycle of a semaphore or a channel allocates nothing in
/// steady state.
#[derive(Default)]
struct Waiters(Vec<Vec<Pid>>);

impl Waiters {
    fn register(&mut self, event: EventId, pid: Pid) {
        let slot = event.0 as usize;
        if slot >= self.0.len() {
            self.0.resize_with(slot + 1, Vec::new);
        }
        self.0[slot].push(pid);
    }

    /// The waiters of `event`, leaving its slot empty until
    /// [`Waiters::put_back`].
    fn take(&mut self, event: EventId) -> Vec<Pid> {
        self.0
            .get_mut(event.0 as usize)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Return the drained list of `event` to its slot.
    fn put_back(&mut self, event: EventId, drained: Vec<Pid>) {
        if let Some(slot) = self.0.get_mut(event.0 as usize) {
            *slot = drained;
        }
    }

    /// Withdraw `pid`'s registration on `event` (its timeout fired).
    fn cancel(&mut self, event: EventId, pid: Pid) {
        if let Some(waiters) = self.0.get_mut(event.0 as usize) {
            waiters.retain(|&w| w != pid);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Runnable,
    Waiting { event: EventId, epoch: u64 },
    Done,
}

struct ProcEntry {
    name: String,
    link: Arc<Link>,
    /// The process's stack; `None` once its body is over.
    fiber: Option<Fiber>,
    state: ProcState,
    /// Bumped every time the process blocks; stale timeout checks compare
    /// against it.
    wait_epoch: u64,
    /// Total dispatches of this process, the middle component of
    /// [`EffectTag`].
    dispatch_count: u64,
}

/// Deterministic discrete-event simulation kernel.
///
/// See the [crate-level documentation](crate) for the execution model and
/// the [module documentation](self) for the order events are taken in.
pub struct Kernel {
    procs: Vec<ProcEntry>,
    queue: BinaryHeap<Reverse<Entry>>,
    /// Deferred notifications ([`SimCtx::notify_after`]), delivered in
    /// `(time, tag)` order.
    timed: BinaryHeap<Reverse<TimedEntry>>,
    waiters: Waiters,
    clock: Arc<SharedClock>,
    directory: Arc<Directory>,
    seq: u64,
    stats: KernelStats,
    /// Processes that have not finished; the run is complete at zero.
    unfinished: usize,
    /// The notifications of the slice being applied; kept so its buffer
    /// is reused from one dispatch to the next.
    notifications: VecDeque<(EventId, Time)>,
    /// Fiber resumes so far, see [`Kernel::switches`].
    switches: u64,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Entries the event queue holds before its first regrowth; spawning
    /// keeps it ahead of demand from there.
    const INITIAL_QUEUE_CAPACITY: usize = 64;

    /// Create an empty kernel at virtual time zero.
    pub fn new() -> Self {
        Kernel {
            procs: Vec::new(),
            queue: BinaryHeap::with_capacity(Self::INITIAL_QUEUE_CAPACITY),
            timed: BinaryHeap::new(),
            waiters: Waiters::default(),
            clock: Arc::new(SharedClock::new()),
            directory: Arc::new(Directory::default()),
            seq: 0,
            stats: KernelStats::default(),
            unfinished: 0,
            notifications: VecDeque::new(),
            switches: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.clock.now.load(Ordering::Acquire)
    }

    /// Statistics for the run so far.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// How many times the kernel has switched a process in so far.
    ///
    /// A host-side gauge, not a simulation result: it counts the
    /// dispatches that were real fiber resumes, so
    /// `stats().events_dispatched - switches()` is the number of events
    /// processes passed in place (see [`SimCtx::advance`]). That split
    /// depends on how the run was driven — every horizon of
    /// [`run_until`](Kernel::run_until) is a bound no process runs ahead
    /// of — which is why it is not a field of [`KernelStats`], whose
    /// values are the same however a run is cut into pieces.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Allocate a fresh event token from outside the simulation.
    pub fn alloc_event(&self) -> EventId {
        EventId(self.clock.next_event_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Spawn a simulated process; it becomes runnable at the current
    /// virtual time. Returns its [`Pid`].
    pub fn spawn<F>(&mut self, name: impl Into<String>, body: F) -> Pid
    where
        F: FnOnce(SimCtx) + Send + 'static,
    {
        self.spawn_inner(name.into(), Box::new(body), None)
    }

    fn spawn_inner(&mut self, name: String, body: ProcessBody, reserved: Option<Pid>) -> Pid {
        // Pids are allocated by the shared directory so runtime spawns
        // (which reserve before the kernel materializes them) stay
        // aligned with the kernel's process table.
        let pid = reserved.unwrap_or_else(|| self.directory.reserve(self.alloc_event()));
        debug_assert_eq!(pid, self.procs.len(), "directory/kernel pid skew");
        let link = Arc::new(Link::default());
        let ctx = SimCtx {
            pid,
            name: name.clone(),
            link: Arc::clone(&link),
            clock: Arc::clone(&self.clock),
            directory: Arc::clone(&self.directory),
        };
        self.procs.push(ProcEntry {
            name,
            link,
            fiber: Some(process_fiber(ctx, body)),
            state: ProcState::Runnable,
            wait_epoch: 0,
            dispatch_count: 0,
        });
        self.stats.processes_spawned += 1;
        self.unfinished += 1;
        // Pre-size ahead of demand: each process typically keeps at most
        // a resume plus a timeout in flight.
        let want = self.procs.len() * 2;
        if self.queue.capacity() < want {
            self.queue.reserve(want - self.queue.len());
        }
        let now = self.now();
        self.push(now, QueueItem::Resume(pid, ResumeKind::Scheduled));
        pid
    }

    /// Notify an event from outside the simulation (e.g. test drivers).
    /// Waiters are woken at the current virtual time.
    pub fn notify(&mut self, event: EventId) {
        self.deliver_notification(event);
    }

    fn push(&mut self, time: Time, item: QueueItem) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Entry { time, seq, item }));
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len() as u64);
    }

    fn deliver_notification(&mut self, event: EventId) {
        let mut waiters = self.waiters.take(event);
        let now = self.now();
        for pid in waiters.drain(..) {
            // The waiter's epoch advances so stale timeout checks
            // become no-ops.
            self.procs[pid].wait_epoch += 1;
            self.procs[pid].state = ProcState::Runnable;
            self.stats.notifications_delivered += 1;
            self.push(now, QueueItem::Resume(pid, ResumeKind::Notified));
        }
        self.waiters.put_back(event, waiters);
    }

    /// Apply what the slice `pid` just ran left behind: the notifications
    /// in `self.notifications`, then its spawn requests.
    fn apply_side_effects(&mut self, pid: Pid, spawns: Vec<SpawnRequest>) {
        let dispatch = self.procs[pid].dispatch_count;
        let now = self.now();
        // Notifications first: a process that notified an event during its
        // slice wakes waiters *registered before its slice*; its own
        // subsequent wait (handled by the caller) is not self-woken.
        let mut notifications = std::mem::take(&mut self.notifications);
        for (effect, (event, dt)) in (0u32..).zip(notifications.drain(..)) {
            if dt == 0 {
                self.deliver_notification(event);
            } else {
                self.timed.push(Reverse(TimedEntry {
                    time: now.saturating_add(dt),
                    tag: EffectTag {
                        pid,
                        dispatch,
                        effect,
                    },
                    event,
                }));
            }
        }
        self.notifications = notifications;
        for child in spawns {
            self.spawn_inner(child.name, child.body, Some(child.pid));
        }
    }

    /// Mark `pid` finished and wake its joiners.
    fn finish(&mut self, pid: Pid) {
        self.procs[pid].state = ProcState::Done;
        self.unfinished -= 1;
        let completion = self.directory.mark_finished(pid);
        self.deliver_notification(completion);
    }

    fn blocked_names(&self) -> Vec<String> {
        self.procs
            .iter()
            .filter(|p| matches!(p.state, ProcState::Waiting { .. }))
            .map(|p| p.name.clone())
            .collect()
    }

    /// Run the simulation until all processes complete.
    pub fn run(&mut self) -> Result<(), SimError> {
        match self.run_until(Time::MAX)? {
            RunOutcome::Completed => Ok(()),
            RunOutcome::Horizon => unreachable!("horizon is Time::MAX"),
        }
    }

    /// Run the simulation until all processes complete or the
    /// next thing to happen lies beyond `horizon`. The clock is then at
    /// `horizon` — unless it was already past it: virtual time never
    /// moves backwards, so a horizon in the past pauses at once.
    pub fn run_until(&mut self, horizon: Time) -> Result<RunOutcome, SimError> {
        loop {
            if self.unfinished == 0 && !self.procs.is_empty() {
                return Ok(RunOutcome::Completed);
            }
            // Next source: the timed-notification heap or the event queue;
            // timed deliveries win ties so a wakeup at time t precedes the
            // seq-ordered entries it creates at t.
            let timed = self.timed.peek().map(|Reverse(te)| te.time);
            let queued = self.queue.peek().map(|Reverse(e)| e.time);
            let (time, take_timed) = match (timed, queued) {
                (Some(t), Some(q)) => (t.min(q), t <= q),
                (Some(t), None) => (t, true),
                (None, Some(q)) => (q, false),
                (None, None) => {
                    if self.unfinished == 0 {
                        return Ok(RunOutcome::Completed);
                    }
                    return Err(SimError::Deadlock(DeadlockInfo {
                        at: self.now(),
                        blocked: self.blocked_names(),
                    }));
                }
            };
            if time > horizon {
                // Nothing consumed: a later run_until resumes from here.
                self.clock.now.fetch_max(horizon, Ordering::AcqRel);
                return Ok(RunOutcome::Horizon);
            }
            debug_assert!(time >= self.now(), "time went backwards");
            self.clock.now.store(time, Ordering::Release);
            if take_timed {
                let Reverse(te) = self.timed.pop().expect("peeked");
                self.deliver_notification(te.event);
                continue;
            }
            let Reverse(entry) = self.queue.pop().expect("peeked");
            match entry.item {
                QueueItem::Timeout(pid, epoch) => {
                    let stale = self.procs[pid].wait_epoch != epoch
                        || !matches!(self.procs[pid].state, ProcState::Waiting { .. });
                    if stale {
                        continue;
                    }
                    if let ProcState::Waiting { event, .. } = self.procs[pid].state {
                        self.waiters.cancel(event, pid);
                    }
                    self.procs[pid].wait_epoch += 1;
                    self.procs[pid].state = ProcState::Runnable;
                    self.dispatch(pid, ResumeKind::TimedOut, horizon)?;
                }
                QueueItem::Resume(pid, kind) => {
                    if self.procs[pid].state == ProcState::Done {
                        continue;
                    }
                    self.dispatch(pid, kind, horizon)?;
                }
            }
        }
    }

    /// The earliest instant at which the loop would dispatch something
    /// other than the process it is about to run: what that process may
    /// run ahead to, exclusively (see [`SimCtx::advance`]).
    fn run_ahead_bound(&self, horizon: Time) -> Time {
        let mut bound = horizon.saturating_add(1);
        if let Some(Reverse(e)) = self.queue.peek() {
            bound = bound.min(e.time);
        }
        if let Some(Reverse(te)) = self.timed.peek() {
            bound = bound.min(te.time);
        }
        bound
    }

    /// Run `pid` until it switches back out, then apply side effects and
    /// the yield reason.
    fn dispatch(&mut self, pid: Pid, kind: ResumeKind, horizon: Time) -> Result<(), SimError> {
        self.stats.events_dispatched += 1;
        self.switches += 1;
        let bound = self.run_ahead_bound(horizon);
        let proc = &mut self.procs[pid];
        proc.dispatch_count += 1;
        let slice = proc
            .link
            .run_slice(&mut proc.fiber, kind, bound, &mut self.notifications);
        if slice.ran_ahead > 0 {
            // Each in-place advance stood in for pushing an entry with the
            // next sequence number onto an otherwise unchanged queue,
            // popping it straight back and dispatching it: account for
            // exactly that, and carry on as the last of those dispatches
            // (the process has moved the clock there itself).
            self.stats.events_dispatched += slice.ran_ahead;
            proc.dispatch_count += slice.ran_ahead;
            let depth = self.queue.len() as u64 + 1;
            self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth);
            self.seq += slice.ran_ahead;
        }
        self.apply_side_effects(pid, slice.spawns);
        let now = self.now();
        match slice.reason {
            YieldReason::Advance(dt) => {
                self.push(
                    now.saturating_add(dt),
                    QueueItem::Resume(pid, ResumeKind::Scheduled),
                );
            }
            YieldReason::Wait(event) => {
                let epoch = self.procs[pid].wait_epoch;
                self.procs[pid].state = ProcState::Waiting { event, epoch };
                self.waiters.register(event, pid);
            }
            YieldReason::WaitTimeout(event, dt) => {
                let epoch = self.procs[pid].wait_epoch;
                self.procs[pid].state = ProcState::Waiting { event, epoch };
                self.waiters.register(event, pid);
                self.push(now.saturating_add(dt), QueueItem::Timeout(pid, epoch));
            }
            YieldReason::Done => self.finish(pid),
            YieldReason::Panicked(message) => {
                self.finish(pid);
                let name = self.procs[pid].name.clone();
                return Err(SimError::ProcessPanicked { name, message });
            }
        }
        Ok(())
    }
}

impl Drop for Kernel {
    fn drop(&mut self) {
        // Take every process whose body is not over off its stack: a
        // suspended one unwinds (dropping its locals), a never-started
        // one drops its body unrun.
        self.clock.shutting_down.store(true, Ordering::Release);
        for proc in &mut self.procs {
            if let Some(fiber) = proc.fiber.take() {
                proc.link.kill(fiber);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering as AOrd};
    use std::sync::Arc;

    #[test]
    fn empty_kernel_completes() {
        let mut k = Kernel::new();
        assert!(k.run().is_ok());
        assert_eq!(k.now(), 0);
    }

    #[test]
    fn single_process_advances_time() {
        let mut k = Kernel::new();
        k.spawn("p", |ctx| {
            ctx.advance(10);
            ctx.advance(32);
        });
        k.run().unwrap();
        assert_eq!(k.now(), 42);
    }

    #[test]
    fn notify_wakes_waiter_at_notifier_time() {
        let mut k = Kernel::new();
        let e = k.alloc_event();
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        k.spawn("waiter", move |ctx| {
            ctx.wait(e);
            seen2.store(ctx.now(), AOrd::SeqCst);
        });
        k.spawn("notifier", move |ctx| {
            ctx.advance(777);
            ctx.notify(e);
        });
        k.run().unwrap();
        assert_eq!(seen.load(AOrd::SeqCst), 777);
    }

    #[test]
    fn notify_after_delivers_at_future_time() {
        let mut k = Kernel::new();
        let e = k.alloc_event();
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        k.spawn("waiter", move |ctx| {
            ctx.wait(e);
            seen2.store(ctx.now(), AOrd::SeqCst);
        });
        k.spawn("notifier", move |ctx| {
            ctx.advance(100);
            ctx.notify_after(e, 50);
            // Notifier finishes at 100; delivery still happens at 150.
        });
        k.run().unwrap();
        assert_eq!(seen.load(AOrd::SeqCst), 150);
        assert_eq!(k.now(), 150);
    }

    #[test]
    fn notify_after_zero_behaves_like_notify() {
        let mut k = Kernel::new();
        let e = k.alloc_event();
        let seen = Arc::new(AtomicU64::new(u64::MAX));
        let seen2 = Arc::clone(&seen);
        k.spawn("waiter", move |ctx| {
            ctx.wait(e);
            seen2.store(ctx.now(), AOrd::SeqCst);
        });
        k.spawn("notifier", move |ctx| {
            ctx.advance(5);
            ctx.notify_after(e, 0);
        });
        k.run().unwrap();
        assert_eq!(seen.load(AOrd::SeqCst), 5);
    }

    #[test]
    fn wait_timeout_fires_without_notification() {
        let mut k = Kernel::new();
        let e = k.alloc_event();
        let fired = Arc::new(AtomicU64::new(99));
        let f = Arc::clone(&fired);
        k.spawn("p", move |ctx| {
            let ok = ctx.wait_timeout(e, 50);
            f.store(u64::from(ok), AOrd::SeqCst);
            assert_eq!(ctx.now(), 50);
        });
        k.run().unwrap();
        assert_eq!(fired.load(AOrd::SeqCst), 0);
    }

    #[test]
    fn wait_timeout_notified_before_deadline() {
        let mut k = Kernel::new();
        let e = k.alloc_event();
        let fired = Arc::new(AtomicU64::new(99));
        let f = Arc::clone(&fired);
        k.spawn("p", move |ctx| {
            let ok = ctx.wait_timeout(e, 5_000);
            f.store(u64::from(ok), AOrd::SeqCst);
            assert_eq!(ctx.now(), 10);
        });
        k.spawn("n", move |ctx| {
            ctx.advance(10);
            ctx.notify(e);
        });
        k.run().unwrap();
        assert_eq!(fired.load(AOrd::SeqCst), 1);
    }

    #[test]
    fn deadlock_is_detected_and_named() {
        let mut k = Kernel::new();
        let e = k.alloc_event();
        k.spawn("stuck", move |ctx| {
            ctx.wait(e);
        });
        match k.run() {
            Err(SimError::Deadlock(info)) => {
                assert_eq!(info.blocked, vec!["stuck".to_string()]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn process_panic_is_reported() {
        let mut k = Kernel::new();
        k.spawn("bad", |_ctx| panic!("boom"));
        match k.run() {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!(name, "bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn runtime_spawn_runs_child() {
        let mut k = Kernel::new();
        let sum = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&sum);
        k.spawn("parent", move |ctx| {
            ctx.advance(3);
            let s2 = Arc::clone(&s);
            ctx.spawn("child", move |c| {
                c.advance(4);
                s2.store(c.now(), AOrd::SeqCst);
            });
            ctx.advance(100);
        });
        k.run().unwrap();
        assert_eq!(sum.load(AOrd::SeqCst), 7);
    }

    #[test]
    fn join_waits_for_child() {
        let mut k = Kernel::new();
        k.spawn("parent", |ctx| {
            let child = ctx.spawn("child", |c| {
                c.advance(500);
            });
            ctx.join(child);
            assert_eq!(ctx.now(), 500);
        });
        k.run().unwrap();
    }

    #[test]
    fn join_on_finished_process_returns_immediately() {
        let mut k = Kernel::new();
        k.spawn("parent", |ctx| {
            let child = ctx.spawn("quick", |_c| {});
            ctx.advance(1_000); // child finishes long before the join
            let before = ctx.now();
            ctx.join(child);
            assert_eq!(ctx.now(), before);
        });
        k.run().unwrap();
    }

    #[test]
    fn join_multiple_children_in_any_order() {
        let mut k = Kernel::new();
        k.spawn("parent", |ctx| {
            let slow = ctx.spawn("slow", |c| c.advance(900));
            let fast = ctx.spawn("fast", |c| c.advance(100));
            ctx.join(slow);
            ctx.join(fast);
            assert_eq!(ctx.now(), 900);
        });
        k.run().unwrap();
    }

    #[test]
    fn horizon_pauses_and_resumes() {
        let mut k = Kernel::new();
        k.spawn("p", |ctx| {
            ctx.advance(100);
            ctx.advance(100);
        });
        assert_eq!(k.run_until(150).unwrap(), RunOutcome::Horizon);
        assert_eq!(k.now(), 150);
        assert_eq!(k.run_until(1_000).unwrap(), RunOutcome::Completed);
        assert_eq!(k.now(), 200);
    }

    #[test]
    fn a_horizon_in_the_past_does_not_move_the_clock_back() {
        let mut k = Kernel::new();
        let e = k.alloc_event();
        let woken_at = Arc::new(AtomicU64::new(0));
        let w = Arc::clone(&woken_at);
        k.spawn("p", |ctx| {
            ctx.advance(100);
            ctx.advance(100);
        });
        k.spawn("waiter", move |ctx| {
            ctx.wait(e);
            w.store(ctx.now(), AOrd::SeqCst);
        });
        assert_eq!(k.run_until(150).unwrap(), RunOutcome::Horizon);
        assert_eq!(k.run_until(120).unwrap(), RunOutcome::Horizon);
        assert_eq!(k.now(), 150);
        // Woken at the instant the simulation is at, not one it had
        // already passed.
        k.notify(e);
        k.run().unwrap();
        assert_eq!(woken_at.load(AOrd::SeqCst), 150);
        assert_eq!(k.now(), 200);
    }

    #[test]
    fn same_time_events_dispatch_in_fifo_order() {
        let mut k = Kernel::new();
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        for i in 0..8 {
            let o = Arc::clone(&order);
            k.spawn(format!("p{i}"), move |ctx| {
                ctx.advance(10);
                o.lock().unwrap().push(i);
            });
        }
        k.run().unwrap();
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn determinism_two_runs_identical_stats() {
        fn run_once() -> (Time, KernelStats) {
            let mut k = Kernel::new();
            let e = k.alloc_event();
            for i in 0..10u64 {
                k.spawn(format!("w{i}"), move |ctx| {
                    ctx.advance(i * 7 + 1);
                    ctx.notify(e);
                    ctx.advance(3);
                });
            }
            k.spawn("collector", move |ctx| {
                for _ in 0..10 {
                    ctx.wait(e);
                }
            });
            k.run().unwrap();
            (k.now(), k.stats())
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn max_queue_depth_is_tracked() {
        let mut k = Kernel::new();
        for i in 0..16 {
            k.spawn(format!("p{i}"), |ctx| ctx.advance(1));
        }
        k.run().unwrap();
        let depth = k.stats().max_queue_depth;
        assert!(depth >= 16, "expected at least 16, got {depth}");
    }
}
