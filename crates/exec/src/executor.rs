//! The M:N scheduler: a fixed pool of worker threads multiplexing many
//! component fibers.
//!
//! ## Park/wake protocol
//!
//! Every task carries one atomic state:
//!
//! ```text
//! QUEUED   in a run queue (or being handed to a worker)
//! RUNNING  resumed on some worker right now
//! NOTIFIED running, and a wake arrived meanwhile
//! PARKED   suspended, waiting for a wake
//! FINISHED fiber returned; terminal
//! ```
//!
//! `wake` transitions `PARKED → QUEUED` (and enqueues) or
//! `RUNNING → NOTIFIED`; anything else is a no-op. The critical ordering
//! rule that makes lost wakeups impossible: a parking fiber yields
//! *first*, and only then does the **worker** — with the fiber context
//! fully saved — attempt `RUNNING → PARKED`. If that CAS fails a wake
//! slipped in (`NOTIFIED`), and the worker immediately requeues the task,
//! which re-checks its mailboxes on the next resume. A sender's mailbox
//! push is ordered before its wake call, so whichever side loses the race
//! the message is visible to the re-check. The conformance contract
//! already tolerates spurious wakes (the runtime re-checks around every
//! park), so the protocol only has to never *strand* a task.
//!
//! ## Work stealing
//!
//! Each worker owns a FIFO deque; `wake` pushes to the waking thread's
//! own deque when that thread is a pool worker, otherwise to a shared
//! injector. An idle worker steals the older half of a victim's deque
//! (two locks are never held at once — loot goes through a pre-sized
//! scratch buffer). All deques are pre-sized to the task count at deploy,
//! and a task occupies at most one queue slot, so steady-state scheduling
//! never allocates.
//!
//! ## Timers
//!
//! Timed parks (a timed receive, the restart pause) arm a per-task
//! deadline; armed task ids sit in one shared list. Idle workers fire
//! due deadlines before sleeping and sleep no longer than the earliest
//! armed deadline. Deadlines are lower
//! bounds (exactly like the thread backend's timeout slices): a fully
//! busy pool fires them as soon as a worker runs dry.

use std::sync::Arc;
use std::time::Duration;

use embera::sync::{
    AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Condvar, Instant, Mutex, Ordering,
};
use embera_fiber::{fiber_yield, on_fiber, Fiber, Resume};

pub(crate) const QUEUED: u8 = 0;
pub(crate) const RUNNING: u8 = 1;
pub(crate) const NOTIFIED: u8 = 2;
pub(crate) const PARKED: u8 = 3;
pub(crate) const FINISHED: u8 = 4;

const YIELD_PARK: u8 = 0;
const YIELD_COOP: u8 = 1;

/// Per-task scheduling state. Index in [`ExecShared::tasks`] is the task
/// id used everywhere (queues, mailbox owners, timers).
pub(crate) struct TaskCell {
    pub(crate) name: String,
    state: AtomicU8,
    /// Why the fiber last yielded (park vs cooperative requeue). Written
    /// by the fiber just before yielding, read by the worker right after
    /// the switch back — same thread, so ordering is trivial.
    yield_kind: AtomicU8,
    /// Armed wakeup deadline in executor-epoch nanoseconds.
    deadline_ns: AtomicU64,
    timer_armed: AtomicBool,
}

pub(crate) struct ExecShared {
    pub(crate) workers: usize,
    pub(crate) epoch: Instant,
    pub(crate) tasks: Vec<TaskCell>,
    shutdown: AtomicBool,
    /// Tasks currently occupying a run-queue slot.
    queued: AtomicUsize,
    /// Tasks not yet FINISHED.
    live: AtomicUsize,
    injector: Mutex<std::collections::VecDeque<usize>>,
    locals: Vec<Mutex<std::collections::VecDeque<usize>>>,
    /// Task ids with `timer_armed` set.
    timers: Mutex<Vec<usize>>,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    sleepers: AtomicUsize,
}

std::thread_local! {
    /// (ExecShared address, worker index) of the pool worker running on
    /// this thread, so `wake` can prefer the local deque. The address
    /// guards against cross-executor confusion when several apps run in
    /// one process.
    static WORKER: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, usize::MAX)) };
}

impl ExecShared {
    pub(crate) fn new(workers: usize, task_names: Vec<String>, epoch: Instant) -> ExecShared {
        let n = task_names.len();
        let tasks = task_names
            .into_iter()
            .map(|name| TaskCell {
                name,
                state: AtomicU8::new(QUEUED),
                yield_kind: AtomicU8::new(YIELD_PARK),
                deadline_ns: AtomicU64::new(u64::MAX),
                timer_armed: AtomicBool::new(false),
            })
            .collect();
        ExecShared {
            workers,
            epoch,
            tasks,
            shutdown: AtomicBool::new(false),
            queued: AtomicUsize::new(0),
            live: AtomicUsize::new(n),
            injector: Mutex::new(std::collections::VecDeque::with_capacity(n)),
            locals: (0..workers)
                .map(|_| Mutex::new(std::collections::VecDeque::with_capacity(n)))
                .collect(),
            timers: Mutex::new(Vec::with_capacity(n)),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
        }
    }

    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Distribute the initial QUEUED tasks across the local deques.
    /// Called once at deploy, before worker threads start.
    pub(crate) fn seed_queues(&self) {
        for id in 0..self.tasks.len() {
            self.locals[id % self.workers].lock().push_back(id);
        }
        self.queued.store(self.tasks.len(), Ordering::SeqCst);
    }

    fn enqueue(&self, id: usize) {
        let me = WORKER.get();
        let q = if me.0 == self as *const _ as usize && me.1 < self.workers {
            &self.locals[me.1]
        } else {
            &self.injector
        };
        q.lock().push_back(id);
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.notify_idle();
    }

    fn notify_idle(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.sleep_lock.lock();
            self.sleep_cv.notify_all();
        }
    }

    /// Wake a task: schedule it if parked, flag it if running. Returns
    /// whether this call changed anything (used by tests).
    pub(crate) fn wake(&self, id: usize) -> bool {
        let cell = &self.tasks[id];
        loop {
            match cell.state.load(Ordering::SeqCst) {
                PARKED => {
                    if cell
                        .state
                        .compare_exchange(PARKED, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.enqueue(id);
                        return true;
                    }
                }
                RUNNING => {
                    if cell
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return true;
                    }
                }
                // Already scheduled / flagged / done: the task is
                // guaranteed to re-check its mailboxes before parking
                // again, so there is nothing to do.
                NOTIFIED | QUEUED | FINISHED => return false,
                s => unreachable!("invalid task state {s}"),
            }
        }
    }

    /// Park the calling fiber until woken. May return spuriously; the
    /// shared runtime re-checks around every park.
    pub(crate) fn park(&self, id: usize) {
        debug_assert!(on_fiber(), "park outside a fiber");
        self.tasks[id]
            .yield_kind
            .store(YIELD_PARK, Ordering::Relaxed);
        fiber_yield();
    }

    /// Yield the calling fiber but stay runnable (cooperative fairness
    /// point for long send bursts).
    pub(crate) fn yield_coop(&self, id: usize) {
        debug_assert!(on_fiber(), "yield outside a fiber");
        self.tasks[id]
            .yield_kind
            .store(YIELD_COOP, Ordering::Relaxed);
        fiber_yield();
    }

    /// Arm (or move) this task's wakeup deadline, executor-epoch ns.
    pub(crate) fn arm_timer(&self, id: usize, deadline_ns: u64) {
        let cell = &self.tasks[id];
        cell.deadline_ns.store(deadline_ns, Ordering::SeqCst);
        if !cell.timer_armed.swap(true, Ordering::SeqCst) {
            self.timers.lock().push(id);
        }
        // A sleeping worker may hold a stale (later) earliest-deadline;
        // kick one awake so the sleep timeout is recomputed.
        self.notify_idle();
    }

    /// Set the shutdown flag and wake everything: every task (so parked
    /// fibers drain out through their `is_shutdown` re-checks) and every
    /// sleeping worker. Idempotent.
    pub(crate) fn signal_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for id in 0..self.tasks.len() {
            self.wake(id);
        }
        let _g = self.sleep_lock.lock();
        self.sleep_cv.notify_all();
    }

    fn fire_due_timers(&self, scratch: &mut Vec<usize>) {
        let now = self.now_ns();
        scratch.clear();
        {
            let mut timers = self.timers.lock();
            timers.retain(|&id| {
                let cell = &self.tasks[id];
                if cell.deadline_ns.load(Ordering::SeqCst) <= now
                    || cell.state.load(Ordering::SeqCst) == FINISHED
                {
                    cell.timer_armed.store(false, Ordering::SeqCst);
                    scratch.push(id);
                    false
                } else {
                    true
                }
            });
        }
        for &id in scratch.iter() {
            self.wake(id);
        }
    }

    fn next_timer_deadline(&self) -> Option<u64> {
        let timers = self.timers.lock();
        timers
            .iter()
            .map(|&id| self.tasks[id].deadline_ns.load(Ordering::SeqCst))
            .min()
    }

    fn find_work(&self, wid: usize, loot: &mut Vec<usize>) -> Option<usize> {
        if let Some(id) = self.locals[wid].lock().pop_front() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(id);
        }
        if let Some(id) = self.injector.lock().pop_front() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(id);
        }
        // Steal the older half of the first non-empty victim. Loot moves
        // through `loot` so two deque locks are never held at once.
        for k in 1..self.workers {
            let victim = (wid + k) % self.workers;
            loot.clear();
            {
                let mut q = self.locals[victim].lock();
                let take = q.len().div_ceil(2);
                for _ in 0..take {
                    loot.push(q.pop_front().expect("len checked"));
                }
            }
            if let Some((&first, rest)) = loot.split_first() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                if !rest.is_empty() {
                    let mut mine = self.locals[wid].lock();
                    for &id in rest {
                        mine.push_back(id);
                    }
                }
                return Some(first);
            }
        }
        None
    }

    fn all_done(&self) -> bool {
        self.is_shutdown() && self.live.load(Ordering::SeqCst) == 0
    }
}

/// Body of one pool worker thread.
pub(crate) fn worker_loop(
    shared: Arc<ExecShared>,
    fibers: Arc<Vec<Mutex<Option<Fiber>>>>,
    wid: usize,
) {
    WORKER.set((Arc::as_ptr(&shared) as usize, wid));
    let ntasks = shared.tasks.len();
    let mut loot: Vec<usize> = Vec::with_capacity(ntasks);
    let mut due: Vec<usize> = Vec::with_capacity(ntasks);
    loop {
        if let Some(id) = shared.find_work(wid, &mut loot) {
            run_task(&shared, &fibers, wid, id);
            continue;
        }
        shared.fire_due_timers(&mut due);
        if let Some(id) = shared.find_work(wid, &mut loot) {
            run_task(&shared, &fibers, wid, id);
            continue;
        }
        if shared.all_done() {
            break;
        }
        // Sleep until new work, a timer deadline, or shutdown. The
        // earliest deadline is computed *before* taking the sleep lock
        // (lock order: sleep_lock is innermost); a timer armed after
        // this line is covered by the arming thread's notify_idle and by
        // the armer's own worker recomputing when it next runs dry.
        let deadline = shared.next_timer_deadline();
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        {
            let mut g = shared.sleep_lock.lock();
            if shared.queued.load(Ordering::SeqCst) == 0 && !shared.all_done() {
                g = match deadline {
                    Some(d) => {
                        let until = shared.epoch + Duration::from_nanos(d);
                        shared.sleep_cv.wait_until(g, until)
                    }
                    None => shared.sleep_cv.wait(g),
                };
            }
        }
        shared.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
    // Make sure peers re-check the exit condition promptly.
    let _g = shared.sleep_lock.lock();
    shared.sleep_cv.notify_all();
}

fn run_task(
    shared: &Arc<ExecShared>,
    fibers: &Arc<Vec<Mutex<Option<Fiber>>>>,
    wid: usize,
    id: usize,
) {
    let cell = &shared.tasks[id];
    cell.state.store(RUNNING, Ordering::SeqCst);
    let mut fiber = fibers[id]
        .lock()
        .take()
        .unwrap_or_else(|| panic!("task '{}' scheduled on two workers at once", cell.name));
    match fiber.resume() {
        Resume::Finished => {
            cell.state.store(FINISHED, Ordering::SeqCst);
            drop(fiber);
            if shared.live.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last task: sleeping workers must wake up and exit.
                let _g = shared.sleep_lock.lock();
                shared.sleep_cv.notify_all();
            }
        }
        Resume::Yielded => {
            // The fiber slot must be refilled BEFORE the task becomes
            // claimable (PARKED/QUEUED), or a waking worker could find
            // the slot empty.
            *fibers[id].lock() = Some(fiber);
            if cell.yield_kind.load(Ordering::Relaxed) == YIELD_COOP {
                cell.state.store(QUEUED, Ordering::SeqCst);
                shared.locals[wid].lock().push_back(id);
                shared.queued.fetch_add(1, Ordering::SeqCst);
                shared.notify_idle();
            } else if cell
                .state
                .compare_exchange(RUNNING, PARKED, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                // A wake landed while the fiber was running (NOTIFIED):
                // requeue so the task re-checks its mailboxes.
                cell.state.store(QUEUED, Ordering::SeqCst);
                shared.locals[wid].lock().push_back(id);
                shared.queued.fetch_add(1, Ordering::SeqCst);
                shared.notify_idle();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_with(names: &[&str], workers: usize) -> Arc<ExecShared> {
        Arc::new(ExecShared::new(
            workers,
            names.iter().map(|s| s.to_string()).collect(),
            Instant::now(),
        ))
    }

    #[test]
    fn wake_on_parked_task_queues_it_once() {
        let s = shared_with(&["a"], 1);
        s.tasks[0].state.store(PARKED, Ordering::SeqCst);
        assert!(s.wake(0));
        assert!(!s.wake(0), "second wake on a queued task is a no-op");
        assert_eq!(s.queued.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn wake_on_running_task_sets_notified() {
        let s = shared_with(&["a"], 1);
        s.tasks[0].state.store(RUNNING, Ordering::SeqCst);
        assert!(s.wake(0));
        assert_eq!(s.tasks[0].state.load(Ordering::SeqCst), NOTIFIED);
        assert!(!s.wake(0));
        assert_eq!(s.queued.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn timers_fire_only_when_due() {
        let s = shared_with(&["a"], 1);
        s.tasks[0].state.store(PARKED, Ordering::SeqCst);
        s.arm_timer(0, s.now_ns() + 50_000_000);
        let mut scratch = Vec::new();
        s.fire_due_timers(&mut scratch);
        assert_eq!(s.tasks[0].state.load(Ordering::SeqCst), PARKED);
        s.tasks[0].deadline_ns.store(0, Ordering::SeqCst);
        s.fire_due_timers(&mut scratch);
        assert_eq!(s.tasks[0].state.load(Ordering::SeqCst), QUEUED);
        assert!(s.next_timer_deadline().is_none(), "fired timer is removed");
    }
}
