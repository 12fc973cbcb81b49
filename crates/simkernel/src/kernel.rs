//! The discrete-event kernel: event queue, scheduling loop, determinism,
//! and the sharded parallel execution modes.
//!
//! # Execution modes
//!
//! The kernel picks one of three algorithms from its [`KernelConfig`]:
//!
//! * **Sequential** (`shards == 1`, the default): the classic single
//!   `BinaryHeap` loop — one event popped at a time in `(time, seq)`
//!   order.
//! * **Threadsafe fallback** (`shards > 1`, lookahead `0`): the *same*
//!   sequential algorithm running over a shared
//!   `Mutex<BinaryHeap<Reverse<Entry>>>`. Whenever the minimum
//!   cross-shard channel latency collapses to zero there is no sound
//!   window to run shards concurrently in, so the kernel degrades to
//!   this queue and stays byte-identical to sequential execution by
//!   construction — correctness never depends on the partition.
//! * **Windowed parallel** (`shards > 1`, lookahead `> 0`): conservative
//!   parallel discrete-event simulation. Processes are partitioned into
//!   shards, each shard owns a local event heap, and all shards advance
//!   concurrently inside the time window `[T, T + lookahead)` where `T`
//!   is the global minimum pending event time. Cross-shard communication
//!   must use [`SimCtx::notify_after`] with `dt >= lookahead` (e.g. via
//!   [`LatentChannel`](crate::channel::LatentChannel)); deliveries are
//!   exchanged only at window boundaries and merged in the canonical
//!   `(time, producer pid, dispatch index, effect index)` order, so the
//!   schedule is independent of how shards interleave on the host.
//!
//! # Why determinism survives windowing
//!
//! Within a shard, events run in local `(time, seq)` order — the same
//! relative order the sequential kernel would use for that subset,
//! because a shard's pushes happen in its own dispatch order. Across
//! shards, the only interactions are timed notifications, which carry a
//! partition-independent tag and are applied single-threaded at window
//! boundaries in tag order with fresh global sequence numbers. Per-window
//! sequence numbers are drawn from disjoint per-shard blocks so no two
//! shards can mint the same `(time, seq)` key, and the block base always
//! exceeds every previously assigned number, preserving the global
//! old-before-new tie-break at equal times. Violations of the protocol
//! (zero-delay cross-shard wakeups, in-window spawns, `dt < lookahead`)
//! are *errors*, not silent nondeterminism — see
//! [`SimError::LookaheadViolation`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use embera_fiber::Fiber;
use parking_lot::Mutex;

use crate::error::{DeadlockInfo, SimError};
use crate::process::{
    process_fiber, Directory, EventId, Link, Pid, ProcessBody, ResumeKind, SharedClock, SimCtx,
    Slice, SpawnRequest, YieldReason,
};
use crate::Time;

/// Per-window sequence numbers are drawn from disjoint per-shard blocks
/// of this size; the global counter jumps past all blocks at each window
/// boundary.
const SEQ_BLOCK: u64 = 1 << 32;

/// Outcome of [`Kernel::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All non-daemon processes completed.
    Completed,
    /// The horizon was reached with work still pending.
    Horizon,
}

/// How the kernel executes: number of shards and the conservative window
/// width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelConfig {
    /// Number of process shards. `1` (the default) is the sequential
    /// kernel; `> 1` enables the parallel modes described in the
    /// [module docs](self).
    pub shards: usize,
    /// Conservative window width in virtual nanoseconds. `0` (the
    /// default) derives the lookahead from the minimum latency declared
    /// by [`Kernel::declare_latency`] (e.g. by
    /// [`LatentChannel`](crate::channel::LatentChannel)); if latencies
    /// are declared *and* this is set, the smaller wins.
    pub lookahead: Time,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            shards: 1,
            lookahead: 0,
        }
    }
}

impl KernelConfig {
    /// Set the shard count (clamped to at least 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Set an explicit lookahead window.
    pub fn lookahead(mut self, lookahead: Time) -> Self {
        self.lookahead = lookahead;
        self
    }
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
    /// High-water mark of the event queue (per shard-local queue under
    /// windowed execution); an event a process ran ahead over counts as
    /// the push it stood for. The queue is pre-sized to twice the number
    /// of processes — a resume and a timeout in flight each — and this
    /// gauge says whether that sufficed.
    pub max_queue_depth: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueItem {
    Resume(Pid, ResumeKind),
    /// Timeout check for a process that issued `wait_timeout`; `epoch`
    /// invalidates the check if the process was notified first.
    Timeout(Pid, u64),
}

impl QueueItem {
    fn pid(&self) -> Pid {
        match *self {
            QueueItem::Resume(pid, _) | QueueItem::Timeout(pid, _) => pid,
        }
    }
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

/// Partition-independent identity of one side effect: which process
/// produced it, during which of its dispatches, at which position in the
/// effect stream of that dispatch. Together with the delivery time this
/// totally orders timed notifications the same way for every shard
/// count.
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

/// A registered waiter, remembering the `(time, seq)` of the dispatch
/// that registered it. Wakeups are applied in this order — which is
/// exactly registration order under sequential execution, and the
/// canonical cross-shard order under windowed execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Waiter {
    pid: Pid,
    reg: (Time, u64),
}

/// Multiply-shift hasher for [`EventId`] keys: one multiply, the high
/// half shifted down onto the low so that both the bucket index and the
/// tag bits the table takes from either end are mixed. The ids are a
/// counter the kernel itself hands out, so there is no crafted key to
/// defend against and SipHash bought nothing.
#[derive(Default)]
struct EventIdHasher(u64);

impl Hasher for EventIdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("an EventId hashes as one u64");
    }

    fn write_u64(&mut self, id: u64) {
        let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Who waits on which event. A notification drains the event's whole
/// waiter list; the emptied vectors go round through a small free list
/// so the wait→notify cycle of a semaphore or a channel allocates
/// nothing in steady state.
#[derive(Default)]
struct Waiters {
    by_event: HashMap<EventId, Vec<Waiter>, BuildHasherDefault<EventIdHasher>>,
    free: Vec<Vec<Waiter>>,
}

impl Waiters {
    /// Emptied waiter vectors kept for reuse.
    const FREE_LISTS: usize = 32;

    fn register(&mut self, event: EventId, waiter: Waiter) {
        self.by_event
            .entry(event)
            .or_insert_with(|| self.free.pop().unwrap_or_default())
            .push(waiter);
    }

    /// Remove and return the waiters of `event` in canonical wake order.
    /// Sequential registration already appends in `(time, seq)` order, so
    /// the sort is a no-op there; it matters for waiters registered by
    /// concurrent shards. Hand the vector back with
    /// [`recycle`](Self::recycle) once drained.
    fn take(&mut self, event: EventId) -> Option<Vec<Waiter>> {
        let mut waiters = self.by_event.remove(&event)?;
        waiters.sort_unstable_by_key(|w| w.reg);
        Some(waiters)
    }

    fn recycle(&mut self, mut waiters: Vec<Waiter>) {
        if self.free.len() < Self::FREE_LISTS {
            waiters.clear();
            self.free.push(waiters);
        }
    }

    /// Withdraw `pid`'s registration on `event` (its timeout fired).
    fn cancel(&mut self, event: EventId, pid: Pid) {
        if let Some(waiters) = self.by_event.get_mut(&event) {
            waiters.retain(|w| w.pid != pid);
            if waiters.is_empty() {
                let emptied = self.by_event.remove(&event).expect("just seen");
                self.recycle(emptied);
            }
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
    shard: usize,
    link: Arc<Link>,
    /// The process's stack; `None` once its body is over.
    fiber: Option<Fiber>,
    state: ProcState,
    daemon: bool,
    /// Bumped every time the process blocks; stale timeout checks compare
    /// against it.
    wait_epoch: u64,
    /// Total dispatches of this process, the middle component of
    /// [`EffectTag`].
    dispatch_count: u64,
}

/// The event queue behind the sequential loop: a plain heap, or the
/// shared mutex-protected heap the zero-lookahead fallback runs on.
enum EventQueue {
    Local(BinaryHeap<Reverse<Entry>>),
    Shared(Arc<Mutex<BinaryHeap<Reverse<Entry>>>>),
}

impl EventQueue {
    /// Entries the queue holds before its first regrowth; spawning keeps
    /// it ahead of demand from there.
    const INITIAL_CAPACITY: usize = 64;

    fn new(shared: bool) -> Self {
        let heap = BinaryHeap::with_capacity(Self::INITIAL_CAPACITY);
        if shared {
            EventQueue::Shared(Arc::new(Mutex::new(heap)))
        } else {
            EventQueue::Local(heap)
        }
    }

    /// Push an entry, returning the queue depth after the push.
    fn push(&mut self, entry: Entry) -> usize {
        match self {
            EventQueue::Local(h) => {
                h.push(Reverse(entry));
                h.len()
            }
            EventQueue::Shared(m) => {
                let mut h = m.lock();
                h.push(Reverse(entry));
                h.len()
            }
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        match self {
            EventQueue::Local(h) => h.pop().map(|Reverse(e)| e),
            EventQueue::Shared(m) => m.lock().pop().map(|Reverse(e)| e),
        }
    }

    fn peek_key(&self) -> Option<(Time, u64)> {
        match self {
            EventQueue::Local(h) => h.peek().map(|Reverse(e)| (e.time, e.seq)),
            EventQueue::Shared(m) => m.lock().peek().map(|Reverse(e)| (e.time, e.seq)),
        }
    }

    fn len(&self) -> usize {
        match self {
            EventQueue::Local(h) => h.len(),
            EventQueue::Shared(m) => m.lock().len(),
        }
    }

    /// Grow the backing heap so at least `want` entries fit without
    /// reallocation.
    fn ensure_capacity(&mut self, want: usize) {
        match self {
            EventQueue::Local(h) => {
                if h.capacity() < want {
                    h.reserve(want - h.len());
                }
            }
            EventQueue::Shared(m) => {
                let mut h = m.lock();
                if h.capacity() < want {
                    let len = h.len();
                    h.reserve(want - len);
                }
            }
        }
    }
}

/// Deterministic discrete-event simulation kernel.
///
/// See the [crate-level documentation](crate) for the execution model and
/// the [module documentation](self) for the sharded modes.
pub struct Kernel {
    config: KernelConfig,
    procs: Vec<ProcEntry>,
    queue: EventQueue,
    /// Deferred notifications ([`SimCtx::notify_after`]), delivered in
    /// canonical `(time, tag)` order.
    timed: BinaryHeap<Reverse<TimedEntry>>,
    waiters: Waiters,
    clock: Arc<SharedClock>,
    /// One virtual-time cell per shard, read by that shard's processes.
    shard_clocks: Vec<Arc<AtomicU64>>,
    directory: Arc<Directory>,
    seq: u64,
    stats: KernelStats,
    /// Minimum latency declared by channels, the default lookahead.
    min_latency: Option<Time>,
    /// Non-daemon processes that have not finished; the run is complete
    /// at zero.
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
    /// Create an empty sequential kernel at virtual time zero.
    pub fn new() -> Self {
        Self::with_config(KernelConfig::default())
    }

    /// Create an empty kernel with an explicit execution configuration.
    pub fn with_config(config: KernelConfig) -> Self {
        let shards = config.shards.max(1);
        Kernel {
            procs: Vec::new(),
            queue: EventQueue::new(shards > 1),
            timed: BinaryHeap::new(),
            waiters: Waiters::default(),
            clock: Arc::new(SharedClock::new()),
            shard_clocks: (0..shards).map(|_| Arc::new(AtomicU64::new(0))).collect(),
            directory: Arc::new(Directory::default()),
            seq: 0,
            stats: KernelStats::default(),
            min_latency: None,
            unfinished: 0,
            notifications: VecDeque::new(),
            switches: 0,
            config,
        }
    }

    /// The execution configuration this kernel was built with.
    pub fn config(&self) -> &KernelConfig {
        &self.config
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
    /// depends on the execution mode — a shard window is a tighter bound
    /// than the sequential queue — which is why it is not a field of
    /// [`KernelStats`], whose values are the same for every shard count.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Allocate a fresh event token from outside the simulation.
    pub fn alloc_event(&self) -> EventId {
        EventId(self.clock.next_event_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Record that some channel in the simulation carries `latency`
    /// nanoseconds of modeled delay. The minimum declared latency is the
    /// default lookahead for windowed execution; declaring `0` collapses
    /// the lookahead and forces the threadsafe fallback.
    pub fn declare_latency(&mut self, latency: Time) {
        self.min_latency = Some(match self.min_latency {
            Some(cur) => cur.min(latency),
            None => latency,
        });
    }

    /// The window width windowed execution would use: the explicit
    /// [`KernelConfig::lookahead`] and/or the minimum declared channel
    /// latency, whichever is smaller (0 = no sound window, fallback).
    pub fn effective_lookahead(&self) -> Time {
        match (self.config.lookahead, self.min_latency) {
            (0, Some(m)) => m,
            (la, Some(m)) => la.min(m),
            (la, None) => la,
        }
    }

    /// Spawn a simulated process; it becomes runnable at the current
    /// virtual time. Returns its [`Pid`]. Processes are assigned to
    /// shards round-robin (`pid % shards`); use [`Kernel::spawn_on`] to
    /// pin placement.
    pub fn spawn<F>(&mut self, name: impl Into<String>, body: F) -> Pid
    where
        F: FnOnce(SimCtx) + Send + 'static,
    {
        self.spawn_inner(name.into(), Box::new(body), false, None, None)
    }

    /// Spawn a process pinned to a shard (`shard % shards`, so callers
    /// may pass a natural affinity key such as a CPU index directly).
    pub fn spawn_on<F>(&mut self, shard: usize, name: impl Into<String>, body: F) -> Pid
    where
        F: FnOnce(SimCtx) + Send + 'static,
    {
        self.spawn_inner(name.into(), Box::new(body), false, None, Some(shard))
    }

    /// Spawn a *daemon* process: the simulation is considered complete
    /// once every non-daemon process has finished, even if daemons are
    /// still blocked or have pending events.
    pub fn spawn_daemon<F>(&mut self, name: impl Into<String>, body: F) -> Pid
    where
        F: FnOnce(SimCtx) + Send + 'static,
    {
        self.spawn_inner(name.into(), Box::new(body), true, None, None)
    }

    fn spawn_inner(
        &mut self,
        name: String,
        body: ProcessBody,
        daemon: bool,
        reserved: Option<Pid>,
        shard_hint: Option<usize>,
    ) -> Pid {
        // Pids are allocated by the shared directory so runtime spawns
        // (which reserve before the kernel materializes them) stay
        // aligned with the kernel's process table.
        let pid = reserved.unwrap_or_else(|| self.directory.reserve(self.alloc_event()));
        debug_assert_eq!(pid, self.procs.len(), "directory/kernel pid skew");
        let nshards = self.shard_clocks.len();
        let shard = shard_hint.map_or(pid % nshards, |s| s % nshards);
        let link = Arc::new(Link::default());
        let ctx = SimCtx {
            pid,
            name: name.clone(),
            link: Arc::clone(&link),
            clock: Arc::clone(&self.clock),
            now_cell: Arc::clone(&self.shard_clocks[shard]),
            directory: Arc::clone(&self.directory),
        };
        self.procs.push(ProcEntry {
            name,
            shard,
            link,
            fiber: Some(process_fiber(ctx, body)),
            state: ProcState::Runnable,
            daemon,
            wait_epoch: 0,
            dispatch_count: 0,
        });
        self.stats.processes_spawned += 1;
        if !daemon {
            self.unfinished += 1;
        }
        // Pre-size ahead of demand: each process typically keeps at most
        // a resume plus a timeout in flight.
        self.queue.ensure_capacity(self.procs.len() * 2);
        let now = self.now();
        self.push(now, QueueItem::Resume(pid, ResumeKind::Scheduled));
        pid
    }

    /// Notify an event from outside the simulation (e.g. test drivers).
    /// Waiters are woken at the current virtual time.
    pub fn notify(&mut self, event: EventId) {
        self.deliver_notification(event);
    }

    /// Has the process finished?
    pub fn is_done(&self, pid: Pid) -> bool {
        self.procs[pid].state == ProcState::Done
    }

    /// Name of a process.
    pub fn process_name(&self, pid: Pid) -> &str {
        &self.procs[pid].name
    }

    /// Shard a process was assigned to.
    pub fn shard_of(&self, pid: Pid) -> usize {
        self.procs[pid].shard
    }

    fn push(&mut self, time: Time, item: QueueItem) {
        let seq = self.seq;
        self.seq += 1;
        let depth = self.queue.push(Entry { time, seq, item });
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth as u64);
    }

    fn deliver_notification(&mut self, event: EventId) {
        if let Some(mut waiters) = self.waiters.take(event) {
            let now = self.now();
            for w in waiters.drain(..) {
                // The waiter's epoch advances so stale timeout checks
                // become no-ops.
                self.procs[w.pid].wait_epoch += 1;
                self.procs[w.pid].state = ProcState::Runnable;
                self.stats.notifications_delivered += 1;
                self.push(now, QueueItem::Resume(w.pid, ResumeKind::Notified));
            }
            self.waiters.recycle(waiters);
        }
    }

    /// Apply what the slice `pid` just ran left behind: the notifications
    /// in `self.notifications`, then its spawn requests.
    fn apply_side_effects(&mut self, pid: Pid, spawns: Vec<SpawnRequest>) {
        let shard = self.procs[pid].shard;
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
            // Children inherit their parent's shard so runtime process
            // trees stay local.
            self.spawn_inner(child.name, child.body, false, Some(child.pid), Some(shard));
        }
    }

    /// Mark `pid` finished and wake its joiners.
    fn finish(&mut self, pid: Pid) {
        self.procs[pid].state = ProcState::Done;
        if !self.procs[pid].daemon {
            self.unfinished -= 1;
        }
        let completion = self.directory.mark_finished(pid);
        self.deliver_notification(completion);
    }

    fn blocked_names(&self) -> Vec<String> {
        self.procs
            .iter()
            .filter(|p| matches!(p.state, ProcState::Waiting { .. }) && !p.daemon)
            .map(|p| p.name.clone())
            .collect()
    }

    /// Run the simulation until all non-daemon processes complete.
    pub fn run(&mut self) -> Result<(), SimError> {
        match self.run_until(Time::MAX)? {
            RunOutcome::Completed => Ok(()),
            RunOutcome::Horizon => unreachable!("horizon is Time::MAX"),
        }
    }

    /// Run the simulation until all non-daemon processes complete or the
    /// virtual clock would pass `horizon`.
    pub fn run_until(&mut self, horizon: Time) -> Result<RunOutcome, SimError> {
        let nshards = self.config.shards.max(1);
        let lookahead = self.effective_lookahead();
        if nshards > 1 && lookahead > 0 {
            self.run_windowed(horizon, nshards, lookahead)
        } else {
            self.run_sequential(horizon)
        }
    }

    /// The sequential scheduling loop, shared by the default mode and the
    /// zero-lookahead threadsafe fallback (which only swaps the queue
    /// representation).
    fn run_sequential(&mut self, horizon: Time) -> Result<RunOutcome, SimError> {
        loop {
            if self.unfinished == 0 && !self.procs.is_empty() {
                return Ok(RunOutcome::Completed);
            }
            // Next source: the timed-notification heap or the event queue;
            // timed deliveries win ties so a wakeup at time t precedes the
            // seq-ordered entries it creates at t.
            let take_timed = match (self.timed.peek(), self.queue.peek_key()) {
                (Some(Reverse(t)), Some((qt, _))) => t.time <= qt,
                (Some(_), None) => true,
                (None, Some(_)) => false,
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
            if take_timed {
                let time = self.timed.peek().map(|Reverse(t)| t.time).expect("peeked");
                if time > horizon {
                    self.clock.now.store(horizon, Ordering::Release);
                    return Ok(RunOutcome::Horizon);
                }
                let Reverse(te) = self.timed.pop().expect("peeked");
                self.clock.now.store(te.time, Ordering::Release);
                self.deliver_notification(te.event);
                continue;
            }
            let entry = match self.queue.pop() {
                Some(e) => e,
                None => unreachable!("queue head vanished"),
            };
            if entry.time > horizon {
                // Not consumed: push back so a later run_until can resume.
                self.queue.push(entry);
                self.clock.now.store(horizon, Ordering::Release);
                return Ok(RunOutcome::Horizon);
            }
            debug_assert!(entry.time >= self.now(), "time went backwards");
            self.clock.now.store(entry.time, Ordering::Release);
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
                    self.dispatch(pid, ResumeKind::TimedOut, (entry.time, entry.seq), horizon)?;
                }
                QueueItem::Resume(pid, kind) => {
                    if self.procs[pid].state == ProcState::Done {
                        continue;
                    }
                    self.dispatch(pid, kind, (entry.time, entry.seq), horizon)?;
                }
            }
        }
    }

    /// The earliest instant at which the sequential loop would dispatch
    /// something other than the process it is about to run: what that
    /// process may run ahead to, exclusively (see
    /// [`SimCtx::advance`]).
    fn run_ahead_bound(&self, horizon: Time) -> Time {
        let mut bound = horizon.saturating_add(1);
        if let Some((time, _)) = self.queue.peek_key() {
            bound = bound.min(time);
        }
        if let Some(Reverse(te)) = self.timed.peek() {
            bound = bound.min(te.time);
        }
        bound
    }

    /// Run `pid` until it switches back out, then apply side effects and
    /// the yield reason. `key` is the `(time, seq)` of the dispatching
    /// entry, recorded on any wait this slice registers.
    fn dispatch(
        &mut self,
        pid: Pid,
        kind: ResumeKind,
        mut key: (Time, u64),
        horizon: Time,
    ) -> Result<(), SimError> {
        self.stats.events_dispatched += 1;
        self.switches += 1;
        let bound = self.run_ahead_bound(horizon);
        let proc = &mut self.procs[pid];
        proc.dispatch_count += 1;
        let shard_clock = &self.shard_clocks[proc.shard];
        shard_clock.store(key.0, Ordering::Release);
        let slice = proc
            .link
            .run_slice(&mut proc.fiber, kind, bound, &mut self.notifications);
        if slice.ran_ahead > 0 {
            // Each in-place advance stood in for pushing an entry with the
            // next sequence number onto an otherwise unchanged queue,
            // popping it straight back and dispatching it: account for
            // exactly that, and carry on as the last of those dispatches.
            let now = shard_clock.load(Ordering::Acquire);
            self.clock.now.store(now, Ordering::Release);
            self.stats.events_dispatched += slice.ran_ahead;
            proc.dispatch_count += slice.ran_ahead;
            let depth = self.queue.len() as u64 + 1;
            self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth);
            self.seq += slice.ran_ahead;
            key = (now, self.seq - 1);
        }
        self.apply_side_effects(pid, slice.spawns);
        let now = self.now();
        match slice.reason {
            YieldReason::Advance(dt) => {
                self.push(now.saturating_add(dt), QueueItem::Resume(pid, ResumeKind::Scheduled));
            }
            YieldReason::Wait(event) => {
                let epoch = self.procs[pid].wait_epoch;
                self.procs[pid].state = ProcState::Waiting { event, epoch };
                self.waiters.register(event, Waiter { pid, reg: key });
            }
            YieldReason::WaitTimeout(event, dt) => {
                let epoch = self.procs[pid].wait_epoch;
                self.procs[pid].state = ProcState::Waiting { event, epoch };
                self.waiters.register(event, Waiter { pid, reg: key });
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

    /// Conservative windowed parallel execution (see the module docs).
    fn run_windowed(
        &mut self,
        horizon: Time,
        nshards: usize,
        lookahead: Time,
    ) -> Result<RunOutcome, SimError> {
        // Pull the global queue apart into shard-local heaps; entries keep
        // their (time, seq) keys so local order matches global order.
        let mut shard_heaps: Vec<BinaryHeap<Reverse<Entry>>> = (0..nshards)
            .map(|_| BinaryHeap::with_capacity(self.queue.len() / nshards + 8))
            .collect();
        while let Some(e) = self.queue.pop() {
            let shard = self.procs[e.item.pid()].shard;
            shard_heaps[shard].push(Reverse(e));
        }

        let result = 'run: loop {
            if self.unfinished == 0 && !self.procs.is_empty() {
                break 'run Ok(RunOutcome::Completed);
            }
            let next_queue = shard_heaps
                .iter()
                .filter_map(|h| h.peek().map(|Reverse(e)| e.time))
                .min();
            let next_timed = self.timed.peek().map(|Reverse(t)| t.time);
            let t = match (next_queue, next_timed) {
                (Some(q), Some(d)) => q.min(d),
                (Some(q), None) => q,
                (None, Some(d)) => d,
                (None, None) => {
                    if self.unfinished == 0 {
                        break 'run Ok(RunOutcome::Completed);
                    }
                    break 'run Err(SimError::Deadlock(DeadlockInfo {
                        at: self.now(),
                        blocked: self.blocked_names(),
                    }));
                }
            };
            if t > horizon {
                self.clock.now.store(horizon, Ordering::Release);
                break 'run Ok(RunOutcome::Horizon);
            }
            debug_assert!(t < Time::MAX, "windowed execution requires event times < Time::MAX");

            // Boundary phase (single-threaded): deliver the timed
            // notifications whose time *is* the global minimum, in
            // canonical (time, tag) order, pushing wakeups into the
            // waiters' shard heaps with fresh global sequence numbers.
            // Only the at-minimum entries are safe to deliver: every
            // shard has simulated up to t, so the waiter registrations
            // visible now are exactly the ones the sequential kernel
            // would see at t. Later deliveries wait for their own
            // boundary — and the window below never runs past them.
            while let Some(&Reverse(te)) = self.timed.peek() {
                if te.time > t {
                    break;
                }
                self.timed.pop();
                self.clock.now.store(te.time, Ordering::Release);
                if let Some(mut ws) = self.waiters.take(te.event) {
                    for w in ws.drain(..) {
                        self.procs[w.pid].wait_epoch += 1;
                        self.procs[w.pid].state = ProcState::Runnable;
                        self.stats.notifications_delivered += 1;
                        let seq = self.seq;
                        self.seq += 1;
                        let shard = self.procs[w.pid].shard;
                        shard_heaps[shard].push(Reverse(Entry {
                            time: te.time,
                            seq,
                            item: QueueItem::Resume(w.pid, ResumeKind::Notified),
                        }));
                    }
                    self.waiters.recycle(ws);
                }
            }
            // The window may not overrun the earliest still-pending
            // delivery: its waiter set is only complete once the global
            // clock reaches it.
            let mut window_end = t
                .saturating_add(lookahead)
                .min(horizon.saturating_add(1));
            if let Some(&Reverse(te)) = self.timed.peek() {
                window_end = window_end.min(te.time);
            }

            // Window phase: one worker per shard, each running its local
            // heap up to (but excluding) window_end.
            let seq_base = self.seq;
            let directory = Arc::clone(&self.directory);
            let cells: Vec<Arc<AtomicU64>> = self.shard_clocks.clone();
            let waiters_mx = Mutex::new(std::mem::take(&mut self.waiters));
            let unfinished = AtomicUsize::new(self.unfinished);
            let outcomes: Vec<ShardWindowOutcome> = {
                let mut parts: Vec<Vec<(Pid, &mut ProcEntry)>> =
                    (0..nshards).map(|_| Vec::new()).collect();
                for (pid, p) in self.procs.iter_mut().enumerate() {
                    parts[p.shard].push((pid, p));
                }
                std::thread::scope(|s| {
                    let handles: Vec<_> = parts
                        .into_iter()
                        .zip(shard_heaps.iter_mut())
                        .enumerate()
                        .map(|(shard, (part, heap))| {
                            let cell = Arc::clone(&cells[shard]);
                            let dir = Arc::clone(&directory);
                            let waiters = &waiters_mx;
                            let unfinished = &unfinished;
                            s.spawn(move || {
                                run_shard_window(
                                    window_end,
                                    lookahead,
                                    seq_base + (shard as u64) * SEQ_BLOCK,
                                    heap,
                                    part,
                                    waiters,
                                    unfinished,
                                    &cell,
                                    &dir,
                                )
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("shard worker panicked"))
                        .collect()
                })
            };
            self.waiters = waiters_mx.into_inner();
            self.unfinished = unfinished.into_inner();
            self.seq = seq_base
                .checked_add(nshards as u64 * SEQ_BLOCK)
                .expect("sequence space exhausted");
            let mut first_error: Option<((Time, u64), SimError)> = None;
            for o in outcomes {
                self.switches += o.switches;
                self.stats.events_dispatched += o.dispatched;
                self.stats.notifications_delivered += o.notifications;
                self.stats.max_queue_depth = self.stats.max_queue_depth.max(o.max_depth);
                for te in o.timed {
                    self.timed.push(Reverse(te));
                }
                if let Some((key, err)) = o.error {
                    let better = first_error.as_ref().is_none_or(|(k, _)| key < *k);
                    if better {
                        first_error = Some((key, err));
                    }
                }
            }
            let max_cell = self
                .shard_clocks
                .iter()
                .map(|c| c.load(Ordering::Acquire))
                .max()
                .unwrap_or(0);
            self.clock.now.fetch_max(max_cell, Ordering::AcqRel);
            if let Some((_, err)) = first_error {
                break 'run Err(err);
            }
        };

        // Fold the surviving shard-local entries back into the global
        // queue (their keys are preserved, so the heap restores the
        // canonical order) for a later run_until or drop.
        for heap in &mut shard_heaps {
            while let Some(Reverse(e)) = heap.pop() {
                self.queue.push(e);
            }
        }
        result
    }
}

/// Per-window result of one shard worker.
#[derive(Default)]
struct ShardWindowOutcome {
    /// Fiber resumes, for [`Kernel::switches`].
    switches: u64,
    /// Events dispatched: the resumes plus the events run ahead over.
    dispatched: u64,
    notifications: u64,
    max_depth: u64,
    /// Timed notifications produced this window, merged into the global
    /// heap at the boundary.
    timed: Vec<TimedEntry>,
    /// First protocol violation or process failure, keyed by the
    /// dispatching entry so the coordinator reports the canonically
    /// earliest one.
    error: Option<((Time, u64), SimError)>,
}

/// Wake the local waiters of `event` at time `at`. Returns the name-less
/// pid of a foreign (cross-shard) waiter if one is registered — a
/// protocol violation under windowed execution.
fn wake_local_waiters(
    event: EventId,
    at: Time,
    procs: &mut HashMap<Pid, &mut ProcEntry>,
    heap: &mut BinaryHeap<Reverse<Entry>>,
    waiters: &Mutex<Waiters>,
    seq: &mut u64,
    notifications: &mut u64,
) -> Result<(), Pid> {
    let Some(mut ws) = waiters.lock().take(event) else {
        return Ok(());
    };
    for w in ws.drain(..) {
        let Some(p) = procs.get_mut(&w.pid) else {
            return Err(w.pid);
        };
        p.wait_epoch += 1;
        p.state = ProcState::Runnable;
        *notifications += 1;
        let s = *seq;
        *seq += 1;
        heap.push(Reverse(Entry {
            time: at,
            seq: s,
            item: QueueItem::Resume(w.pid, ResumeKind::Notified),
        }));
    }
    waiters.lock().recycle(ws);
    Ok(())
}

/// One shard's slice of a window: run local entries in `(time, seq)`
/// order up to (excluding) `window_end`, delivering zero-delay
/// notifications locally and deferring latency-bearing ones to the
/// boundary.
#[allow(clippy::too_many_arguments)]
fn run_shard_window(
    window_end: Time,
    lookahead: Time,
    seq_start: u64,
    heap: &mut BinaryHeap<Reverse<Entry>>,
    part: Vec<(Pid, &mut ProcEntry)>,
    waiters: &Mutex<Waiters>,
    unfinished: &AtomicUsize,
    clock_cell: &AtomicU64,
    directory: &Directory,
) -> ShardWindowOutcome {
    let mut procs: HashMap<Pid, &mut ProcEntry> = part.into_iter().collect();
    let mut seq = seq_start;
    let mut out = ShardWindowOutcome::default();
    let mut notifications = VecDeque::new();
    let violation = |key: (Time, u64), detail: String| {
        Some((key, SimError::LookaheadViolation { at: key.0, detail }))
    };
    'window: loop {
        if unfinished.load(Ordering::Acquire) == 0 {
            break;
        }
        match heap.peek() {
            Some(Reverse(e)) if e.time < window_end => {}
            _ => break,
        }
        let Reverse(entry) = heap.pop().expect("peeked");
        clock_cell.store(entry.time, Ordering::Release);
        let (pid, kind) = match entry.item {
            QueueItem::Timeout(pid, epoch) => {
                let p = procs.get_mut(&pid).expect("foreign entry in shard heap");
                let stale =
                    p.wait_epoch != epoch || !matches!(p.state, ProcState::Waiting { .. });
                if stale {
                    continue;
                }
                if let ProcState::Waiting { event, .. } = p.state {
                    waiters.lock().cancel(event, pid);
                }
                p.wait_epoch += 1;
                p.state = ProcState::Runnable;
                (pid, ResumeKind::TimedOut)
            }
            QueueItem::Resume(pid, kind) => {
                if procs.get(&pid).expect("foreign entry in shard heap").state
                    == ProcState::Done
                {
                    continue;
                }
                (pid, kind)
            }
        };
        out.switches += 1;
        out.dispatched += 1;
        // Nothing else runs on this shard before the local heap's head,
        // nothing at all at or past the window's end.
        let bound = heap
            .peek()
            .map_or(window_end, |Reverse(e)| e.time.min(window_end));
        let mut key = (entry.time, entry.seq);
        let (reason, spawns, dispatch_idx) = {
            let p = procs.get_mut(&pid).expect("dispatching pid");
            p.dispatch_count += 1;
            let Slice {
                reason,
                spawns,
                ran_ahead,
            } = p
                .link
                .run_slice(&mut p.fiber, kind, bound, &mut notifications);
            if ran_ahead > 0 {
                // As in `Kernel::dispatch`: every in-place advance was a
                // push onto the unchanged local heap, a pop and a
                // dispatch.
                out.dispatched += ran_ahead;
                p.dispatch_count += ran_ahead;
                out.max_depth = out.max_depth.max(heap.len() as u64 + 1);
                seq += ran_ahead;
                key = (clock_cell.load(Ordering::Acquire), seq - 1);
            }
            (reason, spawns, p.dispatch_count)
        };
        let now = key.0;
        // Side effects: zero-delay notifications deliver to local waiters
        // immediately; delayed ones (>= lookahead) defer to the boundary.
        for (effect, (event, dt)) in (0u32..).zip(notifications.drain(..)) {
            if dt == 0 {
                if let Err(foreign) = wake_local_waiters(
                    event,
                    now,
                    &mut procs,
                    heap,
                    waiters,
                    &mut seq,
                    &mut out.notifications,
                ) {
                    out.error = violation(
                        key,
                        format!(
                            "zero-delay notification from pid {pid} reached cross-shard \
                             waiter pid {foreign}; use notify_after(_, dt >= lookahead) \
                             or a latency-bearing channel"
                        ),
                    );
                    break 'window;
                }
            } else if dt < lookahead {
                out.error = violation(
                    key,
                    format!(
                        "notify_after delay {dt} from pid {pid} is shorter than the \
                         lookahead {lookahead}"
                    ),
                );
                break 'window;
            } else {
                out.timed.push(TimedEntry {
                    time: now.saturating_add(dt),
                    tag: EffectTag {
                        pid,
                        dispatch: dispatch_idx,
                        effect,
                    },
                    event,
                });
            }
        }
        if !spawns.is_empty() {
            out.error = violation(
                key,
                format!(
                    "pid {pid} spawned a process inside a parallel window; spawn \
                     processes before running, or run with lookahead 0"
                ),
            );
            break;
        }
        match reason {
            YieldReason::Advance(dt) => {
                let s = seq;
                seq += 1;
                heap.push(Reverse(Entry {
                    time: now.saturating_add(dt),
                    seq: s,
                    item: QueueItem::Resume(pid, ResumeKind::Scheduled),
                }));
            }
            YieldReason::Wait(event) => {
                let p = procs.get_mut(&pid).expect("dispatching pid");
                let epoch = p.wait_epoch;
                p.state = ProcState::Waiting { event, epoch };
                waiters.lock().register(event, Waiter { pid, reg: key });
            }
            YieldReason::WaitTimeout(event, dt) => {
                let epoch = {
                    let p = procs.get_mut(&pid).expect("dispatching pid");
                    let epoch = p.wait_epoch;
                    p.state = ProcState::Waiting { event, epoch };
                    epoch
                };
                waiters.lock().register(event, Waiter { pid, reg: key });
                let s = seq;
                seq += 1;
                heap.push(Reverse(Entry {
                    time: now.saturating_add(dt),
                    seq: s,
                    item: QueueItem::Timeout(pid, epoch),
                }));
            }
            YieldReason::Done | YieldReason::Panicked(_) => {
                let daemon = {
                    let p = procs.get_mut(&pid).expect("dispatching pid");
                    p.state = ProcState::Done;
                    p.daemon
                };
                if !daemon {
                    unfinished.fetch_sub(1, Ordering::AcqRel);
                }
                let completion = directory.mark_finished(pid);
                if let Err(foreign) = wake_local_waiters(
                    completion,
                    now,
                    &mut procs,
                    heap,
                    waiters,
                    &mut seq,
                    &mut out.notifications,
                ) {
                    out.error = violation(
                        key,
                        format!(
                            "completion of pid {pid} would wake cross-shard joiner \
                             pid {foreign}; pin joined processes to one shard"
                        ),
                    );
                    break;
                }
                if let YieldReason::Panicked(message) = reason {
                    let name = procs.get(&pid).expect("dispatching pid").name.clone();
                    out.error = Some((key, SimError::ProcessPanicked { name, message }));
                    break;
                }
            }
        }
        debug_assert!(
            seq - seq_start < SEQ_BLOCK,
            "per-window sequence block exhausted"
        );
        out.max_depth = out.max_depth.max(heap.len() as u64);
    }
    out
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

/// Test-only surface over the kernel's internal ordering machinery, used
/// by the merge-order property tests. Hidden from the public API.
#[doc(hidden)]
pub mod testkit {
    use super::*;

    /// Pop order of a single global heap holding every `(time, seq)` key.
    pub fn global_pop_order(entries: &[(Time, u64)]) -> Vec<(Time, u64)> {
        let mut heap = BinaryHeap::with_capacity(entries.len());
        for &(time, seq) in entries {
            heap.push(Reverse(Entry {
                time,
                seq,
                item: QueueItem::Resume(0, ResumeKind::Scheduled),
            }));
        }
        let mut out = Vec::with_capacity(entries.len());
        while let Some(Reverse(e)) = heap.pop() {
            out.push((e.time, e.seq));
        }
        out
    }

    /// The windowed kernel's boundary merge: K shard-local heaps folded
    /// back into one global heap (exactly what `run_windowed` does on
    /// exit), then popped. Must equal [`global_pop_order`] over the same
    /// entries for any partition.
    pub fn boundary_merge_order(shards: &[Vec<(Time, u64)>]) -> Vec<(Time, u64)> {
        let mut local: Vec<BinaryHeap<Reverse<Entry>>> = shards
            .iter()
            .map(|batch| {
                let mut h = BinaryHeap::with_capacity(batch.len());
                for &(time, seq) in batch {
                    h.push(Reverse(Entry {
                        time,
                        seq,
                        item: QueueItem::Resume(0, ResumeKind::Scheduled),
                    }));
                }
                h
            })
            .collect();
        let mut global = BinaryHeap::new();
        for heap in &mut local {
            while let Some(entry) = heap.pop() {
                global.push(entry);
            }
        }
        let mut out = Vec::new();
        while let Some(Reverse(e)) = global.pop() {
            out.push((e.time, e.seq));
        }
        out
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
    fn daemon_does_not_block_completion() {
        let mut k = Kernel::new();
        let e = k.alloc_event();
        k.spawn_daemon("idle", move |ctx| {
            ctx.wait(e); // never notified
        });
        k.spawn("work", |ctx| ctx.advance(5));
        k.run().unwrap();
        assert_eq!(k.now(), 5);
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
    fn same_time_events_dispatch_in_fifo_order() {
        let mut k = Kernel::new();
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for i in 0..8 {
            let o = Arc::clone(&order);
            k.spawn(format!("p{i}"), move |ctx| {
                ctx.advance(10);
                o.lock().push(i);
            });
        }
        k.run().unwrap();
        assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
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

    #[test]
    fn shard_assignment_is_round_robin_and_pinnable() {
        let mut k = Kernel::with_config(KernelConfig::default().shards(3));
        let a = k.spawn("a", |_| {});
        let b = k.spawn("b", |_| {});
        let c = k.spawn("c", |_| {});
        let d = k.spawn_on(7, "d", |_| {});
        assert_eq!(k.shard_of(a), 0);
        assert_eq!(k.shard_of(b), 1);
        assert_eq!(k.shard_of(c), 2);
        assert_eq!(k.shard_of(d), 7 % 3);
        k.run().unwrap();
    }

    #[test]
    fn fallback_mode_matches_sequential_exactly() {
        fn run_with(shards: usize) -> (Time, KernelStats) {
            let mut k = Kernel::with_config(KernelConfig::default().shards(shards));
            let e = k.alloc_event();
            for i in 0..12u64 {
                k.spawn(format!("w{i}"), move |ctx| {
                    ctx.advance(i * 5 + 1);
                    ctx.notify(e);
                    ctx.advance(2);
                });
            }
            k.spawn("collector", move |ctx| {
                for _ in 0..12 {
                    ctx.wait(e);
                }
            });
            k.run().unwrap();
            (k.now(), k.stats())
        }
        // Zero lookahead: shards > 1 degrade to the shared-queue fallback
        // and must be byte-identical to the sequential kernel, including
        // the queue-depth gauge.
        assert_eq!(run_with(1), run_with(2));
        assert_eq!(run_with(1), run_with(4));
    }
}
