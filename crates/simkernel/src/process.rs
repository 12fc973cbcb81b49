//! Simulated processes and the [`SimCtx`] handle they run against.
//!
//! A simulated process is a stackful fiber ([`embera_fiber`]) that
//! cooperates with the kernel in strict lock-step: the kernel resumes it
//! in place, on the thread inside [`Kernel::run`](crate::Kernel::run),
//! the process runs until it needs virtual time to pass (or an event to
//! fire), then it switches back. At most one process of a kernel
//! executes at any instant, and the dispatch order is fully determined
//! by virtual time, which is what makes the simulation deterministic.
//!
//! One rule of the [`embera_fiber`] contract reaches simulation code: a
//! process body must not carry thread identity (thread-local values,
//! `std::thread::current()`) across a blocking [`SimCtx`] call. A
//! [`Kernel`](crate::Kernel) is `Send`: it may be run to a horizon on
//! one thread and finished on another, and every suspended process
//! moves with it.
//!
//! # Run-ahead
//!
//! Lock-step does not mean one switch per call. Before each slice the
//! kernel hands the process a *bound*: the earliest instant at which it
//! would have to dispatch anything else — the head of the event queue,
//! the head of the timed-notification heap, one past the horizon of
//! [`run_until`](crate::Kernel::run_until).
//! To a [`SimCtx::advance`] (or [`SimCtx::yield_now`]) whose wake-up
//! time lies *strictly* below that bound, from a slice that has queued
//! no notification and no spawn, the kernel's answer is known in
//! advance: it would push an entry, pop the very same entry and switch
//! the very same fiber back in. Such a call moves the process's clock
//! itself, counts one *run-ahead* and returns. Every other call
//! switches: at an equal time the entry already queued has the earlier
//! sequence number and a timed delivery wins ties, a queued notification
//! or spawn has to be applied at the old time, and a kernel that is
//! shutting down resumes nothing.
//!
//! When the slice does end, the kernel folds the count into everything
//! the skipped dispatches would have touched — events dispatched, the
//! process's dispatch index, one sequence number each, the queue-depth
//! gauge — so the schedule, [`KernelStats`](crate::KernelStats) and
//! every tie-break are those of a kernel that switched each time.
//! [`Kernel::switches`](crate::Kernel::switches) is the one number that
//! tells the two apart.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use embera_fiber::{fiber_yield, Fiber, Resume};

use crate::cell::LockStep;
use crate::Time;

/// Stack of every simulated process, in bytes. Allocated uninitialized,
/// so a process only ever commits the pages it runs on; there is no
/// guard page, only a canary word checked after each slice.
pub const PROCESS_STACK_BYTES: usize = 1 << 20;

/// Identifier of a simulated process.
pub type Pid = usize;

/// An event token processes can wait on and notify.
///
/// Events are cheap: allocating one just bumps a counter. The kernel keeps
/// the waiter bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub(crate) u64);

/// Why the kernel resumed a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeKind {
    /// `advance` completed, or initial start, or a plain yield.
    Scheduled,
    /// The event the process was waiting on was notified.
    Notified,
    /// A `wait_timeout` deadline fired before the event was notified.
    TimedOut,
    /// The kernel is shutting down; the process must unwind.
    Killed,
}

/// What a process reports back to the kernel when it yields.
#[derive(Debug)]
pub(crate) enum YieldReason {
    /// Resume me after `dt` virtual nanoseconds, behind everything
    /// already queued for that instant.
    Advance(Time),
    /// Block me until `event` is notified.
    Wait(EventId),
    /// Block me until `event` is notified or `dt` elapses.
    WaitTimeout(EventId, Time),
    /// The process body returned.
    Done,
    /// The process body panicked with this message.
    Panicked(String),
}

/// Body of a simulated process.
pub(crate) type ProcessBody = Box<dyn FnOnce(SimCtx) + Send + 'static>;

/// A process created by [`SimCtx::spawn`], materialized by the kernel
/// once the spawning slice ends.
pub(crate) struct SpawnRequest {
    pub(crate) name: String,
    pub(crate) body: ProcessBody,
    pub(crate) pid: Pid,
}

/// Everything one process and the kernel pass each other at a switch,
/// one instance per process. Only one side runs at a time, and the
/// switch between them is the hand-off that orders their accesses (see
/// [`LockStep`]).
#[derive(Default)]
pub(crate) struct Link(LockStep<LinkState>);

#[derive(Default)]
struct LinkState {
    /// Set by the kernel before it switches the process in.
    go: Option<ResumeKind>,
    /// Set with `go`: the process may pass virtual time in place up to,
    /// but excluding, this instant (see the [module docs](self)).
    run_ahead_bound: Time,
    /// In-place advances of the current slice, folded into the kernel's
    /// counters when the slice ends.
    ran_ahead: u64,
    /// Set by the process before it switches back out.
    yielded: Option<YieldReason>,
    /// Notifications queued during the slice, with their delivery delay:
    /// `0` means "wake current waiters when this slice ends" (the classic
    /// [`SimCtx::notify`]), a positive delay defers delivery onto the
    /// kernel's timed-notification queue ([`SimCtx::notify_after`]).
    notifications: VecDeque<(EventId, Time)>,
    spawns: Vec<SpawnRequest>,
}

/// What the kernel reads back when a slice ends. The slice's
/// notifications are swapped into the caller's queue instead, so the
/// buffers are reused from one dispatch to the next.
pub(crate) struct Slice {
    pub(crate) reason: YieldReason,
    pub(crate) spawns: Vec<SpawnRequest>,
    /// Dispatches the slice stood in for by advancing in place, not
    /// counting the one that started it.
    pub(crate) ran_ahead: u64,
}

impl Link {
    /// Kernel side: switch the process in with `kind` and, once it has
    /// switched back out, collect what the slice produced. The process
    /// may pass virtual time in place below `run_ahead_bound`, the
    /// earliest instant at which the caller would dispatch anything
    /// else. `notifications` must be empty; it comes back holding the
    /// slice's notifications in the order they were queued. `fiber` is
    /// cleared when the body is over, so a fiber that is still there can
    /// always be resumed.
    pub(crate) fn run_slice(
        &self,
        fiber: &mut Option<Fiber>,
        kind: ResumeKind,
        run_ahead_bound: Time,
        notifications: &mut VecDeque<(EventId, Time)>,
    ) -> Slice {
        debug_assert!(notifications.is_empty(), "undrained notifications");
        self.0.with(|st| {
            debug_assert!(st.go.is_none(), "double resume");
            st.go = Some(kind);
            st.run_ahead_bound = run_ahead_bound;
        });
        let running = fiber
            .as_mut()
            .expect("dispatched a process whose body is over");
        if running.resume() == Resume::Finished {
            *fiber = None;
        }
        self.0.with(|st| {
            std::mem::swap(&mut st.notifications, notifications);
            let reason = st.yielded.take();
            Slice {
                reason: reason.expect("process switched out without a yield reason"),
                spawns: std::mem::take(&mut st.spawns),
                ran_ahead: std::mem::take(&mut st.ran_ahead),
            }
        })
    }

    /// Kernel-shutdown path: resume the process one last time so that it
    /// unwinds its own stack (or, if it never ran, drops its body unrun).
    pub(crate) fn kill(&self, mut fiber: Fiber) {
        self.0.with(|st| st.go = Some(ResumeKind::Killed));
        fiber.resume();
    }

    /// Process side: take the kind of the resume that just switched us in.
    fn take_go(&self) -> ResumeKind {
        let go = self.0.with(|st| st.go.take());
        go.expect("process resumed without a resume kind")
    }

    /// Process side: may the running slice move its clock to `target`
    /// without switching out? Yes iff the kernel would dispatch nothing
    /// before resuming this process at `target` (strictly below the
    /// bound: an entry already queued for `target` has the earlier
    /// sequence number, a timed delivery wins ties) and has no side
    /// effect of this slice to apply first. Counts the run-ahead.
    fn run_ahead(&self, target: Time) -> bool {
        self.0.with(|st| {
            let in_place =
                target < st.run_ahead_bound && st.notifications.is_empty() && st.spawns.is_empty();
            if in_place {
                st.ran_ahead += 1;
            }
            in_place
        })
    }

    /// Process side: publish why we are about to switch out.
    fn set_yielded(&self, reason: YieldReason) {
        self.0.with(|st| {
            debug_assert!(st.yielded.is_none(), "double yield");
            st.yielded = Some(reason);
        });
    }
}

/// Shared process directory: pid allocation, completion events and
/// finished flags — the state behind [`SimCtx::join`].
#[derive(Default)]
pub(crate) struct Directory {
    entries: LockStep<Vec<DirEntry>>,
}

pub(crate) struct DirEntry {
    pub(crate) finished: bool,
    pub(crate) completion: EventId,
}

impl Directory {
    /// Reserve the next pid, recording its completion event.
    pub(crate) fn reserve(&self, completion: EventId) -> Pid {
        self.entries.with(|entries| {
            entries.push(DirEntry {
                finished: false,
                completion,
            });
            entries.len() - 1
        })
    }

    pub(crate) fn mark_finished(&self, pid: Pid) -> EventId {
        self.entries.with(|entries| {
            entries[pid].finished = true;
            entries[pid].completion
        })
    }

    pub(crate) fn is_finished(&self, pid: Pid) -> bool {
        self.entries.with(|entries| entries[pid].finished)
    }

    pub(crate) fn completion(&self, pid: Pid) -> EventId {
        self.entries.with(|entries| entries[pid].completion)
    }
}

/// Shared, lock-free view of kernel state readable from inside processes.
pub(crate) struct SharedClock {
    /// Virtual time. The kernel moves it to each event it takes; the
    /// running process moves it when it [runs ahead](self).
    pub(crate) now: AtomicU64,
    pub(crate) next_event_id: AtomicU64,
    pub(crate) shutting_down: AtomicBool,
}

impl SharedClock {
    pub(crate) fn new() -> Self {
        SharedClock {
            now: AtomicU64::new(0),
            next_event_id: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
        }
    }
}

/// Unwind payload that takes a killed process off its stack.
struct KilledToken;

/// Unwind the calling process because the kernel is going away. Not a
/// panic: `resume_unwind` skips the panic hook, so teardown prints
/// nothing.
fn unwind_killed() -> ! {
    std::panic::resume_unwind(Box::new(KilledToken))
}

/// Handle through which a simulated process interacts with the kernel.
///
/// All blocking operations (`advance`, `wait`, …) transfer control to the
/// kernel and only return once the kernel schedules this process again —
/// except an [`advance`](SimCtx::advance) the kernel would answer by
/// scheduling this process straight away, which returns in place.
/// If the kernel is dropped mid-simulation the blocking call the process
/// is suspended in unwinds its stack, dropping its locals; user code never
/// observes this (the unwind is caught at the process boundary).
pub struct SimCtx {
    pub(crate) pid: Pid,
    pub(crate) name: String,
    pub(crate) link: Arc<Link>,
    pub(crate) clock: Arc<SharedClock>,
    pub(crate) directory: Arc<Directory>,
}

impl SimCtx {
    /// This process's identifier.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// This process's name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> Time {
        self.clock.now.load(Ordering::Acquire)
    }

    /// Allocate a fresh event token. Never blocks.
    pub fn alloc_event(&self) -> EventId {
        EventId(self.clock.next_event_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Queue a notification for `event`. All processes currently waiting
    /// on it are woken (at the current virtual time) once this process
    /// next yields. Never blocks and never wakes the caller itself.
    pub fn notify(&self, event: EventId) {
        self.notify_after(event, 0);
    }

    /// Queue a notification for `event` to be delivered `dt` virtual
    /// nanoseconds from now. Waiters registered at delivery time are
    /// woken then: the latency-bearing form of [`SimCtx::notify`], and
    /// with `dt == 0` the same thing.
    pub fn notify_after(&self, event: EventId, dt: Time) {
        self.link
            .0
            .with(|st| st.notifications.push_back((event, dt)));
    }

    /// Let `dt` nanoseconds of virtual time pass: this process runs
    /// again at `now + dt`, after everything already scheduled up to and
    /// including that instant.
    ///
    /// The call switches to the kernel only if something has to happen
    /// first: another event or timed notification is due at or before
    /// `now + dt`, `now + dt` lies beyond the horizon of the current
    /// [`run_until`](crate::Kernel::run_until), this slice has queued a
    /// [`notify`](SimCtx::notify), [`notify_after`](SimCtx::notify_after)
    /// or [`spawn`](SimCtx::spawn) the kernel must apply, or the kernel
    /// is shutting down. Otherwise the kernel would resume this very
    /// process next, so the clock moves in place and the call returns;
    /// the kernel accounts for it as the dispatch it replaces, which
    /// makes the two indistinguishable (see the
    /// [module docs](crate::process)).
    pub fn advance(&self, dt: Time) {
        let target = self.now().saturating_add(dt);
        // A kernel that is going away left the bound of a slice long
        // over behind: only `do_yield` may answer then.
        let shutting_down = self.clock.shutting_down.load(Ordering::Acquire);
        if !shutting_down && self.link.run_ahead(target) {
            self.clock.now.store(target, Ordering::Release);
        } else {
            self.do_yield(YieldReason::Advance(dt));
        }
    }

    /// Yield the processor, re-queueing this process at the current time
    /// *after* all already-scheduled same-time events. Lets same-time
    /// peers run; it is `advance(0)`, so with nothing else due now it
    /// returns without a switch.
    pub fn yield_now(&self) {
        self.advance(0);
    }

    /// Block until `event` is notified.
    pub fn wait(&self, event: EventId) {
        let kind = self.do_yield(YieldReason::Wait(event));
        debug_assert_eq!(kind, ResumeKind::Notified);
    }

    /// Block until `event` is notified or `dt` nanoseconds pass.
    /// Returns `true` if the event fired, `false` on timeout.
    pub fn wait_timeout(&self, event: EventId, dt: Time) -> bool {
        match self.do_yield(YieldReason::WaitTimeout(event, dt)) {
            ResumeKind::Notified => true,
            ResumeKind::TimedOut => false,
            other => unreachable!("unexpected resume {other:?}"),
        }
    }

    /// Spawn a new simulated process. It becomes runnable at the current
    /// virtual time, after already-queued same-time events. Returns its
    /// [`Pid`], usable with [`SimCtx::join`].
    pub fn spawn<F>(&self, name: impl Into<String>, body: F) -> Pid
    where
        F: FnOnce(SimCtx) + Send + 'static,
    {
        let pid = self.directory.reserve(self.alloc_event());
        let request = SpawnRequest {
            name: name.into(),
            body: Box::new(body),
            pid,
        };
        self.link.0.with(|st| st.spawns.push(request));
        pid
    }

    /// Block until process `pid` finishes (immediately returns if it
    /// already has).
    ///
    /// ```
    /// use sim_kernel::Kernel;
    ///
    /// let mut kernel = Kernel::new();
    /// kernel.spawn("parent", |ctx| {
    ///     let child = ctx.spawn("child", |c| c.advance(250));
    ///     ctx.join(child);
    ///     assert_eq!(ctx.now(), 250);
    /// });
    /// kernel.run().unwrap();
    /// ```
    pub fn join(&self, pid: Pid) {
        loop {
            if self.directory.is_finished(pid) {
                return;
            }
            let completion = self.directory.completion(pid);
            self.wait(completion);
        }
    }

    fn do_yield(&self, reason: YieldReason) -> ResumeKind {
        // A body that caught the kill unwind and carried on is unwound
        // again at its next blocking call.
        if self.clock.shutting_down.load(Ordering::Acquire) {
            unwind_killed();
        }
        self.link.set_yielded(reason);
        fiber_yield();
        let kind = self.link.take_go();
        if kind == ResumeKind::Killed {
            unwind_killed();
        }
        kind
    }
}

/// The fiber a process runs on: take the initial resume, run the user
/// closure under `catch_unwind`, and report the outcome as the final
/// yield reason. A process killed before it ever ran drops its body
/// unrun.
pub(crate) fn process_fiber(ctx: SimCtx, body: ProcessBody) -> Fiber {
    Fiber::spawn(PROCESS_STACK_BYTES, move || {
        let link = Arc::clone(&ctx.link);
        if link.take_go() == ResumeKind::Killed {
            return;
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || body(ctx)));
        link.set_yielded(match result {
            Err(payload) if !payload.is::<KilledToken>() => {
                YieldReason::Panicked(payload_to_string(&*payload))
            }
            // Returned — or killed, and then nobody reads the reason.
            _ => YieldReason::Done,
        });
    })
}

fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
