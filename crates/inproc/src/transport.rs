//! The in-process [`Transport`] and the run queue it parks on: [`Fifo`]
//! mailboxes, a logical clock with a fixed deterministic cost model, and
//! a park that yields the component's fiber back to the scheduler loop
//! ([`Shared::next`]). All observation and `Ctx` logic lives in
//! [`embera::runtime::ComponentRuntime`]; this module only moves
//! messages, advances the clock, and decides which component runs next.

use std::collections::VecDeque;
use std::sync::Arc;

use embera::runtime::{Completion, Fifo, IfaceId, Transport, Wiring};
use embera::sync::{AtomicBool, AtomicU64, Mutex, Ordering};
use embera::{EmberaError, Message, Work};
use embera_fiber::fiber_yield;

/// Deterministic cost model: a send is a queue push plus an envelope
/// hand-over, a receive is a pop; both scale mildly with payload size.
/// The absolute values are arbitrary (this backend models no real
/// platform) but fixed, so reports are reproducible bit-for-bit.
pub(crate) const SEND_BASE_NS: u64 = 200;
pub(crate) const RECV_BASE_NS: u64 = 100;

/// Where a component's fiber is, as far as the scheduler cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// In the run queue, or the one running.
    Runnable,
    /// Yielded in `park_recv` (`recv`) or `park_quiescent`, until a
    /// push to one of its mailboxes, a shutdown, or its deadline.
    Parked { deadline: Option<u64>, recv: bool },
    /// Resumed to report that the application is deadlocked.
    Deadlocked,
    /// Its flow returned.
    Done,
}

struct Sched {
    /// Components to resume, in the order they became runnable.
    queue: VecDeque<usize>,
    state: Vec<State>,
}

/// Application-wide state, shared by every transport and the scheduler
/// loop. Atomics and a mutex rather than cells: [`embera_fiber::Fiber`]
/// bodies must be `Send`, and the thread-backed fiber oracle
/// (`EMBERA_EXEC_FIBER=thread`) runs them on other threads — one at a
/// time, so nothing here is ever contended. The atomics are `Relaxed`:
/// they publish no other data, and the resume/yield hand-off between
/// the scheduler and a fiber (a mutex on the thread oracle) orders
/// every access to them.
pub(crate) struct Shared {
    /// The logical clock, ns. Advanced only by the cost model and by
    /// timer wakes — never by wall time.
    clock: AtomicU64,
    shutdown: AtomicBool,
    sched: Mutex<Sched>,
}

impl Shared {
    /// `components` components, all runnable in deployment order.
    pub(crate) fn new(components: usize) -> Shared {
        Shared {
            clock: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            sched: Mutex::new(Sched {
                queue: (0..components).collect(),
                state: vec![State::Runnable; components],
            }),
        }
    }

    pub(crate) fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Make component `i` runnable if it is parked.
    fn wake(&self, i: usize) {
        let mut s = self.sched.lock();
        if let State::Parked { .. } = s.state[i] {
            s.state[i] = State::Runnable;
            s.queue.push_back(i);
        }
    }

    /// Set the shutdown flag and make every parked component runnable,
    /// in index order.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let mut s = self.sched.lock();
        for i in 0..s.state.len() {
            if let State::Parked { .. } = s.state[i] {
                s.state[i] = State::Runnable;
                s.queue.push_back(i);
            }
        }
    }

    /// Yield component `i`'s fiber until the scheduler resumes it.
    /// Returns true when it was resumed to report a deadlock.
    fn park(&self, i: usize, deadline: Option<u64>, recv: bool) -> bool {
        self.sched.lock().state[i] = State::Parked { deadline, recv };
        fiber_yield();
        let mut s = self.sched.lock();
        let deadlocked = s.state[i] == State::Deadlocked;
        s.state[i] = State::Runnable;
        deadlocked
    }

    /// Component `i`'s flow returned.
    pub(crate) fn finished(&self, i: usize) {
        self.sched.lock().state[i] = State::Done;
    }

    /// The component to resume next: the head of the run queue; else
    /// the parked component with the earliest deadline (ties: lowest
    /// index), with the clock moved up to that deadline; else — nothing
    /// can ever wake anybody — the lowest-index component parked in a
    /// receive, to report the deadlock. `None` once no fiber is left to
    /// resume.
    pub(crate) fn next(&self) -> Option<usize> {
        let mut s = self.sched.lock();
        if let Some(i) = s.queue.pop_front() {
            return Some(i);
        }
        let parked = s.state.iter().enumerate().filter_map(|(i, st)| match *st {
            State::Parked { deadline, recv } => Some((i, deadline, recv)),
            _ => None,
        });
        let timer = parked.clone().filter_map(|(i, d, _)| Some((d?, i))).min();
        if let Some((deadline, i)) = timer {
            self.clock.fetch_max(deadline, Ordering::Relaxed);
            s.state[i] = State::Runnable;
            return Some(i);
        }
        let (i, ..) = parked.clone().find(|&(.., recv)| recv)?;
        s.state[i] = State::Deadlocked;
        Some(i)
    }
}

pub(crate) struct InprocTransport {
    pub(crate) wiring: Wiring<Fifo>,
    /// Logical ns this component's own operations have consumed.
    pub(crate) cpu_ns: u64,
    pub(crate) shared: Arc<Shared>,
    /// Where a diagnosed deadlock is reported.
    pub(crate) completion: Arc<Completion>,
}

impl InprocTransport {
    fn charge(&mut self, ns: u64) {
        self.shared.clock.fetch_add(ns, Ordering::Relaxed);
        self.cpu_ns += ns;
        self.wiring.stats.set_cpu_time_ns(self.cpu_ns);
    }
}

impl Transport for InprocTransport {
    fn now_ns(&self) -> u64 {
        self.shared.now()
    }

    fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::Relaxed)
    }

    fn request_shutdown(&mut self) {
        self.shared.request_shutdown();
    }

    fn push(&mut self, required: IfaceId, msg: Message) -> u64 {
        let ns = SEND_BASE_NS + msg.data_len() as u64 / 8;
        self.charge(ns);
        let route = self.wiring.routes[required.index()]
            .as_ref()
            .expect("the runtime pushes only where its table has a route");
        route.push(msg);
        self.shared.wake(route.owner());
        ns
    }

    fn try_pop(&mut self, provided: IfaceId) -> Option<(Message, u64)> {
        let msg = self.wiring.provided[provided.index()].as_ref()?.try_pop()?;
        // Introspection requests are drained by the runtime's observation
        // service, not the application — uncharged, as on the MPSoC
        // backend.
        let ns = if provided == IfaceId::INTROSPECTION {
            0
        } else {
            let ns = RECV_BASE_NS + msg.data_len() as u64 / 16;
            self.charge(ns);
            ns
        };
        Some((msg, ns))
    }

    fn queued_bytes(&self) -> u64 {
        self.wiring
            .provided
            .iter()
            .flatten()
            .map(Fifo::queued_bytes)
            .sum()
    }

    fn park_recv(&mut self, provided: &[IfaceId], deadline_ns: Option<u64>) {
        if self.shared.park(self.wiring.index, deadline_ns, true) {
            let (name, ifaces) = (self.wiring.stats.name(), self.wiring.stats.interfaces());
            let provided: Vec<&str> = provided.iter().map(|&id| ifaces.name(id)).collect();
            self.completion.fail(
                name,
                EmberaError::Platform(format!(
                    "deadlock: component '{name}' blocked in recv on '{}' with \
                     no component runnable and no timer armed",
                    provided.join("', '")
                )),
            );
            self.shared.request_shutdown();
        }
    }

    fn park_quiescent(&mut self) {
        self.shared.park(self.wiring.index, None, false);
    }

    fn compute(&mut self, work: Work) {
        // Uniform 1 ns/op plus memory traffic at 8 bytes/ns, every class
        // alike: deterministic, not calibrated to any silicon.
        let ns = work.ops + work.mem_bytes / 8;
        if ns > 0 {
            self.charge(ns);
        }
    }

    fn inbox_depth(&self, provided: IfaceId) -> u64 {
        let inbox = self.wiring.provided[provided.index()].as_ref();
        inbox.map_or(0, |q| q.len() as u64)
    }
}
