//! The in-process [`Transport`]: `VecDeque` queues, a logical clock
//! with a fixed deterministic cost model, and a depth-first
//! demand-driven scheduler in place of parking. All observation and
//! `Ctx` logic lives in [`embera::runtime::ComponentRuntime`]; this
//! module only moves messages, advances the clock, and decides which
//! component runs next.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use embera::behavior::Behavior;
use embera::runtime::{Completion, ComponentRuntime, Transport, Wiring};
use embera::{EmberaError, Message, Work, INTROSPECTION};

/// Deterministic cost model: a send is a queue push plus an envelope
/// hand-over, a receive is a pop; both scale mildly with payload size.
/// The absolute values are arbitrary (this backend models no real
/// platform) but fixed, so reports are reproducible bit-for-bit.
pub(crate) const SEND_BASE_NS: u64 = 200;
pub(crate) const RECV_BASE_NS: u64 = 100;

/// One component's provided-interface queue.
pub(crate) type Queue = Rc<RefCell<VecDeque<Message>>>;

/// A deployed component that has not started yet: everything needed to
/// run it. `None` once its behavior is on the stack (possibly parked in
/// `recv`) or has returned.
pub(crate) type Slot = Option<(Box<ComponentRuntime<InprocTransport>>, Box<dyn Behavior>)>;

/// A per-component introspection servicer: a second [`ComponentRuntime`]
/// over the same queues, engine and stats, used by the scheduler to
/// answer observation requests addressed to a component that is
/// mid-execution deeper on the stack (or long finished). This is the
/// single-threaded equivalent of the other backends' "service at every
/// communication point and while quiescent" guarantee.
pub(crate) struct Servicer {
    /// The component's introspection inbox, peeked to detect pending work.
    pub(crate) inbox: Queue,
    pub(crate) runtime: RefCell<ComponentRuntime<InprocTransport>>,
}

/// Application-wide state shared by every transport clone.
pub(crate) struct Shared {
    /// The logical clock, ns. Advanced only by the cost model and by
    /// timed-receive deadline jumps — never by wall time.
    pub(crate) clock: Cell<u64>,
    pub(crate) shutdown: Cell<bool>,
    /// One slot per component, in deployment order. Populated after
    /// `Rc::new(Shared)` because slots hold transports that hold this.
    pub(crate) slots: RefCell<Vec<Slot>>,
    pub(crate) servicers: RefCell<Vec<Servicer>>,
    /// `(consumer component, provided interface) -> producer slot
    /// indices`, from the connection list: who can feed a parked recv.
    pub(crate) producers: HashMap<(String, String), Vec<usize>>,
    /// Per-slot observer flag (root or regional observer components),
    /// excluded from demand-starts of unrelated components (a polling
    /// loop would not return). Observers are still demand-started when
    /// a parked component waits on an interface they feed — that is
    /// what pulls the observer tree through on this backend.
    pub(crate) observers: Vec<bool>,
}

/// Run an unstarted component to completion on the current stack.
/// No-op if it already started.
pub(crate) fn start_component(shared: &Rc<Shared>, idx: usize) {
    let Some((runtime, behavior)) = shared.slots.borrow_mut()[idx].take() else {
        return;
    };
    // Depth-first: control returns only once this component's behavior
    // has finished (its own parks recurse into the scheduler).
    runtime.run_to_completion(behavior);
}

/// First not-yet-started component connected into `consumer`'s
/// `provided` interface.
fn next_unstarted_producer(shared: &Shared, consumer: &str, provided: &str) -> Option<usize> {
    let producers = shared
        .producers
        .get(&(consumer.to_string(), provided.to_string()))?;
    let slots = shared.slots.borrow();
    producers.iter().copied().find(|&i| slots[i].is_some())
}

/// First not-yet-started application (non-observer) component.
fn next_unstarted_app_component(shared: &Shared) -> Option<usize> {
    let slots = shared.slots.borrow();
    (0..slots.len()).find(|&i| !shared.observers[i] && slots[i].is_some())
}

/// Answer every pending introspection request in the application via
/// the per-component servicers. Returns true if any request was
/// answered (progress a parked component may be waiting on).
fn pump_introspection(shared: &Shared) -> bool {
    let mut progressed = false;
    for s in shared.servicers.borrow().iter() {
        let pending = !s.inbox.borrow().is_empty();
        if pending {
            s.runtime.borrow_mut().service_introspection();
            progressed = true;
        }
    }
    progressed
}

pub(crate) struct InprocTransport {
    /// True on the component's main runtime, false on its introspection
    /// servicer: whether `charge` accounts CPU time into the stats.
    pub(crate) account_cpu: bool,
    pub(crate) wiring: Wiring<Queue>,
    /// Logical ns this component's own operations have consumed.
    pub(crate) cpu_ns: u64,
    pub(crate) shared: Rc<Shared>,
    /// Where a diagnosed deadlock is reported.
    pub(crate) completion: Arc<Completion>,
}

impl InprocTransport {
    fn charge(&mut self, ns: u64) {
        self.shared.clock.set(self.shared.clock.get() + ns);
        self.cpu_ns += ns;
        if self.account_cpu {
            self.wiring.stats.set_cpu_time_ns(self.cpu_ns);
        }
    }
}

impl Transport for InprocTransport {
    fn now_ns(&self) -> u64 {
        self.shared.clock.get()
    }

    fn is_shutdown(&self) -> bool {
        self.shared.shutdown.get()
    }

    fn request_shutdown(&mut self) {
        self.shared.shutdown.set(true);
    }

    fn has_route(&self, required: &str) -> bool {
        self.wiring.routes.contains_key(required)
    }

    fn has_inbox(&self, provided: &str) -> bool {
        self.wiring.provided.contains_key(provided)
    }

    fn push(&mut self, required: &str, msg: Message) -> u64 {
        let ns = SEND_BASE_NS + msg.data_len() as u64 / 8;
        self.charge(ns);
        self.wiring.routes[required].borrow_mut().push_back(msg);
        ns
    }

    fn try_pop(&mut self, provided: &str) -> Option<(Message, u64)> {
        let msg = self
            .wiring
            .provided
            .get(provided)?
            .borrow_mut()
            .pop_front()?;
        // Introspection requests are drained by the runtime's observation
        // service, not the application — uncharged, as on the MPSoC
        // backend.
        let ns = if provided == INTROSPECTION {
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
            .values()
            .map(|q| q.borrow().iter().map(|m| m.data_len() as u64).sum::<u64>())
            .sum()
    }

    fn park_recv(&mut self, provided: &[&str], deadline_ns: Option<u64>) {
        // 1. Demand-start: run a not-yet-started producer of a parked
        //    interface to completion — of the first listed one that
        //    still has such a producer.
        let name = self.wiring.stats.name();
        let unstarted = provided
            .iter()
            .find_map(|iface| next_unstarted_producer(&self.shared, name, iface));
        if let Some(p) = unstarted {
            start_component(&self.shared, p);
            return;
        }
        // 2. Answer pending introspection anywhere — a component blocked
        //    on an observation reply progresses even when its target is
        //    running deeper on this very stack.
        if pump_introspection(&self.shared) {
            return;
        }
        // 3. Any other unstarted application component may transitively
        //    unblock us.
        if let Some(i) = next_unstarted_app_component(&self.shared) {
            start_component(&self.shared, i);
            return;
        }
        // 4. Nothing in the application can produce a message anymore.
        match deadline_ns {
            Some(d) => self.shared.clock.set(self.shared.clock.get().max(d)),
            None => {
                let name = self.wiring.stats.name();
                self.completion.fail(
                    name,
                    EmberaError::Platform(format!(
                        "deadlock: component '{name}' blocked in recv on '{}' with \
                         no runnable producer (on embera-inproc, deploy a component \
                         that blocks for a response before the component it queries)",
                        provided.join("', '")
                    )),
                );
                self.shared.shutdown.set(true);
            }
        }
    }

    fn park_quiescent(&mut self) -> bool {
        // Run-to-completion backend: quiescent observability is provided
        // by this component's servicer (driven from other components'
        // parks), not by a loop of its own — end the service here.
        false
    }

    fn compute(&mut self, work: Work) {
        // Uniform 1 ns/op plus memory traffic at 8 bytes/ns, every class
        // alike: deterministic, not calibrated to any silicon.
        let ns = work.ops + work.mem_bytes / 8;
        if ns > 0 {
            self.charge(ns);
        }
    }

    fn delay(&mut self, ns: u64) {
        // Pure latency: the logical clock advances, CPU accounting does
        // not (the component is waiting, not working).
        self.shared.clock.set(self.shared.clock.get() + ns);
    }

    fn inbox_depth(&self, provided: &str) -> u64 {
        self.wiring
            .provided
            .get(provided)
            .map(|q| q.borrow().len() as u64)
            .unwrap_or(0)
    }

    fn drain_inboxes(&mut self) {
        for (iface, q) in &self.wiring.provided {
            if iface != INTROSPECTION {
                q.borrow_mut().clear();
            }
        }
    }
}
