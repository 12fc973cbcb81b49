//! The one host-side [`Transport`]: [`Fifo`] mailboxes, wall-clock send
//! and receive costs, batched draining — everything the thread backend
//! (`embera-smp`) and the M:N executor backend (`embera-exec`) have in
//! common. What they still differ in is how an execution flow waits
//! and is woken, which is the [`Parker`] they plug in.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use super::deploy::Wiring;
use super::fifo::Fifo;
use super::Transport;
use crate::component::{ComponentSpec, INTROSPECTION};
use crate::message::Message;
use crate::pool::BufferPool;

/// How many messages a single `recv` may drain from the mailbox ahead of
/// the behavior asking for them. Small: enough to amortize the lock over
/// a pipeline batch without hoarding another component's backlog.
const DRAIN_BATCH: usize = 16;

/// Accounted memory footprint of one provided-interface mailbox, bytes.
/// The paper's Table 1 implies 1 229 kB per provided interface on their
/// platform (IDCT carries two — data + introspection — for 2 458 kB
/// over the bare stack).
const IFACE_FOOTPRINT_BYTES: u64 = 1_229_000;

/// The paper's SMP memory formula: stack + footprint per provided
/// interface (data interfaces, plus the introspection mailbox when an
/// observer is attached and will exercise it).
pub fn host_memory_bytes(spec: &ComponentSpec, has_observer: bool) -> u64 {
    let provided = spec.provided.len() as u64 + u64::from(has_observer);
    spec.stack_bytes + provided * IFACE_FOOTPRINT_BYTES
}

/// How one component's execution flow waits and is woken, and the
/// application-wide clock and shutdown flag that go with it.
///
/// The contract is token-like: a [`wake`](Parker::wake) that arrives
/// while the owner is running makes its next [`park`](Parker::park)
/// return at once, so *push-then-wake* on the sending side and
/// *check-then-park* on the receiving side never lose a wakeup.
/// Spurious returns from `park` are allowed — the runtime re-checks
/// inboxes, deadline and shutdown around every park.
pub trait Parker {
    /// Platform time, ns (monotonic).
    fn now_ns(&self) -> u64;

    /// True once the application is shutting down.
    fn is_shutdown(&self) -> bool;

    /// Raise the shutdown flag and wake every component. Idempotent.
    fn request_shutdown(&self);

    /// Wake component `owner` (its deployment index), now or at its
    /// next park.
    fn wake(&self, owner: usize);

    /// Block this flow until woken or until `deadline_ns` (platform
    /// time; a lower bound) passes.
    fn park(&mut self, deadline_ns: Option<u64>);

    /// A send completed (cooperative schedulers yield here now and
    /// then so a burst producer cannot starve its consumers).
    fn after_send(&mut self) {}
}

/// [`Transport`] over [`Fifo`] mailboxes, generic over the backend's
/// [`Parker`].
pub struct HostTransport<P: Parker> {
    provided: HashMap<String, Fifo>,
    routes: HashMap<String, Fifo>,
    /// Messages drained from a mailbox in bulk (one lock per batch via
    /// [`Fifo::pop_many`]) but not yet handed to the behavior. Holds
    /// every provided interface from the start, each at its final
    /// capacity (a stash is only refilled when empty), so the hot
    /// receive path allocates neither a key nor a bigger ring.
    pending: HashMap<String, VecDeque<Message>>,
    /// Reusable bulk-drain buffer (allocation-free steady state).
    scratch: Vec<Message>,
    /// Application-wide payload pool: the send-primitive copy is drawn
    /// from it and the sender's original buffer recycled into it, so
    /// warm steady state allocates nothing.
    pool: Option<BufferPool>,
    parker: P,
}

impl<P: Parker> HostTransport<P> {
    /// The transport of the component wired by `wiring`.
    pub fn new(wiring: Wiring<Fifo>, parker: P) -> Self {
        HostTransport {
            pending: wiring
                .provided
                .keys()
                .map(|k| (k.clone(), VecDeque::with_capacity(DRAIN_BATCH)))
                .collect(),
            provided: wiring.provided,
            routes: wiring.routes,
            scratch: Vec::with_capacity(DRAIN_BATCH),
            pool: wiring.pool,
            parker,
        }
    }

    /// The paper's mailbox send copies the message into the FIFO — that
    /// copy is what makes Figure 4 linear in message size. A refcounted
    /// clone would hide it, so materialize a real copy. With a pool
    /// attached the copy lands in a recycled buffer and the sender's
    /// original goes back on the free list — same copy, no allocation.
    fn copy_payload(&self, payload: bytes::Bytes) -> bytes::Bytes {
        match &self.pool {
            Some(pool) => {
                let copied = pool.take_from(payload.as_ref());
                pool.recycle(payload);
                copied
            }
            None => bytes::Bytes::from(payload.as_ref().to_vec()),
        }
    }
}

impl<P: Parker> Transport for HostTransport<P> {
    fn now_ns(&self) -> u64 {
        self.parker.now_ns()
    }

    fn is_shutdown(&self) -> bool {
        self.parker.is_shutdown()
    }

    fn request_shutdown(&mut self) {
        self.parker.request_shutdown();
    }

    fn has_route(&self, required: &str) -> bool {
        self.routes.contains_key(required)
    }

    fn has_inbox(&self, provided: &str) -> bool {
        self.provided.contains_key(provided)
    }

    fn push(&mut self, required: &str, msg: Message) -> u64 {
        let t0 = Instant::now();
        let msg = match msg {
            Message::Data(payload) => Message::Data(self.copy_payload(payload)),
            Message::Deadlined {
                payload,
                deadline_ns,
            } => Message::Deadlined {
                payload: self.copy_payload(payload),
                deadline_ns,
            },
            other => other,
        };
        let route = &self.routes[required];
        route.push(msg);
        let cost = t0.elapsed().as_nanos() as u64;
        // Push-then-wake: the message is visible before the receiver is.
        self.parker.wake(route.owner());
        self.parker.after_send();
        cost
    }

    fn try_pop(&mut self, provided: &str) -> Option<(Message, u64)> {
        let mb = self.provided.get(provided)?;
        let buf = self.pending.get_mut(provided)?;
        let t0 = Instant::now();
        if let Some(m) = buf.pop_front() {
            return Some((m, t0.elapsed().as_nanos() as u64));
        }
        self.scratch.clear();
        if mb.pop_many(&mut self.scratch, DRAIN_BATCH) == 0 {
            return None;
        }
        let mut drained = self.scratch.drain(..);
        let first = drained.next().expect("pop_many reported non-zero drain");
        buf.extend(drained);
        Some((first, t0.elapsed().as_nanos() as u64))
    }

    fn poll_obs(&mut self) -> Option<Message> {
        // Clock- and allocation-free: this runs at every communication
        // point and the common case is "no request pending". The stash
        // comes first: a `recv` on the introspection inbox bulk-drains.
        if let Some(m) = self.pending.get_mut(INTROSPECTION)?.pop_front() {
            return Some(m);
        }
        self.provided.get(INTROSPECTION)?.try_pop()
    }

    fn queued_bytes(&self) -> u64 {
        let in_flight: u64 = self
            .pending
            .values()
            .flat_map(|q| q.iter())
            .map(|m| m.data_len() as u64)
            .sum();
        let resident: u64 = self.provided.values().map(Fifo::queued_bytes).sum();
        resident + in_flight
    }

    fn park_recv(&mut self, _provided: &str, deadline_ns: Option<u64>) {
        self.parker.park(deadline_ns);
    }

    fn park_quiescent(&mut self) -> bool {
        // No poll interval: a push to the introspection mailbox (or
        // shutdown) wakes the component.
        self.parker.park(None);
        true
    }

    fn delay(&mut self, ns: u64) {
        let target = self.parker.now_ns().saturating_add(ns);
        // Spurious wakes (a message arriving mid-backoff) just re-park.
        while self.parker.now_ns() < target && !self.parker.is_shutdown() {
            self.parker.park(Some(target));
        }
    }

    fn payload_pool(&self) -> Option<&BufferPool> {
        self.pool.as_ref()
    }

    fn route_depth(&self, required: &str) -> Option<u64> {
        self.routes.get(required).map(|mb| mb.len() as u64)
    }

    fn inbox_depth(&self, provided: &str) -> u64 {
        // Messages drained ahead of the behavior plus those still in the
        // mailbox: bulk draining must not hide queue depth from
        // observers or overload policies.
        let in_flight = self.pending.get(provided).map_or(0, VecDeque::len);
        let resident = self.provided.get(provided).map_or(0, Fifo::len);
        (in_flight + resident) as u64
    }

    fn drain_inboxes(&mut self) {
        for (iface, mb) in &self.provided {
            if iface == INTROSPECTION {
                continue;
            }
            if let Some(buf) = self.pending.get_mut(iface) {
                buf.clear();
            }
            while mb.try_pop().is_some() {}
        }
    }
}
