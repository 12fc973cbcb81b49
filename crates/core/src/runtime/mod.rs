//! The platform-agnostic component runtime.
//!
//! The paper's headline property is that a component is "observed
//! without modifying its code" because the *runtime* — not user code —
//! serves the `introspection` interface (§4.2). This module is that
//! runtime, written once: introspection request draining and reply
//! routing, queued-bytes gauge refresh, send/receive timing and counter
//! recording, required-interface resolution with a uniform error
//! contract, the behavior lifecycle, termination accounting, the
//! post-behavior quiescent observation loop, and opt-in event tracing.
//! Deployment and the final report are written once too ([`deploy`],
//! [`Deployed`]).
//!
//! A platform backend contributes a [`Backend`] (make an endpoint,
//! spawn a flow) and a [`Transport`]: how messages move, what they
//! cost, what time it is, how an idle component waits, and how shutdown
//! is signalled. All four backends run behaviors through the same
//! [`ComponentRuntime`] and therefore expose byte-for-byte identical
//! observation semantics. `embera-os21` implements `Transport` over
//! its own EMBX-like distributed objects and simulated doorbell waits,
//! `embera-inproc` over [`Fifo`] mailboxes and fibers that take turns
//! on the calling thread under a logical clock; the two host backends
//! — `embera-smp` (one thread per component) and `embera-exec` (fibers
//! on a worker pool) — share one [`HostTransport`] over [`Fifo`]
//! mailboxes and differ only in their [`Parker`]. Its steady-state
//! send and receive take no application-wide lock (the payload pool is
//! sharded by thread, a mailbox is shared by its two ends only).
//!
//! What is the same on every backend stays out of [`Transport`]: the
//! runtime itself holds the application's payload pool (what
//! [`Ctx::payload_pool`] returns), the restart policy and its pause (a
//! timed [`Transport::park_recv`] on no interface). A backend that
//! measures CPU time stores it into the component's [`ComponentStats`]
//! where it charges it, so an observation reply and the final report
//! read the value at their stamp; what a reply's own push was charged
//! the runtime keeps out of that value, on every backend alike.
//!
//! Interfaces are bound once, at deployment (§4.1): [`Ctx`] resolves a
//! call's names in the component's [`IfaceTable`], and below it an
//! interface is an [`IfaceId`], an index into a `Vec`.
//!
//! # The waiting contract
//!
//! The runtime always checks a component's inboxes, its deadline and
//! the shutdown flag *before* it parks, and re-checks them after every
//! return from a park. A transport must therefore guarantee only this:
//!
//! * **no lost wake** — a message pushed to *any* inbox of a component
//!   (data or introspection), or a shutdown request, that lands after
//!   the component's last check makes its current or next park return;
//! * **spurious wakes are allowed** — a park may return early or for
//!   no reason;
//! * a timed park returns once its deadline has passed.
//!
//! That is what lets an observer query a component that is blocked in
//! `recv` or long since finished without any polling interval — and
//! what lets a behavior wait on several of its interfaces at once
//! ([`Ctx::recv_any_message`]): the check before the park is then a
//! scan of the listed inboxes in listed order, the park is the same
//! one, and every receive is that loop with a set of one or more.
//!
//! # Two ways to answer a poll
//!
//! [`Ctx::observe`] asks a connected component for an [`ObsReply`]. A
//! transport whose components share memory answers it *in place*
//! ([`Transport::observe`]; [`HostTransport`] does): the observer's
//! flow reads the target's shared statistics and mailbox gauges and
//! builds the reply itself, so the target is neither woken nor sent
//! anything. Every other transport — the default — sends the
//! [`Message::ObsRequest`] into the target's `introspection` mailbox,
//! the target's runtime answers at its next communication point
//! (`ComponentRuntime::service_introspection`) and the reply arrives
//! as a message. The simulated platforms keep that path on purpose:
//! there the cost of observation traffic is part of what is measured.
//! Either way the served poll is traced as
//! [`trace::EventKind::ObsServed`] — by the target's runtime for a
//! message, by the observer's for a read — and a component that is
//! sent a `Message::ObsRequest` directly is answered as it always was.
//!
//! # The error contract
//!
//! Every backend surfaces the same errors for the same misuse:
//!
//! * a connection whose source or target does not exist →
//!   [`EmberaError::Validation`] from `deploy` (only reachable through
//!   hand-built [`AppSpec`](crate::AppSpec)s);
//! * send on an interface the component never declared as required →
//!   [`EmberaError::UnknownInterface`];
//! * send on a *declared* required interface that has no connection →
//!   [`EmberaError::Disconnected`] (only reachable through hand-built
//!   `AppSpec`s — [`crate::AppBuilder`] validation rejects unbound data
//!   required interfaces up front);
//! * send on the implicit `introspection` required interface with no
//!   observer attached → silently dropped (`Ok`), because observation
//!   wiring is optional by design;
//! * [`Ctx::observe`] follows the send contract — undeclared →
//!   `UnknownInterface`, declared but unconnected → `Disconnected`,
//!   unbound `introspection` → `Ok(None)` with nothing sent;
//! * receive on an undeclared provided interface — or on a set that
//!   names one — → [`EmberaError::UnknownInterface`], before anything
//!   is taken or blocks;
//! * blocking receive interrupted by application shutdown →
//!   [`EmberaError::Terminated`] (a timed receive, and a receive on a
//!   set with or without a timeout, report `Ok(None)`).
//!
//! `tests/conformance.rs` in the workspace root pins this contract —
//! plus FIFO ordering, introspection-while-blocked service, and counter
//! conservation — against all four backends.

mod deploy;
mod fifo;
mod host;
pub mod trace;

pub use deploy::{deploy, Backend, Completion, Deployed, Flow, Observed, Wiring};
pub use fifo::Fifo;
pub use host::{host_memory_bytes, HostTransport, Parker};

pub use crate::names::{IfaceId, IfaceTable};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::behavior::{Behavior, Ctx, Work};
use crate::error::EmberaError;
use crate::message::Message;
use crate::observe::engine::ObsEngine;
use crate::observe::protocol::{ObsReply, ObsRequest};
use crate::observe::stats::ComponentStats;
use crate::overload::OverloadPolicy;
use crate::pool::BufferPool;
use crate::supervise::{ComponentFaults, Escalation, FaultAction, RestartPolicy};
use trace::{EventKind, TraceWriter};

/// What a platform backend must provide to host components, in twelve
/// methods: message movement with costs, time, shutdown visibility, and
/// parking. Whose time a cost is, and how long a restart pauses, the
/// runtime decides alike for every backend, not a transport.
///
/// All methods take `&mut self`: a transport belongs to exactly one
/// component's execution flow. An interface is its [`IfaceId`]: the
/// slot of the transport's own endpoint type (mailbox, distributed
/// object, queue) in the [`Wiring`]'s `Vec`s.
pub trait Transport {
    /// Current platform time, ns (monotonic; virtual on simulators).
    fn now_ns(&self) -> u64;

    /// True once the application is shutting down.
    fn is_shutdown(&self) -> bool;

    /// Signal application shutdown and wake every component, so peers
    /// blocked in `recv` and quiescent service loops drain out. The
    /// runtime calls this when the application completes or a failure
    /// escalates ([`Completion`] decides); it may be called repeatedly.
    fn request_shutdown(&mut self);

    /// Deliver `msg` through the connected required interface `required`
    /// (the caller's table guarantees it has a route). Returns the cost
    /// of the send primitive in ns — what middleware-level observation
    /// records.
    fn push(&mut self, required: IfaceId, msg: Message) -> u64;

    /// Non-blocking take of the next message queued on provided
    /// interface `provided`, with the receive primitive's cost in ns.
    /// A transport that drains several messages in one primitive charges
    /// its measured time to the message that ran it and 0 ns to each one
    /// it later hands out of the drained batch, reading no clock for
    /// those ([`HostTransport`] does): summed over the messages, the
    /// receive time is the time the mailbox primitive ran.
    fn try_pop(&mut self, provided: IfaceId) -> Option<(Message, u64)>;

    /// Non-blocking take of the next introspection request, polled at
    /// every communication point. Equivalent to
    /// `try_pop(IfaceId::INTROSPECTION)` minus the cost sample
    /// (observation traffic is never recorded); backends may override
    /// it with a cheaper clock-free path so the poll stays off the data
    /// plane's critical path. [`HostTransport`] does: with nothing
    /// pending, its poll is one load of the mailbox's length.
    fn poll_obs(&mut self) -> Option<Message> {
        self.try_pop(IfaceId::INTROSPECTION).map(|(msg, _cost)| msg)
    }

    /// Answer `request` on behalf of the component whose
    /// `introspection` interface `required` is connected to, without
    /// involving it: read its shared statistics, compute its queue
    /// gauges from its mailboxes, stamp the reply with *this* flow's
    /// clock. `None` — the default — means this transport cannot (the
    /// interface is not such a connection, or the backend's components
    /// share no memory, or observation traffic is something it models);
    /// the runtime then sends the request as a message.
    fn observe(&mut self, _required: IfaceId, _request: ObsRequest) -> Option<ObsReply> {
        None
    }

    /// Bytes currently queued across all of this component's provided
    /// interfaces (the observer's queue-occupation gauge).
    fn queued_bytes(&self) -> u64;

    /// Block waiting for activity: a message on *any* of this
    /// component's inboxes, a shutdown, or — bounded by `deadline_ns` in
    /// platform time — a timeout. May wake spuriously or early (see the
    /// module's waiting contract). `provided` lists the interfaces the
    /// behavior is receiving on, in the order it scans them (one for
    /// `recv`, several for [`Ctx::recv_any_message`]), so that a backend
    /// that diagnoses deadlocks can name the receive set. It is empty
    /// only for the runtime's restart backoff, which always passes a
    /// deadline.
    fn park_recv(&mut self, provided: &[IfaceId], deadline_ns: Option<u64>);

    /// Block in the post-behavior quiescent loop until there may be
    /// introspection work or shutdown (spurious returns allowed: the
    /// loop re-checks).
    fn park_quiescent(&mut self);

    /// Account a completed [`Work`] annotation: advances virtual time on
    /// simulated backends; free (the default) where real code runs on
    /// real silicon. A backend that measures CPU time stores it into
    /// the component's statistics where it charges it, here and in
    /// `push` and `try_pop`, so every reply reads a current value.
    fn compute(&mut self, _work: Work) {}

    /// Messages currently queued on this component's provided interface
    /// `provided` — the per-inbox depth that queue-bound overload
    /// policies enforce against, and (summed over the data interfaces)
    /// the supervision layer's queue-depth gauge.
    fn inbox_depth(&self, provided: IfaceId) -> u64;
}

/// The one per-component runtime shared by every backend: owns the
/// observation machinery and the [`Ctx`] implementation, delegating all
/// platform specifics to a [`Transport`].
pub struct ComponentRuntime<T: Transport> {
    transport: T,
    /// Also the component's name and declared interfaces.
    stats: Arc<ComponentStats>,
    engine: ObsEngine,
    trace: Option<TraceWriter>,
    /// The application's termination accounting.
    completion: Arc<Completion>,
    /// Supervision policy ([`crate::ComponentSpec::with_restart`]).
    restart: Option<RestartPolicy>,
    /// This component's slice of the application's fault-injection plan
    /// (`None` — the overwhelmingly common case — costs one branch).
    faults: Option<ComponentFaults>,
    /// Overload response ([`crate::ComponentSpec::with_overload`]):
    /// ingress shedding enforced by this runtime.
    overload: Option<OverloadPolicy>,
    /// The receive set in progress (kept: a receive allocates nothing).
    lanes: Vec<IfaceId>,
    /// The application's payload pool ([`crate::AppSpec::pool`]).
    pool: Option<BufferPool>,
}

impl<T: Transport> ComponentRuntime<T> {
    /// Runtime for the component whose shared stats `engine` answers
    /// introspection over. Backends get theirs from the deploy skeleton
    /// ([`Flow`]).
    fn new(
        transport: T,
        engine: ObsEngine,
        trace: Option<TraceWriter>,
        completion: Arc<Completion>,
    ) -> Self {
        let stats = Arc::clone(engine.stats());
        ComponentRuntime {
            transport,
            stats,
            engine,
            trace,
            completion,
            restart: None,
            faults: None,
            overload: None,
            lanes: Vec::new(),
            pool: None,
        }
    }

    /// The component's name.
    fn name(&self) -> &str {
        self.stats.name()
    }

    fn emit(&self, ts_ns: u64, kind: EventKind, a: u64, b: u64) {
        if let Some(writer) = &self.trace {
            writer.emit(ts_ns, kind, a, b);
        }
    }

    /// Timestamp for trace bracketing: 0 when tracing is off, so hot
    /// send/receive paths skip the platform clock read entirely (on the
    /// SMP backend each read is a real `clock_gettime`).
    fn trace_now(&self) -> u64 {
        if self.trace.is_some() {
            self.transport.now_ns()
        } else {
            0
        }
    }

    /// Drain and answer pending observation requests (non-blocking).
    /// Called at every communication point and from the quiescent loop,
    /// so an observer can query a component that is blocked in `recv` or
    /// long since finished.
    fn service_introspection(&mut self) {
        while let Some(msg) = self.transport.poll_obs() {
            let Message::ObsRequest { from: _, request } = msg else {
                continue; // stray traffic on the observation inbox
            };
            self.refresh_queued_gauge();
            let now = self.transport.now_ns();
            let reply = self.engine.answer(request, now);
            if self.stats.interfaces().has_route(IfaceId::INTROSPECTION) {
                let reply = Message::ObsReply {
                    from: self.name().to_string(),
                    reply: Box::new(reply),
                };
                // The reply takes platform time, but it is the runtime's
                // work, not the component's: none of it is its CPU time.
                let transport = &mut self.transport;
                self.stats
                    .uncharged(|| transport.push(IfaceId::INTROSPECTION, reply));
            }
            // With no observer connected the reply is dropped: nobody is
            // listening on the introspection required interface.
            self.emit(now, EventKind::ObsServed, 1, 0);
        }
    }

    fn refresh_queued_gauge(&self) {
        self.stats.set_queued_bytes(self.transport.queued_bytes());
        let ifaces = self.stats.interfaces();
        let data = ifaces.declared().filter(|&(id, _)| ifaces.has_inbox(id));
        let depths = data.map(|(id, _)| self.transport.inbox_depth(id));
        self.stats.set_queued_messages(depths.sum());
    }

    /// Run the behavior under this runtime's [`Ctx`]: lifecycle marks,
    /// trace bracketing, panic containment, and a final gauge refresh.
    /// A panic inside the behavior is caught and attributed as
    /// [`EmberaError::BehaviorPanic`] — it never unwinds into the
    /// backend's execution-flow machinery.
    fn run_behavior(&mut self, behavior: &mut dyn Behavior) -> Result<(), EmberaError> {
        self.stats.mark_started(self.transport.now_ns());
        self.emit(self.transport.now_ns(), EventKind::BehaviorStart, 0, 0);
        let outcome = {
            let mut ctx = RuntimeCtx { rt: self };
            catch_unwind(AssertUnwindSafe(|| behavior.run(&mut ctx)))
        };
        let result = match outcome {
            Ok(result) => result,
            Err(payload) => Err(EmberaError::BehaviorPanic {
                component: self.name().to_string(),
                payload: panic_payload_string(payload.as_ref()),
            }),
        };
        if matches!(result, Err(EmberaError::BehaviorPanic { .. })) {
            self.emit(self.transport.now_ns(), EventKind::BehaviorPanic, 0, 0);
        }
        self.emit(
            self.transport.now_ns(),
            EventKind::BehaviorEnd,
            u64::from(result.is_err()),
            0,
        );
        self.stats.mark_finished(self.transport.now_ns());
        if matches!(&result, Err(e) if !matches!(e, EmberaError::Terminated)) {
            self.stats.mark_faulted();
        }
        self.refresh_queued_gauge();
        result
    }

    /// Quiescent observation service: after its behavior returns, a
    /// component keeps answering introspection requests until the whole
    /// application terminates (paper §4.2 — finished components remain
    /// observable).
    fn serve_quiescent(&mut self) {
        while !self.transport.is_shutdown() {
            self.service_introspection();
            // Re-check before parking: a shutdown signalled while we were
            // serving must not be slept through (on event-driven backends
            // the wakeup it sent is consumed by the check above).
            if self.transport.is_shutdown() {
                break;
            }
            self.transport.park_quiescent();
        }
    }

    /// Restart backoff: wait `ns` of platform time, answering polls as a
    /// blocked `recv` does, until it has passed or the application shuts
    /// down. A park may return early; only the clock ends the pause.
    fn pause(&mut self, ns: u64) {
        let until = self.transport.now_ns().saturating_add(ns);
        while self.transport.now_ns() < until && !self.transport.is_shutdown() {
            self.service_introspection();
            self.transport.park_recv(&[], Some(until));
        }
    }

    /// Full execution-flow body: behavior (re-run under the restart
    /// policy, if any), termination accounting, quiescent observation
    /// service, exit hook. This is what a backend runs in the
    /// component's thread/task/turn.
    fn run_to_completion(mut self, mut behavior: Box<dyn Behavior>) {
        let mut restarts: u32 = 0;
        let result = loop {
            let result = self.run_behavior(behavior.as_mut());
            let Err(e) = &result else { break result };
            // `Terminated` is cooperative shutdown, not a fault; and once
            // the application is going down a re-run could only drain out
            // again.
            let restartable =
                !matches!(e, EmberaError::Terminated) && !self.transport.is_shutdown();
            match self.restart {
                Some(policy) if restartable && restarts < policy.max_restarts => {
                    restarts += 1;
                    self.stats.mark_restarting();
                    self.emit(
                        self.transport.now_ns(),
                        EventKind::Restart,
                        u64::from(restarts),
                        policy.backoff_ns,
                    );
                    self.pause(policy.backoff_ns);
                }
                _ => break result,
            }
        };
        let error = result.err();
        // Budget exhausted under OneForOne: the failure is recorded but
        // stays contained — no fail-fast application shutdown.
        let contained = matches!(
            (&error, self.restart),
            (Some(e), Some(policy)) if policy.escalation == Escalation::OneForOne
                && !matches!(e, EmberaError::Terminated)
        );
        let now = self.transport.now_ns();
        if self
            .completion
            .component_finished(self.stats.name(), error, contained, now)
        {
            self.transport.request_shutdown();
        }
        self.serve_quiescent();
    }

    /// The one receive loop: service introspection, scan the listed
    /// inboxes in order (the first non-empty one delivers), honor
    /// deadline and shutdown, park — the component, not an inbox, so a
    /// push to any of them is the wake. A single-interface receive is
    /// the one-element set. `Ok(Some((i, msg)))`: `provided[i]`
    /// delivered `msg`; `Ok(None)`: the deadline passed, or shutdown
    /// ended the wait, or the set was empty.
    fn recv_inner(
        &mut self,
        provided: &[&str],
        deadline_ns: Option<u64>,
    ) -> Result<Option<(usize, Message)>, EmberaError> {
        let ifaces = self.stats.interfaces();
        self.lanes.clear();
        for name in provided {
            let Some(id) = ifaces.id(name).filter(|&id| ifaces.has_inbox(id)) else {
                return Err(EmberaError::UnknownInterface {
                    component: self.name().to_string(),
                    interface: name.to_string(),
                });
            };
            self.lanes.push(id);
        }
        if provided.is_empty() {
            return Ok(None); // nothing to wait for: not a wait
        }
        let t0 = self.trace_now();
        // Health: flag the component Blocked only once it actually parks,
        // and clear the flag on every exit path.
        let mut parked = false;
        loop {
            self.service_introspection();
            let transport = &mut self.transport;
            let popped = self.lanes.iter().enumerate().find_map(|(i, &iface)| {
                let (msg, cost) = transport.try_pop(iface)?;
                Some((i, msg, cost))
            });
            if let Some((lane, msg, cost)) = popped {
                let iface = self.lanes[lane];
                if parked {
                    self.stats.set_blocked(false);
                    parked = false;
                }
                // Overload ingress enforcement: shed the popped message
                // (never recorded as a receive — sends = receives + shed
                // in the rollup) and keep draining. Shed decisions are a
                // pure function of queue depth / message deadline against
                // the platform clock, so they are bit-for-bit
                // reproducible on the deterministic inproc backend.
                if msg.is_data() {
                    match self.overload {
                        // Depth including the popped message exceeds the
                        // bound: this message is the oldest — shed it,
                        // keep the newest.
                        Some(OverloadPolicy::DropOldest { max_queue })
                            if self.transport.inbox_depth(iface) >= max_queue =>
                        {
                            self.stats.record_shed();
                            self.stats.mark_progress();
                            self.emit(self.trace_now(), EventKind::Shed, 0, msg.data_len() as u64);
                            continue;
                        }
                        Some(OverloadPolicy::DeadlineDrop)
                            if msg
                                .deadline_ns()
                                .is_some_and(|d| self.transport.now_ns() >= d) =>
                        {
                            self.stats.record_expired();
                            self.stats.mark_progress();
                            self.emit(self.trace_now(), EventKind::Shed, 1, msg.data_len() as u64);
                            continue;
                        }
                        _ => {}
                    }
                }
                if msg.is_data() {
                    self.stats
                        .record_receive_on(Some(iface), msg.data_len() as u64, cost);
                    self.stats.mark_progress();
                }
                let t1 = self.trace_now();
                self.emit(
                    t1,
                    EventKind::Recv,
                    msg.data_len() as u64,
                    t1.saturating_sub(t0),
                );
                // Fault injection: panic the behavior at data-receive
                // iteration k — after the pop, so the message is consumed
                // and lost exactly as in a real mid-work panic.
                if msg.is_data() {
                    if let Some(faults) = self.faults.as_mut() {
                        if let Some(k) = faults.on_recv() {
                            std::panic::panic_any(format!(
                                "injected fault: panic at receive iteration {k}"
                            ));
                        }
                    }
                }
                return Ok(Some((lane, msg)));
            }
            if let Some(d) = deadline_ns {
                if self.transport.now_ns() >= d {
                    if parked {
                        self.stats.set_blocked(false);
                    }
                    return Ok(None);
                }
            }
            if self.transport.is_shutdown() {
                // A timed wait reports the timeout path; a blocking wait
                // becomes `Terminated` in `Ctx::recv_message`.
                if parked {
                    self.stats.set_blocked(false);
                }
                return Ok(None);
            }
            if !parked {
                parked = true;
                self.stats.set_blocked(true);
            }
            self.transport.park_recv(&self.lanes, deadline_ns);
        }
    }

    /// The id a send on `required` goes through, by the error contract
    /// (`Ok(None)`: `introspection` with no observer, a silent drop).
    fn route(&self, required: &str) -> Result<Option<IfaceId>, EmberaError> {
        let ifaces = self.stats.interfaces();
        let declared = match ifaces.id(required) {
            Some(id) if ifaces.has_route(id) => return Ok(Some(id)),
            Some(IfaceId::INTROSPECTION) => return Ok(None),
            id => id.is_some_and(|id| ifaces.is_required(id)),
        };
        let (component, interface) = (self.name().to_string(), required.to_string());
        // Declared but unconnected, or never declared at all?
        Err(if declared {
            EmberaError::Disconnected {
                component,
                interface,
            }
        } else {
            EmberaError::UnknownInterface {
                component,
                interface,
            }
        })
    }

    /// Send `msg` through `required`, which has a route.
    fn send(&mut self, required: IfaceId, mut msg: Message) {
        let is_data = msg.is_data();
        let bytes = msg.data_len() as u64;
        // Fault injection on outgoing data messages.
        if is_data {
            if let Some(faults) = self.faults.as_mut() {
                match faults.on_send(required) {
                    Some(FaultAction::Drop) => {
                        self.emit(self.trace_now(), EventKind::FaultInjected, 0, bytes);
                        self.service_introspection();
                        return; // never reaches the transport
                    }
                    Some(FaultAction::Corrupt) => {
                        self.emit(self.trace_now(), EventKind::FaultInjected, 1, bytes);
                        msg = corrupt_data(msg);
                    }
                    None => {}
                }
            }
        }
        let t0 = self.trace_now();
        self.emit(t0, EventKind::SendStart, bytes, 0);
        let cost = self.transport.push(required, msg);
        if is_data {
            self.stats.record_send_on(Some(required), bytes, cost);
            self.stats.mark_progress();
        }
        let t1 = self.trace_now();
        self.emit(t1, EventKind::SendEnd, bytes, t1.saturating_sub(t0));
        self.service_introspection();
    }
}

/// Deterministically corrupt a data message: flip the first payload
/// byte. Empty payloads pass through unchanged (nothing to corrupt).
fn corrupt_data(msg: Message) -> Message {
    match msg {
        Message::Data(data) if !data.is_empty() => {
            let mut bytes = data.to_vec();
            bytes[0] ^= 0xFF;
            Message::Data(bytes.into())
        }
        Message::Deadlined {
            payload,
            deadline_ns,
        } if !payload.is_empty() => {
            let mut bytes = payload.to_vec();
            bytes[0] ^= 0xFF;
            Message::Deadlined {
                payload: bytes.into(),
                deadline_ns,
            }
        }
        other => other,
    }
}

/// Render a caught panic payload for [`EmberaError::BehaviorPanic`].
fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::new()
    }
}

/// The one true [`Ctx`] implementation, handed to behaviors on every
/// backend.
struct RuntimeCtx<'a, T: Transport> {
    rt: &'a mut ComponentRuntime<T>,
}

impl<T: Transport> Ctx for RuntimeCtx<'_, T> {
    fn component(&self) -> &str {
        self.rt.name()
    }

    fn send_message(&mut self, required: &str, msg: Message) -> Result<(), EmberaError> {
        if let Some(required) = self.rt.route(required)? {
            self.rt.send(required, msg);
        }
        Ok(())
    }

    fn observe(
        &mut self,
        required: &str,
        request: ObsRequest,
    ) -> Result<Option<ObsReply>, EmberaError> {
        let rt = &mut *self.rt;
        let Some(required) = rt.route(required)? else {
            return Ok(None);
        };
        if let Some(reply) = rt.transport.observe(required, request) {
            // Served here, so traced here: the target never saw it.
            rt.emit(rt.trace_now(), EventKind::ObsServed, 1, 0);
            // A communication point like a send: whoever observes this
            // component is answered now.
            rt.service_introspection();
            return Ok(Some(reply));
        }
        let from = rt.name().to_string();
        rt.send(required, Message::ObsRequest { from, request });
        Ok(None)
    }

    fn recv_any_message(
        &mut self,
        provided: &[&str],
        timeout_ns: Option<u64>,
    ) -> Result<Option<(usize, Message)>, EmberaError> {
        let deadline = timeout_ns.map(|t| self.rt.transport.now_ns().saturating_add(t));
        self.rt.recv_inner(provided, deadline)
    }

    fn compute(&mut self, work: Work) {
        let t0 = self.rt.trace_now();
        self.rt.transport.compute(work);
        self.rt.stats.mark_progress();
        let t1 = self.rt.trace_now();
        self.rt
            .emit(t1, EventKind::Compute, work.ops, t1.saturating_sub(t0));
    }

    fn now_ns(&self) -> u64 {
        self.rt.transport.now_ns()
    }

    fn should_stop(&self) -> bool {
        self.rt.transport.is_shutdown()
    }

    fn payload_pool(&self) -> Option<BufferPool> {
        self.rt.pool.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::behavior_fn;
    use crate::component::INTROSPECTION;
    use crate::supervise::FaultPlan;
    use bytes::Bytes;
    use std::collections::{HashMap, VecDeque};

    /// A minimal loopback transport: a route delivers into this
    /// component's own inbox of the same name unless remapped through
    /// `route_to`. Time is a counter bumped by every operation.
    #[derive(Default)]
    struct Loopback {
        inboxes: HashMap<String, VecDeque<Message>>,
        routes: Vec<String>,
        route_to: HashMap<String, String>,
        clock: u64,
        shutdown: bool,
        /// The component's statistics and interface table, once
        /// `runtime_with` made them.
        stats: Option<Arc<ComponentStats>>,
    }

    impl Loopback {
        fn name(&self, id: IfaceId) -> String {
            let stats = self.stats.as_ref().expect("made by `runtime_with`");
            stats.interfaces().name(id).to_string()
        }
    }

    impl Transport for Loopback {
        fn now_ns(&self) -> u64 {
            self.clock
        }
        fn is_shutdown(&self) -> bool {
            self.shutdown
        }
        fn request_shutdown(&mut self) {
            self.shutdown = true;
        }
        fn push(&mut self, required: IfaceId, msg: Message) -> u64 {
            self.clock += 10;
            let required = self.name(required);
            let target = self.route_to.get(&required).cloned().unwrap_or(required);
            self.inboxes.entry(target).or_default().push_back(msg);
            10
        }
        fn try_pop(&mut self, provided: IfaceId) -> Option<(Message, u64)> {
            let provided = self.name(provided);
            let msg = self.inboxes.get_mut(&provided)?.pop_front()?;
            self.clock += 5;
            Some((msg, 5))
        }
        fn queued_bytes(&self) -> u64 {
            self.inboxes
                .values()
                .flatten()
                .map(|m| m.data_len() as u64)
                .sum()
        }
        fn park_recv(&mut self, _provided: &[IfaceId], deadline_ns: Option<u64>) {
            self.clock = match deadline_ns {
                Some(d) => self.clock.max(d),
                None => {
                    self.shutdown = true; // nothing else can wake us
                    self.clock + 1
                }
            };
        }
        fn park_quiescent(&mut self) {
            self.shutdown = true;
        }
        fn inbox_depth(&self, provided: IfaceId) -> u64 {
            self.inboxes
                .get(&self.name(provided))
                .map(|q| q.len() as u64)
                .unwrap_or(0)
        }
        fn compute(&mut self, work: Work) {
            self.clock += work.ops;
        }
    }

    fn runtime_with(mut transport: Loopback, required: &[&str]) -> ComponentRuntime<Loopback> {
        let declared: Vec<String> = transport.inboxes.keys().cloned().collect();
        let routes: Vec<&str> = transport.routes.iter().map(String::as_str).collect();
        let stats = Arc::new(ComponentStats::wired(
            "c",
            &declared,
            &required.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &routes,
        ));
        transport.stats = Some(Arc::clone(&stats));
        ComponentRuntime::new(transport, ObsEngine::new(stats), None, Completion::new(1))
    }

    /// The error the application would report for component "c".
    fn reported_error(completion: &Completion) -> Option<EmberaError> {
        assert_eq!(completion.remaining(), 0, "completion was accounted");
        completion.take_errors().pop().map(|(name, e)| {
            assert_eq!(name, "c");
            e
        })
    }

    #[test]
    fn send_records_middleware_and_app_stats() {
        let mut t = Loopback::default();
        t.routes.push("out".into());
        t.inboxes.insert("out".into(), VecDeque::new());
        let mut rt = runtime_with(t, &["out"]);
        let mut b = behavior_fn(|ctx| {
            ctx.send("out", Bytes::from_static(b"hello"))?;
            assert_eq!(ctx.recv("out")?.as_ref(), b"hello");
            Ok(())
        });
        rt.run_behavior(&mut b).unwrap();
        let report = rt.engine.full_report(rt.transport.now_ns());
        assert_eq!(report.app.total_sends, 1);
        assert_eq!(report.app.total_receives, 1);
        assert_eq!(report.middleware.send.total_ns, 10);
        assert_eq!(report.middleware.recv.total_ns, 5);
    }

    #[test]
    fn error_contract_unknown_vs_disconnected() {
        let mut rt = runtime_with(Loopback::default(), &["declared"]);
        let mut b = behavior_fn(|ctx| {
            match ctx.send("declared", Bytes::new()) {
                Err(EmberaError::Disconnected { interface, .. }) => {
                    assert_eq!(interface, "declared");
                }
                other => panic!("declared-but-unbound must be Disconnected, got {other:?}"),
            }
            match ctx.send("ghost", Bytes::new()) {
                Err(EmberaError::UnknownInterface { interface, .. }) => {
                    assert_eq!(interface, "ghost");
                }
                other => panic!("undeclared must be UnknownInterface, got {other:?}"),
            }
            // Unbound introspection is silently dropped.
            ctx.send_message(
                INTROSPECTION,
                Message::ObsRequest {
                    from: "c".into(),
                    request: crate::ObsRequest::Full,
                },
            )?;
            match ctx.recv("nowhere") {
                Err(EmberaError::UnknownInterface { .. }) => Ok(()),
                other => panic!("recv on undeclared inbox must fail, got {other:?}"),
            }
        });
        rt.run_behavior(&mut b).unwrap();
    }

    #[test]
    fn observe_without_a_read_handle_is_a_send_with_the_send_contract() {
        // Loopback answers nothing in place (the `Transport` default).
        let mut t = Loopback::default();
        t.routes.push("obs_x".into());
        t.inboxes.insert("obs_x".into(), VecDeque::new());
        let mut rt = runtime_with(t, &["obs_x", "loose"]);
        let mut b = behavior_fn(|ctx| {
            assert_eq!(ctx.observe("obs_x", crate::ObsRequest::Health)?, None);
            match ctx.observe("loose", crate::ObsRequest::Health) {
                Err(EmberaError::Disconnected { interface, .. }) => assert_eq!(interface, "loose"),
                other => panic!("declared-but-unbound must be Disconnected, got {other:?}"),
            }
            match ctx.observe("ghost", crate::ObsRequest::Health) {
                Err(EmberaError::UnknownInterface { interface, .. }) => {
                    assert_eq!(interface, "ghost");
                }
                other => panic!("undeclared must be UnknownInterface, got {other:?}"),
            }
            // Unbound introspection: nothing to ask, nothing sent.
            assert_eq!(ctx.observe(INTROSPECTION, crate::ObsRequest::Health)?, None);
            Ok(())
        });
        rt.run_behavior(&mut b).unwrap();
        let sent: Vec<&Message> = rt.transport.inboxes.values().flatten().collect();
        let [Message::ObsRequest { from, request }] = sent[..] else {
            panic!("exactly the one request went out, got {sent:?}");
        };
        assert_eq!((from.as_str(), *request), ("c", crate::ObsRequest::Health));
    }

    #[test]
    fn blocking_recv_maps_shutdown_to_terminated() {
        let mut t = Loopback::default();
        t.inboxes.insert("in".into(), VecDeque::new());
        let mut rt = runtime_with(t, &[]);
        let mut b = behavior_fn(|ctx| match ctx.recv("in") {
            Err(EmberaError::Terminated) => Ok(()),
            other => panic!("expected Terminated, got {other:?}"),
        });
        rt.run_behavior(&mut b).unwrap();
        // Timed receive reports the timeout path instead.
        let mut b2 = behavior_fn(|ctx| {
            assert!(ctx.recv_timeout("in", 100)?.is_none());
            Ok(())
        });
        rt.run_behavior(&mut b2).unwrap();
    }

    #[test]
    fn run_to_completion_reports_error_and_serves_quiescent() {
        let mut t = Loopback::default();
        t.inboxes.insert(INTROSPECTION.to_string(), VecDeque::new());
        let rt = runtime_with(t, &[]);
        let completion = Arc::clone(&rt.completion);
        rt.run_to_completion(Box::new(behavior_fn(|_| {
            Err(EmberaError::Platform("boom".into()))
        })));
        // The termination accounting saw the behavior's error, and the
        // quiescent loop exited (the escalating failure shut the app
        // down, or run_to_completion would never return).
        match reported_error(&completion) {
            Some(EmberaError::Platform(msg)) => assert_eq!(msg, "boom"),
            other => panic!("error not recorded: {other:?}"),
        }
    }

    #[test]
    fn panic_is_contained_and_attributed() {
        let rt = runtime_with(Loopback::default(), &[]);
        let completion = Arc::clone(&rt.completion);
        rt.run_to_completion(Box::new(behavior_fn(|_| panic!("kaboom"))));
        match reported_error(&completion) {
            Some(EmberaError::BehaviorPanic { component, payload }) => {
                assert_eq!(component, "c");
                assert!(payload.contains("kaboom"), "{payload}");
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
    }

    #[test]
    fn restart_policy_reruns_failed_behavior() {
        let mut rt = runtime_with(Loopback::default(), &[]);
        rt.restart = Some(RestartPolicy {
            max_restarts: 2,
            ..Default::default()
        });
        let stats = Arc::clone(&rt.stats);
        let completion = Arc::clone(&rt.completion);
        let mut attempts = 0u32;
        rt.run_to_completion(Box::new(behavior_fn(move |_ctx| {
            attempts += 1;
            if attempts < 2 {
                Err(EmberaError::Platform("flaky".into()))
            } else {
                Ok(())
            }
        })));
        assert_eq!(
            reported_error(&completion),
            None,
            "second attempt succeeded, so the app sees no error"
        );
        assert_eq!(stats.restarts(), 1, "restarted exactly once");
        assert_eq!(
            stats.health(0).state,
            crate::observe::report::HealthState::Finished
        );
    }

    #[test]
    fn exhausted_one_for_one_budget_stays_contained() {
        // Two application components, so this one finishing does not
        // complete the application.
        let mut rt = runtime_with(Loopback::default(), &[]);
        rt.completion = Completion::new(2);
        rt.restart = Some(RestartPolicy {
            max_restarts: 1,
            escalation: Escalation::OneForOne,
            ..Default::default()
        });
        let stats = Arc::clone(&rt.stats);
        let completion = Arc::clone(&rt.completion);
        rt.run_to_completion(Box::new(behavior_fn(|_| {
            Err(EmberaError::Platform("always".into()))
        })));
        // The error is still recorded.
        assert_eq!(completion.remaining(), 1);
        match completion.take_errors().pop() {
            Some((_, EmberaError::Platform(msg))) => assert_eq!(msg, "always"),
            other => panic!("{other:?}"),
        }
        assert_eq!(stats.restarts(), 1);
        assert_eq!(
            stats.health(0).state,
            crate::observe::report::HealthState::Faulted
        );
    }

    #[test]
    fn fault_plan_drops_and_corrupts_deterministically() {
        let mut t = Loopback::default();
        t.routes.push("out".into());
        t.inboxes.insert("out".into(), VecDeque::new());
        let mut rt = runtime_with(t, &["out"]);
        let plan = FaultPlan::new()
            .drop_message("c", "out", 1)
            .corrupt_message("c", "out", 2);
        rt.faults = plan.for_component("c", rt.stats.interfaces());
        let mut b = behavior_fn(|ctx| {
            for i in 0..3u8 {
                ctx.send("out", Bytes::from(vec![i, 0x55]))?;
            }
            Ok(())
        });
        rt.run_behavior(&mut b).unwrap();
        // The dropped message never reached the transport and is not
        // counted as a send.
        assert_eq!(rt.engine.full_report(0).app.total_sends, 2);
        let payloads: Vec<Vec<u8>> = rt.transport.inboxes["out"]
            .iter()
            .map(|m| match m {
                Message::Data(d) => d.to_vec(),
                _ => Vec::new(),
            })
            .collect();
        assert_eq!(payloads, vec![vec![0, 0x55], vec![2 ^ 0xFF, 0x55]]);
    }

    #[test]
    fn fault_plan_panics_on_receive_iteration() {
        let mut t = Loopback::default();
        t.routes.push("out".into());
        t.inboxes.insert("out".into(), VecDeque::new());
        let mut rt = runtime_with(t, &["out"]);
        let plan = FaultPlan::new().panic_on_iteration("c", 1);
        rt.faults = plan.for_component("c", rt.stats.interfaces());
        let completion = Arc::clone(&rt.completion);
        rt.run_to_completion(Box::new(behavior_fn(|ctx| {
            for _ in 0..3 {
                ctx.send("out", Bytes::from_static(b"m"))?;
            }
            for _ in 0..3 {
                ctx.recv("out")?;
            }
            Ok(())
        })));
        match reported_error(&completion) {
            Some(EmberaError::BehaviorPanic { payload, .. }) => {
                assert!(payload.contains("iteration 1"), "{payload}");
            }
            other => panic!("expected injected panic, got {other:?}"),
        }
    }

    #[test]
    fn drop_oldest_sheds_at_ingress() {
        let mut t = Loopback::default();
        t.routes.push("out".into());
        t.inboxes.insert("out".into(), VecDeque::new());
        let mut rt = runtime_with(t, &["out"]);
        rt.overload = Some(crate::OverloadPolicy::drop_oldest(2));
        let stats = Arc::clone(&rt.stats);
        let mut b = behavior_fn(|ctx| {
            for i in 0..5u8 {
                ctx.send("out", Bytes::from(vec![i]))?;
            }
            // 5 queued against a bound of 2: the 3 oldest are shed, the
            // newest 2 delivered.
            assert_eq!(ctx.recv("out")?.as_ref(), &[3]);
            assert_eq!(ctx.recv("out")?.as_ref(), &[4]);
            Ok(())
        });
        rt.run_behavior(&mut b).unwrap();
        assert_eq!(stats.shed_messages(), 3);
        assert_eq!(stats.expired_messages(), 0);
        let app = rt.engine.full_report(0).app;
        assert_eq!(app.total_sends, 5);
        assert_eq!(app.total_receives, 2, "shed messages are not receives");
        assert_eq!(stats.health(0).shed_messages, 3);
    }

    #[test]
    fn deadline_drop_sheds_expired_envelopes() {
        let mut t = Loopback::default();
        t.routes.push("out".into());
        t.inboxes.insert("out".into(), VecDeque::new());
        let mut rt = runtime_with(t, &["out"]);
        rt.overload = Some(crate::OverloadPolicy::deadline_drop());
        let stats = Arc::clone(&rt.stats);
        let mut b = behavior_fn(|ctx| {
            // Loopback's clock advances on every send, so deadline 0 has
            // always expired by receive time.
            ctx.send_deadlined("out", Bytes::from_static(b"late"), 0)?;
            ctx.send_deadlined("out", Bytes::from_static(b"fresh"), u64::MAX)?;
            ctx.send("out", Bytes::from_static(b"plain"))?;
            assert_eq!(ctx.recv("out")?.as_ref(), b"fresh");
            assert_eq!(ctx.recv("out")?.as_ref(), b"plain");
            Ok(())
        });
        rt.run_behavior(&mut b).unwrap();
        assert_eq!(stats.expired_messages(), 1);
        assert_eq!(stats.shed_messages(), 0);
        assert_eq!(stats.health(0).expired_messages, 1);
    }

    #[test]
    fn introspection_served_during_blocked_recv() {
        let mut t = Loopback::default();
        t.inboxes.insert("in".into(), VecDeque::new());
        t.inboxes.insert(INTROSPECTION.to_string(), VecDeque::new());
        t.inboxes
            .get_mut(INTROSPECTION)
            .unwrap()
            .push_back(Message::ObsRequest {
                from: "tester".into(),
                request: crate::ObsRequest::AppStats,
            });
        t.routes.push(INTROSPECTION.to_string());
        t.route_to
            .insert(INTROSPECTION.to_string(), "replies".into());
        t.inboxes.insert("replies".into(), VecDeque::new());
        let mut rt = runtime_with(t, &[]);
        let mut b = behavior_fn(|ctx| {
            let _ = ctx.recv_timeout("in", 50)?;
            Ok(())
        });
        rt.run_behavior(&mut b).unwrap();
        // The request queued before the recv must have been answered
        // exactly once, with the reply routed out through the
        // introspection required interface.
        let replies = rt
            .transport
            .inboxes
            .get("replies")
            .unwrap()
            .iter()
            .filter(|m| matches!(m, Message::ObsReply { .. }))
            .count();
        assert_eq!(replies, 1);
    }
}
