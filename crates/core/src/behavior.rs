//! Behaviors: the user code inside a component, and the [`Ctx`] handle
//! the runtime hands it.

use bytes::Bytes;

use crate::error::EmberaError;
use crate::message::Message;
use crate::observe::protocol::{ObsReply, ObsRequest};

/// Class of computation, used by the simulated-MPSoC backend to pick
/// per-CPU throughput (mirrors `mpsoc_sim::ComputeClass`; kept separate
/// so the core model has no simulator dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkClass {
    /// Branchy control/integer code (parsing, Huffman decoding).
    Control,
    /// Dense DSP kernels (IDCT, filtering).
    Dsp,
    /// Bulk byte movement (reordering, memcpy-like loops).
    MemCopy,
}

/// A cost annotation describing work a behavior just performed.
///
/// This is how one behavior implementation drives both platforms: on the
/// SMP backend the real code already consumed real time and
/// [`Ctx::compute`] is a no-op; on the simulated STi7200 the annotation
/// advances virtual time according to the machine cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    /// Class of the computation.
    pub class: WorkClass,
    /// Abstract operation count (roughly: arithmetic ops retired).
    pub ops: u64,
    /// Bytes of memory traffic the computation streamed.
    pub mem_bytes: u64,
}

impl Work {
    /// Work of `ops` operations in `class` with no memory traffic.
    pub fn ops(class: WorkClass, ops: u64) -> Self {
        Work {
            class,
            ops,
            mem_bytes: 0,
        }
    }

    /// Attach memory traffic to the work item.
    pub fn with_mem(mut self, bytes: u64) -> Self {
        self.mem_bytes = bytes;
        self
    }
}

/// Handle through which a behavior interacts with its component runtime:
/// communication primitives, time, and cost annotation. Implemented by
/// each platform backend.
pub trait Ctx {
    /// Name of the component this behavior runs in.
    fn component(&self) -> &str;

    /// Send a raw message on a required interface.
    fn send_message(&mut self, required: &str, msg: Message) -> Result<(), EmberaError>;

    /// Receive the next raw message from a provided interface, blocking
    /// until one arrives; [`EmberaError::Terminated`] if the application
    /// shuts down first.
    fn recv_message(&mut self, provided: &str) -> Result<Message, EmberaError> {
        match self.recv_any_message(&[provided], None)? {
            Some((_, msg)) => Ok(msg),
            None => Err(EmberaError::Terminated),
        }
    }

    /// Receive with a deadline in nanoseconds; `Ok(None)` on timeout.
    fn recv_message_timeout(
        &mut self,
        provided: &str,
        timeout_ns: u64,
    ) -> Result<Option<Message>, EmberaError> {
        let got = self.recv_any_message(&[provided], Some(timeout_ns))?;
        Ok(got.map(|(_, msg)| msg))
    }

    /// Receive the next raw message from whichever of several provided
    /// interfaces has one: `Ok(Some((i, msg)))` means `provided[i]`
    /// delivered `msg`. This is the one receive a runtime implements;
    /// the single-interface forms above are its one-element case.
    ///
    /// A component is one execution flow behind all of its provided
    /// interfaces, and the runtime parks that flow, not an interface:
    /// a push to any inbox wakes it. This is the receive that waits on
    /// exactly that. The listed inboxes are scanned **in listed
    /// order** and the first non-empty one delivers; with all of them
    /// empty the component parks as a single receive does (answering
    /// its observers meanwhile) and scans again, from the first, on
    /// every wake. Within one interface messages arrive in FIFO order.
    /// Fairness between interfaces is the caller's list order and
    /// nothing else: an interface listed early that never runs dry
    /// starves the later ones, so a caller that wants round-robin
    /// rotates its list. A message is counted, traced, shed and
    /// fault-injected as a receive on the interface that delivered it.
    ///
    /// `timeout_ns: Some(t)` bounds the wait to `t` ns of platform
    /// time (`Some(0)` is a non-blocking scan); `None` waits until a
    /// message or shutdown. `Ok(None)` is returned only when the
    /// timeout passed or the application is shutting down with every
    /// listed inbox empty — unlike [`Ctx::recv_message`], an untimed
    /// wait ended by shutdown is `Ok(None)` too, not
    /// [`EmberaError::Terminated`] — or at once, without waiting, when
    /// `provided` is empty.
    ///
    /// Errors are those of a receive: any name in `provided` that is
    /// not a provided interface of this component is
    /// [`EmberaError::UnknownInterface`], reported before anything is
    /// taken or blocks.
    fn recv_any_message(
        &mut self,
        provided: &[&str],
        timeout_ns: Option<u64>,
    ) -> Result<Option<(usize, Message)>, EmberaError>;

    /// Annotate completed work (drives virtual time on simulators).
    fn compute(&mut self, work: Work);

    /// Current platform time in nanoseconds (monotonic; virtual on
    /// simulators, wall-clock since deployment on the SMP backend).
    fn now_ns(&self) -> u64;

    /// True once the application is shutting down; long-running service
    /// behaviors (e.g. the observer) use it to exit their loops.
    fn should_stop(&self) -> bool;

    /// The application's shared payload buffer pool, when one is
    /// attached ([`crate::AppBuilder::with_buffer_pool`]), on every
    /// backend (clones share the free list). Behaviors that serialize
    /// messages query this once at start-up; `None` (the default)
    /// means plain allocation.
    fn payload_pool(&self) -> Option<crate::pool::BufferPool> {
        None
    }

    /// Ask the component whose `introspection` interface `required` is
    /// connected to for `request`.
    ///
    /// `Ok(Some(reply))`: the backend answered in place — it read the
    /// target's shared statistics from this flow, stamped with this
    /// flow's clock, without waking the target (the host backends,
    /// `embera-smp` and `embera-exec`). `Ok(None)`: the request went out
    /// as a [`Message::ObsRequest`] and the reply will arrive as a
    /// [`Message::ObsReply`] on whatever provided interface the
    /// target's `introspection` is connected back to (`observations`
    /// for the auto-wired observers) — or `required` is the component's
    /// own unbound `introspection`, and nothing was sent. A caller
    /// written against both outcomes runs on every backend.
    ///
    /// Errors are those of a send: [`EmberaError::UnknownInterface`]
    /// for an interface the component never declared,
    /// [`EmberaError::Disconnected`] for a declared one with no
    /// connection. The default implementation is the message path.
    fn observe(
        &mut self,
        required: &str,
        request: ObsRequest,
    ) -> Result<Option<ObsReply>, EmberaError> {
        let from = self.component().to_string();
        self.send_message(required, Message::ObsRequest { from, request })?;
        Ok(None)
    }

    /// Send a data payload on a required interface (the paper's `send`
    /// primitive — counted by application-level observation and timed by
    /// middleware-level observation).
    fn send(&mut self, required: &str, payload: Bytes) -> Result<(), EmberaError> {
        self.send_message(required, Message::Data(payload))
    }

    /// Send a data payload with an absolute deadline (ns) riding the
    /// envelope. Downstream stages observe the deadline through
    /// [`Message::deadline_ns`] (or shed expired messages at ingress
    /// under a deadline-drop [`OverloadPolicy`](crate::OverloadPolicy)).
    fn send_deadlined(
        &mut self,
        required: &str,
        payload: Bytes,
        deadline_ns: u64,
    ) -> Result<(), EmberaError> {
        self.send_message(
            required,
            Message::Deadlined {
                payload,
                deadline_ns,
            },
        )
    }

    /// Receive a data payload from a provided interface (the paper's
    /// `receive` primitive). Deadlined payloads are accepted; the
    /// deadline is stripped (use [`Ctx::recv_message`] to see it).
    ///
    /// On an smp or exec application without a payload pool the payload
    /// shares its storage with the copy the sender's transport keeps to
    /// copy a later send into, until that send reuses or lets go of it:
    /// [`Bytes::is_unique`] on it is false and [`Bytes::try_mut`]
    /// `None`. The bytes never change while any handle to them is held.
    fn recv(&mut self, provided: &str) -> Result<Bytes, EmberaError> {
        data_payload(self.recv_message(provided)?, provided)
    }

    /// Receive a data payload with a deadline; `Ok(None)` on timeout.
    fn recv_timeout(
        &mut self,
        provided: &str,
        timeout_ns: u64,
    ) -> Result<Option<Bytes>, EmberaError> {
        let msg = self.recv_message_timeout(provided, timeout_ns)?;
        msg.map(|m| data_payload(m, provided)).transpose()
    }

    /// Receive a data payload from whichever of several provided
    /// interfaces has one ([`Ctx::recv_any_message`] has the order,
    /// timeout and shutdown rules); deadlines are stripped as in
    /// [`Ctx::recv`].
    fn recv_any(
        &mut self,
        provided: &[&str],
        timeout_ns: Option<u64>,
    ) -> Result<Option<(usize, Bytes)>, EmberaError> {
        let got = self.recv_any_message(provided, timeout_ns)?;
        got.map(|(i, m)| Ok((i, data_payload(m, provided[i])?)))
            .transpose()
    }
}

/// The payload of a data message received on `interface`, deadline
/// stripped; anything else is not what a data receive expects.
fn data_payload(msg: Message, interface: &str) -> Result<Bytes, EmberaError> {
    match msg {
        Message::Data(b) => Ok(b),
        Message::Deadlined { payload, .. } => Ok(payload),
        _ => Err(EmberaError::UnexpectedMessage {
            interface: interface.to_string(),
        }),
    }
}

/// User code of a component. The component is an *active* entity: the
/// runtime gives `run` its own execution flow (thread or simulated
/// task — paper §3.1).
pub trait Behavior: Send {
    /// Body of the component. Returning ends the component's application
    /// work; the runtime then keeps serving observation requests until
    /// the application terminates.
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError>;
}

/// Adapter turning a closure into a [`Behavior`].
pub struct FnBehavior<F>(pub F);

impl<F> Behavior for FnBehavior<F>
where
    F: FnMut(&mut dyn Ctx) -> Result<(), EmberaError> + Send,
{
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        (self.0)(ctx)
    }
}

/// Convenience constructor for closure behaviors.
pub fn behavior_fn<F>(f: F) -> FnBehavior<F>
where
    F: FnMut(&mut dyn Ctx) -> Result<(), EmberaError> + Send,
{
    FnBehavior(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_builders() {
        let w = Work::ops(WorkClass::Dsp, 1024).with_mem(64);
        assert_eq!(w.class, WorkClass::Dsp);
        assert_eq!(w.ops, 1024);
        assert_eq!(w.mem_bytes, 64);
    }
}
