//! Overload policies: bounded queues, load shedding, and deadline
//! drops.
//!
//! The paper's thesis is that component-based *observation* should
//! steer the application at runtime. Observation alone does not keep a
//! system healthy under arrival pressure, though: when offered load
//! exceeds capacity, unbounded mailboxes grow without limit and every
//! frame's latency degrades together. An [`OverloadPolicy`] attached to
//! a [`ComponentSpec`](crate::ComponentSpec) makes the overload
//! response explicit and *observable*: every shed message is counted in
//! the component's health ([`HealthInfo::shed_messages`](crate::HealthInfo::shed_messages) /
//! [`HealthInfo::expired_messages`](crate::HealthInfo)), rolled up
//! through regional observers into
//! [`RollupTotals`](crate::RollupTotals), and emitted as a
//! [`TraceEventKind::Shed`](crate::TraceEventKind) trace event — so the
//! shed decisions themselves are bit-for-bit reproducible on the
//! deterministic inproc backend.
//!
//! Enforcement points (shared [`ComponentRuntime`](crate::ComponentRuntime),
//! identical on every backend):
//!
//! * **Ingress** ([`OverloadKind::DropOldest`],
//!   [`OverloadKind::DeadlineDrop`]): applied when the component pops a
//!   data message from one of its own provided interfaces. Drop-oldest
//!   sheds the popped (oldest) message while the queue — popped message
//!   included — exceeds `max_queue`; deadline-drop sheds messages
//!   whose [`Message::Deadlined`](crate::Message) envelope has already
//!   expired.
//! * **Egress** ([`OverloadKind::Block`]): applied when the component
//!   *sends*; the send spins (bounded polls) while the destination
//!   mailbox holds `max_queue` or more messages, back-pressuring the
//!   producer instead of queueing unboundedly. Backends that cannot
//!   observe remote queue depth (`route_depth` → `None`: inproc, os21)
//!   degrade to the historical unbounded behavior.

/// How a component responds to overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadKind {
    /// Bounded-queue backpressure at egress: sends block (poll + yield)
    /// while the destination mailbox is at or above `max_queue`.
    Block,
    /// Bounded-queue shedding at ingress: while the queue (the popped
    /// data message included) exceeds `max_queue`, the popped (oldest)
    /// message is shed, keeping the `max_queue` newest.
    DropOldest,
    /// Deadline shedding at ingress: popped
    /// [`Message::Deadlined`](crate::Message) envelopes whose deadline
    /// has already passed are shed without doing their work.
    DeadlineDrop,
}

/// An overload policy for one component. Attach with
/// [`ComponentSpec::with_overload`](crate::ComponentSpec::with_overload)
/// or [`AppBuilder::overload_component`](crate::AppBuilder::overload_component).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadPolicy {
    /// The response strategy.
    pub kind: OverloadKind,
    /// Queue bound, in messages. Unused by [`OverloadKind::DeadlineDrop`].
    pub max_queue: u64,
    /// Poll interval while blocked (ns), used by [`OverloadKind::Block`].
    pub poll_ns: u64,
}

impl OverloadPolicy {
    /// Bounded-queue egress backpressure: block sends while the
    /// destination holds `max_queue` or more messages.
    pub fn block(max_queue: u64) -> Self {
        OverloadPolicy {
            kind: OverloadKind::Block,
            max_queue,
            poll_ns: 100_000,
        }
    }

    /// Bounded-queue ingress shedding: keep at most `max_queue` queued
    /// messages per provided interface, shedding the oldest beyond it.
    pub fn drop_oldest(max_queue: u64) -> Self {
        OverloadPolicy {
            kind: OverloadKind::DropOldest,
            max_queue,
            poll_ns: 100_000,
        }
    }

    /// Deadline-drop ingress shedding: shed already-expired
    /// [`Message::Deadlined`](crate::Message) envelopes.
    pub fn deadline_drop() -> Self {
        OverloadPolicy {
            kind: OverloadKind::DeadlineDrop,
            max_queue: 0,
            poll_ns: 100_000,
        }
    }

    /// Override the blocked-send poll interval.
    pub fn with_poll_ns(mut self, poll_ns: u64) -> Self {
        self.poll_ns = poll_ns;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_pick_kinds() {
        assert_eq!(OverloadPolicy::block(8).kind, OverloadKind::Block);
        assert_eq!(OverloadPolicy::block(8).max_queue, 8);
        assert_eq!(
            OverloadPolicy::drop_oldest(4).kind,
            OverloadKind::DropOldest
        );
        assert_eq!(
            OverloadPolicy::deadline_drop().kind,
            OverloadKind::DeadlineDrop
        );
        assert_eq!(
            OverloadPolicy::block(1).with_poll_ns(50).poll_ns,
            50
        );
    }

    #[test]
    fn policy_is_copy_and_comparable() {
        let p = OverloadPolicy::drop_oldest(16);
        let q = p;
        assert_eq!(p, q);
        assert_ne!(p, OverloadPolicy::drop_oldest(17));
    }
}
