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
//! [`EventKind::Shed`](crate::runtime::trace::EventKind::Shed) trace event — so the
//! shed decisions themselves are bit-for-bit reproducible on the
//! deterministic inproc backend.
//!
//! Both policies act at ingress, in the shared
//! [`ComponentRuntime`](crate::runtime::ComponentRuntime) and so identically on
//! every backend ([`OverloadPolicy::DropOldest`],
//! [`OverloadPolicy::DeadlineDrop`]): they apply when the component pops
//! a data message from one of its own provided interfaces. Drop-oldest
//! sheds the popped (oldest) message while the queue — popped message
//! included — exceeds `max_queue`; deadline-drop sheds messages whose
//! [`Message::Deadlined`](crate::Message) envelope has already expired.

/// How a component responds to overload. Attach with
/// [`ComponentSpec::with_overload`](crate::ComponentSpec::with_overload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Bounded-queue shedding: while the queue (the popped data message
    /// included) exceeds `max_queue`, the popped (oldest) message is
    /// shed, keeping the `max_queue` newest.
    DropOldest {
        /// Queue bound per provided interface, in messages.
        max_queue: u64,
    },
    /// Deadline shedding: popped [`Message::Deadlined`](crate::Message)
    /// envelopes whose deadline has already passed are shed without
    /// doing their work.
    DeadlineDrop,
}

impl OverloadPolicy {
    /// Bounded-queue ingress shedding: keep at most `max_queue` queued
    /// messages per provided interface, shedding the oldest beyond it.
    pub fn drop_oldest(max_queue: u64) -> Self {
        OverloadPolicy::DropOldest { max_queue }
    }

    /// Deadline-drop ingress shedding: shed already-expired
    /// [`Message::Deadlined`](crate::Message) envelopes.
    pub fn deadline_drop() -> Self {
        OverloadPolicy::DeadlineDrop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_pick_kinds() {
        assert_eq!(
            OverloadPolicy::drop_oldest(4),
            OverloadPolicy::DropOldest { max_queue: 4 }
        );
        assert_eq!(
            OverloadPolicy::deadline_drop(),
            OverloadPolicy::DeadlineDrop
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
