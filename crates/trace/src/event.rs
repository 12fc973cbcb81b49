//! Trace event records.

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Behavior entered `run`.
    BehaviorStart,
    /// Behavior returned from `run`.
    BehaviorEnd,
    /// A `send` primitive began; `a` = payload bytes.
    SendStart,
    /// The `send` completed; `a` = payload bytes, `b` = duration ns.
    SendEnd,
    /// A `receive` returned a message; `a` = payload bytes, `b` =
    /// duration ns of the primitive.
    Recv,
    /// A compute annotation; `a` = abstract ops, `b` = duration ns
    /// (virtual platforms) or 0 (SMP).
    Compute,
    /// An observation request was served.
    ObsServed,
    /// A behavior panic was contained by the runtime.
    BehaviorPanic,
    /// Supervision re-ran a failed behavior; `a` = attempt number
    /// (1-based), `b` = backoff ns.
    Restart,
    /// The fault-injection plan fired; `a` = action code (0 drop,
    /// 1 corrupt, 2 delay), `b` = targeted payload bytes.
    FaultInjected,
    /// An overload policy shed a message; `a` = reason code (0
    /// queue-bound drop-oldest, 1 deadline expired), `b` = payload
    /// bytes of the shed message.
    Shed,
    /// Application-defined event; `a`/`b` free.
    User(u16),
}

/// One trace record. 32 bytes, `Copy`, cheap to move through rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Platform timestamp, ns.
    pub ts_ns: u64,
    /// Component id assigned by the collector.
    pub component: u32,
    /// Event kind.
    pub kind: EventKind,
    /// Kind-specific payload.
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
}

impl TraceEvent {
    /// Construct an event.
    pub fn new(ts_ns: u64, component: u32, kind: EventKind, a: u64, b: u64) -> Self {
        TraceEvent {
            ts_ns,
            component,
            kind,
            a,
            b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_is_small_and_copy() {
        // Keep the record compact: rings move these by value.
        assert!(std::mem::size_of::<TraceEvent>() <= 40);
        let e = TraceEvent::new(1, 2, EventKind::SendEnd, 3, 4);
        let f = e; // Copy
        assert_eq!(e, f);
    }
}
