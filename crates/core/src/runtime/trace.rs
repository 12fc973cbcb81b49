//! First-class event tracing hooks for the shared component runtime.
//!
//! The paper's §6 announces "an event-trace-support for collecting
//! detailed events"; the `embera-trace` crate implements the collector
//! side (rings, analysis, export). These types are the *runtime* side:
//! a minimal sink interface the [`ComponentRuntime`] emits into, so
//! tracing is an application-level opt-in ([`crate::AppBuilder::with_tracing`])
//! instead of a per-behavior decorator, and works identically on every
//! backend.
//!
//! The core model deliberately knows nothing about rings or trace
//! formats — only this narrow emission interface — which keeps the
//! dependency arrow pointing from `embera-trace` to `embera`, never the
//! other way.
//!
//! [`ComponentRuntime`]: crate::runtime::ComponentRuntime

use std::fmt;
use std::sync::Arc;

/// What the runtime is reporting. Mirrors the collector-side event
/// vocabulary of `embera-trace` (which maps these one-to-one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Behavior entered `run`.
    BehaviorStart,
    /// Behavior returned from `run`; `a` = 1 if it returned an error.
    BehaviorEnd,
    /// A send primitive began; `a` = payload bytes.
    SendStart,
    /// The send completed; `a` = payload bytes, `b` = duration ns.
    SendEnd,
    /// A receive returned a message; `a` = payload bytes, `b` =
    /// duration ns of the primitive.
    Recv,
    /// A compute annotation completed; `a` = abstract ops, `b` =
    /// duration ns (0 on backends where compute is free).
    Compute,
    /// The runtime answered an observation request (invisible to the
    /// behavior — only first-class tracing can see these).
    ObsServed,
    /// The behavior panicked and the runtime contained it.
    BehaviorPanic,
    /// Supervision is re-running a failed behavior; `a` = restart
    /// attempt number (1-based), `b` = backoff ns.
    Restart,
    /// The fault-injection plan fired; `a` = action code (0 drop,
    /// 1 corrupt), `b` = payload bytes of the targeted message.
    FaultInjected,
    /// An overload policy shed a message at component ingress; `a` =
    /// reason code (0 queue-bound drop-oldest, 1 deadline expired),
    /// `b` = payload bytes of the shed message.
    Shed,
}

/// Receives trace events for one component. Implemented by
/// `embera-trace`'s `TraceHandle`; test code can implement it directly.
pub trait TraceSink: Send {
    /// Record one event. Called from the component's execution flow;
    /// must not block.
    fn emit(&self, ts_ns: u64, kind: TraceEventKind, a: u64, b: u64);
}

/// A sink factory: one [`TraceSink`] per component, keyed by name.
type SinkFactory = dyn Fn(&str) -> Box<dyn TraceSink> + Send + Sync;

/// Per-application tracing opt-in: a factory producing one
/// [`TraceSink`] per component at deployment time.
///
/// Carried by [`AppSpec`](crate::AppSpec) (see
/// [`AppBuilder::with_tracing`](crate::AppBuilder::with_tracing)), so
/// the *application description* — not the backend, not the behavior —
/// decides whether a run is traced.
#[derive(Clone)]
pub struct TraceConfig {
    factory: Arc<SinkFactory>,
}

impl TraceConfig {
    /// Tracing configuration from a per-component sink factory. The
    /// factory is invoked once per deployed component with the
    /// component's name.
    pub fn new(factory: impl Fn(&str) -> Box<dyn TraceSink> + Send + Sync + 'static) -> Self {
        TraceConfig {
            factory: Arc::new(factory),
        }
    }

    /// Create the sink for one component.
    pub fn sink_for(&self, component: &str) -> Box<dyn TraceSink> {
        (self.factory)(component)
    }
}

impl fmt::Debug for TraceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceConfig").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    struct VecSink(Arc<Mutex<Vec<(u64, TraceEventKind)>>>);
    impl TraceSink for VecSink {
        fn emit(&self, ts_ns: u64, kind: TraceEventKind, _a: u64, _b: u64) {
            self.0.lock().push((ts_ns, kind));
        }
    }

    #[test]
    fn factory_builds_one_sink_per_component() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        let config = TraceConfig::new(move |_name| Box::new(VecSink(Arc::clone(&log2))));
        let a = config.sink_for("a");
        let b = config.sink_for("b");
        a.emit(1, TraceEventKind::BehaviorStart, 0, 0);
        b.emit(2, TraceEventKind::BehaviorEnd, 0, 0);
        assert_eq!(log.lock().len(), 2);
        assert!(format!("{config:?}").contains("TraceConfig"));
    }
}
