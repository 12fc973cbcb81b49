//! Bridge to the runtime's first-class tracing hooks.
//!
//! The component runtime emits [`embera::TraceEventKind`] events through
//! an [`embera::TraceSink`]; this module maps them onto this crate's
//! [`EventKind`] vocabulary and lets a [`TraceCollector`] act as the
//! per-application sink factory. Because the events come from inside
//! the runtime, a behavior is traced against the very [`embera::Ctx`]
//! it would otherwise run on (payload pool and in-place observation
//! included), and the trace also holds runtime-internal activity —
//! notably [`EventKind::ObsServed`], the introspection requests the
//! runtime answers on the component's behalf.

use embera::{TraceConfig, TraceEventKind, TraceSink};

use crate::collector::{TraceCollector, TraceHandle};
use crate::event::EventKind;

/// Collector-side kind for a runtime-side kind (one-to-one).
pub fn map_kind(kind: TraceEventKind) -> EventKind {
    match kind {
        TraceEventKind::BehaviorStart => EventKind::BehaviorStart,
        TraceEventKind::BehaviorEnd => EventKind::BehaviorEnd,
        TraceEventKind::SendStart => EventKind::SendStart,
        TraceEventKind::SendEnd => EventKind::SendEnd,
        TraceEventKind::Recv => EventKind::Recv,
        TraceEventKind::Compute => EventKind::Compute,
        TraceEventKind::ObsServed => EventKind::ObsServed,
        TraceEventKind::BehaviorPanic => EventKind::BehaviorPanic,
        TraceEventKind::Restart => EventKind::Restart,
        TraceEventKind::FaultInjected => EventKind::FaultInjected,
        TraceEventKind::Shed => EventKind::Shed,
    }
}

impl TraceSink for TraceHandle {
    fn emit(&self, ts_ns: u64, kind: TraceEventKind, a: u64, b: u64) {
        TraceHandle::emit(self, ts_ns, map_kind(kind), a, b);
    }
}

impl TraceCollector {
    /// A [`TraceConfig`] registering one ring per deployed component on
    /// this collector. Attach it with
    /// [`AppBuilder::with_tracing`](embera::AppBuilder::with_tracing):
    ///
    /// ```
    /// # use embera::AppBuilder;
    /// # use embera_trace::TraceCollector;
    /// let collector = TraceCollector::default();
    /// let mut app = AppBuilder::new("traced");
    /// app.with_tracing(collector.trace_config());
    /// ```
    pub fn trace_config(&self) -> TraceConfig {
        let collector = self.clone();
        TraceConfig::new(move |name| Box::new(collector.register(name)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use embera::behavior::behavior_fn;
    use embera::{AppBuilder, ComponentSpec, Platform, RunningApp};
    use embera_smp::SmpPlatform;

    #[test]
    fn first_class_tracing_captures_a_run() {
        let collector = TraceCollector::default();
        let mut app = AppBuilder::new("traced");
        app.add(
            ComponentSpec::new(
                "src",
                behavior_fn(|ctx| ctx.send("out", Bytes::from_static(b"payload"))),
            )
            .with_required("out")
            .with_stack_bytes(1 << 20),
        );
        app.add(
            ComponentSpec::new("dst", behavior_fn(|ctx| ctx.recv("in").map(|_| ())))
                .with_provided("in")
                .with_stack_bytes(1 << 20),
        );
        app.connect(("src", "out"), ("dst", "in"));
        app.with_tracing(collector.trace_config());
        SmpPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();

        let trace = collector.drain_sorted();
        let count = |k: EventKind| trace.iter().filter(|e| e.kind == k).count();
        // Two components, full lifecycle brackets each.
        assert_eq!(count(EventKind::BehaviorStart), 2);
        assert_eq!(count(EventKind::BehaviorEnd), 2);
        // One data send, one data receive.
        assert_eq!(count(EventKind::SendStart), 1);
        assert_eq!(count(EventKind::SendEnd), 1);
        assert_eq!(count(EventKind::Recv), 1);
        // Both components registered by name through the factory.
        let mut names = collector.names();
        names.sort();
        assert_eq!(names, vec!["dst", "src"]);
    }
}
