//! The tracing decorator: wraps any [`Ctx`] and emits detailed events
//! around every primitive — application code stays untouched.

use bytes::Bytes;

use embera::{Behavior, Ctx, EmberaError, Message, ObsReply, ObsRequest, Work};

use crate::collector::TraceHandle;
use crate::event::EventKind;

/// A [`Ctx`] decorator emitting trace events. Wrap a behavior with
/// [`TracedBehavior`] to trace it transparently.
pub struct TracingCtx<'a> {
    inner: &'a mut dyn Ctx,
    handle: &'a TraceHandle,
}

impl<'a> TracingCtx<'a> {
    /// Wrap `inner`, emitting through `handle`.
    pub fn new(inner: &'a mut dyn Ctx, handle: &'a TraceHandle) -> Self {
        TracingCtx { inner, handle }
    }
}

impl Ctx for TracingCtx<'_> {
    fn component(&self) -> &str {
        self.inner.component()
    }

    fn send_message(&mut self, required: &str, msg: Message) -> Result<(), EmberaError> {
        let bytes = msg.data_len() as u64;
        let t0 = self.inner.now_ns();
        self.handle.emit(t0, EventKind::SendStart, bytes, 0);
        let r = self.inner.send_message(required, msg);
        let t1 = self.inner.now_ns();
        self.handle.emit(t1, EventKind::SendEnd, bytes, t1 - t0);
        r
    }

    fn recv_message(&mut self, provided: &str) -> Result<Message, EmberaError> {
        let t0 = self.inner.now_ns();
        let r = self.inner.recv_message(provided);
        let t1 = self.inner.now_ns();
        if let Ok(msg) = &r {
            self.handle
                .emit(t1, EventKind::Recv, msg.data_len() as u64, t1 - t0);
        }
        r
    }

    fn recv_message_timeout(
        &mut self,
        provided: &str,
        timeout_ns: u64,
    ) -> Result<Option<Message>, EmberaError> {
        let t0 = self.inner.now_ns();
        let r = self.inner.recv_message_timeout(provided, timeout_ns);
        let t1 = self.inner.now_ns();
        if let Ok(Some(msg)) = &r {
            self.handle
                .emit(t1, EventKind::Recv, msg.data_len() as u64, t1 - t0);
        }
        r
    }

    fn compute(&mut self, work: Work) {
        let t0 = self.inner.now_ns();
        self.inner.compute(work);
        let t1 = self.inner.now_ns();
        self.handle.emit(t1, EventKind::Compute, work.ops, t1 - t0);
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn should_stop(&self) -> bool {
        self.inner.should_stop()
    }

    fn send(&mut self, required: &str, payload: Bytes) -> Result<(), EmberaError> {
        self.send_message(required, Message::Data(payload))
    }

    fn observe(
        &mut self,
        required: &str,
        request: ObsRequest,
    ) -> Result<Option<ObsReply>, EmberaError> {
        // Not a data primitive: straight through, so the inner context
        // may answer in place.
        self.inner.observe(required, request)
    }
}

/// Wraps a behavior so it runs against a [`TracingCtx`].
pub struct TracedBehavior<B> {
    inner: B,
    handle: TraceHandle,
}

impl<B: Behavior> TracedBehavior<B> {
    /// Trace `inner` through `handle`.
    pub fn new(inner: B, handle: TraceHandle) -> Self {
        TracedBehavior { inner, handle }
    }
}

impl<B: Behavior> Behavior for TracedBehavior<B> {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        self.handle.emit(ctx.now_ns(), EventKind::BehaviorStart, 0, 0);
        let result = {
            let mut traced = TracingCtx::new(ctx, &self.handle);
            self.inner.run(&mut traced)
        };
        self.handle.emit(
            ctx.now_ns(),
            EventKind::BehaviorEnd,
            u64::from(result.is_err()),
            0,
        );
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::TraceCollector;
    use embera::behavior::behavior_fn;
    use embera::{AppBuilder, ComponentSpec, Platform, RunningApp, WorkClass};
    use embera_smp::SmpPlatform;

    #[test]
    fn traced_pipeline_emits_full_event_sequence() {
        let collector = TraceCollector::new(1024);
        let src_handle = collector.register("src");
        let dst_handle = collector.register("dst");

        let mut app = AppBuilder::new("traced");
        app.add(
            ComponentSpec::new(
                "src",
                TracedBehavior::new(
                    behavior_fn(|ctx| {
                        ctx.compute(Work::ops(WorkClass::Control, 10));
                        for _ in 0..5 {
                            ctx.send("out", Bytes::from_static(b"payload"))?;
                        }
                        Ok(())
                    }),
                    src_handle,
                ),
            )
            .with_required("out")
            .with_stack_bytes(1 << 20),
        );
        app.add(
            ComponentSpec::new(
                "dst",
                TracedBehavior::new(
                    behavior_fn(|ctx| {
                        for _ in 0..5 {
                            ctx.recv("in")?;
                        }
                        Ok(())
                    }),
                    dst_handle,
                ),
            )
            .with_provided("in")
            .with_stack_bytes(1 << 20),
        );
        app.connect(("src", "out"), ("dst", "in"));
        SmpPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();

        let trace = collector.drain_sorted();
        let count = |k: EventKind| trace.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EventKind::BehaviorStart), 2);
        assert_eq!(count(EventKind::BehaviorEnd), 2);
        assert_eq!(count(EventKind::SendStart), 5);
        assert_eq!(count(EventKind::SendEnd), 5);
        assert_eq!(count(EventKind::Recv), 5);
        assert_eq!(count(EventKind::Compute), 1);
        // Timestamps are monotone within the sorted trace.
        assert!(trace.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // Send carries the payload size.
        let send = trace.iter().find(|e| e.kind == EventKind::SendEnd).unwrap();
        assert_eq!(send.a, 7);
    }
}
