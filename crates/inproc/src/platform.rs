//! Deployment of EMBera applications onto the calling thread.

use std::sync::Arc;

use embera::runtime::{self, Backend, Deployed, Fifo, Flow, Wiring};
use embera::{AppReport, AppSpec, ComponentSpec, EmberaError, Platform, RunningApp};
use embera_fiber::{Fiber, Resume};

use crate::transport::{InprocTransport, Shared};

/// The in-process deterministic platform (see the crate docs for the
/// scheduling model).
#[derive(Debug, Clone, Default)]
pub struct InprocPlatform;

impl InprocPlatform {
    /// The platform.
    pub fn new() -> Self {
        InprocPlatform
    }
}

/// A deployed in-process application. Nothing has executed yet:
/// components run inside [`RunningApp::wait`] on the calling thread.
pub struct InprocRunning {
    deployed: Deployed,
    shared: Arc<Shared>,
    /// One per component, in deployment order.
    fibers: Vec<Fiber>,
}

/// One fiber per component over [`Fifo`] mailboxes owned by its index.
struct FiberBackend {
    shared: Arc<Shared>,
    fibers: Vec<Fiber>,
}

impl Backend for FiberBackend {
    type Endpoint = Fifo;

    fn make_endpoint(
        &mut self,
        component: usize,
        _spec: &ComponentSpec,
        _iface: &str,
    ) -> Result<Fifo, EmberaError> {
        Ok(Fifo::new(component))
    }

    fn memory_bytes(&self, spec: &ComponentSpec, _has_observer: bool) -> u64 {
        // No threads, no mailbox structures: accounted memory is the
        // declared stack reservation alone.
        spec.stack_bytes
    }

    fn spawn(&mut self, wiring: Wiring<Fifo>, flow: Flow) -> Result<(), EmberaError> {
        let transport = InprocTransport {
            wiring,
            cpu_ns: 0,
            shared: Arc::clone(&self.shared),
            completion: Arc::clone(flow.completion()),
        };
        let stack_bytes = flow.stack_bytes as usize;
        self.fibers
            .push(Fiber::spawn(stack_bytes, move || flow.run(transport)));
        Ok(())
    }
}

impl Platform for InprocPlatform {
    type Running = InprocRunning;

    fn deploy(&mut self, spec: AppSpec) -> Result<InprocRunning, EmberaError> {
        let components = spec.components.len();
        let mut backend = FiberBackend {
            shared: Arc::new(Shared::new(components)),
            fibers: Vec::with_capacity(components),
        };
        let deployed = runtime::deploy(&mut backend, spec)?;
        let FiberBackend { shared, fibers } = backend;
        // With no application components there is nothing to wait for —
        // start already shut down so an observer exits at once.
        if deployed.completion().remaining() == 0 {
            shared.request_shutdown();
        }
        Ok(InprocRunning {
            deployed,
            shared,
            fibers,
        })
    }
}

impl RunningApp for InprocRunning {
    fn wait(mut self) -> Result<AppReport, EmberaError> {
        // The scheduler loop: resume whoever is next until every fiber
        // has returned.
        while let Some(i) = self.shared.next() {
            if self.fibers[i].resume() == Resume::Finished {
                self.shared.finished(i);
            }
        }
        // Every behavior has returned, so this does not block.
        let wall_time_ns = self
            .deployed
            .completion()
            .wait_app_done()
            .unwrap_or_else(|| self.shared.now());
        self.deployed.report(wall_time_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use embera::behavior::behavior_fn;
    use embera::{AppBuilder, ObserverConfig};

    fn pipe_app() -> AppSpec {
        let mut app = AppBuilder::new("pipe");
        app.add(
            ComponentSpec::new(
                "src",
                behavior_fn(|ctx| {
                    for i in 0..100u32 {
                        ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                    }
                    Ok(())
                }),
            )
            .with_required("out"),
        );
        app.add(
            ComponentSpec::new(
                "dst",
                behavior_fn(|ctx| {
                    for i in 0..100u32 {
                        let b = ctx.recv("in")?;
                        assert_eq!(b.as_ref(), i.to_le_bytes());
                    }
                    Ok(())
                }),
            )
            .with_provided("in"),
        );
        app.connect(("src", "out"), ("dst", "in"));
        app.build().unwrap()
    }

    #[test]
    fn pipeline_delivers_all_messages_in_order() {
        let report = InprocPlatform::new()
            .deploy(pipe_app())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(report.component("src").unwrap().app.total_sends, 100);
        assert_eq!(report.component("dst").unwrap().app.total_receives, 100);
    }

    #[test]
    fn consumer_first_demand_starts_its_producer() {
        // Same pipeline, consumer deployed first: it parks until the
        // producer, next in the run queue, pushes and wakes it.
        let mut app = AppBuilder::new("pull");
        app.add(
            ComponentSpec::new("dst", behavior_fn(|ctx| ctx.recv("in").map(|_| ())))
                .with_provided("in"),
        );
        app.add(
            ComponentSpec::new(
                "src",
                behavior_fn(|ctx| ctx.send("out", Bytes::from_static(b"x"))),
            )
            .with_required("out"),
        );
        app.connect(("src", "out"), ("dst", "in"));
        let report = InprocPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(report.total_receives(), 1);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let r = InprocPlatform::new()
                .deploy(pipe_app())
                .unwrap()
                .wait()
                .unwrap();
            (
                r.wall_time_ns,
                r.total_sends(),
                r.component("src").unwrap().middleware.send.total_ns,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn genuine_deadlock_is_a_named_error() {
        let mut app = AppBuilder::new("stuck");
        app.add(
            ComponentSpec::new("alone", behavior_fn(|ctx| ctx.recv("in").map(|_| ())))
                .with_provided("in"),
        );
        let err = InprocPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap_err();
        let EmberaError::Platform(msg) = err else {
            panic!()
        };
        assert!(msg.contains("deadlock") && msg.contains("alone"), "{msg}");
    }

    #[test]
    fn deadlock_is_named_once_the_observer_stops_polling() {
        // The observer's armed timer keeps the run alive: the deadlock is
        // declared only after its last round.
        let mut app = AppBuilder::new("stuck-observed");
        app.add(
            ComponentSpec::new("alone", behavior_fn(|ctx| ctx.recv("in").map(|_| ())))
                .with_provided("in"),
        );
        let log = app.with_observer(ObserverConfig::default().interval_ns(1_000).rounds(3));
        let err = InprocPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap_err();
        let EmberaError::Platform(msg) = err else {
            panic!()
        };
        assert!(msg.contains("deadlock") && msg.contains("alone"), "{msg}");
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn timed_recv_jumps_the_clock() {
        let mut app = AppBuilder::new("timer");
        app.add(
            ComponentSpec::new(
                "t",
                behavior_fn(|ctx| {
                    assert!(ctx.recv_timeout("in", 5_000)?.is_none());
                    assert!(ctx.now_ns() >= 5_000);
                    Ok(())
                }),
            )
            .with_provided("in"),
        );
        InprocPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
    }
}
