//! Deployment of EMBera applications onto the calling thread.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use embera::runtime::{self, Backend, Deployed, Flow, Wiring};
use embera::{
    is_observer_component, AppReport, AppSpec, ComponentSpec, EmberaError, Platform, RunningApp,
    INTROSPECTION,
};

use crate::transport::{start_component, InprocTransport, Queue, Servicer, Shared};

/// The in-process deterministic platform (see the crate docs for the
/// scheduling model and its limitations).
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
    shared: Rc<Shared>,
}

/// One scheduler slot and one introspection servicer per component,
/// over shared `VecDeque` queues.
struct SlotBackend {
    shared: Rc<Shared>,
}

impl Backend for SlotBackend {
    type Endpoint = Queue;

    fn make_endpoint(
        &mut self,
        _component: usize,
        _spec: &ComponentSpec,
        _iface: &str,
    ) -> Result<Queue, EmberaError> {
        Ok(Queue::default())
    }

    fn memory_bytes(&self, spec: &ComponentSpec, _has_observer: bool) -> u64 {
        // No threads, no mailbox structures: accounted memory is the
        // declared stack reservation alone.
        spec.stack_bytes
    }

    fn spawn(&mut self, wiring: Wiring<Queue>, flow: Flow) -> Result<(), EmberaError> {
        let inbox = wiring.provided[INTROSPECTION].clone();
        // Only the main flow accounts CPU time into the shared stats
        // (the servicer would otherwise clobber it with its own).
        let transport = |account_cpu, wiring| InprocTransport {
            account_cpu,
            wiring,
            cpu_ns: 0,
            shared: Rc::clone(&self.shared),
            completion: Arc::clone(flow.completion()),
        };
        let side = transport(false, wiring.clone());
        self.shared.servicers.borrow_mut().push(Servicer {
            inbox,
            runtime: RefCell::new(flow.servicer(side)),
        });
        let main = transport(true, wiring);
        let (runtime, behavior) = flow.into_runtime(main);
        self.shared
            .slots
            .borrow_mut()
            .push(Some((Box::new(runtime), behavior)));
        Ok(())
    }
}

impl Platform for InprocPlatform {
    type Running = InprocRunning;

    fn deploy(&mut self, spec: AppSpec) -> Result<InprocRunning, EmberaError> {
        // Record who feeds which inbox for the demand-driven scheduler.
        let mut producers: HashMap<(String, String), Vec<usize>> = HashMap::new();
        for conn in &spec.connections {
            if let Some(from_idx) = spec.component_index(&conn.from.component) {
                producers
                    .entry((conn.to.component.clone(), conn.to.interface.clone()))
                    .or_default()
                    .push(from_idx);
            }
        }
        let observers: Vec<bool> = spec
            .components
            .iter()
            .map(|c| is_observer_component(&c.name))
            .collect();
        let shared = Rc::new(Shared {
            clock: Cell::new(0),
            shutdown: Cell::new(false),
            // Pre-size from the component count: every component pushes
            // one slot and one servicer during deployment, so the
            // scheduler tables never reallocate mid-run.
            slots: RefCell::new(Vec::with_capacity(observers.len())),
            servicers: RefCell::new(Vec::with_capacity(observers.len())),
            producers,
            observers,
        });
        let mut backend = SlotBackend {
            shared: Rc::clone(&shared),
        };
        let deployed = runtime::deploy(&mut backend, spec)?;
        // With no application components there is nothing to wait for —
        // start already shut down so an observer exits at once.
        shared.shutdown.set(deployed.completion().remaining() == 0);
        Ok(InprocRunning { deployed, shared })
    }
}

impl RunningApp for InprocRunning {
    fn wait(self) -> Result<AppReport, EmberaError> {
        // Start components in deployment order; each nested park may
        // have started later ones already, so re-scan after every run.
        loop {
            let next = self.shared.slots.borrow().iter().position(Option::is_some);
            match next {
                Some(i) => start_component(&self.shared, i),
                None => break,
            }
        }
        // Every behavior has returned, so this does not block.
        let wall_time_ns = self
            .deployed
            .completion()
            .wait_app_done()
            .unwrap_or_else(|| self.shared.clock.get());
        self.shared.shutdown.set(true);
        // Slots and servicers hold transports that hold `shared` — clear
        // them to break the Rc cycles before dropping.
        self.shared.slots.borrow_mut().clear();
        self.shared.servicers.borrow_mut().clear();
        self.deployed.report(wall_time_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use embera::behavior::behavior_fn;
    use embera::AppBuilder;

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
        // Same pipeline, consumer deployed first: its blocking recv must
        // pull the producer in rather than deadlock.
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
