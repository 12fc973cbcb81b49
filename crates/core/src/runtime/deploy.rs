//! The one deploy/wait skeleton shared by every backend.
//!
//! [`deploy`] does everything about bringing an [`AppSpec`] up that is
//! not platform-specific: it numbers each component's interfaces in an
//! [`IfaceTable`](super::IfaceTable), builds their endpoints, resolves
//! required-interface routes (returning the one
//! [`EmberaError::Validation`] for a connection whose end does not
//! exist), creates each component's statistics and observation engine,
//! hands every route that ends at a peer's
//! `introspection` that peer's engine and endpoints as well
//! ([`Observed`]: what a backend that can answer a poll on the
//! observer's side reads through), and threads the restart / overload /
//! fault / trace configuration and the payload pool into its
//! [`ComponentRuntime`]. [`Completion`] owns the error list, the count
//! of unfinished application components and the fail-fast vs contained
//! decision; [`Deployed::report`] folds them into the final
//! [`AppReport`].
//!
//! What a backend supplies ([`Backend`]): how to *make an endpoint*,
//! how to account memory, and how to *spawn a flow* — inside which it
//! makes its [`Transport`] (as late as it needs to: the MPSoC backend
//! only has its task context inside the flow) and hands it to the
//! [`Flow`]. Blocking until the application is done, the clock
//! the wall time is read from, and teardown stay in the backend's
//! [`RunningApp::wait`](crate::RunningApp::wait).

use std::collections::HashMap;
use std::sync::Arc;

use super::trace::TraceWriter;
use super::{ComponentRuntime, Transport};
use crate::app::AppSpec;
use crate::behavior::Behavior;
use crate::component::{ComponentSpec, INTROSPECTION};
use crate::error::EmberaError;
use crate::observe::engine::ObsEngine;
use crate::observe::stats::ComponentStats;
use crate::observer::is_observer_component;
use crate::overload::OverloadPolicy;
use crate::platform::AppReport;
use crate::pool::BufferPool;
use crate::supervise::{fault_result, ComponentFaults, RestartPolicy};
use crate::sync::{Condvar, Mutex};

struct CompletionState {
    /// Application (non-observer) components whose behavior has not
    /// finished yet.
    remaining: usize,
    /// Platform time at which the last of them finished.
    app_done_ns: Option<u64>,
    errors: Vec<(String, EmberaError)>,
}

/// Application-wide termination accounting, shared by every component
/// runtime of one deployment.
pub struct Completion {
    state: Mutex<CompletionState>,
    done: Condvar,
}

impl Completion {
    /// Accounting for an application with `app_components` non-observer
    /// components.
    pub fn new(app_components: usize) -> Arc<Completion> {
        Arc::new(Completion {
            state: Mutex::new(CompletionState {
                remaining: app_components,
                app_done_ns: None,
                errors: Vec::new(),
            }),
            done: Condvar::new(),
        })
    }

    /// `component`'s behavior returned at platform time `now_ns`.
    /// Returns whether the platform must shut down now: the application
    /// is complete, or the failure escalates (fail fast — peers blocked
    /// in `recv` drain out with `Terminated` instead of hanging). A
    /// `contained` failure ([`crate::Escalation::OneForOne`]) is
    /// recorded but does not escalate.
    pub(super) fn component_finished(
        &self,
        component: &str,
        error: Option<EmberaError>,
        contained: bool,
        now_ns: u64,
    ) -> bool {
        let mut st = self.state.lock();
        let escalate = error.is_some() && !contained;
        if let Some(e) = error {
            st.errors.push((component.to_string(), e));
        }
        let mut app_done = false;
        if !is_observer_component(component) {
            st.remaining -= 1;
            if st.remaining == 0 {
                st.app_done_ns = Some(now_ns);
                app_done = true;
                self.done.notify_all();
            }
        }
        escalate || app_done
    }

    /// Record a failure the platform itself diagnosed (e.g. a deadlock).
    pub fn fail(&self, component: &str, error: EmberaError) {
        self.state
            .lock()
            .errors
            .push((component.to_string(), error));
    }

    #[cfg(test)]
    pub(super) fn take_errors(&self) -> Vec<(String, EmberaError)> {
        std::mem::take(&mut self.state.lock().errors)
    }

    /// Application components still running.
    pub fn remaining(&self) -> usize {
        self.state.lock().remaining
    }

    /// Block the calling thread until every application component's
    /// behavior has finished. Returns the platform time at which the
    /// last one did (`None` if the application has none): the
    /// application's wall time, which excludes tearing down observers
    /// and quiescent service loops.
    pub fn wait_app_done(&self) -> Option<u64> {
        let mut st = self.state.lock();
        while st.remaining > 0 {
            st = self.done.wait(st);
        }
        st.app_done_ns
    }
}

/// The far end of a connection into a component's [`INTROSPECTION`]
/// interface, as a read handle: a transport that shares memory with
/// the target answers an observation request through it where the
/// observer stands ([`Transport::observe`]) instead of sending the
/// request into the target's mailbox.
#[derive(Clone)]
pub struct Observed<E> {
    /// The target's observation engine (its shared statistics and
    /// registered metrics).
    pub engine: ObsEngine,
    /// The target's provided endpoints, by its ids (slot 0,
    /// `introspection`, holds no data): what its queue gauges count.
    pub inboxes: Vec<Option<E>>,
}

/// One component's resolved connections, over the backend's endpoint
/// type; each `Vec` is indexed by [`IfaceId`](super::IfaceId).
#[derive(Clone)]
pub struct Wiring<E> {
    /// The component's index in deployment order.
    pub index: usize,
    /// The endpoint of each provided interface (data + introspection).
    pub provided: Vec<Option<E>>,
    /// The connected peer's endpoint of each required interface.
    pub routes: Vec<Option<E>>,
    /// The read handle of the peer, for every route that ends at a
    /// peer's [`INTROSPECTION`].
    pub observed: Vec<Option<Observed<E>>>,
    /// The component's statistics (named after it, with its table).
    pub stats: Arc<ComponentStats>,
    /// The application's payload pool ([`AppSpec::pool`]).
    pub pool: Option<BufferPool>,
}

/// One component, ready to be given an execution flow: everything its
/// runtime is made of but the transport.
pub struct Flow {
    /// Requested stack size ([`ComponentSpec::stack_bytes`]).
    pub stack_bytes: u64,
    engine: ObsEngine,
    trace: Option<TraceWriter>,
    restart: Option<RestartPolicy>,
    overload: Option<OverloadPolicy>,
    faults: Option<ComponentFaults>,
    pool: Option<BufferPool>,
    completion: Arc<Completion>,
    behavior: Box<dyn Behavior>,
}

impl Flow {
    /// The component's name.
    pub fn name(&self) -> &str {
        self.engine.stats().name()
    }

    /// The application's termination accounting.
    pub fn completion(&self) -> &Arc<Completion> {
        &self.completion
    }

    /// Run the component on the current execution flow until the
    /// application shuts down.
    pub fn run<T: Transport>(self, transport: T) {
        let mut runtime =
            ComponentRuntime::new(transport, self.engine, self.trace, self.completion);
        runtime.restart = self.restart;
        runtime.overload = self.overload;
        runtime.faults = self.faults;
        runtime.pool = self.pool;
        runtime.run_to_completion(self.behavior);
    }
}

/// The platform-specific part of deployment.
pub trait Backend {
    /// What a provided interface is on this platform.
    type Endpoint: Clone;

    /// Create the endpoint of `iface` (a data provided interface or
    /// [`INTROSPECTION`]) of component number `component`. Called for
    /// every component in order before any flow is spawned.
    fn make_endpoint(
        &mut self,
        component: usize,
        spec: &ComponentSpec,
        iface: &str,
    ) -> Result<Self::Endpoint, EmberaError>;

    /// The platform's memory-occupation formula for one component.
    fn memory_bytes(&self, spec: &ComponentSpec, has_observer: bool) -> u64;

    /// Give the component wired by `wiring` its execution flow (thread,
    /// fiber or simulated task).
    fn spawn(&mut self, wiring: Wiring<Self::Endpoint>, flow: Flow) -> Result<(), EmberaError>;
}

/// What [`deploy`] leaves with the backend's running-application
/// handle.
pub struct Deployed {
    app_name: String,
    engines: Vec<ObsEngine>,
    completion: Arc<Completion>,
}

impl Deployed {
    /// The application's termination accounting.
    pub fn completion(&self) -> &Arc<Completion> {
        &self.completion
    }

    /// The application has terminated: aggregate every originating
    /// failure (secondary `Terminated` errors from peers drained by the
    /// fail-fast shutdown rank last) or assemble the final report.
    pub fn report(self, wall_time_ns: u64) -> Result<AppReport, EmberaError> {
        fault_result(std::mem::take(&mut self.completion.state.lock().errors))?;
        Ok(AppReport {
            app_name: self.app_name,
            wall_time_ns,
            components: self
                .engines
                .iter()
                .map(|e| e.full_report(wall_time_ns))
                .collect(),
        })
    }
}

/// Instantiate components, wire connections and launch execution flows
/// on `backend` (the model's *deployment*, paper §4.1).
pub fn deploy<B: Backend>(backend: &mut B, mut spec: AppSpec) -> Result<Deployed, EmberaError> {
    let mut wired: HashMap<&str, Vec<&str>> = HashMap::new();
    for conn in &spec.connections {
        wired
            .entry(&conn.from.component)
            .or_default()
            .push(&conn.from.interface);
    }
    let mut provided = Vec::with_capacity(spec.components.len());
    let mut engines = Vec::with_capacity(spec.components.len());
    for (i, c) in spec.components.iter_mut().enumerate() {
        let wired = wired.get(c.name.as_str()).map_or(&[][..], Vec::as_slice);
        let stats = ComponentStats::wired(&c.name, &c.provided, &c.required, wired);
        let mut inboxes = vec![None; stats.interfaces().len()];
        for iface in c.provided.iter().map(String::as_str).chain([INTROSPECTION]) {
            let id = stats.interfaces().id(iface).expect("a provided interface");
            inboxes[id.index()] = Some(backend.make_endpoint(i, c, iface)?);
        }
        provided.push(inboxes);
        stats.set_memory_bytes(backend.memory_bytes(c, spec.has_observer));
        let metrics = std::mem::take(&mut c.metrics);
        engines.push(ObsEngine::with_metrics(Arc::new(stats), metrics));
    }

    let index_of: HashMap<&str, usize> = spec
        .components
        .iter()
        .enumerate()
        .map(|(i, c)| (c.name.as_str(), i))
        .collect();
    let table = |i: usize| engines[i].stats().interfaces();
    let mut routes: Vec<_> = provided.iter().map(|p| vec![None; p.len()]).collect();
    let mut observed: Vec<_> = provided.iter().map(|p| vec![None; p.len()]).collect();
    for conn in &spec.connections {
        let dangling = |end: &crate::app::Endpoint| {
            EmberaError::Validation(format!(
                "connection end {}::{} does not exist",
                end.component, end.interface
            ))
        };
        let from = *index_of
            .get(conn.from.component.as_str())
            .ok_or_else(|| dangling(&conn.from))?;
        let to = index_of.get(conn.to.component.as_str()).copied();
        let endpoint = |to: usize, iface: &str| provided[to][table(to).id(iface)?.index()].clone();
        let target = to
            .and_then(|to| endpoint(to, &conn.to.interface))
            .ok_or_else(|| dangling(&conn.to))?;
        let id = table(from)
            .id(&conn.from.interface)
            .expect("a wired interface");
        routes[from][id.index()] = Some(target);
        if let (Some(to), INTROSPECTION) = (to, conn.to.interface.as_str()) {
            let (engine, inboxes) = (engines[to].clone(), provided[to].clone());
            observed[from][id.index()] = Some(Observed { engine, inboxes });
        }
    }

    let completion = Completion::new(
        spec.components
            .iter()
            .filter(|c| !is_observer_component(&c.name))
            .count(),
    );
    let wired = spec.components.into_iter().zip(provided).zip(routes);
    for (index, (((c, provided), routes), observed)) in wired.zip(observed).enumerate() {
        let engine = engines[index].clone();
        let wiring = Wiring {
            index,
            provided,
            routes,
            observed,
            stats: Arc::clone(engine.stats()),
            pool: spec.pool.clone(),
        };
        let flow = Flow {
            stack_bytes: c.stack_bytes,
            trace: spec.trace.as_ref().map(|t| t.register(&c.name)),
            engine,
            restart: c.restart,
            overload: c.overload,
            faults: spec
                .faults
                .as_ref()
                .and_then(|plan| plan.for_component(&c.name, table(index))),
            pool: spec.pool.clone(),
            completion: Arc::clone(&completion),
            behavior: c.behavior,
        };
        backend.spawn(wiring, flow)?;
    }
    Ok(Deployed {
        app_name: spec.name,
        engines,
        completion,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};

    use bytes::Bytes;

    use super::*;
    use crate::app::{Connection, Endpoint};
    use crate::behavior::behavior_fn;
    use crate::runtime::{Fifo, HostTransport, Parker};

    /// Never blocks; one shutdown flag for the whole application.
    struct FlagParker(Arc<AtomicBool>);

    impl Parker for FlagParker {
        fn now_ns(&self) -> u64 {
            0
        }
        fn is_shutdown(&self) -> bool {
            self.0.load(Ordering::SeqCst)
        }
        fn request_shutdown(&self) {
            self.0.store(true, Ordering::SeqCst);
        }
        fn wake(&self, _owner: usize) {}
        fn park(&mut self, _deadline_ns: Option<u64>) {}
    }

    /// Runs each component on the calling thread, to the end, as it is
    /// spawned.
    #[derive(Default)]
    struct Inline(Arc<AtomicBool>);

    impl Backend for Inline {
        type Endpoint = Fifo;

        fn make_endpoint(
            &mut self,
            component: usize,
            _spec: &ComponentSpec,
            _iface: &str,
        ) -> Result<Fifo, EmberaError> {
            Ok(Fifo::new(component))
        }

        fn memory_bytes(&self, _spec: &ComponentSpec, _has_observer: bool) -> u64 {
            0
        }

        fn spawn(&mut self, wiring: Wiring<Fifo>, flow: Flow) -> Result<(), EmberaError> {
            flow.run(HostTransport::new(wiring, FlagParker(Arc::clone(&self.0))));
            Ok(())
        }
    }

    #[test]
    fn a_hand_built_spec_sends_on_a_wired_name_it_never_declared() {
        // `AppBuilder` rejects both an unbound and an undeclared required
        // interface; a hand-built `AppSpec` deploys with them.
        let sender = behavior_fn(|ctx| {
            let ghost = ctx.send("ghost", Bytes::new());
            assert!(matches!(ghost, Err(EmberaError::UnknownInterface { .. })));
            let loose = ctx.send("loose", Bytes::new());
            assert!(matches!(loose, Err(EmberaError::Disconnected { .. })));
            ctx.send("extra", Bytes::from_static(b"abc"))
        });
        let receiver = behavior_fn(|ctx| {
            assert_eq!(ctx.recv("in")?.as_ref(), b"abc");
            Ok(())
        });
        let spec = AppSpec {
            name: "hand-built".into(),
            components: vec![
                ComponentSpec::new("src", sender).with_required("loose"),
                // Not waited for: the sender finishing completes the
                // application, and this one then finds the message.
                ComponentSpec::new(crate::OBSERVER_NAME, receiver).with_provided("in"),
            ],
            connections: vec![Connection {
                from: Endpoint::new("src", "extra"),
                to: Endpoint::new(crate::OBSERVER_NAME, "in"),
            }],
            has_observer: false,
            trace: None,
            faults: None,
            pool: None,
        };
        let report = deploy(&mut Inline::default(), spec)
            .and_then(|deployed| deployed.report(0))
            .expect("no component failed");
        let (src, dst) = (&report.components[0], &report.components[1]);
        // Sent and timed, but only declared interfaces are listed.
        assert_eq!(
            (src.middleware.send.count, src.middleware.bytes_sent),
            (1, 3)
        );
        assert_eq!((src.app.total_sends, src.app.interfaces.len()), (0, 1));
        assert_eq!(dst.app.total_receives, 1);
    }

    #[test]
    fn shutdown_is_requested_on_completion_or_escalation_only() {
        let boom = || Some(EmberaError::Platform("boom".into()));
        let c = Completion::new(3);
        assert!(
            !c.component_finished("a", None, false, 10),
            "two still running"
        );
        assert!(!c.component_finished("b", boom(), true, 20), "contained");
        assert_eq!(c.remaining(), 1);
        // Observers are not waited for, but their failures escalate.
        assert!(!c.component_finished(crate::OBSERVER_NAME, None, false, 25));
        assert!(c.component_finished(crate::OBSERVER_NAME, boom(), false, 26));
        assert_eq!(c.remaining(), 1);
        assert!(
            c.component_finished("c", None, false, 30),
            "application complete"
        );
        assert_eq!((c.remaining(), c.wait_app_done()), (0, Some(30)));
        let names: Vec<String> = c.take_errors().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["b", crate::OBSERVER_NAME]);
    }

    #[test]
    fn escalating_failure_requests_shutdown_before_completion() {
        let c = Completion::new(2);
        assert!(c.component_finished("a", Some(EmberaError::Terminated), false, 1));
        assert_eq!(c.remaining(), 1);
    }
}
