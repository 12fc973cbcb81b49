//! The one deploy/wait skeleton shared by every backend.
//!
//! [`deploy`] does everything about bringing an [`AppSpec`] up that is
//! not platform-specific: it builds the `(component, provided ∪
//! introspection)` endpoint map, resolves required-interface routes
//! (returning the one [`EmberaError::Validation`] for a connection
//! whose end does not exist), creates each component's statistics and
//! observation engine, hands every route that ends at a peer's
//! `introspection` that peer's engine and data endpoints as well
//! ([`Observed`]: what a backend that can answer a poll on the
//! observer's side reads through), and threads the restart / overload / fault /
//! trace configuration into its [`ComponentRuntime`]. [`Completion`]
//! owns the error list, the count of unfinished application components
//! and the fail-fast vs contained decision; [`Deployed::report`] folds
//! them into the final [`AppReport`].
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

use parking_lot::{Condvar, Mutex};

use super::{ComponentRuntime, TraceSink, Transport};
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
use crate::supervise::{fault_result, FaultPlan, RestartPolicy};

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
            self.done.wait(&mut st);
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
    /// Endpoints of the target's *data* provided interfaces: what its
    /// queue gauges are computed from.
    pub inboxes: Vec<E>,
}

/// One component's resolved connections, over the backend's endpoint
/// type.
#[derive(Clone)]
pub struct Wiring<E> {
    /// The component's index in deployment order.
    pub index: usize,
    /// Endpoints of its provided interfaces (data + introspection).
    pub provided: HashMap<String, E>,
    /// Required interface → the connected peer's endpoint.
    pub routes: HashMap<String, E>,
    /// Required interface → the read handle of the peer, for every
    /// route that ends at a peer's [`INTROSPECTION`].
    pub observed: HashMap<String, Observed<E>>,
    /// The component's statistics (named after it).
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
    trace: Option<Box<dyn TraceSink>>,
    restart: Option<RestartPolicy>,
    overload: Option<OverloadPolicy>,
    faults: Option<Arc<FaultPlan>>,
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
        runtime.set_restart_policy(self.restart);
        runtime.set_overload_policy(self.overload);
        if let Some(plan) = &self.faults {
            runtime.set_fault_plan(plan);
        }
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

    /// Every component's observation engine, in component order.
    pub fn engines(&self) -> &[ObsEngine] {
        &self.engines
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
    let mut provided = Vec::with_capacity(spec.components.len());
    let mut engines = Vec::with_capacity(spec.components.len());
    for (i, c) in spec.components.iter_mut().enumerate() {
        let mut inboxes = HashMap::with_capacity(c.provided.len() + 1);
        for iface in c.provided.iter().map(String::as_str).chain([INTROSPECTION]) {
            inboxes.insert(iface.to_string(), backend.make_endpoint(i, c, iface)?);
        }
        provided.push(inboxes);
        let stats = Arc::new(ComponentStats::new(&c.name, &c.provided, &c.required));
        stats.set_memory_bytes(backend.memory_bytes(c, spec.has_observer));
        let metrics = std::mem::take(&mut c.metrics);
        engines.push(ObsEngine::with_metrics(stats, metrics));
    }

    let index_of: HashMap<&str, usize> = spec
        .components
        .iter()
        .enumerate()
        .map(|(i, c)| (c.name.as_str(), i))
        .collect();
    let mut routes: Vec<HashMap<String, B::Endpoint>> =
        spec.components.iter().map(|_| HashMap::new()).collect();
    let mut observed: Vec<HashMap<String, Observed<B::Endpoint>>> =
        spec.components.iter().map(|_| HashMap::new()).collect();
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
        let target = to
            .and_then(|to| provided[to].get(&conn.to.interface))
            .ok_or_else(|| dangling(&conn.to))?;
        routes[from].insert(conn.from.interface.clone(), target.clone());
        if let (Some(to), INTROSPECTION) = (to, conn.to.interface.as_str()) {
            let data = spec.components[to].provided.iter();
            let handle = Observed {
                engine: engines[to].clone(),
                inboxes: data.map(|iface| provided[to][iface].clone()).collect(),
            };
            observed[from].insert(conn.from.interface.clone(), handle);
        }
    }

    let completion = Completion::new(
        spec.components
            .iter()
            .filter(|c| !is_observer_component(&c.name))
            .count(),
    );
    let faults = spec.faults.map(Arc::new);
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
            trace: spec.trace.as_ref().map(|t| t.sink_for(&c.name)),
            engine,
            restart: c.restart,
            overload: c.overload,
            faults: faults.clone(),
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
    use super::*;

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
