//! Application assembly: the builder, connection wiring, observer
//! auto-wiring, and deployment-time validation.

use std::collections::{HashMap, HashSet};

use crate::component::{ComponentSpec, INTROSPECTION};
use crate::error::EmberaError;
use crate::observer::{
    is_observer_component, ObservationLog, ObserverBehavior, ObserverConfig,
    RegionObserverBehavior, RootObserverBehavior, OBSERVER_NAME, REGION_OBSERVER_PREFIX,
};
use crate::runtime::trace::TraceConfig;
use crate::supervise::FaultPlan;

/// One end of a connection.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// Component name.
    pub component: String,
    /// Interface name on that component.
    pub interface: String,
}

impl Endpoint {
    /// Build an endpoint.
    pub fn new(component: impl Into<String>, interface: impl Into<String>) -> Self {
        Endpoint {
            component: component.into(),
            interface: interface.into(),
        }
    }
}

/// A connection "established by linking required and provided
/// interfaces" (paper §3.1): `from` is the required side (the sender),
/// `to` the provided side (the mailbox).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// Required-interface side.
    pub from: Endpoint,
    /// Provided-interface side.
    pub to: Endpoint,
}

/// A validated, deployable application description.
#[derive(Debug)]
pub struct AppSpec {
    /// Application name.
    pub name: String,
    /// Components, in addition order (the observer, if any, is last).
    pub components: Vec<ComponentSpec>,
    /// Validated connections.
    pub connections: Vec<Connection>,
    /// Whether an observer component was auto-wired.
    pub has_observer: bool,
    /// Event-tracing opt-in: when set, every backend routes the
    /// components' runtime events (sends, receives, compute, lifecycle,
    /// served observations) into rings registered on this configuration.
    pub trace: Option<TraceConfig>,
    /// Deterministic fault-injection plan applied by the shared
    /// component runtime on every backend (reproducible bit-for-bit on
    /// `embera-inproc`).
    pub faults: Option<FaultPlan>,
    /// Shared payload buffer pool for zero-allocation steady-state
    /// messaging ([`AppBuilder::with_buffer_pool`]). Every backend
    /// exposes it to behaviors through `Ctx::payload_pool`; the host
    /// backends also draw their send-side payload copies from it.
    pub pool: Option<crate::pool::BufferPool>,
}

impl AppSpec {
    /// Render the component graph in GraphViz dot format: one node per
    /// component (observer dashed), one edge per connection (observation
    /// wiring dotted). Paste into `dot -Tsvg` to get the paper's
    /// Figure 1/3/7-style diagrams for any application.
    ///
    /// ```
    /// use embera::behavior::behavior_fn;
    /// use embera::{AppBuilder, ComponentSpec};
    ///
    /// let mut app = AppBuilder::new("demo");
    /// app.add(ComponentSpec::new("a", behavior_fn(|_| Ok(()))).with_required("out"));
    /// app.add(ComponentSpec::new("b", behavior_fn(|_| Ok(()))).with_provided("in"));
    /// app.connect(("a", "out"), ("b", "in"));
    /// let dot = app.build().unwrap().to_dot();
    /// assert!(dot.contains("\"a\" -> \"b\""));
    /// ```
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph embera {\n  rankdir=LR;\n  node [shape=box];\n");
        for c in &self.components {
            let style = if is_observer_component(&c.name) {
                ", style=dashed"
            } else {
                ""
            };
            let _ = writeln!(out, "  \"{}\" [label=\"{}\"{}];", c.name, c.name, style);
        }
        for conn in &self.connections {
            let observation = conn.from.interface == crate::component::INTROSPECTION
                || conn.to.interface == crate::component::INTROSPECTION;
            let style = if observation { " [style=dotted]" } else { "" };
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\" [label=\"{}\"]{};",
                conn.from.component, conn.to.component, conn.from.interface, style
            );
        }
        out.push_str("}\n");
        out
    }
}

/// Builder of EMBera applications. Mirrors the paper's `main` function
/// in which "each one of the five components and its interfaces are
/// instantiated. Then, this function specifies the connections between
/// all the components" (§4.3, Figure 3b).
pub struct AppBuilder {
    name: String,
    components: Vec<ComponentSpec>,
    connections: Vec<Connection>,
    observer: Option<ObserverConfig>,
    trace: Option<TraceConfig>,
    faults: Option<FaultPlan>,
    pool: Option<crate::pool::BufferPool>,
}

impl AppBuilder {
    /// Start building an application.
    pub fn new(name: impl Into<String>) -> Self {
        AppBuilder {
            name: name.into(),
            components: Vec::new(),
            connections: Vec::new(),
            observer: None,
            trace: None,
            faults: None,
            pool: None,
        }
    }

    /// Add a component (the model's *creation* control operation).
    pub fn add(&mut self, component: ComponentSpec) -> &mut Self {
        self.components.push(component);
        self
    }

    /// Connect a required interface to a provided interface (the model's
    /// *interconnection* control operation). Validation happens in
    /// [`AppBuilder::build`].
    pub fn connect(&mut self, from: (&str, &str), to: (&str, &str)) -> &mut Self {
        self.connections.push(Connection {
            from: Endpoint::new(from.0, from.1),
            to: Endpoint::new(to.0, to.1),
        });
        self
    }

    /// Add an observer component that periodically queries every other
    /// component's observation interface. Returns the log the observer
    /// fills; keep it to inspect the collected reports.
    pub fn with_observer(&mut self, config: ObserverConfig) -> ObservationLog {
        let log = ObservationLog::new();
        self.observer = Some(config.with_log(log.clone()));
        log
    }

    /// Opt the application into event tracing: every deployed component
    /// gets a ring in `config` and the runtime emits detailed events
    /// (sends, receives, compute sections, lifecycle, served observation
    /// requests) on every backend — no behavior wrapping required.
    pub fn with_tracing(&mut self, config: TraceConfig) -> &mut Self {
        self.trace = Some(config);
        self
    }

    /// Attach a deterministic fault-injection plan (testing aid). The
    /// shared component runtime applies the plan on every backend; empty
    /// plans are discarded.
    pub fn with_faults(&mut self, plan: FaultPlan) -> &mut Self {
        self.faults = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Attach a shared payload buffer pool. Every backend hands it to
    /// behaviors through `Ctx::payload_pool`; the host backends
    /// (`embera-smp`, `embera-exec`) also serve their send-primitive
    /// payload copies from it, making steady-state messaging allocation
    /// free once the pool is warm.
    pub fn with_buffer_pool(&mut self, pool: crate::pool::BufferPool) -> &mut Self {
        self.pool = Some(pool);
        self
    }

    /// Attach a restart policy to an already-added component — the
    /// supervision hook for components created by application builders
    /// (e.g. the MJPEG pipeline). Panics if no component with that name
    /// has been added: supervising a typo is a configuration bug.
    pub fn restart_component(
        &mut self,
        name: &str,
        policy: crate::supervise::RestartPolicy,
    ) -> &mut Self {
        let c = self
            .components
            .iter_mut()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("restart_component: no component named '{name}'"));
        c.restart = Some(policy);
        self
    }

    /// Validate and finalize the application.
    pub fn build(mut self) -> Result<AppSpec, EmberaError> {
        // Auto-wire the observer before validation so its connections are
        // checked like any other.
        let has_observer = self.observer.is_some();
        if let Some(mut config) = self.observer.take() {
            // The observer tree owns "Observer" and every "Observer.*"
            // name; a user component shadowing one would corrupt the
            // backends' application-completion accounting.
            for c in &self.components {
                if c.name == OBSERVER_NAME || c.name.starts_with("Observer.") {
                    return Err(EmberaError::Validation(format!(
                        "component name '{}' is reserved for the auto-wired observer",
                        c.name
                    )));
                }
            }
            let targets: Vec<String> = self.components.iter().map(|c| c.name.clone()).collect();
            match config.groups.take() {
                None => {
                    if config.actuate.is_some() || config.notify_done.is_some() {
                        return Err(EmberaError::Validation(
                            "actuate and notify_done require grouped observers \
                             (the root observer sends on them)"
                                .into(),
                        ));
                    }
                    self.wire_flat_observer(targets, config)
                }
                Some(groups) => {
                    // A root waits for a summary from every region, and a
                    // region without members never sends one.
                    if groups.is_empty() {
                        return Err(EmberaError::Validation(
                            "grouped observers need at least one group".into(),
                        ));
                    }
                    let known: HashSet<&str> = targets.iter().map(|t| t.as_str()).collect();
                    let mut seen = HashSet::new();
                    for (label, members) in &groups {
                        if members.is_empty() {
                            return Err(EmberaError::Validation(format!(
                                "observer group '{label}' has no members"
                            )));
                        }
                        for m in members {
                            if !known.contains(m.as_str()) {
                                return Err(EmberaError::Validation(format!(
                                    "observer group '{label}' lists unknown component '{m}'"
                                )));
                            }
                            if !seen.insert(m.as_str()) {
                                return Err(EmberaError::Validation(format!(
                                    "component '{m}' assigned to more than one observer group"
                                )));
                            }
                        }
                    }
                    self.wire_hierarchical_observer(groups, config)?;
                }
            }
        }
        self.validate()?;
        Ok(AppSpec {
            name: self.name,
            components: self.components,
            connections: self.connections,
            has_observer,
            trace: self.trace,
            faults: self.faults,
            pool: self.pool,
        })
    }

    /// The paper's flat topology: one observer component, wired to every
    /// component. Byte-identical to the pre-hierarchy auto-wiring.
    fn wire_flat_observer(&mut self, targets: Vec<String>, config: ObserverConfig) {
        let mut observer = ComponentSpec::new(
            OBSERVER_NAME,
            ObserverBehavior::new(targets.clone(), config),
        )
        .with_provided("observations");
        for t in &targets {
            observer = observer.with_required(format!("obs_{t}"));
        }
        for t in &targets {
            self.wire_observed(OBSERVER_NAME, t);
        }
        self.components.push(observer);
    }

    /// `observer` asks through `obs_<member>` → `member.introspection`,
    /// and `member` answers through `member.introspection` →
    /// `observer.observations`.
    fn wire_observed(&mut self, observer: &str, member: &str) {
        self.connections.push(Connection {
            from: Endpoint::new(observer, format!("obs_{member}")),
            to: Endpoint::new(member, INTROSPECTION),
        });
        self.connections.push(Connection {
            from: Endpoint::new(member, INTROSPECTION),
            to: Endpoint::new(observer, "observations"),
        });
    }

    /// Two-level hierarchy: one regional observer per group (each wired
    /// to its members exactly like a flat observer), all rolling up to a
    /// root observer appended last.
    fn wire_hierarchical_observer(
        &mut self,
        groups: Vec<(String, Vec<String>)>,
        config: ObserverConfig,
    ) -> Result<(), EmberaError> {
        if let Some((done_component, _)) = &config.notify_done {
            let observed = groups
                .iter()
                .any(|(_, members)| members.iter().any(|m| m == done_component));
            if observed {
                return Err(EmberaError::Validation(format!(
                    "notify_done target '{done_component}' must not itself be observed \
                     (it can only finish after the observer tree does)"
                )));
            }
        }
        if let Some((actuate_component, _)) = &config.actuate {
            let observed = groups
                .iter()
                .any(|(_, members)| members.iter().any(|m| m == actuate_component));
            if observed {
                return Err(EmberaError::Validation(format!(
                    "actuate target '{actuate_component}' must not itself be observed \
                     (it consumes the observer tree's output)"
                )));
            }
        }
        for (idx, (label, members)) in groups.iter().enumerate() {
            let name = format!("{REGION_OBSERVER_PREFIX}{idx}");
            let mut regional = ComponentSpec::new(
                name.clone(),
                RegionObserverBehavior::new(label.clone(), members.clone(), config.clone()),
            )
            .with_provided("observations")
            .with_required("rollup");
            for m in members {
                regional = regional.with_required(format!("obs_{m}"));
            }
            for m in members {
                self.wire_observed(&name, m);
            }
            self.connections.push(Connection {
                from: Endpoint::new(name, "rollup"),
                to: Endpoint::new(OBSERVER_NAME, "regions"),
            });
            self.components.push(regional);
        }
        let mut root = ComponentSpec::new(
            OBSERVER_NAME,
            RootObserverBehavior::new(groups.len(), config.clone()),
        )
        .with_provided("regions");
        if let Some((actuate_component, actuate_iface)) = &config.actuate {
            root = root.with_required("actuate");
            self.connections.push(Connection {
                from: Endpoint::new(OBSERVER_NAME, "actuate"),
                to: Endpoint::new(actuate_component.clone(), actuate_iface.clone()),
            });
        }
        if let Some((done_component, done_iface)) = &config.notify_done {
            root = root.with_required("done");
            self.connections.push(Connection {
                from: Endpoint::new(OBSERVER_NAME, "done"),
                to: Endpoint::new(done_component.clone(), done_iface.clone()),
            });
        }
        self.components.push(root);
        Ok(())
    }

    fn validate(&self) -> Result<(), EmberaError> {
        let err = |msg: String| Err(EmberaError::Validation(msg));

        // Unique, non-empty component names.
        let mut names = HashSet::new();
        for c in &self.components {
            if c.name.is_empty() {
                return err("component with empty name".into());
            }
            if !names.insert(c.name.as_str()) {
                return err(format!("duplicate component name '{}'", c.name));
            }
        }
        let by_name: HashMap<&str, &ComponentSpec> = self
            .components
            .iter()
            .map(|c| (c.name.as_str(), c))
            .collect();

        // Interface declarations: unique per role, 'introspection' is
        // reserved for the implicit observation pair.
        for c in &self.components {
            for list in [&c.provided, &c.required] {
                let mut seen = HashSet::new();
                for iface in list {
                    if iface == INTROSPECTION {
                        return err(format!(
                            "component '{}' declares reserved interface '{INTROSPECTION}'",
                            c.name
                        ));
                    }
                    if !seen.insert(iface.as_str()) {
                        return err(format!(
                            "component '{}' declares interface '{iface}' twice",
                            c.name
                        ));
                    }
                }
            }
        }

        // Connection endpoints must exist with the right roles.
        for conn in &self.connections {
            let Some(from) = by_name.get(conn.from.component.as_str()) else {
                return err(format!(
                    "connection from unknown component '{}'",
                    conn.from.component
                ));
            };
            if !from.has_required(&conn.from.interface) {
                return err(format!(
                    "component '{}' has no required interface '{}'",
                    conn.from.component, conn.from.interface
                ));
            }
            let Some(to) = by_name.get(conn.to.component.as_str()) else {
                return err(format!(
                    "connection to unknown component '{}'",
                    conn.to.component
                ));
            };
            if !to.has_provided(&conn.to.interface) {
                return err(format!(
                    "component '{}' has no provided interface '{}'",
                    conn.to.component, conn.to.interface
                ));
            }
        }

        // A required interface binds at most once.
        let mut bound = HashSet::new();
        for conn in &self.connections {
            if !bound.insert((&conn.from.component, &conn.from.interface)) {
                return err(format!(
                    "required interface '{}' of '{}' connected twice",
                    conn.from.interface, conn.from.component
                ));
            }
        }

        // Every *data* required interface must be bound (an unbound
        // introspection pair just means no observer is attached).
        for c in &self.components {
            for r in &c.required {
                if !bound.contains(&(&c.name, r)) {
                    return err(format!(
                        "required interface '{r}' of component '{}' is not connected",
                        c.name
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::behavior_fn;

    fn noop() -> impl crate::Behavior + 'static {
        behavior_fn(|_ctx| Ok(()))
    }

    fn two_component_builder() -> AppBuilder {
        let mut b = AppBuilder::new("app");
        b.add(ComponentSpec::new("a", noop()).with_required("out"));
        b.add(ComponentSpec::new("b", noop()).with_provided("in"));
        b.connect(("a", "out"), ("b", "in"));
        b
    }

    #[test]
    fn valid_app_builds() {
        let spec = two_component_builder().build().unwrap();
        assert_eq!(spec.components.len(), 2);
        assert_eq!(spec.connections.len(), 1);
        assert!(!spec.has_observer);
    }

    #[test]
    fn duplicate_component_name_rejected() {
        let mut b = AppBuilder::new("app");
        b.add(ComponentSpec::new("x", noop()));
        b.add(ComponentSpec::new("x", noop()));
        assert!(matches!(b.build(), Err(EmberaError::Validation(_))));
    }

    #[test]
    fn unbound_required_interface_rejected() {
        let mut b = AppBuilder::new("app");
        b.add(ComponentSpec::new("a", noop()).with_required("out"));
        let e = b.build().unwrap_err();
        let EmberaError::Validation(msg) = e else {
            panic!()
        };
        assert!(msg.contains("not connected"), "{msg}");
    }

    #[test]
    fn double_binding_of_required_interface_rejected() {
        let mut b = AppBuilder::new("app");
        b.add(ComponentSpec::new("a", noop()).with_required("out"));
        b.add(
            ComponentSpec::new("b", noop())
                .with_provided("in1")
                .with_provided("in2"),
        );
        b.connect(("a", "out"), ("b", "in1"));
        b.connect(("a", "out"), ("b", "in2"));
        assert!(b.build().is_err());
    }

    #[test]
    fn fan_in_to_one_provided_interface_is_allowed() {
        let mut b = AppBuilder::new("app");
        b.add(ComponentSpec::new("a", noop()).with_required("out"));
        b.add(ComponentSpec::new("b", noop()).with_required("out"));
        b.add(ComponentSpec::new("sink", noop()).with_provided("in"));
        b.connect(("a", "out"), ("sink", "in"));
        b.connect(("b", "out"), ("sink", "in"));
        assert!(b.build().is_ok());
    }

    #[test]
    fn connection_to_unknown_interface_rejected() {
        let mut b = AppBuilder::new("app");
        b.add(ComponentSpec::new("a", noop()).with_required("out"));
        b.add(ComponentSpec::new("b", noop()));
        b.connect(("a", "out"), ("b", "nope"));
        assert!(b.build().is_err());
    }

    #[test]
    fn declaring_introspection_explicitly_rejected() {
        let mut b = AppBuilder::new("app");
        b.add(ComponentSpec::new("a", noop()).with_provided(INTROSPECTION));
        assert!(b.build().is_err());
    }

    #[test]
    fn observer_autowires_connections() {
        let mut b = two_component_builder();
        let _log = b.with_observer(ObserverConfig::default());
        let spec = b.build().unwrap();
        assert!(spec.has_observer);
        assert_eq!(spec.components.len(), 3);
        let obs = &spec.components[2];
        assert_eq!(obs.name, OBSERVER_NAME);
        assert_eq!(obs.provided, vec!["observations"]);
        assert_eq!(obs.required, vec!["obs_a", "obs_b"]);
        // 1 data connection + 2 per observed component.
        assert_eq!(spec.connections.len(), 1 + 4);
    }

    #[test]
    fn dot_export_contains_nodes_and_edges() {
        let spec = two_component_builder().build().unwrap();
        let dot = spec.to_dot();
        assert!(dot.starts_with("digraph embera {"));
        assert!(dot.contains("\"a\" [label=\"a\"];"));
        assert!(dot.contains("\"a\" -> \"b\" [label=\"out\"];"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_export_marks_observer_wiring() {
        let mut b = two_component_builder();
        let _ = b.with_observer(ObserverConfig::default());
        let dot = b.build().unwrap().to_dot();
        assert!(dot.contains("style=dashed"), "observer node dashed");
        assert!(dot.contains("style=dotted"), "observation edges dotted");
    }

    #[test]
    fn grouped_observer_wires_regionals_and_root() {
        let mut b = AppBuilder::new("app");
        for n in ["a", "b", "c", "d"] {
            b.add(ComponentSpec::new(n, noop()));
        }
        let _log = b.with_observer(ObserverConfig::default().grouped(vec![
            ("left".into(), vec!["a".into(), "b".into()]),
            ("right".into(), vec!["c".into(), "d".into()]),
        ]));
        let spec = b.build().unwrap();
        assert!(spec.has_observer);
        // 4 app components + 2 regionals + root.
        assert_eq!(spec.components.len(), 7);
        assert_eq!(spec.components[4].name, "Observer.region0");
        assert_eq!(spec.components[5].name, "Observer.region1");
        let root = &spec.components[6];
        assert_eq!(root.name, OBSERVER_NAME);
        assert_eq!(root.provided, vec!["regions"]);
        assert!(root.required.is_empty());
        let r0 = &spec.components[4];
        assert_eq!(r0.provided, vec!["observations"]);
        assert_eq!(r0.required, vec!["rollup", "obs_a", "obs_b"]);
        // 2 per member (4 members) + 1 rollup per region (2 regions).
        assert_eq!(spec.connections.len(), 4 * 2 + 2);
    }

    #[test]
    fn grouped_observer_validates_membership() {
        let mk = || {
            let mut b = AppBuilder::new("app");
            b.add(ComponentSpec::new("a", noop()));
            b.add(ComponentSpec::new("b", noop()));
            b
        };
        let mut b = mk();
        b.with_observer(
            ObserverConfig::default().grouped(vec![("g".into(), vec!["a".into(), "nope".into()])]),
        );
        assert!(matches!(b.build(), Err(EmberaError::Validation(_))));

        let mut b = mk();
        b.with_observer(ObserverConfig::default().grouped(vec![
            ("g1".into(), vec!["a".into()]),
            ("g2".into(), vec!["a".into()]),
        ]));
        assert!(matches!(b.build(), Err(EmberaError::Validation(_))));

        // No group, or a group without members: the root would wait for
        // a summary that never comes.
        let mut b = mk();
        b.with_observer(ObserverConfig::default().grouped(vec![]));
        assert!(matches!(b.build(), Err(EmberaError::Validation(_))));

        let mut b = mk();
        b.with_observer(ObserverConfig::default().grouped(vec![
            ("g".into(), vec!["a".into()]),
            ("empty".into(), vec![]),
        ]));
        assert!(matches!(b.build(), Err(EmberaError::Validation(_))));

        // Unlisted components are simply unobserved.
        let mut b = mk();
        b.with_observer(ObserverConfig::default().grouped(vec![("g".into(), vec!["a".into()])]));
        let spec = b.build().unwrap();
        assert_eq!(spec.components.len(), 4); // a, b, regional, root
    }

    #[test]
    fn observer_names_are_reserved() {
        for bad in [OBSERVER_NAME, "Observer.region0", "Observer.custom"] {
            let mut b = AppBuilder::new("app");
            b.add(ComponentSpec::new(bad, noop()));
            b.with_observer(ObserverConfig::default());
            assert!(
                matches!(b.build(), Err(EmberaError::Validation(_))),
                "'{bad}' accepted"
            );
        }
    }

    #[test]
    fn notify_done_target_must_be_unobserved() {
        // The flat observer observes everything, the waiter included, and
        // has no root to send the message: rejected.
        let mut b = AppBuilder::new("app");
        b.add(ComponentSpec::new("a", noop()));
        b.add(ComponentSpec::new("waiter", noop()).with_provided("done"));
        b.with_observer(ObserverConfig::default().notify_done("waiter", "done"));
        assert!(matches!(b.build(), Err(EmberaError::Validation(_))));

        // A group that lists the waiter: rejected.
        let mut b = AppBuilder::new("app");
        b.add(ComponentSpec::new("a", noop()));
        b.add(ComponentSpec::new("waiter", noop()).with_provided("done"));
        b.with_observer(
            ObserverConfig::default()
                .grouped(vec![("g".into(), vec!["a".into(), "waiter".into()])])
                .notify_done("waiter", "done"),
        );
        assert!(matches!(b.build(), Err(EmberaError::Validation(_))));

        let mut b = AppBuilder::new("app");
        b.add(ComponentSpec::new("a", noop()));
        b.add(ComponentSpec::new("waiter", noop()).with_provided("done"));
        b.with_observer(
            ObserverConfig::default()
                .grouped(vec![("g".into(), vec!["a".into()])])
                .notify_done("waiter", "done"),
        );
        let spec = b.build().unwrap();
        let root = spec.components.last().unwrap();
        assert_eq!(root.required, vec!["done"]);
        assert!(spec
            .connections
            .iter()
            .any(|c| c.from.component == OBSERVER_NAME
                && c.from.interface == "done"
                && c.to.component == "waiter"));
    }

    #[test]
    fn actuate_wires_root_to_controller() {
        // The flat observer cannot actuate.
        let mut b = AppBuilder::new("app");
        b.add(ComponentSpec::new("a", noop()));
        b.add(ComponentSpec::new("ctl", noop()).with_provided("summaries"));
        b.with_observer(ObserverConfig::default().actuate("ctl", "summaries"));
        assert!(matches!(b.build(), Err(EmberaError::Validation(_))));

        // An observed actuate target is rejected.
        let mut b = AppBuilder::new("app");
        b.add(ComponentSpec::new("a", noop()));
        b.add(ComponentSpec::new("ctl", noop()).with_provided("summaries"));
        b.with_observer(
            ObserverConfig::default()
                .grouped(vec![("g".into(), vec!["a".into(), "ctl".into()])])
                .actuate("ctl", "summaries"),
        );
        assert!(matches!(b.build(), Err(EmberaError::Validation(_))));

        // Grouped hierarchy with an unobserved controller wires up.
        let mut b = AppBuilder::new("app");
        b.add(ComponentSpec::new("a", noop()));
        b.add(ComponentSpec::new("ctl", noop()).with_provided("summaries"));
        b.with_observer(
            ObserverConfig::default()
                .grouped(vec![("g".into(), vec!["a".into()])])
                .actuate("ctl", "summaries"),
        );
        let spec = b.build().unwrap();
        let root = spec.components.last().unwrap();
        assert_eq!(root.required, vec!["actuate"]);
        assert!(spec
            .connections
            .iter()
            .any(|c| c.from.component == OBSERVER_NAME
                && c.from.interface == "actuate"
                && c.to.component == "ctl"
                && c.to.interface == "summaries"));
    }

    #[test]
    fn connecting_to_introspection_directly_is_allowed() {
        // A hand-rolled observer can target introspection itself.
        let mut b = AppBuilder::new("app");
        b.add(ComponentSpec::new("a", noop()));
        b.add(
            ComponentSpec::new("myobs", noop())
                .with_provided("replies")
                .with_required("ask_a"),
        );
        b.connect(("myobs", "ask_a"), ("a", INTROSPECTION));
        b.connect(("a", INTROSPECTION), ("myobs", "replies"));
        assert!(b.build().is_ok());
    }
}
