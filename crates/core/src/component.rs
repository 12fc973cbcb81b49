//! Component specifications: name, interfaces, behavior, placement.

use std::sync::Arc;

use crate::behavior::Behavior;
use crate::observe::custom::MetricSource;
use crate::overload::OverloadPolicy;
use crate::supervise::RestartPolicy;

/// Name of the implicit observation interface pair created "by default
/// on any EMBera component" (paper §4.2). Each component has both an
/// `introspection` provided interface (receives observation requests)
/// and an `introspection` required interface (returns the requested
/// information).
pub const INTROSPECTION: &str = "introspection";

/// Where a component should be deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The platform chooses (SMP: any core). The MPSoC backend puts it
    /// on CPU 0, the ST40 host, so an auto-wired observer shares that
    /// CPU with whatever is pinned there (Fetch-Reorder in Table 3).
    Any,
    /// Pin to a specific CPU.
    Cpu(usize),
}

/// Specification of one component: identity, declared data interfaces,
/// behavior, stack size and placement.
pub struct ComponentSpec {
    /// Unique component name.
    pub name: String,
    /// Data provided interfaces (mailboxes), in declaration order.
    pub provided: Vec<String>,
    /// Data required interfaces (connection endpoints), in declaration
    /// order.
    pub required: Vec<String>,
    /// The component's code.
    pub behavior: Box<dyn Behavior>,
    /// Stack size of the component's execution flow, bytes. Default is
    /// 8 MiB, matching the Linux thread stack the paper measured
    /// ("the memory values obtained for Linux thread stack correspond to
    /// 8 392 kb", §4.4 — i.e. the glibc default).
    pub stack_bytes: u64,
    /// Deployment placement.
    pub placement: Placement,
    /// Application-registered observation functions (paper §6
    /// extension); sampled by the runtime on `Custom`/`Full` requests.
    pub metrics: Vec<Arc<dyn MetricSource>>,
    /// Supervision: how the runtime reacts when the behavior fails
    /// (error or contained panic). `None` keeps the historical
    /// fail-fast semantics.
    pub restart: Option<RestartPolicy>,
    /// Overload response: load shedding enforced by the runtime at this
    /// component's ingress.
    /// `None` keeps the historical unbounded semantics.
    pub overload: Option<OverloadPolicy>,
}

impl ComponentSpec {
    /// A component named `name` running `behavior`, with no data
    /// interfaces yet and default stack/placement.
    pub fn new(name: impl Into<String>, behavior: impl Behavior + 'static) -> Self {
        ComponentSpec {
            name: name.into(),
            provided: Vec::new(),
            required: Vec::new(),
            behavior: Box::new(behavior),
            stack_bytes: 8 * 1024 * 1024,
            placement: Placement::Any,
            metrics: Vec::new(),
            restart: None,
            overload: None,
        }
    }

    /// Declare a data provided interface.
    pub fn with_provided(mut self, iface: impl Into<String>) -> Self {
        self.provided.push(iface.into());
        self
    }

    /// Declare a data required interface.
    pub fn with_required(mut self, iface: impl Into<String>) -> Self {
        self.required.push(iface.into());
        self
    }

    /// Set the stack size.
    pub fn with_stack_bytes(mut self, bytes: u64) -> Self {
        self.stack_bytes = bytes;
        self
    }

    /// Pin to a CPU.
    pub fn on_cpu(mut self, cpu: usize) -> Self {
        self.placement = Placement::Cpu(cpu);
        self
    }

    /// Register an observation function on this component.
    pub fn with_metric(mut self, metric: Arc<dyn MetricSource>) -> Self {
        self.metrics.push(metric);
        self
    }

    /// Supervise this component with a restart policy.
    pub fn with_restart(mut self, policy: RestartPolicy) -> Self {
        self.restart = Some(policy);
        self
    }

    /// Bound this component's queues with an overload policy.
    pub fn with_overload(mut self, policy: OverloadPolicy) -> Self {
        self.overload = Some(policy);
        self
    }

    /// Does the component declare this provided interface (including the
    /// implicit introspection interface)?
    pub fn has_provided(&self, iface: &str) -> bool {
        iface == INTROSPECTION || self.provided.iter().any(|p| p == iface)
    }

    /// Does the component declare this required interface (including the
    /// implicit introspection interface)?
    pub fn has_required(&self, iface: &str) -> bool {
        iface == INTROSPECTION || self.required.iter().any(|r| r == iface)
    }
}

impl std::fmt::Debug for ComponentSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComponentSpec")
            .field("name", &self.name)
            .field("provided", &self.provided)
            .field("required", &self.required)
            .field("stack_bytes", &self.stack_bytes)
            .field("placement", &self.placement)
            .field("restart", &self.restart)
            .field("overload", &self.overload)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::behavior_fn;

    fn spec() -> ComponentSpec {
        ComponentSpec::new("IDCT_1", behavior_fn(|_ctx| Ok(())))
            .with_provided("_fetchIdct1")
            .with_required("idctReorder")
    }

    #[test]
    fn builder_accumulates_interfaces() {
        let s = spec();
        assert_eq!(s.provided, vec!["_fetchIdct1"]);
        assert_eq!(s.required, vec!["idctReorder"]);
        assert_eq!(s.stack_bytes, 8 * 1024 * 1024);
        assert_eq!(s.placement, Placement::Any);
    }

    #[test]
    fn introspection_is_implicit_on_both_sides() {
        let s = spec();
        assert!(s.has_provided(INTROSPECTION));
        assert!(s.has_required(INTROSPECTION));
        assert!(s.has_provided("_fetchIdct1"));
        assert!(!s.has_provided("idctReorder"));
        assert!(s.has_required("idctReorder"));
        assert!(!s.has_required("_fetchIdct1"));
    }

    #[test]
    fn placement_and_stack_override() {
        let s = spec().on_cpu(2).with_stack_bytes(16 * 1024);
        assert_eq!(s.placement, Placement::Cpu(2));
        assert_eq!(s.stack_bytes, 16 * 1024);
    }
}
