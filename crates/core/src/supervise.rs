//! Supervision: restart policies, fault aggregation, and the
//! deterministic fault-injection plan.
//!
//! The paper's observer reads counters from *healthy* components; this
//! module is the layer that keeps the observation story intact when a
//! component misbehaves. A panicking behavior is contained by the shared
//! runtime and attributed ([`EmberaError::BehaviorPanic`]), an optional
//! [`RestartPolicy`] re-runs the behavior in place, every component
//! failure of a run is aggregated into a [`FaultReport`] (no silent
//! first-error truncation), and a [`FaultPlan`] lets tests inject
//! message drops/corruption and behavior panics at exact,
//! reproducible points — bit-for-bit deterministic on the
//! `embera-inproc` logical-clock backend, best-effort elsewhere.

use std::fmt;

use crate::error::EmberaError;
use crate::names::{IfaceId, IfaceTable};

/// What happens when a component exhausts its restart budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Escalation {
    /// The failure escalates to the application: fail-fast shutdown, the
    /// same termination protocol an unsupervised failure triggers.
    #[default]
    Escalate,
    /// The failure stays contained to this component: it is recorded in
    /// the run's [`FaultReport`] but the rest of the application keeps
    /// running to completion.
    OneForOne,
}

/// Restart policy of one component
/// ([`ComponentSpec::with_restart`](crate::ComponentSpec::with_restart)).
///
/// When the behavior returns an error (including a contained panic), the
/// runtime re-runs it in place — same execution flow, same mailboxes —
/// up to `max_restarts` times, pausing `backoff_ns` between attempts.
/// What was queued on its interfaces stays queued: the re-run resumes
/// the backlog. `Terminated` never triggers a restart: it means the application is
/// already shutting down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Maximum number of re-runs after the first failure.
    pub max_restarts: u32,
    /// Pause before each re-run, ns (virtual time on simulated
    /// backends).
    pub backoff_ns: u64,
    /// What to do once `max_restarts` is exhausted.
    pub escalation: Escalation,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 1,
            backoff_ns: 0,
            escalation: Escalation::Escalate,
        }
    }
}

/// What an injected message fault does to the targeted message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The message is silently discarded (never reaches the transport).
    Drop,
    /// The payload's first byte is flipped (`^ 0xFF`) before delivery.
    Corrupt,
}

/// One injected fault on a component's outgoing data messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageFault {
    /// Sending component.
    pub component: String,
    /// Required interface the message leaves through.
    pub interface: String,
    /// Zero-based index of the targeted data send on that interface.
    pub nth: u64,
    /// What to do to it.
    pub action: FaultAction,
}

/// One injected behavior panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicFault {
    /// Component whose behavior will panic.
    pub component: String,
    /// Zero-based index of the data receive at which the panic fires
    /// (the message is consumed and lost — exactly what a real mid-work
    /// panic does).
    pub iteration: u64,
}

/// A deterministic fault-injection plan, attached to an application with
/// [`AppBuilder::with_faults`](crate::AppBuilder::with_faults).
///
/// Faults are applied by the shared component runtime, so the *counting*
/// (message *n* on interface *i*, receive iteration *k*) is identical on
/// every backend; on `embera-inproc` the single-threaded logical-clock
/// scheduler additionally makes the surrounding interleaving — and
/// therefore the whole run — reproducible bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Message-level faults.
    pub message_faults: Vec<MessageFault>,
    /// Behavior-panic faults.
    pub panic_faults: Vec<PanicFault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop data message `nth` sent by `component` on `interface`.
    pub fn drop_message(
        mut self,
        component: impl Into<String>,
        interface: impl Into<String>,
        nth: u64,
    ) -> Self {
        self.message_faults.push(MessageFault {
            component: component.into(),
            interface: interface.into(),
            nth,
            action: FaultAction::Drop,
        });
        self
    }

    /// Corrupt data message `nth` sent by `component` on `interface`.
    pub fn corrupt_message(
        mut self,
        component: impl Into<String>,
        interface: impl Into<String>,
        nth: u64,
    ) -> Self {
        self.message_faults.push(MessageFault {
            component: component.into(),
            interface: interface.into(),
            nth,
            action: FaultAction::Corrupt,
        });
        self
    }

    /// Panic `component`'s behavior at data-receive `iteration`.
    pub fn panic_on_iteration(mut self, component: impl Into<String>, iteration: u64) -> Self {
        self.panic_faults.push(PanicFault {
            component: component.into(),
            iteration,
        });
        self
    }

    /// True if the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.message_faults.is_empty() && self.panic_faults.is_empty()
    }

    /// The runtime-local fault state for one component, by the ids of
    /// `ifaces` (`None` when the plan holds nothing for it — the common,
    /// zero-overhead case; a name it does not have no send can reach).
    pub(crate) fn for_component(
        &self,
        component: &str,
        ifaces: &IfaceTable,
    ) -> Option<ComponentFaults> {
        let mut sends: Vec<_> = (0..ifaces.len()).map(|_| IfaceFaults::default()).collect();
        for f in self
            .message_faults
            .iter()
            .filter(|f| f.component == component)
        {
            if let Some(id) = ifaces.id(&f.interface) {
                sends[id.index()].faults.push((f.nth, f.action));
            }
        }
        let panic_at = self
            .panic_faults
            .iter()
            .filter(|f| f.component == component)
            .map(|f| f.iteration)
            .min();
        if sends.iter().all(|s| s.faults.is_empty()) && panic_at.is_none() {
            return None;
        }
        Some(ComponentFaults {
            sends,
            panic_at,
            recvs: 0,
        })
    }
}

#[derive(Default)]
pub(crate) struct IfaceFaults {
    /// Data sends seen so far on this interface.
    count: u64,
    faults: Vec<(u64, FaultAction)>,
}

/// Per-component fault state the runtime consults on its hot paths.
pub(crate) struct ComponentFaults {
    /// By [`IfaceId`].
    sends: Vec<IfaceFaults>,
    panic_at: Option<u64>,
    /// Data receives seen so far (all interfaces).
    recvs: u64,
}

impl ComponentFaults {
    /// Advance the send counter for `interface`; returns the action to
    /// apply to this message, if any.
    pub(crate) fn on_send(&mut self, interface: IfaceId) -> Option<FaultAction> {
        let state = &mut self.sends[interface.index()];
        let idx = state.count;
        state.count += 1;
        state
            .faults
            .iter()
            .find(|(nth, _)| *nth == idx)
            .map(|(_, a)| *a)
    }

    /// Advance the receive counter; returns the iteration number if the
    /// behavior must panic *now*.
    pub(crate) fn on_recv(&mut self) -> Option<u64> {
        let idx = self.recvs;
        self.recvs += 1;
        (self.panic_at == Some(idx)).then_some(idx)
    }
}

/// Every component failure of one application run, originating faults
/// first. Replaces the old first-error-wins truncation in
/// `RunningApp::wait`: secondary `Terminated` drains are still reported,
/// just after the failures that caused them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// `(component, error)` pairs: non-`Terminated` failures in the
    /// order the backend recorded them, then `Terminated` secondaries.
    pub failures: Vec<(String, EmberaError)>,
}

impl FaultReport {
    /// Build a report from a backend's raw error list; `None` when no
    /// component failed.
    pub fn from_errors(errors: Vec<(String, EmberaError)>) -> Option<FaultReport> {
        if errors.is_empty() {
            return None;
        }
        let (primary, secondary): (Vec<_>, Vec<_>) = errors
            .into_iter()
            .partition(|(_, e)| !matches!(e, EmberaError::Terminated));
        let mut failures = primary;
        failures.extend(secondary);
        Some(FaultReport { failures })
    }

    /// The originating failure (first non-`Terminated` error, or the
    /// first error if every component merely drained out).
    pub fn primary(&self) -> &(String, EmberaError) {
        &self.failures[0]
    }

    /// Render as the application-level error `RunningApp::wait` returns.
    pub fn into_error(self) -> EmberaError {
        EmberaError::Platform(self.to_string())
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, e) = self.primary();
        write!(f, "component '{name}' failed: {e}")?;
        if self.failures.len() > 1 {
            write!(f, " [{} components faulted:", self.failures.len())?;
            for (i, (name, e)) in self.failures.iter().enumerate() {
                let sep = if i == 0 { " " } else { "; " };
                write!(f, "{sep}{name}: {e}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// Fold a backend's collected error list into the application result:
/// `Ok` when nothing failed, otherwise the aggregated [`FaultReport`] as
/// an error. All three backends' `RunningApp::wait` implementations go
/// through here, so multi-fault reporting is uniform.
pub fn fault_result(errors: Vec<(String, EmberaError)>) -> Result<(), EmberaError> {
    match FaultReport::from_errors(errors) {
        Some(report) => Err(report.into_error()),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_filters_per_component() {
        let plan = FaultPlan::new()
            .drop_message("a", "out", 3)
            .corrupt_message("b", "out", 0)
            .panic_on_iteration("a", 5);
        let ifaces = IfaceTable::new(&[], &["out".into(), "other".into()], &[]);
        let id = |name| ifaces.id(name).unwrap();
        let mut a = plan.for_component("a", &ifaces).unwrap();
        assert!(plan.for_component("zzz", &ifaces).is_none());
        // Sends 0..2 pass, 3 dropped.
        assert_eq!(a.on_send(id("out")), None);
        assert_eq!(a.on_send(id("out")), None);
        assert_eq!(a.on_send(id("out")), None);
        assert_eq!(a.on_send(id("out")), Some(FaultAction::Drop));
        assert_eq!(a.on_send(id("out")), None);
        // Unlisted interface untouched.
        assert_eq!(a.on_send(id("other")), None);
        // Receives 0..4 pass, 5 panics.
        for _ in 0..5 {
            assert_eq!(a.on_recv(), None);
        }
        assert_eq!(a.on_recv(), Some(5));
        assert_eq!(a.on_recv(), None);
    }

    #[test]
    fn fault_report_orders_originating_failures_first() {
        let errors = vec![
            ("late".to_string(), EmberaError::Terminated),
            ("culprit".to_string(), EmberaError::Platform("boom".into())),
            ("peer".to_string(), EmberaError::Terminated),
        ];
        let report = FaultReport::from_errors(errors).unwrap();
        assert_eq!(report.primary().0, "culprit");
        assert_eq!(report.failures.len(), 3);
        let msg = report.to_string();
        assert!(msg.starts_with("component 'culprit' failed:"), "{msg}");
        assert!(msg.contains("late") && msg.contains("peer"), "{msg}");
    }

    #[test]
    fn fault_result_empty_is_ok() {
        assert!(fault_result(Vec::new()).is_ok());
        assert!(fault_result(vec![("x".into(), EmberaError::Terminated)]).is_err());
    }

    #[test]
    fn single_failure_message_matches_legacy_format() {
        let report = FaultReport::from_errors(vec![(
            "src".to_string(),
            EmberaError::Platform("injected fault".into()),
        )])
        .unwrap();
        assert_eq!(
            report.to_string(),
            "component 'src' failed: platform error: injected fault"
        );
    }

    #[test]
    fn restart_policy_defaults() {
        let p = RestartPolicy::default();
        assert_eq!(p.max_restarts, 1);
        assert_eq!(p.escalation, Escalation::Escalate);
    }
}
