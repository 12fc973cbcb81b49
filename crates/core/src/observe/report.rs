//! Report data structures produced by observation.

use std::sync::Arc;

/// Operating-system-level observation (paper §4.2): "information about
/// the execution time and the memory occupation".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OsStats {
    /// Time elapsed between the start of the component and the
    /// termination of its code execution, ns. For a still-running
    /// component this is time since start.
    pub exec_time_ns: u64,
    /// Memory allocated for the component: its execution-flow stack plus
    /// the structures of its provided interfaces (the paper's formula:
    /// `pthread_attr_getstacksize` + `sizeof` of the interfaces).
    pub memory_bytes: u64,
    /// CPU time the component's own operations consumed, ns: OS21's
    /// `task_time` on the MPSoC backend, logical CPU time on
    /// `embera-inproc`, 0 on the host backends, which do not measure it.
    /// What its runtime's observation replies were charged is not in it.
    pub cpu_time_ns: u64,
    /// Bytes of message payload currently queued in the component's
    /// provided-interface mailboxes — the dynamic part of the memory
    /// picture (drives the paper's announced "evolution of memory during
    /// the execution" extension, §6).
    pub queued_bytes: u64,
}

/// Timing accumulator snapshot for one primitive (send or receive).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingSnapshot {
    /// Number of operations measured.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Minimum duration, ns (0 when count is 0).
    pub min_ns: u64,
    /// Maximum duration, ns.
    pub max_ns: u64,
}

impl TimingSnapshot {
    /// Mean duration in ns (0 when no samples).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Middleware-level observation (paper §4.2): "information about the
/// execution time of send and receive operations by instrumenting send
/// and receive primitives".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MiddlewareStats {
    /// Timing of the `send` primitive.
    pub send: TimingSnapshot,
    /// Timing of the `receive` primitive (excluding blocking waits; the
    /// paper instruments the primitive's execution, not queue idleness).
    pub recv: TimingSnapshot,
    /// Total data bytes sent.
    pub bytes_sent: u64,
    /// Total data bytes received.
    pub bytes_received: u64,
}

/// Per-interface communication counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IfaceCounterSnapshot {
    /// Interface name.
    pub interface: String,
    /// Data messages sent through it (required interfaces).
    pub sends: u64,
    /// Data messages received from it (provided interfaces).
    pub receives: u64,
}

/// Application-level observation (paper §4.2): "the component structure
/// and the total number of communication operations performed".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppStats {
    /// Per-interface counters, declaration order.
    pub interfaces: Vec<IfaceCounterSnapshot>,
    /// Total data sends (Table 2's `send` column).
    pub total_sends: u64,
    /// Total data receives (Table 2's `receive` column).
    pub total_receives: u64,
}

/// One interface in a structure listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceEntry {
    /// Interface name.
    pub name: String,
    /// `"provided"` or `"required"`.
    pub role: String,
}

/// The component-structure listing (paper Figure 5).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StructureInfo {
    /// Component name.
    pub component: String,
    /// Interfaces: introspection provided, data provided (declaration
    /// order), introspection required, data required — the order of the
    /// paper's Figure 5. The listing never changes while a component
    /// lives, so every report of that component shares the one built at
    /// deployment.
    pub interfaces: Arc<[InterfaceEntry]>,
}

impl StructureInfo {
    /// Build the listing for a component with the given data interfaces.
    pub fn new(component: impl Into<String>, provided: &[String], required: &[String]) -> Self {
        let mut interfaces = Vec::with_capacity(provided.len() + required.len() + 2);
        interfaces.push(InterfaceEntry {
            name: crate::component::INTROSPECTION.to_string(),
            role: "provided".to_string(),
        });
        for p in provided {
            interfaces.push(InterfaceEntry {
                name: p.clone(),
                role: "provided".to_string(),
            });
        }
        interfaces.push(InterfaceEntry {
            name: crate::component::INTROSPECTION.to_string(),
            role: "required".to_string(),
        });
        for r in required {
            interfaces.push(InterfaceEntry {
                name: r.clone(),
                role: "required".to_string(),
            });
        }
        StructureInfo {
            component: component.into(),
            interfaces: interfaces.into(),
        }
    }

    /// Render in the exact format of the paper's Figure 5:
    ///
    /// ```text
    /// Interfaces component [IDCT_1]
    /// ----------------------------
    /// [Interface] [Type]
    /// introspection provided
    /// _fetchIdct1 provided
    /// introspection required
    /// idctReorder required
    /// ```
    pub fn format_figure5(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Interfaces component [{}]\n", self.component));
        out.push_str("----------------------------\n");
        out.push_str("[Interface] [Type]\n");
        for e in self.interfaces.iter() {
            out.push_str(&format!("{} {}\n", e.name, e.role));
        }
        out
    }
}

/// Liveness state of a component as seen by the supervision layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum HealthState {
    /// Deployed, behavior not yet started.
    #[default]
    Created,
    /// Behavior executing.
    Running,
    /// Behavior blocked in a receive.
    Blocked,
    /// Behavior failed (error or contained panic).
    Faulted,
    /// Between a failed attempt and its policy-driven re-run.
    Restarting,
    /// Behavior completed.
    Finished,
}

/// Supervision-level observation: the answer to
/// [`ObsRequest::Health`](crate::observe::protocol::ObsRequest::Health).
/// Liveness and backlog signals travel over the same introspection
/// channel as the paper's performance counters, so an unmodified
/// observer can watch for stuck pipelines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthInfo {
    /// Current liveness state.
    pub state: HealthState,
    /// Platform time of the last observable progress (send, data
    /// receive, or compute), ns.
    pub last_progress_ns: u64,
    /// Messages currently queued in the component's provided-interface
    /// mailboxes.
    pub queued_messages: u64,
    /// Bytes of payload currently queued (same gauge as
    /// [`OsStats::queued_bytes`]).
    pub queued_bytes: u64,
    /// Restarts performed by the component's supervision policy so far.
    pub restarts: u64,
    /// Messages shed at ingress by a queue-bound overload policy
    /// (absent in reports produced before the overload layer existed).
    pub shed_messages: u64,
    /// Deadlined messages shed at ingress because their deadline had
    /// expired (the `DeadlineExceeded` count).
    pub expired_messages: u64,
}

impl HealthInfo {
    /// Watchdog predicate: has this component made no progress for more
    /// than `watchdog_ns` at observation time `now_ns`? Only `Running`
    /// and `Blocked` components can stall; terminal and not-yet-started
    /// states are excluded.
    pub fn is_stalled(&self, now_ns: u64, watchdog_ns: u64) -> bool {
        matches!(self.state, HealthState::Running | HealthState::Blocked)
            && now_ns.saturating_sub(self.last_progress_ns) > watchdog_ns
    }
}

/// The complete multi-level observation report of one component.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObservationReport {
    /// Component name.
    pub component: String,
    /// OS-level information.
    pub os: OsStats,
    /// Middleware-level information.
    pub middleware: MiddlewareStats,
    /// Application-level counters.
    pub app: AppStats,
    /// Component structure.
    pub structure: StructureInfo,
    /// Application-registered observation functions, sampled at report
    /// time (paper §6 extension).
    pub custom: Vec<crate::observe::custom::CustomMetric>,
    /// Supervision-level liveness snapshot (absent in reports produced
    /// before the supervision layer existed).
    pub health: Option<HealthInfo>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_exact_format() {
        let s = StructureInfo::new(
            "IDCT_1",
            &["_fetchIdct1".to_string()],
            &["idctReorder".to_string()],
        );
        let expected = "Interfaces component [IDCT_1]\n\
                        ----------------------------\n\
                        [Interface] [Type]\n\
                        introspection provided\n\
                        _fetchIdct1 provided\n\
                        introspection required\n\
                        idctReorder required\n";
        assert_eq!(s.format_figure5(), expected);
    }

    #[test]
    fn timing_mean_handles_empty() {
        assert_eq!(TimingSnapshot::default().mean_ns(), 0);
        let t = TimingSnapshot {
            count: 4,
            total_ns: 100,
            min_ns: 10,
            max_ns: 40,
        };
        assert_eq!(t.mean_ns(), 25);
    }

    #[test]
    fn stall_detection_needs_a_live_state() {
        let mut h = HealthInfo {
            state: HealthState::Running,
            last_progress_ns: 1_000,
            ..Default::default()
        };
        assert!(!h.is_stalled(1_500, 1_000), "within deadline");
        assert!(h.is_stalled(3_000, 1_000), "past deadline");
        h.state = HealthState::Blocked;
        assert!(h.is_stalled(3_000, 1_000));
        h.state = HealthState::Finished;
        assert!(!h.is_stalled(3_000, 1_000), "terminal states never stall");
        h.state = HealthState::Created;
        assert!(!h.is_stalled(3_000, 1_000));
    }

    #[test]
    fn structure_orders_introspection_first_per_role() {
        let s = StructureInfo::new(
            "Reorder",
            &["_idct1Reorder".to_string(), "_idct2Reorder".to_string()],
            &[],
        );
        let names: Vec<&str> = s.interfaces.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "introspection",
                "_idct1Reorder",
                "_idct2Reorder",
                "introspection"
            ]
        );
    }
}
