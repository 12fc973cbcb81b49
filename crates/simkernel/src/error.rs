//! Error types reported by the simulation kernel.

use std::fmt;

use crate::Time;

/// Description of a deadlock: the virtual time at which the event queue
/// drained while processes were still blocked, and the names of the
/// blocked processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockInfo {
    /// Virtual time at which the kernel ran out of events.
    pub at: Time,
    /// Names of the processes still blocked on events.
    pub blocked: Vec<String>,
}

/// Errors surfaced by [`Kernel::run`](crate::Kernel::run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained while at least one process was still
    /// blocked waiting for an event that can no longer be notified.
    Deadlock(DeadlockInfo),
    /// A simulated process panicked; carries the process name and the
    /// panic payload rendered as a string.
    ProcessPanicked { name: String, message: String },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(info) => write!(
                f,
                "simulation deadlock at t={}ns; blocked processes: {}",
                info.at,
                info.blocked.join(", ")
            ),
            SimError::ProcessPanicked { name, message } => {
                write!(f, "simulated process '{name}' panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}
