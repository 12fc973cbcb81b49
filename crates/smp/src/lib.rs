//! # embera-smp — the SMP/Linux platform backend for EMBera
//!
//! Reproduces the paper's first implementation (§4): "An EMBera
//! application is a Linux user process. A component is a data structure
//! and a POSIX thread. … The communication between components is carried
//! out by a simple one way asynchronous message-oriented mechanism,
//! through an established connection. … A provided interface receives
//! messages … implemented as a FIFO data structure, we have named
//! mailbox. A required interface corresponds to a pointer towards a
//! provided interface (mailbox)."
//!
//! Mapping here:
//!
//! * component → [`std::thread`] with the spec's stack size
//!   (`pthread_attr_getstacksize` ↦ `thread::Builder::stack_size`),
//! * provided interface → [`embera::runtime::Fifo`] (a mutex-guarded
//!   FIFO, the same one the executor backend uses),
//! * required interface → a cloneable handle to the target mailbox,
//! * blocking → one parker per component: a push to *any* of its
//!   mailboxes (or shutdown) unparks it, so a blocked or finished
//!   component serves introspection without a polling interval,
//! * `gettimeofday` timestamps → a monotonic epoch ([`embera::sync::Instant`]),
//! * memory observation → the paper's formula: configured stack size
//!   plus a per-provided-interface footprint (see
//!   [`embera::runtime::host_memory_bytes`]).
//!
//! Observation requests are served by the component runtime at every
//! communication point and, after the behavior finishes, by a quiescent
//! service loop — the application code is never modified (paper §4.2).

mod mailbox;
mod parker;
mod platform;

pub use mailbox::{Mailbox, MailboxKind};
pub use platform::{SmpPlatform, SmpRunning};
