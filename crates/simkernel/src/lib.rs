//! # sim-kernel — deterministic discrete-event simulation kernel
//!
//! This crate provides the execution substrate for the simulated STi7200
//! MPSoC used by the EMBera reproduction. It is a *conservative*,
//! fully deterministic discrete-event kernel in which simulated processes
//! are **stackful fibers** ([`embera_fiber`]): every process has a stack
//! of its own ([`PROCESS_STACK_BYTES`]) but no host thread. The kernel
//! resumes the process whose next event fires earliest in place, on the
//! thread that called [`Kernel::run`], and gets control back with a
//! user-space switch when the process blocks — no host scheduler is
//! involved, and only one process runs at a time. Repeated runs of the
//! same simulation therefore produce bit-identical schedules.
//!
//! A process gives way only when it has to: a [`SimCtx::advance`] that
//! the kernel would answer by resuming the same process — nothing else
//! is due before its wake-up time, the slice has no side effect waiting
//! to be applied — moves the clock in place and returns without a
//! switch, and the kernel books it as the dispatch it stands for
//! (*run-ahead*, see the [`process`] module). Schedules and
//! [`KernelStats`] do not depend on which path a call took;
//! [`Kernel::switches`] counts the switches that did happen.
//!
//! Virtual time is measured in [`Time`] units (nanoseconds of a global
//! reference clock). Processes interact with the kernel exclusively
//! through a [`SimCtx`] handle:
//!
//! * [`SimCtx::advance`] — consume virtual time,
//! * [`SimCtx::wait`] / [`SimCtx::wait_timeout`] — block on an [`EventId`],
//! * [`SimCtx::notify`] — wake all waiters of an event,
//! * [`SimCtx::spawn`] — create a new simulated process at runtime,
//! * [`SimCtx::now`] — read the virtual clock.
//!
//! Higher layers (the OS21-like RTOS, the EMBX middleware) build
//! semaphores, distributed objects and interrupt delivery from these
//! primitives.
//!
//! ## Lock-step state
//!
//! Because only one process — or the kernel — runs at any instant, the
//! state they share needs no lock. Every piece of it, here and in the
//! layers above (a process's hand-off words, a channel's queue, the bus,
//! the caches, an EMBX object's one message queue), lives in a
//! [`LockStep`] cell: an unsynchronised cell lent to one closure at a
//! time, whose documentation gives the ownership rule and why the fiber
//! hand-off makes it sound on native fibers and on the thread-backed
//! oracle alike.
//!
//! ## Example
//!
//! ```
//! use sim_kernel::Kernel;
//!
//! let mut kernel = Kernel::new();
//! let evt = kernel.alloc_event();
//! kernel.spawn("producer", move |ctx| {
//!     ctx.advance(100);
//!     ctx.notify(evt);
//! });
//! kernel.spawn("consumer", move |ctx| {
//!     ctx.wait(evt);
//!     assert_eq!(ctx.now(), 100);
//! });
//! kernel.run().unwrap();
//! assert_eq!(kernel.now(), 100);
//! ```

pub mod cell;
pub mod channel;
pub mod error;
pub mod kernel;
pub mod process;

pub use cell::LockStep;
pub use channel::{LatentChannel, SimChannel};
pub use error::{DeadlockInfo, SimError};
pub use kernel::{Kernel, KernelStats, RunOutcome};
pub use process::{EventId, Pid, ResumeKind, SimCtx, PROCESS_STACK_BYTES};

/// Virtual time, in nanoseconds of the global reference clock.
pub type Time = u64;
