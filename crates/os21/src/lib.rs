//! # os21 — an OS21-like RTOS layer on the simulated MPSoC
//!
//! The STi7200's processors run **OS21**, "a lightweight, real-time
//! multitasking operating system" providing "portable APIs to handle
//! tasks, memory, interrupts, exceptions, synchronization, and time
//! management" (paper §5). OS21 is proprietary, so this crate implements
//! the API surface the paper's observation functions rely on, running on
//! the [`mpsoc_sim`] machine model:
//!
//! * **tasks** ([`Rtos::spawn_task`]): cooperative tasks pinned to a CPU;
//!   compute on the same CPU serializes (one core, no SMT),
//! * **`time_now`** ([`TaskCtx::time_now`]): the local time on each CPU
//!   in CPU ticks — the paper's middleware timestamps use it (§5.2),
//! * **`task_time`** ([`TaskCtx::task_time`]): accumulated CPU time of
//!   the task — the paper's RTOS-level execution-time observation (§5.2),
//! * **synchronization** ([`Semaphore`]): the counting semaphore tasks
//!   block on in virtual time.
//!
//! The paper's RTOS memory observation ("the tasks memory size and the
//! amount of memory currently used") is not modelled here: the Mem
//! column of Table 3 is the paper's own accounting, two constants in
//! `embera-os21`'s platform.
//!
//! The scheduler is cooperative (tasks yield at compute/communication
//! points). Task priorities are accepted for API fidelity but do not
//! preempt; the EMBera deployment runs one component per CPU (paper
//! §5.1: "the current implementation supports one component per CPU"),
//! so preemption never arises in the reproduced experiments.

pub mod rtos;
pub mod sync;
pub mod task;

pub use rtos::{Rtos, TaskInfo};
pub use sync::Semaphore;
pub use task::TaskCtx;
