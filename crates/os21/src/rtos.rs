//! The RTOS instance: per-CPU cooperative scheduling.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use sim_kernel::{Kernel, Pid};

use mpsoc_sim::{CpuId, Machine};

use crate::task::TaskCtx;

/// Public information about a spawned task.
#[derive(Debug, Clone)]
pub struct TaskInfo {
    /// Task name.
    pub name: String,
    /// CPU the task is pinned to.
    pub cpu: CpuId,
    /// Priority (API fidelity only; the scheduler is cooperative).
    pub priority: i32,
    /// Simulation process id backing the task.
    pub pid: Pid,
}

pub(crate) struct CpuSched {
    /// Virtual time until which the CPU's pipeline is occupied; compute
    /// segments of same-CPU tasks serialize through it.
    pub(crate) busy_until: AtomicU64,
}

struct RtosInner {
    machine: Machine,
    cpus: Vec<CpuSched>,
}

/// An OS21-like RTOS instance over a simulated machine.
///
/// Cloneable; all clones share the same scheduler state.
#[derive(Clone)]
pub struct Rtos {
    inner: Arc<RtosInner>,
}

impl Rtos {
    /// Boot the RTOS on `machine`.
    pub fn new(machine: Machine) -> Self {
        let ncpus = machine.config().num_cpus();
        Rtos {
            inner: Arc::new(RtosInner {
                machine,
                cpus: (0..ncpus)
                    .map(|_| CpuSched {
                        busy_until: AtomicU64::new(0),
                    })
                    .collect(),
            }),
        }
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.inner.machine
    }

    /// Spawn a task pinned to `cpu`. The body receives a [`TaskCtx`]
    /// exposing the OS21-flavoured API.
    pub fn spawn_task<F>(
        &self,
        kernel: &mut Kernel,
        cpu: CpuId,
        name: impl Into<String>,
        priority: i32,
        body: F,
    ) -> TaskInfo
    where
        F: FnOnce(TaskCtx) + Send + 'static,
    {
        let name = name.into();
        assert!(
            cpu < self.inner.cpus.len(),
            "CPU {cpu} out of range (machine has {})",
            self.inner.cpus.len()
        );
        let rtos = self.clone();
        let task_name = name.clone();
        // The CPU is this layer's business (`CpuSched` serializes the
        // compute of same-CPU tasks); to the kernel a task is a process.
        let pid = kernel.spawn(name.clone(), move |ctx| {
            let tctx = TaskCtx::new(ctx, rtos, cpu, task_name);
            body(tctx);
        });
        TaskInfo {
            name,
            cpu,
            priority,
            pid,
        }
    }

    pub(crate) fn sched(&self, cpu: CpuId) -> &CpuSched {
        &self.inner.cpus[cpu]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_sim::ComputeClass;
    use std::sync::atomic::Ordering;

    #[test]
    fn same_cpu_compute_serializes() {
        // Two tasks on CPU 1 each needing T of compute must finish at 2T,
        // not T.
        let solo_end = {
            let mut kernel = Kernel::new();
            let rtos = Rtos::new(Machine::sti7200());
            rtos.spawn_task(&mut kernel, 1, "a", 0, |t| {
                t.compute(ComputeClass::Dsp, 1_000_000);
            });
            kernel.run().unwrap();
            kernel.now()
        };
        let duo_end = {
            let mut kernel = Kernel::new();
            let rtos = Rtos::new(Machine::sti7200());
            for n in ["a", "b"] {
                let r = rtos.clone();
                let _ = r;
                rtos.spawn_task(&mut kernel, 1, n, 0, |t| {
                    t.compute(ComputeClass::Dsp, 1_000_000);
                });
            }
            kernel.run().unwrap();
            kernel.now()
        };
        assert!(
            duo_end >= 2 * solo_end - solo_end / 10,
            "same-CPU tasks must serialize: solo={solo_end} duo={duo_end}"
        );
    }

    #[test]
    fn different_cpu_compute_overlaps() {
        let mut kernel = Kernel::new();
        let rtos = Rtos::new(Machine::sti7200());
        rtos.spawn_task(&mut kernel, 1, "a", 0, |t| {
            t.compute(ComputeClass::Dsp, 1_000_000);
        });
        rtos.spawn_task(&mut kernel, 2, "b", 0, |t| {
            t.compute(ComputeClass::Dsp, 1_000_000);
        });
        kernel.run().unwrap();
        let solo = {
            let mut k2 = Kernel::new();
            let r2 = Rtos::new(Machine::sti7200());
            r2.spawn_task(&mut k2, 1, "a", 0, |t| {
                t.compute(ComputeClass::Dsp, 1_000_000);
            });
            k2.run().unwrap();
            k2.now()
        };
        assert_eq!(
            kernel.now(),
            solo,
            "different CPUs must run fully in parallel"
        );
    }

    #[test]
    fn task_time_accumulates_only_compute() {
        let mut kernel = Kernel::new();
        let rtos = Rtos::new(Machine::sti7200());
        let spent = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&spent);
        rtos.spawn_task(&mut kernel, 1, "worker", 0, move |t| {
            t.delay(1_000_000); // sleep: not CPU time
            t.compute(ComputeClass::Control, 10_000);
            seen.store(t.task_time(), Ordering::SeqCst);
        });
        kernel.run().unwrap();
        let cpu_time = spent.load(Ordering::SeqCst);
        assert!(cpu_time > 0);
        assert!(
            cpu_time < kernel.now(),
            "sleep must not count as CPU time: task_time={cpu_time} wall={}",
            kernel.now()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn spawning_on_missing_cpu_panics() {
        let mut kernel = Kernel::new();
        let rtos = Rtos::new(Machine::sti7200_three_cpu());
        rtos.spawn_task(&mut kernel, 4, "ghost", 0, |_t| {});
    }
}
