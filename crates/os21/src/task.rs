//! Task context: the OS21-flavoured API a task body runs against.

use std::sync::atomic::{AtomicU64, Ordering};

use sim_kernel::{SimCtx, Time};

use mpsoc_sim::{ComputeClass, CpuId, RegionId};

use crate::rtos::Rtos;

/// Handle a task body uses to interact with the RTOS, its CPU and the
/// machine. Wraps the simulation context.
pub struct TaskCtx {
    sim: SimCtx,
    rtos: Rtos,
    cpu: CpuId,
    name: String,
    cpu_time: AtomicU64,
}

impl TaskCtx {
    pub(crate) fn new(sim: SimCtx, rtos: Rtos, cpu: CpuId, name: String) -> Self {
        TaskCtx {
            sim,
            rtos,
            cpu,
            name,
            cpu_time: AtomicU64::new(0),
        }
    }

    /// The underlying simulation context (for events/channels).
    pub fn sim(&self) -> &SimCtx {
        &self.sim
    }

    /// The RTOS this task runs under.
    pub fn rtos(&self) -> &Rtos {
        &self.rtos
    }

    /// The CPU this task is pinned to.
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// Task name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// OS21 `time_now()`: the local time on this CPU, in CPU ticks
    /// (paper §5.2: "This function gives the local time on each CPU").
    pub fn time_now(&self) -> u64 {
        let freq = self.rtos.machine().config().cpus[self.cpu].freq_hz;
        // ticks = ns * freq / 1e9, computed in u128 to avoid overflow.
        ((self.sim.now() as u128 * freq as u128) / 1_000_000_000) as u64
    }

    /// OS21 `task_time()`: accumulated CPU time consumed by this task,
    /// in nanoseconds (paper §5.2 uses it for RTOS-level execution-time
    /// observation).
    pub fn task_time(&self) -> Time {
        self.cpu_time.load(Ordering::Acquire)
    }

    /// Current virtual wall-clock time in ns.
    pub fn now_ns(&self) -> Time {
        self.sim.now()
    }

    /// Sleep for `ns` of virtual time without consuming CPU.
    pub fn delay(&self, ns: Time) {
        self.sim.advance(ns);
    }

    /// Execute `ops` operations of `class` on this task's CPU. Compute on
    /// the same CPU serializes (cooperative single-core scheduling);
    /// returns the ns of CPU time consumed (excluding any wait for the
    /// core).
    pub fn compute(&self, class: ComputeClass, ops: u64) -> Time {
        let ns = self.rtos.machine().cost().compute_ns(self.cpu, class, ops);
        self.occupy_cpu(ns);
        ns
    }

    /// Stream `bytes` of memory traffic at synthetic address `addr` on
    /// this CPU (feeds cache + bus models and occupies the core).
    pub fn mem_access(&self, addr: u64, bytes: u64) -> Time {
        let before = self.sim.now();
        self.rtos
            .machine()
            .mem_access(&self.sim, self.cpu, addr, bytes);
        let ns = self.sim.now() - before;
        self.account_cpu(ns);
        ns
    }

    /// Stream `bytes` to/from a region without a concrete address
    /// (uncached path).
    pub fn mem_access_region(&self, region: RegionId, bytes: u64) -> Time {
        let before = self.sim.now();
        self.rtos
            .machine()
            .mem_access_region(&self.sim, self.cpu, region, None, bytes);
        let ns = self.sim.now() - before;
        self.account_cpu(ns);
        ns
    }

    /// Occupy this task's CPU for `ns`, queueing behind same-CPU peers.
    fn occupy_cpu(&self, ns: Time) {
        if ns == 0 {
            return;
        }
        let sched = self.rtos.sched(self.cpu);
        let now = self.sim.now();
        let busy = sched.busy_until.load(Ordering::Acquire);
        let start = busy.max(now);
        sched.busy_until.store(start + ns, Ordering::Release);
        self.account_cpu(ns);
        self.sim.advance(start + ns - now);
    }

    fn account_cpu(&self, ns: Time) {
        // Only this task writes its counter, so a load and a store do
        // what a read-modify-write would, without the locked instruction.
        let spent = self.cpu_time.load(Ordering::Relaxed);
        self.cpu_time.store(spent + ns, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_sim::Machine;
    use sim_kernel::Kernel;

    #[test]
    fn time_now_converts_to_cpu_ticks() {
        let mut kernel = Kernel::new();
        let rtos = Rtos::new(Machine::sti7200());
        rtos.spawn_task(&mut kernel, 1, "t", 0, |t| {
            t.delay(1_000_000_000); // 1 virtual second
                                    // ST231 runs at 400 MHz: 1 s = 400M ticks.
            assert_eq!(t.time_now(), 400_000_000);
        });
        rtos.spawn_task(&mut kernel, 0, "h", 0, |t| {
            t.delay(1_000_000_000);
            // ST40 runs at 450 MHz.
            assert_eq!(t.time_now(), 450_000_000);
        });
        kernel.run().unwrap();
    }

    #[test]
    fn compute_consumes_cpu_time() {
        let mut kernel = Kernel::new();
        let rtos = Rtos::new(Machine::sti7200());
        rtos.spawn_task(&mut kernel, 1, "t", 0, |t| {
            let ns = t.compute(ComputeClass::Dsp, 100_000);
            assert_eq!(t.task_time(), ns);
        });
        kernel.run().unwrap();
    }

    #[test]
    fn mem_access_counts_toward_task_time() {
        let mut kernel = Kernel::new();
        let machine = Machine::sti7200();
        let lmi_base = {
            let map = machine.memory_map();
            map.region(map.local_of(1).unwrap()).base
        };
        let rtos = Rtos::new(machine);
        rtos.spawn_task(&mut kernel, 1, "t", 0, move |t| {
            t.mem_access(lmi_base, 4096);
            assert!(t.task_time() > 0);
        });
        kernel.run().unwrap();
    }
}
