//! The composed machine: configuration + memory map + cost model + bus +
//! interrupt controller + per-CPU caches, behind one cloneable handle
//! shared by the RTOS and middleware layers of one simulation.

use std::sync::Arc;

use sim_kernel::SimCtx;

use crate::bus::{Bus, BusStats};
use crate::cache::{CacheStats, L1Cache};
use crate::config::{CpuId, MachineConfig};
use crate::cost::CostModel;
use crate::interrupt::InterruptController;
use crate::memory::{MemoryMap, RegionId, SdramAllocator};

struct MachineInner {
    cost: CostModel,
    map: MemoryMap,
    bus: Bus,
    ic: InterruptController,
    sdram_alloc: SdramAllocator,
    dcaches: Vec<Option<L1Cache>>,
}

/// Cloneable handle to the simulated STi7200. Its state starts idle and
/// belongs to one simulation (see the [crate docs](crate)): its clones
/// are that simulation's tasks' and its owner's.
#[derive(Clone)]
pub struct Machine {
    inner: Arc<MachineInner>,
}

impl Machine {
    /// Build a machine from a validated configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails [`MachineConfig::validate`].
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate().expect("invalid machine configuration");
        let map = MemoryMap::from_config(&cfg);
        let sdram_alloc = SdramAllocator::new(&map);
        let dcaches = cfg
            .cpus
            .iter()
            .map(|c| c.dcache.map(L1Cache::new))
            .collect();
        Machine {
            inner: Arc::new(MachineInner {
                cost: CostModel::new(cfg),
                map,
                bus: Bus::new(),
                ic: InterruptController::new(),
                sdram_alloc,
                dcaches,
            }),
        }
    }

    /// The STi7200 (5 CPUs) — paper §5 Figure 6.
    pub fn sti7200() -> Self {
        Self::new(MachineConfig::sti7200())
    }

    /// The 3-CPU STi7200 the paper's toolset actually supported (§5.3).
    pub fn sti7200_three_cpu() -> Self {
        Self::new(MachineConfig::sti7200_three_cpu())
    }

    /// Machine configuration.
    pub fn config(&self) -> &MachineConfig {
        self.inner.cost.config()
    }

    /// Cost model.
    pub fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    /// Memory map.
    pub fn memory_map(&self) -> &MemoryMap {
        &self.inner.map
    }

    /// Interrupt controller.
    pub fn interrupts(&self) -> &InterruptController {
        &self.inner.ic
    }

    /// SDRAM allocator (used by EMBX for distributed objects).
    pub fn sdram_alloc(&self) -> &SdramAllocator {
        &self.inner.sdram_alloc
    }

    /// Bus statistics so far.
    pub fn bus_stats(&self) -> BusStats {
        self.inner.bus.stats()
    }

    /// L1 D-cache statistics of `cpu` (zeros if the CPU has no cache
    /// model).
    pub fn dcache_stats(&self, cpu: CpuId) -> CacheStats {
        self.inner.dcaches[cpu]
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// Charge `cpu` with a memory stream of `bytes` at synthetic address
    /// `addr` (read or write — the model is symmetric), advancing virtual
    /// time. Includes bus contention for SDRAM traffic and feeds the
    /// CPU's cache model. Returns the ns consumed.
    pub fn mem_access(&self, ctx: &SimCtx, cpu: CpuId, addr: u64, bytes: u64) -> u64 {
        let Some(region) = self.inner.map.region_of_addr(addr) else {
            panic!("mem_access outside mapped regions: {addr:#x}");
        };
        self.mem_access_region(ctx, cpu, region, Some(addr), bytes)
    }

    /// Like [`Machine::mem_access`] but by region; `addr` optionally feeds
    /// the cache model (None = uncached access).
    pub fn mem_access_region(
        &self,
        ctx: &SimCtx,
        cpu: CpuId,
        region: RegionId,
        addr: Option<u64>,
        bytes: u64,
    ) -> u64 {
        let mut ns = self.inner.cost.mem_ns(&self.inner.map, cpu, region, bytes);
        // SDRAM traffic arbitrates on the shared bus.
        if region == self.inner.map.sdram() {
            let bursts = self.inner.cost.bus_bursts(bytes);
            let burst_ns = self.config().bus_burst_ns;
            let total = self
                .inner
                .bus
                .transact(ctx.now(), bursts.saturating_mul(burst_ns));
            // Bus time replaces the raw line cost when it is larger
            // (the CPU stalls behind arbitration).
            ns = ns.max(total);
        }
        if let (Some(addr), Some(cache)) = (addr, self.inner.dcaches[cpu].as_ref()) {
            cache.access(addr, bytes);
        }
        if ns > 0 {
            ctx.advance(ns);
        }
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_kernel::Kernel;

    #[test]
    fn machine_composes_sti7200() {
        let m = Machine::sti7200();
        assert_eq!(m.config().num_cpus(), 5);
        assert_eq!(m.memory_map().regions().len(), 5);
        assert_eq!(m.bus_stats(), BusStats::default());
    }

    #[test]
    fn sdram_access_uses_bus_and_cache() {
        let m = Machine::sti7200();
        let mut k = Kernel::new();
        let m2 = m.clone();
        let sdram_base = m.memory_map().region(m.memory_map().sdram()).base;
        k.spawn("p", move |ctx| {
            m2.mem_access(&ctx, 0, sdram_base, 4096);
        });
        k.run().unwrap();
        assert!(m.bus_stats().transactions > 0);
        assert!(m.dcache_stats(0).misses > 0);
    }

    #[test]
    fn concurrent_sdram_access_contends() {
        // Two CPUs streaming SDRAM at the same virtual time: the second
        // must observe queueing (total elapsed > one stream alone).
        let solo = {
            let m = Machine::sti7200();
            let mut k = Kernel::new();
            let m2 = m.clone();
            let base = m.memory_map().region(m.memory_map().sdram()).base;
            k.spawn("a", move |ctx| {
                m2.mem_access(&ctx, 1, base, 1 << 20);
            });
            k.run().unwrap();
            k.now()
        };
        let duo = {
            let m = Machine::sti7200();
            let mut k = Kernel::new();
            let base = m.memory_map().region(m.memory_map().sdram()).base;
            for cpu in [1usize, 2usize] {
                let m2 = m.clone();
                k.spawn(format!("cpu{cpu}"), move |ctx| {
                    m2.mem_access(&ctx, cpu, base, 1 << 20);
                });
            }
            k.run().unwrap();
            k.now()
        };
        assert!(
            duo > solo,
            "contended run ({duo} ns) must exceed solo run ({solo} ns)"
        );
    }
}
