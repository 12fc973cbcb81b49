//! Memory map of the simulated STi7200: per-ST231 local memories (LMI),
//! the shared SDRAM block, and a bump allocator for SDRAM used by EMBX
//! distributed objects.

use sim_kernel::LockStep;

use crate::config::{CpuId, MachineConfig};

/// Index of a memory region in the [`MemoryMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub usize);

/// What kind of memory a region is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryKind {
    /// Local data/control memory of one ST231 accelerator.
    LocalLmi(CpuId),
    /// The big external SDRAM block shared by all CPUs.
    Sdram,
}

/// One region in the machine's address space.
#[derive(Debug, Clone)]
pub struct Region {
    /// Region name, e.g. `"SDRAM"` or `"LMI_2"`.
    pub name: String,
    /// Synthetic base address (used by the cache model).
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
    /// Kind of memory.
    pub kind: MemoryKind,
}

/// The machine's memory map.
#[derive(Debug, Clone)]
pub struct MemoryMap {
    regions: Vec<Region>,
    sdram: RegionId,
}

/// Synthetic base address of the SDRAM region.
pub const SDRAM_BASE: u64 = 0x8000_0000;
/// Synthetic base address of the first local memory; each subsequent LMI
/// is offset by [`LMI_STRIDE`].
pub const LMI_BASE: u64 = 0x1000_0000;
/// Address stride between local memories.
pub const LMI_STRIDE: u64 = 0x0100_0000;

impl MemoryMap {
    /// Build the map from a machine configuration: one LMI per ST231 plus
    /// the shared SDRAM.
    pub fn from_config(cfg: &MachineConfig) -> Self {
        let mut regions = Vec::new();
        for (cpu, c) in cfg.cpus.iter().enumerate() {
            if c.kind == crate::CpuKind::St231 {
                regions.push(Region {
                    name: format!("LMI_{cpu}"),
                    base: LMI_BASE + cpu as u64 * LMI_STRIDE,
                    size: cfg.local_mem_size,
                    kind: MemoryKind::LocalLmi(cpu),
                });
            }
        }
        let sdram = RegionId(regions.len());
        regions.push(Region {
            name: "SDRAM".to_string(),
            base: SDRAM_BASE,
            size: cfg.sdram_size,
            kind: MemoryKind::Sdram,
        });
        MemoryMap { regions, sdram }
    }

    /// The SDRAM region.
    pub fn sdram(&self) -> RegionId {
        self.sdram
    }

    /// The local memory of `cpu`, if it has one.
    pub fn local_of(&self, cpu: CpuId) -> Option<RegionId> {
        self.regions
            .iter()
            .position(|r| r.kind == MemoryKind::LocalLmi(cpu))
            .map(RegionId)
    }

    /// Region metadata.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0]
    }

    /// All regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Find the region containing a synthetic address.
    pub fn region_of_addr(&self, addr: u64) -> Option<RegionId> {
        self.regions
            .iter()
            .position(|r| addr >= r.base && addr < r.base + r.size)
            .map(RegionId)
    }
}

/// A block of simulated SDRAM handed out by the [`SdramAllocator`]: a
/// synthetic address range the cache and cost models place traffic at.
/// It holds no bytes; a distributed object's messages travel in the
/// object's queue.
#[derive(Debug, Clone, Copy)]
pub struct SdramBlock {
    /// Synthetic start address inside the SDRAM region.
    pub addr: u64,
    /// Size in bytes.
    pub size: u64,
}

/// Bump allocator over the SDRAM region. EMBX distributed objects and the
/// OS21 SDRAM partition draw from it. Allocation is monotonic (no free):
/// the paper's EMBX usage allocates distributed objects once at
/// initialization, so fragmentation handling is unnecessary; the
/// allocator reports an error when exhausted.
pub struct SdramAllocator {
    base: u64,
    size: u64,
    next: LockStep<u64>,
}

impl SdramAllocator {
    /// Allocator over the whole SDRAM region described by `map`.
    pub fn new(map: &MemoryMap) -> Self {
        let region = map.region(map.sdram());
        SdramAllocator {
            base: region.base,
            size: region.size,
            next: LockStep::new(0),
        }
    }

    /// Allocate a block of `size` bytes, 64-byte aligned.
    pub fn alloc(&self, size: u64) -> Result<SdramBlock, String> {
        let aligned = self.next.with(|next| {
            let aligned = (*next + 63) & !63;
            if aligned + size > self.size {
                return Err(format!(
                    "SDRAM exhausted: requested {size} bytes, {} remaining",
                    self.size - aligned
                ));
            }
            *next = aligned + size;
            Ok(aligned)
        })?;
        Ok(SdramBlock {
            addr: self.base + aligned,
            size,
        })
    }

    /// Bytes allocated so far.
    pub fn used(&self) -> u64 {
        self.next.with(|next| *next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    fn map() -> MemoryMap {
        MemoryMap::from_config(&MachineConfig::sti7200())
    }

    #[test]
    fn map_has_one_lmi_per_st231_plus_sdram() {
        let m = map();
        assert_eq!(m.regions().len(), 5); // 4 LMI + SDRAM
        assert_eq!(m.region(m.sdram()).name, "SDRAM");
        for cpu in 1..=4 {
            let lmi = m.local_of(cpu).unwrap();
            assert_eq!(m.region(lmi).kind, MemoryKind::LocalLmi(cpu));
        }
        assert!(m.local_of(0).is_none(), "ST40 has no LMI");
    }

    #[test]
    fn address_lookup_round_trips() {
        let m = map();
        for (i, r) in m.regions().iter().enumerate() {
            assert_eq!(m.region_of_addr(r.base), Some(RegionId(i)));
            assert_eq!(m.region_of_addr(r.base + r.size - 1), Some(RegionId(i)));
        }
        assert_eq!(m.region_of_addr(0xdead), None);
    }

    #[test]
    fn sdram_alloc_is_aligned_and_bounded() {
        let m = map();
        let alloc = SdramAllocator::new(&m);
        let a = alloc.alloc(100).unwrap();
        let b = alloc.alloc(100).unwrap();
        assert_eq!(a.addr % 64, 0);
        assert_eq!(b.addr % 64, 0);
        assert!(b.addr >= a.addr + 100);
        assert_eq!(m.region_of_addr(a.addr), Some(m.sdram()));
    }

    #[test]
    fn sdram_alloc_exhaustion_reported() {
        let mut cfg = MachineConfig::sti7200();
        cfg.sdram_size = 1024;
        let m = MemoryMap::from_config(&cfg);
        let alloc = SdramAllocator::new(&m);
        assert!(alloc.alloc(1000).is_ok());
        assert!(alloc.alloc(1000).is_err());
    }
}
