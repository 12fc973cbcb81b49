//! The calibrated cost model: compute throughput per CPU kind and
//! workload class, and memory access/copy costs per CPU × region path.
//!
//! Calibration targets (shapes from the paper, not absolute silicon
//! numbers):
//!
//! * Table 3: the ST40 runs the Reorder algorithm ~10-12× slower than an
//!   ST231 runs IDCT — modeled as low DSP throughput + expensive SDRAM
//!   access on the ST40.
//! * Figure 8: `EMBX` copy time is linear in message size, with the ST231
//!   strictly faster than the ST40 at every size.

use crate::config::{CpuId, CpuKind, MachineConfig};
use crate::memory::{MemoryKind, MemoryMap, RegionId};

/// Class of computation a behavior performs, used to pick per-CPU
/// throughput. Mirrors the instruction mixes that differentiate the ST40
/// from the ST231 in the paper's Table 3 discussion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeClass {
    /// Branchy control/integer code (file parsing, Huffman decoding).
    Control,
    /// Dense DSP kernels (IDCT, filtering) — the ST231's home turf.
    Dsp,
    /// Bulk byte movement (pixel reordering, memcpy-like loops).
    MemCopy,
}

/// Operations retired per 1024 cycles for (CPU kind, class) — integer
/// fixed-point so the model stays exact and deterministic.
fn ops_per_kcycle(kind: CpuKind, class: ComputeClass) -> u64 {
    match (kind, class) {
        // The ST40 is a decent scalar core on control code...
        (CpuKind::St40, ComputeClass::Control) => 900,
        // ...but has no SIMD/VLIW help on DSP kernels and stalls on
        // memory-bound reorder loops (paper §5.4: the Fetch-Reorder
        // component "runs ten times slower than IDCTx components").
        (CpuKind::St40, ComputeClass::Dsp) => 220,
        (CpuKind::St40, ComputeClass::MemCopy) => 310,
        // The ST231 is a 4-issue VLIW tuned for media kernels.
        (CpuKind::St231, ComputeClass::Control) => 700,
        (CpuKind::St231, ComputeClass::Dsp) => 2600,
        // Calibrated so the EMBX per-byte software path is ~1.5× faster on
        // the ST231 than the ST40 (Figure 8: IDCT's send beats
        // Fetch-Reorder's by a modest constant factor at every size).
        (CpuKind::St231, ComputeClass::MemCopy) => 520,
    }
}

/// Cycles to move one 32-byte line between a CPU and a region,
/// *excluding* bus arbitration (the bus model adds contention).
fn line_cycles(kind: CpuKind, region: MemoryKind) -> u64 {
    match (kind, region) {
        // ST231 ↔ its own local memory: single-digit latency.
        (CpuKind::St231, MemoryKind::LocalLmi(_)) => 3,
        // ST231 ↔ SDRAM: fast path, the accelerator is "designed for
        // intensive computing which needs fast memory access" (§5.4).
        (CpuKind::St231, MemoryKind::Sdram) => 34,
        // ST40 ↔ SDRAM: the host CPU is "mainly designed to access
        // peripherals" — its memory operations are the expensive ones.
        (CpuKind::St40, MemoryKind::Sdram) => 95,
        // ST40 reaching into an accelerator's local memory: slowest path.
        (CpuKind::St40, MemoryKind::LocalLmi(_)) => 130,
    }
}

/// The machine cost model. Stateless; all methods are pure functions of
/// the configuration, so costs are reproducible.
#[derive(Debug, Clone)]
pub struct CostModel {
    cfg: MachineConfig,
}

impl CostModel {
    /// Build a cost model for `cfg`.
    pub fn new(cfg: MachineConfig) -> Self {
        CostModel { cfg }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Virtual nanoseconds for `cpu` to retire `ops` operations of the
    /// given class.
    pub fn compute_ns(&self, cpu: CpuId, class: ComputeClass, ops: u64) -> u64 {
        let c = &self.cfg.cpus[cpu];
        let throughput = ops_per_kcycle(c.kind, class);
        let cycles = ops.saturating_mul(1024).div_ceil(throughput);
        c.cycles_to_ns(cycles)
    }

    /// Virtual nanoseconds for `cpu` to stream `bytes` bytes to/from
    /// `region` (one direction), excluding bus contention.
    pub fn mem_ns(&self, map: &MemoryMap, cpu: CpuId, region: RegionId, bytes: u64) -> u64 {
        let c = &self.cfg.cpus[cpu];
        let kind = map.region(region).kind;
        let lines = bytes.div_ceil(32).max(1);
        c.cycles_to_ns(lines.saturating_mul(line_cycles(c.kind, kind)))
    }

    /// Number of SDRAM bus transactions a transfer of `bytes` requires.
    pub fn bus_bursts(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.cfg.bus_burst_bytes).max(1)
    }

    /// Fixed interrupt delivery cost, ns.
    pub fn interrupt_ns(&self) -> u64 {
        self.cfg.interrupt_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> (CostModel, MemoryMap) {
        let cfg = MachineConfig::sti7200();
        let map = MemoryMap::from_config(&cfg);
        (CostModel::new(cfg), map)
    }

    #[test]
    fn st231_beats_st40_on_dsp_by_about_10x() {
        let (m, _) = model();
        let st40 = m.compute_ns(0, ComputeClass::Dsp, 1_000_000);
        let st231 = m.compute_ns(1, ComputeClass::Dsp, 1_000_000);
        let ratio = st40 as f64 / st231 as f64;
        assert!(
            (8.0..16.0).contains(&ratio),
            "DSP ratio ST40/ST231 = {ratio}, expected ~10x (Table 3 shape)"
        );
    }

    #[test]
    fn st40_is_competitive_on_control_code() {
        let (m, _) = model();
        let st40 = m.compute_ns(0, ComputeClass::Control, 1_000_000);
        let st231 = m.compute_ns(1, ComputeClass::Control, 1_000_000);
        let ratio = st40 as f64 / st231 as f64;
        assert!(
            (0.5..1.5).contains(&ratio),
            "control ratio = {ratio}, ST40 should be competitive"
        );
    }

    #[test]
    fn st231_sdram_access_faster_than_st40() {
        let (m, map) = model();
        let sdram = map.sdram();
        let st40 = m.mem_ns(&map, 0, sdram, 100_000);
        let st231 = m.mem_ns(&map, 1, sdram, 100_000);
        assert!(
            st231 < st40,
            "ST231 SDRAM path ({st231} ns) must beat ST40 ({st40} ns) — Figure 8 shape"
        );
    }

    #[test]
    fn local_memory_is_fastest_path() {
        let (m, map) = model();
        let lmi = map.local_of(1).unwrap();
        let sdram = map.sdram();
        assert!(m.mem_ns(&map, 1, lmi, 4096) < m.mem_ns(&map, 1, sdram, 4096));
    }

    #[test]
    fn copy_cost_is_linear_in_size() {
        // The two streams of an EMBX copy (local side, SDRAM side) are
        // each affine within rounding: doubling size ~doubles cost.
        let (m, map) = model();
        for region in [map.local_of(1).unwrap(), map.sdram()] {
            let t1 = m.mem_ns(&map, 1, region, 10_000);
            let t2 = m.mem_ns(&map, 1, region, 20_000);
            let t4 = m.mem_ns(&map, 1, region, 40_000);
            let r21 = t2 as f64 / t1 as f64;
            let r42 = t4 as f64 / t2 as f64;
            assert!((1.9..2.1).contains(&r21), "{region:?}: r21={r21}");
            assert!((1.9..2.1).contains(&r42), "{region:?}: r42={r42}");
        }
    }

    #[test]
    fn compute_ns_scales_with_ops() {
        let (m, _) = model();
        assert!(m.compute_ns(1, ComputeClass::Dsp, 0) <= m.compute_ns(1, ComputeClass::Dsp, 1));
        let a = m.compute_ns(1, ComputeClass::Dsp, 1_000);
        let b = m.compute_ns(1, ComputeClass::Dsp, 2_000);
        assert!(b > a);
    }

    #[test]
    fn bus_bursts_round_up() {
        let (m, _) = model();
        assert_eq!(m.bus_bursts(1), 1);
        assert_eq!(m.bus_bursts(32), 1);
        assert_eq!(m.bus_bursts(33), 2);
        assert_eq!(m.bus_bursts(0), 1);
    }
}
