//! Machine configuration: CPUs, frequencies, cost-model parameters.

use crate::cache::CacheConfig;

/// Index of a CPU in the machine (deployment target of a component).
pub type CpuId = usize;

/// Kind of processing element on the STi7200.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuKind {
    /// General-purpose RISC host CPU (450 MHz on the STi7200). Good at
    /// control code, designed to access peripherals; slow at DSP kernels
    /// and bulk memory movement (paper §5.4).
    St40,
    /// VLIW media accelerator (400 MHz). Designed for intensive
    /// computing with fast local-memory access.
    St231,
}

impl CpuKind {
    /// Display name matching STMicroelectronics nomenclature.
    pub fn name(self) -> &'static str {
        match self {
            CpuKind::St40 => "ST40",
            CpuKind::St231 => "ST231",
        }
    }
}

/// Configuration of one CPU.
#[derive(Debug, Clone)]
pub struct CpuConfig {
    /// Human-readable name, e.g. `"ST40"` or `"ST231_1"`.
    pub name: String,
    /// Kind of processing element.
    pub kind: CpuKind,
    /// Clock frequency in Hz.
    pub freq_hz: u64,
    /// L1 data-cache model.
    pub dcache: CacheConfig,
}

impl CpuConfig {
    /// Nanoseconds per CPU clock cycle, as a rational (num, den) pair so
    /// cost computations stay in integer arithmetic: `cycles * 1e9 / freq`.
    pub fn cycles_to_ns(&self, cycles: u64) -> u64 {
        // Round up: a partial cycle still occupies the pipeline.
        cycles
            .saturating_mul(1_000_000_000)
            .div_ceil(self.freq_hz)
    }
}

/// Full machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// CPUs, indexed by [`CpuId`]. By convention CPU 0 is the host ST40.
    pub cpus: Vec<CpuConfig>,
    /// Size of each ST231's local memory (LMI), bytes.
    pub local_mem_size: u64,
    /// Size of the shared SDRAM block, bytes.
    pub sdram_size: u64,
    /// Bus transaction granularity in bytes (one bus transaction moves
    /// this much SDRAM data).
    pub bus_burst_bytes: u64,
    /// Latency of one SDRAM bus burst, nanoseconds.
    pub bus_burst_ns: u64,
    /// Fixed cost of raising + taking one inter-CPU interrupt, ns.
    pub interrupt_ns: u64,
}

impl MachineConfig {
    /// The STi7200 as described in paper §5: one 450 MHz ST40 + four
    /// 400 MHz ST231, ~1 MB local memory per ST231, 2 GB SDRAM.
    pub fn sti7200() -> Self {
        let mut cpus = vec![CpuConfig {
            name: "ST40".to_string(),
            kind: CpuKind::St40,
            freq_hz: 450_000_000,
            dcache: CacheConfig::st40_l1d(),
        }];
        for i in 1..=4 {
            cpus.push(CpuConfig {
                name: format!("ST231_{i}"),
                kind: CpuKind::St231,
                freq_hz: 400_000_000,
                dcache: CacheConfig::st231_l1d(),
            });
        }
        MachineConfig {
            cpus,
            local_mem_size: 1 << 20,       // 1 MB (paper §5.4: "1 MB for MPSoC")
            sdram_size: 2 << 30,           // 2 GB external SDRAM
            bus_burst_bytes: 32,
            bus_burst_ns: 75,              // SDRAM burst latency
            interrupt_ns: 12_000,          // doorbell raise + handler entry
        }
    }

    /// A hypothetical scaled-up part: one ST40 host plus `accelerators`
    /// ST231 cores sharing the same SDRAM and bus. The paper motivates
    /// MPSoC designs that "integrate dozens and even hundreds of
    /// computing cores" (§1); this configuration lets the scaling
    /// experiment probe where the shared bus saturates.
    pub fn with_accelerators(accelerators: usize) -> Self {
        let mut cfg = Self::sti7200();
        cfg.cpus.truncate(1);
        for i in 1..=accelerators {
            cfg.cpus.push(CpuConfig {
                name: format!("ST231_{i}"),
                kind: CpuKind::St231,
                freq_hz: 400_000_000,
                dcache: CacheConfig::st231_l1d(),
            });
        }
        cfg
    }

    /// A reduced STi7200 matching what the paper could actually use:
    /// "the software toolset provided by STMicroelectronics for our
    /// experience supports only three processors" (§5.3) — one ST40 and
    /// two ST231.
    pub fn sti7200_three_cpu() -> Self {
        let mut cfg = Self::sti7200();
        cfg.cpus.truncate(3);
        cfg
    }

    /// Number of CPUs.
    pub fn num_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Indices of the ST231 accelerators.
    pub fn accelerators(&self) -> Vec<CpuId> {
        self.cpus
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind == CpuKind::St231)
            .map(|(i, _)| i)
            .collect()
    }

    /// Validate internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.cpus.is_empty() {
            return Err("machine must have at least one CPU".into());
        }
        if self.cpus[0].kind != CpuKind::St40 {
            return Err("CPU 0 must be the ST40 host".into());
        }
        for c in &self.cpus {
            if c.freq_hz == 0 {
                return Err(format!("CPU {} has zero frequency", c.name));
            }
        }
        if self.bus_burst_bytes == 0 {
            return Err("bus burst size must be non-zero".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sti7200_shape_matches_paper() {
        let cfg = MachineConfig::sti7200();
        assert_eq!(cfg.num_cpus(), 5);
        assert_eq!(cfg.cpus[0].kind, CpuKind::St40);
        assert_eq!(cfg.cpus[0].freq_hz, 450_000_000);
        assert_eq!(cfg.accelerators().len(), 4);
        for id in cfg.accelerators() {
            assert_eq!(cfg.cpus[id].freq_hz, 400_000_000);
        }
        cfg.validate().unwrap();
    }

    #[test]
    fn three_cpu_variant_matches_paper_section_5_3() {
        let cfg = MachineConfig::sti7200_three_cpu();
        assert_eq!(cfg.num_cpus(), 3);
        assert_eq!(cfg.accelerators(), vec![1, 2]);
        cfg.validate().unwrap();
    }

    #[test]
    fn with_accelerators_scales_the_part() {
        let cfg = MachineConfig::with_accelerators(16);
        assert_eq!(cfg.num_cpus(), 17);
        assert_eq!(cfg.accelerators().len(), 16);
        cfg.validate().unwrap();
    }

    #[test]
    fn cycles_to_ns_rounds_up() {
        let cfg = MachineConfig::sti7200();
        // 450 MHz: 1 cycle = 2.22 ns, must round to 3.
        assert_eq!(cfg.cpus[0].cycles_to_ns(1), 3);
        // 400 MHz: exactly 2.5 ns/cycle -> 2 cycles = 5 ns.
        assert_eq!(cfg.cpus[1].cycles_to_ns(2), 5);
    }

    #[test]
    fn validate_rejects_wrong_host() {
        let mut cfg = MachineConfig::sti7200();
        cfg.cpus[0].kind = CpuKind::St231;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_frequency() {
        let mut cfg = MachineConfig::sti7200();
        cfg.cpus[2].freq_hz = 0;
        assert!(cfg.validate().is_err());
    }
}
