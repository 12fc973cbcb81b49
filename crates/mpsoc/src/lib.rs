//! # mpsoc-sim — transaction-level model of the STi7200 MPSoC
//!
//! The EMBera paper evaluates its MPSoC implementation on an
//! STMicroelectronics **STi7200**: one 450 MHz general-purpose **ST40**
//! RISC CPU plus four 400 MHz **ST231** VLIW accelerators, per-ST231
//! local memories, a 2 GB shared SDRAM block, and an interrupt controller
//! used for cross-CPU communication (paper §5, Figure 6).
//!
//! That silicon (and its proprietary toolchain) is inaccessible, so this
//! crate provides the closest synthetic equivalent: a deterministic
//! transaction-level model built on [`sim_kernel`]. It models:
//!
//! * heterogeneous **CPUs** with per-CPU frequency and per-workload-class
//!   throughput ([`CpuKind`], [`ComputeClass`]) — the ST40 retires DSP
//!   kernels slowly (the paper's explanation for the Fetch-Reorder
//!   component being ~12× slower than IDCT in Table 3),
//! * a **memory map** with per-ST231 local memory (LMI) and shared SDRAM,
//!   with per-CPU access costs (the ST231 is "designed for intensive
//!   computing which needs fast memory access"; the ST40 "is mainly
//!   designed to access peripherals" — paper §5.4),
//! * a shared **bus** serializing SDRAM transactions (contention),
//! * an **interrupt controller** with per-CPU doorbell lines, each a
//!   kernel event (EMBX uses one shared memory block "associated with
//!   one interruption controller" — paper §5),
//! * a per-CPU **L1 data-cache model** with miss counters — these back
//!   the paper's announced future work of observing cache misses (§6).
//!
//! Absolute cycle counts are calibrated, not measured from silicon; what
//! the model preserves is the *relationships* the paper reports: which
//! CPU is slower at what, linear copy costs, and the EMBX chunking knee
//! near 50 kB (Figure 8).
//!
//! The bus, the caches, the interrupt controller and the SDRAM blocks
//! keep their state in [`sim_kernel::LockStep`] cells, unlocked: a
//! [`Machine`] belongs to one simulation, touched only by the process its
//! kernel runs (or by its owner before and after the run). Build one
//! machine per run — `embera-os21` builds one per deployment.

pub mod bus;
pub mod cache;
pub mod config;
pub mod cost;
pub mod interrupt;
pub mod machine;
pub mod memory;

pub use bus::{Bus, BusStats};
pub use cache::{CacheConfig, CacheStats, L1Cache};
pub use config::{CpuConfig, CpuId, CpuKind, MachineConfig};
pub use cost::{ComputeClass, CostModel};
pub use interrupt::{InterruptController, IrqLine};
pub use machine::Machine;
pub use memory::{MemoryKind, MemoryMap, RegionId, SdramAllocator, SdramBlock};
