//! The EMBX transport: factory for distributed objects over one shared
//! memory block + interrupt controller pairing.

use std::sync::Arc;

use sim_kernel::{Kernel, LockStep};

use mpsoc_sim::{CpuId, IrqLine, Machine};

use crate::cost::EmbxCostConfig;
use crate::object::{DistributedObject, Envelope, ObjectShared};

struct TransportInner {
    machine: Machine,
    cost: EmbxCostConfig,
    next_irq_line: LockStep<u32>,
}

/// An EMBX transport (`EMBX_OpenTransport("shm")` in the real API).
/// Cloneable; clones share the transport.
#[derive(Clone)]
pub struct Transport {
    inner: Arc<TransportInner>,
}

impl Transport {
    /// Open a transport over `machine`.
    pub fn open(machine: Machine) -> Self {
        Transport {
            inner: Arc::new(TransportInner {
                machine,
                cost: EmbxCostConfig::default(),
                next_irq_line: LockStep::new(0),
            }),
        }
    }

    /// The machine this transport runs on.
    pub fn machine(&self) -> &Machine {
        &self.inner.machine
    }

    /// Create a distributed object owned (received) by `owner_cpu`,
    /// carrying envelopes of type `E`. Allocates the object's
    /// double-buffered slots from SDRAM and registers a doorbell
    /// interrupt line on the owner CPU.
    ///
    /// Must be called before the simulation starts (the kernel allocates
    /// the wakeup events).
    pub fn create_object<E: Envelope>(
        &self,
        kernel: &Kernel,
        name: impl Into<String>,
        owner_cpu: CpuId,
    ) -> Result<DistributedObject<E>, String> {
        let cfg = self.inner.cost;
        let buffer_bytes = cfg.slot_bytes * cfg.pipelined_slots;
        let block = self.inner.machine.sdram_alloc().alloc(buffer_bytes)?;
        let line = self.inner.next_irq_line.with(|next| {
            let line = IrqLine {
                cpu: owner_cpu,
                line: *next,
            };
            *next += 1;
            line
        });
        self.inner.machine.interrupts().register_line(kernel, line);
        let nonempty = kernel.alloc_event();
        Ok(DistributedObject::new(ObjectShared {
            name: name.into(),
            owner_cpu,
            block,
            line,
            nonempty,
            machine: self.inner.machine.clone(),
            cost: cfg,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_object_allocates_sdram_and_registers() {
        let machine = Machine::sti7200();
        let kernel = Kernel::new();
        let tp = Transport::open(machine.clone());
        let used_before = machine.sdram_alloc().used();
        let obj: DistributedObject = tp.create_object(&kernel, "fetch_to_idct1", 1).unwrap();
        assert!(machine.sdram_alloc().used() > used_before);
        assert_eq!(obj.owner_cpu(), 1);
        assert_eq!(obj.name(), "fetch_to_idct1");
    }

    #[test]
    fn objects_get_distinct_irq_lines() {
        let machine = Machine::sti7200();
        let kernel = Kernel::new();
        let tp = Transport::open(machine);
        let a: DistributedObject = tp.create_object(&kernel, "a", 1).unwrap();
        let b: DistributedObject = tp.create_object(&kernel, "b", 1).unwrap();
        assert_ne!(a.irq_line(), b.irq_line());
    }

    #[test]
    fn sdram_exhaustion_propagates_as_error() {
        let mut cfg = mpsoc_sim::MachineConfig::sti7200();
        cfg.sdram_size = 1024; // far below one object's slots
        let machine = Machine::new(cfg);
        let kernel = Kernel::new();
        let tp = Transport::open(machine);
        assert!(tp.create_object::<Vec<u8>>(&kernel, "x", 1).is_err());
    }
}
