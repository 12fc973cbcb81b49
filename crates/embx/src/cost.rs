//! EMBX software-path cost parameters and the chunking model behind the
//! Figure 8 knee.

use mpsoc_sim::{ComputeClass, CpuId, Machine, RegionId};

/// Cost parameters of the EMBX software path.
#[derive(Debug, Clone, Copy)]
pub struct EmbxCostConfig {
    /// Distributed-object slot size, bytes. The paper's memory table
    /// attributes 25 kB to one distributed object (§5.4); the object
    /// double-buffers two such slots.
    pub slot_bytes: u64,
    /// Number of slots that stream without a handshake (double
    /// buffering). The knee therefore falls at
    /// `slot_bytes * pipelined_slots` = 50 kB.
    pub pipelined_slots: u64,
    /// Software operations executed per transferred byte on the sending
    /// side (buffer management, marshalling, cache maintenance).
    pub send_ops_per_byte: u64,
    /// Software operations per byte on the receiving side.
    pub recv_ops_per_byte: u64,
    /// Fixed software operations per message (descriptor, port lookup).
    pub per_message_ops: u64,
    /// Software operations per extra chunk handshake beyond the
    /// pipelined window.
    pub per_chunk_handshake_ops: u64,
}

impl Default for EmbxCostConfig {
    fn default() -> Self {
        EmbxCostConfig {
            slot_bytes: 25 * 1024,
            pipelined_slots: 2,
            send_ops_per_byte: 26,
            recv_ops_per_byte: 13,
            per_message_ops: 6_000,
            per_chunk_handshake_ops: 220_000,
        }
    }
}

impl EmbxCostConfig {
    /// Size below which transfers stream without chunk handshakes.
    pub fn knee_bytes(&self) -> u64 {
        self.slot_bytes * self.pipelined_slots
    }

    /// Number of chunk handshakes a transfer of `bytes` incurs (zero for
    /// transfers within the pipelined window).
    pub fn extra_chunks(&self, bytes: u64) -> u64 {
        if bytes <= self.knee_bytes() {
            0
        } else {
            (bytes - self.knee_bytes()).div_ceil(self.slot_bytes)
        }
    }

    /// Total *software* operations of a send of `bytes` (copy cost and
    /// interrupts are charged separately through the machine model).
    pub fn send_sw_ops(&self, bytes: u64) -> u64 {
        self.per_message_ops
            + self.send_ops_per_byte * bytes
            + self.per_chunk_handshake_ops * self.extra_chunks(bytes)
    }

    /// Total software operations of a receive of `bytes`.
    pub fn recv_sw_ops(&self, bytes: u64) -> u64 {
        self.per_message_ops + self.recv_ops_per_byte * bytes
    }
}

/// Charge the full cost of the sending half of a transfer on `cpu`:
/// software path (MemCopy class) + hardware copy from the sender's local
/// region into the object's SDRAM slots + one doorbell interrupt.
/// Returns the ns consumed.
pub fn charge_send(
    machine: &Machine,
    task: &os21::TaskCtx,
    cfg: &EmbxCostConfig,
    _cpu: CpuId,
    src_region: RegionId,
    object_addr: u64,
    bytes: u64,
) -> u64 {
    let before = task.now_ns();
    // Software path on the sending CPU.
    task.compute(ComputeClass::MemCopy, cfg.send_sw_ops(bytes));
    // Hardware copy: read from the sender's region, write into SDRAM
    // (cache-modeled at the object's address, wrapped over its slots).
    task.mem_access_region(src_region, bytes);
    let window = cfg.knee_bytes().max(1);
    task.mem_access(object_addr, bytes.min(window));
    if bytes > window {
        // Beyond the window the same slots are reused; the traffic still
        // hits SDRAM.
        task.mem_access(object_addr, bytes - window);
    }
    // Doorbell to the destination CPU.
    task.delay(machine.cost().interrupt_ns());
    task.now_ns() - before
}

/// Charge the receiving half on `cpu`: software path + copy from the
/// object's SDRAM slots into the receiver's region.
pub fn charge_receive(
    _machine: &Machine,
    task: &os21::TaskCtx,
    cfg: &EmbxCostConfig,
    _cpu: CpuId,
    dst_region: RegionId,
    object_addr: u64,
    bytes: u64,
) -> u64 {
    let before = task.now_ns();
    task.compute(ComputeClass::MemCopy, cfg.recv_sw_ops(bytes));
    task.mem_access(object_addr, bytes.min(cfg.knee_bytes().max(1)));
    task.mem_access_region(dst_region, bytes);
    task.now_ns() - before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knee_is_at_50kb_with_default_config() {
        let cfg = EmbxCostConfig::default();
        assert_eq!(cfg.knee_bytes(), 50 * 1024);
    }

    #[test]
    fn no_extra_chunks_below_knee() {
        let cfg = EmbxCostConfig::default();
        assert_eq!(cfg.extra_chunks(0), 0);
        assert_eq!(cfg.extra_chunks(25 * 1024), 0);
        assert_eq!(cfg.extra_chunks(50 * 1024), 0);
        assert_eq!(cfg.extra_chunks(50 * 1024 + 1), 1);
        assert_eq!(cfg.extra_chunks(100 * 1024), 2);
    }

    #[test]
    fn send_ops_linear_below_knee_steeper_above() {
        let cfg = EmbxCostConfig::default();
        let k = 1024;
        // Below the knee the marginal cost per 10 kB is constant.
        let d1 = cfg.send_sw_ops(20 * k) - cfg.send_sw_ops(10 * k);
        let d2 = cfg.send_sw_ops(40 * k) - cfg.send_sw_ops(30 * k);
        assert_eq!(d1, d2);
        // Above the knee each extra 25 kB chunk adds a handshake.
        let d3 = cfg.send_sw_ops(100 * k) - cfg.send_sw_ops(75 * k);
        assert!(d3 > d1, "slope must increase past the knee: {d3} vs {d1}");
    }

    #[test]
    fn recv_ops_cheaper_than_send() {
        let cfg = EmbxCostConfig::default();
        assert!(cfg.recv_sw_ops(100_000) < cfg.send_sw_ops(100_000));
    }
}
