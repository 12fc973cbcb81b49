//! EMBX software-path cost parameters and the chunking model behind the
//! Figure 8 knee.
//!
//! A transfer is charged on the sending and the receiving CPU through
//! the machine cost model, plus a software path per byte. The object
//! double-buffers 25 kB slots, so transfers up to 50 kB stream without
//! stalling while larger ones pay a handshake per extra chunk —
//! reproducing Figure 8's "linear for message sizes smaller than 50 kB;
//! over 50 kB, the send function decreases its performance".

use mpsoc_sim::{ComputeClass, RegionId};

/// Distributed-object slot size, bytes. The paper's memory table
/// attributes 25 kB to one distributed object (§5.4); the object
/// double-buffers two such slots.
const SLOT_BYTES: u64 = 25 * 1024;

/// Number of slots that stream without a handshake (double buffering).
const PIPELINED_SLOTS: u64 = 2;

/// Size of an object's SDRAM block, and the size below which transfers
/// stream without chunk handshakes: 50 kB.
pub(crate) const KNEE_BYTES: u64 = SLOT_BYTES * PIPELINED_SLOTS;

/// Software operations executed per transferred byte on the sending
/// side (buffer management, marshalling, cache maintenance).
const SEND_OPS_PER_BYTE: u64 = 26;

/// Software operations per byte on the receiving side.
const RECV_OPS_PER_BYTE: u64 = 13;

/// Fixed software operations per message (descriptor, port lookup).
const PER_MESSAGE_OPS: u64 = 6_000;

/// Software operations per extra chunk handshake beyond the pipelined
/// window.
const PER_CHUNK_HANDSHAKE_OPS: u64 = 220_000;

/// Number of chunk handshakes a transfer of `bytes` incurs (zero for
/// transfers within the pipelined window).
fn extra_chunks(bytes: u64) -> u64 {
    if bytes <= KNEE_BYTES {
        0
    } else {
        (bytes - KNEE_BYTES).div_ceil(SLOT_BYTES)
    }
}

/// Total *software* operations of a send of `bytes` (copy cost and
/// interrupts are charged separately through the machine model).
fn send_sw_ops(bytes: u64) -> u64 {
    PER_MESSAGE_OPS + SEND_OPS_PER_BYTE * bytes + PER_CHUNK_HANDSHAKE_OPS * extra_chunks(bytes)
}

/// Total software operations of a receive of `bytes`.
fn recv_sw_ops(bytes: u64) -> u64 {
    PER_MESSAGE_OPS + RECV_OPS_PER_BYTE * bytes
}

/// Charge the full cost of the sending half of a transfer on `task`'s
/// CPU: software path (MemCopy class) + hardware copy from the sender's
/// local region into the object's SDRAM slots + one doorbell interrupt.
/// Returns the ns consumed.
pub(crate) fn charge_send(
    task: &os21::TaskCtx,
    src_region: RegionId,
    object_addr: u64,
    bytes: u64,
) -> u64 {
    let before = task.now_ns();
    // Software path on the sending CPU.
    task.compute(ComputeClass::MemCopy, send_sw_ops(bytes));
    // Hardware copy: read from the sender's region, write into SDRAM
    // (cache-modeled at the object's address, wrapped over its slots).
    task.mem_access_region(src_region, bytes);
    task.mem_access(object_addr, bytes.min(KNEE_BYTES));
    if bytes > KNEE_BYTES {
        // Beyond the window the same slots are reused; the traffic still
        // hits SDRAM.
        task.mem_access(object_addr, bytes - KNEE_BYTES);
    }
    // Doorbell to the destination CPU.
    task.delay(task.rtos().machine().cost().interrupt_ns());
    task.now_ns() - before
}

/// Charge the receiving half on `task`'s CPU: software path + copy from
/// the object's SDRAM slots into the receiver's region.
pub(crate) fn charge_receive(
    task: &os21::TaskCtx,
    dst_region: RegionId,
    object_addr: u64,
    bytes: u64,
) -> u64 {
    let before = task.now_ns();
    task.compute(ComputeClass::MemCopy, recv_sw_ops(bytes));
    task.mem_access(object_addr, bytes.min(KNEE_BYTES));
    task.mem_access_region(dst_region, bytes);
    task.now_ns() - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn knee_is_at_50kb_with_default_config() {
        assert_eq!(KNEE_BYTES, 50 * 1024);
    }

    #[test]
    fn no_extra_chunks_below_knee() {
        assert_eq!(extra_chunks(0), 0);
        assert_eq!(extra_chunks(25 * 1024), 0);
        assert_eq!(extra_chunks(50 * 1024), 0);
        assert_eq!(extra_chunks(50 * 1024 + 1), 1);
        assert_eq!(extra_chunks(100 * 1024), 2);
    }

    #[test]
    fn send_ops_linear_below_knee_steeper_above() {
        let k = 1024;
        // Below the knee the marginal cost per 10 kB is constant.
        let d1 = send_sw_ops(20 * k) - send_sw_ops(10 * k);
        let d2 = send_sw_ops(40 * k) - send_sw_ops(30 * k);
        assert_eq!(d1, d2);
        // Above the knee each extra 25 kB chunk adds a handshake.
        let d3 = send_sw_ops(100 * k) - send_sw_ops(75 * k);
        assert!(d3 > d1, "slope must increase past the knee: {d3} vs {d1}");
    }

    #[test]
    fn recv_ops_cheaper_than_send() {
        assert!(recv_sw_ops(100_000) < send_sw_ops(100_000));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn extra_chunks_consistent_with_knee(bytes in 0u64..1_000_000) {
            let chunks = extra_chunks(bytes);
            if bytes <= KNEE_BYTES {
                prop_assert_eq!(chunks, 0);
            } else {
                prop_assert_eq!(chunks, (bytes - KNEE_BYTES).div_ceil(SLOT_BYTES));
            }
        }
    }
}
