//! Distributed objects: the provided-interface endpoints of the MPSoC
//! backend, with `EMBX_Send` / `EMBX_Receive` semantics and modeled
//! transfer costs.
//!
//! On the real STi7200, "OS21 tasks … communicate via a specific
//! middleware developed by STMicroelectronics — EMBX. This middleware
//! manages shared memory regions accessible by several or by all the
//! CPUs. These memory regions are called distributed objects and are
//! accessed by dedicated `EMBX_Send` and `EMBX_Receive` functions. The
//! `EMBX_Send` is an asynchronous operation corresponding to a write
//! operation on the distributed object. The `EMBX_Receive` is a
//! synchronous operation corresponding to a read operation on the
//! distributed object." (paper §5)

use std::collections::VecDeque;
use std::sync::Arc;

use embera::Message;
use mpsoc_sim::{IrqLine, RegionId, SdramBlock};
use sim_kernel::LockStep;

use crate::cost::{charge_receive, charge_send};

/// A distributed object: the provided-interface endpoint of EMBera's
/// MPSoC implementation (paper §5.1: "The component provided interface
/// is represented by a distributed object").
///
/// [`send`](DistributedObject::send) is asynchronous (charge, enqueue,
/// doorbell); a receiver that finds the object empty parks on its
/// component's doorbell. The object carries the runtime's [`Message`]
/// in **one queue**: the message a send moves in is the message a
/// receive hands out, neither copied nor serialised. *Timing* comes
/// from the machine cost model, charged on [`Message::wire_size`] and
/// placed at the object's [`SdramBlock`]. A send becomes receivable once
/// its sending half has been charged and before its doorbell rings, so
/// a receiver that polls while the sender is still paying for the copy
/// finds nothing yet.
#[derive(Clone)]
pub(crate) struct DistributedObject {
    block: SdramBlock,
    /// The receiving component's doorbell, raised by every send.
    doorbell: IrqLine,
    /// Messages sent and not yet received, oldest first.
    queue: Arc<LockStep<VecDeque<Message>>>,
}

impl DistributedObject {
    /// An empty object over `block` whose sends raise `doorbell`.
    pub(crate) fn new(block: SdramBlock, doorbell: IrqLine) -> Self {
        DistributedObject {
            block,
            doorbell,
            queue: Arc::default(),
        }
    }

    /// `EMBX_Send`: asynchronously write `msg` into the object from
    /// `task` (running on the sending CPU, whose local `src_region`
    /// holds the payload). Charges the modeled transfer cost, enqueues
    /// the message, raises the receiver's doorbell, and returns the ns
    /// the send took.
    pub(crate) fn send(&self, task: &os21::TaskCtx, src_region: RegionId, msg: Message) -> u64 {
        let ns = charge_send(task, src_region, self.block.addr, msg.wire_size() as u64);
        // The sending half is paid for, the doorbell not yet rung.
        self.queue.with(|queue| queue.push_back(msg));
        let interrupts = task.rtos().machine().interrupts();
        interrupts.raise(task.sim(), self.doorbell);
        ns
    }

    /// `EMBX_Receive` that does not block: the next message and the ns
    /// its receive took, or `None` with nothing charged if the object
    /// is empty.
    pub(crate) fn try_receive(
        &self,
        task: &os21::TaskCtx,
        dst_region: RegionId,
    ) -> Option<(Message, u64)> {
        let msg = self.try_take()?;
        let ns = charge_receive(task, dst_region, self.block.addr, msg.wire_size() as u64);
        Some((msg, ns))
    }

    /// Take the next message without charging a receive: for traffic
    /// that is not an application receive (the observation service's
    /// poll).
    pub(crate) fn try_take(&self) -> Option<Message> {
        self.queue.with(|queue| queue.pop_front())
    }

    /// Messages waiting in the object.
    pub(crate) fn queued(&self) -> usize {
        self.queue.with(|queue| queue.len())
    }

    /// Payload bytes waiting in the object ([`Message::data_len`]
    /// summed over its queue).
    pub(crate) fn queued_bytes(&self) -> u64 {
        self.queue
            .with(|queue| queue.iter().map(|m| m.data_len() as u64).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::KNEE_BYTES;
    use bytes::Bytes;
    use mpsoc_sim::{CpuId, Machine};
    use os21::{Rtos, TaskCtx};
    use sim_kernel::{EventId, Kernel};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    struct Setup {
        kernel: Kernel,
        rtos: Rtos,
        machine: Machine,
    }

    fn setup() -> Setup {
        let machine = Machine::sti7200();
        Setup {
            kernel: Kernel::new(),
            rtos: Rtos::new(machine.clone()),
            machine,
        }
    }

    impl Setup {
        /// An object received on `cpu`, with the event its doorbell
        /// notifies.
        fn object(&self, cpu: CpuId, line: u32) -> (DistributedObject, EventId) {
            let block = self.machine.sdram_alloc().alloc(KNEE_BYTES).unwrap();
            let doorbell = IrqLine { cpu, line };
            let event = self
                .machine
                .interrupts()
                .register_line(&self.kernel, doorbell);
            (DistributedObject::new(block, doorbell), event)
        }
    }

    /// The synchronous `EMBX_Receive`: park on the doorbell until the
    /// object holds a message.
    fn receive(
        obj: &DistributedObject,
        doorbell: EventId,
        t: &TaskCtx,
        region: RegionId,
    ) -> Message {
        loop {
            if let Some((msg, _)) = obj.try_receive(t, region) {
                return msg;
            }
            t.sim().wait(doorbell);
        }
    }

    fn data(bytes: Vec<u8>) -> Message {
        Message::Data(Bytes::from(bytes))
    }

    #[test]
    fn send_receive_round_trips_payload() {
        let mut s = setup();
        let (obj, doorbell) = s.object(1, 0);
        let sdram = s.machine.memory_map().sdram();
        let lmi1 = s.machine.memory_map().local_of(1).unwrap();
        let expected: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();

        let (tx, payload) = (obj.clone(), expected.clone());
        s.rtos.spawn_task(&mut s.kernel, 0, "sender", 0, move |t| {
            tx.send(&t, sdram, data(payload));
        });
        let got = Arc::new(Mutex::new(None));
        let g = Arc::clone(&got);
        s.rtos
            .spawn_task(&mut s.kernel, 1, "receiver", 0, move |t| {
                *g.lock().unwrap() = Some(receive(&obj, doorbell, &t, lmi1));
            });
        s.kernel.run().unwrap();
        let got = got.lock().unwrap().take();
        match got {
            Some(Message::Data(payload)) => assert_eq!(payload.as_ref(), expected),
            other => panic!("expected the data message, got {other:?}"),
        }
    }

    #[test]
    fn send_is_async_receive_is_sync() {
        let mut s = setup();
        let (obj, doorbell) = s.object(1, 0);
        let sdram = s.machine.memory_map().sdram();
        let lmi1 = s.machine.memory_map().local_of(1).unwrap();

        let sender_done = Arc::new(AtomicU64::new(u64::MAX));
        let receiver_got = Arc::new(AtomicU64::new(u64::MAX));
        let tx = obj.clone();
        let sd = Arc::clone(&sender_done);
        s.rtos.spawn_task(&mut s.kernel, 0, "sender", 0, move |t| {
            tx.send(&t, sdram, data(b"x".to_vec()));
            sd.store(t.now_ns(), Ordering::SeqCst);
        });
        let rg = Arc::clone(&receiver_got);
        s.rtos
            .spawn_task(&mut s.kernel, 1, "receiver", 0, move |t| {
                // Receiver sleeps first: a synchronous receive would block a
                // sender only if send were synchronous — it must not.
                t.delay(1_000_000_000);
                receive(&obj, doorbell, &t, lmi1);
                rg.store(t.now_ns(), Ordering::SeqCst);
            });
        s.kernel.run().unwrap();
        assert!(
            sender_done.load(Ordering::SeqCst) < 1_000_000_000,
            "async send must complete before the receiver ever reads"
        );
        assert!(receiver_got.load(Ordering::SeqCst) >= 1_000_000_000);
    }

    #[test]
    fn send_cost_linear_below_knee_and_steeper_above() {
        let mut s = setup();
        let (obj, _) = s.object(1, 0);
        let sdram = s.machine.memory_map().sdram();
        let times = Arc::new(Mutex::new(Vec::new()));

        let ts = Arc::clone(&times);
        s.rtos.spawn_task(&mut s.kernel, 0, "sender", 0, move |t| {
            for kb in [10u64, 20, 30, 40, 100, 125] {
                let ns = obj.send(&t, sdram, data(vec![0u8; (kb * 1024) as usize]));
                ts.lock().unwrap().push((kb, ns));
            }
        });
        s.kernel.run().unwrap();
        let times = times.lock().unwrap().clone();
        let per_kb = |i: usize, j: usize| {
            (times[j].1 - times[i].1) as f64 / (times[j].0 - times[i].0) as f64
        };
        let below = per_kb(0, 3); // 10..40 kB
        let above = per_kb(4, 5); // 100..125 kB
        assert!(
            above > below * 1.2,
            "slope above knee ({above:.0} ns/kB) must exceed below ({below:.0} ns/kB)"
        );
        // Linearity below the knee: marginal slopes agree within 10%.
        let s1 = per_kb(0, 1);
        let s2 = per_kb(2, 3);
        assert!((s1 / s2 - 1.0).abs() < 0.1, "s1={s1} s2={s2}");
    }

    #[test]
    fn st231_send_faster_than_st40_at_every_size() {
        // Figure 8's headline: the IDCT (ST231) executes send faster than
        // Fetch-Reorder (ST40) for the same message size.
        let mut s = setup();
        let (to_st40, _) = s.object(0, 0);
        let (to_st231, _) = s.object(1, 1);
        let sdram = s.machine.memory_map().sdram();
        let lmi2 = s.machine.memory_map().local_of(2).unwrap();

        let st40_times = Arc::new(Mutex::new(Vec::new()));
        let st231_times = Arc::new(Mutex::new(Vec::new()));
        let sizes = [25u64, 50, 100, 200];

        let tt = Arc::clone(&st40_times);
        s.rtos
            .spawn_task(&mut s.kernel, 0, "st40_sender", 0, move |t| {
                for kb in sizes {
                    let msg = data(vec![1u8; (kb * 1024) as usize]);
                    tt.lock().unwrap().push(to_st231.send(&t, sdram, msg));
                }
            });
        let tt2 = Arc::clone(&st231_times);
        s.rtos
            .spawn_task(&mut s.kernel, 2, "st231_sender", 0, move |t| {
                for kb in sizes {
                    let msg = data(vec![2u8; (kb * 1024) as usize]);
                    tt2.lock().unwrap().push(to_st40.send(&t, lmi2, msg));
                }
            });
        s.kernel.run().unwrap();
        let a = st40_times.lock().unwrap().clone();
        let b = st231_times.lock().unwrap().clone();
        for i in 0..sizes.len() {
            assert!(
                b[i] < a[i],
                "ST231 send ({} ns) must beat ST40 ({} ns) at {} kB",
                b[i],
                a[i],
                sizes[i]
            );
        }
    }

    #[test]
    fn a_deadline_travels_as_eight_wire_bytes_the_queue_gauge_leaves_out() {
        // A deadlined payload of n bytes goes on the wire as n + 8
        // bytes: it costs what n + 8 data bytes cost, while the object's
        // queued bytes count only the payload.
        const N: usize = 3000;
        let send_ns = |msg: Message| {
            let mut s = setup();
            let (obj, _) = s.object(1, 0);
            let sdram = s.machine.memory_map().sdram();
            let (tx, took) = (obj.clone(), Arc::new(AtomicU64::new(0)));
            let t2 = Arc::clone(&took);
            s.rtos.spawn_task(&mut s.kernel, 0, "sender", 0, move |t| {
                t2.store(tx.send(&t, sdram, msg), Ordering::SeqCst);
            });
            s.kernel.run().unwrap();
            (took.load(Ordering::SeqCst), obj.queued_bytes())
        };
        let deadlined = Message::Deadlined {
            payload: Bytes::from(vec![7u8; N]),
            deadline_ns: 0x0102_0304_0506_0708,
        };
        let (deadlined_ns, deadlined_queued) = send_ns(deadlined);
        let (data_ns, data_queued) = send_ns(data(vec![7u8; N + 8]));
        assert_eq!(deadlined_ns, data_ns);
        assert_eq!(deadlined_queued, N as u64);
        assert_eq!(data_queued, N as u64 + 8);
    }
}
