//! Distributed objects: shared-memory message slots with `EMBX_Send` /
//! `EMBX_Receive` semantics and modeled transfer costs.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use sim_kernel::EventId;

use mpsoc_sim::{CpuId, IrqLine, Machine, RegionId, SdramBlock};

use crate::cost::{charge_receive, charge_send, EmbxCostConfig};

pub(crate) struct ObjectShared {
    pub(crate) name: String,
    pub(crate) owner_cpu: CpuId,
    pub(crate) block: SdramBlock,
    pub(crate) line: IrqLine,
    pub(crate) nonempty: EventId,
    pub(crate) machine: Machine,
    pub(crate) cost: EmbxCostConfig,
}

struct ObjectState {
    queue: VecDeque<Vec<u8>>,
    /// Additional events notified on every send (lets a receiver block on
    /// "any of my objects" through one shared event).
    extra_notify: Vec<EventId>,
}

/// A distributed object: the provided-interface endpoint of EMBera's
/// MPSoC implementation (paper §5.1: "The component provided interface
/// is represented by a distributed object").
///
/// `send` is asynchronous (enqueue + doorbell), `receive` synchronous
/// (blocks in virtual time). The payload is carried in the object's
/// queue, one copy per send; *timing* comes from the machine cost model.
/// `send` also writes the payload's first slot window into the object's
/// [`SdramBlock`], but no receive path takes its bytes from there: the
/// deployed one ([`DistributedObject::try_receive_uncosted`]) never reads
/// the block, and the blocking [`DistributedObject::receive`] reads it
/// back only into a length check that cannot fail.
pub struct DistributedObject {
    shared: Arc<ObjectShared>,
    state: Arc<Mutex<ObjectState>>,
}

impl Clone for DistributedObject {
    fn clone(&self) -> Self {
        DistributedObject {
            shared: Arc::clone(&self.shared),
            state: Arc::clone(&self.state),
        }
    }
}

impl DistributedObject {
    pub(crate) fn new(shared: ObjectShared) -> Self {
        DistributedObject {
            shared: Arc::new(shared),
            state: Arc::new(Mutex::new(ObjectState {
                queue: VecDeque::new(),
                extra_notify: Vec::new(),
            })),
        }
    }

    /// Object name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// CPU that receives from this object.
    pub fn owner_cpu(&self) -> CpuId {
        self.shared.owner_cpu
    }

    /// The doorbell line this object raises.
    pub fn irq_line(&self) -> IrqLine {
        self.shared.line
    }

    /// `EMBX_Send`: asynchronously write `data` into the object from
    /// `task` (running on the sending CPU, whose local `src_region`
    /// holds the payload). Charges the modeled transfer cost, enqueues a
    /// copy of the bytes, raises the owner CPU's doorbell, and returns
    /// the ns the send took.
    pub fn send(&self, task: &os21::TaskCtx, src_region: RegionId, data: &[u8]) -> u64 {
        let ns = charge_send(
            &self.shared.machine,
            task,
            &self.shared.cost,
            task.cpu(),
            src_region,
            self.shared.block.addr,
            data.len() as u64,
        );
        // Write the first slot window into the SDRAM block (nothing on
        // the receive side depends on it), then enqueue the payload.
        let slot = self.shared.block.size as usize;
        if slot > 0 {
            let window = data.len().min(slot);
            self.shared.block.write(0, &data[..window]);
        }
        let extra = {
            let mut st = self.state.lock();
            st.queue.push_back(data.to_vec());
            st.extra_notify.clone()
        };
        self.shared.machine.interrupts().raise(task.sim(), self.shared.line);
        task.sim().notify(self.shared.nonempty);
        for e in extra {
            task.sim().notify(e);
        }
        ns
    }

    /// `EMBX_Receive`: synchronously read the next message, blocking in
    /// virtual time until one is available. Returns the payload and the
    /// ns the receive took once data was available (waiting time is
    /// excluded, matching how the paper instruments the primitive).
    pub fn receive(&self, task: &os21::TaskCtx, dst_region: RegionId) -> (Vec<u8>, u64) {
        let data = loop {
            {
                let mut st = self.state.lock();
                if let Some(d) = st.queue.pop_front() {
                    break d;
                }
            }
            task.sim().wait(self.shared.nonempty);
        };
        // Read the slot window back from the SDRAM block; the payload
        // returned is the queued copy.
        let slot = self.shared.block.size as usize;
        if slot > 0 && !data.is_empty() {
            let window = data.len().min(slot);
            let through_sdram = self.shared.block.read(0, window);
            debug_assert!(
                through_sdram.len() == window,
                "SDRAM slot window mismatch"
            );
        }
        let ns = charge_receive(
            &self.shared.machine,
            task,
            &self.shared.cost,
            task.cpu(),
            dst_region,
            self.shared.block.addr,
            data.len() as u64,
        );
        (data, ns)
    }

    /// Charge the receive-side transfer cost for `bytes` already popped
    /// via [`DistributedObject::try_receive_uncosted`]. Returns the ns
    /// consumed. Lets runtimes separate dequeueing from costing.
    pub fn charge_receive_cost(
        &self,
        task: &os21::TaskCtx,
        dst_region: RegionId,
        bytes: u64,
    ) -> u64 {
        charge_receive(
            &self.shared.machine,
            task,
            &self.shared.cost,
            task.cpu(),
            dst_region,
            self.shared.block.addr,
            bytes,
        )
    }

    /// Non-blocking receive of the payload only (no cost charged); used
    /// by polling service loops.
    pub fn try_receive_uncosted(&self) -> Option<Vec<u8>> {
        self.state.lock().queue.pop_front()
    }

    /// Register an additional event to notify on every send. Used by the
    /// EMBera runtime so a component can block on one event covering all
    /// of its provided objects.
    pub fn add_extra_notify(&self, event: EventId) {
        self.state.lock().extra_notify.push(event);
    }
}

#[cfg(test)]
mod tests {
    use crate::transport::Transport;
    use mpsoc_sim::Machine;
    use os21::Rtos;
    use sim_kernel::Kernel;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn setup() -> (Kernel, Rtos, Transport) {
        let machine = Machine::sti7200();
        let kernel = Kernel::new();
        let rtos = Rtos::new(machine.clone());
        let tp = Transport::open(machine);
        (kernel, rtos, tp)
    }

    #[test]
    fn send_receive_round_trips_payload() {
        let (mut kernel, rtos, tp) = setup();
        let obj = tp.create_object(&kernel, "o", 1).unwrap();
        let machine = tp.machine().clone();
        let sdram = machine.memory_map().sdram();
        let lmi1 = machine.memory_map().local_of(1).unwrap();

        let tx = obj.clone();
        rtos.spawn_task(&mut kernel, 0, "sender", 0, move |t| {
            let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
            tx.send(&t, sdram, &payload);
        });
        let rx = obj.clone();
        let got = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        rtos.spawn_task(&mut kernel, 1, "receiver", 0, move |t| {
            let (data, _) = rx.receive(&t, lmi1);
            *g.lock() = data;
        });
        kernel.run().unwrap();
        let expected: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(*got.lock(), expected);
    }

    #[test]
    fn send_is_async_receive_is_sync() {
        let (mut kernel, rtos, tp) = setup();
        let obj = tp.create_object(&kernel, "o", 1).unwrap();
        let machine = tp.machine().clone();
        let sdram = machine.memory_map().sdram();
        let lmi1 = machine.memory_map().local_of(1).unwrap();

        let sender_done = Arc::new(AtomicU64::new(u64::MAX));
        let receiver_got = Arc::new(AtomicU64::new(u64::MAX));
        let tx = obj.clone();
        let sd = Arc::clone(&sender_done);
        rtos.spawn_task(&mut kernel, 0, "sender", 0, move |t| {
            tx.send(&t, sdram, b"x");
            sd.store(t.now_ns(), Ordering::SeqCst);
        });
        let rx = obj.clone();
        let rg = Arc::clone(&receiver_got);
        rtos.spawn_task(&mut kernel, 1, "receiver", 0, move |t| {
            // Receiver sleeps first: a synchronous receive would block a
            // sender only if send were synchronous — it must not.
            t.delay(1_000_000_000);
            let _ = rx.receive(&t, lmi1);
            rg.store(t.now_ns(), Ordering::SeqCst);
        });
        kernel.run().unwrap();
        assert!(
            sender_done.load(Ordering::SeqCst) < 1_000_000_000,
            "async send must complete before the receiver ever reads"
        );
        assert!(receiver_got.load(Ordering::SeqCst) >= 1_000_000_000);
    }

    #[test]
    fn send_cost_linear_below_knee_and_steeper_above() {
        let (mut kernel, rtos, tp) = setup();
        let obj = tp.create_object(&kernel, "o", 1).unwrap();
        let machine = tp.machine().clone();
        let sdram = machine.memory_map().sdram();
        let times = Arc::new(parking_lot::Mutex::new(Vec::new()));

        let tx = obj.clone();
        let ts = Arc::clone(&times);
        rtos.spawn_task(&mut kernel, 0, "sender", 0, move |t| {
            for kb in [10u64, 20, 30, 40, 100, 125] {
                let payload = vec![0u8; (kb * 1024) as usize];
                let ns = tx.send(&t, sdram, &payload);
                ts.lock().push((kb, ns));
            }
        });
        // Drain so the kernel terminates cleanly.
        let rx = obj.clone();
        let lmi1 = machine.memory_map().local_of(1).unwrap();
        rtos.spawn_task(&mut kernel, 1, "drain", 0, move |t| {
            for _ in 0..6 {
                let _ = rx.receive(&t, lmi1);
            }
        });
        kernel.run().unwrap();
        let times = times.lock().clone();
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
        let (mut kernel, rtos, tp) = setup();
        let to_st40 = tp.create_object(&kernel, "to_host", 0).unwrap();
        let to_st231 = tp.create_object(&kernel, "to_acc", 1).unwrap();
        let machine = tp.machine().clone();
        let sdram = machine.memory_map().sdram();
        let lmi2 = machine.memory_map().local_of(2).unwrap();

        let st40_times = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let st231_times = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sizes = [25u64, 50, 100, 200];

        let tx = to_st231.clone();
        let tt = Arc::clone(&st40_times);
        rtos.spawn_task(&mut kernel, 0, "st40_sender", 0, move |t| {
            for kb in sizes {
                let p = vec![1u8; (kb * 1024) as usize];
                tt.lock().push(tx.send(&t, sdram, &p));
            }
        });
        let tx2 = to_st40.clone();
        let tt2 = Arc::clone(&st231_times);
        rtos.spawn_task(&mut kernel, 2, "st231_sender", 0, move |t| {
            for kb in sizes {
                let p = vec![2u8; (kb * 1024) as usize];
                tt2.lock().push(tx2.send(&t, lmi2, &p));
            }
        });
        let rx = to_st231.clone();
        let lmi1 = machine.memory_map().local_of(1).unwrap();
        rtos.spawn_task(&mut kernel, 1, "drain_acc", 0, move |t| {
            for _ in 0..sizes.len() {
                let _ = rx.receive(&t, lmi1);
            }
        });
        let rx2 = to_st40.clone();
        rtos.spawn_task(&mut kernel, 0, "drain_host", 0, move |t| {
            for _ in 0..sizes.len() {
                let _ = rx2.receive(&t, sdram);
            }
        });
        kernel.run().unwrap();
        let a = st40_times.lock().clone();
        let b = st231_times.lock().clone();
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
}
