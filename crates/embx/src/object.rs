//! Distributed objects: shared-memory message slots with `EMBX_Send` /
//! `EMBX_Receive` semantics and modeled transfer costs.

use std::collections::VecDeque;
use std::sync::Arc;

use sim_kernel::{EventId, LockStep};

use mpsoc_sim::{CpuId, IrqLine, Machine, RegionId, SdramBlock};

use crate::cost::{charge_receive, charge_send, EmbxCostConfig};

/// What a [`DistributedObject`] carries: the message of one `EMBX_Send`,
/// queued as it is — the object never serialises it. The object needs
/// three things from it: how long its wire image is, which is what the
/// transfer is charged on; the head of that image, which it writes into
/// its SDRAM slot window; and how many payload bytes it holds, for the
/// object's queue gauge.
pub trait Envelope {
    /// Length of the wire image, bytes.
    fn wire_len(&self) -> usize;

    /// Payload bytes held, as counted by [`DistributedObject::queued_bytes`].
    fn payload_len(&self) -> usize;

    /// Overwrite `head` with the first `head.len()` bytes of the wire
    /// image (never more than [`wire_len`](Envelope::wire_len)).
    fn write_head(&self, head: &mut [u8]);
}

/// Raw bytes: EMBX's own `send` / `receive`. The wire image is the bytes.
impl Envelope for Vec<u8> {
    fn wire_len(&self) -> usize {
        self.len()
    }

    fn payload_len(&self) -> usize {
        self.len()
    }

    fn write_head(&self, head: &mut [u8]) {
        head.copy_from_slice(&self[..head.len()]);
    }
}

pub(crate) struct ObjectShared {
    pub(crate) name: String,
    pub(crate) owner_cpu: CpuId,
    pub(crate) block: SdramBlock,
    pub(crate) line: IrqLine,
    pub(crate) nonempty: EventId,
    pub(crate) machine: Machine,
    pub(crate) cost: EmbxCostConfig,
}

struct ObjectState<E> {
    /// Envelopes sent and not yet received, oldest first: the object's
    /// one queue.
    queue: VecDeque<E>,
    /// Additional events notified on every send (lets a receiver block on
    /// "any of my objects" through one shared event).
    extra_notify: Vec<EventId>,
}

/// A distributed object: the provided-interface endpoint of EMBera's
/// MPSoC implementation (paper §5.1: "The component provided interface
/// is represented by a distributed object").
///
/// `send` is asynchronous (charge, enqueue, doorbell), `receive`
/// synchronous (blocks in virtual time). The object is generic over the
/// [`Envelope`] it carries — raw bytes for EMBX's own API, the runtime's
/// typed message on the EMBera backend — and carries it in **one
/// queue**: the envelope a send moves in is the envelope a receive hands
/// out, with no copy and no second queue beside it. *Timing* comes from
/// the machine cost model, charged on the envelope's wire length. A send
/// becomes receivable once its sending half has been charged and before
/// its doorbell rings, so a receiver that polls while the sender is
/// still paying for the copy finds nothing yet.
///
/// `send` also writes the head of the wire image — its first slot
/// window — into the object's [`SdramBlock`], but no receive takes its
/// bytes from there.
pub struct DistributedObject<E = Vec<u8>> {
    shared: Arc<ObjectShared>,
    state: Arc<LockStep<ObjectState<E>>>,
}

impl<E> Clone for DistributedObject<E> {
    fn clone(&self) -> Self {
        DistributedObject {
            shared: Arc::clone(&self.shared),
            state: Arc::clone(&self.state),
        }
    }
}

impl<E: Envelope> DistributedObject<E> {
    pub(crate) fn new(shared: ObjectShared) -> Self {
        DistributedObject {
            shared: Arc::new(shared),
            state: Arc::new(LockStep::new(ObjectState {
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

    /// `EMBX_Send`: asynchronously write `envelope` into the object from
    /// `task` (running on the sending CPU, whose local `src_region`
    /// holds the payload). Charges the modeled transfer cost, enqueues
    /// the envelope, raises the owner CPU's doorbell, and returns the ns
    /// the send took.
    pub fn send(&self, task: &os21::TaskCtx, src_region: RegionId, envelope: E) -> u64 {
        let bytes = envelope.wire_len();
        let ns = charge_send(
            &self.shared.machine,
            task,
            &self.shared.cost,
            task.cpu(),
            src_region,
            self.shared.block.addr,
            bytes as u64,
        );
        // Write the first slot window into the SDRAM block (nothing on
        // the receive side depends on it), then make the envelope
        // receivable: the sending half is paid for, the doorbell not
        // yet rung.
        let window = bytes.min(self.shared.block.size as usize);
        self.shared
            .block
            .write(0, window, |head| envelope.write_head(head));
        self.state.with(|st| st.queue.push_back(envelope));
        self.shared.machine.interrupts().raise(task.sim(), self.shared.line);
        let sim = task.sim();
        sim.notify(self.shared.nonempty);
        self.state
            .with(|st| st.extra_notify.iter().for_each(|&e| sim.notify(e)));
        ns
    }

    /// `EMBX_Receive`: synchronously read the next envelope, blocking in
    /// virtual time until one is available. Returns it and the ns the
    /// receive took once it was available (waiting time is excluded,
    /// matching how the paper instruments the primitive).
    pub fn receive(&self, task: &os21::TaskCtx, dst_region: RegionId) -> (E, u64) {
        loop {
            if let Some(received) = self.try_receive(task, dst_region) {
                return received;
            }
            task.sim().wait(self.shared.nonempty);
        }
    }

    /// Non-blocking [`receive`](DistributedObject::receive): the next
    /// envelope and the ns its receive took, or `None` with nothing
    /// charged if the object is empty.
    pub fn try_receive(&self, task: &os21::TaskCtx, dst_region: RegionId) -> Option<(E, u64)> {
        let envelope = self.try_take()?;
        let ns = charge_receive(
            &self.shared.machine,
            task,
            &self.shared.cost,
            task.cpu(),
            dst_region,
            self.shared.block.addr,
            envelope.wire_len() as u64,
        );
        Some((envelope, ns))
    }

    /// Take the next envelope without charging a receive: for traffic
    /// that is not an application receive (the observation service's
    /// poll, a restart discarding its backlog).
    pub fn try_take(&self) -> Option<E> {
        self.state.with(|st| st.queue.pop_front())
    }

    /// Envelopes waiting in the object.
    pub fn queued(&self) -> usize {
        self.state.with(|st| st.queue.len())
    }

    /// Payload bytes waiting in the object ([`Envelope::payload_len`]
    /// summed over its queue).
    pub fn queued_bytes(&self) -> u64 {
        self.state
            .with(|st| st.queue.iter().map(|e| e.payload_len() as u64).sum())
    }

    /// Register an additional event to notify on every send. Used by the
    /// EMBera runtime so a component can block on one event covering all
    /// of its provided objects.
    pub fn add_extra_notify(&self, event: EventId) {
        self.state.with(|st| st.extra_notify.push(event));
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
            tx.send(&t, sdram, payload);
        });
        let rx = obj.clone();
        let got = Arc::new(std::sync::Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        rtos.spawn_task(&mut kernel, 1, "receiver", 0, move |t| {
            let (data, _) = rx.receive(&t, lmi1);
            *g.lock().unwrap() = data;
        });
        kernel.run().unwrap();
        let expected: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(*got.lock().unwrap(), expected);
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
            tx.send(&t, sdram, b"x".to_vec());
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
        let times = Arc::new(std::sync::Mutex::new(Vec::new()));

        let tx = obj.clone();
        let ts = Arc::clone(&times);
        rtos.spawn_task(&mut kernel, 0, "sender", 0, move |t| {
            for kb in [10u64, 20, 30, 40, 100, 125] {
                let payload = vec![0u8; (kb * 1024) as usize];
                let ns = tx.send(&t, sdram, payload);
                ts.lock().unwrap().push((kb, ns));
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
        let (mut kernel, rtos, tp) = setup();
        let to_st40 = tp.create_object(&kernel, "to_host", 0).unwrap();
        let to_st231 = tp.create_object(&kernel, "to_acc", 1).unwrap();
        let machine = tp.machine().clone();
        let sdram = machine.memory_map().sdram();
        let lmi2 = machine.memory_map().local_of(2).unwrap();

        let st40_times = Arc::new(std::sync::Mutex::new(Vec::new()));
        let st231_times = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sizes = [25u64, 50, 100, 200];

        let tx = to_st231.clone();
        let tt = Arc::clone(&st40_times);
        rtos.spawn_task(&mut kernel, 0, "st40_sender", 0, move |t| {
            for kb in sizes {
                let p = vec![1u8; (kb * 1024) as usize];
                tt.lock().unwrap().push(tx.send(&t, sdram, p));
            }
        });
        let tx2 = to_st40.clone();
        let tt2 = Arc::clone(&st231_times);
        rtos.spawn_task(&mut kernel, 2, "st231_sender", 0, move |t| {
            for kb in sizes {
                let p = vec![2u8; (kb * 1024) as usize];
                tt2.lock().unwrap().push(tx2.send(&t, lmi2, p));
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
}
