//! The MPSoC [`Transport`]: EMBX distributed objects carrying the
//! runtime's messages, virtual-time costs, and event-driven parking on
//! the simulated kernel. All observation and `Ctx` logic lives in
//! [`embera::runtime::ComponentRuntime`]; this module only moves
//! messages, charges costs, and waits.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sim_kernel::{EventId, LockStep};

use embera::runtime::{IfaceId, Transport, Wiring};
use embera::{ComponentStats, Message, ObsReply, Work, WorkClass};
use embx::{DistributedObject, Envelope};
use mpsoc_sim::{ComputeClass, RegionId};
use os21::TaskCtx;

/// A provided-interface endpoint: the EMBX distributed object that
/// carries the interface's messages.
pub(crate) type Endpoint = DistributedObject<Wire>;

/// A runtime [`Message`] as a distributed object carries it. The object
/// queues the message itself; its wire image — what a transfer is
/// charged on and what the object writes into its SDRAM slot window —
/// is the payload, followed by the deadline's 8 little-endian bytes on a
/// deadlined message, and [`Message::wire_size`] zero bytes for
/// observation traffic.
pub(crate) struct Wire(pub(crate) Message);

impl Envelope for Wire {
    fn wire_len(&self) -> usize {
        self.0.wire_size()
    }

    fn payload_len(&self) -> usize {
        self.0.data_len()
    }

    fn write_head(&self, head: &mut [u8]) {
        match &self.0 {
            Message::Data(payload) => head.copy_from_slice(&payload[..head.len()]),
            Message::Deadlined {
                payload,
                deadline_ns,
            } => {
                let (body, deadline) = head.split_at_mut(head.len().min(payload.len()));
                body.copy_from_slice(&payload[..body.len()]);
                deadline.copy_from_slice(&deadline_ns.to_le_bytes()[..deadline.len()]);
            }
            _ => head.fill(0),
        }
    }
}

/// Shared application-level state on the MPSoC backend.
pub(crate) struct AppShared {
    pub(crate) shutdown: AtomicBool,
    /// Activity events of every component, notified at shutdown so
    /// blocked service loops wake and exit.
    pub(crate) activity_events: LockStep<Vec<EventId>>,
}

/// One component's [`Transport`] on the simulated STi7200.
///
/// Every interface is an [`IfaceId`], the index of its slot in the
/// `Vec`s taken over from the component's [`Wiring`], so a send, a
/// receive and the poll of the introspection inbox at every
/// communication point each index a slot and resolve no name.
pub(crate) struct Os21Transport {
    task: TaskCtx,
    /// The provided interfaces, [`IfaceId::INTROSPECTION`] first.
    inboxes: Vec<Option<Endpoint>>,
    /// The connected peer's endpoint of each required interface.
    routes: Vec<Option<Endpoint>>,
    stats: Arc<ComponentStats>,
    /// Region the component's payloads live in on its CPU (LMI for
    /// ST231, SDRAM for the ST40).
    local_region: RegionId,
    /// Event notified whenever any of this component's objects receives
    /// a message (and at shutdown).
    activity: EventId,
    app: Arc<AppShared>,
    /// Rolling cursor through the component's working set; compute
    /// memory traffic streams through it so the L1 model sees realistic
    /// (partially reused, partially fresh) addresses.
    mem_cursor: u64,
}

impl Os21Transport {
    /// The transport of the component wired by `wiring`, running as
    /// `task`.
    pub(crate) fn new(
        task: TaskCtx,
        wiring: Wiring<Endpoint>,
        local_region: RegionId,
        activity: EventId,
        app: Arc<AppShared>,
    ) -> Self {
        Os21Transport {
            task,
            inboxes: wiring.provided,
            routes: wiring.routes,
            stats: wiring.stats,
            local_region,
            activity,
            app,
            mem_cursor: 0,
        }
    }
}

impl Transport for Os21Transport {
    fn now_ns(&self) -> u64 {
        self.task.now_ns()
    }

    fn is_shutdown(&self) -> bool {
        self.app.shutdown.load(Ordering::Acquire)
    }

    fn request_shutdown(&mut self) {
        self.app.shutdown.store(true, Ordering::Release);
        let sim = self.task.sim();
        self.app
            .activity_events
            .with(|events| events.iter().for_each(|&e| sim.notify(e)));
    }

    fn push(&mut self, required: IfaceId, msg: Message) -> u64 {
        let route = self.routes[required.index()]
            .as_ref()
            .expect("the runtime pushes only where its table has a route");
        route.send(&self.task, self.local_region, Wire(msg))
    }

    fn try_pop(&mut self, provided: IfaceId) -> Option<(Message, u64)> {
        let inbox = self.inboxes[provided.index()].as_ref()?;
        // Introspection requests are drained by the runtime itself — the
        // paper's observation service, not an application receive — so
        // they are not charged against the component.
        if provided == IfaceId::INTROSPECTION {
            return inbox.try_take().map(|Wire(msg)| (msg, 0));
        }
        let (Wire(msg), ns) = inbox.try_receive(&self.task, self.local_region)?;
        Some((msg, ns))
    }

    fn queued_bytes(&self) -> u64 {
        let inboxes = self.inboxes.iter().flatten();
        inboxes.map(Endpoint::queued_bytes).sum()
    }

    fn park_recv(&mut self, _provided: &[IfaceId], deadline_ns: Option<u64>) {
        match deadline_ns {
            Some(d) => {
                let now = self.task.now_ns();
                if d > now {
                    self.task.sim().wait_timeout(self.activity, d - now);
                }
            }
            None => {
                // Event-driven block: woken by any message to this
                // component or by application shutdown. A genuinely
                // stuck receive leaves the kernel with no events,
                // surfacing as a named deadlock.
                self.task.sim().wait(self.activity);
            }
        }
    }

    fn park_quiescent(&mut self) {
        // Blocking is purely event-driven (no periodic timeouts): a
        // polling loop would generate virtual-time events forever and
        // mask real deadlocks from the kernel's detector.
        self.task.sim().wait(self.activity);
    }

    fn compute(&mut self, work: Work) {
        let class = match work.class {
            WorkClass::Control => ComputeClass::Control,
            WorkClass::Dsp => ComputeClass::Dsp,
            WorkClass::MemCopy => ComputeClass::MemCopy,
        };
        if work.ops > 0 {
            self.task.compute(class, work.ops);
        }
        if work.mem_bytes > 0 {
            // Walk the component's working set so the cache model sees a
            // mix of reuse and fresh lines instead of one hot address.
            let cursor = self.mem_cursor;
            self.mem_cursor = cursor.wrapping_add(work.mem_bytes * 7 + 64);
            let machine = self.task.rtos().machine();
            let region = machine.memory_map().region(self.local_region);
            let window = region.size.saturating_sub(work.mem_bytes).max(1);
            let addr = region.base + (cursor % window);
            self.task.mem_access(addr, work.mem_bytes);
        }
    }

    fn behavior_finished(&mut self) {
        self.stats.set_cpu_time_ns(self.task.task_time());
    }

    fn inbox_depth(&self, provided: IfaceId) -> u64 {
        let inbox = self.inboxes[provided.index()].as_ref();
        inbox.map_or(0, |inbox| inbox.queued() as u64)
    }

    fn delay(&mut self, ns: u64) {
        // Best-effort backoff in virtual time. The activity event may
        // cut the wait short; the restart still happens after it.
        if ns > 0 {
            self.task.sim().wait_timeout(self.activity, ns);
        }
    }

    fn drain_inboxes(&mut self) {
        // Slot 0 is `introspection`, whose traffic a restart keeps.
        for inbox in self.inboxes.iter().skip(1).flatten() {
            while inbox.try_take().is_some() {}
        }
    }

    fn refine_reply(&mut self, reply: &mut ObsReply) {
        // Keep RTOS CPU-time fresh in OS-level replies.
        self.stats.set_cpu_time_ns(self.task.task_time());
        if let ObsReply::Full(r) = reply {
            r.os.cpu_time_ns = self.task.task_time();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use embera::ObsRequest;

    /// A message's wire image, materialised.
    fn image(msg: &Message) -> Vec<u8> {
        match msg {
            Message::Data(payload) => payload.to_vec(),
            Message::Deadlined {
                payload,
                deadline_ns,
            } => [payload.as_ref(), &deadline_ns.to_le_bytes()].concat(),
            other => vec![0; other.wire_size()],
        }
    }

    #[test]
    fn every_head_of_a_wire_is_the_head_of_its_image() {
        let messages = [
            Message::Data(Bytes::from_static(b"payload")),
            Message::Deadlined {
                payload: Bytes::from_static(b"abc"),
                deadline_ns: 0x0102_0304_0506_0708,
            },
            Message::ObsRequest {
                from: "observer".into(),
                request: ObsRequest::Health,
            },
        ];
        for msg in messages {
            let image = image(&msg);
            let wire = Wire(msg);
            assert_eq!(wire.wire_len(), image.len());
            for window in 0..=image.len() {
                let mut head = vec![0xEE; window];
                wire.write_head(&mut head);
                assert_eq!(head, image[..window], "window {window}");
            }
        }
    }
}
