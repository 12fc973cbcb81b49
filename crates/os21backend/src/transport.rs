//! The MPSoC [`Transport`]: EMBX distributed objects with typed
//! sidecars, virtual-time costs, and event-driven parking on the
//! simulated kernel. All observation and `Ctx` logic lives in
//! [`embera::runtime::ComponentRuntime`]; this module only moves
//! messages, charges costs, and waits.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sim_kernel::EventId;

use embera::runtime::{Fifo, Transport, Wiring};
use embera::{Message, ObsReply, Work, WorkClass, INTROSPECTION};
use embx::DistributedObject;
use mpsoc_sim::{ComputeClass, RegionId};
use os21::TaskCtx;

/// A provided-interface endpoint: the EMBX distributed object carrying
/// the bytes plus a typed sidecar [`Fifo`] carrying the [`Message`]
/// envelope. Both are pushed under the simulator's one-process-at-a-time
/// guarantee, so they stay aligned — any misalignment is a runtime bug
/// and panics rather than silently dropping a wire message.
#[derive(Clone)]
pub(crate) struct Endpoint {
    pub(crate) object: DistributedObject,
    pub(crate) side: Fifo,
}

impl Endpoint {
    pub(crate) fn new(object: DistributedObject) -> Self {
        Endpoint {
            object,
            side: Fifo::new(0),
        }
    }
}

/// Shared application-level state on the MPSoC backend.
pub(crate) struct AppShared {
    pub(crate) shutdown: AtomicBool,
    /// Activity events of every component, notified at shutdown so
    /// blocked service loops wake and exit.
    pub(crate) activity_events: Mutex<Vec<EventId>>,
}

pub(crate) struct Os21Transport {
    pub(crate) task: TaskCtx,
    pub(crate) wiring: Wiring<Endpoint>,
    /// Region the component's payloads live in on its CPU (LMI for
    /// ST231, SDRAM for the ST40).
    pub(crate) local_region: RegionId,
    /// Event notified whenever any of this component's objects receives
    /// a message (and at shutdown).
    pub(crate) activity: EventId,
    pub(crate) app: Arc<AppShared>,
    /// Rolling cursor through the component's working set; compute
    /// memory traffic streams through it so the L1 model sees realistic
    /// (partially reused, partially fresh) addresses.
    pub(crate) mem_cursor: u64,
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
        for e in self.app.activity_events.lock().iter() {
            self.task.sim().notify(*e);
        }
    }

    fn has_route(&self, required: &str) -> bool {
        self.wiring.routes.contains_key(required)
    }

    fn has_inbox(&self, provided: &str) -> bool {
        self.wiring.provided.contains_key(provided)
    }

    fn push(&mut self, required: &str, msg: Message) -> u64 {
        // Bytes go through the distributed object (charging EMBX costs),
        // the typed envelope through the sidecar.
        let wire: Vec<u8> = match &msg {
            Message::Data(b) => b.to_vec(),
            Message::Deadlined {
                payload,
                deadline_ns,
            } => {
                let mut w = Vec::with_capacity(payload.len() + 8);
                w.extend_from_slice(payload.as_ref());
                w.extend_from_slice(&deadline_ns.to_le_bytes());
                w
            }
            other => vec![0u8; other.wire_size()],
        };
        let ep = &self.wiring.routes[required];
        ep.side.push(msg);
        ep.object.send(&self.task, self.local_region, &wire)
    }

    fn try_pop(&mut self, provided: &str) -> Option<(Message, u64)> {
        let ep = self.wiring.provided.get(provided)?;
        let wire = ep.object.try_receive_uncosted()?;
        let msg = ep
            .side
            .try_pop()
            .expect("sidecar out of sync with distributed object");
        // Charge the EMBX receive cost for the wire bytes. Introspection
        // requests are drained by the runtime itself — the paper's
        // observation service, not an application receive — so they are
        // not charged against the component.
        let ns = if provided == INTROSPECTION {
            0
        } else {
            ep.object
                .charge_receive_cost(&self.task, self.local_region, wire.len() as u64)
        };
        Some((msg, ns))
    }

    fn queued_bytes(&self) -> u64 {
        self.wiring
            .provided
            .values()
            .map(|ep| ep.side.queued_bytes())
            .sum()
    }

    fn park_recv(&mut self, _provided: &[&str], deadline_ns: Option<u64>) {
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

    fn park_quiescent(&mut self) -> bool {
        // Blocking is purely event-driven (no periodic timeouts): a
        // polling loop would generate virtual-time events forever and
        // mask real deadlocks from the kernel's detector.
        self.task.sim().wait(self.activity);
        true
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
            let machine = self.task.rtos().machine().clone();
            let region = machine.memory_map().region(self.local_region);
            let window = region.size.saturating_sub(work.mem_bytes).max(1);
            let cursor = self.mem_cursor;
            self.mem_cursor = cursor.wrapping_add(work.mem_bytes * 7 + 64);
            let addr = region.base + (cursor % window);
            self.task.mem_access(addr, work.mem_bytes);
        }
    }

    fn behavior_finished(&mut self) {
        self.wiring.stats.set_cpu_time_ns(self.task.task_time());
    }

    fn inbox_depth(&self, provided: &str) -> u64 {
        self.wiring
            .provided
            .get(provided)
            .map(|ep| ep.side.len() as u64)
            .unwrap_or(0)
    }

    fn delay(&mut self, ns: u64) {
        // Best-effort backoff in virtual time. The activity event may
        // cut the wait short; the restart still happens after it.
        if ns > 0 {
            self.task.sim().wait_timeout(self.activity, ns);
        }
    }

    fn drain_inboxes(&mut self) {
        for (iface, ep) in &self.wiring.provided {
            if iface == INTROSPECTION {
                continue;
            }
            // Keep the wire object and the typed sidecar aligned: pop
            // both in lock-step until the endpoint is empty.
            while ep.object.try_receive_uncosted().is_some() {
                ep.side
                    .try_pop()
                    .expect("sidecar out of sync with distributed object");
            }
        }
    }

    fn refine_reply(&mut self, reply: &mut ObsReply) {
        // Keep RTOS CPU-time fresh in OS-level replies.
        self.wiring.stats.set_cpu_time_ns(self.task.task_time());
        if let ObsReply::Full(r) = reply {
            r.os.cpu_time_ns = self.task.task_time();
        }
    }
}
