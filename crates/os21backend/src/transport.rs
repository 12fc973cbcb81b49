//! The MPSoC [`Transport`]: EMBX distributed objects carrying the
//! runtime's messages, virtual-time costs, and event-driven parking on
//! the simulated kernel. All observation and `Ctx` logic lives in
//! [`embera::runtime::ComponentRuntime`]; this module only moves
//! messages, charges costs, and waits.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sim_kernel::EventId;

use embera::runtime::{IfaceId, Transport, Wiring};
use embera::{ComponentStats, Message, Work, WorkClass};
use mpsoc_sim::{ComputeClass, RegionId};
use os21::TaskCtx;

use crate::object::DistributedObject;

/// Shared application-level state on the MPSoC backend.
pub(crate) struct AppShared {
    pub(crate) shutdown: AtomicBool,
    /// The doorbell event of every component, in deployment order,
    /// notified at shutdown so blocked service loops wake and exit.
    pub(crate) doorbells: Vec<EventId>,
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
    inboxes: Vec<Option<DistributedObject>>,
    /// The connected peer's endpoint of each required interface.
    routes: Vec<Option<DistributedObject>>,
    stats: Arc<ComponentStats>,
    /// Region the component's payloads live in on its CPU (LMI for
    /// ST231, SDRAM for the ST40).
    local_region: RegionId,
    /// The event of the component's doorbell line: raised by every send
    /// to one of its objects, notified at shutdown.
    doorbell: EventId,
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
        wiring: Wiring<DistributedObject>,
        local_region: RegionId,
        doorbell: EventId,
        app: Arc<AppShared>,
    ) -> Self {
        Os21Transport {
            task,
            inboxes: wiring.provided,
            routes: wiring.routes,
            stats: wiring.stats,
            local_region,
            doorbell,
            app,
            mem_cursor: 0,
        }
    }

    /// OS21's `task_time()`, stored where the task is charged: an
    /// observation reply and the final report read it current.
    fn publish_cpu_time(&self) {
        self.stats.set_cpu_time_ns(self.task.task_time());
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
        self.app.doorbells.iter().for_each(|&e| sim.notify(e));
    }

    fn push(&mut self, required: IfaceId, msg: Message) -> u64 {
        let route = self.routes[required.index()]
            .as_ref()
            .expect("the runtime pushes only where its table has a route");
        let ns = route.send(&self.task, self.local_region, msg);
        self.publish_cpu_time();
        ns
    }

    fn try_pop(&mut self, provided: IfaceId) -> Option<(Message, u64)> {
        let inbox = self.inboxes[provided.index()].as_ref()?;
        // Introspection requests are drained by the runtime itself — the
        // paper's observation service, not an application receive — so
        // they are not charged against the component.
        if provided == IfaceId::INTROSPECTION {
            return inbox.try_take().map(|msg| (msg, 0));
        }
        let received = inbox.try_receive(&self.task, self.local_region)?;
        self.publish_cpu_time();
        Some(received)
    }

    fn queued_bytes(&self) -> u64 {
        let inboxes = self.inboxes.iter().flatten();
        inboxes.map(DistributedObject::queued_bytes).sum()
    }

    fn park_recv(&mut self, _provided: &[IfaceId], deadline_ns: Option<u64>) {
        match deadline_ns {
            Some(d) => {
                let now = self.task.now_ns();
                if d > now {
                    self.task.sim().wait_timeout(self.doorbell, d - now);
                }
            }
            None => {
                // Event-driven block: woken by any message to this
                // component or by application shutdown. A genuinely
                // stuck receive leaves the kernel with no events,
                // surfacing as a named deadlock.
                self.task.sim().wait(self.doorbell);
            }
        }
    }

    fn park_quiescent(&mut self) {
        // Blocking is purely event-driven (no periodic timeouts): a
        // polling loop would generate virtual-time events forever and
        // mask real deadlocks from the kernel's detector.
        self.task.sim().wait(self.doorbell);
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
        self.publish_cpu_time();
    }

    fn inbox_depth(&self, provided: IfaceId) -> u64 {
        let inbox = self.inboxes[provided.index()].as_ref();
        inbox.map_or(0, |inbox| inbox.queued() as u64)
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;
    use embera::behavior::behavior_fn;
    use embera::{AppBuilder, ComponentSpec, EmberaError, Platform, RunningApp};
    use mpsoc_sim::MachineConfig;

    use crate::cost::KNEE_BYTES;
    use crate::Os21Platform;

    /// `Src` on the ST40 sends one message to each of `Dst`'s two
    /// provided interfaces on an ST231.
    fn two_inbox_app() -> AppBuilder {
        let mut app = AppBuilder::new("objects");
        app.add(
            ComponentSpec::new(
                "Src",
                behavior_fn(|ctx| {
                    ctx.send("a", Bytes::from_static(b"to a"))?;
                    ctx.send("b", Bytes::from_static(b"to b"))
                }),
            )
            .with_required("a")
            .with_required("b")
            .on_cpu(0),
        );
        app.add(
            ComponentSpec::new(
                "Dst",
                behavior_fn(|ctx| {
                    assert_eq!(ctx.recv("a")?.as_ref(), b"to a");
                    assert_eq!(ctx.recv("b")?.as_ref(), b"to b");
                    Ok(())
                }),
            )
            .with_provided("a")
            .with_provided("b")
            .on_cpu(1),
        );
        app.connect(("Src", "a"), ("Dst", "a"));
        app.connect(("Src", "b"), ("Dst", "b"));
        app
    }

    #[test]
    fn create_object_allocates_sdram_and_registers() {
        // One SDRAM block per provided interface, introspection
        // included; a send rings a registered doorbell (an unregistered
        // line panics).
        let running = Os21Platform::three_cpu()
            .deploy(two_inbox_app().build().unwrap())
            .unwrap();
        let objects = 1 + 3; // `Src`'s introspection; `Dst`'s a, b, introspection
        assert_eq!(running.machine().sdram_alloc().used(), objects * KNEE_BYTES);
        let report = running.wait().unwrap();
        assert_eq!(report.component("Dst").unwrap().app.total_receives, 2);
    }

    #[test]
    fn sdram_exhaustion_propagates_as_error() {
        let mut cfg = MachineConfig::sti7200_three_cpu();
        cfg.sdram_size = 1024; // far below one object's slots
        match Os21Platform::with_config(cfg).deploy(two_inbox_app().build().unwrap()) {
            Err(EmberaError::Platform(msg)) => assert!(msg.contains("SDRAM exhausted"), "{msg}"),
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("expected SDRAM exhaustion"),
        }
    }
}
