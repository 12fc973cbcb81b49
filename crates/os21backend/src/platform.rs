//! Deployment of EMBera applications onto the simulated STi7200.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use sim_kernel::{Kernel, KernelStats};

use embera::runtime::{self, Backend, Deployed, Flow, Wiring};
use embera::{AppReport, AppSpec, ComponentSpec, EmberaError, Placement, Platform, RunningApp};
use mpsoc_sim::{IrqLine, Machine, MachineConfig};
use os21::Rtos;

use crate::cost::KNEE_BYTES;
use crate::object::DistributedObject;
use crate::transport::{AppShared, Os21Transport};

/// Accounted per-task memory, bytes — the paper's "60 kB for the task
/// data and component structure" (Table 3 discussion).
const TASK_DATA_BYTES: u64 = 60_000;

/// Accounted bytes per distributed object — the paper's "25 kB for one
/// distributed object".
const OBJECT_ACCOUNTED_BYTES: u64 = 25_000;

/// The MPSoC platform (paper §5): deploys onto a simulated STi7200.
///
/// Every deployment runs on a machine of its own, built from the
/// platform's configuration: one machine, one kernel. A run's bus, cache
/// and interrupt state therefore start idle and belong to that run alone
/// ([`Os21Running::machine`] reads them).
pub struct Os21Platform {
    config: MachineConfig,
}

impl Os21Platform {
    /// Platform over the 3-CPU STi7200 the paper's experiments used
    /// (§5.3: "the software toolset … supports only three processors").
    pub fn three_cpu() -> Self {
        Self::with_config(MachineConfig::sti7200_three_cpu())
    }

    /// Platform whose deployments run on machines built from `config`
    /// (which [`Machine::new`] validates at each deployment).
    pub fn with_config(config: MachineConfig) -> Self {
        Os21Platform { config }
    }
}

/// A deployed MPSoC application: owns the simulation kernel; the
/// simulation actually runs inside [`RunningApp::wait`].
pub struct Os21Running {
    deployed: Deployed,
    kernel: Kernel,
    machine: Machine,
}

/// One OS21 task per component, one EMBX distributed object per
/// provided interface.
struct TaskBackend {
    kernel: Kernel,
    rtos: Rtos,
    machine: Machine,
    /// Doorbell line of each component, in deployment order, on the
    /// CPU the component is placed on.
    doorbells: Vec<IrqLine>,
    app: Arc<AppShared>,
}

impl Backend for TaskBackend {
    type Endpoint = DistributedObject;

    fn make_endpoint(
        &mut self,
        component: usize,
        _spec: &ComponentSpec,
        _iface: &str,
    ) -> Result<DistributedObject, EmberaError> {
        // The object's double-buffered slots, in shared SDRAM.
        let block = self.machine.sdram_alloc().alloc(KNEE_BYTES);
        let block = block.map_err(EmberaError::Platform)?;
        Ok(DistributedObject::new(block, self.doorbells[component]))
    }

    fn memory_bytes(&self, spec: &ComponentSpec, _has_observer: bool) -> u64 {
        // Table 3 memory formula: task footprint + one object per *data*
        // provided interface.
        TASK_DATA_BYTES + spec.provided.len() as u64 * OBJECT_ACCOUNTED_BYTES
    }

    fn spawn(&mut self, wiring: Wiring<DistributedObject>, flow: Flow) -> Result<(), EmberaError> {
        let cpu = self.doorbells[wiring.index].cpu;
        let doorbell = self.app.doorbells[wiring.index];
        // Payload home region: the ST231's local memory, or SDRAM on
        // the ST40 (which has no LMI).
        let map = self.machine.memory_map();
        let local_region = map.local_of(cpu).unwrap_or_else(|| map.sdram());
        let app = Arc::clone(&self.app);
        let name = flow.name().to_string();
        self.rtos
            .spawn_task(&mut self.kernel, cpu, name, 0, move |task| {
                flow.run(Os21Transport::new(
                    task,
                    wiring,
                    local_region,
                    doorbell,
                    app,
                ));
            });
        Ok(())
    }
}

impl Platform for Os21Platform {
    type Running = Os21Running;

    fn deploy(&mut self, spec: AppSpec) -> Result<Os21Running, EmberaError> {
        // Resolve placements: explicit CPUs must exist; `Any` lands on
        // the ST40 host (CPU 0), which is where the paper's I/O-ish and
        // auxiliary components live. Component `i` gets doorbell line
        // `i` on its CPU: every send to one of its objects raises it,
        // and its task parks on the line's event.
        let ncpus = self.config.num_cpus();
        let mut doorbells = Vec::with_capacity(spec.components.len());
        for (line, c) in (0..).zip(&spec.components) {
            let cpu = match c.placement {
                Placement::Cpu(cpu) if cpu >= ncpus => {
                    return Err(EmberaError::Validation(format!(
                        "component '{}' placed on CPU {cpu}, machine has {ncpus}",
                        c.name
                    )));
                }
                Placement::Cpu(cpu) => cpu,
                Placement::Any => 0,
            };
            doorbells.push(IrqLine { cpu, line });
        }
        let machine = Machine::new(self.config.clone());
        let kernel = Kernel::new();
        let register = |&line| machine.interrupts().register_line(&kernel, line);
        let app = Arc::new(AppShared {
            shutdown: AtomicBool::new(false),
            doorbells: doorbells.iter().map(register).collect(),
        });
        let mut backend = TaskBackend {
            kernel,
            rtos: Rtos::new(machine.clone()),
            machine,
            doorbells,
            app,
        };
        let deployed = runtime::deploy(&mut backend, spec)?;
        Ok(Os21Running {
            deployed,
            kernel: backend.kernel,
            machine: backend.machine,
        })
    }
}

impl Os21Running {
    /// The machine this deployment runs on: its bus and cache
    /// statistics, read once [`Os21Running::wait_with_stats`] has run
    /// the simulation (clone the handle first).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Like [`RunningApp::wait`], but also returns the simulation
    /// kernel's statistics — the determinism tests compare them between
    /// runs, the benchmark reports them.
    pub fn wait_with_stats(mut self) -> Result<(AppReport, KernelStats), EmberaError> {
        self.kernel
            .run()
            .map_err(|e| EmberaError::Platform(e.to_string()))?;
        let stats = self.kernel.stats();
        let report = self.deployed.report(self.kernel.now())?;
        Ok((report, stats))
    }
}

impl RunningApp for Os21Running {
    fn wait(self) -> Result<AppReport, EmberaError> {
        self.wait_with_stats().map(|(report, _)| report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    use bytes::Bytes;
    use embera::behavior::behavior_fn;
    use embera::{
        AppBuilder, ComponentSpec, Message, ObsReply, ObsRequest, ObserverConfig, Work, WorkClass,
        INTROSPECTION,
    };
    use mjpeg::{build_mpsoc_app, synthesize_stream, MjpegAppConfig};

    fn simple_pipeline(n: u32) -> AppBuilder {
        let mut app = AppBuilder::new("sim-pipe");
        app.add(
            ComponentSpec::new(
                "src",
                behavior_fn(move |ctx| {
                    for i in 0..n {
                        ctx.compute(Work::ops(WorkClass::Control, 1_000));
                        ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                    }
                    Ok(())
                }),
            )
            .with_required("out")
            .on_cpu(0),
        );
        app.add(
            ComponentSpec::new(
                "dst",
                behavior_fn(move |ctx| {
                    for i in 0..n {
                        let b = ctx.recv("in")?;
                        assert_eq!(b.as_ref(), i.to_le_bytes());
                        ctx.compute(Work::ops(WorkClass::Dsp, 10_000));
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .on_cpu(1),
        );
        app.connect(("src", "out"), ("dst", "in"));
        app
    }

    #[test]
    fn pipeline_runs_to_completion_in_virtual_time() {
        let running = Os21Platform::three_cpu()
            .deploy(simple_pipeline(50).build().unwrap())
            .unwrap();
        let report = running.wait().unwrap();
        assert!(report.wall_time_ns > 0, "virtual time must advance");
        assert_eq!(report.component("src").unwrap().app.total_sends, 50);
        assert_eq!(report.component("dst").unwrap().app.total_receives, 50);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            Os21Platform::three_cpu()
                .deploy(simple_pipeline(30).build().unwrap())
                .unwrap()
                .wait()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.wall_time_ns, b.wall_time_ns);
        assert_eq!(
            a.component("dst").unwrap().middleware.recv.total_ns,
            b.component("dst").unwrap().middleware.recv.total_ns
        );
    }

    #[test]
    fn memory_follows_table3_formula() {
        let report = Os21Platform::three_cpu()
            .deploy(simple_pipeline(1).build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        // src: no data provided interfaces -> 60 kB task data.
        assert_eq!(report.component("src").unwrap().os.memory_bytes, 60_000);
        // dst: one provided interface -> 60 + 25 kB.
        assert_eq!(report.component("dst").unwrap().os.memory_bytes, 85_000);
    }

    #[test]
    fn placement_out_of_range_rejected() {
        let mut app = AppBuilder::new("bad");
        app.add(ComponentSpec::new("x", behavior_fn(|_| Ok(()))).on_cpu(7));
        match Os21Platform::three_cpu().deploy(app.build().unwrap()) {
            Err(EmberaError::Validation(_)) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("expected placement validation failure"),
        }
    }

    #[test]
    fn an_unplaced_component_runs_on_the_st40() {
        // `Placement::Any` is CPU 0: the same work costs what it costs
        // on the ST40, not what it costs on an ST231.
        let cpu_time = |placement: Placement| {
            let mut spec = ComponentSpec::new(
                "w",
                behavior_fn(|ctx| {
                    ctx.compute(Work::ops(WorkClass::Dsp, 100_000));
                    Ok(())
                }),
            );
            spec.placement = placement;
            let mut app = AppBuilder::new("placed");
            app.add(spec);
            let report = Os21Platform::three_cpu()
                .deploy(app.build().unwrap())
                .unwrap()
                .wait()
                .unwrap();
            report.component("w").unwrap().os.cpu_time_ns
        };
        let any = cpu_time(Placement::Any);
        assert_eq!(any, cpu_time(Placement::Cpu(0)));
        assert_ne!(any, cpu_time(Placement::Cpu(1)));
    }

    #[test]
    fn cpu_time_reported_for_compute_heavy_component() {
        let report = Os21Platform::three_cpu()
            .deploy(simple_pipeline(20).build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        let dst = report.component("dst").unwrap();
        assert!(dst.os.cpu_time_ns > 0, "DSP work must accrue CPU time");
        assert!(dst.os.exec_time_ns >= dst.os.cpu_time_ns);
    }

    #[test]
    fn an_os_stats_reply_reads_the_cpu_time_charged_before_it() {
        // The target computes, then waits; a hand-written observer asks
        // it for `OsStats` and then for `Full`, in one round. Both
        // replies read exactly the compute's CPU time (one that patched
        // CPU time into `Full` replies only answered 0 here): the EMBX
        // send of the first reply is the runtime's work, not the task's.
        const OPS: u64 = 1_000_000;
        let compute_ns = Machine::new(MachineConfig::sti7200_three_cpu())
            .cost()
            .compute_ns(1, mpsoc_sim::ComputeClass::Dsp, OPS);
        let replies = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&replies);
        let mut app = AppBuilder::new("cpu-time-at-the-stamp");
        app.add(
            ComponentSpec::new(
                "target",
                behavior_fn(|ctx| {
                    ctx.compute(Work::ops(WorkClass::Dsp, OPS));
                    ctx.recv("go").map(drop)
                }),
            )
            .with_provided("go")
            .on_cpu(1),
        );
        app.add(
            ComponentSpec::new(
                "prober",
                behavior_fn(move |ctx| {
                    // Long past the target's compute.
                    assert!(ctx.recv_timeout("replies", 10 * compute_ns)?.is_none());
                    for request in [ObsRequest::OsStats, ObsRequest::Full] {
                        assert!(ctx.observe("ask", request)?.is_none(), "sent as a message");
                    }
                    for _ in 0..2 {
                        match ctx.recv_message("replies")? {
                            Message::ObsReply { reply, .. } => sink.lock().unwrap().push(*reply),
                            other => panic!("expected a reply, got {other:?}"),
                        }
                    }
                    ctx.send("go", Bytes::new())
                }),
            )
            .with_required("ask")
            .with_required("go")
            .with_provided("replies")
            .on_cpu(0),
        );
        app.connect(("prober", "ask"), ("target", INTROSPECTION));
        app.connect(("target", INTROSPECTION), ("prober", "replies"));
        app.connect(("prober", "go"), ("target", "go"));
        let report = Os21Platform::three_cpu()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        let replies = replies.lock().unwrap();
        let [ObsReply::Os(os), ObsReply::Full(full)] = &replies[..] else {
            panic!("expected an OsStats and a Full reply, got {replies:?}");
        };
        assert_eq!(os.cpu_time_ns, compute_ns);
        assert_eq!(full.os.cpu_time_ns, os.cpu_time_ns);
        let target = report.component("target").unwrap();
        assert!(
            target.os.cpu_time_ns > full.os.cpu_time_ns,
            "it received `go`"
        );
    }

    #[test]
    fn observer_works_on_simulated_mpsoc() {
        let mut app = simple_pipeline(2000);
        let log = app.with_observer(ObserverConfig::default().interval_ns(3_000_000).rounds(10));
        let report = Os21Platform::three_cpu()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        assert!(
            !log.is_empty(),
            "observer must collect reports on the MPSoC backend too"
        );
        assert!(report.component("src").is_some());
        let first = &log.records()[0];
        assert!(!first.report.structure.interfaces.is_empty());
    }

    #[test]
    fn every_deployment_starts_on_an_idle_machine() {
        // The 8-frame Table-3 application, deployed three times on one
        // platform: no run may wait out an earlier run's bus or find an
        // earlier run's lines in its caches.
        let mut platform = Os21Platform::three_cpu();
        let runs: Vec<_> = (0..3)
            .map(|_| {
                let stream = synthesize_stream(8, 48, 24, 75, 0x578);
                let cfg = MjpegAppConfig {
                    idct_count: 2,
                    ..MjpegAppConfig::default()
                };
                let (app, _probe) = build_mpsoc_app(stream, &cfg);
                let running = platform.deploy(app.build().unwrap()).unwrap();
                let machine = running.machine().clone();
                let wall = running.wait().unwrap().wall_time_ns;
                let caches: Vec<_> = (0..3).map(|cpu| machine.dcache_stats(cpu)).collect();
                (wall, machine.bus_stats(), caches)
            })
            .collect();
        assert!(runs[0].1.transactions > 0, "the run uses the bus");
        assert_eq!(runs[1], runs[0], "second deployment");
        assert_eq!(runs[2], runs[0], "third deployment");
    }

    #[test]
    fn a_message_is_not_receivable_while_its_send_is_being_charged() {
        // The ST40 sends 50 kB; its send is charged for milliseconds of
        // virtual time. An ST231 receiver polling every microsecond
        // meanwhile must not be handed the message before that send has
        // returned.
        const BYTES: usize = 50 * 1024;
        let returned_at = Arc::new(AtomicU64::new(0));
        let received_at = Arc::new(AtomicU64::new(0));
        let polls = Arc::new(AtomicU64::new(0));
        let mut app = AppBuilder::new("visibility");
        let returned = Arc::clone(&returned_at);
        app.add(
            ComponentSpec::new(
                "Sender",
                behavior_fn(move |ctx| {
                    ctx.send("out", Bytes::from(vec![0x5A; BYTES]))?;
                    returned.store(ctx.now_ns(), Ordering::SeqCst);
                    Ok(())
                }),
            )
            .with_required("out")
            .on_cpu(0),
        );
        let (received, polled) = (Arc::clone(&received_at), Arc::clone(&polls));
        app.add(
            ComponentSpec::new(
                "Receiver",
                behavior_fn(move |ctx| loop {
                    if let Some(payload) = ctx.recv_timeout("in", 1_000)? {
                        assert_eq!(payload.len(), BYTES);
                        received.store(ctx.now_ns(), Ordering::SeqCst);
                        return Ok(());
                    }
                    polled.fetch_add(1, Ordering::SeqCst);
                }),
            )
            .with_provided("in")
            .on_cpu(1),
        );
        app.connect(("Sender", "out"), ("Receiver", "in"));
        Os21Platform::three_cpu()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        let (returned, received) = (
            returned_at.load(Ordering::SeqCst),
            received_at.load(Ordering::SeqCst),
        );
        assert!(
            polls.load(Ordering::SeqCst) > 1_000,
            "the receiver polled while the send was charged"
        );
        assert!(
            received >= returned,
            "received at {received} ns, before the send returned at {returned} ns"
        );
    }
}
