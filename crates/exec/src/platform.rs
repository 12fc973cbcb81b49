//! Deployment of EMBera applications onto the M:N executor.

use std::sync::Arc;
use std::thread::JoinHandle;

use embera::runtime::{
    self, host_memory_bytes, Backend, Deployed, Fifo, Flow, HostTransport, Wiring,
};
use embera::sync::{Instant, Mutex};
use embera::{AppReport, AppSpec, ComponentSpec, EmberaError, Platform, RunningApp};
use embera_fiber::Fiber;

use crate::executor::{worker_loop, ExecShared};
use crate::parker::ExecParker;

/// The worker-pool size a request for `workers` resolves to: `0` means
/// the host's available parallelism.
pub fn resolve_workers(workers: usize) -> usize {
    if workers > 0 {
        return workers;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The M:N executor platform: components become fibers on a fixed
/// work-stealing worker pool, so component count scales past OS thread
/// limits (10 000+ components deploy and run: `tests/ten_thousand.rs`).
#[derive(Debug, Clone, Default)]
pub struct ExecPlatform {
    /// Requested pool size; see [`resolve_workers`].
    workers: usize,
}

impl ExecPlatform {
    /// Platform with a pool of one worker per available core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Platform with a fixed worker-pool size.
    pub fn with_workers(workers: usize) -> Self {
        ExecPlatform { workers }
    }
}

/// A deployed executor application.
pub struct ExecRunning {
    deployed: Deployed,
    shared: Arc<ExecShared>,
    workers: Vec<JoinHandle<()>>,
}

/// One fiber per component, all running the unmodified shared runtime.
struct FiberBackend {
    shared: Arc<ExecShared>,
    fibers: Vec<Mutex<Option<Fiber>>>,
}

impl Backend for FiberBackend {
    type Endpoint = Fifo;

    fn make_endpoint(
        &mut self,
        component: usize,
        _spec: &ComponentSpec,
        _iface: &str,
    ) -> Result<Fifo, EmberaError> {
        // Owned by the component's task id, so a push knows whom to wake.
        Ok(Fifo::new(component))
    }

    fn memory_bytes(&self, spec: &ComponentSpec, has_observer: bool) -> u64 {
        // Same paper formula as the thread backend, so reports agree.
        host_memory_bytes(spec, has_observer)
    }

    fn spawn(&mut self, wiring: Wiring<Fifo>, flow: Flow) -> Result<(), EmberaError> {
        let parker = ExecParker {
            shared: Arc::clone(&self.shared),
            task: wiring.index,
            send_streak: 0,
        };
        let transport = HostTransport::new(wiring, parker);
        self.fibers.push(Mutex::new(Some(Fiber::spawn(
            flow.stack_bytes as usize,
            move || flow.run(transport),
        ))));
        Ok(())
    }
}

impl Platform for ExecPlatform {
    type Running = ExecRunning;

    fn deploy(&mut self, spec: AppSpec) -> Result<ExecRunning, EmberaError> {
        let workers = resolve_workers(self.workers);
        // One task id per component, in spec order.
        let names: Vec<String> = spec.components.iter().map(|c| c.name.clone()).collect();
        let mut backend = FiberBackend {
            fibers: Vec::with_capacity(names.len()),
            shared: Arc::new(ExecShared::new(workers, names, Instant::now())),
        };
        let deployed = runtime::deploy(&mut backend, spec)?;
        let FiberBackend { shared, fibers } = backend;
        let fibers = Arc::new(fibers);

        // Seed the run queues, then start the fixed worker pool.
        shared.seed_queues();
        let mut handles = Vec::with_capacity(workers);
        for wid in 0..workers {
            let shared = Arc::clone(&shared);
            let fibers = Arc::clone(&fibers);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("embera-exec:w{wid}"))
                    .spawn(move || worker_loop(shared, fibers, wid))
                    .map_err(|e| EmberaError::Platform(format!("worker spawn failed: {e}")))?,
            );
        }
        Ok(ExecRunning {
            deployed,
            shared,
            workers: handles,
        })
    }
}

impl RunningApp for ExecRunning {
    fn wait(self) -> Result<AppReport, EmberaError> {
        let wall_time_ns = self
            .deployed
            .completion()
            .wait_app_done()
            .unwrap_or_else(|| self.shared.now_ns());
        self.shared.signal_shutdown();
        for h in self.workers {
            h.join()
                .map_err(|_| EmberaError::Platform("executor worker panicked".into()))?;
        }
        self.deployed.report(wall_time_ns)
    }
}
