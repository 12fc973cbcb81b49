//! Deployment of EMBera applications onto host threads.

use std::sync::Arc;
use std::thread::JoinHandle;

use embera::runtime::{
    self, host_memory_bytes, Backend, Deployed, Fifo, Flow, HostTransport, Wiring,
};
use embera::{AppReport, AppSpec, ComponentSpec, EmberaError, Platform, RunningApp};

use crate::parker::{SmpParker, SmpShared};

/// The SMP platform (paper §4).
#[derive(Debug, Clone, Default)]
pub struct SmpPlatform;

impl SmpPlatform {
    /// The platform.
    pub fn new() -> Self {
        SmpPlatform
    }
}

/// A deployed SMP application.
pub struct SmpRunning {
    deployed: Deployed,
    shared: Arc<SmpShared>,
    handles: Vec<JoinHandle<()>>,
}

/// One thread per component, parked and woken through [`SmpShared`].
struct ThreadBackend {
    shared: Arc<SmpShared>,
    handles: Vec<JoinHandle<()>>,
}

impl Backend for ThreadBackend {
    type Endpoint = Fifo;

    fn make_endpoint(
        &mut self,
        component: usize,
        _spec: &ComponentSpec,
        _iface: &str,
    ) -> Result<Fifo, EmberaError> {
        Ok(Fifo::new(component))
    }

    fn memory_bytes(&self, spec: &ComponentSpec, has_observer: bool) -> u64 {
        host_memory_bytes(spec, has_observer)
    }

    fn spawn(&mut self, wiring: Wiring<Fifo>, flow: Flow) -> Result<(), EmberaError> {
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(format!("embera:{}", flow.name()))
            .stack_size(flow.stack_bytes as usize)
            .spawn(move || {
                let parker = SmpParker::register(shared, wiring.index);
                flow.run(HostTransport::new(wiring, parker))
            })
            .map_err(|e| EmberaError::Platform(format!("thread spawn failed: {e}")))?;
        self.handles.push(handle);
        Ok(())
    }
}

impl Platform for SmpPlatform {
    type Running = SmpRunning;

    fn deploy(&mut self, spec: AppSpec) -> Result<SmpRunning, EmberaError> {
        let mut backend = ThreadBackend {
            shared: SmpShared::new(spec.components.len()),
            handles: Vec::with_capacity(spec.components.len()),
        };
        let deployed = runtime::deploy(&mut backend, spec)?;
        Ok(SmpRunning {
            deployed,
            shared: backend.shared,
            handles: backend.handles,
        })
    }
}

impl RunningApp for SmpRunning {
    fn wait(self) -> Result<AppReport, EmberaError> {
        let wall_time_ns = self
            .deployed
            .completion()
            .wait_app_done()
            .unwrap_or_else(|| self.shared.now_ns());
        self.shared.request_shutdown();
        for h in self.handles {
            h.join()
                .map_err(|_| EmberaError::Platform("component thread panicked".into()))?;
        }
        self.deployed.report(wall_time_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use embera::behavior::behavior_fn;
    use embera::{AppBuilder, ObserverConfig};

    #[test]
    fn pipeline_delivers_all_messages_in_order() {
        let mut app = AppBuilder::new("pipe");
        app.add(
            ComponentSpec::new(
                "src",
                behavior_fn(|ctx| {
                    for i in 0..100u32 {
                        ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                    }
                    Ok(())
                }),
            )
            .with_required("out")
            .with_stack_bytes(1 << 20),
        );
        app.add(
            ComponentSpec::new(
                "dst",
                behavior_fn(|ctx| {
                    for i in 0..100u32 {
                        let b = ctx.recv("in")?;
                        assert_eq!(b.as_ref(), i.to_le_bytes());
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_stack_bytes(1 << 20),
        );
        app.connect(("src", "out"), ("dst", "in"));
        let running = SmpPlatform::new().deploy(app.build().unwrap()).unwrap();
        let report = running.wait().unwrap();
        assert_eq!(report.component("src").unwrap().app.total_sends, 100);
        assert_eq!(report.component("dst").unwrap().app.total_receives, 100);
    }

    #[test]
    fn memory_formula_counts_provided_interfaces() {
        let mut app = AppBuilder::new("mem");
        app.add(
            ComponentSpec::new("only", behavior_fn(|_| Ok(())))
                .with_provided("a")
                .with_provided("b")
                .with_stack_bytes(1_000_000),
        );
        let spec = app.build().unwrap();
        let report = SmpPlatform::new().deploy(spec).unwrap().wait().unwrap();
        // No observer: 2 data mailboxes only.
        assert_eq!(
            report.component("only").unwrap().os.memory_bytes,
            1_000_000 + 2 * 1_229_000
        );
    }

    #[test]
    fn send_on_disconnected_interface_errors() {
        let mut app = AppBuilder::new("bad");
        app.add(
            ComponentSpec::new("lonely", behavior_fn(|ctx| ctx.send("ghost", Bytes::new())))
                .with_stack_bytes(1 << 20),
        );
        let spec = app.build().unwrap();
        let err = SmpPlatform::new().deploy(spec).unwrap().wait().unwrap_err();
        let EmberaError::Platform(msg) = err else {
            panic!()
        };
        assert!(msg.contains("lonely"), "{msg}");
    }

    #[test]
    fn observer_collects_reports_from_all_components() {
        let mut app = AppBuilder::new("observed");
        app.add(
            ComponentSpec::new(
                "worker",
                behavior_fn(|ctx| {
                    // Keep working long enough for at least one round.
                    let t0 = ctx.now_ns();
                    while ctx.now_ns() - t0 < 50_000_000 {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        ctx.send("sink_in", Bytes::from_static(b"tick"))?;
                    }
                    Ok(())
                }),
            )
            .with_required("sink_in")
            .with_stack_bytes(1 << 20),
        );
        app.add(
            ComponentSpec::new(
                "sink",
                behavior_fn(|ctx| {
                    while ctx.recv_timeout("in", 20_000_000)?.is_some() {}
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_stack_bytes(1 << 20),
        );
        app.connect(("worker", "sink_in"), ("sink", "in"));
        let log = app.with_observer(ObserverConfig::default().interval_ns(5_000_000));
        let spec = app.build().unwrap();
        let report = SmpPlatform::new().deploy(spec).unwrap().wait().unwrap();
        assert!(
            !log.is_empty(),
            "observer must have collected at least one report"
        );
        let latest = log.latest_by_component();
        assert!(latest.iter().any(|r| r.component == "worker"));
        // Final report still present and coherent.
        assert!(report.component("worker").unwrap().app.total_sends > 0);
    }
}
