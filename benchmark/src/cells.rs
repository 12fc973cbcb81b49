//! Group-B layer metrics: micro-cells the harness times around public
//! calls into one layer each, pinned to one CPU. They run only in a
//! traced run; end-to-end metrics never come from here.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use embera::behavior::behavior_fn;
use embera::observe::engine::ObsEngine;
use embera::{
    AppBuilder, AppSpec, BufferPool, ComponentSpec, ComponentStats, Message, ObsRequest, Platform,
    RunningApp,
};
use embera_exec::ExecPlatform;
use embera_inproc::InprocPlatform;
use embera_os21::Os21Platform;
use embera_smp::{Mailbox, MailboxKind, SmpPlatform};
use embera_trace::{SpscRing, TraceCollector};
use mjpeg::codec::EntropyDecoder;
use mjpeg::dct::{idct_scaled_to_pixels, idct_to_pixels, BLOCK_SIZE};
use mjpeg::pipeline::{coeffs_from_bytes, encode_coeff_batch};
use mjpeg::simd::idct_scaled_to_pixels_simd;
use mjpeg::{
    build_smp_app, decode_frame_with, synthesize_stream, BatchView, DctKind, MjpegAppConfig,
};
use sim_kernel::{Kernel, LatentChannel};

use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{build_fanio_app, FanioInputs, MjpegVariant, Scale};

/// What a cell may spend and how big it may be.
pub struct Env {
    /// Time one sampled cell measures for.
    pub budget: Duration,
    pub scale: Scale,
    pub seed: u64,
}

type Values = Vec<(&'static str, f64)>;
type CellFn = fn(&Env) -> Values;

/// The cells: the span each is recorded under, and the function that
/// fills its metrics.
pub const CELLS: &[(&str, CellFn)] = &[
    ("cell:mjpeg.huffman", huffman),
    ("cell:mjpeg.idct", idct_kernels),
    ("cell:mjpeg.color", color),
    ("cell:mjpeg.decode_serial", decode_serial),
    ("cell:mjpeg.batch_split", batch_split),
    ("cell:core.pool", pool_take_recycle),
    ("cell:core.obs_answer", obs_answer),
    ("cell:smp.mailbox", mailbox_push_pop),
    ("cell:smp.pingpong", smp_pingpong),
    ("cell:exec.pingpong", exec_pingpong),
    ("cell:exec.deploy", exec_deploy),
    ("cell:exec.fanio_w1", exec_fanio_one_worker),
    ("cell:exec.table1", exec_table1),
    ("cell:inproc.table1", inproc_table1),
    ("cell:simkernel.phold", phold),
    ("cell:os21.sem_handoff", sem_handoff),
    ("cell:embx.send", embx_send),
    ("cell:trace.ring", trace_ring),
    ("cell:trace.runtime_tracing", runtime_tracing),
];

/// Run every cell, each inside its own span.
pub fn run_all(env: &Env, spans: &mut Spans) -> Values {
    CELLS
        .iter()
        .flat_map(|&(span, cell)| spans.span(span, |_| cell(env)))
        .collect()
}

/// Median over five samples of the time one operation takes, ns. A
/// sample repeats `batch` — which performs `ops` operations — until its
/// share of the budget is spent.
fn ns_per_op(env: &Env, ops: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let per_sample = env.budget / 5;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut batches = 0u64;
            loop {
                batch();
                batches += 1;
                if started.elapsed() >= per_sample {
                    break;
                }
            }
            started.elapsed().as_nanos() as f64 / (batches * ops) as f64
        })
        .collect();
    median(&samples)
}

fn deploy_and_wait<P: Platform>(mut platform: P, spec: AppSpec) -> embera::AppReport {
    platform.deploy(spec).expect("deploy").wait().expect("run")
}

// ------------------------------------------------------------- mjpeg

fn huffman(env: &Env) -> Values {
    // One encoded Table-1 frame (18 blocks): Fetch's per-block cost.
    let stream = synthesize_stream(2, 48, 24, 75, env.seed);
    let data = &stream.frames[1].data;
    let ns = ns_per_op(env, 18, || {
        let mut decoder = EntropyDecoder::new(data);
        for _ in 0..18 {
            black_box(decoder.next_block().expect("frame holds 18 blocks"));
        }
    });
    vec![("mjpeg.huffman_ns_per_block", ns)]
}

/// Pseudo-random coefficient blocks in the dequantised range (the LCG
/// of `crates/bench/benches/kernels.rs`).
fn coeff_blocks(seed: u64, count: usize) -> Vec<[i32; BLOCK_SIZE]> {
    let mut x = seed;
    (0..count)
        .map(|_| {
            let mut block = [0i32; BLOCK_SIZE];
            for v in block.iter_mut() {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *v = ((x >> 40) as i32 & 0x7FF) - 1024;
            }
            block
        })
        .collect()
}

fn idct_kernels(env: &Env) -> Values {
    let blocks = coeff_blocks(env.seed, 256);
    let time = |kernel: fn(&[i32; BLOCK_SIZE]) -> [u8; BLOCK_SIZE]| {
        ns_per_op(env, blocks.len() as u64, || {
            for block in &blocks {
                black_box(kernel(black_box(block)));
            }
        })
    };
    vec![
        ("mjpeg.idct_ref_ns_per_block", time(idct_to_pixels)),
        ("mjpeg.idct_aan_ns_per_block", time(idct_scaled_to_pixels)),
        (
            "mjpeg.idct_simd_ns_per_block",
            time(idct_scaled_to_pixels_simd),
        ),
    ]
}

fn color(env: &Env) -> Values {
    const PIXELS: usize = 4096;
    let plane = |mul: usize| -> Vec<u8> { (0..PIXELS).map(|i| (i * mul) as u8).collect() };
    let (y, cb, cr) = (plane(7), plane(13), plane(29));
    let mut rgb = vec![0u8; PIXELS * 3];
    let ns = ns_per_op(env, PIXELS as u64, || {
        mjpeg::color::ycbcr_to_rgb_slice(&y, &cb, &cr, &mut rgb);
        black_box(rgb[0]);
    });
    vec![("mjpeg.color_ns_per_px", ns)]
}

fn decode_serial(env: &Env) -> Values {
    // The single-threaded baseline of `smp_batched`: same geometry,
    // same kernel, no components.
    let (width, height) = MjpegVariant::Batched.geometry();
    let stream = synthesize_stream(4, width, height, 75, env.seed);
    let ns_per_frame = ns_per_op(env, stream.len() as u64, || {
        for frame in &stream.frames {
            black_box(
                decode_frame_with(&frame.data, width, height, 75, DctKind::FastSimd)
                    .expect("a synthesized frame decodes"),
            );
        }
    });
    vec![("mjpeg.decode_serial_frames_per_s", 1e9 / ns_per_frame)]
}

fn batch_split(env: &Env) -> Values {
    // Parse one 72-block message and split it into blocks, as an IDCT
    // component does on receipt.
    let blocks: Vec<(u32, u32, [i32; BLOCK_SIZE])> = coeff_blocks(env.seed, 72)
        .into_iter()
        .enumerate()
        .map(|(i, coeffs)| (1, i as u32, coeffs))
        .collect();
    let msg = encode_coeff_batch(&blocks);
    let ns = ns_per_op(env, 1, || {
        let view = BatchView::coeffs(&msg).expect("well-formed batch");
        for i in 0..view.len() {
            let (_, _, payload) = view.block(i);
            black_box(coeffs_from_bytes(&payload).expect("64 coefficients"));
        }
    });
    vec![("mjpeg.batch_split_ns_per_msg", ns)]
}

// -------------------------------------------------------------- core

fn pool_take_recycle(env: &Env) -> Values {
    let pool = BufferPool::new(256);
    pool.prewarm(4);
    let payload = [7u8; 256];
    let ns = ns_per_op(env, 1, || {
        pool.recycle(black_box(pool.take_from(&payload)));
    });
    vec![("core.pool_take_recycle_ns", ns)]
}

fn obs_answer(env: &Env) -> Values {
    // A component the size of an IDCT stage, with some history.
    let stats = Arc::new(ComponentStats::new(
        "IDCT_1",
        &["_fetchIdct1".to_string()],
        &["idctReorder".to_string()],
    ));
    stats.mark_started(0);
    for i in 0..1_000 {
        stats.record_receive("_fetchIdct1", 264, 150 + i % 7);
        stats.record_send("idctReorder", 72, 200 + i % 5);
    }
    let engine = ObsEngine::new(stats);
    let time = |request: ObsRequest| {
        ns_per_op(env, 1, || {
            black_box(engine.answer(black_box(request), 1_000_000));
        })
    };
    vec![
        ("core.obs_answer_health_ns", time(ObsRequest::Health)),
        ("core.obs_answer_full_ns", time(ObsRequest::Full)),
    ]
}

// --------------------------------------------------- smp, exec, inproc

fn mailbox_push_pop(env: &Env) -> Values {
    let mailbox = Mailbox::new("cell", MailboxKind::default());
    let payload = Bytes::from(vec![7u8; 256]);
    let ns = ns_per_op(env, 1, || {
        mailbox.push(Message::Data(payload.clone()));
        black_box(mailbox.try_pop());
    });
    vec![("smp.mailbox_push_pop_ns", ns)]
}

/// Two components bouncing one message back and forth: every hop is a
/// park→wake.
fn pingpong_app(round_trips: u32) -> AppSpec {
    let mut app = AppBuilder::new("pingpong");
    app.add(
        ComponentSpec::new(
            "ping",
            behavior_fn(move |ctx| {
                let mut ball = Bytes::from(vec![0u8; 64]);
                for _ in 0..round_trips {
                    ctx.send("out", ball)?;
                    ball = ctx.recv("in")?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_required("out")
        .with_stack_bytes(1 << 20),
    );
    app.add(
        ComponentSpec::new(
            "pong",
            behavior_fn(move |ctx| {
                for _ in 0..round_trips {
                    let ball = ctx.recv("in")?;
                    ctx.send("out", ball)?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_required("out")
        .with_stack_bytes(1 << 20),
    );
    app.connect(("ping", "out"), ("pong", "in"));
    app.connect(("pong", "out"), ("ping", "in"));
    app.build().expect("valid ping-pong app")
}

fn smp_pingpong(env: &Env) -> Values {
    let round_trips = env.scale.pick(10_000, 500);
    let report = deploy_and_wait(SmpPlatform::new(), pingpong_app(round_trips));
    vec![(
        "smp.pingpong_rtt_ns",
        report.wall_time_ns as f64 / round_trips as f64,
    )]
}

fn exec_pingpong(env: &Env) -> Values {
    let round_trips = env.scale.pick(40_000, 500);
    let report = deploy_and_wait(ExecPlatform::with_workers(2), pingpong_app(round_trips));
    vec![(
        "exec.pingpong_rtt_ns",
        report.wall_time_ns as f64 / round_trips as f64,
    )]
}

fn exec_deploy(env: &Env) -> Values {
    // The component count of `exec_fanio`, one message per relay.
    let relays = env.scale.pick(1_000, 50);
    let (app, _, _) = build_fanio_app(&FanioInputs::from_seed(env.seed, relays, 1));
    let spec = app.build().expect("valid fanio app");
    let started = Instant::now();
    let running = ExecPlatform::with_workers(2).deploy(spec).expect("deploy");
    let deploy_us = started.elapsed().as_nanos() as f64 / 1e3;
    running.wait().expect("run");
    vec![(
        "exec.deploy_us_per_component",
        deploy_us / (relays + 2) as f64,
    )]
}

fn exec_fanio_one_worker(env: &Env) -> Values {
    // One worker: queue cost without stealing.
    let inputs = FanioInputs::from_seed(env.seed, env.scale.pick(1_000, 50), env.scale.pick(40, 4));
    let (app, _, _) = build_fanio_app(&inputs);
    let report = deploy_and_wait(
        ExecPlatform::with_workers(1),
        app.build().expect("valid fanio app"),
    );
    let messages = 2 * inputs.deliveries();
    vec![(
        "exec.fanio_w1_msgs_per_s",
        messages as f64 * 1e9 / report.wall_time_ns.max(1) as f64,
    )]
}

/// The `smp_paper` pipeline over `frames` frames of one Table-1 stream.
fn table1_app(env: &Env, frames: usize) -> AppBuilder {
    let stream = synthesize_stream(frames, 48, 24, 75, env.seed);
    build_smp_app(stream, &MjpegAppConfig::default()).0
}

fn frames_per_s(frames: usize, wall_ns: u64) -> f64 {
    (frames - 1) as f64 * 1e9 / wall_ns.max(1) as f64
}

fn exec_table1(env: &Env) -> Values {
    // Diagnostic only: this backend's pipeline throughput varies 40 %
    // between identical runs, which is why it is not a workload.
    let frames = env.scale.pick(4_000, 100);
    let spec = table1_app(env, frames).build().expect("valid MJPEG app");
    let report = deploy_and_wait(ExecPlatform::with_workers(2), spec);
    vec![(
        "exec.table1_frames_per_s",
        frames_per_s(frames, report.wall_time_ns),
    )]
}

fn inproc_table1(env: &Env) -> Values {
    let frames = env.scale.pick(578, 50);
    let spec = table1_app(env, frames).build().expect("valid MJPEG app");
    let started = Instant::now();
    let report = deploy_and_wait(InprocPlatform::new(), spec);
    let host_ns = started.elapsed().as_nanos() as u64;
    vec![
        ("inproc.table1_frames_per_s", frames_per_s(frames, host_ns)),
        // Logical time: exact, a determinism canary.
        ("inproc.logical_ms", report.wall_time_ns as f64 / 1e6),
    ]
}

// --------------------------------------------- simkernel, os21, embx

fn phold(env: &Env) -> Values {
    // A ring of processes passing tokens over latent channels: nothing
    // but kernel hand-offs.
    const PROCESSES: usize = 32;
    const LATENCY_NS: u64 = 1_000;
    let hops: u32 = env.scale.pick(150, 10);
    let mut kernel = Kernel::new();
    let channels: Vec<LatentChannel<u32>> = (0..PROCESSES)
        .map(|_| LatentChannel::new(&mut kernel, LATENCY_NS))
        .collect();
    for (i, inbox) in channels.iter().enumerate() {
        let inbox = inbox.clone();
        let next = channels[(i + 1) % PROCESSES].clone();
        kernel.spawn(format!("site{i}"), move |ctx| {
            next.send(&ctx, hops);
            for _ in 0..hops {
                let remaining = inbox.recv(&ctx);
                ctx.advance(250);
                if remaining > 1 {
                    next.send(&ctx, remaining - 1);
                }
            }
        });
    }
    let started = Instant::now();
    kernel.run().expect("PHOLD ring runs to completion");
    let host_ns = started.elapsed().as_nanos() as f64;
    vec![(
        "simkernel.phold_ns_per_event",
        host_ns / kernel.stats().events_dispatched.max(1) as f64,
    )]
}

fn sem_handoff(env: &Env) -> Values {
    // Two RTOS tasks on different CPUs handing a semaphore pair back and
    // forth: host cost of one simulated task switch.
    let handoffs: u32 = env.scale.pick(4_000, 200);
    let mut kernel = Kernel::new();
    let rtos = os21::Rtos::new(mpsoc_sim::Machine::sti7200_three_cpu());
    let ping = os21::Semaphore::with_event(kernel.alloc_event(), 0);
    let pong = os21::Semaphore::with_event(kernel.alloc_event(), 0);
    let (ping_b, pong_b) = (ping.clone(), pong.clone());
    rtos.spawn_task(&mut kernel, 0, "a", 0, move |task| {
        for _ in 0..handoffs / 2 {
            ping.signal(&task);
            pong.wait(&task);
        }
    });
    rtos.spawn_task(&mut kernel, 1, "b", 0, move |task| {
        for _ in 0..handoffs / 2 {
            ping_b.wait(&task);
            pong_b.signal(&task);
        }
    });
    let started = Instant::now();
    kernel
        .run()
        .expect("semaphore ping-pong runs to completion");
    vec![(
        "os21.sem_handoff_host_ns",
        started.elapsed().as_nanos() as f64 / handoffs as f64,
    )]
}

/// Mean simulated `send` time, µs, and host time per run, ns, of
/// `sends` EMBX-backed sends of `bytes` from the ST40 to an ST231 (the
/// direction of the paper's Figure 8 upper curve).
fn embx_point(bytes: usize, sends: u32) -> (f64, f64) {
    let mut app = AppBuilder::new("embx-send");
    app.add(
        ComponentSpec::new(
            "Sender",
            behavior_fn(move |ctx| {
                let payload = Bytes::from(vec![0xA5u8; bytes]);
                for _ in 0..sends {
                    ctx.send("out", payload.clone())?;
                }
                Ok(())
            }),
        )
        .with_required("out")
        .on_cpu(0),
    );
    app.add(
        ComponentSpec::new(
            "Sink",
            behavior_fn(move |ctx| {
                for _ in 0..sends {
                    ctx.recv("in")?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .on_cpu(1),
    );
    app.connect(("Sender", "out"), ("Sink", "in"));
    let running = Os21Platform::three_cpu()
        .deploy(app.build().expect("valid send app"))
        .expect("deploy");
    let started = Instant::now();
    let report = running.wait().expect("run");
    let host_ns = started.elapsed().as_nanos() as f64;
    let send = report
        .component("Sender")
        .expect("sender report")
        .middleware
        .send;
    (
        send.total_ns as f64 / send.count.max(1) as f64 / 1e3,
        host_ns,
    )
}

fn embx_send(_env: &Env) -> Values {
    const SENDS: u32 = 8;
    let (us_1k, _) = embx_point(1024, SENDS);
    let (us_50k, _) = embx_point(50 * 1024, SENDS);
    let (us_200k, host_ns) = embx_point(200 * 1024, SENDS);
    vec![
        ("embx.send_sim_us_1kB", us_1k),
        ("embx.send_sim_us_50kB", us_50k),
        ("embx.send_sim_us_200kB", us_200k),
        ("embx.send_host_ns_per_kB", host_ns / (SENDS as f64 * 200.0)),
    ]
}

// ------------------------------------------------------------- trace

fn trace_ring(env: &Env) -> Values {
    let (producer, consumer) = SpscRing::<u64>::new(1024).split();
    let ns = ns_per_op(env, 1, || {
        producer.push(black_box(42));
        black_box(consumer.pop());
    });
    vec![("trace.ring_push_pop_ns", ns)]
}

fn runtime_tracing(env: &Env) -> Values {
    // The cost of the runtime's own event tracing (the paper's §6
    // extension) on the messaging-bound pipeline.
    let frames = env.scale.pick(4_000, 100);
    let wall = |traced: bool| {
        let mut app = table1_app(env, frames);
        let collector = TraceCollector::default();
        if traced {
            app.with_tracing(collector.trace_config());
        }
        deploy_and_wait(SmpPlatform::new(), app.build().expect("valid MJPEG app")).wall_time_ns
    };
    let (plain, traced) = (wall(false), wall(true));
    vec![(
        "trace.runtime_tracing_overhead_pct",
        (traced as f64 / plain.max(1) as f64 - 1.0) * 100.0,
    )]
}
