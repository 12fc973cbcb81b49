//! `smp_paper` and `smp_batched`: the Fetch→3×IDCT→Reorder pipeline on
//! the thread-per-component backend, closed loop. The two share every
//! layer and differ in which one does the work: one block per message
//! makes the run messaging-bound, 72 blocks per message on 320×240
//! frames makes it kernel-bound.

use std::sync::atomic::Ordering;

use embera::{BufferPool, Platform, RunningApp};
use embera_smp::SmpPlatform;
use mjpeg::{
    build_smp_app, decode_frame_with, pipeline_pool, synthesize_stream, DctKind, MjpegAppConfig,
    MjpegStream,
};

use super::{fnv1a_fold, Prepared, Rep, Scale, FNV_OFFSET};
use crate::spans::Spans;

/// Encoder quality of every synthesized stream.
pub const QUALITY: u8 = 75;
/// Distinct frames synthesized from the seed; a run cycles over them.
const DISTINCT_FRAMES: usize = 64;

/// Which of the two closed-loop MJPEG workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MjpegVariant {
    /// Paper Table 1: 48×24 frames, one block per message, reference
    /// float kernel, no pool.
    Paper,
    /// 320×240 frames, 72 blocks per message, SIMD kernel, pooled
    /// payloads.
    Batched,
}

impl MjpegVariant {
    pub fn geometry(self) -> (usize, usize) {
        match self {
            MjpegVariant::Paper => (48, 24),
            MjpegVariant::Batched => (320, 240),
        }
    }

    pub fn config(self) -> MjpegAppConfig {
        match self {
            MjpegVariant::Paper => MjpegAppConfig::default(),
            MjpegVariant::Batched => MjpegAppConfig {
                blocks_per_msg: 72,
                kernel: DctKind::FastSimd,
                payload_pool: true,
                ..MjpegAppConfig::default()
            },
        }
    }

    fn frames(self, scale: Scale) -> usize {
        match self {
            MjpegVariant::Paper => scale.pick(10_000, 200),
            MjpegVariant::Batched => scale.pick(1_000, 40),
        }
    }
}

/// A stream of `frames` frames cycling over `distinct` frames
/// synthesized from `seed`, plus the checksum the pipeline must report:
/// the FNV-1a fold of the serial decoder's output over frames 1.. (frame
/// 0 configures the pipeline and is not forwarded).
pub fn cycled_stream(
    seed: u64,
    (width, height): (usize, usize),
    distinct: usize,
    frames: usize,
    kernel: DctKind,
    spans: &mut Spans,
) -> (MjpegStream, u64) {
    let base = spans.span("synthesize", |_| {
        synthesize_stream(distinct.min(frames), width, height, QUALITY, seed)
    });
    let stream = MjpegStream {
        frames: base.frames.iter().cycle().take(frames).cloned().collect(),
    };
    let checksum = spans.span("reference_checksum", |_| {
        let decoded: Vec<Vec<u8>> = base
            .frames
            .iter()
            .map(|f| {
                decode_frame_with(&f.data, width, height, QUALITY, kernel)
                    .expect("a synthesized frame decodes")
            })
            .collect();
        (1..frames).fold(FNV_OFFSET, |h, i| {
            fnv1a_fold(h, &decoded[i % decoded.len()])
        })
    });
    (stream, checksum)
}

pub struct MjpegClosed {
    variant: MjpegVariant,
    stream: MjpegStream,
    expected_checksum: u64,
}

pub fn prepare(variant: MjpegVariant, seed: u64, scale: Scale, spans: &mut Spans) -> MjpegClosed {
    let (stream, expected_checksum) = cycled_stream(
        seed,
        variant.geometry(),
        DISTINCT_FRAMES,
        variant.frames(scale),
        variant.config().kernel,
        spans,
    );
    MjpegClosed {
        variant,
        stream,
        expected_checksum,
    }
}

impl Prepared for MjpegClosed {
    fn repetition(&mut self, spans: &mut Spans) -> Rep {
        let cfg = self.variant.config();
        let forwarded = self.stream.len() as u64 - 1;
        let (mut app, probe) = build_smp_app(self.stream.clone(), &cfg);
        // The harness's own handle on the pool, to read its counters
        // after the run.
        let pool: Option<BufferPool> = cfg.payload_pool.then(|| pipeline_pool(&cfg));
        if let Some(pool) = &pool {
            app.with_buffer_pool(pool.clone());
        }
        let spec = app.build().expect("valid MJPEG app");
        let running = spans.span("deploy", |_| {
            SmpPlatform::new().deploy(spec).expect("deploy")
        });
        let report = spans.span("wait", |_| running.wait().expect("run"));

        let mut rep = Rep {
            attempted: forwarded,
            ..Rep::default()
        };
        rep.closed_loop(report.wall_time_ns);
        rep.core_layers(&report);
        if let Some(pool) = &pool {
            let stats = pool.stats();
            rep.layers.extend([
                ("core.pool_grown", stats.grown as f64),
                ("core.pool_dropped", stats.dropped as f64),
            ]);
        }
        spans.span("verify", |_| {
            let completed = probe.frames_completed.load(Ordering::SeqCst);
            rep.failed = forwarded.saturating_sub(completed);
            rep.check(completed == forwarded, || {
                format!("{completed} of {forwarded} frames completed")
            });
            let checksum = probe.checksum.load(Ordering::SeqCst);
            rep.check(checksum == self.expected_checksum, || {
                format!(
                    "pipeline checksum {checksum:#x}, serial decoder {:#x}",
                    self.expected_checksum
                )
            });
            if self.variant == MjpegVariant::Paper {
                // The structure of the paper's Table 2.
                let (sends, receives) = (report.total_sends(), report.total_receives());
                rep.check(sends == receives, || {
                    format!("{sends} sends, {receives} receives")
                });
                let blocks = self.stream.frames[0].header.blocks() as u64;
                let fetch = report.component("Fetch").map_or(0, |r| r.app.total_sends);
                rep.check(fetch == blocks * forwarded, || {
                    format!("Fetch sent {fetch} messages, expected {blocks} x {forwarded}")
                });
            }
        });
        rep
    }

    fn corrupt_expectation(&mut self) {
        self.expected_checksum ^= 1;
    }
}
