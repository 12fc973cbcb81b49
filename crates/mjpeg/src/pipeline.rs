//! The componentized MJPEG decoder as EMBera behaviors.
//!
//! SMP deployment (paper Figure 3): `Fetch → 3 × IDCT → Reorder`.
//! MPSoC deployment (paper Figure 7): `Fetch-Reorder ⇄ 2 × IDCT`, the
//! Fetch and Reorder functionalities merged on the general-purpose ST40.
//!
//! Two structural details reproduce the paper's Table 2 exactly:
//!
//! * frames carry **18 blocks** (48×24 grayscale), and
//! * the **first frame is consumed for pipeline configuration** (reading
//!   the stream geometry) and its blocks are not forwarded — the paper's
//!   counts are `18 × (N − 1)` (10 386 = 18 × 577, 53 982 = 18 × 2999).
//!
//! There are no end-of-stream markers: like the paper's decoder, every
//! component knows its message budget from the stream length, so the
//! communication counters contain data messages only.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use embera::{AppBuilder, Behavior, BufferPool, ComponentSpec, Ctx, EmberaError, Work, WorkClass};

use crate::codec::{place_block, EntropyDecoder};
use crate::dct::{idct_scaled_to_pixels, idct_to_pixels, DctKind, BLOCK_SIZE};
use crate::frame::MjpegStream;
use crate::quant::{
    dequantize_reorder, dequantize_reorder_scaled, fast_dequant_table, scaled_qtable,
};

/// Work-annotation profile: abstract operation counts per unit of codec
/// work. Defaults are calibrated to the paper's self-described
/// *unoptimized* implementation (§5.4 notes the OS21 build ran ~25×
/// slower than even their Linux build, "without applying any
/// optimizations"); the Table 3 ratio test pins the resulting
/// Fetch-Reorder : IDCT execution-time ratio to the paper's ~10-12×.
#[derive(Debug, Clone, Copy)]
pub struct WorkProfile {
    /// Control ops per entropy-coded bit (naive bit-serial Huffman).
    pub huffman_ops_per_bit: u64,
    /// Control ops per coefficient for dequantize + zigzag reorder.
    pub dequant_ops_per_coeff: u64,
    /// DSP ops per 8×8 IDCT (naive double-loop implementation).
    pub idct_ops_per_block: u64,
    /// MemCopy ops per pixel for frame reassembly.
    pub reorder_ops_per_pixel: u64,
    /// Control ops per frame for file management in Fetch.
    pub file_mgmt_ops_per_frame: u64,
}

impl Default for WorkProfile {
    fn default() -> Self {
        WorkProfile {
            huffman_ops_per_bit: 100,
            dequant_ops_per_coeff: 14,
            idct_ops_per_block: 20_000,
            reorder_ops_per_pixel: 900,
            file_mgmt_ops_per_frame: 6_000,
        }
    }
}

/// Stage a coefficient body (64 × i32 LE) in a fixed array: one bulk
/// append instead of 64 four-byte appends. The fixed-bound staging loop
/// lowers to straight vector stores on little-endian targets.
fn coeff_bytes(coeffs: &[i32; BLOCK_SIZE]) -> [u8; BLOCK_SIZE * 4] {
    let mut raw = [0u8; BLOCK_SIZE * 4];
    for (i, c) in coeffs.iter().enumerate() {
        raw[i * 4..(i + 1) * 4].copy_from_slice(&c.to_le_bytes());
    }
    raw
}

/// Serialize a coefficient block into a caller-owned scratch buffer
/// (cleared first). The hot path reuses one scratch `Vec` per component
/// so steady-state serialization never allocates.
fn encode_coeff_into(v: &mut Vec<u8>, frame: u32, block: u32, coeffs: &[i32; BLOCK_SIZE]) {
    v.clear();
    v.reserve(8 + BLOCK_SIZE * 4);
    v.extend_from_slice(&frame.to_le_bytes());
    v.extend_from_slice(&block.to_le_bytes());
    v.extend_from_slice(&coeff_bytes(coeffs));
}

/// Wire format of a coefficient block: frame u32 | block u32 | 64 × i32.
pub fn encode_coeff_msg(frame: u32, block: u32, coeffs: &[i32; BLOCK_SIZE]) -> Bytes {
    let mut v = Vec::new();
    encode_coeff_into(&mut v, frame, block, coeffs);
    Bytes::from(v)
}

/// Parse a coefficient block message.
pub fn decode_coeff_msg(b: &[u8]) -> Result<(u32, u32, [i32; BLOCK_SIZE]), EmberaError> {
    if b.len() != 8 + BLOCK_SIZE * 4 {
        return Err(EmberaError::Platform(format!(
            "bad coefficient message length {}",
            b.len()
        )));
    }
    let frame = u32::from_le_bytes(b[0..4].try_into().unwrap());
    let block = u32::from_le_bytes(b[4..8].try_into().unwrap());
    let mut coeffs = [0i32; BLOCK_SIZE];
    for (i, c) in coeffs.iter_mut().enumerate() {
        let o = 8 + i * 4;
        *c = i32::from_le_bytes(b[o..o + 4].try_into().unwrap());
    }
    Ok((frame, block, coeffs))
}

/// Serialize a pixel block into a caller-owned scratch buffer.
fn encode_pixel_into(v: &mut Vec<u8>, frame: u32, block: u32, pixels: &[u8; BLOCK_SIZE]) {
    v.clear();
    v.reserve(8 + BLOCK_SIZE);
    v.extend_from_slice(&frame.to_le_bytes());
    v.extend_from_slice(&block.to_le_bytes());
    v.extend_from_slice(pixels);
}

/// Wire format of a pixel block: frame u32 | block u32 | 64 × u8.
pub fn encode_pixel_msg(frame: u32, block: u32, pixels: &[u8; BLOCK_SIZE]) -> Bytes {
    let mut v = Vec::new();
    encode_pixel_into(&mut v, frame, block, pixels);
    Bytes::from(v)
}

/// Parse a pixel block message.
pub fn decode_pixel_msg(b: &[u8]) -> Result<(u32, u32, [u8; BLOCK_SIZE]), EmberaError> {
    if b.len() != 8 + BLOCK_SIZE {
        return Err(EmberaError::Platform(format!(
            "bad pixel message length {}",
            b.len()
        )));
    }
    let frame = u32::from_le_bytes(b[0..4].try_into().unwrap());
    let block = u32::from_le_bytes(b[4..8].try_into().unwrap());
    let mut px = [0u8; BLOCK_SIZE];
    px.copy_from_slice(&b[8..]);
    Ok((frame, block, px))
}

/// Bytes per block record in a coefficient batch:
/// frame u32 | block u32 | 64 × i32.
const COEFF_REC: usize = 8 + BLOCK_SIZE * 4;
/// Bytes per block record in a pixel batch: frame u32 | block u32 | 64 × u8.
const PIXEL_REC: usize = 8 + BLOCK_SIZE;

/// Idle deadline for tolerant-mode receives. Tolerant components cannot
/// rely on a fixed message budget (frames may be dropped upstream), so
/// they stop once their inputs stay silent this long. On the in-process
/// backend this is logical time — the scheduler only reports a timeout
/// once no producer can make progress, which keeps tolerant runs
/// deterministic. On the threaded backend it is wall-clock time and is
/// sized generously above any scheduling hiccup.
const TOLERANT_IDLE_NS: u64 = 500_000_000;

/// Wire format of a coefficient **batch**: `count u32 | count ×
/// (frame u32 | block u32 | 64 × i32)`. Used when `blocks_per_msg > 1`;
/// the single-block formats above stay the wire format at batch size 1
/// so the paper's Table 2 byte counts are untouched by default. Each
/// record carries its own frame tag so a batch may span frame
/// boundaries — the SMP Fetch flushes a lane only when it is full,
/// which is what lets one thread wake-up amortize over many frames.
pub fn encode_coeff_batch(blocks: &[(u32, u32, [i32; BLOCK_SIZE])]) -> Bytes {
    let mut v = Vec::new();
    encode_coeff_batch_into(&mut v, blocks);
    Bytes::from(v)
}

/// Serialize a coefficient batch into a caller-owned scratch buffer.
fn encode_coeff_batch_into(v: &mut Vec<u8>, blocks: &[(u32, u32, [i32; BLOCK_SIZE])]) {
    v.clear();
    v.reserve(4 + blocks.len() * COEFF_REC);
    v.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    for (frame, bi, coeffs) in blocks {
        v.extend_from_slice(&frame.to_le_bytes());
        v.extend_from_slice(&bi.to_le_bytes());
        v.extend_from_slice(&coeff_bytes(coeffs));
    }
}

/// Wire format of a pixel **batch**: `count u32 | count ×
/// (frame u32 | block u32 | 64 × u8)`.
pub fn encode_pixel_batch(blocks: &[(u32, u32, [u8; BLOCK_SIZE])]) -> Bytes {
    let mut v = Vec::new();
    encode_pixel_batch_into(&mut v, blocks);
    Bytes::from(v)
}

/// Serialize a pixel batch into a caller-owned scratch buffer.
fn encode_pixel_batch_into(v: &mut Vec<u8>, blocks: &[(u32, u32, [u8; BLOCK_SIZE])]) {
    v.clear();
    v.reserve(4 + blocks.len() * PIXEL_REC);
    v.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    for (frame, bi, px) in blocks {
        v.extend_from_slice(&frame.to_le_bytes());
        v.extend_from_slice(&bi.to_le_bytes());
        v.extend_from_slice(px);
    }
}

// ---------------------------------------------------------------------
// Exact-size slice writers: the pooled senders serialize directly into
// a pool-owned window ([`BufferPool::take_with`]) instead of staging
// through a scratch `Vec` and copying — same wire formats as the Vec
// serializers above (the pooled-vs-unpooled checksum tests pin the two
// paths to identical bytes), one full memcpy pass fewer per message.
// ---------------------------------------------------------------------

/// Write a single-block coefficient message into `dst` (`COEFF_REC` bytes).
fn write_coeff_msg(dst: &mut [u8], frame: u32, block: u32, coeffs: &[i32; BLOCK_SIZE]) {
    dst[0..4].copy_from_slice(&frame.to_le_bytes());
    dst[4..8].copy_from_slice(&block.to_le_bytes());
    dst[8..COEFF_REC].copy_from_slice(&coeff_bytes(coeffs));
}

/// Write a coefficient batch into `dst` (`4 + n * COEFF_REC` bytes).
fn write_coeff_batch(dst: &mut [u8], blocks: &[(u32, u32, [i32; BLOCK_SIZE])]) {
    dst[0..4].copy_from_slice(&(blocks.len() as u32).to_le_bytes());
    for (i, (frame, bi, coeffs)) in blocks.iter().enumerate() {
        let rec = &mut dst[4 + i * COEFF_REC..4 + (i + 1) * COEFF_REC];
        write_coeff_msg(rec, *frame, *bi, coeffs);
    }
}

/// Write a single-block pixel message into `dst` (`PIXEL_REC` bytes).
fn write_pixel_msg(dst: &mut [u8], frame: u32, block: u32, pixels: &[u8; BLOCK_SIZE]) {
    dst[0..4].copy_from_slice(&frame.to_le_bytes());
    dst[4..8].copy_from_slice(&block.to_le_bytes());
    dst[8..PIXEL_REC].copy_from_slice(pixels);
}

/// Write a pixel batch into `dst` (`4 + n * PIXEL_REC` bytes).
fn write_pixel_batch(dst: &mut [u8], blocks: &[(u32, u32, [u8; BLOCK_SIZE])]) {
    dst[0..4].copy_from_slice(&(blocks.len() as u32).to_le_bytes());
    for (i, (frame, bi, px)) in blocks.iter().enumerate() {
        let rec = &mut dst[4 + i * PIXEL_REC..4 + (i + 1) * PIXEL_REC];
        write_pixel_msg(rec, *frame, *bi, px);
    }
}

/// Give a fully consumed message buffer back to the pool (no-op without
/// one). Callers must drop any [`BatchView`] over the message first, or
/// the pool will refuse the still-shared buffer.
fn recycle_msg(pool: Option<&BufferPool>, msg: Bytes) {
    if let Some(p) = pool {
        p.recycle(msg);
    }
}

/// A parsed batch header over a refcounted message payload. Per-block
/// accessors hand out [`Bytes`] views into the original buffer, so a
/// consumer can split a batch into blocks without copying or allocating.
pub struct BatchView {
    data: Bytes,
    count: usize,
    rec: usize,
}

impl BatchView {
    fn parse(data: &Bytes, rec: usize, what: &str) -> Result<Self, EmberaError> {
        if data.len() < 4 {
            return Err(EmberaError::Platform(format!(
                "bad {what} batch: {} bytes, need at least 4",
                data.len()
            )));
        }
        let count = u32::from_le_bytes(data[0..4].try_into().unwrap()) as usize;
        if count == 0 || data.len() != 4 + count * rec {
            return Err(EmberaError::Platform(format!(
                "bad {what} batch: count {count}, {} bytes",
                data.len()
            )));
        }
        Ok(BatchView {
            data: data.clone(),
            count,
            rec,
        })
    }

    /// Parse a coefficient batch (`count | count × (frame | block | 64 i32)`).
    pub fn coeffs(data: &Bytes) -> Result<Self, EmberaError> {
        Self::parse(data, COEFF_REC, "coefficient")
    }

    /// Parse a pixel batch (`count | count × (frame | block | 64 u8)`).
    pub fn pixels(data: &Bytes) -> Result<Self, EmberaError> {
        Self::parse(data, PIXEL_REC, "pixel")
    }

    /// Number of blocks in the batch.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the batch holds no blocks (parse rejects this, so always
    /// false on a parsed view).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Frame index, block index, and zero-copy payload view of the i-th
    /// record.
    pub fn block(&self, i: usize) -> (u32, u32, Bytes) {
        assert!(i < self.count);
        let off = 4 + i * self.rec;
        let frame = u32::from_le_bytes(self.data[off..off + 4].try_into().unwrap());
        let bi = u32::from_le_bytes(self.data[off + 4..off + 8].try_into().unwrap());
        (frame, bi, self.data.slice(off + 8..off + self.rec))
    }
}

/// Decode a 64 × i32 coefficient payload (e.g. a [`BatchView::block`]
/// view) into a natural-order block.
pub fn coeffs_from_bytes(b: &[u8]) -> Result<[i32; BLOCK_SIZE], EmberaError> {
    if b.len() != BLOCK_SIZE * 4 {
        return Err(EmberaError::Platform(format!(
            "bad coefficient payload length {}",
            b.len()
        )));
    }
    let mut coeffs = [0i32; BLOCK_SIZE];
    for (i, c) in coeffs.iter_mut().enumerate() {
        *c = i32::from_le_bytes(b[i * 4..i * 4 + 4].try_into().unwrap());
    }
    Ok(coeffs)
}

/// Blocks dealt round-robin: how many of `blocks` land on `lane` of `n`.
fn lane_share(blocks: u64, n: usize, lane: usize) -> u64 {
    (lane as u64..blocks).step_by(n).count() as u64
}

/// Messages a lane receives per frame when batches flush at frame end
/// (the MPSoC merged component's per-frame round trip): its block
/// share, flushed every `batch` blocks plus a remainder flush.
fn lane_msgs_per_frame(per_lane: u64, batch: usize) -> u64 {
    let b = batch.max(1) as u64;
    per_lane.div_ceil(b)
}

/// Messages a lane receives over a whole SMP run, where batches span
/// frame boundaries: the lane's total block count, flushed every
/// `batch` blocks plus one remainder flush at stream end.
fn lane_msgs_total(per_lane_per_frame: u64, frames: u64, batch: usize) -> u64 {
    let b = batch.max(1) as u64;
    (per_lane_per_frame * frames).div_ceil(b)
}

/// Shared probe into pipeline results, for tests and harnesses.
#[derive(Clone, Default)]
pub struct PipelineProbe {
    /// Frames fully reassembled by the Reorder side.
    pub frames_completed: Arc<AtomicU64>,
    /// FNV-1a checksum over reassembled pixel data, in frame order.
    pub checksum: Arc<AtomicU64>,
    /// Frames abandoned in tolerant mode: corrupt frames skipped by
    /// Fetch plus frames left incomplete at Reorder exit (blocks lost to
    /// a mid-stream fault). Always 0 in the default strict mode.
    pub dropped_frames: Arc<AtomicU64>,
}

impl PipelineProbe {
    /// Expose the probe as observation functions — the paper-§6
    /// custom-metric extension in action: a `frames_completed` gauge
    /// registered on the reassembling component.
    pub fn metrics(&self) -> Vec<std::sync::Arc<dyn embera::MetricSource>> {
        let frames = std::sync::Arc::clone(&self.frames_completed);
        vec![embera::FnMetric::new("frames_completed", move || {
            frames.load(Ordering::Relaxed) as f64
        })]
    }

    fn fold_frame(&self, pixels: &[u8]) {
        let mut h = self.checksum.load(Ordering::Acquire);
        if h == 0 {
            h = 0xcbf2_9ce4_8422_2325;
        }
        for &b in pixels {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.checksum.store(h, Ordering::Release);
        self.frames_completed.fetch_add(1, Ordering::AcqRel);
    }
}

/// The Fetch component: "file management, Huffman decoding and pixel
/// reordering" (§3.2). Distributes coefficient blocks round-robin over
/// the IDCT components.
pub struct FetchBehavior {
    stream: MjpegStream,
    out_ifaces: Vec<String>,
    profile: WorkProfile,
    blocks_per_msg: usize,
    kernel: DctKind,
    dispatch: DispatchPolicy,
    /// Tolerant mode: a corrupt frame is decoded in full *before* any of
    /// its blocks is sent, so a mid-frame decode error drops the whole
    /// frame atomically (counted on the probe) instead of failing the
    /// component after a partial send.
    tolerant: Option<PipelineProbe>,
}

/// Dequantization state for whichever kernel the pipeline runs.
enum DequantTables {
    Reference([u16; BLOCK_SIZE]),
    Fast([i32; BLOCK_SIZE]),
}

/// Entropy decoder matching the kernel choice: the reference kernel
/// pairs with the paper's bit-serial Huffman decoder, the fast kernel
/// with the two-level LUT decoder.
fn entropy_decoder(kernel: DctKind, data: &[u8]) -> EntropyDecoder<'_> {
    match kernel {
        DctKind::ReferenceFloat => EntropyDecoder::reference(data),
        DctKind::FastAan | DctKind::FastSimd => EntropyDecoder::new(data),
    }
}

impl DequantTables {
    fn for_kernel(kernel: DctKind, quality: u8) -> Self {
        let qtable = scaled_qtable(quality);
        match kernel {
            DctKind::ReferenceFloat => DequantTables::Reference(qtable),
            DctKind::FastAan | DctKind::FastSimd => {
                DequantTables::Fast(fast_dequant_table(&qtable))
            }
        }
    }

    fn apply(&self, zz: &[i16; BLOCK_SIZE]) -> [i32; BLOCK_SIZE] {
        match self {
            DequantTables::Reference(q) => dequantize_reorder(zz, q),
            DequantTables::Fast(f) => dequantize_reorder_scaled(zz, f),
        }
    }
}

/// How the Fetch side assigns coefficient blocks to IDCT lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchPolicy {
    /// Strict round-robin by block index — the paper's schedule. Every
    /// lane's message budget is computable from the stream length, which
    /// is what keeps the Table 2 communication counts exact.
    #[default]
    RoundRobin,
    /// Queue-depth credit: each block goes to the lane with the fewest
    /// outstanding blocks (transport-reported mailbox depth × batch size
    /// plus locally buffered blocks, ties broken rotating). Per-lane
    /// budgets become data-dependent, so the pipeline switches to
    /// dynamic termination: Fetch ends each lane with an empty sentinel
    /// message and Reorder drains by total block count. The sentinels
    /// add one send per lane to the Fetch counters — Table 2 exactness
    /// is a [`DispatchPolicy::RoundRobin`] property.
    LeastLoaded,
}

/// Per-lane coefficient batch buffers for the Fetch side. A lane is
/// flushed when it holds `blocks_per_msg` blocks; batch size 1
/// degenerates to the paper's one-message-per-block schedule
/// (single-block wire format). The free-running SMP Fetch lets batches
/// span frame boundaries and flushes remainders once at stream end;
/// the MPSoC merged component round-trips every frame and therefore
/// flushes at each frame end ([`BatchSender::flush_all`]).
struct BatchSender {
    batch: usize,
    lanes: Vec<Vec<(u32, u32, [i32; BLOCK_SIZE])>>,
    dispatch: DispatchPolicy,
    /// Rotating tie-break start for least-loaded lane picks, so an idle
    /// pipeline does not funnel every block into lane 0.
    next_lane: usize,
    scratch: Vec<u8>,
    pool: Option<BufferPool>,
}

impl BatchSender {
    fn new(
        n_lanes: usize,
        batch: usize,
        dispatch: DispatchPolicy,
        pool: Option<BufferPool>,
    ) -> Self {
        BatchSender {
            batch: batch.max(1),
            lanes: vec![Vec::with_capacity(batch.max(1)); n_lanes],
            dispatch,
            next_lane: 0,
            scratch: Vec::new(),
            pool,
        }
    }

    fn flush_lane(
        &mut self,
        ctx: &mut dyn Ctx,
        ifaces: &[String],
        lane: usize,
    ) -> Result<(), EmberaError> {
        if self.lanes[lane].is_empty() {
            return Ok(());
        }
        let msg = if let Some(pool) = self.pool.as_ref() {
            // Pooled path serializes straight into the pool-owned buffer:
            // no scratch staging, no extra memcpy pass.
            let blocks = &self.lanes[lane];
            if self.batch == 1 {
                let (frame, bi, coeffs) = &blocks[0];
                pool.take_with(COEFF_REC, |dst| write_coeff_msg(dst, *frame, *bi, coeffs))
            } else {
                pool.take_with(4 + blocks.len() * COEFF_REC, |dst| {
                    write_coeff_batch(dst, blocks)
                })
            }
        } else {
            if self.batch == 1 {
                let (frame, bi, coeffs) = self.lanes[lane][0];
                encode_coeff_into(&mut self.scratch, frame, bi, &coeffs);
            } else {
                encode_coeff_batch_into(&mut self.scratch, &self.lanes[lane]);
            }
            Bytes::copy_from_slice(&self.scratch)
        };
        self.lanes[lane].clear();
        ctx.send(&ifaces[lane], msg)
    }

    /// Lane choice for one block, per the dispatch policy. Least-loaded
    /// weighs the transport's queue depth (in messages, scaled by the
    /// batch size) plus blocks buffered locally; backends that cannot
    /// report depth (no [`Ctx::route_depth`]) degrade to the local
    /// buffer counts, which rotation then keeps balanced.
    fn pick_lane(&mut self, ctx: &mut dyn Ctx, ifaces: &[String], bi: u32) -> usize {
        let n = self.lanes.len();
        match self.dispatch {
            DispatchPolicy::RoundRobin => bi as usize % n,
            DispatchPolicy::LeastLoaded => {
                let mut best = self.next_lane % n;
                let mut best_load = u64::MAX;
                for off in 0..n {
                    let lane = (self.next_lane + off) % n;
                    let queued = ctx.route_depth(&ifaces[lane]).unwrap_or(0);
                    let load = queued * self.batch as u64 + self.lanes[lane].len() as u64;
                    if load < best_load {
                        best_load = load;
                        best = lane;
                    }
                }
                self.next_lane = (best + 1) % n;
                best
            }
        }
    }

    fn push(
        &mut self,
        ctx: &mut dyn Ctx,
        ifaces: &[String],
        frame: u32,
        bi: u32,
        coeffs: [i32; BLOCK_SIZE],
    ) -> Result<(), EmberaError> {
        let lane = self.pick_lane(ctx, ifaces, bi);
        self.lanes[lane].push((frame, bi, coeffs));
        if self.lanes[lane].len() >= self.batch {
            self.flush_lane(ctx, ifaces, lane)?;
        }
        Ok(())
    }

    /// Flush every lane's remainder (frame end on MPSoC, stream end on
    /// SMP).
    fn flush_all(&mut self, ctx: &mut dyn Ctx, ifaces: &[String]) -> Result<(), EmberaError> {
        for lane in 0..self.lanes.len() {
            self.flush_lane(ctx, ifaces, lane)?;
        }
        Ok(())
    }

    /// End-of-stream sentinels for dynamic termination: one empty
    /// message per lane, telling each IDCT its input is exhausted.
    fn send_sentinels(&mut self, ctx: &mut dyn Ctx, ifaces: &[String]) -> Result<(), EmberaError> {
        for iface in ifaces {
            ctx.send(iface, Bytes::new())?;
        }
        Ok(())
    }
}

impl FetchBehavior {
    /// Fetch over `stream`, sending to the given required interfaces
    /// (one message per block, reference kernel — the paper's schedule).
    pub fn new(stream: MjpegStream, out_ifaces: Vec<String>, profile: WorkProfile) -> Self {
        Self::with_options(stream, out_ifaces, profile, 1, DctKind::ReferenceFloat)
    }

    /// Fetch with an explicit batch size and (de)quantization kernel.
    pub fn with_options(
        stream: MjpegStream,
        out_ifaces: Vec<String>,
        profile: WorkProfile,
        blocks_per_msg: usize,
        kernel: DctKind,
    ) -> Self {
        FetchBehavior {
            stream,
            out_ifaces,
            profile,
            blocks_per_msg: blocks_per_msg.max(1),
            kernel,
            dispatch: DispatchPolicy::RoundRobin,
            tolerant: None,
        }
    }

    /// Enable graceful degradation: a frame whose entropy data fails to
    /// decode is skipped (and counted on `probe.dropped_frames`) instead
    /// of aborting the component.
    pub fn tolerant(mut self, probe: PipelineProbe) -> Self {
        self.tolerant = Some(probe);
        self
    }

    /// Select the lane dispatch policy (default strict round-robin).
    /// Least-loaded dispatch appends one empty sentinel message per lane
    /// at stream end so dynamically terminated IDCTs know to stop.
    pub fn dispatch(mut self, policy: DispatchPolicy) -> Self {
        self.dispatch = policy;
        self
    }

    fn run_inner(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        let n_idct = self.out_ifaces.len();
        if self.stream.is_empty() {
            return Ok(());
        }
        // Frame 0: configuration probe — read geometry, prime tables.
        let header = self.stream.frames[0].header;
        let tables = DequantTables::for_kernel(self.kernel, header.quality);
        let blocks = header.blocks();
        ctx.compute(Work::ops(
            WorkClass::Control,
            self.profile.file_mgmt_ops_per_frame,
        ));

        let mut sender = BatchSender::new(
            n_idct,
            self.blocks_per_msg,
            self.dispatch,
            ctx.payload_pool(),
        );
        for (t, frame) in self.stream.frames.iter().enumerate().skip(1) {
            ctx.compute(Work::ops(
                WorkClass::Control,
                self.profile.file_mgmt_ops_per_frame,
            ));
            let mut dec = entropy_decoder(self.kernel, &frame.data);
            let mut bits_before = 0u64;
            if let Some(probe) = &self.tolerant {
                // Decode the whole frame before sending any of it: a
                // corrupt frame is dropped atomically, never half-sent.
                let mut buffered = Vec::with_capacity(blocks);
                let decoded = (0..blocks).try_for_each(|_| {
                    let zz = dec.next_block()?;
                    let bits = dec.bits_consumed() - bits_before;
                    bits_before = dec.bits_consumed();
                    buffered.push((bits, tables.apply(&zz)));
                    Ok::<(), crate::bitstream::OutOfBits>(())
                });
                if decoded.is_err() {
                    probe.dropped_frames.fetch_add(1, Ordering::AcqRel);
                    continue;
                }
                for (bi, (bits, coeffs)) in buffered.into_iter().enumerate() {
                    ctx.compute(
                        Work::ops(
                            WorkClass::Control,
                            bits * self.profile.huffman_ops_per_bit
                                + BLOCK_SIZE as u64 * self.profile.dequant_ops_per_coeff,
                        )
                        .with_mem(BLOCK_SIZE as u64 * 4),
                    );
                    sender.push(ctx, &self.out_ifaces, t as u32, bi as u32, coeffs)?;
                }
                continue;
            }
            for bi in 0..blocks {
                let zz = dec.next_block().map_err(|e| {
                    EmberaError::Platform(format!("frame {t} block {bi}: {e}"))
                })?;
                let bits = dec.bits_consumed() - bits_before;
                bits_before = dec.bits_consumed();
                let coeffs = tables.apply(&zz);
                ctx.compute(
                    Work::ops(
                        WorkClass::Control,
                        bits * self.profile.huffman_ops_per_bit
                            + BLOCK_SIZE as u64 * self.profile.dequant_ops_per_coeff,
                    )
                    .with_mem(BLOCK_SIZE as u64 * 4),
                );
                sender.push(ctx, &self.out_ifaces, t as u32, bi as u32, coeffs)?;
            }
        }
        // Stream end: flush partially filled lanes. Batches span frame
        // boundaries, so this is the only remainder flush of the run.
        sender.flush_all(ctx, &self.out_ifaces)?;
        if self.dispatch == DispatchPolicy::LeastLoaded {
            sender.send_sentinels(ctx, &self.out_ifaces)?;
        }
        Ok(())
    }
}

impl Behavior for FetchBehavior {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        self.run_inner(ctx)
    }
}

/// An IDCT component: receives coefficient blocks, applies the inverse
/// DCT, forwards pixel blocks.
pub struct IdctBehavior {
    in_iface: String,
    out_iface: String,
    /// Messages (single blocks at batch 1, batches otherwise) expected.
    expected: u64,
    profile: WorkProfile,
    blocks_per_msg: usize,
    kernel: DctKind,
    /// Tolerant mode: instead of a fixed message budget, drain the input
    /// until it stays idle (or shutdown). A restarted IDCT then resumes
    /// mid-stream without deadlocking on messages its first incarnation
    /// already consumed.
    tolerant: bool,
    /// Dynamic termination (least-loaded dispatch): the per-lane message
    /// budget is data-dependent, so ignore `expected` and drain until
    /// the sender's empty sentinel message arrives.
    dynamic: bool,
}

impl IdctBehavior {
    /// IDCT expecting `expected` single-block messages on `in_iface`,
    /// forwarding to `out_iface` (reference kernel).
    pub fn new(
        in_iface: impl Into<String>,
        out_iface: impl Into<String>,
        expected: u64,
        profile: WorkProfile,
    ) -> Self {
        Self::with_options(in_iface, out_iface, expected, profile, 1, DctKind::ReferenceFloat)
    }

    /// IDCT with an explicit batch size and kernel; `expected` counts
    /// *messages*, each carrying up to `blocks_per_msg` blocks.
    pub fn with_options(
        in_iface: impl Into<String>,
        out_iface: impl Into<String>,
        expected: u64,
        profile: WorkProfile,
        blocks_per_msg: usize,
        kernel: DctKind,
    ) -> Self {
        IdctBehavior {
            in_iface: in_iface.into(),
            out_iface: out_iface.into(),
            expected,
            profile,
            blocks_per_msg: blocks_per_msg.max(1),
            kernel,
            tolerant: false,
            dynamic: false,
        }
    }

    /// Enable graceful degradation: drain the input until idle instead
    /// of expecting a fixed message count.
    pub fn tolerant(mut self) -> Self {
        self.tolerant = true;
        self
    }

    /// Enable dynamic termination (for least-loaded dispatch): drain the
    /// input until the sender's empty sentinel message instead of
    /// expecting a fixed message count.
    pub fn dynamic(mut self) -> Self {
        self.dynamic = true;
        self
    }

    fn transform(&self, coeffs: &[i32; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
        match self.kernel {
            DctKind::ReferenceFloat => idct_to_pixels(coeffs),
            DctKind::FastAan => idct_scaled_to_pixels(coeffs),
            DctKind::FastSimd => crate::simd::idct_scaled_to_pixels_simd(coeffs),
        }
    }

    fn process_message(
        &self,
        ctx: &mut dyn Ctx,
        msg: &Bytes,
        out: &mut Vec<(u32, u32, [u8; BLOCK_SIZE])>,
        scratch: &mut Vec<u8>,
        pool: Option<&BufferPool>,
    ) -> Result<(), EmberaError> {
        if self.blocks_per_msg == 1 {
            let (frame, block, coeffs) = decode_coeff_msg(msg)?;
            let pixels = self.transform(&coeffs);
            ctx.compute(
                Work::ops(WorkClass::Dsp, self.profile.idct_ops_per_block)
                    .with_mem(BLOCK_SIZE as u64 * 5),
            );
            let msg = match pool {
                Some(p) => {
                    p.take_with(PIXEL_REC, |dst| write_pixel_msg(dst, frame, block, &pixels))
                }
                None => {
                    encode_pixel_into(scratch, frame, block, &pixels);
                    Bytes::copy_from_slice(scratch)
                }
            };
            return ctx.send(&self.out_iface, msg);
        }
        // Batched path: split the batch into zero-copy block views,
        // transform each, and answer with one pixel batch carrying
        // the same (frame, block) tags.
        let view = BatchView::coeffs(msg)?;
        out.clear();
        for i in 0..view.len() {
            let (frame, bi, payload) = view.block(i);
            let coeffs = coeffs_from_bytes(&payload)?;
            out.push((frame, bi, self.transform(&coeffs)));
        }
        ctx.compute(
            Work::ops(
                WorkClass::Dsp,
                self.profile.idct_ops_per_block * view.len() as u64,
            )
            .with_mem(BLOCK_SIZE as u64 * 5 * view.len() as u64),
        );
        let msg = match pool {
            Some(p) => {
                p.take_with(4 + out.len() * PIXEL_REC, |dst| write_pixel_batch(dst, out))
            }
            None => {
                encode_pixel_batch_into(scratch, out);
                Bytes::copy_from_slice(scratch)
            }
        };
        ctx.send(&self.out_iface, msg)
    }
}

impl Behavior for IdctBehavior {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        let mut out = Vec::with_capacity(self.blocks_per_msg);
        let mut scratch = Vec::new();
        let pool = ctx.payload_pool();
        if self.tolerant {
            loop {
                let msg = match ctx.recv_timeout(&self.in_iface, TOLERANT_IDLE_NS) {
                    Ok(Some(m)) => m,
                    Ok(None) | Err(EmberaError::Terminated) => return Ok(()),
                    Err(e) => return Err(e),
                };
                if msg.is_empty() {
                    // Stream-end sentinel (tolerant + least-loaded runs).
                    recycle_msg(pool.as_ref(), msg);
                    return Ok(());
                }
                self.process_message(ctx, &msg, &mut out, &mut scratch, pool.as_ref())?;
                recycle_msg(pool.as_ref(), msg);
            }
        }
        if self.dynamic {
            loop {
                let msg = ctx.recv(&self.in_iface)?;
                if msg.is_empty() {
                    // Stream-end sentinel from the dispatching sender.
                    recycle_msg(pool.as_ref(), msg);
                    return Ok(());
                }
                self.process_message(ctx, &msg, &mut out, &mut scratch, pool.as_ref())?;
                recycle_msg(pool.as_ref(), msg);
            }
        }
        for _ in 0..self.expected {
            let msg = ctx.recv(&self.in_iface)?;
            self.process_message(ctx, &msg, &mut out, &mut scratch, pool.as_ref())?;
            recycle_msg(pool.as_ref(), msg);
        }
        Ok(())
    }
}

/// Frame reassembly state shared by Reorder and Fetch-Reorder.
///
/// Frames fold into the checksum strictly in frame order via the
/// `next_out` watermark: under round-robin dispatch frames complete in
/// order anyway, and under least-loaded dispatch (where lanes drift) a
/// completed frame parks in `pending` until its predecessors fold — so
/// the checksum is identical across dispatch policies. Retired frame
/// buffers go on a free list and are reused, so steady-state reassembly
/// allocates nothing: every block of a frame is written exactly once
/// before the frame folds, which is what makes the unzeroed reuse safe.
struct Assembler {
    width: usize,
    height: usize,
    blocks: usize,
    partial: HashMap<u32, (Vec<u8>, usize)>,
    /// Completed frames waiting on a slower predecessor, keyed by frame
    /// index. Empty for the whole run under round-robin dispatch.
    pending: BTreeMap<u32, Vec<u8>>,
    /// Retired frame buffers for reuse.
    free: Vec<Vec<u8>>,
    next_out: u32,
    probe: PipelineProbe,
}

impl Assembler {
    fn new(width: usize, height: usize, probe: PipelineProbe) -> Self {
        Assembler {
            width,
            height,
            blocks: (width / 8) * (height / 8),
            partial: HashMap::new(),
            pending: BTreeMap::new(),
            free: Vec::new(),
            next_out: 1,
            probe,
        }
    }

    /// Fold one completed frame and retire its buffer to the free list.
    fn fold(&mut self, pixels: Vec<u8>) {
        self.probe.fold_frame(&pixels);
        self.free.push(pixels);
        self.next_out += 1;
    }

    fn add(&mut self, frame: u32, block: u32, pixels: &[u8; BLOCK_SIZE]) {
        if !self.partial.contains_key(&frame) {
            let buf = self
                .free
                .pop()
                .unwrap_or_else(|| vec![0u8; self.width * self.height]);
            self.partial.insert(frame, (buf, 0));
        }
        let entry = self.partial.get_mut(&frame).unwrap();
        place_block(&mut entry.0, self.width, block as usize, pixels);
        entry.1 += 1;
        if entry.1 == self.blocks {
            let (pixels, _) = self.partial.remove(&frame).unwrap();
            if frame == self.next_out {
                self.fold(pixels);
                // A completed frame may have unblocked its successors.
                while let Some(parked) = self.pending.remove(&self.next_out) {
                    self.fold(parked);
                }
            } else {
                self.pending.insert(frame, pixels);
            }
        }
    }

    /// Fold every parked frame in frame order, skipping over gaps. Used
    /// at end of a tolerant run: a frame dropped upstream leaves a hole
    /// the watermark would otherwise wait on forever.
    fn flush(&mut self) {
        while let Some((&frame, _)) = self.pending.iter().next() {
            self.next_out = frame;
            let pixels = self.pending.remove(&frame).unwrap();
            self.fold(pixels);
        }
    }
}

/// The Reorder component: "reassembles images and eventually sends data
/// to an output display" (§3.2). Receives pixel blocks from the IDCT
/// components round-robin.
pub struct ReorderBehavior {
    in_ifaces: Vec<String>,
    total_blocks: u64,
    width: usize,
    height: usize,
    profile: WorkProfile,
    probe: PipelineProbe,
    blocks_per_msg: usize,
    /// Tolerant mode: drain lanes until they stay idle instead of
    /// expecting `total_blocks`; frames still incomplete at exit are
    /// counted on `probe.dropped_frames` rather than deadlocking.
    tolerant: bool,
    /// Dynamic termination (least-loaded dispatch): per-lane message
    /// budgets are data-dependent, so poll lanes round-robin and stop
    /// once `total_blocks` blocks have arrived.
    dynamic: bool,
}

/// Lane poll slice for dynamically terminated Reorder: long enough to
/// park rather than spin, short enough to hop to a busier lane quickly.
const DYNAMIC_POLL_NS: u64 = 200_000;

impl ReorderBehavior {
    /// Reorder expecting `total_blocks` pixel blocks distributed
    /// round-robin over `in_ifaces`, one block per message.
    pub fn new(
        in_ifaces: Vec<String>,
        total_blocks: u64,
        width: usize,
        height: usize,
        profile: WorkProfile,
        probe: PipelineProbe,
    ) -> Self {
        Self::with_options(in_ifaces, total_blocks, width, height, profile, probe, 1)
    }

    /// Reorder with an explicit batch size (must match the Fetch side).
    #[allow(clippy::too_many_arguments)]
    pub fn with_options(
        in_ifaces: Vec<String>,
        total_blocks: u64,
        width: usize,
        height: usize,
        profile: WorkProfile,
        probe: PipelineProbe,
        blocks_per_msg: usize,
    ) -> Self {
        ReorderBehavior {
            in_ifaces,
            total_blocks,
            width,
            height,
            profile,
            probe,
            blocks_per_msg: blocks_per_msg.max(1),
            tolerant: false,
            dynamic: false,
        }
    }

    /// Enable graceful degradation: drain lanes until idle and count
    /// incomplete frames as dropped instead of requiring the full block
    /// budget.
    pub fn tolerant(mut self) -> Self {
        self.tolerant = true;
        self
    }

    /// Enable dynamic termination (for least-loaded dispatch): poll
    /// lanes and stop after `total_blocks` blocks instead of following
    /// the round-robin quota schedule.
    pub fn dynamic(mut self) -> Self {
        self.dynamic = true;
        self
    }

    /// Fold one pixel message (single block or batch, per the configured
    /// wire format) into the assembler, charging reorder work. Consumes
    /// the message and gives its buffer back to the pool; returns the
    /// number of blocks it carried.
    fn absorb(
        &self,
        ctx: &mut dyn Ctx,
        asm: &mut Assembler,
        msg: Bytes,
        pool: Option<&BufferPool>,
    ) -> Result<u64, EmberaError> {
        let blocks = if self.blocks_per_msg == 1 {
            let (frame, block, pixels) = decode_pixel_msg(&msg)?;
            asm.add(frame, block, &pixels);
            1u64
        } else {
            let view = BatchView::pixels(&msg)?;
            for i in 0..view.len() {
                let (frame, bi, payload) = view.block(i);
                let mut px = [0u8; BLOCK_SIZE];
                px.copy_from_slice(&payload);
                asm.add(frame, bi, &px);
            }
            view.len() as u64
        };
        recycle_msg(pool, msg);
        ctx.compute(
            Work::ops(
                WorkClass::MemCopy,
                BLOCK_SIZE as u64 * self.profile.reorder_ops_per_pixel * blocks,
            )
            .with_mem(BLOCK_SIZE as u64 * 2 * blocks),
        );
        Ok(blocks)
    }

    /// Tolerant drain: poll lanes round-robin with an idle deadline and
    /// stop after one full round of silence (or shutdown). Whatever is
    /// still partially assembled then was lost upstream — count it.
    fn run_tolerant(&mut self, ctx: &mut dyn Ctx, asm: &mut Assembler) -> Result<(), EmberaError> {
        let pool = ctx.payload_pool();
        'drain: loop {
            let mut got_any = false;
            for lane in 0..self.in_ifaces.len() {
                match ctx.recv_timeout(&self.in_ifaces[lane], TOLERANT_IDLE_NS) {
                    Ok(Some(msg)) => {
                        got_any = true;
                        self.absorb(ctx, asm, msg, pool.as_ref())?;
                    }
                    Ok(None) => {}
                    Err(EmberaError::Terminated) => break 'drain,
                    Err(e) => return Err(e),
                }
            }
            if !got_any {
                break;
            }
        }
        // A frame dropped upstream leaves a hole in the frame sequence;
        // fold the completed frames parked behind it before counting
        // what is still partial.
        asm.flush();
        let leftover = asm.partial.len() as u64;
        if leftover > 0 {
            self.probe.dropped_frames.fetch_add(leftover, Ordering::AcqRel);
        }
        Ok(())
    }

    /// Dynamic drain (least-loaded dispatch): lanes owe no fixed quota,
    /// so poll them round-robin with a short slice until the stream's
    /// full block count has arrived.
    fn run_dynamic(&mut self, ctx: &mut dyn Ctx, asm: &mut Assembler) -> Result<(), EmberaError> {
        let pool = ctx.payload_pool();
        let mut received = 0u64;
        'drain: while received < self.total_blocks {
            for lane in 0..self.in_ifaces.len() {
                match ctx.recv_timeout(&self.in_ifaces[lane], DYNAMIC_POLL_NS) {
                    Ok(Some(msg)) => {
                        received += self.absorb(ctx, asm, msg, pool.as_ref())?;
                        if received >= self.total_blocks {
                            break 'drain;
                        }
                    }
                    Ok(None) => {}
                    Err(EmberaError::Terminated) => break 'drain,
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }
}

impl Behavior for ReorderBehavior {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        let mut asm = Assembler::new(self.width, self.height, self.probe.clone());
        let n = self.in_ifaces.len();
        let per_frame = asm.blocks;
        if self.tolerant {
            return self.run_tolerant(ctx, &mut asm);
        }
        if self.dynamic {
            return self.run_dynamic(ctx, &mut asm);
        }
        let pool = ctx.payload_pool();
        if self.blocks_per_msg == 1 {
            for i in 0..self.total_blocks {
                // Global block index within its frame selects the lane.
                let lane = (i as usize % per_frame) % n;
                let msg = ctx.recv(&self.in_ifaces[lane])?;
                self.absorb(ctx, &mut asm, msg, pool.as_ref())?;
            }
            return Ok(());
        }
        // Batched path: batches span frame boundaries, so each lane owes
        // a fixed total message count for the whole run (its block share,
        // flushed every `blocks_per_msg` blocks, remainder at stream
        // end). Lanes are drained round-robin one message at a time to
        // keep the partial-frame window small; per-lane FIFO order makes
        // frames complete — and fold into the checksum — in frame order.
        if per_frame == 0 {
            return Ok(());
        }
        let frames = self.total_blocks / per_frame as u64;
        let quota: Vec<u64> = (0..n)
            .map(|lane| {
                lane_msgs_total(
                    lane_share(per_frame as u64, n, lane),
                    frames,
                    self.blocks_per_msg,
                )
            })
            .collect();
        let rounds = quota.iter().copied().max().unwrap_or(0);
        for round in 0..rounds {
            for (lane, &lane_quota) in quota.iter().enumerate() {
                if round >= lane_quota {
                    continue;
                }
                let msg = ctx.recv(&self.in_ifaces[lane])?;
                self.absorb(ctx, &mut asm, msg, pool.as_ref())?;
            }
        }
        Ok(())
    }
}

/// The merged Fetch-Reorder component of the MPSoC deployment (§5.3):
/// per frame, decodes and sends all blocks to the IDCTs, then receives
/// and reassembles that frame's pixel blocks.
pub struct FetchReorderBehavior {
    stream: MjpegStream,
    out_ifaces: Vec<String>,
    in_ifaces: Vec<String>,
    profile: WorkProfile,
    probe: PipelineProbe,
    blocks_per_msg: usize,
    kernel: DctKind,
}

impl FetchReorderBehavior {
    /// Build the merged component (one block per message, reference
    /// kernel — the paper's schedule).
    pub fn new(
        stream: MjpegStream,
        out_ifaces: Vec<String>,
        in_ifaces: Vec<String>,
        profile: WorkProfile,
        probe: PipelineProbe,
    ) -> Self {
        Self::with_options(stream, out_ifaces, in_ifaces, profile, probe, 1, DctKind::ReferenceFloat)
    }

    /// Merged component with an explicit batch size and kernel.
    #[allow(clippy::too_many_arguments)]
    pub fn with_options(
        stream: MjpegStream,
        out_ifaces: Vec<String>,
        in_ifaces: Vec<String>,
        profile: WorkProfile,
        probe: PipelineProbe,
        blocks_per_msg: usize,
        kernel: DctKind,
    ) -> Self {
        FetchReorderBehavior {
            stream,
            out_ifaces,
            in_ifaces,
            profile,
            probe,
            blocks_per_msg: blocks_per_msg.max(1),
            kernel,
        }
    }
}

impl Behavior for FetchReorderBehavior {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        if self.stream.is_empty() {
            return Ok(());
        }
        let n = self.out_ifaces.len();
        let batch = self.blocks_per_msg;
        let header = self.stream.frames[0].header;
        let tables = DequantTables::for_kernel(self.kernel, header.quality);
        let blocks = header.blocks();
        let mut asm = Assembler::new(
            header.width as usize,
            header.height as usize,
            self.probe.clone(),
        );
        ctx.compute(Work::ops(
            WorkClass::Control,
            self.profile.file_mgmt_ops_per_frame,
        ));
        let pool = ctx.payload_pool();
        // The merged component's per-frame round trip is inherently a
        // full-barrier schedule; least-loaded dispatch is an SMP-builder
        // feature, so the sender always deals round-robin here.
        let mut sender = BatchSender::new(n, batch, DispatchPolicy::RoundRobin, pool.clone());
        for (t, frame) in self.stream.frames.iter().enumerate().skip(1) {
            ctx.compute(Work::ops(
                WorkClass::Control,
                self.profile.file_mgmt_ops_per_frame,
            ));
            // Fetch half: decode + distribute this frame's blocks.
            let mut dec = entropy_decoder(self.kernel, &frame.data);
            let mut bits_before = 0u64;
            for bi in 0..blocks {
                let zz = dec.next_block().map_err(|e| {
                    EmberaError::Platform(format!("frame {t} block {bi}: {e}"))
                })?;
                let bits = dec.bits_consumed() - bits_before;
                bits_before = dec.bits_consumed();
                let coeffs = tables.apply(&zz);
                ctx.compute(
                    Work::ops(
                        WorkClass::Control,
                        bits * self.profile.huffman_ops_per_bit
                            + BLOCK_SIZE as u64 * self.profile.dequant_ops_per_coeff,
                    )
                    .with_mem(BLOCK_SIZE as u64 * 4),
                );
                sender.push(ctx, &self.out_ifaces, t as u32, bi as u32, coeffs)?;
            }
            // The merged component round-trips each frame (send all its
            // blocks, then collect its pixels), so remainders flush at
            // frame end — batches never span frames on MPSoC.
            sender.flush_all(ctx, &self.out_ifaces)?;
            // Reorder half: collect this frame's pixel blocks. The IDCTs
            // answer each coefficient message with one pixel message, so
            // each lane owes its per-frame batch count.
            if batch == 1 {
                for bi in 0..blocks {
                    let lane = bi % n;
                    let msg = ctx.recv(&self.in_ifaces[lane])?;
                    let (f, b, pixels) = decode_pixel_msg(&msg)?;
                    recycle_msg(pool.as_ref(), msg);
                    ctx.compute(
                        Work::ops(
                            WorkClass::MemCopy,
                            BLOCK_SIZE as u64 * self.profile.reorder_ops_per_pixel,
                        )
                        .with_mem(BLOCK_SIZE as u64 * 2),
                    );
                    asm.add(f, b, &pixels);
                }
            } else {
                for (lane, in_iface) in self.in_ifaces.iter().enumerate() {
                    let msgs = lane_msgs_per_frame(lane_share(blocks as u64, n, lane), batch);
                    for _ in 0..msgs {
                        let msg = ctx.recv(in_iface)?;
                        let count = {
                            let view = BatchView::pixels(&msg)?;
                            for i in 0..view.len() {
                                let (f, bi, payload) = view.block(i);
                                let mut px = [0u8; BLOCK_SIZE];
                                px.copy_from_slice(&payload);
                                asm.add(f, bi, &px);
                            }
                            view.len() as u64
                        };
                        recycle_msg(pool.as_ref(), msg);
                        ctx.compute(
                            Work::ops(
                                WorkClass::MemCopy,
                                BLOCK_SIZE as u64 * self.profile.reorder_ops_per_pixel * count,
                            )
                            .with_mem(BLOCK_SIZE as u64 * 2 * count),
                        );
                    }
                }
            }
        }
        Ok(())
    }
}

/// Configuration of the componentized application builders.
#[derive(Debug, Clone)]
pub struct MjpegAppConfig {
    /// Number of IDCT components (paper: 3 on SMP, 2 on the STi7200).
    pub idct_count: usize,
    /// Work annotations.
    pub profile: WorkProfile,
    /// Component stack size. Default 8 392 000 bytes — the paper's
    /// measured Linux thread stack ("8 392 kb").
    pub stack_bytes: u64,
    /// Coefficient/pixel blocks carried per message. The default of 1
    /// preserves the paper's exact send-count structure (Table 2); larger
    /// batches amortize per-message cost for throughput runs.
    pub blocks_per_msg: usize,
    /// Which (I)DCT kernel the pipeline runs. The reference float kernel
    /// is the default; [`DctKind::FastAan`] selects the fixed-point AAN
    /// fast path with dequantization folded into prescaled tables;
    /// [`DctKind::FastSimd`] adds runtime-detected SSE2/AVX2 vectors on
    /// top of the same arithmetic.
    pub kernel: DctKind,
    /// How Fetch deals blocks over the IDCT lanes. The round-robin
    /// default is the paper's schedule with exact Table 2 counts;
    /// [`DispatchPolicy::LeastLoaded`] balances by queue depth and
    /// switches the SMP pipeline to dynamic (sentinel / block-count)
    /// termination. The MPSoC merged builder ignores this (its
    /// per-frame round trip is already a barrier schedule).
    pub dispatch: DispatchPolicy,
    /// Attach a shared payload [`BufferPool`] sized to the configured
    /// batch so steady-state messaging allocates nothing on backends
    /// that support pooling (the threaded SMP transport). Default off:
    /// identical behavior, one heap allocation per serialized message.
    pub payload_pool: bool,
    /// Graceful degradation for the SMP pipeline: a corrupt frame is
    /// skipped by Fetch (counted on [`PipelineProbe::dropped_frames`]),
    /// IDCTs drain their input until idle instead of expecting a fixed
    /// budget (so a supervised restart resumes mid-stream), and Reorder
    /// counts frames left incomplete by lost blocks instead of
    /// deadlocking. Default `false`: any decode error fails the run —
    /// the paper's strict message-budget schedule. The MPSoC merged
    /// builder ignores this flag (its per-frame round trip cannot skip
    /// frames without desynchronizing the IDCT lanes).
    pub tolerate_corrupt_frames: bool,
}

impl Default for MjpegAppConfig {
    fn default() -> Self {
        MjpegAppConfig {
            idct_count: 3,
            profile: WorkProfile::default(),
            stack_bytes: 8_392_000,
            blocks_per_msg: 1,
            kernel: DctKind::ReferenceFloat,
            dispatch: DispatchPolicy::default(),
            payload_pool: false,
            tolerate_corrupt_frames: false,
        }
    }
}

/// Buffer pool sized for a pipeline configuration: one size class that
/// fits the largest message (a full coefficient batch; single-block and
/// pixel messages are smaller and ride in the same buffers).
pub fn pipeline_pool(cfg: &MjpegAppConfig) -> BufferPool {
    let pool = BufferPool::new(4 + cfg.blocks_per_msg.max(1) * COEFF_REC);
    // Enough buffers for the in-flight window of every lane plus slack;
    // the pool grows on demand if a queue builds deeper.
    pool.prewarm(16 * (cfg.idct_count + 2));
    pool
}

/// Build the SMP application (paper Figures 1 & 3): Fetch, `idct_count`
/// IDCTs, Reorder. Returns the builder (so callers can attach an
/// observer) plus a [`PipelineProbe`].
pub fn build_smp_app(stream: MjpegStream, cfg: &MjpegAppConfig) -> (AppBuilder, PipelineProbe) {
    assert!(cfg.idct_count >= 1);
    let probe = PipelineProbe::default();
    let header = stream.frames.first().map(|f| f.header);
    let blocks = header.map(|h| h.blocks()).unwrap_or(0) as u64;
    let frames_forwarded = stream.len().saturating_sub(1) as u64;
    let total_blocks = frames_forwarded * blocks;

    let mut app = AppBuilder::new("MJPEG");
    if cfg.payload_pool {
        app.with_buffer_pool(pipeline_pool(cfg));
    }
    let fetch_outs: Vec<String> = (1..=cfg.idct_count)
        .map(|k| format!("fetchIdct{k}"))
        .collect();
    let mut fetch_behavior = FetchBehavior::with_options(
        stream,
        fetch_outs.clone(),
        cfg.profile,
        cfg.blocks_per_msg,
        cfg.kernel,
    )
    .dispatch(cfg.dispatch);
    if cfg.tolerate_corrupt_frames {
        fetch_behavior = fetch_behavior.tolerant(probe.clone());
    }
    let mut fetch = ComponentSpec::new("Fetch", fetch_behavior).with_stack_bytes(cfg.stack_bytes);
    for iface in &fetch_outs {
        fetch = fetch.with_required(iface);
    }
    app.add(fetch);

    for k in 1..=cfg.idct_count {
        // Per-IDCT share: blocks are dealt round-robin, so lane k-1 gets
        // the blocks with index ≡ k-1 (mod idct_count) in every frame.
        // Batches span frames on SMP, so the message count is the lane's
        // whole-run block total divided by the batch size (rounded up
        // for the stream-end remainder flush).
        let per_frame = lane_share(blocks, cfg.idct_count, k - 1);
        let expected = lane_msgs_total(per_frame, frames_forwarded, cfg.blocks_per_msg);
        let mut idct = IdctBehavior::with_options(
            format!("_fetchIdct{k}"),
            "idctReorder",
            expected,
            cfg.profile,
            cfg.blocks_per_msg,
            cfg.kernel,
        );
        if cfg.dispatch == DispatchPolicy::LeastLoaded {
            idct = idct.dynamic();
        }
        if cfg.tolerate_corrupt_frames {
            idct = idct.tolerant();
        }
        app.add(
            ComponentSpec::new(format!("IDCT_{k}"), idct)
                .with_provided(format!("_fetchIdct{k}"))
                .with_required("idctReorder")
                .with_stack_bytes(cfg.stack_bytes)
                .on_cpu(k),
        );
        app.connect(
            ("Fetch", &format!("fetchIdct{k}")),
            (&format!("IDCT_{k}"), &format!("_fetchIdct{k}")),
        );
    }

    let reorder_ins: Vec<String> = (1..=cfg.idct_count)
        .map(|k| format!("_idct{k}Reorder"))
        .collect();
    let (w, h) = header.map(|h| (h.width as usize, h.height as usize)).unwrap_or((8, 8));
    let mut reorder_behavior = ReorderBehavior::with_options(
        reorder_ins.clone(),
        total_blocks,
        w,
        h,
        cfg.profile,
        probe.clone(),
        cfg.blocks_per_msg,
    );
    if cfg.dispatch == DispatchPolicy::LeastLoaded {
        reorder_behavior = reorder_behavior.dynamic();
    }
    if cfg.tolerate_corrupt_frames {
        reorder_behavior = reorder_behavior.tolerant();
    }
    let mut reorder = ComponentSpec::new("Reorder", reorder_behavior).with_stack_bytes(cfg.stack_bytes);
    for m in probe.metrics() {
        reorder = reorder.with_metric(m);
    }
    for iface in &reorder_ins {
        reorder = reorder.with_provided(iface);
    }
    app.add(reorder);
    for k in 1..=cfg.idct_count {
        app.connect(
            (&format!("IDCT_{k}"), "idctReorder"),
            ("Reorder", &format!("_idct{k}Reorder")),
        );
    }
    (app, probe)
}

/// Build the MPSoC application (paper Figure 7): Fetch-Reorder on the
/// ST40 (CPU 0) and `idct_count` IDCTs on ST231 accelerators (CPUs
/// 1..). Defaults to the paper's two IDCTs.
pub fn build_mpsoc_app(stream: MjpegStream, cfg: &MjpegAppConfig) -> (AppBuilder, PipelineProbe) {
    assert!(cfg.idct_count >= 1);
    let probe = PipelineProbe::default();
    let header = stream.frames.first().map(|f| f.header);
    let blocks = header.map(|h| h.blocks()).unwrap_or(0) as u64;
    let frames_forwarded = stream.len().saturating_sub(1) as u64;

    let mut app = AppBuilder::new("MJPEG-MPSoC");
    if cfg.payload_pool {
        app.with_buffer_pool(pipeline_pool(cfg));
    }
    let outs: Vec<String> = (1..=cfg.idct_count)
        .map(|k| format!("fetchIdct{k}"))
        .collect();
    let ins: Vec<String> = (1..=cfg.idct_count)
        .map(|k| format!("_idct{k}Reorder"))
        .collect();
    let mut fr = ComponentSpec::new(
        "Fetch-Reorder",
        FetchReorderBehavior::with_options(
            stream,
            outs.clone(),
            ins.clone(),
            cfg.profile,
            probe.clone(),
            cfg.blocks_per_msg,
            cfg.kernel,
        ),
    )
    .with_stack_bytes(16 * 1024)
    .on_cpu(0);
    for m in probe.metrics() {
        fr = fr.with_metric(m);
    }
    for iface in &outs {
        fr = fr.with_required(iface);
    }
    for iface in &ins {
        fr = fr.with_provided(iface);
    }
    app.add(fr);

    for k in 1..=cfg.idct_count {
        let per_frame = lane_share(blocks, cfg.idct_count, k - 1);
        let expected = frames_forwarded * lane_msgs_per_frame(per_frame, cfg.blocks_per_msg);
        app.add(
            ComponentSpec::new(
                format!("IDCT_{k}"),
                IdctBehavior::with_options(
                    format!("_fetchIdct{k}"),
                    "idctReorder",
                    expected,
                    cfg.profile,
                    cfg.blocks_per_msg,
                    cfg.kernel,
                ),
            )
            .with_provided(format!("_fetchIdct{k}"))
            .with_required("idctReorder")
            .with_stack_bytes(16 * 1024)
            .on_cpu(k),
        );
        app.connect(
            ("Fetch-Reorder", &format!("fetchIdct{k}")),
            (&format!("IDCT_{k}"), &format!("_fetchIdct{k}")),
        );
        app.connect(
            (&format!("IDCT_{k}"), "idctReorder"),
            ("Fetch-Reorder", &format!("_idct{k}Reorder")),
        );
    }
    (app, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::synthesize_stream;
    use embera::{Platform, RunningApp};
    use embera_smp::SmpPlatform;

    fn small_stream(frames: usize) -> MjpegStream {
        synthesize_stream(frames, 48, 24, 75, 0xBEEF)
    }

    #[test]
    fn coeff_msg_round_trip() {
        let mut coeffs = [0i32; BLOCK_SIZE];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = (i as i32 - 32) * 100;
        }
        let b = encode_coeff_msg(7, 11, &coeffs);
        assert_eq!(decode_coeff_msg(&b).unwrap(), (7, 11, coeffs));
    }

    #[test]
    fn pixel_msg_round_trip() {
        let mut px = [0u8; BLOCK_SIZE];
        for (i, p) in px.iter_mut().enumerate() {
            *p = i as u8 * 3;
        }
        let b = encode_pixel_msg(3, 17, &px);
        assert_eq!(decode_pixel_msg(&b).unwrap(), (3, 17, px));
    }

    #[test]
    fn malformed_messages_rejected() {
        assert!(decode_coeff_msg(&[0u8; 10]).is_err());
        assert!(decode_pixel_msg(&[0u8; 10]).is_err());
    }

    #[test]
    fn smp_pipeline_decodes_all_frames() {
        let (app, probe) = build_smp_app(small_stream(11), &MjpegAppConfig::default());
        let report = SmpPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        // 10 frames forwarded (first consumed for configuration).
        assert_eq!(probe.frames_completed.load(Ordering::SeqCst), 10);
        assert_eq!(report.component("Fetch").unwrap().app.total_sends, 180);
        for k in 1..=3 {
            let r = report.component(&format!("IDCT_{k}")).unwrap();
            assert_eq!(r.app.total_receives, 60);
            assert_eq!(r.app.total_sends, 60);
        }
        assert_eq!(report.component("Reorder").unwrap().app.total_receives, 180);
    }

    #[test]
    fn pipeline_output_matches_reference_decode() {
        // The checksum of the pipeline's reassembled frames must equal a
        // straight single-threaded decode of frames 1..N.
        let stream = small_stream(6);
        let mut expected = PipelineProbe::default();
        for f in &stream.frames[1..] {
            let px = crate::codec::decode_frame(&f.data, 48, 24, 75).unwrap();
            expected.fold_frame(&px);
        }
        let (app, probe) = build_smp_app(stream, &MjpegAppConfig::default());
        SmpPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            probe.checksum.load(Ordering::SeqCst),
            expected.checksum.load(Ordering::SeqCst),
            "componentized decode must be bit-identical to reference"
        );
        let _ = &mut expected;
    }

    #[test]
    fn coeff_batch_round_trip_is_zero_copy() {
        let mut c0 = [0i32; BLOCK_SIZE];
        let mut c1 = [0i32; BLOCK_SIZE];
        for i in 0..BLOCK_SIZE {
            c0[i] = i as i32 * 7 - 100;
            c1[i] = -(i as i32) * 3 + 40;
        }
        // Records from two different frames in one batch: batches span
        // frame boundaries on the SMP pipeline.
        let b = encode_coeff_batch(&[(9, 4, c0), (10, 7, c1)]);
        let view = BatchView::coeffs(&b).unwrap();
        assert_eq!(view.len(), 2);
        let (f0, bi0, p0) = view.block(0);
        let (f1, bi1, p1) = view.block(1);
        assert_eq!((f0, bi0, f1, bi1), (9, 4, 10, 7));
        assert_eq!(coeffs_from_bytes(&p0).unwrap(), c0);
        assert_eq!(coeffs_from_bytes(&p1).unwrap(), c1);
        // Zero-copy: the block views alias the batch buffer.
        assert_eq!(p0.as_ptr(), b[12..].as_ptr());
    }

    #[test]
    fn pixel_batch_round_trip() {
        let px = [7u8; BLOCK_SIZE];
        let b = encode_pixel_batch(&[(3, 11, px)]);
        let view = BatchView::pixels(&b).unwrap();
        assert_eq!(view.len(), 1);
        let (f, bi, payload) = view.block(0);
        assert_eq!((f, bi), (3, 11));
        assert_eq!(&payload[..], &px[..]);
    }

    #[test]
    fn malformed_batches_rejected() {
        assert!(BatchView::coeffs(&Bytes::from_static(&[0u8; 4])).is_err());
        // Count says 2 but only one record present.
        let one = [1u8; BLOCK_SIZE];
        let mut b = encode_pixel_batch(&[(1, 0, one)]).to_vec();
        b[0..4].copy_from_slice(&2u32.to_le_bytes());
        assert!(BatchView::pixels(&Bytes::from(b)).is_err());
        // Zero-count batches are invalid.
        let empty = encode_pixel_batch(&[]);
        assert!(BatchView::pixels(&empty).is_err());
    }

    #[test]
    fn batched_smp_pipeline_same_output_fewer_messages() {
        // Batching must not change decoded output, only message counts:
        // with 18 blocks/frame over 3 lanes, each lane holds 6 blocks per
        // frame, so batch=6 folds them into one message per lane-frame.
        let stream = small_stream(9);
        let (ref_app, ref_probe) = build_smp_app(stream.clone(), &MjpegAppConfig::default());
        SmpPlatform::new().deploy(ref_app.build().unwrap()).unwrap().wait().unwrap();

        let cfg = MjpegAppConfig {
            blocks_per_msg: 6,
            ..MjpegAppConfig::default()
        };
        let (app, probe) = build_smp_app(stream, &cfg);
        let report = SmpPlatform::new().deploy(app.build().unwrap()).unwrap().wait().unwrap();
        assert_eq!(probe.frames_completed.load(Ordering::SeqCst), 8);
        assert_eq!(
            probe.checksum.load(Ordering::SeqCst),
            ref_probe.checksum.load(Ordering::SeqCst),
            "batching changed the decoded pixels"
        );
        // 8 forwarded frames × 3 lanes × 1 batch.
        assert_eq!(report.component("Fetch").unwrap().app.total_sends, 24);
        for k in 1..=3 {
            let r = report.component(&format!("IDCT_{k}")).unwrap();
            assert_eq!(r.app.total_receives, 8);
            assert_eq!(r.app.total_sends, 8);
        }
        assert_eq!(report.component("Reorder").unwrap().app.total_receives, 24);
    }

    #[test]
    fn batch_not_dividing_lane_share_still_decodes() {
        // batch=4 over a 6-block lane share: batches straddle frame
        // boundaries (4 forwarded frames × 6 = 24 blocks per lane →
        // 6 messages per lane, no per-frame remainder flush).
        let stream = small_stream(5);
        let expected = PipelineProbe::default();
        for f in &stream.frames[1..] {
            let px = crate::codec::decode_frame(&f.data, 48, 24, 75).unwrap();
            expected.fold_frame(&px);
        }
        let cfg = MjpegAppConfig {
            blocks_per_msg: 4,
            ..MjpegAppConfig::default()
        };
        let (app, probe) = build_smp_app(stream, &cfg);
        let report = SmpPlatform::new().deploy(app.build().unwrap()).unwrap().wait().unwrap();
        assert_eq!(
            probe.checksum.load(Ordering::SeqCst),
            expected.checksum.load(Ordering::SeqCst)
        );
        assert_eq!(report.component("Fetch").unwrap().app.total_sends, 3 * 6);
    }

    #[test]
    fn fast_kernel_smp_pipeline_matches_fast_reference_decode() {
        // The fast-kernel pipeline must be bit-identical to a straight
        // single-threaded fast-kernel decode (the kernels are exact
        // integer arithmetic, so the distribution over components cannot
        // perturb the output).
        let stream = small_stream(6);
        let expected = PipelineProbe::default();
        for f in &stream.frames[1..] {
            let px =
                crate::codec::decode_frame_with(&f.data, 48, 24, 75, DctKind::FastAan).unwrap();
            expected.fold_frame(&px);
        }
        let cfg = MjpegAppConfig {
            kernel: DctKind::FastAan,
            blocks_per_msg: 3,
            ..MjpegAppConfig::default()
        };
        let (app, probe) = build_smp_app(stream, &cfg);
        SmpPlatform::new().deploy(app.build().unwrap()).unwrap().wait().unwrap();
        assert_eq!(
            probe.checksum.load(Ordering::SeqCst),
            expected.checksum.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn batched_mpsoc_pipeline_decodes_all_frames() {
        let cfg = MjpegAppConfig {
            idct_count: 2,
            blocks_per_msg: 9,
            kernel: DctKind::FastAan,
            ..MjpegAppConfig::default()
        };
        let (app, probe) = build_mpsoc_app(small_stream(7), &cfg);
        let report = SmpPlatform::new().deploy(app.build().unwrap()).unwrap().wait().unwrap();
        assert_eq!(probe.frames_completed.load(Ordering::SeqCst), 6);
        // Each lane holds 9 blocks per frame: exactly one batch each.
        assert_eq!(
            report.component("Fetch-Reorder").unwrap().app.total_sends,
            6 * 2
        );
        for k in 1..=2 {
            let r = report.component(&format!("IDCT_{k}")).unwrap();
            assert_eq!(r.app.total_receives, 6);
            assert_eq!(r.app.total_sends, 6);
        }
    }

    #[test]
    fn pooled_pipeline_is_invisible_to_output_and_counters() {
        // Attaching the payload pool must change nothing observable:
        // same checksum, same Table 2 message counts at batch size 1.
        let stream = small_stream(11);
        let (ref_app, ref_probe) = build_smp_app(stream.clone(), &MjpegAppConfig::default());
        SmpPlatform::new().deploy(ref_app.build().unwrap()).unwrap().wait().unwrap();

        let cfg = MjpegAppConfig {
            payload_pool: true,
            ..MjpegAppConfig::default()
        };
        let (app, probe) = build_smp_app(stream, &cfg);
        let report = SmpPlatform::new().deploy(app.build().unwrap()).unwrap().wait().unwrap();
        assert_eq!(probe.frames_completed.load(Ordering::SeqCst), 10);
        assert_eq!(
            probe.checksum.load(Ordering::SeqCst),
            ref_probe.checksum.load(Ordering::SeqCst),
            "pooling changed the decoded pixels"
        );
        assert_eq!(report.component("Fetch").unwrap().app.total_sends, 180);
        assert_eq!(report.component("Reorder").unwrap().app.total_receives, 180);
    }

    #[test]
    fn least_loaded_dispatch_same_checksum_as_round_robin() {
        // Least-loaded dispatch reshuffles which lane carries which
        // block, but every block is position-tagged and the assembler
        // folds frames in frame order — the checksum must be identical.
        let stream = small_stream(9);
        let (ref_app, ref_probe) = build_smp_app(stream.clone(), &MjpegAppConfig::default());
        SmpPlatform::new().deploy(ref_app.build().unwrap()).unwrap().wait().unwrap();

        for batch in [1usize, 5] {
            let cfg = MjpegAppConfig {
                dispatch: DispatchPolicy::LeastLoaded,
                blocks_per_msg: batch,
                payload_pool: true,
                ..MjpegAppConfig::default()
            };
            let (app, probe) = build_smp_app(stream.clone(), &cfg);
            SmpPlatform::new().deploy(app.build().unwrap()).unwrap().wait().unwrap();
            assert_eq!(
                probe.frames_completed.load(Ordering::SeqCst),
                8,
                "batch {batch}: least-loaded run lost frames"
            );
            assert_eq!(
                probe.checksum.load(Ordering::SeqCst),
                ref_probe.checksum.load(Ordering::SeqCst),
                "batch {batch}: least-loaded dispatch changed the decoded pixels"
            );
        }
    }

    #[test]
    fn worker_counts_1_and_6_same_checksum() {
        // Against the paper's 3-worker, one-block-per-message run: even
        // and uneven lane shares (18 mod 4 != 0), batches within a frame,
        // across frames and longer than the stream (108 blocks), with
        // and without pooled payloads.
        let stream = small_stream(7);
        let (ref_app, ref_probe) = build_smp_app(stream.clone(), &MjpegAppConfig::default());
        SmpPlatform::new().deploy(ref_app.build().unwrap()).unwrap().wait().unwrap();
        for n in [1usize, 2, 4, 6] {
            for batch in [1usize, 18, 72, 288] {
                for pooled in [false, true] {
                    let cfg = MjpegAppConfig {
                        idct_count: n,
                        blocks_per_msg: batch,
                        payload_pool: pooled,
                        ..MjpegAppConfig::default()
                    };
                    let (app, probe) = build_smp_app(stream.clone(), &cfg);
                    SmpPlatform::new().deploy(app.build().unwrap()).unwrap().wait().unwrap();
                    assert_eq!(probe.frames_completed.load(Ordering::SeqCst), 6, "{cfg:?}");
                    assert_eq!(
                        probe.checksum.load(Ordering::SeqCst),
                        ref_probe.checksum.load(Ordering::SeqCst),
                        "topology changed the decoded pixels: {cfg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn table2_count_structure_578() {
        // Scaled-down structural version of Table 2: counts must follow
        // send(Fetch) = 18 (N-1); recv(IDCT_k) = send(IDCT_k) = 6 (N-1);
        // recv(Reorder) = 18 (N-1).
        let n = 21; // stand-in for 578; structure is what matters
        let (app, _) = build_smp_app(small_stream(n), &MjpegAppConfig::default());
        let report = SmpPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        let fwd = (n - 1) as u64;
        assert_eq!(
            report.component("Fetch").unwrap().app.total_sends,
            18 * fwd
        );
        assert_eq!(report.component("Fetch").unwrap().app.total_receives, 0);
        for k in 1..=3 {
            let r = report.component(&format!("IDCT_{k}")).unwrap();
            assert_eq!(r.app.total_receives, 6 * fwd);
            assert_eq!(r.app.total_sends, 6 * fwd);
        }
        let r = report.component("Reorder").unwrap();
        assert_eq!(r.app.total_receives, 18 * fwd);
        assert_eq!(r.app.total_sends, 0);
    }
}
