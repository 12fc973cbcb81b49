//! The componentized MJPEG decoder as EMBera behaviors.
//!
//! SMP deployment (paper Figure 3): `Fetch → 3 × IDCT → Reorder`.
//! MPSoC deployment (paper Figure 7): `Fetch-Reorder ⇄ 2 × IDCT`, the
//! Fetch and Reorder functionalities merged on the general-purpose ST40.
//! The open-loop harness ([`crate::overload`]) is a third assembly of
//! the same parts: everything the three share — the frame decode, the
//! per-lane batching, the IDCT lane, the wire formats and their reader,
//! the lane wiring — is written once, here; what a [`DctKind`] selects
//! is written once on the kind.
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use embera::{
    AppBuilder, Behavior, BufferPool, ComponentSpec, Ctx, EmberaError, Message, Work, WorkClass,
};

use crate::codec::{place_block, EntropyDecoder};
use crate::dct::{DctKind, BLOCK_SIZE};
use crate::frame::{EncodedFrame, FrameHeader, MjpegStream};

/// Work-annotation profile: abstract operation counts per unit of codec
/// work. Defaults are calibrated to the paper's self-described
/// *unoptimized* implementation (§5.4 notes the OS21 build ran ~25×
/// slower than even their Linux build, "without applying any
/// optimizations"); the Table 3 ratio test pins the resulting
/// Fetch-Reorder : IDCT execution-time ratio to the paper's ~10-12×.
#[derive(Debug, Clone, Copy)]
pub struct WorkProfile {
    /// Control ops per entropy-coded bit: the paper's naive bit-serial
    /// Huffman decoder, whichever loop the host runs.
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

// ---------------------------------------------------------------------
// Wire formats. Four of them — a bare coefficient or pixel record, and
// a counted batch of either — each written by one exact-size slice
// writer, so a sender can serialize straight into a pool-owned window
// ([`BufferPool::take_with`]). The `encode_*` functions are the same
// writers over a fresh allocation.
// ---------------------------------------------------------------------

/// A coefficient block in flight: frame, block index, 64 natural-order
/// coefficients.
type CoeffBlock = (u32, u32, [i32; BLOCK_SIZE]);
/// A pixel block in flight: frame, block index, 64 pixels.
type PixelBlock = (u32, u32, [u8; BLOCK_SIZE]);

/// Bytes per block record in a coefficient batch:
/// frame u32 | block u32 | 64 × i32.
const COEFF_REC: usize = 8 + BLOCK_SIZE * 4;
/// Bytes per block record in a pixel batch: frame u32 | block u32 | 64 × u8.
const PIXEL_REC: usize = 8 + BLOCK_SIZE;

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

/// Write a single-block coefficient message into `dst` (`COEFF_REC` bytes).
fn write_coeff_msg(dst: &mut [u8], frame: u32, block: u32, coeffs: &[i32; BLOCK_SIZE]) {
    dst[0..4].copy_from_slice(&frame.to_le_bytes());
    dst[4..8].copy_from_slice(&block.to_le_bytes());
    dst[8..COEFF_REC].copy_from_slice(&coeff_bytes(coeffs));
}

/// Write a coefficient batch into `dst` (`4 + n * COEFF_REC` bytes).
fn write_coeff_batch(dst: &mut [u8], blocks: &[CoeffBlock]) {
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
fn write_pixel_batch(dst: &mut [u8], blocks: &[PixelBlock]) {
    dst[0..4].copy_from_slice(&(blocks.len() as u32).to_le_bytes());
    for (i, (frame, bi, px)) in blocks.iter().enumerate() {
        let rec = &mut dst[4 + i * PIXEL_REC..4 + (i + 1) * PIXEL_REC];
        write_pixel_msg(rec, *frame, *bi, px);
    }
}

/// A freshly allocated message of `len` bytes produced by `write`.
fn encoded(len: usize, write: impl FnOnce(&mut [u8])) -> Bytes {
    let mut v = vec![0u8; len];
    write(&mut v);
    Bytes::from(v)
}

/// Wire format of a coefficient block: frame u32 | block u32 | 64 × i32.
pub fn encode_coeff_msg(frame: u32, block: u32, coeffs: &[i32; BLOCK_SIZE]) -> Bytes {
    encoded(COEFF_REC, |dst| write_coeff_msg(dst, frame, block, coeffs))
}

/// Wire format of a pixel block: frame u32 | block u32 | 64 × u8.
pub fn encode_pixel_msg(frame: u32, block: u32, pixels: &[u8; BLOCK_SIZE]) -> Bytes {
    encoded(PIXEL_REC, |dst| write_pixel_msg(dst, frame, block, pixels))
}

/// Wire format of a coefficient **batch**: `count u32 | count ×
/// (frame u32 | block u32 | 64 × i32)`. Used when `blocks_per_msg > 1`;
/// the single-block formats above stay the wire format at batch size 1
/// so the paper's Table 2 byte counts are untouched by default. Each
/// record carries its own frame tag so a batch may span frame
/// boundaries — the SMP Fetch flushes a lane only when it is full,
/// which is what lets one thread wake-up amortize over many frames.
pub fn encode_coeff_batch(blocks: &[(u32, u32, [i32; BLOCK_SIZE])]) -> Bytes {
    encoded(4 + blocks.len() * COEFF_REC, |dst| {
        write_coeff_batch(dst, blocks)
    })
}

/// Wire format of a pixel **batch**: `count u32 | count ×
/// (frame u32 | block u32 | 64 × u8)`.
pub fn encode_pixel_batch(blocks: &[(u32, u32, [u8; BLOCK_SIZE])]) -> Bytes {
    encoded(4 + blocks.len() * PIXEL_REC, |dst| {
        write_pixel_batch(dst, blocks)
    })
}

fn bad_length(what: &str, len: usize) -> EmberaError {
    EmberaError::Platform(format!("bad {what} message length {len}"))
}

/// The frame and block tags that lead every record.
fn record_tags(rec: &[u8]) -> (u32, u32) {
    (
        u32::from_le_bytes(rec[0..4].try_into().unwrap()),
        u32::from_le_bytes(rec[4..8].try_into().unwrap()),
    )
}

/// Parse a coefficient block message.
pub fn decode_coeff_msg(b: &[u8]) -> Result<(u32, u32, [i32; BLOCK_SIZE]), EmberaError> {
    if b.len() != COEFF_REC {
        return Err(bad_length("coefficient", b.len()));
    }
    let (frame, block) = record_tags(b);
    Ok((frame, block, coeffs_from_bytes(&b[8..])?))
}

/// Parse a pixel block message.
pub fn decode_pixel_msg(b: &[u8]) -> Result<(u32, u32, [u8; BLOCK_SIZE]), EmberaError> {
    if b.len() != PIXEL_REC {
        return Err(bad_length("pixel", b.len()));
    }
    let (frame, block) = record_tags(b);
    let mut px = [0u8; BLOCK_SIZE];
    px.copy_from_slice(&b[8..]);
    Ok((frame, block, px))
}

/// Idle deadline for tolerant-mode receives. Tolerant components cannot
/// rely on a fixed message budget (frames may be dropped upstream), so
/// they stop once their inputs stay silent this long. On the in-process
/// backend this is logical time — the scheduler only reports a timeout
/// once no producer can make progress, which keeps tolerant runs
/// deterministic. On the threaded backend it is wall-clock time and is
/// sized generously above any scheduling hiccup.
const TOLERANT_IDLE_NS: u64 = 500_000_000;

/// A parsed batch header over a borrowed message payload. Per-block
/// accessors hand out slices of the original buffer, so a consumer can
/// split a batch into blocks without copying, allocating or touching a
/// reference count — and cannot give the message back to its pool while
/// a view of it is alive.
pub struct BatchView<'a> {
    data: &'a [u8],
    count: usize,
    rec: usize,
    /// Offset of the first record: past the count of a batch, 0 for a
    /// bare record read as a batch of one.
    first: usize,
}

impl<'a> BatchView<'a> {
    fn parse(data: &'a [u8], rec: usize, what: &str) -> Result<Self, EmberaError> {
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
            data,
            count,
            rec,
            first: 4,
        })
    }

    /// The blocks of one pipeline message, whichever layout the
    /// pipeline runs: a counted batch, or — at one block per message,
    /// the paper's schedule — a bare record.
    fn records(data: &'a [u8], rec: usize, what: &str, counted: bool) -> Result<Self, EmberaError> {
        if counted {
            return Self::parse(data, rec, what);
        }
        if data.len() != rec {
            return Err(bad_length(what, data.len()));
        }
        Ok(BatchView {
            data,
            count: 1,
            rec,
            first: 0,
        })
    }

    /// Parse a coefficient batch (`count | count × (frame | block | 64 i32)`).
    pub fn coeffs(data: &'a [u8]) -> Result<Self, EmberaError> {
        Self::parse(data, COEFF_REC, "coefficient")
    }

    /// Parse a pixel batch (`count | count × (frame | block | 64 u8)`).
    pub fn pixels(data: &'a [u8]) -> Result<Self, EmberaError> {
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

    /// Frame index, block index, and payload of the i-th record.
    pub fn block(&self, i: usize) -> (u32, u32, &'a [u8]) {
        assert!(i < self.count);
        let rec = &self.data[self.first + i * self.rec..][..self.rec];
        let (frame, bi) = record_tags(rec);
        (frame, bi, &rec[8..])
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

/// One stage's end of the wire: which layout the pipeline's messages
/// have, and where the buffers of the ones it sends come from — the
/// application's payload pool where the backend has one, otherwise the
/// last message it built once the transport has dropped it, or a reused
/// scratch buffer and one allocation per message.
struct Wire {
    /// `count | records` when set; a bare record per message otherwise.
    counted: bool,
    pool: Option<BufferPool>,
    scratch: Vec<u8>,
    /// Without a pool: the last message built, rewritten in place by the
    /// next one once nothing else holds it (a transport that copies at
    /// the send lets go of it there; one that moves the message lets go
    /// of it when its receiver does).
    last: Option<Bytes>,
}

impl Wire {
    fn new(ctx: &dyn Ctx, counted: bool) -> Self {
        Wire {
            counted,
            pool: ctx.payload_pool(),
            scratch: Vec::new(),
            last: None,
        }
    }

    /// A message of `len` bytes produced by `write`. The pooled path
    /// serializes straight into the pool-owned buffer: no scratch
    /// staging, no extra memcpy pass. So does the unpooled one when the
    /// last message is free ([`Bytes::try_mut`]) and large enough.
    fn message(&mut self, len: usize, write: impl FnOnce(&mut [u8])) -> Bytes {
        if let Some(pool) = &self.pool {
            return pool.take_with(len, write);
        }
        if let Some(last) = self.last.as_mut() {
            if let Some(storage) = last.try_mut().filter(|s| s.len() >= len) {
                write(&mut storage[..len]);
                last.reset_view(len);
                return last.clone();
            }
        }
        self.scratch.resize(len, 0);
        write(&mut self.scratch);
        let msg = Bytes::copy_from_slice(&self.scratch);
        self.last = Some(msg.clone());
        msg
    }

    fn coeffs(&mut self, blocks: &[CoeffBlock]) -> Bytes {
        if self.counted {
            return self.message(4 + blocks.len() * COEFF_REC, |dst| {
                write_coeff_batch(dst, blocks)
            });
        }
        let (frame, bi, coeffs) = &blocks[0];
        self.message(COEFF_REC, |dst| write_coeff_msg(dst, *frame, *bi, coeffs))
    }

    fn pixels(&mut self, blocks: &[PixelBlock]) -> Bytes {
        if self.counted {
            return self.message(4 + blocks.len() * PIXEL_REC, |dst| {
                write_pixel_batch(dst, blocks)
            });
        }
        let (frame, bi, px) = &blocks[0];
        self.message(PIXEL_REC, |dst| write_pixel_msg(dst, *frame, *bi, px))
    }

    /// Give a fully consumed message buffer back to the pool (no-op
    /// without one).
    fn recycle(&self, msg: Bytes) {
        if let Some(p) = &self.pool {
            p.recycle(msg);
        }
    }
}

/// Payload and envelope deadline of a data message — the [`Ctx::recv`]
/// contract, with the deadline kept instead of stripped.
pub(crate) fn unwrap_data(msg: Message, iface: &str) -> Result<(Bytes, Option<u64>), EmberaError> {
    match msg {
        Message::Data(payload) => Ok((payload, None)),
        Message::Deadlined {
            payload,
            deadline_ns,
        } => Ok((payload, Some(deadline_ns))),
        _ => Err(EmberaError::UnexpectedMessage {
            interface: iface.to_string(),
        }),
    }
}

/// Send `payload` under the deadline it arrived with, if it had one.
fn send_under(
    ctx: &mut dyn Ctx,
    iface: &str,
    payload: Bytes,
    deadline: Option<u64>,
) -> Result<(), EmberaError> {
    match deadline {
        Some(d) => ctx.send_deadlined(iface, payload, d),
        None => ctx.send(iface, payload),
    }
}

/// The pipeline's one definition of "late", matching the runtime's
/// ingress shedding: work is late from the instant of its deadline on,
/// and work without a deadline never is. `now_ns` is only read when
/// there is a deadline to hold it against.
pub(crate) fn is_late(deadline: Option<u64>, now_ns: impl FnOnce() -> u64) -> bool {
    deadline.is_some_and(|d| now_ns() >= d)
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

/// The Fetch work every assembly shares: "file management, Huffman
/// decoding and pixel reordering" (§3.2) of one frame at a time.
pub(crate) struct FrameDecoder {
    /// The kind's dequantization table at the stream's quality.
    table: [i32; BLOCK_SIZE],
    blocks: usize,
    profile: WorkProfile,
}

impl FrameDecoder {
    /// Decoder for a stream whose configuration frame reads `header`.
    pub(crate) fn new(header: FrameHeader, kind: DctKind, profile: WorkProfile) -> Self {
        FrameDecoder {
            table: kind.dequant_table(header.quality),
            blocks: header.blocks(),
            profile,
        }
    }

    /// Charge one frame's file management.
    fn file_management(&self, ctx: &mut dyn Ctx) {
        ctx.compute(Work::ops(
            WorkClass::Control,
            self.profile.file_mgmt_ops_per_frame,
        ));
    }

    /// Decode `frame` and hand each dequantized block to `emit`, which
    /// sends or buffers it. A block's Huffman and dequantization work is
    /// charged just before it is emitted, so on a simulated platform it
    /// leaves when that work is done. `label` names the frame in errors.
    ///
    /// `atomic` decodes the whole frame before emitting any of it: a
    /// corrupt frame is then dropped whole — nothing charged for its
    /// blocks, nothing half-sent — and `Ok(false)` returned. Otherwise
    /// blocks stream out as they are decoded and a decode error fails
    /// the component.
    pub(crate) fn decode(
        &self,
        ctx: &mut dyn Ctx,
        frame: &EncodedFrame,
        label: u32,
        atomic: bool,
        mut emit: impl FnMut(&mut dyn Ctx, u32, &[i32; BLOCK_SIZE]) -> Result<(), EmberaError>,
    ) -> Result<bool, EmberaError> {
        self.file_management(ctx);
        let mut dec = EntropyDecoder::new(&frame.data);
        let mut bits_before = 0u64;
        // Decode block `bi` into `coeffs`; the entropy bits it took.
        let mut next = |bi: usize, coeffs: &mut [i32; BLOCK_SIZE]| {
            dec.next_block_scaled(&self.table, coeffs)
                .map_err(|e| EmberaError::Platform(format!("frame {label} block {bi}: {e}")))?;
            let bits = dec.bits_consumed() - bits_before;
            bits_before = dec.bits_consumed();
            Ok::<_, EmberaError>(bits)
        };
        let mut forward = |ctx: &mut dyn Ctx, bi: usize, bits: u64, coeffs: &[i32; BLOCK_SIZE]| {
            ctx.compute(
                Work::ops(
                    WorkClass::Control,
                    bits * self.profile.huffman_ops_per_bit
                        + BLOCK_SIZE as u64 * self.profile.dequant_ops_per_coeff,
                )
                .with_mem(BLOCK_SIZE as u64 * 4),
            );
            emit(ctx, bi as u32, coeffs)
        };
        if atomic {
            let whole = (0..self.blocks).map(|bi| {
                let mut coeffs = [0i32; BLOCK_SIZE];
                next(bi, &mut coeffs).map(|bits| (bits, coeffs))
            });
            let Ok(whole) = whole.collect::<Result<Vec<_>, _>>() else {
                return Ok(false);
            };
            for (bi, (bits, coeffs)) in whole.iter().enumerate() {
                forward(ctx, bi, *bits, coeffs)?;
            }
        } else {
            let mut coeffs = [0i32; BLOCK_SIZE];
            for bi in 0..self.blocks {
                let bits = next(bi, &mut coeffs)?;
                forward(ctx, bi, bits, &coeffs)?;
            }
        }
        Ok(true)
    }
}

/// Names of the Fetch side's required lane interfaces, in lane order.
pub(crate) fn fetch_ifaces(lanes: usize) -> Vec<String> {
    (1..=lanes).map(|k| format!("fetchIdct{k}")).collect()
}

/// Names of the Reorder side's provided lane interfaces, in lane order.
pub(crate) fn reorder_ifaces(lanes: usize) -> Vec<String> {
    (1..=lanes).map(|k| format!("_idct{k}Reorder")).collect()
}

/// Per-lane coefficient batch buffers for the Fetch side: blocks are
/// dealt round-robin by block index — the paper's schedule, which is
/// what makes every lane's message budget computable from the stream
/// length and keeps the Table 2 communication counts exact. A lane is
/// flushed when it holds `batch` blocks; batch size 1 degenerates to
/// the paper's one-message-per-block schedule. The free-running SMP
/// Fetch lets batches span frame boundaries and flushes remainders once
/// at stream end; the MPSoC merged component and the open loop
/// round-trip every frame and therefore flush at each frame end
/// ([`BatchSender::flush_all`]).
pub(crate) struct BatchSender {
    ifaces: Vec<String>,
    batch: usize,
    lanes: Vec<Vec<CoeffBlock>>,
    /// Lanes currently dealt to: all of them in the closed loop; the
    /// open loop's autoscaler retargets this between frames.
    pub(crate) active: usize,
    /// Envelope deadline of what is flushed next: none in the closed
    /// loop, the frame token's in the open loop.
    pub(crate) deadline: Option<u64>,
    wire: Wire,
}

impl BatchSender {
    pub(crate) fn new(ctx: &dyn Ctx, lanes: usize, batch: usize, counted: bool) -> Self {
        BatchSender {
            ifaces: fetch_ifaces(lanes),
            batch: batch.max(1),
            lanes: vec![Vec::with_capacity(batch.max(1)); lanes],
            active: lanes,
            deadline: None,
            wire: Wire::new(ctx, counted),
        }
    }

    /// The lane interfaces, in lane order.
    pub(crate) fn ifaces(&self) -> &[String] {
        &self.ifaces
    }

    fn flush_lane(&mut self, ctx: &mut dyn Ctx, lane: usize) -> Result<(), EmberaError> {
        if self.lanes[lane].is_empty() {
            return Ok(());
        }
        let msg = self.wire.coeffs(&self.lanes[lane]);
        self.lanes[lane].clear();
        send_under(ctx, &self.ifaces[lane], msg, self.deadline)
    }

    pub(crate) fn push(
        &mut self,
        ctx: &mut dyn Ctx,
        frame: u32,
        bi: u32,
        coeffs: &[i32; BLOCK_SIZE],
    ) -> Result<(), EmberaError> {
        let lane = bi as usize % self.active;
        self.lanes[lane].push((frame, bi, *coeffs));
        if self.lanes[lane].len() >= self.batch {
            self.flush_lane(ctx, lane)?;
        }
        Ok(())
    }

    /// Flush every lane's remainder (frame end on MPSoC and in the open
    /// loop, stream end on SMP).
    pub(crate) fn flush_all(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        for lane in 0..self.lanes.len() {
            self.flush_lane(ctx, lane)?;
        }
        Ok(())
    }
}

/// The Fetch component: "file management, Huffman decoding and pixel
/// reordering" (§3.2). Distributes coefficient blocks round-robin over
/// the IDCT components. With `tolerate_corrupt_frames` a frame whose
/// entropy data fails to decode is skipped whole (and counted on
/// `probe.dropped_frames`) instead of failing the component.
struct FetchBehavior {
    stream: MjpegStream,
    cfg: MjpegAppConfig,
    probe: PipelineProbe,
}

impl Behavior for FetchBehavior {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        let Some(config_frame) = self.stream.frames.first() else {
            return Ok(());
        };
        let cfg = &self.cfg;
        let decoder = FrameDecoder::new(config_frame.header, cfg.kernel, cfg.profile);
        // Frame 0: configuration probe — read geometry, prime tables.
        decoder.file_management(ctx);
        let mut sender = BatchSender::new(&*ctx, cfg.idct_count, cfg.blocks_per_msg, cfg.counted());
        for (t, frame) in self.stream.frames.iter().enumerate().skip(1) {
            let t = t as u32;
            let forwarded = decoder.decode(
                ctx,
                frame,
                t,
                cfg.tolerate_corrupt_frames,
                |ctx, bi, coeffs| sender.push(ctx, t, bi, coeffs),
            )?;
            if !forwarded {
                self.probe.dropped_frames.fetch_add(1, Ordering::AcqRel);
            }
        }
        // Stream end: flush partially filled lanes. Batches span frame
        // boundaries, so this is the only remainder flush of the run.
        sender.flush_all(ctx)
    }
}

/// How an IDCT lane learns that its input is exhausted.
pub(crate) enum LaneEnd {
    /// After this many messages — the paper's schedule: the budget
    /// follows from the stream length. A shutdown before the budget is
    /// met is an error (`Terminated` propagates).
    Budget(u64),
    /// Once the input stays idle (or at shutdown): the tolerant
    /// pipeline, where frames may be dropped upstream and a restarted
    /// lane resumes mid-stream without deadlocking on messages its
    /// first incarnation already consumed.
    Idle,
    /// On the sender's empty sentinel message, which is forwarded so the
    /// judge's lane ends too (or at shutdown): the open loop, whose lane
    /// loads follow the autoscaler.
    Sentinel,
}

/// An IDCT component: receives coefficient blocks, applies the inverse
/// DCT, forwards pixel blocks — one pixel message per coefficient
/// message, under the same deadline. A message that is already late
/// when the lane gets to it is answered with zero blocks instead:
/// shed the *work*, keep the structure, so the Reorder side can
/// complete and judge the frame instead of waiting on blocks that never
/// come. Closed-loop messages carry no deadline and are never late.
pub(crate) struct IdctBehavior {
    /// 1-based lane number `k`: the component is `IDCT_k`.
    pub(crate) lane: usize,
    pub(crate) end: LaneEnd,
    pub(crate) kernel: DctKind,
    pub(crate) profile: WorkProfile,
    /// Whether messages are counted batches (else bare records).
    pub(crate) counted: bool,
    /// Blocks whose transform was skipped as already late.
    pub(crate) skipped: Arc<AtomicU64>,
}

/// The required interface every lane forwards on.
const LANE_OUT: &str = "idctReorder";

impl Behavior for IdctBehavior {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        let in_iface = format!("_fetchIdct{}", self.lane);
        let idct = self.kernel.transform();
        let mut wire = Wire::new(&*ctx, self.counted);
        let mut out: Vec<PixelBlock> = Vec::new();
        let mut received = 0u64;
        loop {
            let msg = match self.end {
                LaneEnd::Budget(expected) if received == expected => return Ok(()),
                LaneEnd::Budget(_) => ctx.recv_message(&in_iface)?,
                LaneEnd::Idle => match ctx.recv_message_timeout(&in_iface, TOLERANT_IDLE_NS) {
                    Ok(Some(m)) => m,
                    Ok(None) | Err(EmberaError::Terminated) => return Ok(()),
                    Err(e) => return Err(e),
                },
                LaneEnd::Sentinel => match ctx.recv_message(&in_iface) {
                    Ok(m) => m,
                    Err(EmberaError::Terminated) => return Ok(()),
                    Err(e) => return Err(e),
                },
            };
            received += 1;
            let (payload, deadline) = unwrap_data(msg, &in_iface)?;
            if payload.is_empty() && matches!(self.end, LaneEnd::Sentinel) {
                return ctx.send(LANE_OUT, payload);
            }
            // Split the message into borrowed block records, transform
            // each, and answer with one pixel message carrying the same
            // (frame, block) tags.
            let view = BatchView::records(&payload, COEFF_REC, "coefficient", self.counted)?;
            let blocks = view.len() as u64;
            out.clear();
            if is_late(deadline, || ctx.now_ns()) {
                out.extend((0..view.len()).map(|i| {
                    let (frame, bi, _) = view.block(i);
                    (frame, bi, [0u8; BLOCK_SIZE])
                }));
                self.skipped.fetch_add(blocks, Ordering::AcqRel);
            } else {
                for i in 0..view.len() {
                    let (frame, bi, coeffs) = view.block(i);
                    out.push((frame, bi, idct(&coeffs_from_bytes(coeffs)?)));
                }
                ctx.compute(
                    Work::ops(WorkClass::Dsp, self.profile.idct_ops_per_block * blocks)
                        .with_mem(BLOCK_SIZE as u64 * 5 * blocks),
                );
            }
            send_under(ctx, LANE_OUT, wire.pixels(&out), deadline)?;
            wire.recycle(payload);
        }
    }
}

/// Frame reassembly state shared by Reorder and Fetch-Reorder.
///
/// A frame folds into the checksum the moment its last block is placed.
/// Blocks are dealt round-robin over FIFO lanes, so in every lane the
/// records of frame *t* precede those of frame *t + 1*: frames complete
/// in frame order on their own, a frame lost upstream holds no later
/// frame back, and the checksum needs no reordering buffer. Retired
/// frame buffers go on a free list and are reused, so steady-state
/// reassembly allocates nothing: every block of a frame is written
/// exactly once before the frame folds, which is what makes the
/// unzeroed reuse safe. For the same reason only a few frames are in
/// flight at once, so a frame is found by a scan of a short list, not
/// by hashing its tag.
struct Assembler {
    width: usize,
    height: usize,
    blocks: usize,
    /// Frames in flight: tag, pixels, blocks placed so far.
    partial: Vec<(u32, Vec<u8>, usize)>,
    /// Retired frame buffers for reuse.
    free: Vec<Vec<u8>>,
    probe: PipelineProbe,
}

impl Assembler {
    fn new(width: usize, height: usize, probe: PipelineProbe) -> Self {
        Assembler {
            width,
            height,
            blocks: (width / 8) * (height / 8),
            partial: Vec::with_capacity(4),
            free: Vec::new(),
            probe,
        }
    }

    fn add(&mut self, frame: u32, block: u32, pixels: &[u8; BLOCK_SIZE]) {
        let at = match self.partial.iter().position(|p| p.0 == frame) {
            Some(at) => at,
            None => {
                let buf = self
                    .free
                    .pop()
                    .unwrap_or_else(|| vec![0u8; self.width * self.height]);
                self.partial.push((frame, buf, 0));
                self.partial.len() - 1
            }
        };
        let (_, buf, placed) = &mut self.partial[at];
        place_block(buf, self.width, block as usize, pixels);
        *placed += 1;
        if *placed == self.blocks {
            let (_, pixels, _) = self.partial.swap_remove(at);
            self.probe.fold_frame(&pixels);
            self.free.push(pixels);
        }
    }

    /// Place the blocks of one pixel message (bare record or batch, per
    /// `wire`), charging reorder work. Consumes the message and gives
    /// its buffer back to the pool; returns the number of blocks it
    /// carried.
    fn absorb(
        &mut self,
        ctx: &mut dyn Ctx,
        wire: &Wire,
        profile: &WorkProfile,
        msg: Bytes,
    ) -> Result<u64, EmberaError> {
        let view = BatchView::records(&msg, PIXEL_REC, "pixel", wire.counted)?;
        for i in 0..view.len() {
            let (frame, bi, px) = view.block(i);
            self.add(
                frame,
                bi,
                px.try_into().expect("a pixel record holds one block"),
            );
        }
        let blocks = view.len() as u64;
        wire.recycle(msg);
        ctx.compute(
            Work::ops(
                WorkClass::MemCopy,
                BLOCK_SIZE as u64 * profile.reorder_ops_per_pixel * blocks,
            )
            .with_mem(BLOCK_SIZE as u64 * 2 * blocks),
        );
        Ok(blocks)
    }
}

/// The Reorder component: "reassembles images and eventually sends data
/// to an output display" (§3.2). Receives pixel blocks from the IDCT
/// components round-robin. With `tolerate_corrupt_frames` it drains the
/// lanes until they stay idle instead of expecting `total_blocks`, and
/// frames still incomplete at exit are counted on
/// `probe.dropped_frames` rather than deadlocking.
struct ReorderBehavior {
    cfg: MjpegAppConfig,
    total_blocks: u64,
    width: usize,
    height: usize,
    probe: PipelineProbe,
}

impl ReorderBehavior {
    /// Tolerant drain: wait on all lanes at once with an idle deadline
    /// and stop once they all stay silent that long, or at shutdown
    /// (both end the wait with `None`). Each wait lists the lanes
    /// starting after the one served last, so busy lanes are served
    /// round-robin. Whatever is still partially assembled then was lost
    /// upstream — count it.
    fn run_tolerant(
        &self,
        ctx: &mut dyn Ctx,
        asm: &mut Assembler,
        wire: &Wire,
        in_ifaces: &[String],
    ) -> Result<(), EmberaError> {
        let mut order: Vec<&str> = in_ifaces.iter().map(String::as_str).collect();
        while let Some((served, msg)) = ctx.recv_any(&order, Some(TOLERANT_IDLE_NS))? {
            asm.absorb(ctx, wire, &self.cfg.profile, msg)?;
            order.rotate_left(served + 1);
        }
        let leftover = asm.partial.len() as u64;
        if leftover > 0 {
            self.probe
                .dropped_frames
                .fetch_add(leftover, Ordering::AcqRel);
        }
        Ok(())
    }
}

impl Behavior for ReorderBehavior {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        let cfg = &self.cfg;
        let mut asm = Assembler::new(self.width, self.height, self.probe.clone());
        let wire = Wire::new(&*ctx, cfg.counted());
        let n = cfg.idct_count;
        let in_ifaces = reorder_ifaces(n);
        let per_frame = asm.blocks;
        if cfg.tolerate_corrupt_frames {
            return self.run_tolerant(ctx, &mut asm, &wire, &in_ifaces);
        }
        if !wire.counted {
            for i in 0..self.total_blocks {
                // Global block index within its frame selects the lane.
                let lane = (i as usize % per_frame) % n;
                let msg = ctx.recv(&in_ifaces[lane])?;
                asm.absorb(ctx, &wire, &cfg.profile, msg)?;
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
                    cfg.blocks_per_msg,
                )
            })
            .collect();
        let rounds = quota.iter().copied().max().unwrap_or(0);
        for round in 0..rounds {
            for (lane, &lane_quota) in quota.iter().enumerate() {
                if round >= lane_quota {
                    continue;
                }
                let msg = ctx.recv(&in_ifaces[lane])?;
                asm.absorb(ctx, &wire, &cfg.profile, msg)?;
            }
        }
        Ok(())
    }
}

/// The merged Fetch-Reorder component of the MPSoC deployment (§5.3):
/// per frame, decodes and sends all blocks to the IDCTs, then receives
/// and reassembles that frame's pixel blocks.
struct FetchReorderBehavior {
    stream: MjpegStream,
    cfg: MjpegAppConfig,
    probe: PipelineProbe,
}

impl Behavior for FetchReorderBehavior {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        let Some(config_frame) = self.stream.frames.first() else {
            return Ok(());
        };
        let cfg = &self.cfg;
        let header = config_frame.header;
        let n = cfg.idct_count;
        let blocks = header.blocks();
        let decoder = FrameDecoder::new(header, cfg.kernel, cfg.profile);
        let mut asm = Assembler::new(
            header.width as usize,
            header.height as usize,
            self.probe.clone(),
        );
        decoder.file_management(ctx);
        let mut sender = BatchSender::new(&*ctx, n, cfg.blocks_per_msg, cfg.counted());
        let in_ifaces = reorder_ifaces(n);
        for (t, frame) in self.stream.frames.iter().enumerate().skip(1) {
            // Fetch half: decode + distribute this frame's blocks.
            let t = t as u32;
            decoder.decode(ctx, frame, t, false, |ctx, bi, coeffs| {
                sender.push(ctx, t, bi, coeffs)
            })?;
            // The merged component round-trips each frame (send all its
            // blocks, then collect its pixels), so remainders flush at
            // frame end — batches never span frames on MPSoC.
            sender.flush_all(ctx)?;
            // Reorder half: collect this frame's pixel blocks. The IDCTs
            // answer each coefficient message with one pixel message, so
            // each lane owes its per-frame batch count.
            if cfg.counted() {
                for (lane, in_iface) in in_ifaces.iter().enumerate() {
                    let share = lane_share(blocks as u64, n, lane);
                    for _ in 0..lane_msgs_per_frame(share, cfg.blocks_per_msg) {
                        let msg = ctx.recv(in_iface)?;
                        asm.absorb(ctx, &sender.wire, &cfg.profile, msg)?;
                    }
                }
            } else {
                for bi in 0..blocks {
                    let msg = ctx.recv(&in_ifaces[bi % n])?;
                    asm.absorb(ctx, &sender.wire, &cfg.profile, msg)?;
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
    /// Which dequantization table Fetch decodes with and which inverse
    /// transform the IDCT lanes run ([`DctKind`]); the entropy decode
    /// is the same for every kind. The reference float kernel is the
    /// default; [`DctKind::FastAan`] selects the fixed-point AAN fast
    /// path with dequantization folded into prescaled tables;
    /// [`DctKind::FastSimd`] adds runtime-detected SSE2/AVX2 vectors on
    /// top of the same arithmetic. No kind changes a work annotation.
    pub kernel: DctKind,
    /// Attach a shared payload [`BufferPool`] sized to the configured
    /// batch so steady-state messaging allocates nothing on backends
    /// that support pooling (the threaded SMP transport). Default off:
    /// identical behavior; a stage then serializes into the last message
    /// it built, and a host transport copies into a copy it sent before,
    /// once nothing holds them (allocating when something does).
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

impl MjpegAppConfig {
    /// Whether messages are counted batches. At one block per message
    /// they are bare records — the paper's wire format, which keeps the
    /// Table 2 byte counts untouched by default.
    fn counted(&self) -> bool {
        self.blocks_per_msg > 1
    }
}

impl Default for MjpegAppConfig {
    fn default() -> Self {
        MjpegAppConfig {
            idct_count: 3,
            profile: WorkProfile::default(),
            stack_bytes: 8_392_000,
            blocks_per_msg: 1,
            kernel: DctKind::ReferenceFloat,
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

/// Add the IDCT lanes `IDCT_1..` behind the already-added `source`,
/// each connected from `source`'s `fetchIdct{k}`, in the order every
/// builder has always added and connected them. `reorder` is the
/// component that collects the lanes' output, added after them; `None`
/// when `source` collects it itself (the merged Fetch-Reorder), in which
/// case each lane is connected back as soon as it is added.
pub(crate) fn add_lanes(
    app: &mut AppBuilder,
    source: &str,
    reorder: Option<ComponentSpec>,
    stack_bytes: u64,
    lanes: impl IntoIterator<Item = IdctBehavior>,
) {
    let connect_out = |app: &mut AppBuilder, k: usize, sink: &str| {
        app.connect(
            (&format!("IDCT_{k}"), LANE_OUT),
            (sink, &format!("_idct{k}Reorder")),
        );
    };
    let mut added = Vec::new();
    for lane in lanes {
        let k = lane.lane;
        app.add(
            ComponentSpec::new(format!("IDCT_{k}"), lane)
                .with_provided(format!("_fetchIdct{k}"))
                .with_required(LANE_OUT)
                .with_stack_bytes(stack_bytes)
                .on_cpu(k),
        );
        app.connect(
            (source, &format!("fetchIdct{k}")),
            (&format!("IDCT_{k}"), &format!("_fetchIdct{k}")),
        );
        if reorder.is_none() {
            connect_out(app, k, source);
        }
        added.push(k);
    }
    if let Some(reorder) = reorder {
        let sink = reorder.name.clone();
        app.add(reorder);
        for k in added {
            connect_out(app, k, &sink);
        }
    }
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
    let (width, height) = header
        .map(|h| (h.width as usize, h.height as usize))
        .unwrap_or((8, 8));

    let mut app = AppBuilder::new("MJPEG");
    if cfg.payload_pool {
        app.with_buffer_pool(pipeline_pool(cfg));
    }
    let mut fetch = ComponentSpec::new(
        "Fetch",
        FetchBehavior {
            stream,
            cfg: cfg.clone(),
            probe: probe.clone(),
        },
    )
    .with_stack_bytes(cfg.stack_bytes);
    fetch.required = fetch_ifaces(cfg.idct_count);
    app.add(fetch);

    let mut reorder = ComponentSpec::new(
        "Reorder",
        ReorderBehavior {
            cfg: cfg.clone(),
            total_blocks: frames_forwarded * blocks,
            width,
            height,
            probe: probe.clone(),
        },
    )
    .with_stack_bytes(cfg.stack_bytes);
    reorder.metrics = probe.metrics();
    reorder.provided = reorder_ifaces(cfg.idct_count);

    let lanes = (1..=cfg.idct_count).map(|k| IdctBehavior {
        lane: k,
        end: if cfg.tolerate_corrupt_frames {
            LaneEnd::Idle
        } else {
            // Per-IDCT share: blocks are dealt round-robin, so lane k-1
            // gets the blocks with index ≡ k-1 (mod idct_count) in every
            // frame. Batches span frames on SMP, so the message count is
            // the lane's whole-run block total divided by the batch size
            // (rounded up for the stream-end remainder flush).
            let per_frame = lane_share(blocks, cfg.idct_count, k - 1);
            LaneEnd::Budget(lane_msgs_total(
                per_frame,
                frames_forwarded,
                cfg.blocks_per_msg,
            ))
        },
        kernel: cfg.kernel,
        profile: cfg.profile,
        counted: cfg.counted(),
        skipped: Arc::default(),
    });
    add_lanes(&mut app, "Fetch", Some(reorder), cfg.stack_bytes, lanes);
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
    let mut fr = ComponentSpec::new(
        "Fetch-Reorder",
        FetchReorderBehavior {
            stream,
            cfg: cfg.clone(),
            probe: probe.clone(),
        },
    )
    .with_stack_bytes(16 * 1024)
    .on_cpu(0);
    fr.metrics = probe.metrics();
    fr.required = fetch_ifaces(cfg.idct_count);
    fr.provided = reorder_ifaces(cfg.idct_count);
    app.add(fr);

    let lanes = (1..=cfg.idct_count).map(|k| {
        let per_frame = lane_share(blocks, cfg.idct_count, k - 1);
        IdctBehavior {
            lane: k,
            end: LaneEnd::Budget(
                frames_forwarded * lane_msgs_per_frame(per_frame, cfg.blocks_per_msg),
            ),
            kernel: cfg.kernel,
            profile: cfg.profile,
            counted: cfg.counted(),
            skipped: Arc::default(),
        }
    });
    add_lanes(&mut app, "Fetch-Reorder", None, 16 * 1024, lanes);
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
    fn wire_rewrites_its_last_message_only_once_the_transport_dropped_it() {
        let mut wire = Wire {
            counted: false,
            pool: None,
            scratch: Vec::new(),
            last: None,
        };
        let block = |frame: u32| (frame, 0, [frame as i32; BLOCK_SIZE]);
        // A transport that moves messages still holds the first one.
        let held = wire.coeffs(&[block(1)]);
        let second = wire.coeffs(&[block(2)]);
        assert_ne!(held.as_ptr(), second.as_ptr());
        assert_eq!(decode_coeff_msg(&held).unwrap(), block(1));
        // One that copies at the send drops it: the next is built in it.
        let at = second.as_ptr();
        drop(second);
        let third = wire.coeffs(&[block(3)]);
        assert_eq!(third.as_ptr(), at);
        assert_eq!(decode_coeff_msg(&third).unwrap(), block(3));
        assert_eq!(decode_coeff_msg(&held).unwrap(), block(1));
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
        assert_eq!(coeffs_from_bytes(p0).unwrap(), c0);
        assert_eq!(coeffs_from_bytes(p1).unwrap(), c1);
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
        assert_eq!(payload, &px[..]);
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
        SmpPlatform::new()
            .deploy(ref_app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();

        let cfg = MjpegAppConfig {
            blocks_per_msg: 6,
            ..MjpegAppConfig::default()
        };
        let (app, probe) = build_smp_app(stream, &cfg);
        let report = SmpPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
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
        let report = SmpPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
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
        SmpPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
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
        let report = SmpPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
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
        SmpPlatform::new()
            .deploy(ref_app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();

        let cfg = MjpegAppConfig {
            payload_pool: true,
            ..MjpegAppConfig::default()
        };
        let (app, probe) = build_smp_app(stream, &cfg);
        let report = SmpPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
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
    fn a_frame_lost_upstream_holds_no_later_frame_back() {
        // Frame 2 never completes (dropped by a tolerant Fetch, or short
        // a block a restarted IDCT consumed). Frames 3 and 4 must fold
        // when they complete — `frames_completed` is what an observer
        // reads during the run — in completion order.
        let probe = PipelineProbe::default();
        let mut asm = Assembler::new(8, 8, probe.clone());
        let expected = PipelineProbe::default();
        for frame in [1u32, 3, 4] {
            let block = [frame as u8; BLOCK_SIZE];
            asm.add(frame, 0, &block);
            expected.fold_frame(&block);
        }
        assert_eq!(probe.frames_completed.load(Ordering::SeqCst), 3);
        assert_eq!(
            probe.checksum.load(Ordering::SeqCst),
            expected.checksum.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn tolerant_reorder_waits_out_one_idle_deadline_at_any_lane_count() {
        // Frame 3 truncated: the tolerant run ends when every lane has
        // been silent for `TOLERANT_IDLE_NS` — once, not once per lane.
        // On inproc's serial logical clock the work is the same at every
        // lane count, so the platform time must be too.
        let mut stream = synthesize_stream(7, 48, 24, 75, 0x601D);
        let data = &mut stream.frames[3].data;
        data.truncate(data.len() / 4);
        let walls: Vec<u64> = [1usize, 3, 6]
            .into_iter()
            .map(|idct_count| {
                let cfg = MjpegAppConfig {
                    idct_count,
                    tolerate_corrupt_frames: true,
                    ..MjpegAppConfig::default()
                };
                let (app, probe) = build_smp_app(stream.clone(), &cfg);
                let report = embera_inproc::InprocPlatform::new()
                    .deploy(app.build().unwrap())
                    .unwrap()
                    .wait()
                    .unwrap();
                assert_eq!(probe.frames_completed.load(Ordering::SeqCst), 5);
                assert_eq!(probe.dropped_frames.load(Ordering::SeqCst), 1);
                report.wall_time_ns
            })
            .collect();
        assert!(
            walls[0] > TOLERANT_IDLE_NS && walls[0] < 2 * TOLERANT_IDLE_NS,
            "{walls:?}"
        );
        assert!(walls.iter().all(|&w| w == walls[0]), "{walls:?}");
    }

    #[test]
    fn worker_counts_1_and_6_same_checksum() {
        // Against the paper's 3-worker, one-block-per-message run: even
        // and uneven lane shares (18 mod 4 != 0), batches within a frame,
        // across frames and longer than the stream (108 blocks), with
        // and without pooled payloads.
        let stream = small_stream(7);
        let (ref_app, ref_probe) = build_smp_app(stream.clone(), &MjpegAppConfig::default());
        SmpPlatform::new()
            .deploy(ref_app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
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
                    SmpPlatform::new()
                        .deploy(app.build().unwrap())
                        .unwrap()
                        .wait()
                        .unwrap();
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
        assert_eq!(report.component("Fetch").unwrap().app.total_sends, 18 * fwd);
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
