//! # mjpeg — baseline JPEG codec and Motion-JPEG workload for EMBera
//!
//! The paper's evaluation workload is "an existing application for
//! decoding a stream of independent and individually encoded JPEG
//! images. The decoding process is done by dividing each individual
//! image in smaller blocks. Each block is decoded mainly by applying a
//! Huffman algorithm, a pixel reordering and the Inverse Discrete Cosine
//! Transformation (IDCT). Then, all the blocks are reordered in order to
//! reconstitute original images." (§3.2)
//!
//! The original input files are unavailable, so this crate provides the
//! whole path from scratch:
//!
//! * a **baseline JPEG codec** for grayscale entropy-coded segments
//!   (8×8 FDCT/IDCT, the Annex-K luminance quantization and Huffman
//!   tables with IJG quality scaling, zigzag ordering, bit-level entropy
//!   coding with 0xFF stuffing) — [`codec`], [`dct`], [`quant`],
//!   [`huffman`], [`bitstream`]. The encoder is the reference float
//!   path only — it produces every workload's input; the fast integer
//!   and SIMD kernels exist on the decode side. There is no file
//!   format: no pipeline reads or writes a `.jpg` file;
//! * an in-memory **Motion-JPEG stream** and a deterministic synthetic
//!   video generator — [`frame`], [`workload`]. The default geometry is
//!   48×24 grayscale = **18 blocks per image**, matching the paper's
//!   Table 2 counts (10 386 sends = 18 × 577; the paper's numbers imply
//!   the first frame is consumed for pipeline configuration and its
//!   blocks are not forwarded — this pipeline reproduces that);
//! * the **componentized decoder** as EMBera behaviors — [`pipeline`]:
//!   `Fetch` (entropy decode + dequantize + reorder), `IDCT` components,
//!   `Reorder` (frame reassembly), and the merged `Fetch-Reorder` used
//!   on the MPSoC deployment (paper §5.3, Figure 7). The behaviors are
//!   crate-private; applications are assembled by [`build_smp_app`] and
//!   [`build_mpsoc_app`] from an [`MjpegAppConfig`];
//! * the **open-loop overload harness** — [`overload`]: a load
//!   generator, a judging Reorder and an autoscaler around the same
//!   frame decode and IDCT lanes, assembled by [`build_overload_app`].

pub mod bitstream;
pub mod codec;
pub mod color;
pub mod dct;
pub mod frame;
pub mod huffman;
pub mod overload;
pub mod pipeline;
pub mod quant;
pub mod simd;
pub mod workload;

pub use codec::{decode_frame, decode_frame_with, encode_frame};
pub use dct::DctKind;
pub use frame::{FrameHeader, MjpegStream};
pub use pipeline::{
    build_mpsoc_app, build_smp_app, pipeline_pool, BatchView, MjpegAppConfig, WorkProfile,
};
pub use overload::{
    build_overload_app, ArrivalProcess, AutoscaleConfig, OverloadConfig, OverloadProbe, Pacing,
};
pub use simd::{active_level, SimdLevel};
pub use workload::synthesize_stream;
