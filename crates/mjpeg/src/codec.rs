//! Grayscale entropy-coded segments: the encoder that makes every
//! workload's input ([`BlockEncoder`], [`encode_frame`]), the decoder,
//! and whole-frame helpers. A segment is bare Annex-K luminance Huffman
//! code with no file markers around it; its geometry and quality travel
//! next to it in a [`FrameHeader`](crate::frame::FrameHeader).
//!
//! The decode path is deliberately split along the paper's component
//! boundaries (§3.2):
//!
//! 1. **Huffman algorithm + pixel reordering** (Fetch): on the
//!    reference kernel, the bit-serial [`EntropyDecoder::next_block`] +
//!    [`quant::dequantize_reorder`](crate::quant::dequantize_reorder);
//!    on the fast kernels, one table-driven pass,
//!    [`EntropyDecoder::next_block_scaled`], that writes each
//!    coefficient dequantized and AAN-prescaled to its natural-order
//!    slot,
//! 2. **IDCT** (IDCT components):
//!    [`dct::idct_to_pixels`](crate::dct::idct_to_pixels) or its fast
//!    counterparts,
//! 3. **reassembly** (Reorder): [`place_block`].

use crate::bitstream::{BitReader, BitWriter, OutOfBits};
use crate::dct::{fdct, pixels_to_centered, DctKind, BLOCK_SIZE, N};
use crate::huffman::{
    category, put_magnitude, read_magnitude, HuffDecoder, HuffEncoder, HuffSpec,
};
use crate::quant::{
    dequantize_reorder, dequantize_scaled, fast_dequant_table, quantize_zigzag, scaled_qtable,
    ZIGZAG,
};

/// End-of-block marker symbol.
const EOB: u8 = 0x00;
/// Zero-run-of-16 marker symbol.
const ZRL: u8 = 0xF0;

/// Entropy-code an already-quantized zigzag block; returns its DC, the
/// next block's predictor.
fn encode_quantized_block(
    writer: &mut BitWriter,
    dc_enc: &HuffEncoder,
    ac_enc: &HuffEncoder,
    dc_pred: i32,
    zz: &[i16; BLOCK_SIZE],
) -> i32 {
    let dc = zz[0] as i32;
    let diff = dc - dc_pred;
    let cat = category(diff);
    dc_enc.encode(writer, cat);
    put_magnitude(writer, diff, cat);
    let mut run = 0u8;
    for &c in &zz[1..] {
        if c == 0 {
            run += 1;
            continue;
        }
        while run >= 16 {
            ac_enc.encode(writer, ZRL);
            run -= 16;
        }
        let cat = category(c as i32);
        debug_assert!(cat <= 10, "baseline AC category {cat}");
        ac_enc.encode(writer, (run << 4) | cat);
        put_magnitude(writer, c as i32, cat);
        run = 0;
    }
    if run > 0 {
        ac_enc.encode(writer, EOB);
    }
    dc
}

/// The one fast decode loop: decode one block with explicit tables and
/// DC predictor, hand each coefficient that is not skipped by a run to
/// `put` as `(zigzag index, value)`, and return the new predictor. Each
/// symbol and its magnitude bits are one table probe where they fit
/// ([`HuffDecoder::decode_coded`]). Values wrap to `i16` as
/// [`decode_block_bitwise`]'s do, and every input — valid or not —
/// decodes to the same coefficients, bit count and error.
#[inline(always)]
fn decode_block_into(
    reader: &mut BitReader<'_>,
    dc_dec: &HuffDecoder,
    ac_dec: &HuffDecoder,
    dc_pred: i32,
    mut put: impl FnMut(usize, i16),
) -> Result<i32, OutOfBits> {
    let dc = dc_pred + dc_dec.decode_coded(reader, true)?.1;
    put(0, dc as i16);
    let mut k = 1usize;
    while k < BLOCK_SIZE {
        match ac_dec.decode_coded(reader, false)? {
            (EOB, _) => break,
            (ZRL, _) => k += 16,
            (rs, value) => {
                k += (rs >> 4) as usize;
                if k >= BLOCK_SIZE {
                    return Err(OutOfBits); // corrupt stream
                }
                put(k, value as i16);
                k += 1;
            }
        }
    }
    Ok(dc)
}

/// Decode one block (zigzag order) with explicit tables and DC
/// predictor; returns the coefficients and the new predictor. Runs the
/// table-driven loop; [`decode_block_bitwise`] is the bit-serial
/// original.
fn decode_block_with(
    reader: &mut BitReader<'_>,
    dc_dec: &HuffDecoder,
    ac_dec: &HuffDecoder,
    dc_pred: i32,
) -> Result<([i16; BLOCK_SIZE], i32), OutOfBits> {
    let mut zz = [0i16; BLOCK_SIZE];
    let dc = decode_block_into(reader, dc_dec, ac_dec, dc_pred, |k, v| zz[k] = v)?;
    Ok((zz, dc))
}

/// Decode one block (zigzag order) with explicit tables and DC
/// predictor on the bit-at-a-time Huffman path; returns the
/// coefficients and the new predictor. This is the unoptimized decoder
/// the paper's workload models, kept both as the property-test oracle
/// of the table-driven loop and as the honest "before" of the benchmark
/// baseline.
pub fn decode_block_bitwise(
    reader: &mut BitReader<'_>,
    dc_dec: &HuffDecoder,
    ac_dec: &HuffDecoder,
    dc_pred: i32,
) -> Result<([i16; BLOCK_SIZE], i32), OutOfBits> {
    let mut zz = [0i16; BLOCK_SIZE];
    let cat = dc_dec.decode(reader)?;
    let diff = read_magnitude(reader, cat)?;
    let dc = dc_pred + diff;
    zz[0] = dc as i16;
    let mut k = 1usize;
    while k < BLOCK_SIZE {
        let rs = ac_dec.decode(reader)?;
        if rs == EOB {
            break;
        }
        if rs == ZRL {
            k += 16;
            continue;
        }
        let run = (rs >> 4) as usize;
        let cat = rs & 0x0F;
        k += run;
        if k >= BLOCK_SIZE {
            return Err(OutOfBits); // corrupt stream
        }
        zz[k] = read_magnitude(reader, cat)? as i16;
        k += 1;
    }
    Ok((zz, dc))
}

/// Encoder for a sequence of blocks sharing one DC predictor.
pub struct BlockEncoder {
    dc_enc: HuffEncoder,
    ac_enc: HuffEncoder,
    qtable: [u16; BLOCK_SIZE],
    dc_pred: i32,
    writer: BitWriter,
}

impl BlockEncoder {
    /// Encoder at the given quality (reference float kernel).
    pub fn new(quality: u8) -> Self {
        BlockEncoder {
            dc_enc: HuffEncoder::new(&HuffSpec::luma_dc()),
            ac_enc: HuffEncoder::new(&HuffSpec::luma_ac()),
            qtable: scaled_qtable(quality),
            dc_pred: 0,
            writer: BitWriter::new(),
        }
    }

    /// Encode one 8×8 pixel block (row-major).
    pub fn push_block(&mut self, pixels: &[u8; BLOCK_SIZE]) {
        let coeffs = fdct(&pixels_to_centered(pixels));
        let zz = quantize_zigzag(&coeffs, &self.qtable);
        self.dc_pred =
            encode_quantized_block(&mut self.writer, &self.dc_enc, &self.ac_enc, self.dc_pred, &zz);
    }

    /// Finish and return the entropy-coded segment.
    pub fn finish(self) -> Vec<u8> {
        self.writer.finish()
    }
}

/// Decoder over an entropy-coded segment; yields zigzag-ordered
/// quantized coefficient blocks, or — the fast kernels' Fetch stage in
/// one pass — dequantized, AAN-prescaled natural-order ones.
pub struct EntropyDecoder<'a> {
    dc_dec: &'static HuffDecoder,
    ac_dec: &'static HuffDecoder,
    reader: BitReader<'a>,
    dc_pred: i32,
    fast: bool,
}

impl<'a> EntropyDecoder<'a> {
    /// Decode over `data` with the table-driven loop.
    pub fn new(data: &'a [u8]) -> Self {
        Self::with_mode(data, true)
    }

    /// Decode over `data` with the original bit-at-a-time Huffman path
    /// (the paper's unoptimized decoder).
    pub fn reference(data: &'a [u8]) -> Self {
        Self::with_mode(data, false)
    }

    fn with_mode(data: &'a [u8], fast: bool) -> Self {
        EntropyDecoder {
            // Shared static tables: constructing a decoder is free, so a
            // per-frame EntropyDecoder costs no allocation.
            dc_dec: crate::huffman::luma_dc_decoder(),
            ac_dec: crate::huffman::luma_ac_decoder(),
            reader: BitReader::new(data),
            dc_pred: 0,
            fast,
        }
    }

    /// Decode the next block, in zigzag order.
    pub fn next_block(&mut self) -> Result<[i16; BLOCK_SIZE], OutOfBits> {
        let (reader, dc_dec, ac_dec) = (&mut self.reader, self.dc_dec, self.ac_dec);
        let (zz, dc) = if self.fast {
            decode_block_with(reader, dc_dec, ac_dec, self.dc_pred)?
        } else {
            decode_block_bitwise(reader, dc_dec, ac_dec, self.dc_pred)?
        };
        self.dc_pred = dc;
        Ok(zz)
    }

    /// Decode the next block into `out` as [`next_block`] followed by
    /// [`dequantize_reorder_scaled`] with `ftable` would, in one pass:
    /// the table-driven loop writes each coefficient once, multiplied by
    /// the folded table, straight to its natural-order slot. It runs
    /// whichever constructor made the decoder, since its output is the
    /// bit-serial one. On `Err`, what `out` holds is unspecified.
    ///
    /// [`next_block`]: EntropyDecoder::next_block
    /// [`dequantize_reorder_scaled`]: crate::quant::dequantize_reorder_scaled
    pub fn next_block_scaled(
        &mut self,
        ftable: &[i32; BLOCK_SIZE],
        out: &mut [i32; BLOCK_SIZE],
    ) -> Result<(), OutOfBits> {
        *out = [0; BLOCK_SIZE];
        let put = |k: usize, v| {
            let n = ZIGZAG[k];
            out[n] = dequantize_scaled(v, ftable[n]);
        };
        self.dc_pred = decode_block_into(
            &mut self.reader,
            self.dc_dec,
            self.ac_dec,
            self.dc_pred,
            put,
        )?;
        Ok(())
    }

    /// Total bits consumed so far (drives the Fetch work annotation).
    pub fn bits_consumed(&self) -> u64 {
        self.reader.bits_consumed()
    }
}

/// Copy a decoded 8×8 block into a frame buffer at block index `bi`
/// (blocks in raster order) — the Reorder component's reassembly step.
pub fn place_block(frame: &mut [u8], width: usize, bi: usize, block: &[u8; BLOCK_SIZE]) {
    let blocks_per_row = width / N;
    let bx = (bi % blocks_per_row) * N;
    let by = (bi / blocks_per_row) * N;
    for row in 0..N {
        let dst = (by + row) * width + bx;
        frame[dst..dst + N].copy_from_slice(&block[row * N..row * N + N]);
    }
}

/// Encode a grayscale image (dimensions multiples of 8) into an
/// entropy-coded segment.
///
/// ```
/// use mjpeg::codec::{decode_frame, encode_frame, psnr};
///
/// let image: Vec<u8> = (0..48 * 24).map(|i| (i % 251) as u8).collect();
/// let data = encode_frame(&image, 48, 24, 85);
/// let decoded = decode_frame(&data, 48, 24, 85).unwrap();
/// assert!(psnr(&image, &decoded) > 25.0);
/// ```
pub fn encode_frame(pixels: &[u8], width: usize, height: usize, quality: u8) -> Vec<u8> {
    assert!(width.is_multiple_of(N) && height.is_multiple_of(N), "dimensions must be 8-aligned");
    assert_eq!(pixels.len(), width * height);
    let mut enc = BlockEncoder::new(quality);
    for by in (0..height).step_by(N) {
        for bx in (0..width).step_by(N) {
            let mut block = [0u8; BLOCK_SIZE];
            for row in 0..N {
                let src = (by + row) * width + bx;
                block[row * N..row * N + N].copy_from_slice(&pixels[src..src + N]);
            }
            enc.push_block(&block);
        }
    }
    enc.finish()
}

/// Decode a full frame (the single-process reference path used to
/// validate the componentized pipeline).
pub fn decode_frame(
    data: &[u8],
    width: usize,
    height: usize,
    quality: u8,
) -> Result<Vec<u8>, OutOfBits> {
    decode_frame_with(data, width, height, quality, DctKind::ReferenceFloat)
}

/// [`decode_frame`] with an explicit DCT kernel. With
/// [`DctKind::FastAan`] the dequantization multiplies by the folded
/// AAN-scaled table and the integer butterflies run — output pixels are
/// within ±1 level of the reference float path.
pub fn decode_frame_with(
    data: &[u8],
    width: usize,
    height: usize,
    quality: u8,
    kind: DctKind,
) -> Result<Vec<u8>, OutOfBits> {
    let qtable = scaled_qtable(quality);
    let nblocks = (width / N) * (height / N);
    let mut dec = EntropyDecoder::new(data);
    let mut frame = vec![0u8; width * height];
    match kind {
        DctKind::ReferenceFloat => {
            for bi in 0..nblocks {
                let zz = dec.next_block()?;
                let coeffs = dequantize_reorder(&zz, &qtable);
                let px = crate::dct::idct_to_pixels(&coeffs);
                place_block(&mut frame, width, bi, &px);
            }
        }
        DctKind::FastAan | DctKind::FastSimd => {
            let ftable = fast_dequant_table(&qtable);
            let idct: fn(&[i32; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] = if kind == DctKind::FastSimd {
                crate::simd::idct_scaled_to_pixels_simd
            } else {
                crate::dct::idct_scaled_to_pixels
            };
            let mut coeffs = [0i32; BLOCK_SIZE];
            for bi in 0..nblocks {
                dec.next_block_scaled(&ftable, &mut coeffs)?;
                let px = idct(&coeffs);
                place_block(&mut frame, width, bi, &px);
            }
        }
    }
    Ok(frame)
}

/// Peak signal-to-noise ratio between two equally-sized images, dB.
pub fn psnr(a: &[u8], b: &[u8]) -> f64 {
    assert_eq!(a.len(), b.len());
    let mse: f64 = a
        .iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
        / a.len() as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image(width: usize, height: usize) -> Vec<u8> {
        let mut px = vec![0u8; width * height];
        for y in 0..height {
            for x in 0..width {
                let v = (x * 255 / width) as i32 + ((y as f64 * 0.7).sin() * 40.0) as i32;
                px[y * width + x] = v.clamp(0, 255) as u8;
            }
        }
        px
    }

    #[test]
    fn frame_round_trip_high_quality_is_faithful() {
        let (w, h) = (48, 24);
        let img = test_image(w, h);
        let data = encode_frame(&img, w, h, 95);
        let dec = decode_frame(&data, w, h, 95).unwrap();
        let p = psnr(&img, &dec);
        assert!(p > 40.0, "PSNR {p:.1} dB too low for quality 95");
    }

    #[test]
    fn lower_quality_means_smaller_and_noisier() {
        let (w, h) = (64, 64);
        let img = test_image(w, h);
        let hi = encode_frame(&img, w, h, 90);
        let lo = encode_frame(&img, w, h, 20);
        assert!(lo.len() < hi.len(), "q20 {} vs q90 {}", lo.len(), hi.len());
        let p_hi = psnr(&img, &decode_frame(&hi, w, h, 90).unwrap());
        let p_lo = psnr(&img, &decode_frame(&lo, w, h, 20).unwrap());
        assert!(p_hi > p_lo, "quality must order PSNR: {p_hi} vs {p_lo}");
        assert!(p_lo > 20.0, "even q20 should be recognizable: {p_lo}");
    }

    #[test]
    fn flat_image_compresses_extremely_well() {
        let (w, h) = (48, 24);
        let img = vec![77u8; w * h];
        let data = encode_frame(&img, w, h, 75);
        // 18 blocks of essentially DC-only data.
        assert!(data.len() < 40, "flat image took {} bytes", data.len());
        let dec = decode_frame(&data, w, h, 75).unwrap();
        assert!(dec.iter().all(|&p| (p as i32 - 77).abs() <= 1));
    }

    #[test]
    fn staged_decode_equals_reference_decode() {
        // The componentized path (entropy -> dequant/reorder -> idct ->
        // place) must agree exactly with decode_frame.
        let (w, h) = (48, 24);
        let img = test_image(w, h);
        let quality = 75;
        let data = encode_frame(&img, w, h, quality);
        let reference = decode_frame(&data, w, h, quality).unwrap();

        let qtable = scaled_qtable(quality);
        let mut dec = EntropyDecoder::new(&data);
        let mut staged = vec![0u8; w * h];
        for bi in 0..(w / 8) * (h / 8) {
            let zz = dec.next_block().unwrap();
            let coeffs = dequantize_reorder(&zz, &qtable);
            let px = crate::dct::idct_to_pixels(&coeffs);
            place_block(&mut staged, w, bi, &px);
        }
        assert_eq!(staged, reference);
    }

    #[test]
    fn fast_kernel_decode_tracks_reference_within_one_level() {
        let (w, h) = (48, 24);
        let img = test_image(w, h);
        for quality in [30u8, 60, 85] {
            let data = encode_frame(&img, w, h, quality);
            let reference = decode_frame(&data, w, h, quality).unwrap();
            let fast = decode_frame_with(&data, w, h, quality, DctKind::FastAan).unwrap();
            for (i, (&a, &b)) in reference.iter().zip(fast.iter()).enumerate() {
                assert!(
                    (a as i32 - b as i32).abs() <= 1,
                    "q{quality} pixel {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn place_block_maps_block_indices_to_raster() {
        let w = 16;
        let mut frame = vec![0u8; w * 16];
        let block = [9u8; BLOCK_SIZE];
        place_block(&mut frame, w, 3, &block); // second row of blocks, second column
        assert_eq!(frame[8 * w + 8], 9);
        assert_eq!(frame[0], 0);
        assert_eq!(frame[8 * w + 7], 0);
    }

    #[test]
    fn bits_consumed_monotonically_increases() {
        let (w, h) = (48, 24);
        let img = test_image(w, h);
        let data = encode_frame(&img, w, h, 75);
        let mut dec = EntropyDecoder::new(&data);
        let mut last = 0;
        for _ in 0..18 {
            dec.next_block().unwrap();
            let c = dec.bits_consumed();
            assert!(c > last);
            last = c;
        }
    }
}
