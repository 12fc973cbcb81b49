//! Property-based tests over the JPEG codec primitives and the full
//! encode/decode path.

use proptest::prelude::*;

use mjpeg::bitstream::{BitReader, BitWriter};
use mjpeg::codec::{decode_frame, encode_frame, psnr};
use mjpeg::dct::{fdct, idct, BLOCK_SIZE};
use mjpeg::huffman::{category, put_magnitude, read_magnitude, HuffDecoder, HuffEncoder, HuffSpec};
use mjpeg::quant::{dequantize_reorder, quantize_zigzag, scaled_qtable, ZIGZAG};

proptest! {
    #[test]
    fn bitstream_round_trips_any_sequence(
        vals in prop::collection::vec((0u32..=0xFFFF, 1u32..=16), 1..200)
    ) {
        let mut w = BitWriter::new();
        for &(v, n) in &vals {
            w.put(v & ((1 << n) - 1), n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &vals {
            prop_assert_eq!(r.bits(n).unwrap(), v & ((1 << n) - 1));
        }
    }

    #[test]
    fn huffman_symbol_stream_round_trips(symbols in prop::collection::vec(0usize..162, 1..300)) {
        let spec = HuffSpec::luma_ac();
        let enc = HuffEncoder::new(&spec);
        let dec = HuffDecoder::new(&spec);
        let mut w = BitWriter::new();
        for &s in &symbols {
            enc.encode(&mut w, spec.values[s]);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            prop_assert_eq!(dec.decode(&mut r).unwrap(), spec.values[s]);
        }
    }

    #[test]
    fn magnitude_round_trips(v in -32767i32..=32767) {
        let cat = category(v);
        let mut w = BitWriter::new();
        put_magnitude(&mut w, v, cat);
        w.put(0xFF & 0x7F, 7); // ensure at least one full byte
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        prop_assert_eq!(read_magnitude(&mut r, cat).unwrap(), v);
    }

    #[test]
    fn dct_round_trip_is_near_identity(
        samples in prop::collection::vec(-128f32..=127f32, BLOCK_SIZE)
    ) {
        let mut block = [0f32; BLOCK_SIZE];
        block.copy_from_slice(&samples);
        let rec = idct(&fdct(&block));
        for (a, b) in block.iter().zip(rec.iter()) {
            prop_assert!((a - b).abs() < 0.05, "{} vs {}", a, b);
        }
    }

    #[test]
    fn quantize_dequantize_error_bounded_by_step(
        samples in prop::collection::vec(-800f32..=800f32, BLOCK_SIZE),
        quality in 1u8..=100,
    ) {
        let q = scaled_qtable(quality);
        let mut coeffs = [0f32; BLOCK_SIZE];
        coeffs.copy_from_slice(&samples);
        let zz = quantize_zigzag(&coeffs, &q);
        let back = dequantize_reorder(&zz, &q);
        for n in 0..BLOCK_SIZE {
            let err = (coeffs[n] - back[n] as f32).abs();
            prop_assert!(err <= q[n] as f32 / 2.0 + 0.5);
        }
    }

    #[test]
    fn zigzag_inverse_composition_is_identity(perm_seed in 0u64..1000) {
        // dequantize_reorder(quantize_zigzag(x)) visits every index once;
        // verify via an impulse at each position derived from the seed.
        let idx = (perm_seed as usize) % BLOCK_SIZE;
        let q = [1u16; BLOCK_SIZE];
        let mut coeffs = [0f32; BLOCK_SIZE];
        coeffs[idx] = 7.0;
        let zz = quantize_zigzag(&coeffs, &q);
        // The impulse must land at the zigzag position of idx.
        let k = ZIGZAG.iter().position(|&n| n == idx).unwrap();
        prop_assert_eq!(zz[k], 7);
        let back = dequantize_reorder(&zz, &q);
        prop_assert_eq!(back[idx], 7);
        prop_assert_eq!(back.iter().filter(|&&v| v != 0).count(), 1);
    }

    #[test]
    fn any_image_survives_encode_decode(
        seed in 0u64..u64::MAX,
        quality in 30u8..=95,
    ) {
        // Structured-random image: random base + gradient, 16x16.
        let (w, h) = (16usize, 16usize);
        let mut x = seed | 1;
        let mut img = vec![0u8; w * h];
        for (i, p) in img.iter_mut().enumerate() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = ((x >> 33) & 0x3F) as i32 - 32;
            let base = ((i % w) * 200 / w) as i32 + 20;
            *p = (base + noise).clamp(0, 255) as u8;
        }
        let data = encode_frame(&img, w, h, quality);
        let dec = decode_frame(&data, w, h, quality).unwrap();
        let p = psnr(&img, &dec);
        prop_assert!(p > 18.0, "PSNR {} dB at quality {}", p, quality);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fixed-point AAN inverse DCT stays within ±1 gray level of the
    /// reference float path on arbitrary dequantized coefficients in the
    /// baseline-JPEG range.
    #[test]
    fn fast_idct_within_one_level_of_reference(
        coeffs in prop::collection::vec(-1024i32..=1024, BLOCK_SIZE)
    ) {
        let mut c = [0i32; BLOCK_SIZE];
        c.copy_from_slice(&coeffs);
        let reference = mjpeg::dct::idct_to_pixels(&c);
        let fast = mjpeg::dct::idct_fast_to_pixels(&c);
        for (i, (&a, &b)) in reference.iter().zip(fast.iter()).enumerate() {
            prop_assert!(
                (a as i32 - b as i32).abs() <= 1,
                "pixel {}: reference {} vs fast {}", i, a, b
            );
        }
    }

    /// The runtime-dispatched SIMD IDCT must be **byte-identical** to
    /// the scalar fixed-point AAN kernel on arbitrary prescaled
    /// coefficients — vectorization is a pure implementation detail.
    /// The input range covers well beyond anything dequantization can
    /// produce, so the saturating store path is exercised too.
    #[test]
    fn simd_idct_is_byte_identical_to_scalar(
        coeffs in prop::collection::vec(-(1i32 << 22)..=(1 << 22), BLOCK_SIZE)
    ) {
        let mut c = [0i32; BLOCK_SIZE];
        c.copy_from_slice(&coeffs);
        let scalar = mjpeg::dct::idct_scaled_to_pixels(&c);
        let simd = mjpeg::simd::idct_scaled_to_pixels_simd(&c);
        prop_assert_eq!(
            &scalar[..], &simd[..],
            "SIMD level {:?} diverged from scalar", mjpeg::active_level()
        );
    }

    /// The bulk YCbCr→RGB conversion (vectorized where the host allows)
    /// must be byte-identical to the per-pixel scalar formula for any
    /// plane contents, including the clamp edges at 0 and 255.
    #[test]
    fn simd_color_conversion_is_byte_identical_to_scalar(
        px in prop::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 1..100)
    ) {
        let y: Vec<u8> = px.iter().map(|p| p.0).collect();
        let cb: Vec<u8> = px.iter().map(|p| p.1).collect();
        let cr: Vec<u8> = px.iter().map(|p| p.2).collect();
        let mut out = vec![0u8; px.len() * 3];
        mjpeg::color::ycbcr_to_rgb_slice(&y, &cb, &cr, &mut out);
        for (i, &(yy, cbb, crr)) in px.iter().enumerate() {
            let (r, g, b) = mjpeg::color::ycbcr_to_rgb(yy, cbb, crr);
            prop_assert_eq!(
                (out[i * 3], out[i * 3 + 1], out[i * 3 + 2]),
                (r, g, b),
                "pixel {} differs (SIMD level {:?})", i, mjpeg::active_level()
            );
        }
    }

    /// The two-level LUT Huffman decoder produces exactly the same
    /// quantized blocks — and consumes exactly the same bits — as the
    /// bit-serial `decode_block_bitwise` on any encodable image.
    #[test]
    fn lut_huffman_decode_is_bit_identical_to_reference(
        seed in 0u64..10_000,
        quality in 30u8..=95,
    ) {
        let (w, h) = (16usize, 16usize);
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut img = vec![0u8; w * h];
        for p in img.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *p = (x >> 56) as u8;
        }
        let data = mjpeg::codec::encode_frame(&img, w, h, quality);
        let mut lut = mjpeg::codec::EntropyDecoder::new(&data);
        let mut bitwise = BitReader::new(&data);
        let mut pred = 0;
        for block in 0..(w / 8) * (h / 8) {
            let a = lut.next_block().unwrap();
            let (b, next_pred) = mjpeg::codec::decode_block_bitwise(
                &mut bitwise,
                mjpeg::huffman::luma_dc_decoder(),
                mjpeg::huffman::luma_ac_decoder(),
                pred,
            )
            .unwrap();
            pred = next_pred;
            prop_assert_eq!(&a[..], &b[..], "block {} differs", block);
            prop_assert_eq!(lut.bits_consumed(), bitwise.bits_consumed());
        }
    }
}

/// Blocks the fast-decode oracle runs at most: past a synthesized
/// frame's last block the decoders run into its padding, and a mutated
/// input may decode much further.
const ORACLE_BLOCKS: usize = 4096;

/// The table-driven Fetch decode against its oracle, block by block
/// until both fail or [`ORACLE_BLOCKS`]: `next_block_scaled` must equal
/// the bit-serial `decode_block_bitwise` + `dequantize_reorder_scaled`,
/// and `next_block` the bit-serial zigzag block — same coefficients,
/// same `bits_consumed`, and the first `Err` at the same block.
fn assert_fast_decode_matches_oracle(data: &[u8], quality: u8) {
    use mjpeg::codec::{decode_block_bitwise, EntropyDecoder};
    use mjpeg::huffman::{luma_ac_decoder, luma_dc_decoder};
    use mjpeg::quant::{dequantize_reorder_scaled, fast_dequant_table};

    let ftable = fast_dequant_table(&scaled_qtable(quality));
    let mut serial = BitReader::new(data);
    let mut pred = 0;
    let mut scaled = EntropyDecoder::new(data);
    let mut zigzag = EntropyDecoder::new(data);
    let mut out = [0i32; BLOCK_SIZE];
    for block in 0..ORACLE_BLOCKS {
        let got_scaled = scaled.next_block_scaled(&ftable, &mut out);
        let got_zigzag = zigzag.next_block();
        let Ok((zz, next_pred)) =
            decode_block_bitwise(&mut serial, luma_dc_decoder(), luma_ac_decoder(), pred)
        else {
            assert!(
                got_scaled.is_err() && got_zigzag.is_err(),
                "block {block}: the oracle fails here, the fast decode does not"
            );
            return;
        };
        pred = next_pred;
        assert!(
            got_scaled.is_ok(),
            "block {block}: the fast decode fails, the oracle does not"
        );
        assert_eq!(
            out,
            dequantize_reorder_scaled(&zz, &ftable),
            "block {block}: coefficients"
        );
        assert_eq!(
            scaled.bits_consumed(),
            serial.bits_consumed(),
            "block {block}: bits"
        );
        assert_eq!(got_zigzag, Ok(zz), "block {block}: zigzag coefficients");
        assert_eq!(
            zigzag.bits_consumed(),
            serial.bits_consumed(),
            "block {block}: bits"
        );
    }
}

/// One synthesized frame's entropy-coded segment.
fn synthesized_segment(width: usize, height: usize, quality: u8, seed: u64) -> Vec<u8> {
    let stream = mjpeg::synthesize_stream(1, width, height, quality, seed);
    stream.frames[0].data.clone()
}

proptest! {
    /// Synthesized frames at four qualities and both benchmark
    /// geometries, as encoded and with bits flipped.
    #[test]
    fn fast_decode_matches_bit_serial_oracle(
        quality in prop::sample::select(vec![10u8, 50, 75, 95]),
        (width, height) in prop::sample::select(vec![(48usize, 24usize), (320, 240)]),
        seed in 0u64..1_000,
        flips in prop::collection::vec((0usize..usize::MAX, 0u32..8), 1..6),
    ) {
        let mut data = synthesized_segment(width, height, quality, seed);
        assert_fast_decode_matches_oracle(&data, quality);
        for &(at, bit) in &flips {
            let at = at % data.len();
            data[at] ^= 1 << bit;
        }
        assert_fast_decode_matches_oracle(&data, quality);
    }
}

/// A short segment cut at every byte: the exhausted-input paths of the
/// fast decode (zero-padded probe, a code or magnitude cut in two).
#[test]
fn fast_decode_matches_oracle_on_every_truncation() {
    for quality in [10u8, 50, 75, 95] {
        let data = synthesized_segment(48, 24, quality, 7);
        for cut in 0..=data.len() {
            assert_fast_decode_matches_oracle(&data[..cut], quality);
        }
    }
}

/// Runs of `0xFF` and of stuffed `0xFF 0x00` written at every offset
/// around the reader's 32-bit refill boundary: the byte-wise unstuffing
/// path in the middle of a probe.
#[test]
fn fast_decode_matches_oracle_around_ff_runs() {
    let data = synthesized_segment(48, 24, 75, 11);
    for pattern in [&[0xFFu8][..], &[0xFF, 0x00][..]] {
        for run in 1..=6 {
            for at in 0..16 {
                let mut mutated = data.clone();
                for (i, b) in pattern.iter().cycle().take(run * pattern.len()).enumerate() {
                    if let Some(slot) = mutated.get_mut(at + i) {
                        *slot = *b;
                    }
                }
                assert_fast_decode_matches_oracle(&mutated, 75);
            }
        }
    }
}

/// A DC predictor walking past `i16::MAX` (40 blocks of the largest
/// DC difference, AC all zero): the zigzag value wraps as `dc as i16`
/// does, and at quality 10 the prescaled product saturates at `i32`.
#[test]
fn fast_decode_matches_oracle_when_the_dc_predictor_wraps() {
    let dc = HuffEncoder::new(&HuffSpec::luma_dc());
    let ac = HuffEncoder::new(&HuffSpec::luma_ac());
    let mut w = BitWriter::new();
    for _ in 0..40 {
        dc.encode(&mut w, 11);
        put_magnitude(&mut w, 2047, 11);
        ac.encode(&mut w, 0x00);
    }
    let data = w.finish();
    for quality in [10u8, 75] {
        assert_fast_decode_matches_oracle(&data, quality);
    }
}

/// Deterministic saturation edges the random sampler might miss: a DC
/// coefficient at either extreme with all-zero AC drives every output
/// pixel to the clamp rails, where scalar and SIMD must still agree.
#[test]
fn simd_idct_saturation_edges_match_scalar() {
    use mjpeg::dct::BLOCK_SIZE;
    for dc in [
        i32::MIN / 2,
        -(1 << 24),
        -8192,
        0,
        8192,
        1 << 24,
        i32::MAX / 2,
    ] {
        let mut c = [0i32; BLOCK_SIZE];
        c[0] = dc;
        assert_eq!(
            mjpeg::dct::idct_scaled_to_pixels(&c)[..],
            mjpeg::simd::idct_scaled_to_pixels_simd(&c)[..],
            "dc {dc}: SIMD diverged at saturation edge"
        );
    }
}
