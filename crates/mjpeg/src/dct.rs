//! 8×8 forward and inverse Discrete Cosine Transform (type-II / type-III),
//! separable implementation over `f32`.
//!
//! This is the kernel the paper's IDCT components execute (§3.2). The
//! implementation favours clarity and exactness over speed — the
//! *simulated* execution cost is supplied by work annotations, and on
//! the SMP backend the decode workload is tiny next to communication.

use std::f32::consts::PI;

/// Number of pixels in a block.
pub const BLOCK_SIZE: usize = 64;
/// Block edge length.
pub const N: usize = 8;

/// Precomputed cos((2x+1) u π / 16) table, `COS[x][u]`.
fn cos_table() -> &'static [[f32; N]; N] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[[f32; N]; N]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [[0.0f32; N]; N];
        for (x, row) in t.iter_mut().enumerate() {
            for (u, v) in row.iter_mut().enumerate() {
                *v = (((2 * x + 1) as f32) * (u as f32) * PI / 16.0).cos();
            }
        }
        t
    })
}

fn alpha(u: usize) -> f32 {
    if u == 0 {
        1.0 / (2.0f32).sqrt()
    } else {
        1.0
    }
}

/// Forward 2-D DCT of a level-shifted block (row-major, values typically
/// in [-128, 127]). Output coefficients in natural (row-major) order.
pub fn fdct(block: &[f32; BLOCK_SIZE]) -> [f32; BLOCK_SIZE] {
    let cos = cos_table();
    let mut out = [0.0f32; BLOCK_SIZE];
    // Rows then columns (separable).
    let mut tmp = [0.0f32; BLOCK_SIZE];
    for y in 0..N {
        for u in 0..N {
            let mut s = 0.0;
            for x in 0..N {
                s += block[y * N + x] * cos[x][u];
            }
            tmp[y * N + u] = s;
        }
    }
    for u in 0..N {
        for v in 0..N {
            let mut s = 0.0;
            for y in 0..N {
                s += tmp[y * N + u] * cos[y][v];
            }
            out[v * N + u] = 0.25 * alpha(u) * alpha(v) * s;
        }
    }
    out
}

/// Inverse 2-D DCT; returns the level-shifted spatial block.
pub fn idct(coeffs: &[f32; BLOCK_SIZE]) -> [f32; BLOCK_SIZE] {
    let cos = cos_table();
    let mut tmp = [0.0f32; BLOCK_SIZE];
    for v in 0..N {
        for x in 0..N {
            let mut s = 0.0;
            for u in 0..N {
                s += alpha(u) * coeffs[v * N + u] * cos[x][u];
            }
            tmp[v * N + x] = s;
        }
    }
    let mut out = [0.0f32; BLOCK_SIZE];
    for x in 0..N {
        for y in 0..N {
            let mut s = 0.0;
            for v in 0..N {
                s += alpha(v) * tmp[v * N + x] * cos[y][v];
            }
            out[y * N + x] = 0.25 * s;
        }
    }
    out
}

/// IDCT over integer (dequantized) coefficients, producing clamped u8
/// pixels (adds back the +128 level shift).
pub fn idct_to_pixels(coeffs: &[i32; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
    let mut f = [0.0f32; BLOCK_SIZE];
    for (dst, &src) in f.iter_mut().zip(coeffs.iter()) {
        *dst = src as f32;
    }
    let spatial = idct(&f);
    let mut out = [0u8; BLOCK_SIZE];
    for (dst, &v) in out.iter_mut().zip(spatial.iter()) {
        *dst = round_to_pixel(v + 128.0);
    }
    out
}

/// `x.round().clamp(0.0, 255.0) as u8`, bit for bit (NaN gives 0),
/// without `f32::round`, which baseline x86-64 compiles to a libm call:
/// truncate, compare the remainder to ±0.5, clamp. The first clamp keeps
/// the truncation exact and its ±1 in range.
#[inline(always)]
fn round_to_pixel(x: f32) -> u8 {
    let x = x.clamp(-1.0, 256.0);
    let t = x as i32;
    let rem = x - t as f32;
    let r = if rem >= 0.5 {
        t + 1
    } else if rem <= -0.5 {
        t - 1
    } else {
        t
    };
    r.clamp(0, 255) as u8
}

/// Level-shift u8 pixels to centered f32 for the forward transform.
pub fn pixels_to_centered(pixels: &[u8; BLOCK_SIZE]) -> [f32; BLOCK_SIZE] {
    let mut out = [0.0f32; BLOCK_SIZE];
    for (dst, &p) in out.iter_mut().zip(pixels.iter()) {
        *dst = p as f32 - 128.0;
    }
    out
}

// ---------------------------------------------------------------------
// Fast integer kernels (AAN: Arai, Agui, Nakajima 1988).
//
// The 1-D 8-point transform is factored so only 5 multiplications
// remain inside the butterfly network; the per-frequency output scales
// aan[u]·aan[v] are constant and get folded into the dequantization
// tables, so the hot loop is adds, subs and a handful of fixed-point
// multiplies. Arithmetic is i64 with AAN_FRAC_BITS fractional bits —
// wide enough that the only precision loss is the final rounding, which
// keeps the pixel output within ±1 of the exact float transform.
// ---------------------------------------------------------------------

/// Fractional bits used by the fixed-point AAN kernels and the folded
/// dequantization tables.
pub const AAN_FRAC_BITS: u32 = 12;

/// Which inverse transform a decode path runs (the encoder is the float
/// reference only). Every kind decodes with the same entropy loop,
/// [`EntropyDecoder::next_block_scaled`](crate::codec::EntropyDecoder::next_block_scaled);
/// a kind is the dequantization table that loop multiplies by
/// ([`DctKind::dequant_table`]) and the transform that reads its output
/// ([`DctKind::transform`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DctKind {
    /// The plain quantizer steps and the exact separable float
    /// transform (the seed implementation, kept as the correctness
    /// oracle).
    #[default]
    ReferenceFloat,
    /// Fixed-point AAN butterflies with scales folded into quantization.
    FastAan,
    /// The AAN butterflies vectorized over i64 SIMD lanes
    /// ([`crate::simd`]); bit-exact with [`DctKind::FastAan`], falling
    /// back to it where no vector unit is available.
    FastSimd,
}

impl DctKind {
    /// The natural-order table the decode loop multiplies each quantized
    /// coefficient by at `quality`: the quantizer steps for
    /// [`DctKind::ReferenceFloat`], the steps folded with the AAN scales
    /// ([`crate::quant::fast_dequant_table`]) for the fast kinds.
    pub fn dequant_table(self, quality: u8) -> [i32; BLOCK_SIZE] {
        let qtable = crate::quant::scaled_qtable(quality);
        match self {
            DctKind::ReferenceFloat => qtable.map(i32::from),
            DctKind::FastAan | DctKind::FastSimd => crate::quant::fast_dequant_table(&qtable),
        }
    }

    /// The inverse transform for coefficients dequantized with
    /// [`DctKind::dequant_table`].
    pub fn transform(self) -> fn(&[i32; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
        match self {
            DctKind::ReferenceFloat => idct_to_pixels,
            DctKind::FastAan => idct_scaled_to_pixels,
            DctKind::FastSimd => crate::simd::idct_scaled_to_pixels_simd,
        }
    }
}

/// AAN per-frequency scale factors: `aan[0] = 1`, `aan[k] =
/// cos(kπ/16)·√2`. The 2-D transform's residual scale is
/// `aan[u]·aan[v]`, folded into quant tables by
/// [`crate::quant::fast_dequant_table`].
pub fn aan_scales() -> &'static [f64; N] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[f64; N]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0.0f64; N];
        t[0] = 1.0;
        for (k, v) in t.iter_mut().enumerate().skip(1) {
            *v = (k as f64 * std::f64::consts::PI / 16.0).cos() * std::f64::consts::SQRT_2;
        }
        t
    })
}

// Butterfly constants at AAN_FRAC_BITS fractional bits.
const FIX_1_414213562: i64 = 5793; // √2
const FIX_1_847759065: i64 = 7568; // 2·cos(π/8)
const FIX_1_082392200: i64 = 4433; // √2·cos(3π/8)/cos... (c2−c6 path)
const FIX_2_613125930: i64 = 10703; // (c2+c6 path)

#[inline(always)]
fn fmul(a: i64, c: i64) -> i64 {
    (a * c + (1 << (AAN_FRAC_BITS - 1))) >> AAN_FRAC_BITS
}

/// One 1-D AAN inverse pass over 8 values at stride `stride`.
#[inline(always)]
fn idct_1d(data: &mut [i64; BLOCK_SIZE], base: usize, stride: usize) {
    let at = |i: usize| base + i * stride;

    // Even part.
    let tmp0 = data[at(0)];
    let tmp1 = data[at(2)];
    let tmp2 = data[at(4)];
    let tmp3 = data[at(6)];
    let tmp10 = tmp0 + tmp2;
    let tmp11 = tmp0 - tmp2;
    let tmp13 = tmp1 + tmp3;
    let tmp12 = fmul(tmp1 - tmp3, FIX_1_414213562) - tmp13;
    let e0 = tmp10 + tmp13;
    let e3 = tmp10 - tmp13;
    let e1 = tmp11 + tmp12;
    let e2 = tmp11 - tmp12;

    // Odd part.
    let tmp4 = data[at(1)];
    let tmp5 = data[at(3)];
    let tmp6 = data[at(5)];
    let tmp7 = data[at(7)];
    let z13 = tmp6 + tmp5;
    let z10 = tmp6 - tmp5;
    let z11 = tmp4 + tmp7;
    let z12 = tmp4 - tmp7;
    let o7 = z11 + z13;
    let t11 = fmul(z11 - z13, FIX_1_414213562);
    let z5 = fmul(z10 + z12, FIX_1_847759065);
    let t10 = fmul(z12, FIX_1_082392200) - z5;
    let t12 = z5 - fmul(z10, FIX_2_613125930);
    let o6 = t12 - o7;
    let o5 = t11 - o6;
    let o4 = t10 + o5;

    data[at(0)] = e0 + o7;
    data[at(7)] = e0 - o7;
    data[at(1)] = e1 + o6;
    data[at(6)] = e1 - o6;
    data[at(2)] = e2 + o5;
    data[at(5)] = e2 - o5;
    data[at(4)] = e3 + o4;
    data[at(3)] = e3 - o4;
}

/// Fast integer IDCT over coefficients that were dequantized with
/// [`crate::quant::fast_dequant_table`] (i.e. carry the AAN scales at
/// `2^AAN_FRAC_BITS`); returns clamped u8 pixels with the +128 level
/// shift restored. This is the production kernel of the pipeline's IDCT
/// components when [`DctKind::FastAan`] is selected.
pub fn idct_scaled_to_pixels(coeffs: &[i32; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
    let mut w = [0i64; BLOCK_SIZE];
    for (dst, &src) in w.iter_mut().zip(coeffs.iter()) {
        *dst = src as i64;
    }
    for col in 0..N {
        idct_1d(&mut w, col, N);
    }
    for row in 0..N {
        idct_1d(&mut w, row * N, 1);
    }
    // The two passes contribute the DCT's 8× gain on top of the 2^12
    // fixed-point scale: descale by 2^(AAN_FRAC_BITS + 3), rounding.
    const DESCALE: u32 = AAN_FRAC_BITS + 3;
    let mut out = [0u8; BLOCK_SIZE];
    for (dst, &v) in out.iter_mut().zip(w.iter()) {
        let p = ((v + (1 << (DESCALE - 1))) >> DESCALE) + 128;
        *dst = p.clamp(0, 255) as u8;
    }
    out
}

/// Fast integer IDCT over plain dequantized coefficients (the same
/// input domain as [`idct_to_pixels`]): applies the AAN prescale
/// internally, then runs the integer butterflies. Used where the folded
/// dequant table isn't in play — most importantly the ±1-of-reference
/// property tests.
pub fn idct_fast_to_pixels(coeffs: &[i32; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
    use std::sync::OnceLock;
    static PRESCALE: OnceLock<[i32; BLOCK_SIZE]> = OnceLock::new();
    let pre = PRESCALE.get_or_init(|| {
        let aan = aan_scales();
        let mut t = [0i32; BLOCK_SIZE];
        for v in 0..N {
            for u in 0..N {
                t[v * N + u] = (aan[u] * aan[v] * (1u32 << AAN_FRAC_BITS) as f64).round() as i32;
            }
        }
        t
    });
    let mut scaled = [0i32; BLOCK_SIZE];
    for (dst, (&c, &p)) in scaled.iter_mut().zip(coeffs.iter().zip(pre.iter())) {
        let s = c as i64 * p as i64;
        *dst = s.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
    }
    idct_scaled_to_pixels(&scaled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_only_block_transforms_to_flat() {
        // A coefficient block with only DC set inverse-transforms to a
        // constant block of DC/8.
        let mut c = [0.0f32; BLOCK_SIZE];
        c[0] = 80.0;
        let s = idct(&c);
        for &v in &s {
            assert!((v - 10.0).abs() < 1e-4, "expected 10, got {v}");
        }
    }

    #[test]
    fn fdct_of_flat_block_is_dc_only() {
        let block = [32.0f32; BLOCK_SIZE];
        let c = fdct(&block);
        assert!((c[0] - 256.0).abs() < 1e-3, "DC = 8 * value: {}", c[0]);
        for &v in &c[1..] {
            assert!(v.abs() < 1e-3, "AC leakage: {v}");
        }
    }

    #[test]
    fn round_trip_is_near_identity() {
        let mut block = [0.0f32; BLOCK_SIZE];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i as f32 * 7.3).sin() * 100.0).round();
        }
        let rec = idct(&fdct(&block));
        for (a, b) in block.iter().zip(rec.iter()) {
            assert!((a - b).abs() < 0.01, "{a} vs {b}");
        }
    }

    #[test]
    fn pixel_round_trip_within_one_level() {
        let mut px = [0u8; BLOCK_SIZE];
        for (i, p) in px.iter_mut().enumerate() {
            *p = ((i * 37 + 11) % 256) as u8;
        }
        let c = fdct(&pixels_to_centered(&px));
        let mut ci = [0i32; BLOCK_SIZE];
        for (d, &s) in ci.iter_mut().zip(c.iter()) {
            *d = s.round() as i32;
        }
        let rec = idct_to_pixels(&ci);
        for (a, b) in px.iter().zip(rec.iter()) {
            assert!((*a as i32 - *b as i32).abs() <= 1, "{a} vs {b}");
        }
    }

    #[test]
    fn fast_idct_matches_reference_within_one_level() {
        // Deterministic pseudo-random dequantized coefficient blocks in
        // the baseline-JPEG-representable range.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for trial in 0..200 {
            let mut c = [0i32; BLOCK_SIZE];
            for v in c.iter_mut() {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *v = ((x >> 33) as i32 % 2048) - 1024;
            }
            let reference = idct_to_pixels(&c);
            let fast = idct_fast_to_pixels(&c);
            for (i, (&a, &b)) in reference.iter().zip(fast.iter()).enumerate() {
                assert!(
                    (a as i32 - b as i32).abs() <= 1,
                    "trial {trial} pixel {i}: reference {a} vs fast {b}"
                );
            }
        }
    }

    #[test]
    fn round_to_pixel_is_round_then_clamp() {
        let oracle = |x: f32| x.round().clamp(0.0, 255.0) as u8;
        let check = |x: f32| {
            assert_eq!(
                round_to_pixel(x),
                oracle(x),
                "x = {x:e} ({:#x})",
                x.to_bits()
            )
        };
        // Every half-integer in [-2048, 2048] and the ulps on both sides.
        for h in -4096i32..=4096 {
            let x = h as f32 * 0.5;
            check(x);
            check(f32::from_bits(x.to_bits().wrapping_add(1)));
            check(f32::from_bits(x.to_bits().wrapping_sub(1)));
        }
        // A dense sweep over [-2048, 2048].
        let mut x = -2048.0f32;
        while x <= 2048.0 {
            check(x);
            x += 1.0 / 1024.0 + 1.0 / 3_000_000.0;
        }
        for x in [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -0.0,
            0.0,
            1e10,
            -1e10,
        ] {
            check(x);
        }
    }

    #[test]
    fn fast_idct_dc_only_is_flat() {
        let mut c = [0i32; BLOCK_SIZE];
        c[0] = 80;
        let px = idct_fast_to_pixels(&c);
        for &p in &px {
            assert!((p as i32 - 138).abs() <= 1, "expected ~138, got {p}");
        }
    }

    #[test]
    fn energy_is_preserved() {
        // Parseval: sum of squares is invariant under orthonormal DCT.
        let mut block = [0.0f32; BLOCK_SIZE];
        for (i, v) in block.iter_mut().enumerate() {
            *v = (i as f32) - 31.5;
        }
        let c = fdct(&block);
        let e_spatial: f32 = block.iter().map(|v| v * v).sum();
        let e_freq: f32 = c.iter().map(|v| v * v).sum();
        assert!(
            (e_spatial - e_freq).abs() / e_spatial < 1e-4,
            "{e_spatial} vs {e_freq}"
        );
    }
}
