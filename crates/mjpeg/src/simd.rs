//! SIMD inverse-DCT kernel: the same fixed-point AAN butterfly network
//! as [`crate::dct::idct_scaled_to_pixels`], vectorized over i64 lanes.
//!
//! **Bit-exactness.** The scalar kernel runs a column pass (one 1-D
//! butterfly per column) followed by a row pass. Vectorizing across
//! columns makes every butterfly operation elementwise — each lane
//! performs *exactly* the i64 additions, subtractions, multiplies and
//! arithmetic shifts of the scalar code, in the same order. The row
//! pass reuses the identical column-pass code over the transposed
//! matrix (a transpose is pure data movement). The output is therefore
//! byte-identical to the scalar kernel on every input, which the
//! property tests in `tests/` assert.
//!
//! **Dispatch.** [`active_level`] picks the widest instruction set the
//! CPU supports at first use (`AVX2` → 4×i64 lanes, else `SSE2` →
//! 2×i64 lanes; SSE2 is part of the x86-64 baseline). Non-x86-64
//! builds, and builds where the `EMBERA_SIMD=scalar` environment
//! override is set, fall back to the scalar kernel — `DctKind::FastSimd`
//! is always safe to select.

use crate::dct::{idct_scaled_to_pixels, BLOCK_SIZE};

/// Instruction-set level the SIMD kernel dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Scalar fallback (non-x86-64, or forced via `EMBERA_SIMD=scalar`).
    Scalar,
    /// 2×i64 lanes; baseline on every x86-64 CPU.
    Sse2,
    /// 4×i64 lanes; runtime-detected.
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name, used in bench provenance records.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// The level [`idct_scaled_to_pixels_simd`] dispatches to, resolved once.
///
/// `EMBERA_SIMD` (`scalar` | `sse2` | `avx2`) caps the level below what
/// the CPU supports — it can force the fallback for testing, never force
/// an unsupported instruction set.
pub fn active_level() -> SimdLevel {
    use std::sync::OnceLock;
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let detected = detect_level();
        match std::env::var("EMBERA_SIMD").as_deref() {
            Ok("scalar") => SimdLevel::Scalar,
            Ok("sse2") if detected != SimdLevel::Scalar => SimdLevel::Sse2,
            _ => detected,
        }
    })
}

#[cfg(target_arch = "x86_64")]
fn detect_level() -> SimdLevel {
    if is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else {
        SimdLevel::Sse2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_level() -> SimdLevel {
    SimdLevel::Scalar
}

/// SIMD IDCT over AAN-prescaled coefficients (same input domain as
/// [`crate::dct::idct_scaled_to_pixels`], i.e. dequantized with
/// [`crate::quant::fast_dequant_table`]); byte-identical output.
pub fn idct_scaled_to_pixels_simd(coeffs: &[i32; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { avx2::idct_scaled_to_pixels(coeffs) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { sse2::idct_scaled_to_pixels(coeffs) },
        _ => idct_scaled_to_pixels(coeffs),
    }
}

// ---------------------------------------------------------------------
// Shared butterfly definition.
//
// The 1-D AAN inverse butterfly over 8 vector registers, written once
// as a macro so the AVX2 and SSE2 kernels are lane-width-generic while
// still compiling to plain intrinsics inside `#[target_feature]`
// functions. `$add`/`$sub`/`$fmul` are elementwise i64 ops supplied by
// each backend; the structure mirrors `dct::idct_1d` line for line.
// ---------------------------------------------------------------------

macro_rules! idct_butterfly {
    ($v:ident, $add:ident, $sub:ident, $fmul:ident) => {{
        // Even part.
        let tmp10 = $add($v[0], $v[4]);
        let tmp11 = $sub($v[0], $v[4]);
        let tmp13 = $add($v[2], $v[6]);
        let tmp12 = $sub($fmul($sub($v[2], $v[6]), FIX_1_414213562), tmp13);
        let e0 = $add(tmp10, tmp13);
        let e3 = $sub(tmp10, tmp13);
        let e1 = $add(tmp11, tmp12);
        let e2 = $sub(tmp11, tmp12);

        // Odd part.
        let z13 = $add($v[5], $v[3]);
        let z10 = $sub($v[5], $v[3]);
        let z11 = $add($v[1], $v[7]);
        let z12 = $sub($v[1], $v[7]);
        let o7 = $add(z11, z13);
        let t11 = $fmul($sub(z11, z13), FIX_1_414213562);
        let z5 = $fmul($add(z10, z12), FIX_1_847759065);
        let t10 = $sub($fmul(z12, FIX_1_082392200), z5);
        let t12 = $sub(z5, $fmul(z10, FIX_2_613125930));
        let o6 = $sub(t12, o7);
        let o5 = $sub(t11, o6);
        let o4 = $add(t10, o5);

        $v[0] = $add(e0, o7);
        $v[7] = $sub(e0, o7);
        $v[1] = $add(e1, o6);
        $v[6] = $sub(e1, o6);
        $v[2] = $add(e2, o5);
        $v[5] = $sub(e2, o5);
        $v[4] = $add(e3, o4);
        $v[3] = $sub(e3, o4);
    }};
}

// Butterfly constants, duplicated from dct.rs (kept private there); the
// consistency test below guards against drift.
const FIX_1_414213562: i64 = 5793;
const FIX_1_847759065: i64 = 7568;
const FIX_1_082392200: i64 = 4433;
const FIX_2_613125930: i64 = 10703;
const AAN_FRAC_BITS: u32 = crate::dct::AAN_FRAC_BITS;
const DESCALE: i32 = AAN_FRAC_BITS as i32 + 3;

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    #[inline(always)]
    unsafe fn add(a: __m256i, b: __m256i) -> __m256i {
        _mm256_add_epi64(a, b)
    }

    #[inline(always)]
    unsafe fn sub(a: __m256i, b: __m256i) -> __m256i {
        _mm256_sub_epi64(a, b)
    }

    /// Arithmetic shift right of i64 lanes (AVX2 has no `srai_epi64`):
    /// logical shift, then OR in the sign bits.
    #[inline(always)]
    unsafe fn sra64(x: __m256i, s: i32) -> __m256i {
        let sign = _mm256_cmpgt_epi64(_mm256_setzero_si256(), x);
        _mm256_or_si256(
            _mm256_srl_epi64(x, _mm_cvtsi32_si128(s)),
            _mm256_sll_epi64(sign, _mm_cvtsi32_si128(64 - s)),
        )
    }

    /// Low 64 bits of `a * c` for a small positive constant `c < 2^32`:
    /// split `a` into 32-bit halves; `c`'s high half is zero, so
    /// `lo64(a·c) = a_lo·c + (a_hi·c << 32)`. Matches the scalar i64
    /// product exactly (no overflow occurs for this kernel's ranges).
    #[inline(always)]
    unsafe fn mul_const(a: __m256i, c: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(a, c);
        let hi = _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), c);
        _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(hi))
    }

    /// `fmul(a, c) = (a·c + 2^11) >> 12`, elementwise — identical to
    /// `dct::fmul`.
    #[inline(always)]
    unsafe fn fmul(a: __m256i, c: i64) -> __m256i {
        let prod = mul_const(a, _mm256_set1_epi64x(c));
        sra64(
            _mm256_add_epi64(prod, _mm256_set1_epi64x(1 << (AAN_FRAC_BITS - 1))),
            AAN_FRAC_BITS as i32,
        )
    }

    /// 1-D butterfly over 8 registers of 4 columns each.
    #[inline(always)]
    unsafe fn butterfly(v: &mut [__m256i; 8]) {
        idct_butterfly!(v, add, sub, fmul);
    }

    /// Transpose a 4×4 block of i64 held in 4 registers.
    #[inline(always)]
    unsafe fn transpose4(r: [__m256i; 4]) -> [__m256i; 4] {
        let t0 = _mm256_unpacklo_epi64(r[0], r[1]);
        let t1 = _mm256_unpackhi_epi64(r[0], r[1]);
        let t2 = _mm256_unpacklo_epi64(r[2], r[3]);
        let t3 = _mm256_unpackhi_epi64(r[2], r[3]);
        [
            _mm256_permute2x128_si256::<0x20>(t0, t2),
            _mm256_permute2x128_si256::<0x20>(t1, t3),
            _mm256_permute2x128_si256::<0x31>(t0, t2),
            _mm256_permute2x128_si256::<0x31>(t1, t3),
        ]
    }

    /// Transpose the 8×8 i64 matrix held as (left-half, right-half)
    /// register pairs per row.
    #[inline(always)]
    unsafe fn transpose8(lo: &mut [__m256i; 8], hi: &mut [__m256i; 8]) {
        let a = transpose4([lo[0], lo[1], lo[2], lo[3]]);
        let b = transpose4([hi[0], hi[1], hi[2], hi[3]]);
        let c = transpose4([lo[4], lo[5], lo[6], lo[7]]);
        let d = transpose4([hi[4], hi[5], hi[6], hi[7]]);
        lo[..4].copy_from_slice(&a);
        hi[..4].copy_from_slice(&c);
        lo[4..].copy_from_slice(&b);
        hi[4..].copy_from_slice(&d);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn idct_scaled_to_pixels(coeffs: &[i32; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
        // Widen each row of 8 i32 coefficients to two registers of 4 i64.
        let mut lo = [_mm256_setzero_si256(); 8];
        let mut hi = [_mm256_setzero_si256(); 8];
        for r in 0..8 {
            let row = _mm256_loadu_si256(coeffs.as_ptr().add(r * 8) as *const __m256i);
            lo[r] = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(row));
            hi[r] = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(row));
        }

        // Column pass: registers are rows, lanes are columns, so the
        // butterfly runs 4 columns at a time.
        butterfly(&mut lo);
        butterfly(&mut hi);

        // Row pass: same butterfly over the transposed matrix.
        transpose8(&mut lo, &mut hi);
        butterfly(&mut lo);
        butterfly(&mut hi);
        transpose8(&mut lo, &mut hi);

        // Descale `((v + 2^14) >> 15) + 128`, clamp to [0, 255], narrow.
        let round = _mm256_set1_epi64x(1 << (DESCALE - 1));
        let mut out = [0u8; BLOCK_SIZE];
        let mut tmp = [0i64; 4];
        for r in 0..8 {
            for (half, base) in [(lo[r], 0usize), (hi[r], 4usize)] {
                let v = sra64(_mm256_add_epi64(half, round), DESCALE);
                _mm256_storeu_si256(tmp.as_mut_ptr() as *mut __m256i, v);
                for (k, &t) in tmp.iter().enumerate() {
                    out[r * 8 + base + k] = (t + 128).clamp(0, 255) as u8;
                }
            }
        }
        out
    }
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::*;
    use std::arch::x86_64::*;

    #[inline(always)]
    unsafe fn add(a: __m128i, b: __m128i) -> __m128i {
        _mm_add_epi64(a, b)
    }

    #[inline(always)]
    unsafe fn sub(a: __m128i, b: __m128i) -> __m128i {
        _mm_sub_epi64(a, b)
    }

    /// Arithmetic i64 shift right via logical shift + sign fill. SSE2
    /// also lacks 64-bit compares, so the sign mask comes from
    /// broadcasting each lane's top dword and shifting in its sign.
    #[inline(always)]
    unsafe fn sra64(x: __m128i, s: i32) -> __m128i {
        let sign = _mm_srai_epi32::<31>(_mm_shuffle_epi32::<0b11_11_01_01>(x));
        _mm_or_si128(
            _mm_srl_epi64(x, _mm_cvtsi32_si128(s)),
            _mm_sll_epi64(sign, _mm_cvtsi32_si128(64 - s)),
        )
    }

    /// Low 64 bits of `a · c` for small positive constant `c` (see the
    /// AVX2 twin).
    #[inline(always)]
    unsafe fn mul_const(a: __m128i, c: __m128i) -> __m128i {
        let lo = _mm_mul_epu32(a, c);
        let hi = _mm_mul_epu32(_mm_srli_epi64::<32>(a), c);
        _mm_add_epi64(lo, _mm_slli_epi64::<32>(hi))
    }

    #[inline(always)]
    unsafe fn fmul(a: __m128i, c: i64) -> __m128i {
        let prod = mul_const(a, _mm_set1_epi64x(c));
        sra64(
            _mm_add_epi64(prod, _mm_set1_epi64x(1 << (AAN_FRAC_BITS - 1))),
            AAN_FRAC_BITS as i32,
        )
    }

    #[inline(always)]
    unsafe fn butterfly(v: &mut [__m128i; 8]) {
        idct_butterfly!(v, add, sub, fmul);
    }

    /// Transpose the 8×8 i64 matrix held as 4 registers of 2 lanes per
    /// row (`m[r][q]` covers columns 2q, 2q+1): swap 2×2 lane blocks
    /// with unpack pairs.
    #[inline(always)]
    unsafe fn transpose8(m: &mut [[__m128i; 4]; 8]) {
        for bi in 0..4 {
            for bj in bi..4 {
                let a = m[2 * bi][bj];
                let b = m[2 * bi + 1][bj];
                let t0 = _mm_unpacklo_epi64(a, b);
                let t1 = _mm_unpackhi_epi64(a, b);
                if bi == bj {
                    m[2 * bi][bj] = t0;
                    m[2 * bi + 1][bj] = t1;
                } else {
                    let c = m[2 * bj][bi];
                    let d = m[2 * bj + 1][bi];
                    m[2 * bi][bj] = _mm_unpacklo_epi64(c, d);
                    m[2 * bi + 1][bj] = _mm_unpackhi_epi64(c, d);
                    m[2 * bj][bi] = t0;
                    m[2 * bj + 1][bi] = t1;
                }
            }
        }
    }

    // The column gather/scatter loops index `m`'s *second* dimension
    // with a fixed lane offset — iterator rewrites obscure that.
    #[allow(clippy::needless_range_loop)]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn idct_scaled_to_pixels(coeffs: &[i32; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
        // m[r][q] holds row r, columns 2q..2q+2 as i64 lanes.
        let mut m = [[_mm_setzero_si128(); 4]; 8];
        for r in 0..8 {
            for q in 0..4 {
                let c0 = coeffs[r * 8 + 2 * q] as i64;
                let c1 = coeffs[r * 8 + 2 * q + 1] as i64;
                m[r][q] = _mm_set_epi64x(c1, c0);
            }
        }

        for q in 0..4 {
            let mut col = [
                m[0][q], m[1][q], m[2][q], m[3][q], m[4][q], m[5][q], m[6][q], m[7][q],
            ];
            butterfly(&mut col);
            for (r, v) in col.into_iter().enumerate() {
                m[r][q] = v;
            }
        }

        transpose8(&mut m);
        for q in 0..4 {
            let mut col = [
                m[0][q], m[1][q], m[2][q], m[3][q], m[4][q], m[5][q], m[6][q], m[7][q],
            ];
            butterfly(&mut col);
            for (r, v) in col.into_iter().enumerate() {
                m[r][q] = v;
            }
        }
        transpose8(&mut m);

        let round = _mm_set1_epi64x(1 << (DESCALE - 1));
        let mut out = [0u8; BLOCK_SIZE];
        let mut tmp = [0i64; 2];
        for r in 0..8 {
            for q in 0..4 {
                let v = sra64(_mm_add_epi64(m[r][q], round), DESCALE);
                _mm_storeu_si128(tmp.as_mut_ptr() as *mut __m128i, v);
                out[r * 8 + 2 * q] = (tmp[0] + 128).clamp(0, 255) as u8;
                out[r * 8 + 2 * q + 1] = (tmp[1] + 128).clamp(0, 255) as u8;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_blocks(seed: u64, n: usize, range: i32) -> Vec<[i32; BLOCK_SIZE]> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                let mut c = [0i32; BLOCK_SIZE];
                for v in c.iter_mut() {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    *v = ((x >> 33) as i32 % (2 * range)) - range;
                }
                c
            })
            .collect()
    }

    #[test]
    fn dispatch_matches_scalar_on_random_blocks() {
        for c in lcg_blocks(0xDEAD_BEEF_CAFE_F00D, 500, 1 << 20) {
            assert_eq!(idct_scaled_to_pixels_simd(&c), idct_scaled_to_pixels(&c));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_supported_level_matches_scalar() {
        // Bypass the env-resolved dispatch and exercise each backend
        // directly, including saturation edges.
        let mut blocks = lcg_blocks(0x1234_5678_9ABC_DEF0, 300, i32::MAX / 4096);
        let mut dc_max = [0i32; BLOCK_SIZE];
        dc_max[0] = i32::MAX;
        let mut dc_min = [0i32; BLOCK_SIZE];
        dc_min[0] = i32::MIN + 1;
        blocks.push(dc_max);
        blocks.push(dc_min);
        blocks.push([0i32; BLOCK_SIZE]);
        for c in &blocks {
            let want = idct_scaled_to_pixels(c);
            assert_eq!(unsafe { sse2::idct_scaled_to_pixels(c) }, want, "sse2");
            if is_x86_feature_detected!("avx2") {
                assert_eq!(unsafe { avx2::idct_scaled_to_pixels(c) }, want, "avx2");
            }
        }
    }

    #[test]
    fn butterfly_constants_match_dct() {
        // simd.rs duplicates dct.rs's private fixed-point constants;
        // re-derive them here so silent drift is impossible.
        let f = |x: f64| (x * (1u32 << AAN_FRAC_BITS) as f64).round() as i64;
        assert_eq!(FIX_1_414213562, f(std::f64::consts::SQRT_2));
        assert_eq!(FIX_1_847759065, f(1.847759065));
        assert_eq!(FIX_1_082392200, f(1.082392200));
        assert_eq!(FIX_2_613125930, f(2.613125930));
    }
}
