//! Full-range BT.601 YCbCr → RGB conversion (the JFIF definition): the
//! scalar [`ycbcr_to_rgb`] and its bulk SIMD form [`ycbcr_to_rgb_slice`].
//! The paper's workload is grayscale, so no pipeline stage converts
//! colour; the benchmark's `mjpeg.color` cell measures the bulk form,
//! and the scalar one is its oracle.

/// Convert one full-range YCbCr pixel to RGB.
pub fn ycbcr_to_rgb(y: u8, cb: u8, cr: u8) -> (u8, u8, u8) {
    let y = y as f32;
    let cb = cb as f32 - 128.0;
    let cr = cr as f32 - 128.0;
    let r = y + 1.402 * cr;
    let g = y - 0.344136 * cb - 0.714136 * cr;
    let b = y + 1.772 * cb;
    (
        r.round().clamp(0.0, 255.0) as u8,
        g.round().clamp(0.0, 255.0) as u8,
        b.round().clamp(0.0, 255.0) as u8,
    )
}

/// Bulk YCbCr→RGB over planes, writing interleaved RGB into `out`
/// (`3 × y.len()` bytes). Byte-identical to calling [`ycbcr_to_rgb`]
/// per pixel: the SIMD path performs the same f32 operations in the
/// same order, and emulates `f32::round` + clamp exactly (see
/// `round_clamp_exact`).
pub fn ycbcr_to_rgb_slice(y: &[u8], cb: &[u8], cr: &[u8], out: &mut [u8]) {
    assert_eq!(y.len(), cb.len());
    assert_eq!(y.len(), cr.len());
    assert_eq!(out.len(), y.len() * 3);
    let mut i = 0;
    #[cfg(target_arch = "x86_64")]
    if crate::simd::active_level() != crate::simd::SimdLevel::Scalar {
        // SSE2 is part of the x86-64 baseline; process 4 pixels a step.
        while i + 4 <= y.len() {
            unsafe { sse2_ycbcr4(&y[i..], &cb[i..], &cr[i..], &mut out[3 * i..]) };
            i += 4;
        }
    }
    for k in i..y.len() {
        let (r, g, b) = ycbcr_to_rgb(y[k], cb[k], cr[k]);
        out[3 * k] = r;
        out[3 * k + 1] = g;
        out[3 * k + 2] = b;
    }
}

/// Convert 4 pixels with SSE2. The f32 arithmetic mirrors
/// [`ycbcr_to_rgb`] operation for operation (no FMA contraction, same
/// association), so the lane values are bitwise equal to the scalar
/// intermediates; rounding happens in f64 where `x + 0.5` is exact,
/// making `trunc(x + 0.5)` clamped to `[0, 255]` equal to
/// `x.round().clamp(0.0, 255.0)` for every f32 `x` (negative lanes all
/// clamp to 0 either way; non-negative lanes get exact half-away
/// rounding).
#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn sse2_ycbcr4(y: &[u8], cb: &[u8], cr: &[u8], out: &mut [u8]) {
    use std::arch::x86_64::*;
    let load4 = |s: &[u8]| {
        _mm_cvtepi32_ps(_mm_set_epi32(
            s[3] as i32,
            s[2] as i32,
            s[1] as i32,
            s[0] as i32,
        ))
    };
    let yf = load4(y);
    let off = _mm_set1_ps(128.0);
    let cbf = _mm_sub_ps(load4(cb), off);
    let crf = _mm_sub_ps(load4(cr), off);

    let r = _mm_add_ps(yf, _mm_mul_ps(_mm_set1_ps(1.402), crf));
    let g = _mm_sub_ps(
        _mm_sub_ps(yf, _mm_mul_ps(_mm_set1_ps(0.344_136), cbf)),
        _mm_mul_ps(_mm_set1_ps(0.714_136), crf),
    );
    let b = _mm_add_ps(yf, _mm_mul_ps(_mm_set1_ps(1.772), cbf));

    let round_clamp_exact = |v: __m128| -> [i32; 4] {
        let half = _mm_set1_pd(0.5);
        let lo = _mm_cvttpd_epi32(_mm_add_pd(_mm_cvtps_pd(v), half));
        let hi = _mm_cvttpd_epi32(_mm_add_pd(
            _mm_cvtps_pd(_mm_movehl_ps(v, v)),
            half,
        ));
        let q = _mm_unpacklo_epi64(lo, hi);
        let q = _mm_max_epi16(q, _mm_setzero_si128());
        let q = _mm_min_epi16(q, _mm_set1_epi32(255));
        let mut lanes = [0i32; 4];
        _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, q);
        lanes
    };
    let (rr, gg, bb) = (round_clamp_exact(r), round_clamp_exact(g), round_clamp_exact(b));
    for k in 0..4 {
        out[3 * k] = rr[k] as u8;
        out[3 * k + 1] = gg[k] as u8;
        out[3 * k + 2] = bb[k] as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_pixels_have_neutral_chroma() {
        for v in [0u8, 51, 128, 200, 255] {
            assert_eq!(ycbcr_to_rgb(v, 128, 128), (v, v, v));
        }
    }

    #[test]
    fn bulk_conversion_is_bit_exact_vs_scalar() {
        // Randomized triples plus saturation edges; the bulk path must
        // match the per-pixel scalar conversion byte for byte.
        let mut x: u64 = 0xC0FF_EE00_D15E_A5E5;
        let mut y = vec![0u8; 1031];
        let mut cb = vec![0u8; 1031];
        let mut cr = vec![0u8; 1031];
        for i in 0..y.len() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            y[i] = (x >> 40) as u8;
            cb[i] = (x >> 48) as u8;
            cr[i] = (x >> 56) as u8;
        }
        // Force extremes into the head (SIMD lanes) and tail (scalar
        // remainder — length 1031 % 4 != 0).
        for (i, &(a, b, c)) in [(0, 0, 0), (255, 255, 255), (0, 255, 0), (255, 0, 255)]
            .iter()
            .enumerate()
        {
            y[i] = a;
            cb[i] = b;
            cr[i] = c;
            let t = y.len() - 1 - i;
            y[t] = a;
            cb[t] = b;
            cr[t] = c;
        }
        let mut bulk = vec![0u8; y.len() * 3];
        ycbcr_to_rgb_slice(&y, &cb, &cr, &mut bulk);
        for i in 0..y.len() {
            let (r, g, b) = ycbcr_to_rgb(y[i], cb[i], cr[i]);
            assert_eq!(
                (bulk[3 * i], bulk[3 * i + 1], bulk[3 * i + 2]),
                (r, g, b),
                "pixel {i}: y={} cb={} cr={}",
                y[i],
                cb[i],
                cr[i]
            );
        }
    }
}
