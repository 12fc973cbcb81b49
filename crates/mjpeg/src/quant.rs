//! The luminance quantization table (ITU-T T.81 Annex K.1), IJG quality
//! scaling, and zigzag coefficient ordering.

use crate::dct::BLOCK_SIZE;

/// Annex K.1 luminance quantization table, natural (row-major) order.
pub const LUMA_QTABLE: [u16; BLOCK_SIZE] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// Zigzag scan order: `ZIGZAG[k]` is the natural-order index of the k-th
/// coefficient in scan order (T.81 Figure 5).
pub const ZIGZAG: [usize; BLOCK_SIZE] = [
    0, 1, 8, 16, 9, 2, 3, 10, //
    17, 24, 32, 25, 18, 11, 4, 5, //
    12, 19, 26, 33, 40, 48, 41, 34, //
    27, 20, 13, 6, 7, 14, 21, 28, //
    35, 42, 49, 56, 57, 50, 43, 36, //
    29, 22, 15, 23, 30, 37, 44, 51, //
    58, 59, 52, 45, 38, 31, 39, 46, //
    53, 60, 61, 54, 47, 55, 62, 63,
];

/// Scale the luminance base table for a quality factor in [1, 100]
/// using the IJG formula (quality 50 = base table; higher = finer
/// quantization).
pub fn scaled_qtable(quality: u8) -> [u16; BLOCK_SIZE] {
    let q = quality.clamp(1, 100) as i32;
    let scale = if q < 50 { 5000 / q } else { 200 - 2 * q };
    let mut out = [0u16; BLOCK_SIZE];
    for (dst, &b) in out.iter_mut().zip(LUMA_QTABLE.iter()) {
        let v = (b as i32 * scale + 50) / 100;
        *dst = v.clamp(1, 255) as u16;
    }
    out
}

/// Quantize natural-order DCT coefficients and emit them in zigzag order.
pub fn quantize_zigzag(
    coeffs: &[f32; BLOCK_SIZE],
    qtable: &[u16; BLOCK_SIZE],
) -> [i16; BLOCK_SIZE] {
    let mut out = [0i16; BLOCK_SIZE];
    for (k, dst) in out.iter_mut().enumerate() {
        let n = ZIGZAG[k];
        let q = qtable[n] as f32;
        *dst = (coeffs[n] / q).round() as i16;
    }
    out
}

/// Dequantize zigzag-ordered coefficients back into natural order — the
/// paper's "pixel reordering" stage performed by the Fetch component.
pub fn dequantize_reorder(zz: &[i16; BLOCK_SIZE], qtable: &[u16; BLOCK_SIZE]) -> [i32; BLOCK_SIZE] {
    let mut out = [0i32; BLOCK_SIZE];
    for (k, &v) in zz.iter().enumerate() {
        let n = ZIGZAG[k];
        out[n] = v as i32 * qtable[n] as i32;
    }
    out
}

/// Dequantization table for the fast integer IDCT: the quantizer step and
/// the AAN per-frequency output scales are folded into one fixed-point
/// multiplier, so dequantization + DCT prescaling costs a single integer
/// multiply per coefficient (see [`crate::dct::idct_scaled_to_pixels`]).
/// Entries are `q[n] · aan[u] · aan[v] · 2^AAN_FRAC_BITS` in natural
/// order.
pub fn fast_dequant_table(qtable: &[u16; BLOCK_SIZE]) -> [i32; BLOCK_SIZE] {
    let aan = crate::dct::aan_scales();
    let mut out = [0i32; BLOCK_SIZE];
    for v in 0..8 {
        for u in 0..8 {
            let n = v * 8 + u;
            let s = qtable[n] as f64 * aan[u] * aan[v] * (1u32 << crate::dct::AAN_FRAC_BITS) as f64;
            out[n] = s.round() as i32;
        }
    }
    out
}

/// Fast-path fusion of dequantize + reorder + AAN prescale: zigzag input,
/// natural-order output scaled for [`crate::dct::idct_scaled_to_pixels`].
pub fn dequantize_reorder_scaled(
    zz: &[i16; BLOCK_SIZE],
    ftable: &[i32; BLOCK_SIZE],
) -> [i32; BLOCK_SIZE] {
    let mut out = [0i32; BLOCK_SIZE];
    for (k, &v) in zz.iter().enumerate() {
        let n = ZIGZAG[k];
        out[n] = dequantize_scaled(v, ftable[n]);
    }
    out
}

/// One coefficient of [`dequantize_reorder_scaled`]. Valid baseline
/// streams keep |zz·q| ≤ 2048, well inside i32 after the 2^12 prescale;
/// saturate rather than wrap on corrupt input.
#[inline(always)]
pub(crate) fn dequantize_scaled(v: i16, f: i32) -> i32 {
    (v as i64 * f as i64).clamp(i32::MIN as i64, i32::MAX as i64) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; BLOCK_SIZE];
        for &i in &ZIGZAG {
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zigzag_starts_along_the_antidiagonals() {
        // First few entries of the standard scan.
        assert_eq!(&ZIGZAG[..6], &[0, 1, 8, 16, 9, 2]);
        assert_eq!(ZIGZAG[63], 63);
    }

    #[test]
    fn quality_50_is_base_table() {
        assert_eq!(scaled_qtable(50), LUMA_QTABLE);
    }

    #[test]
    fn quality_ordering_monotone() {
        let q90 = scaled_qtable(90);
        let q10 = scaled_qtable(10);
        for i in 0..BLOCK_SIZE {
            assert!(q90[i] <= LUMA_QTABLE[i]);
            assert!(q10[i] >= LUMA_QTABLE[i]);
        }
    }

    #[test]
    fn qtable_entries_stay_positive() {
        for q in [1u8, 25, 50, 75, 100] {
            assert!(scaled_qtable(q).iter().all(|&v| (1..=255).contains(&v)));
        }
    }

    #[test]
    fn quantize_dequantize_bounded_error() {
        let q = scaled_qtable(75);
        let mut coeffs = [0.0f32; BLOCK_SIZE];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = ((i as f32) * 13.7).sin() * 300.0;
        }
        let zz = quantize_zigzag(&coeffs, &q);
        let back = dequantize_reorder(&zz, &q);
        for n in 0..BLOCK_SIZE {
            let err = (coeffs[n] - back[n] as f32).abs();
            assert!(
                err <= q[n] as f32 / 2.0 + 0.5,
                "coeff {n}: err {err} exceeds q/2 = {}",
                q[n] as f32 / 2.0
            );
        }
    }
}
