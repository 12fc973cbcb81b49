//! Deterministic synthetic video generation: the paper's two input files
//! (578 and 3000 JPEG images of identical dimensions, §4.3) are not
//! available, so we synthesize streams with the same *structure* — same
//! frame count, same per-image block count — and real encoded content.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::codec::encode_frame;
use crate::frame::{EncodedFrame, FrameHeader, MjpegStream};

/// Default frame geometry: 48×24 = 18 blocks, matching the block count
/// the paper's Table 2 implies (10 386 sends = 18 blocks × 577 frames).
pub const DEFAULT_WIDTH: usize = 48;
/// Default frame height.
pub const DEFAULT_HEIGHT: usize = 24;
/// Default encoding quality.
pub const DEFAULT_QUALITY: u8 = 75;

/// Render frame `t` of the synthetic video: a moving diagonal gradient
/// with a drifting bright disc and deterministic sensor noise.
pub fn render_frame(t: usize, width: usize, height: usize, rng: &mut StdRng) -> Vec<u8> {
    let mut px = vec![0u8; width * height];
    let cx = (t * 3) % width;
    let cy = (t * 2) % height;
    for y in 0..height {
        for x in 0..width {
            let gradient = ((x + y + t) * 255 / (width + height)) as i32;
            let dx = x as i32 - cx as i32;
            let dy = y as i32 - cy as i32;
            let disc = if dx * dx + dy * dy < 36 { 80 } else { 0 };
            let noise: i32 = rng.random_range(-6..=6);
            px[y * width + x] = (gradient + disc + noise).clamp(0, 255) as u8;
        }
    }
    px
}

/// Synthesize an encoded MJPEG stream of `frames` frames.
pub fn synthesize_stream(
    frames: usize,
    width: usize,
    height: usize,
    quality: u8,
    seed: u64,
) -> MjpegStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let header = FrameHeader {
        width: width as u16,
        height: height as u16,
        quality,
    };
    let frames = (0..frames)
        .map(|t| EncodedFrame {
            header,
            data: encode_frame(
                &render_frame(t, width, height, &mut rng),
                width,
                height,
                quality,
            ),
        })
        .collect();
    MjpegStream { frames }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_frame, psnr};

    #[test]
    fn synthesis_is_deterministic() {
        let a = synthesize_stream(5, 48, 24, 75, 42);
        let b = synthesize_stream(5, 48, 24, 75, 42);
        assert_eq!(a, b);
        let c = synthesize_stream(5, 48, 24, 75, 43);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn every_synthesized_frame_decodes() {
        let s = synthesize_stream(10, 48, 24, 75, 7);
        assert_eq!(s.len(), 10);
        let mut rng = StdRng::seed_from_u64(7);
        for (t, f) in s.frames.iter().enumerate() {
            let decoded = decode_frame(&f.data, 48, 24, 75).unwrap();
            let original = render_frame(t, 48, 24, &mut rng);
            let p = psnr(&original, &decoded);
            assert!(p > 28.0, "frame {t}: PSNR {p:.1} dB");
        }
    }

    #[test]
    fn frames_have_paper_block_count() {
        let s = synthesize_stream(2, DEFAULT_WIDTH, DEFAULT_HEIGHT, DEFAULT_QUALITY, 1);
        assert_eq!(s.frames[0].header.blocks(), 18);
    }

    #[test]
    fn consecutive_frames_differ() {
        let s = synthesize_stream(3, 48, 24, 75, 9);
        assert_ne!(s.frames[0].data, s.frames[1].data);
        assert_ne!(s.frames[1].data, s.frames[2].data);
    }
}
