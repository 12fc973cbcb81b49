//! The Motion-JPEG stream: "a stream of independent and individually
//! encoded JPEG images" (paper §3.2), held in memory as one
//! entropy-coded segment per frame. No pipeline reads or writes it as a
//! file; [`MjpegStream::to_bytes`] exists so a test can fingerprint its
//! input.

use crate::dct::N;

/// Header of one encoded frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Width in pixels (multiple of 8).
    pub width: u16,
    /// Height in pixels (multiple of 8).
    pub height: u16,
    /// Encoder quality (decoder needs it to reconstruct the qtable).
    pub quality: u8,
}

impl FrameHeader {
    /// Number of 8×8 blocks per frame.
    pub fn blocks(&self) -> usize {
        (self.width as usize / N) * (self.height as usize / N)
    }
}

/// One encoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedFrame {
    /// Geometry and quality.
    pub header: FrameHeader,
    /// Entropy-coded segment.
    pub data: Vec<u8>,
}

/// An in-memory MJPEG stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MjpegStream {
    /// The frames, in presentation order.
    pub frames: Vec<EncodedFrame>,
}

impl MjpegStream {
    /// Every header field and segment byte, in order:
    /// `"MJPG" | u32 frame count | per frame: u16 w | u16 h | u8 q |
    /// u32 len | data` — what `mjpeg_golden` hashes to pin its input.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"MJPG");
        out.extend_from_slice(&(self.frames.len() as u32).to_le_bytes());
        for f in &self.frames {
            out.extend_from_slice(&f.header.width.to_le_bytes());
            out.extend_from_slice(&f.header.height.to_le_bytes());
            out.push(f.header.quality);
            out.extend_from_slice(&(f.data.len() as u32).to_le_bytes());
            out.extend_from_slice(&f.data);
        }
        out
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the stream has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_per_frame_geometry() {
        let h = FrameHeader {
            width: 48,
            height: 24,
            quality: 75,
        };
        assert_eq!(h.blocks(), 18, "the paper's implied 18 blocks per image");
    }
}
