//! Each `DctKind` is a dequantization table and a transform over the one
//! decode loop. A whole-frame decode with a kind must equal the frame
//! built block by block from the bit-serial oracle, the dequantization
//! that belongs to the kind and the kind's transform.

use mjpeg::bitstream::BitReader;
use mjpeg::codec::{decode_block_bitwise, decode_frame_with, place_block};
use mjpeg::dct::{DctKind, N};
use mjpeg::huffman::{luma_ac_decoder, luma_dc_decoder};
use mjpeg::quant::{
    dequantize_reorder, dequantize_reorder_scaled, fast_dequant_table, scaled_qtable,
};

const KINDS: [DctKind; 3] = [DctKind::ReferenceFloat, DctKind::FastAan, DctKind::FastSimd];

/// `data` decoded by `decode_block_bitwise`, then `dequantize_reorder`
/// (reference kind) or `dequantize_reorder_scaled` (fast kinds), then
/// `kind.transform()`, block by block.
fn oracle_frame(data: &[u8], width: usize, height: usize, quality: u8, kind: DctKind) -> Vec<u8> {
    let qtable = scaled_qtable(quality);
    let ftable = fast_dequant_table(&qtable);
    let transform = kind.transform();
    let mut reader = BitReader::new(data);
    let mut pred = 0;
    let mut frame = vec![0u8; width * height];
    for bi in 0..(width / N) * (height / N) {
        let (zz, next_pred) =
            decode_block_bitwise(&mut reader, luma_dc_decoder(), luma_ac_decoder(), pred)
                .expect("a synthesized frame decodes");
        pred = next_pred;
        let coeffs = match kind {
            DctKind::ReferenceFloat => dequantize_reorder(&zz, &qtable),
            DctKind::FastAan | DctKind::FastSimd => dequantize_reorder_scaled(&zz, &ftable),
        };
        place_block(&mut frame, width, bi, &transform(&coeffs));
    }
    frame
}

#[test]
fn every_kind_decodes_a_frame_as_the_bit_serial_oracle_does() {
    for (width, height) in [(48usize, 24usize), (320, 240)] {
        for quality in [10u8, 50, 75, 95] {
            let stream = mjpeg::synthesize_stream(2, width, height, quality, quality as u64);
            for (f, frame) in stream.frames.iter().enumerate() {
                for kind in KINDS {
                    let got = decode_frame_with(&frame.data, width, height, quality, kind)
                        .expect("a synthesized frame decodes");
                    assert!(
                        got == oracle_frame(&frame.data, width, height, quality, kind),
                        "{width}x{height} q{quality} frame {f}: {kind:?} differs from the oracle"
                    );
                }
            }
        }
    }
}

#[test]
fn reference_table_is_the_quantizer_steps_widened() {
    for quality in 0..=u8::MAX {
        let steps = scaled_qtable(quality).map(i32::from);
        assert_eq!(
            DctKind::ReferenceFloat.dequant_table(quality),
            steps,
            "q{quality}"
        );
    }
}
