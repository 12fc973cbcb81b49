//! Baseline JPEG Huffman coding: the Annex K.3.3 luminance tables,
//! canonical code construction (T.81 Annex C) and the sequential
//! decoding procedure (T.81 F.2.2.3).

use crate::bitstream::{BitReader, BitWriter, OutOfBits};

/// A Huffman table specification: `bits[i]` = number of codes of length
/// `i+1`, `values` = symbols in code order.
#[derive(Debug, Clone)]
pub struct HuffSpec {
    /// Code-length histogram (16 entries, lengths 1..=16).
    pub bits: [u8; 16],
    /// Symbols ordered by increasing code length.
    pub values: Vec<u8>,
}

impl HuffSpec {
    /// Annex K.3.3.1: luminance DC coefficient differences.
    pub fn luma_dc() -> Self {
        HuffSpec {
            bits: [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
            values: (0..=11).collect(),
        }
    }

    /// Annex K.3.3.2: luminance AC coefficients.
    pub fn luma_ac() -> Self {
        HuffSpec {
            bits: [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7d],
            values: vec![
                0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06, 0x13,
                0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xa1, 0x08, 0x23, 0x42,
                0xb1, 0xc1, 0x15, 0x52, 0xd1, 0xf0, 0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0a,
                0x16, 0x17, 0x18, 0x19, 0x1a, 0x25, 0x26, 0x27, 0x28, 0x29, 0x2a, 0x34, 0x35,
                0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4a,
                0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x63, 0x64, 0x65, 0x66, 0x67,
                0x68, 0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7a, 0x83, 0x84,
                0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
                0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3,
                0xb4, 0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
                0xc8, 0xc9, 0xca, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe1,
                0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea, 0xf1, 0xf2, 0xf3, 0xf4,
                0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa,
            ],
        }
    }

    /// Total number of codes.
    pub fn num_codes(&self) -> usize {
        self.bits.iter().map(|&b| b as usize).sum()
    }

    /// Whether the spec describes a realizable prefix code: the
    /// canonical code counter must never exceed the code space at any
    /// length (Kraft inequality for the Annex-C construction) and there
    /// must be exactly one symbol per code. The fields are public, so a
    /// hand-built spec can violate both; [`HuffDecoder::new`] skips the
    /// codes of such a spec that would run past its primary LUT.
    pub fn is_valid(&self) -> bool {
        let mut code: u32 = 0;
        for (len_idx, &count) in self.bits.iter().enumerate() {
            code = (code << 1) + count as u32;
            if code > 1u32 << (len_idx + 1) {
                return false;
            }
        }
        self.num_codes() == self.values.len()
    }
}

/// Encoder-side table: symbol → (code, length).
#[derive(Debug, Clone)]
pub struct HuffEncoder {
    codes: Vec<(u16, u8)>, // indexed by symbol
}

/// Width of the decode table, bits. Annex-K tables put every code the
/// hot path meets within 9 bits, which leaves room for the magnitude of
/// the common small coefficients in the same probe; longer codes (up to
/// 16 bits) take the MAXCODE walk.
pub const LUT_BITS: u32 = 10;
// A table entry packs code and code-plus-magnitude lengths in 4 bits
// each, and a resolved magnitude of at most LUT_BITS - 1 bits in an i16.
const _: () = assert!(LUT_BITS <= 15);

/// Decoder-side table (T.81 F.2.2.3 MINCODE/MAXCODE/VALPTR), plus the
/// table of the fast decode loop: one `LUT_BITS`-wide probe resolves a
/// short code's symbol and, when they fit the probe too, its magnitude
/// bits.
#[derive(Debug, Clone)]
pub struct HuffDecoder {
    mincode: [i32; 17],
    maxcode: [i32; 17],
    valptr: [usize; 17],
    values: Vec<u8>,
    /// Indexed by the next `LUT_BITS` bits of the stream. Packs, low to
    /// high: bits 0–3 the code length (0 = no code ≤ `LUT_BITS` long
    /// here), bits 4–7 code plus magnitude length when the magnitude of
    /// category `symbol & 0x0F` fits the probe (0 = it does not), bits
    /// 8–15 the symbol, bits 16–31 the magnitude's value (T.81 EXTEND).
    lut: Vec<u32>,
}

/// T.81 F.2.1.2 EXTEND: the value of `cat` magnitude bits `raw`.
fn extend(raw: i32, cat: u8) -> i32 {
    if cat == 0 {
        return 0;
    }
    if raw < 1 << (cat - 1) {
        raw - (1 << cat) + 1
    } else {
        raw
    }
}

/// Build canonical codes (Annex C): lengths in table order, codes count
/// up within a length, shift left at each new length.
fn canonical_codes(spec: &HuffSpec) -> Vec<(u8 /*len*/, u16 /*code*/, u8 /*symbol*/)> {
    let mut out = Vec::with_capacity(spec.num_codes());
    let mut code: u16 = 0;
    let mut k = 0usize;
    for (len_idx, &count) in spec.bits.iter().enumerate() {
        let len = len_idx as u8 + 1;
        for _ in 0..count {
            out.push((len, code, spec.values[k]));
            code += 1;
            k += 1;
        }
        code <<= 1;
    }
    out
}

impl HuffEncoder {
    /// Build an encoder from a table spec.
    pub fn new(spec: &HuffSpec) -> Self {
        let mut codes = vec![(0u16, 0u8); 256];
        for (len, code, sym) in canonical_codes(spec) {
            codes[sym as usize] = (code, len);
        }
        HuffEncoder { codes }
    }

    /// Emit the code for `symbol`.
    ///
    /// # Panics
    /// Panics (debug) if the symbol has no code in the table.
    pub fn encode(&self, w: &mut BitWriter, symbol: u8) {
        let (code, len) = self.codes[symbol as usize];
        debug_assert!(len > 0, "symbol {symbol:#x} not in table");
        w.put(code as u32, len as u32);
    }
}

impl HuffDecoder {
    /// Build a decoder from a table spec.
    pub fn new(spec: &HuffSpec) -> Self {
        let mut mincode = [0i32; 17];
        let mut maxcode = [-1i32; 17];
        let mut valptr = [0usize; 17];
        let mut code: i32 = 0;
        let mut k = 0usize;
        for len in 1..=16usize {
            let count = spec.bits[len - 1] as usize;
            if count > 0 {
                valptr[len] = k;
                mincode[len] = code;
                code += count as i32;
                maxcode[len] = code - 1;
                k += count;
            } else {
                maxcode[len] = -1;
            }
            code <<= 1;
        }
        // Every code of length ≤ LUT_BITS owns the 2^(LUT_BITS - len)
        // slots sharing its prefix; the slot's remaining bits are what
        // follows the code, so where the magnitude fits they hold it.
        let mut lut = vec![0u32; 1 << LUT_BITS];
        for (len, code, sym) in canonical_codes(spec) {
            if len as u32 <= LUT_BITS {
                let shift = LUT_BITS - len as u32;
                let base = (code as usize) << shift;
                // An over-subscribed spec (rejected by `is_valid`, but
                // this constructor stays total regardless) would run
                // codes past the code space; skip them.
                let Some(slots) = lut.get_mut(base..base + (1 << shift)) else {
                    debug_assert!(!spec.is_valid());
                    continue;
                };
                let cat = sym & 0x0F;
                for (follow, slot) in slots.iter_mut().enumerate() {
                    *slot = ((sym as u32) << 8) | len as u32;
                    if cat as u32 <= shift {
                        let raw = (follow >> (shift - cat as u32)) as i32;
                        let value = extend(raw, cat) as i16 as u16;
                        *slot |= ((value as u32) << 16) | ((len + cat) as u32) << 4;
                    }
                }
            }
        }
        HuffDecoder {
            mincode,
            maxcode,
            valptr,
            values: spec.values.clone(),
            lut,
        }
    }

    /// Decode one symbol, bit by bit (the sequential F.2.2.3 procedure —
    /// deliberately the naive algorithm the paper's unoptimized decoder
    /// would use).
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u8, OutOfBits> {
        let mut code: i32 = r.bit()? as i32;
        for len in 1..=16usize {
            if self.maxcode[len] >= code && code >= self.mincode[len] {
                let idx = self.valptr[len] + (code - self.mincode[len]) as usize;
                return Ok(self.values[idx]);
            }
            code = (code << 1) | r.bit()? as i32;
        }
        Err(OutOfBits)
    }

    /// Decode one symbol and the magnitude bits that follow it — the
    /// step of the fast decode loop behind
    /// [`EntropyDecoder`](crate::codec::EntropyDecoder).
    /// The magnitude's category is `symbol` for a DC table (`dc`) and
    /// `symbol & 0x0F` for an AC one. One table probe resolves both when
    /// the code is at most [`LUT_BITS`] long and its magnitude fits the
    /// probe too; otherwise the code comes from the table or the MAXCODE
    /// walk and the magnitude from [`read_magnitude`]. Either way the
    /// symbol, value and bits consumed are those of
    /// [`HuffDecoder::decode`] followed by [`read_magnitude`], the
    /// bit-serial oracle.
    #[inline(always)]
    pub(crate) fn decode_coded(
        &self,
        r: &mut BitReader<'_>,
        dc: bool,
    ) -> Result<(u8, i32), OutOfBits> {
        let entry = self.lut[r.peek(LUT_BITS) as usize];
        let sym = (entry >> 8) as u8;
        let coded = (entry >> 4) & 0x0F;
        // The table holds category `sym & 0x0F`, which is a DC symbol's
        // category only below 16.
        if coded != 0 && (!dc || sym < 16) {
            r.consume(coded)?;
            return Ok((sym, entry as i32 >> 16));
        }
        let sym = match entry & 0x0F {
            0 => self.decode_long(r)?,
            len => {
                r.consume(len)?;
                sym
            }
        };
        let cat = if dc { sym } else { sym & 0x0F };
        Ok((sym, read_magnitude(r, cat)?))
    }

    /// A code longer than [`LUT_BITS`] (or garbage): compare the next 16
    /// bits against each longer length's code window.
    #[cold]
    fn decode_long(&self, r: &mut BitReader<'_>) -> Result<u8, OutOfBits> {
        let window = r.peek(16) as i32;
        for len in (LUT_BITS as usize + 1)..=16 {
            let code = window >> (16 - len);
            if self.maxcode[len] >= code && code >= self.mincode[len] {
                r.consume(len as u32)?;
                let idx = self.valptr[len] + (code - self.mincode[len]) as usize;
                return Ok(self.values[idx]);
            }
        }
        Err(OutOfBits)
    }
}

/// Process-wide luminance DC decoder (Annex K.3.3.1). The table is
/// immutable, so hot paths that build an [`crate::codec::EntropyDecoder`]
/// per frame share one instance instead of re-deriving the canonical
/// codes and the LUT on every frame — a per-frame allocation the
/// zero-allocation pipeline cannot afford.
pub fn luma_dc_decoder() -> &'static HuffDecoder {
    static DEC: std::sync::OnceLock<HuffDecoder> = std::sync::OnceLock::new();
    DEC.get_or_init(|| HuffDecoder::new(&HuffSpec::luma_dc()))
}

/// Process-wide luminance AC decoder (Annex K.3.3.2); see
/// [`luma_dc_decoder`].
pub fn luma_ac_decoder() -> &'static HuffDecoder {
    static DEC: std::sync::OnceLock<HuffDecoder> = std::sync::OnceLock::new();
    DEC.get_or_init(|| HuffDecoder::new(&HuffSpec::luma_ac()))
}

/// JPEG magnitude category of a value (number of bits to encode it).
pub fn category(v: i32) -> u8 {
    let mut m = v.unsigned_abs();
    let mut n = 0u8;
    while m != 0 {
        m >>= 1;
        n += 1;
    }
    n
}

/// Append the magnitude bits of `v` (ones' complement for negatives,
/// T.81 F.1.2.1).
pub fn put_magnitude(w: &mut BitWriter, v: i32, cat: u8) {
    if cat == 0 {
        return;
    }
    let bits = if v < 0 {
        (v - 1) & ((1 << cat) - 1)
    } else {
        v & ((1 << cat) - 1)
    };
    w.put(bits as u32, cat as u32);
}

/// Read back a magnitude of `cat` bits (T.81 F.2.1.2 EXTEND).
pub fn read_magnitude(r: &mut BitReader<'_>, cat: u8) -> Result<i32, OutOfBits> {
    if cat == 0 {
        return Ok(0);
    }
    // Baseline categories stop at 11 (DC) / 10 (AC); a larger value can
    // only come from a corrupt stream or a crafted Huffman table. Reject
    // it here instead of overflowing the magnitude shift below.
    if cat > 16 {
        return Err(OutOfBits);
    }
    Ok(extend(r.bits(cat as u32)? as i32, cat))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annex_k_tables_are_well_formed() {
        for spec in [HuffSpec::luma_dc(), HuffSpec::luma_ac()] {
            assert_eq!(
                spec.num_codes(),
                spec.values.len(),
                "BITS histogram must match value count"
            );
            // Kraft inequality (strict for JPEG: must be a prefix code).
            let kraft: f64 = spec
                .bits
                .iter()
                .enumerate()
                .map(|(i, &c)| c as f64 / (1u64 << (i + 1)) as f64)
                .sum();
            assert!(kraft <= 1.0, "Kraft sum {kraft} > 1");
        }
        assert_eq!(HuffSpec::luma_ac().num_codes(), 162);
        assert_eq!(HuffSpec::luma_dc().num_codes(), 12);
    }

    #[test]
    fn every_symbol_round_trips() {
        for (spec, dc) in [(HuffSpec::luma_dc(), true), (HuffSpec::luma_ac(), false)] {
            let category_of = |sym: u8| if dc { sym } else { sym & 0x0F };
            let enc = HuffEncoder::new(&spec);
            let dec = HuffDecoder::new(&spec);
            let mut w = BitWriter::new();
            for (i, &sym) in spec.values.iter().enumerate() {
                enc.encode(&mut w, sym);
                // Alternate the largest and the most negative value of
                // the symbol's category.
                let cat = category_of(sym) as u32;
                w.put(if i % 2 == 0 { (1 << cat) - 1 } else { 0 }, cat);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            let mut rf = BitReader::new(&bytes);
            for &sym in &spec.values {
                assert_eq!(dec.decode(&mut r).unwrap(), sym);
                let value = read_magnitude(&mut r, category_of(sym)).unwrap();
                assert_eq!(dec.decode_coded(&mut rf, dc).unwrap(), (sym, value));
                assert_eq!(
                    r.bits_consumed(),
                    rf.bits_consumed(),
                    "table decode must consume identical bits (symbol {sym:#x})"
                );
            }
        }
    }

    #[test]
    fn categories_match_definition() {
        assert_eq!(category(0), 0);
        assert_eq!(category(1), 1);
        assert_eq!(category(-1), 1);
        assert_eq!(category(2), 2);
        assert_eq!(category(-3), 2);
        assert_eq!(category(255), 8);
        assert_eq!(category(-1024), 11);
    }

    #[test]
    fn magnitudes_round_trip_over_full_range() {
        for v in -2047i32..=2047 {
            let cat = category(v);
            let mut w = BitWriter::new();
            w.put(0, 0); // no-op
            put_magnitude(&mut w, v, cat);
            // Pad deterministically so the reader has whole bytes.
            w.put(0x7F, 7);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert_eq!(read_magnitude(&mut r, cat).unwrap(), v, "value {v}");
        }
    }

    #[test]
    fn decode_rejects_garbage_prefix() {
        // 16 one-bits is longer than any DC code.
        let dec = HuffDecoder::new(&HuffSpec::luma_dc());
        let bytes = vec![0xFF, 0x00, 0xFF, 0x00, 0xFF, 0x00];
        let mut r = BitReader::new(&bytes);
        assert!(dec.decode(&mut r).is_err());
        let mut r = BitReader::new(&bytes);
        assert!(dec.decode_coded(&mut r, true).is_err());
    }

    #[test]
    fn oversubscribed_spec_is_invalid_and_decodes_without_panic() {
        // `HuffSpec`'s fields are public, so a caller can build a table
        // whose canonical code counter runs past the code space: here
        // the 12 DC symbols all claim a 1-bit code, where only two
        // exist. `is_valid` must say so, and the decoder built from it
        // anyway must stay inside its LUT.
        let spec = HuffSpec {
            bits: [12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            values: (0..=11).collect(),
        };
        assert!(!spec.is_valid());
        let dec = HuffDecoder::new(&spec);
        let bytes = [0x00, 0x5A, 0xFF, 0x00, 0xA5, 0x3C];
        for dc in [true, false] {
            let mut r = BitReader::new(&bytes);
            while dec.decode_coded(&mut r, dc).is_ok() {}
            let mut r = BitReader::new(&bytes);
            while dec.decode(&mut r).is_ok() {}
        }
        assert!(HuffSpec::luma_dc().is_valid());
        assert!(HuffSpec::luma_ac().is_valid());
    }
}
