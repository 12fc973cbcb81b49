//! Bit-level I/O for JPEG entropy-coded segments, including the 0xFF
//! byte-stuffing rule (ITU-T T.81 §B.1.1.5: a 0x00 byte is inserted
//! after every 0xFF data byte so markers stay unambiguous).

/// MSB-first bit writer with JPEG byte stuffing.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u32,
    nbits: u32,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `n` bits of `value`, MSB first (n ≤ 24).
    pub fn put(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 24);
        debug_assert!(
            value < (1u32 << n) || n == 0,
            "value {value} overflows {n} bits"
        );
        if n == 0 {
            return;
        }
        self.acc = (self.acc << n) | (value & ((1u32 << n) - 1));
        self.nbits += n;
        while self.nbits >= 8 {
            let byte = ((self.acc >> (self.nbits - 8)) & 0xFF) as u8;
            self.out.push(byte);
            if byte == 0xFF {
                self.out.push(0x00); // stuffing
            }
            self.nbits -= 8;
        }
    }

    /// Pad the final partial byte with 1-bits (T.81 §F.1.2.3) and return
    /// the encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.put((1 << pad) - 1, pad);
        }
        self.out
    }
}

/// MSB-first bit reader that undoes byte stuffing.
///
/// Buffered: up to 64 bits are staged in an accumulator and refilled in
/// bulk (a 32-bit load when the next window is free of 0xFF bytes, else
/// byte-at-a-time unstuffing), so the hot `peek`/`consume` path touches
/// the input slice once per several symbols rather than once per bit.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    /// Low `nbits` bits are valid, most recently loaded byte lowest.
    acc: u64,
    nbits: u32,
    /// Total bits consumed (for workload accounting).
    consumed: u64,
}

/// Error from the bit reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBits;

impl std::fmt::Display for OutOfBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "entropy-coded segment exhausted")
    }
}
impl std::error::Error for OutOfBits {}

impl<'a> BitReader<'a> {
    /// Read over an entropy-coded segment.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
            consumed: 0,
        }
    }

    /// Top up the accumulator as far as possible (to >56 valid bits or
    /// end of input).
    fn refill(&mut self) {
        while self.nbits <= 56 {
            // Bulk path: pull four bytes at once when none is 0xFF (no
            // unstuffing decisions needed in the window).
            if self.nbits <= 32 && self.pos + 4 <= self.data.len() {
                let w = u32::from_be_bytes(self.data[self.pos..self.pos + 4].try_into().unwrap());
                // Any byte equal to 0xFF ⇔ any byte of !w equal to 0.
                let t = !w;
                if t.wrapping_sub(0x0101_0101) & !t & 0x8080_8080 == 0 {
                    self.acc = (self.acc << 32) | w as u64;
                    self.nbits += 32;
                    self.pos += 4;
                    continue;
                }
            }
            if self.pos >= self.data.len() {
                return;
            }
            let byte = self.data[self.pos];
            self.pos += 1;
            if byte == 0xFF {
                // Skip the stuffed 0x00.
                if self.pos < self.data.len() && self.data[self.pos] == 0x00 {
                    self.pos += 1;
                }
            }
            self.acc = (self.acc << 8) | byte as u64;
            self.nbits += 8;
        }
    }

    /// Look at the next `n` bits (n ≤ 24) without consuming them,
    /// zero-padded past the end of the segment. Never fails; pair with
    /// [`BitReader::consume`] which enforces the real bit budget.
    pub fn peek(&mut self, n: u32) -> u32 {
        debug_assert!(n <= 24);
        if self.nbits < n {
            self.refill();
        }
        let mask = (1u32 << n) - 1;
        if self.nbits >= n {
            ((self.acc >> (self.nbits - n)) as u32) & mask
        } else {
            // Exhausted input: expose what's left, zero-padded on the
            // right so prefix comparisons still line up.
            ((self.acc << (n - self.nbits)) as u32) & mask
        }
    }

    /// Discard `n` previously peeked bits; fails if the segment holds
    /// fewer than `n` real bits.
    pub fn consume(&mut self, n: u32) -> Result<(), OutOfBits> {
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(OutOfBits);
            }
        }
        self.nbits -= n;
        self.consumed += n as u64;
        Ok(())
    }

    /// Read one bit.
    pub fn bit(&mut self) -> Result<u32, OutOfBits> {
        if self.nbits == 0 {
            self.refill();
            if self.nbits == 0 {
                return Err(OutOfBits);
            }
        }
        self.nbits -= 1;
        self.consumed += 1;
        Ok(((self.acc >> self.nbits) & 1) as u32)
    }

    /// Read `n` bits MSB-first (n ≤ 16).
    pub fn bits(&mut self, n: u32) -> Result<u32, OutOfBits> {
        debug_assert!(n <= 16);
        if n == 0 {
            return Ok(0);
        }
        let v = self.peek(n);
        self.consume(n)?;
        Ok(v)
    }

    /// Total bits consumed so far.
    pub fn bits_consumed(&self) -> u64 {
        self.consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_simple_bits() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.put(0b0110, 4);
        w.put(0xAB, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(3).unwrap(), 0b101);
        assert_eq!(r.bits(4).unwrap(), 0b0110);
        assert_eq!(r.bits(8).unwrap(), 0xAB);
    }

    #[test]
    fn ff_bytes_are_stuffed_and_unstuffed() {
        let mut w = BitWriter::new();
        w.put(0xFF, 8);
        w.put(0xFF, 8);
        let bytes = w.finish();
        // Two 0xFF data bytes -> each followed by 0x00.
        assert_eq!(bytes, vec![0xFF, 0x00, 0xFF, 0x00]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(8).unwrap(), 0xFF);
        assert_eq!(r.bits(8).unwrap(), 0xFF);
    }

    #[test]
    fn final_byte_padded_with_ones() {
        let mut w = BitWriter::new();
        w.put(0b0, 1);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0111_1111]);
    }

    #[test]
    fn reader_reports_exhaustion() {
        let mut r = BitReader::new(&[0xA5]);
        assert!(r.bits(8).is_ok());
        assert_eq!(r.bit(), Err(OutOfBits));
    }

    #[test]
    fn consumed_bits_are_counted() {
        let mut w = BitWriter::new();
        w.put(0x3FF, 10);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let _ = r.bits(10).unwrap();
        assert_eq!(r.bits_consumed(), 10);
    }

    #[test]
    fn peek_matches_bits_and_is_idempotent() {
        let mut w = BitWriter::new();
        w.put(0b1_0110_1101, 9);
        w.put(0x5A, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek(9), 0b1_0110_1101);
        assert_eq!(r.peek(9), 0b1_0110_1101, "peek must not consume");
        assert_eq!(r.bits(9).unwrap(), 0b1_0110_1101);
        assert_eq!(r.peek(8), 0x5A);
        r.consume(8).unwrap();
        assert_eq!(r.bits_consumed(), 17);
    }

    #[test]
    fn peek_past_end_zero_pads_but_consume_fails() {
        let mut r = BitReader::new(&[0b1011_0110]);
        assert_eq!(r.bits(3).unwrap(), 0b101);
        // 5 real bits (10110) left; a 9-bit peek zero-pads the tail.
        assert_eq!(r.peek(9), 0b1_0110_0000);
        assert!(r.consume(9).is_err());
        assert!(r.consume(5).is_ok());
        assert_eq!(r.bit(), Err(OutOfBits));
    }

    #[test]
    fn unstuffing_works_across_bulk_and_byte_paths() {
        // Mix plain runs (bulk 32-bit path) with 0xFF bytes (byte path).
        let mut w = BitWriter::new();
        let vals: Vec<u32> = (0..64)
            .map(|i| if i % 7 == 0 { 0xFF } else { i * 3 })
            .collect();
        for &v in &vals {
            w.put(v & 0xFF, 8);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &vals {
            assert_eq!(r.bits(8).unwrap(), v & 0xFF);
        }
    }

    #[test]
    fn long_random_round_trip() {
        // Deterministic pseudo-random pattern exercising many lengths.
        let mut vals = Vec::new();
        let mut x: u32 = 0x1234_5678;
        for i in 0..500u32 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let n = (i % 16) + 1;
            vals.push((x & ((1 << n) - 1), n));
        }
        let mut w = BitWriter::new();
        for &(v, n) in &vals {
            w.put(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &vals {
            assert_eq!(r.bits(n).unwrap(), v);
        }
    }
}
