//! Bit-level I/O used by the Huffman layer of the JPEG-like codec.

/// Most-significant-bit-first bit writer.
///
/// ```
/// use easz_codecs::entropy::bitio::{BitReader, BitWriter};
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xFF, 8);
/// let bytes = w.finish();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3), Some(0b101));
/// assert_eq!(r.read_bits(8), Some(0xFF));
/// ```
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits in the low `filled` positions, oldest highest; whatever
    /// sits above them has already been flushed and is never read again.
    acc: u64,
    /// Always below 32 between calls, so one more write of up to 32 bits
    /// fits the accumulator.
    filled: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `count` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    #[inline]
    pub fn write_bits(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        let count = u32::from(count);
        self.acc = (self.acc << count) | (u64::from(value) & ((1u64 << count) - 1));
        self.filled += count;
        if self.filled >= 32 {
            self.filled -= 32;
            self.bytes.extend_from_slice(&((self.acc >> self.filled) as u32).to_be_bytes());
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.filled as usize
    }

    /// Pads with zero bits to a byte boundary and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        let tail = ((self.acc << (32 - self.filled)) as u32).to_be_bytes();
        self.bytes.extend_from_slice(&tail[..self.filled.div_ceil(8) as usize]);
        self.bytes
    }
}

/// Most-significant-bit-first bit reader.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    bit: u8,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over a byte buffer.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0, bit: 0 }
    }

    /// Reads one bit; `None` at end of input.
    #[inline]
    pub fn read_bit(&mut self) -> Option<u8> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        let b = (self.bytes[self.pos] >> (7 - self.bit)) & 1;
        self.bit += 1;
        if self.bit == 8 {
            self.bit = 0;
            self.pos += 1;
        }
        Some(b)
    }

    /// Reads `count` bits MSB-first; `None` if input is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn read_bits(&mut self, count: u8) -> Option<u32> {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        let mut v = 0u32;
        for _ in 0..count {
            v = (v << 1) | self.read_bit()? as u32;
        }
        Some(v)
    }

    /// Number of bits consumed so far.
    pub fn bits_read(&self) -> usize {
        self.pos * 8 + self.bit as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_widths() {
        let values = [(0u32, 1u8), (1, 1), (5, 3), (255, 8), (1023, 10), (0xDEAD, 16), (1, 32)];
        let mut w = BitWriter::new();
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let total_bits: usize = values.iter().map(|&(_, n)| n as usize).sum();
        assert_eq!(w.bit_len(), total_bits);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            assert_eq!(r.read_bits(n), Some(v), "width {n}");
        }
        assert_eq!(r.bits_read(), total_bits);
    }

    #[test]
    fn read_past_end_returns_none() {
        let mut r = BitReader::new(&[0xAA]);
        assert_eq!(r.read_bits(8), Some(0xAA));
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(4), None);
    }

    /// The bit-serial writer [`BitWriter`] replaced, kept as the reference
    /// the word-wide accumulator is compared with.
    #[derive(Default)]
    struct SerialWriter {
        bytes: Vec<u8>,
        current: u8,
        filled: u8,
    }

    impl SerialWriter {
        fn write_bits(&mut self, value: u32, count: u8) {
            for i in (0..count).rev() {
                self.current = (self.current << 1) | ((value >> i) & 1) as u8;
                self.filled += 1;
                if self.filled == 8 {
                    self.bytes.push(self.current);
                    self.current = 0;
                    self.filled = 0;
                }
            }
        }

        fn bit_len(&self) -> usize {
            self.bytes.len() * 8 + self.filled as usize
        }

        fn finish(mut self) -> Vec<u8> {
            if self.filled > 0 {
                self.bytes.push(self.current << (8 - self.filled));
            }
            self.bytes
        }
    }

    #[test]
    fn word_wide_writer_matches_the_bit_serial_reference() {
        // Every width 0..=32 at every accumulator fill, values with bits
        // set above `count` (they must be masked off), `bit_len` mid-byte.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200 {
            let (mut fast, mut slow) = (BitWriter::new(), SerialWriter::default());
            for step in 0..(round % 70) {
                let r = next();
                let count = if step % 11 == 0 { [0, 32, 31, 1][step / 11 % 4] } else { r % 33 };
                let value = if r & (1 << 40) == 0 { (r >> 8) as u32 } else { u32::MAX };
                fast.write_bits(value, count as u8);
                slow.write_bits(value, count as u8);
                assert_eq!(fast.bit_len(), slow.bit_len(), "round {round} step {step}");
            }
            assert_eq!(fast.finish(), slow.finish(), "round {round}");
        }
    }

    #[test]
    fn finish_zero_pads_the_last_byte() {
        let mut w = BitWriter::new();
        w.write_bits(u32::MAX, 32);
        w.write_bits(0b1_0110, 3); // only 110 is written
        assert_eq!(w.bit_len(), 35);
        assert_eq!(w.finish(), [0xFF, 0xFF, 0xFF, 0xFF, 0b1100_0000]);
    }

    #[test]
    fn zero_bit_write_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.finish().is_empty());
    }
}
