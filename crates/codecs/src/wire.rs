//! The one place untrusted bytes are bounds-checked.
//!
//! Every parser in the workspace that reads bytes it did not write — the
//! `.easz` container and its mask side channel in `easz-core`, the
//! inner-codec headers and Huffman tables in this crate, every framing
//! payload in `easz-server` — reads through a [`Cursor`]. A read either
//! returns its bytes and advances, or returns a [`LengthError`] and leaves
//! the cursor where it was; each parser maps that one typed value into its
//! own error type. An exact layout ends with [`Cursor::finish`], so trailing
//! bytes are an error everywhere, not a per-parser choice.
//!
//! The canvas bound lives here too: every header that announces an image
//! size is held to [`MAX_SIDE`] per side and [`MAX_PIXELS`] in total by
//! [`canvas_fits`], the single overflow-checked `width × height` test.

use std::fmt;

/// Per-side canvas bound, 2^20 pixels: the container, the inner codecs and
/// the encoder all refuse a wider or taller canvas.
pub const MAX_SIDE: usize = 1 << 20;

/// Decode allocation bound: the largest pixel count (width × height) any
/// decoder in this workspace will allocate for, 2^26 ≈ 67 Mpx (8192²).
///
/// Bitstream headers are attacker-controlled, and [`MAX_SIDE`] alone still
/// admits terabyte-scale canvases — a ~200-byte bitstream must never drive
/// a huge allocation. The `.easz` container enforces the same bound on its
/// canvas (see `docs/FORMAT.md` §1), so a decoded reply is at most
/// `3 * MAX_PIXELS + 9` bytes on the wire.
pub const MAX_PIXELS: usize = 1 << 26;

/// Whether a `width × height` canvas is inside both bounds: each side at
/// most [`MAX_SIDE`], and the product — computed without overflow — at
/// most [`MAX_PIXELS`]. Zero sides pass: whether an empty canvas is an
/// error is the caller's rule (a parser rejects it, the encoder hands it to
/// its codec).
pub fn canvas_fits(width: usize, height: usize) -> bool {
    width <= MAX_SIDE
        && height <= MAX_SIDE
        && width.checked_mul(height).is_some_and(|px| px <= MAX_PIXELS)
}

/// A read the bytes could not satisfy: at offset `pos`, `needed` bytes
/// were required and `have` were present.
///
/// [`Cursor::finish`] reports trailing bytes the same way, with `needed`
/// `0`: [`is_trailing`](Self::is_trailing) tells the two apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LengthError {
    /// Offset the failed read started at.
    pub pos: usize,
    /// Bytes the read required from `pos` on.
    pub needed: usize,
    /// Bytes present from `pos` on.
    pub have: usize,
}

impl LengthError {
    /// Whether the input ran long (bytes left after an exact layout)
    /// rather than short.
    pub fn is_trailing(&self) -> bool {
        self.have > self.needed
    }
}

impl fmt::Display for LengthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_trailing() {
            write!(f, "{} trailing bytes after byte {}", self.have - self.needed, self.pos)
        } else {
            write!(f, "truncated at byte {}: needed {}, have {}", self.pos, self.needed, self.have)
        }
    }
}

impl std::error::Error for LengthError {}

/// For parsers whose error is a plain message.
impl From<LengthError> for String {
    fn from(e: LengthError) -> Self {
        e.to_string()
    }
}

/// A bounds-checked little-endian reader over a byte slice.
///
/// ```
/// use easz_codecs::wire::Cursor;
/// let mut c = Cursor::new(&[7, 0x34, 0x12, 0xFF]);
/// assert_eq!(c.u8(), Ok(7));
/// assert_eq!(c.u16(), Ok(0x1234));
/// assert!(c.u16().is_err(), "one byte left");
/// assert_eq!(c.pos(), 3, "a failed read does not advance");
/// assert!(c.finish().is_err(), "and that byte is trailing");
/// ```
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes read so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], LengthError> {
        let out = self.bytes[self.pos..].get(..n).ok_or(LengthError {
            pos: self.pos,
            needed: n,
            have: self.remaining(),
        })?;
        self.pos += n;
        Ok(out)
    }

    /// Everything not yet read, possibly nothing; the cursor ends at the
    /// end.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        out
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], LengthError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, LengthError> {
        self.array().map(u8::from_le_bytes)
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, LengthError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, LengthError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, LengthError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u16` element count, checked against what follows it: fails
    /// unless `count` elements of `elem_len` bytes fit in the bytes after
    /// the count, so a caller may size a buffer from the count before
    /// reading a single element.
    pub fn count_u16(&mut self, elem_len: usize) -> Result<usize, LengthError> {
        let (pos, have) = (self.pos, self.remaining());
        let count = usize::from(self.u16()?);
        let elements = count.saturating_mul(elem_len);
        if elements > self.remaining() {
            self.pos = pos;
            return Err(LengthError { pos, needed: elements.saturating_add(2), have });
        }
        Ok(count)
    }

    /// Ends an exact layout: fails if any byte is left unread.
    pub fn finish(&self) -> Result<(), LengthError> {
        match self.remaining() {
            0 => Ok(()),
            have => Err(LengthError { pos: self.pos, needed: 0, have }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One read of every kind: its name, the bytes it consumes on success,
    /// the bytes it needs present to succeed at the start of [`BUF`], and
    /// the read itself.
    type Read = (&'static str, usize, usize, fn(&mut Cursor<'_>) -> Result<(), LengthError>);

    const READS: [Read; 8] = [
        ("u8", 1, 1, |c| c.u8().map(drop)),
        ("u16", 2, 2, |c| c.u16().map(drop)),
        ("u32", 4, 4, |c| c.u32().map(drop)),
        ("u64", 8, 8, |c| c.u64().map(drop)),
        ("bytes(0)", 0, 0, |c| c.bytes(0).map(drop)),
        ("bytes(5)", 5, 5, |c| c.bytes(5).map(drop)),
        // `BUF` opens with a count of 3: three 2-byte elements must follow.
        ("count_u16(2)", 2, 8, |c| c.count_u16(2).map(drop)),
        ("count_u16(0)", 2, 2, |c| c.count_u16(0).map(drop)),
    ];

    const BUF: [u8; 12] = [3, 0, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 1, 2, 3, 4];

    #[test]
    fn every_read_at_every_truncation_point_fails_in_place() {
        for (name, consumed, needed, read) in READS {
            // Every prefix of the buffer, read from offset 0 and from an
            // offset one byte in (a cursor that has already moved).
            for skip in [0usize, 1] {
                let data: Vec<u8> = [&[9u8][..skip], &BUF[..]].concat();
                for len in skip..data.len() {
                    let mut c = Cursor::new(&data[..len]);
                    c.bytes(skip).expect("skip");
                    let have = len - skip;
                    let result = read(&mut c);
                    if have >= needed {
                        assert_eq!(result, Ok(()), "{name} at {skip} over {have} bytes");
                        assert_eq!(c.pos(), skip + consumed, "{name}: advanced by its width");
                    } else {
                        let err = result.expect_err(name);
                        // A count whose own two bytes are missing fails as
                        // a plain u16 read.
                        let needed = if have < consumed { consumed } else { needed };
                        assert_eq!(
                            err,
                            LengthError { pos: skip, needed, have },
                            "{name} at {skip} over {have} bytes"
                        );
                        assert!(!err.is_trailing());
                        assert_eq!(c.pos(), skip, "{name}: a failed read must not advance");
                        assert_eq!(c.remaining(), have, "{name}: nothing consumed");
                    }
                }
            }
        }
    }

    #[test]
    fn values_are_little_endian() {
        let mut c = Cursor::new(&BUF);
        assert_eq!(c.u16(), Ok(3));
        assert_eq!(c.u32(), Ok(0xDDCC_BBAA));
        assert_eq!(c.u8(), Ok(0xEE));
        assert_eq!(c.bytes(1), Ok(&[0xFF][..]));
        assert_eq!(c.u32(), Ok(0x0403_0201));
        assert_eq!(c.finish(), Ok(()));
        let mut c = Cursor::new(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(c.u64(), Ok(0x0807_0605_0403_0201));
    }

    #[test]
    fn count_checks_its_elements_against_what_follows() {
        // Count 3 of 2-byte elements needs 6 bytes after the count.
        let mut c = Cursor::new(&BUF[..8]);
        assert_eq!(c.count_u16(2), Ok(3));
        assert_eq!(c.pos(), 2);
        // A huge count is refused before anything is sized from it.
        let mut c = Cursor::new(&[0xFF, 0xFF, 0, 0]);
        assert_eq!(
            c.count_u16(usize::MAX),
            Err(LengthError { pos: 0, needed: usize::MAX, have: 4 })
        );
        assert_eq!(c.count_u16(1), Err(LengthError { pos: 0, needed: 65_537, have: 4 }));
        assert_eq!(c.pos(), 0);
    }

    #[test]
    fn finish_and_rest_close_a_layout() {
        let mut c = Cursor::new(&BUF);
        c.bytes(10).expect("ten");
        let err = c.finish().expect_err("two bytes left");
        assert_eq!(err, LengthError { pos: 10, needed: 0, have: 2 });
        assert!(err.is_trailing());
        assert_eq!(err.to_string(), "2 trailing bytes after byte 10");
        assert_eq!(c.rest(), &[3, 4]);
        assert_eq!((c.pos(), c.remaining()), (12, 0));
        assert_eq!(c.rest(), &[] as &[u8]);
        assert_eq!(c.finish(), Ok(()));
        let short = Cursor::new(&BUF[..1]).u16().expect_err("short");
        assert_eq!(short.to_string(), "truncated at byte 0: needed 2, have 1");
        assert_eq!(String::from(short), short.to_string());
    }

    #[test]
    fn canvas_bound_is_per_side_and_total_and_overflow_checked() {
        assert!(canvas_fits(0, 0), "emptiness is the caller's rule");
        assert!(canvas_fits(MAX_SIDE, MAX_PIXELS / MAX_SIDE));
        assert!(canvas_fits(8192, 8192));
        assert!(!canvas_fits(8192, 8193), "one row over the pixel budget");
        assert!(!canvas_fits(MAX_SIDE + 1, 1), "wider than a side may be");
        assert!(!canvas_fits(1, MAX_SIDE + 1), "taller than a side may be");
        assert!(!canvas_fits(1 << 14, 1 << 13), "per-side legal, terabyte scale");
        assert!(!canvas_fits(usize::MAX, usize::MAX), "the product would overflow");
    }
}
