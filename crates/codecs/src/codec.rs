//! The codec abstraction every compressor in the repo implements, plus
//! rate-targeting helpers used by the paper's BPP-matched comparisons.

use crate::registry::CodecId;
use crate::wire::{self, Cursor, LengthError};
use easz_image::ImageF32;
use std::error::Error;
use std::fmt;

/// Quality knob, 1 (worst/smallest) to 100 (best/largest).
///
/// Each codec maps this onto its native parameter (JPEG quality factor,
/// BPG-like quantiser, neural-sim rate point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Quality(u8);

impl Quality {
    /// Creates a quality setting.
    ///
    /// The panicking convenience for in-range literals; parse untrusted
    /// bytes (bitstream headers, CLI input) with [`Quality::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside `1..=100`.
    pub fn new(value: u8) -> Self {
        Self::try_new(value).unwrap_or_else(|_| panic!("quality must be in 1..=100, got {value}"))
    }

    /// Fallible constructor for quality bytes from untrusted input.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Format`] if `value` is outside `1..=100`.
    pub fn try_new(value: u8) -> Result<Self, CodecError> {
        if (1..=100).contains(&value) {
            Ok(Self(value))
        } else {
            Err(CodecError::Format(format!("quality byte {value} outside 1..=100")))
        }
    }

    /// The raw 1..=100 value.
    pub fn value(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Quality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Error from encoding or decoding.
#[derive(Debug)]
pub enum CodecError {
    /// The bitstream is malformed or truncated.
    Format(String),
    /// The input image violates a codec requirement.
    Unsupported(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Format(m) => write!(f, "malformed bitstream: {m}"),
            Self::Unsupported(m) => write!(f, "unsupported input: {m}"),
        }
    }
}

impl Error for CodecError {}

impl From<LengthError> for CodecError {
    fn from(e: LengthError) -> Self {
        Self::Format(e.to_string())
    }
}

/// The 14-byte header every inner-codec bitstream in this crate opens
/// with: a 4-byte magic naming the codec, u32 width, u32 height, the
/// channel-count byte and the quality byte.
pub(crate) struct InnerHeader {
    pub width: usize,
    pub height: usize,
    /// The raw channel byte; each decoder judges it where its bitstream
    /// order puts that check.
    pub channels: u8,
    pub quality: Quality,
}

impl InnerHeader {
    const LEN: usize = 14;

    /// Appends the header announcing `img` at `quality` to `out`.
    pub fn write(out: &mut Vec<u8>, magic: &[u8; 4], img: &ImageF32, quality: Quality) {
        out.extend_from_slice(magic);
        out.extend_from_slice(&(img.width() as u32).to_le_bytes());
        out.extend_from_slice(&(img.height() as u32).to_le_bytes());
        out.push(img.channels().count() as u8);
        out.push(quality.value());
    }

    /// Parses the header at the start of `bytes`, returning it and a cursor
    /// on the first byte after it. Checks fire in this order: length and
    /// magic (anything under 14 bytes is "bad magic"), the quality byte,
    /// then the canvas, which must be non-empty and fit the
    /// [`wire::canvas_fits`] bound before any decoder allocates for it.
    pub fn parse<'a>(bytes: &'a [u8], magic: &[u8; 4]) -> Result<(Self, Cursor<'a>), CodecError> {
        let mut c = Cursor::new(bytes);
        if bytes.len() < Self::LEN || c.bytes(4)? != magic {
            return Err(CodecError::Format("bad magic".into()));
        }
        let width = c.u32()? as usize;
        let height = c.u32()? as usize;
        let channels = c.u8()?;
        let quality = Quality::try_new(c.u8()?)?;
        if width == 0 || height == 0 || !wire::canvas_fits(width, height) {
            return Err(CodecError::Format(format!("implausible size {width}x{height}")));
        }
        Ok((Self { width, height, channels, quality }, c))
    }
}

/// A lossy image codec producing a self-contained bitstream.
///
/// Codecs must be `Send + Sync`: a server decodes frames from many
/// connections against one shared [`CodecRegistry`](crate::CodecRegistry),
/// so implementations keep per-call state on the stack (all shipped codecs
/// are stateless).
pub trait ImageCodec: Send + Sync {
    /// Short display name (`"jpeg-like"`, `"bpg-like"`, ...).
    fn name(&self) -> &str;

    /// Stable wire identifier stamped into container headers so a decoder
    /// can resolve the codec from the bitstream (see
    /// [`CodecRegistry`](crate::CodecRegistry)).
    ///
    /// The default is [`CodecId::UNKNOWN`]: such codecs still encode and
    /// decode, but cannot be carried inside a self-describing container.
    fn id(&self) -> CodecId {
        CodecId::UNKNOWN
    }

    /// Encodes `img` at the given quality.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Unsupported`] for inputs the codec cannot
    /// handle (e.g. zero-sized images).
    fn encode(&self, img: &ImageF32, quality: Quality) -> Result<Vec<u8>, CodecError>;

    /// Decodes a bitstream produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Format`] for malformed bitstreams.
    fn decode(&self, bytes: &[u8]) -> Result<ImageF32, CodecError>;
}

/// An encoded image together with its rate accounting.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// The bitstream.
    pub bytes: Vec<u8>,
    /// Source width in pixels.
    pub width: usize,
    /// Source height in pixels.
    pub height: usize,
}

impl Encoded {
    /// Bits per pixel of the bitstream *relative to the given canvas*
    /// (callers pass the original image size so squeezed images are charged
    /// fairly, as the paper does).
    pub fn bpp_for(&self, width: usize, height: usize) -> f64 {
        self.bytes.len() as f64 * 8.0 / (width * height) as f64
    }

    /// Bits per pixel relative to the encoded image itself.
    pub fn bpp(&self) -> f64 {
        self.bpp_for(self.width, self.height)
    }
}

/// Encodes `img` with `codec`, wrapping the result with rate accounting.
///
/// # Errors
///
/// Propagates the codec's error.
pub fn encode_with(
    codec: &dyn ImageCodec,
    img: &ImageF32,
    quality: Quality,
) -> Result<Encoded, CodecError> {
    Ok(Encoded { bytes: codec.encode(img, quality)?, width: img.width(), height: img.height() })
}

/// Binary-searches the quality knob (over 1..=100) for the probe result
/// whose reported BPP is closest to `target_bpp`, spending at most
/// `max_iters` probes (clamped to at least one, so a result always
/// exists).
///
/// `probe` encodes at the given quality and returns `(bpp, encode)` under
/// whatever rate accounting the caller uses — this is the one search both
/// [`encode_to_bpp`] and `easz-core`'s `compress_to_bpp` share.
///
/// # Errors
///
/// Propagates the probe's error.
pub fn bpp_quality_search<T, E>(
    target_bpp: f64,
    max_iters: usize,
    mut probe: impl FnMut(Quality) -> Result<(f64, T), E>,
) -> Result<(Quality, T), E> {
    let mut lo = 1u8;
    let mut hi = 100u8;
    let mut best: Option<(f64, Quality, T)> = None;
    let mut iters = 0usize;
    while lo <= hi && iters < max_iters.max(1) {
        let mid = lo + (hi - lo) / 2;
        let q = Quality::new(mid);
        let (bpp, enc) = probe(q)?;
        let err = (bpp - target_bpp).abs();
        if best.as_ref().map(|(e, _, _)| err < *e).unwrap_or(true) {
            best = Some((err, q, enc));
        }
        if bpp > target_bpp {
            if mid == 1 {
                break;
            }
            hi = mid - 1;
        } else {
            if mid == 100 {
                break;
            }
            lo = mid + 1;
        }
        iters += 1;
    }
    let (_, q, enc) = best.expect("max_iters is clamped to >= 1, so one probe ran");
    Ok((q, enc))
}

/// Searches the quality knob (binary search over 1..=100) for the encode
/// whose BPP (relative to `(rate_w, rate_h)`) is closest to `target_bpp`
/// without the search exceeding `max_iters` probes.
///
/// Returns the chosen quality and its encode.
///
/// # Errors
///
/// Propagates codec errors from probe encodes.
pub fn encode_to_bpp(
    codec: &dyn ImageCodec,
    img: &ImageF32,
    target_bpp: f64,
    rate_w: usize,
    rate_h: usize,
    max_iters: usize,
) -> Result<(Quality, Encoded), CodecError> {
    bpp_quality_search(target_bpp, max_iters, |q| {
        let enc = encode_with(codec, img, q)?;
        Ok((enc.bpp_for(rate_w, rate_h), enc))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_bounds() {
        assert_eq!(Quality::new(1).value(), 1);
        assert_eq!(Quality::new(100).value(), 100);
        assert_eq!(Quality::new(50).to_string(), "q50");
    }

    #[test]
    #[should_panic(expected = "quality must be in 1..=100")]
    fn quality_zero_rejected() {
        let _ = Quality::new(0);
    }

    #[test]
    fn bpp_accounting() {
        let e = Encoded { bytes: vec![0; 1000], width: 100, height: 80 };
        assert!((e.bpp() - 1.0).abs() < 1e-9);
        // Charged against a larger canvas, the rate drops.
        assert!((e.bpp_for(200, 80) - 0.5).abs() < 1e-9);
    }
}
