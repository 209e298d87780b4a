//! The `easz` framing protocol: length-prefixed frames carrying `.easz`
//! containers to a decode server and decoded images (or typed errors) back.
//!
//! The normative specification — frame layout, type and error-code tables,
//! connection rules — lives in [`docs/FORMAT.md`] at the repository root;
//! this module is its executable form. Both sides of the connection use the
//! same primitives: [`write_frame`] / [`read_frame`] move whole frames,
//! [`encode_image`] / [`decode_image`] and [`encode_batch`] /
//! [`decode_batch_payload`] translate the structured payloads. Every one of
//! them reads through [`easz_codecs::wire::Cursor`], the one place the
//! workspace checks bounds on untrusted bytes, and every payload layout is
//! exact: trailing bytes are a malformation.
//!
//! A frame is `type (1 byte) | payload length (u32 LE) | payload`. Frame
//! types with the high bit clear are requests, with the high bit set are
//! responses. All integers are little-endian, matching the `.easz`
//! container itself.
//!
//! [`docs/FORMAT.md`]: https://example.invalid/easz/docs/FORMAT.md

use easz_codecs::wire::Cursor;
use easz_core::EaszError;
use easz_image::{Channels, ImageU8};
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Protocol version spoken by this build; carried in `PING`/`PONG` payloads
/// so peers can detect mismatches before decoding anything.
pub const PROTOCOL_VERSION: u8 = 1;

/// Bytes of a frame header: 1 type byte + 4 length bytes.
pub const FRAME_HEADER_LEN: usize = 5;

/// Request: payload is one `.easz` container; answered with [`IMAGE`] or
/// [`ERROR`].
pub const DECODE: u8 = 0x01;
/// Request: payload is a [batch](encode_batch) of `.easz` containers;
/// answered with exactly one [`IMAGE`] or [`ERROR`] frame per container, in
/// order.
pub const DECODE_BATCH: u8 = 0x02;
/// Request: payload is the client's 1-byte protocol version; answered with
/// [`PONG`].
pub const PING: u8 = 0x03;
/// Request: empty payload; answered with [`STATS_REPLY`] carrying a
/// [`ServerStats`](crate::ServerStats) snapshot.
pub const STATS: u8 = 0x04;
/// Request: a 1-byte [`EngineTier`] then one `.easz` container; as
/// [`DECODE`], with the named tier overriding the container's standing
/// engine preference for this request.
pub const DECODE_TIERED: u8 = 0x05;
/// Request: a 1-byte [`EngineTier`] then a [batch](encode_batch) payload;
/// as [`DECODE_BATCH`], with every container decoded on the named tier.
pub const DECODE_BATCH_TIERED: u8 = 0x06;
/// Request: empty payload; answered with [`TRACE_REPLY`] draining the
/// server's recent sampled trace spans and its slow-request log
/// (`docs/FORMAT.md` §2.7).
pub const TRACE: u8 = 0x07;
/// Response: payload is a [decoded image](encode_image).
pub const IMAGE: u8 = 0x81;
/// Response to [`PING`]: payload is the server's 1-byte protocol version.
pub const PONG: u8 = 0x83;
/// Response to [`STATS`]: payload is a serialized
/// [`ServerStats`](crate::ServerStats) snapshot (`docs/FORMAT.md` §2.5).
pub const STATS_REPLY: u8 = 0x84;
/// Response to [`TRACE`]: payload is a serialized
/// [`TraceReport`](crate::TraceReport) (`docs/FORMAT.md` §2.7).
pub const TRACE_REPLY: u8 = 0x85;
/// Response: payload is an [error code](ErrorCode) byte, a u16 LE message
/// length, and the UTF-8 message.
pub const ERROR: u8 = 0xEE;

/// The engine-tier byte carried by [`DECODE_TIERED`] /
/// [`DECODE_BATCH_TIERED`] requests (`docs/FORMAT.md` §2.6).
///
/// Tier bytes are append-only; a server receiving a reserved byte answers
/// with one [`ErrorCode::Protocol`] error and keeps the connection open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum EngineTier {
    /// The bit-exact f32 decode — byte-identical to what [`DECODE`]
    /// returns for a container without the quantized opt-in flag.
    #[default]
    Reference = 0,
    /// The int8 quantized tier: deterministic, ε/PSNR-bounded divergence
    /// from [`Reference`](EngineTier::Reference).
    QuantizedInt8 = 1,
}

impl EngineTier {
    /// The raw wire byte.
    pub fn wire_byte(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte back into a tier (`None` for reserved bytes).
    pub fn from_byte(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(Self::Reference),
            1 => Some(Self::QuantizedInt8),
            _ => None,
        }
    }

    /// The decode engine this tier selects.
    pub fn engine(self) -> easz_core::DecodeEngine {
        match self {
            Self::Reference => easz_core::DecodeEngine::TapeFree,
            Self::QuantizedInt8 => easz_core::DecodeEngine::QuantizedInt8,
        }
    }
}

/// Typed wire identity of everything that can go wrong server-side.
///
/// Codes `1..=15` mirror [`EaszError`] variants (the container was framed
/// correctly but could not be decoded; the connection stays usable). Codes
/// `32..` are protocol-level; [`ErrorCode::Oversize`] and
/// [`ErrorCode::UnknownFrame`] additionally mean the server closed the
/// connection, since framing can no longer be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Container does not start with the `EASZ` magic.
    BadMagic = 1,
    /// Container format version this server cannot parse.
    UnsupportedVersion = 2,
    /// Container shorter than its header or announced sections.
    Truncated = 3,
    /// Structurally invalid container or payload/geometry disagreement.
    Malformed = 4,
    /// Mask side channel unparseable or inconsistent with the header.
    MaskChannel = 5,
    /// The bitstream names a codec the server's registry does not hold.
    UnknownCodec = 6,
    /// The server's model serves a different patch geometry.
    GeometryMismatch = 7,
    /// The inner codec rejected its bitstream.
    Codec = 8,
    /// The header encodes a configuration violating an Easz invariant.
    InvalidConfig = 9,
    /// A well-framed request the server cannot honour (bad ping length,
    /// malformed or too-large batch payload). Connection stays open.
    Protocol = 32,
    /// A frame announced a payload longer than the server accepts. The
    /// connection is closed after this error.
    Oversize = 33,
    /// The frame type byte is not one this server knows. The connection is
    /// closed after this error.
    UnknownFrame = 34,
    /// The server is saturated and shed this work instead of queueing it.
    /// For a decode request refused by admission control the connection
    /// stays open (retry later, ideally with backoff); for a connection
    /// refused at accept the server closes right after this frame.
    Busy = 35,
    /// The container names a zoo model id this server does not serve. The
    /// connection stays open; other model ids keep decoding.
    UnknownModel = 36,
    /// The decode panicked inside the server; the panic was caught at an
    /// isolation boundary and only this request failed. The connection
    /// stays open and the worker pool recovers.
    Internal = 37,
    /// The request's per-decode deadline expired before the gateway could
    /// schedule it; the job was swept unstarted. The connection stays open
    /// — retry with backoff, the server is overloaded or stalled.
    DeadlineExceeded = 38,
}

impl ErrorCode {
    /// The raw wire byte.
    pub fn value(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte back into a code.
    pub fn from_byte(byte: u8) -> Option<Self> {
        use ErrorCode::*;
        Some(match byte {
            1 => BadMagic,
            2 => UnsupportedVersion,
            3 => Truncated,
            4 => Malformed,
            5 => MaskChannel,
            6 => UnknownCodec,
            7 => GeometryMismatch,
            8 => Codec,
            9 => InvalidConfig,
            32 => Protocol,
            33 => Oversize,
            34 => UnknownFrame,
            35 => Busy,
            36 => UnknownModel,
            37 => Internal,
            38 => DeadlineExceeded,
            _ => return None,
        })
    }

    /// The code a decode failure is reported under.
    pub fn of(error: &EaszError) -> Self {
        match error {
            EaszError::BadMagic => Self::BadMagic,
            EaszError::UnsupportedVersion(_) => Self::UnsupportedVersion,
            EaszError::Truncated { .. } => Self::Truncated,
            EaszError::Malformed(_) => Self::Malformed,
            EaszError::MaskChannel(_) => Self::MaskChannel,
            EaszError::UnknownCodec(_) => Self::UnknownCodec,
            EaszError::GeometryMismatch { .. } => Self::GeometryMismatch,
            EaszError::Codec(_) => Self::Codec,
            EaszError::InvalidConfig(_) => Self::InvalidConfig,
            EaszError::UnknownModel(_) => Self::UnknownModel,
            EaszError::Internal(_) => Self::Internal,
            EaszError::DeadlineExceeded => Self::DeadlineExceeded,
            // `EaszError` is non-exhaustive; anything a future core adds is
            // at least a malformed-input report until it gets its own code.
            _ => Self::Malformed,
        }
    }
}

/// An error frame as it travels the wire: typed code plus human-readable
/// detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Typed failure class.
    pub code: ErrorCode,
    /// Human-readable detail (never needed to interpret `code`).
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// Builds the wire form of a decode failure.
    pub fn from_easz(error: &EaszError) -> Self {
        Self { code: ErrorCode::of(error), message: error.to_string() }
    }

    /// Serializes into an [`ERROR`] frame payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let msg = self.message.as_bytes();
        let len = msg.len().min(u16::MAX as usize);
        let mut out = Vec::with_capacity(3 + len);
        out.push(self.code.value());
        out.extend_from_slice(&(len as u16).to_le_bytes());
        out.extend_from_slice(&msg[..len]);
        out
    }

    /// Parses an [`ERROR`] frame payload, which must end exactly after the
    /// announced message.
    pub fn from_payload(payload: &[u8]) -> Result<Self, String> {
        let mut c = Cursor::new(payload);
        let (Ok(code), Ok(len)) = (c.u8(), c.u16()) else {
            return Err(format!("error payload of {} bytes is too short", payload.len()));
        };
        let code =
            ErrorCode::from_byte(code).ok_or_else(|| format!("unknown error code {code}"))?;
        let message = c.rest();
        if message.len() != usize::from(len) {
            return Err(format!("error payload length {} != announced {len}", message.len()));
        }
        Ok(Self { code, message: String::from_utf8_lossy(message).into_owned() })
    }
}

/// Failure while reading a frame off a connection.
#[derive(Debug)]
pub enum FrameReadError {
    /// The transport failed (including mid-frame EOF).
    Io(io::Error),
    /// The header announced a payload beyond the reader's limit. The
    /// payload bytes were *not* consumed, so the stream is unsynchronized.
    Oversize {
        /// Announced payload length.
        announced: usize,
        /// The reader's limit.
        limit: usize,
    },
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "frame read: {e}"),
            Self::Oversize { announced, limit } => {
                write!(f, "frame announces {announced} payload bytes, limit is {limit}")
            }
        }
    }
}

impl std::error::Error for FrameReadError {}

impl From<io::Error> for FrameReadError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Prepares a freshly connected or accepted socket for Easz traffic by
/// turning Nagle's algorithm off (`TCP_NODELAY`).
///
/// Every stream the crate owns passes through here once, where it is born:
/// the threaded accept loop, the reactor's accept loop, the client's dial
/// (connect and re-dial) and `EaszClient::from_stream`. Replies leave as
/// one write per frame, often several frames back to back while the peer
/// only reads; with Nagle on, the second small frame waits for the peer's
/// delayed ACK of the first (≈ 40 ms on Linux). Whole-frame writes are what
/// makes switching it off free: no frame is ever sent as a trickle of tiny
/// segments.
pub(crate) fn prepare_stream(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

/// Writes one frame — header and payload together, in a single `write` on
/// the happy path, so a socket with Nagle off never sends the 5-byte header
/// as a segment of its own and one with Nagle on never parks the payload
/// behind the header's ACK.
///
/// # Panics
///
/// Panics if `payload` exceeds `u32::MAX` bytes (a caller bug — decoded
/// images are bounded far below this by the container's canvas limit).
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, frame_type: u8, payload: &[u8]) -> io::Result<()> {
    write_flushed(w, &frame_bytes(frame_type, payload))
}

/// Writes `bytes` — a whole frame already serialized by [`frame_bytes`] —
/// in one `write` and flushes.
pub(crate) fn write_flushed(w: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    // Fault hook (compiles out of default builds): tear the bytes across
    // two flushed writes so the peer must reassemble the frame from partial
    // reads — the wire-level shape of a short write.
    if let Some(split) = crate::fault::write_split(bytes.len()) {
        w.write_all(&bytes[..split])?;
        w.flush()?;
        w.write_all(&bytes[split..])?;
        return w.flush();
    }
    w.write_all(bytes)?;
    w.flush()
}

/// The frame header announcing `payload_len` bytes of `frame_type`; read
/// back by [`parse_frame_header`].
fn frame_header(frame_type: u8, payload_len: usize) -> [u8; FRAME_HEADER_LEN] {
    assert!(payload_len <= u32::MAX as usize, "frame payload too large to announce");
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0] = frame_type;
    header[1..5].copy_from_slice(&(payload_len as u32).to_le_bytes());
    header
}

/// Splits a frame header into its type byte and announced payload length:
/// the one decoding of the 5 header bytes, shared by [`read_frame`] and the
/// reactor's incremental assembler.
pub(crate) fn parse_frame_header(header: &[u8; FRAME_HEADER_LEN]) -> (u8, usize) {
    let mut c = Cursor::new(header);
    let (Ok(frame_type), Ok(len)) = (c.u8(), c.u32()) else {
        unreachable!("a frame header holds a type byte and a u32")
    };
    (frame_type, len as usize)
}

/// Serializes one frame into owned bytes — the header of [`write_frame`]
/// followed by the payload. This is what a readiness-driven writer queues
/// into a connection's outbound buffer when it cannot block on a stream.
///
/// # Panics
///
/// As [`write_frame`], if `payload` exceeds `u32::MAX` bytes.
pub fn frame_bytes(frame_type: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&frame_header(frame_type, payload.len()));
    out.extend_from_slice(payload);
    out
}

/// The serialized [`IMAGE`] frame for `img`: what
/// `frame_bytes(IMAGE, &encode_image(img))` returns, without the
/// intermediate copy of the payload.
pub(crate) fn image_frame(img: &ImageU8) -> Vec<u8> {
    let payload_len = IMAGE_HEADER_LEN + img.data().len();
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload_len);
    out.extend_from_slice(&frame_header(IMAGE, payload_len));
    put_image(&mut out, img);
    out
}

/// Reads one frame, returning `Ok(None)` on a clean end-of-stream (the peer
/// closed between frames).
///
/// # Errors
///
/// [`FrameReadError::Oversize`] if the header announces more than
/// `max_payload` bytes (nothing past the header is consumed), otherwise
/// transport errors — a connection dropped *inside* a frame surfaces as
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame(
    r: &mut impl Read,
    max_payload: usize,
) -> Result<Option<(u8, Vec<u8>)>, FrameReadError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    loop {
        // Fault hook (compiles out of default builds): a simulated transport
        // EINTR takes the same retry branch a real one would.
        if crate::fault::read_interrupted() {
            continue;
        }
        match r.read(&mut header[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    r.read_exact(&mut header[1..])?;
    let (frame_type, announced) = parse_frame_header(&header);
    if announced > max_payload {
        return Err(FrameReadError::Oversize { announced, limit: max_payload });
    }
    let mut payload = vec![0u8; announced];
    r.read_exact(&mut payload)?;
    Ok(Some((frame_type, payload)))
}

/// Bytes of an [`IMAGE`] payload ahead of the samples.
const IMAGE_HEADER_LEN: usize = 9;

/// Serializes a decoded image into an [`IMAGE`] frame payload: u32 LE
/// width, u32 LE height, a channel-count byte (`1` = grayscale, `3` = RGB),
/// then `width * height * channels` interleaved 8-bit samples.
pub fn encode_image(img: &ImageU8) -> Vec<u8> {
    let mut out = Vec::with_capacity(IMAGE_HEADER_LEN + img.data().len());
    put_image(&mut out, img);
    out
}

fn put_image(out: &mut Vec<u8>, img: &ImageU8) {
    out.extend_from_slice(&(img.width() as u32).to_le_bytes());
    out.extend_from_slice(&(img.height() as u32).to_le_bytes());
    out.push(img.channels().count() as u8);
    out.extend_from_slice(img.data());
}

/// Parses an [`IMAGE`] frame payload, which must end exactly after the
/// announced samples.
///
/// # Errors
///
/// A description of the malformation (short payload, channel byte other
/// than 1 or 3, sample count disagreeing with the announced dimensions).
pub fn decode_image(payload: &[u8]) -> Result<ImageU8, String> {
    let mut c = Cursor::new(payload);
    let (Ok(width), Ok(height), Ok(channels)) = (c.u32(), c.u32(), c.u8()) else {
        return Err(format!("image payload of {} bytes is too short", payload.len()));
    };
    let (width, height) = (width as usize, height as usize);
    let channels = match channels {
        1 => Channels::Gray,
        3 => Channels::Rgb,
        other => return Err(format!("channel byte {other} is neither 1 nor 3")),
    };
    let expected = width
        .checked_mul(height)
        .and_then(|p| p.checked_mul(channels.count()))
        .ok_or_else(|| "image dimensions overflow".to_string())?;
    let samples = c.rest();
    if samples.len() != expected {
        return Err(format!("{} samples for a {width}x{height} image", samples.len()));
    }
    Ok(ImageU8::from_vec(width, height, channels, samples.to_vec()))
}

/// Serializes containers into a [`DECODE_BATCH`] payload: u32 LE count,
/// then per container a u32 LE length and the container bytes.
pub fn encode_batch(containers: &[&[u8]]) -> Vec<u8> {
    let total: usize = containers.iter().map(|c| 4 + c.len()).sum();
    let mut out = Vec::with_capacity(4 + total);
    out.extend_from_slice(&(containers.len() as u32).to_le_bytes());
    for c in containers {
        out.extend_from_slice(&(c.len() as u32).to_le_bytes());
        out.extend_from_slice(c);
    }
    out
}

/// Parses a [`DECODE_BATCH`] payload back into container byte ranges.
///
/// # Errors
///
/// A description of the malformation (truncated entries, trailing bytes, or
/// more than `max_batch` containers).
pub fn decode_batch_payload(payload: &[u8], max_batch: usize) -> Result<Vec<&[u8]>, String> {
    let mut c = Cursor::new(payload);
    let count = c.u32().map_err(|_| "batch payload shorter than its count")? as usize;
    if count > max_batch {
        return Err(format!("batch of {count} containers exceeds the limit of {max_batch}"));
    }
    let mut containers = Vec::with_capacity(count);
    for i in 0..count {
        let len =
            c.u32().map_err(|_| format!("batch entry {i} is missing its length prefix"))? as usize;
        let container = c
            .bytes(len)
            .map_err(|_| format!("batch entry {i} announces {len} bytes past the payload end"))?;
        containers.push(container);
    }
    c.finish().map_err(|e| format!("{} trailing bytes after the batch entries", e.have))?;
    Ok(containers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_bytes_matches_write_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, DECODE, b"payload").expect("write");
        assert_eq!(frame_bytes(DECODE, b"payload"), wire);
        assert_eq!(frame_bytes(PING, &[]), [PING, 0, 0, 0, 0]);
    }

    /// Records every `write` call as its own chunk.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_is_one_write_unless_the_fault_hook_tears_it() {
        use crate::fault::{install, FaultPlan};
        let frame = frame_bytes(DECODE, b"payload");
        {
            // A plan that fires nothing; holding its guard keeps a
            // concurrently running fault test from tearing this write.
            let _guard = install(FaultPlan::default());
            let mut w = CountingWriter::default();
            write_frame(&mut w, DECODE, b"payload").expect("write");
            assert_eq!(w.writes, std::slice::from_ref(&frame), "header and payload leave together");
        }
        let _guard = install(FaultPlan { write_split_permille: 1000, ..FaultPlan::default() });
        let mut w = CountingWriter::default();
        write_frame(&mut w, DECODE, b"payload").expect("write");
        assert_eq!(w.writes.len(), 2, "the armed hook still tears the frame in two");
        assert_eq!(w.writes.concat(), frame);
    }

    #[test]
    fn frame_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, DECODE, b"hello").expect("write");
        write_frame(&mut wire, PING, &[PROTOCOL_VERSION]).expect("write");
        let mut r = wire.as_slice();
        let (ty, payload) = read_frame(&mut r, 1024).expect("read").expect("frame");
        assert_eq!((ty, payload.as_slice()), (DECODE, b"hello".as_slice()));
        let (ty, payload) = read_frame(&mut r, 1024).expect("read").expect("frame");
        assert_eq!((ty, payload.as_slice()), (PING, [PROTOCOL_VERSION].as_slice()));
        assert!(read_frame(&mut r, 1024).expect("clean eof").is_none());
    }

    #[test]
    fn oversize_announcement_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        write_frame(&mut wire, DECODE, &[0u8; 100]).expect("write");
        match read_frame(&mut wire.as_slice(), 99) {
            Err(FrameReadError::Oversize { announced: 100, limit: 99 }) => {}
            other => panic!("expected oversize, got {other:?}"),
        }
    }

    #[test]
    fn mid_frame_eof_is_an_io_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, DECODE, b"hello").expect("write");
        wire.truncate(wire.len() - 2);
        match read_frame(&mut wire.as_slice(), 1024) {
            Err(FrameReadError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected io error, got {other:?}"),
        }
    }

    #[test]
    fn image_payload_round_trip() {
        let img = ImageU8::from_vec(3, 2, Channels::Rgb, (0..18).collect());
        let payload = encode_image(&img);
        assert_eq!(image_frame(&img), frame_bytes(IMAGE, &payload));
        let back = decode_image(&payload).expect("parse");
        assert_eq!(back.width(), 3);
        assert_eq!(back.height(), 2);
        assert_eq!(back.data(), img.data());
    }

    #[test]
    fn image_payload_rejects_malformations() {
        let img = ImageU8::from_vec(2, 2, Channels::Gray, vec![0; 4]);
        let good = encode_image(&img);
        assert!(decode_image(&good[..5]).is_err(), "short payload");
        let mut bad_channels = good.clone();
        bad_channels[8] = 2;
        assert!(decode_image(&bad_channels).is_err(), "channel byte 2");
        let mut extra = good;
        extra.push(0);
        assert!(decode_image(&extra).is_err(), "trailing sample");
    }

    #[test]
    fn batch_payload_round_trip() {
        let parts: [&[u8]; 3] = [b"one", b"", b"three"];
        let payload = encode_batch(&parts);
        let back = decode_batch_payload(&payload, 8).expect("parse");
        assert_eq!(back, parts);
        assert!(decode_batch_payload(&payload, 2).is_err(), "over the batch limit");
    }

    #[test]
    fn batch_payload_rejects_malformations() {
        let payload = encode_batch(&[b"abc".as_slice()]);
        assert!(decode_batch_payload(&payload[..2], 8).is_err(), "missing count");
        assert!(decode_batch_payload(&payload[..6], 8).is_err(), "missing entry length");
        assert!(decode_batch_payload(&payload[..payload.len() - 1], 8).is_err(), "short entry");
        let mut trailing = payload;
        trailing.push(9);
        assert!(decode_batch_payload(&trailing, 8).is_err(), "trailing bytes");
    }

    #[test]
    fn error_codes_round_trip_and_cover_easz_errors() {
        for code in [
            ErrorCode::BadMagic,
            ErrorCode::UnsupportedVersion,
            ErrorCode::Truncated,
            ErrorCode::Malformed,
            ErrorCode::MaskChannel,
            ErrorCode::UnknownCodec,
            ErrorCode::GeometryMismatch,
            ErrorCode::Codec,
            ErrorCode::InvalidConfig,
            ErrorCode::Protocol,
            ErrorCode::Oversize,
            ErrorCode::UnknownFrame,
            ErrorCode::Busy,
            ErrorCode::UnknownModel,
            ErrorCode::Internal,
            ErrorCode::DeadlineExceeded,
        ] {
            assert_eq!(ErrorCode::from_byte(code.value()), Some(code));
        }
        assert_eq!(ErrorCode::from_byte(0), None);
        assert_eq!(ErrorCode::Internal.value(), 37);
        assert_eq!(ErrorCode::DeadlineExceeded.value(), 38);
        assert_eq!(ErrorCode::of(&EaszError::BadMagic), ErrorCode::BadMagic);
        assert_eq!(ErrorCode::of(&EaszError::UnknownModel(7)), ErrorCode::UnknownModel);
        assert_eq!(ErrorCode::of(&EaszError::Internal("x".into())), ErrorCode::Internal);
        assert_eq!(ErrorCode::of(&EaszError::DeadlineExceeded), ErrorCode::DeadlineExceeded);
        assert_eq!(
            ErrorCode::of(&EaszError::Truncated { needed: 46, got: 0 }),
            ErrorCode::Truncated
        );
    }

    #[test]
    fn engine_tier_bytes_round_trip_and_reserved_bytes_are_none() {
        for tier in [EngineTier::Reference, EngineTier::QuantizedInt8] {
            assert_eq!(EngineTier::from_byte(tier.wire_byte()), Some(tier));
        }
        assert_eq!(EngineTier::from_byte(2), None);
        assert_eq!(EngineTier::from_byte(0xFF), None);
        assert_eq!(EngineTier::default(), EngineTier::Reference);
        assert_eq!(EngineTier::Reference.engine(), easz_core::DecodeEngine::TapeFree);
        assert_eq!(EngineTier::QuantizedInt8.engine(), easz_core::DecodeEngine::QuantizedInt8);
    }

    #[test]
    fn wire_error_round_trip() {
        let e = WireError { code: ErrorCode::UnknownCodec, message: "no codec#9".into() };
        let back = WireError::from_payload(&e.to_payload()).expect("parse");
        assert_eq!(back, e);
        assert!(WireError::from_payload(&[1]).is_err(), "short payload");
        assert!(WireError::from_payload(&[0, 0, 0]).is_err(), "unknown code");
    }
}
