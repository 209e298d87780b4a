//! Per-connection framing state for the reactor: an incremental frame
//! assembler (the readiness-driven twin of [`protocol::read_frame`]), an
//! outbound buffer that survives partial writes, and the ordered reply
//! slots that keep pipelined responses in request order even though decode
//! workers complete out of order.
//!
//! Everything here is plain state-machine code with no I/O, which is what
//! makes the byte-boundary unit tests possible: `push` can be fed one byte
//! at a time and must behave identically to feeding the whole frame.

use crate::protocol::{self};
use crate::trace::{SpanCtx, TraceStage};
use std::collections::VecDeque;
use std::time::Instant;

/// One parse step's outcome (besides consuming input).
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete frame arrived.
    Frame {
        /// The frame-type byte.
        frame_type: u8,
        /// The payload, exactly as announced.
        payload: Vec<u8>,
    },
    /// The header announced a payload beyond the limit. The assembler has
    /// switched to draining the announced bytes; no payload was buffered.
    Oversize {
        /// Announced payload length.
        announced: usize,
        /// The assembler's limit.
        limit: usize,
    },
}

enum ParseState {
    /// Collecting the 5-byte header.
    Header { buf: [u8; protocol::FRAME_HEADER_LEN], have: usize },
    /// Collecting `want` payload bytes.
    Payload { frame_type: u8, payload: Vec<u8>, want: usize },
    /// Swallowing the rest of an oversize frame so the eventual close does
    /// not RST the error reply out from under the peer.
    Draining { remaining: usize },
}

/// Incremental parser for the length-prefixed wire framing: feed it
/// whatever chunk the socket produced, get back how much was consumed and
/// at most one event per call.
pub struct FrameAssembler {
    max_payload: usize,
    state: ParseState,
}

impl FrameAssembler {
    /// An assembler enforcing `max_payload` (the server's
    /// `max_frame_len`). The payload buffer is only allocated *after* the
    /// announced length passes the limit check, so a hostile header cannot
    /// balloon memory.
    pub fn new(max_payload: usize) -> Self {
        Self { max_payload, state: ParseState::Header { buf: [0; 5], have: 0 } }
    }

    /// Whether the assembler is swallowing an oversize frame's payload.
    pub fn is_draining(&self) -> bool {
        matches!(self.state, ParseState::Draining { .. })
    }

    /// Whether an oversize drain has consumed everything it announced.
    pub fn drained(&self) -> bool {
        matches!(self.state, ParseState::Draining { remaining: 0 })
    }

    /// Consumes bytes from `input`, returning how many were taken and at
    /// most one event. Call in a loop over the unconsumed remainder until
    /// it stops producing events or stops consuming.
    pub fn push(&mut self, input: &[u8]) -> (usize, Option<FrameEvent>) {
        let mut consumed = 0;
        loop {
            match &mut self.state {
                ParseState::Header { buf, have } => {
                    let take = (buf.len() - *have).min(input.len() - consumed);
                    buf[*have..*have + take].copy_from_slice(&input[consumed..consumed + take]);
                    *have += take;
                    consumed += take;
                    if *have < buf.len() {
                        return (consumed, None);
                    }
                    let (frame_type, announced) = protocol::parse_frame_header(buf);
                    if announced > self.max_payload {
                        let limit = self.max_payload;
                        self.state = ParseState::Draining { remaining: announced };
                        return (consumed, Some(FrameEvent::Oversize { announced, limit }));
                    }
                    if announced == 0 {
                        self.state = ParseState::Header { buf: [0; 5], have: 0 };
                        return (
                            consumed,
                            Some(FrameEvent::Frame { frame_type, payload: Vec::new() }),
                        );
                    }
                    self.state = ParseState::Payload {
                        frame_type,
                        payload: Vec::with_capacity(announced),
                        want: announced,
                    };
                }
                ParseState::Payload { frame_type, payload, want } => {
                    let take = (*want - payload.len()).min(input.len() - consumed);
                    payload.extend_from_slice(&input[consumed..consumed + take]);
                    consumed += take;
                    if payload.len() < *want {
                        return (consumed, None);
                    }
                    let frame_type = *frame_type;
                    let payload = std::mem::take(payload);
                    self.state = ParseState::Header { buf: [0; 5], have: 0 };
                    return (consumed, Some(FrameEvent::Frame { frame_type, payload }));
                }
                ParseState::Draining { remaining } => {
                    let take = (*remaining).min(input.len() - consumed);
                    *remaining -= take;
                    consumed += take;
                    // Stays in Draining even at zero: an oversize frame is
                    // terminal for the connection, nothing may follow it.
                    return (consumed, None);
                }
            }
        }
    }
}

/// Outbound bytes surviving partial writes: a flat buffer plus a cursor of
/// what the socket already took. Compacted once the cursor passes half the
/// buffer so a slow reader cannot make it grow without bound from dead
/// prefix bytes.
#[derive(Default)]
pub struct OutBuf {
    buf: Vec<u8>,
    sent: usize,
}

impl OutBuf {
    /// Queues `bytes` behind whatever is still unsent.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The bytes the socket has not taken yet.
    pub fn pending(&self) -> &[u8] {
        &self.buf[self.sent..]
    }

    /// Whether everything queued has been handed to the socket.
    pub fn is_empty(&self) -> bool {
        self.sent == self.buf.len()
    }

    /// Unsent byte count.
    pub fn len(&self) -> usize {
        self.buf.len() - self.sent
    }

    /// Marks `n` pending bytes as written, compacting when the dead prefix
    /// dominates the buffer.
    pub fn advance(&mut self, n: usize) {
        self.sent += n;
        debug_assert!(self.sent <= self.buf.len(), "advanced past the queued bytes");
        if self.sent == self.buf.len() {
            self.buf.clear();
            self.sent = 0;
        } else if self.sent > 4096 && self.sent * 2 > self.buf.len() {
            self.buf.drain(..self.sent);
            self.sent = 0;
        }
    }
}

/// Observability bookkeeping carried by a reply slot: when the request's
/// frame was assembled (for the always-on service-time histogram), its
/// trace span (when tracing is on), and whether it was a decode request
/// with a successful result.
pub struct ReplyMeta {
    /// When the request frame was fully assembled off the socket.
    pub received: Instant,
    /// The request's trace span (`None` when tracing is off or for
    /// non-decode frames).
    pub span: Option<SpanCtx>,
    /// Whether this slot answers a decode request (only those feed the
    /// service-time histogram).
    pub decode: bool,
    /// Whether the decode succeeded (set when the slot is filled).
    pub ok: bool,
}

impl ReplyMeta {
    /// Metadata for an inline, non-decode reply (PONG, STATS, errors).
    pub fn inline() -> Self {
        Self { received: Instant::now(), span: None, decode: false, ok: false }
    }

    /// Metadata for a decode request assembled at `received`.
    pub fn for_decode(received: Instant, span: Option<SpanCtx>) -> Self {
        Self { received, span, decode: true, ok: false }
    }
}

/// One pipelined reply slot: replies must leave in request order, but
/// decode workers finish in any order, so each request reserves a slot
/// that is later filled with its serialized reply frame.
pub struct ReplySlot {
    /// The request's sequence number on its connection.
    pub seq: u64,
    /// The serialized reply frame, once known.
    pub frame: Option<Vec<u8>>,
    /// Observability bookkeeping, released with the frame on flush.
    pub meta: ReplyMeta,
}

/// The ordered reply queue of one connection.
#[derive(Default)]
pub struct ReplyQueue {
    slots: VecDeque<ReplySlot>,
    next_seq: u64,
}

impl ReplyQueue {
    /// Reserves the next slot, returning its sequence number. Pass `frame`
    /// for replies known immediately (PONG, typed errors); `None` parks
    /// the slot until [`fill`](Self::fill).
    pub fn reserve(&mut self, frame: Option<Vec<u8>>, meta: ReplyMeta) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots.push_back(ReplySlot { seq, frame, meta });
        seq
    }

    /// Fills the slot `seq` with its reply frame, the span that rode
    /// through the gateway with it (now stamped `ReplyQueued`), and the
    /// decode's ok-ness. A miss is fine — the connection may have died and
    /// its slots been dropped.
    pub fn fill(&mut self, seq: u64, frame: Vec<u8>, mut span: Option<SpanCtx>, ok: bool) {
        if let Some(slot) = self.slots.iter_mut().find(|s| s.seq == seq) {
            debug_assert!(slot.frame.is_none(), "reply slot filled twice");
            if let Some(span) = &mut span {
                span.stamp(TraceStage::ReplyQueued);
            }
            slot.frame = Some(frame);
            slot.meta.span = span;
            slot.meta.ok = ok;
        }
    }

    /// Pops every leading filled slot into `out`, preserving order and
    /// appending each released slot's metadata to `released`. Stops at the
    /// first slot still waiting on its decode.
    pub fn flush_into(&mut self, out: &mut OutBuf, released: &mut Vec<ReplyMeta>) {
        while let Some(front) = self.slots.front() {
            if front.frame.is_none() {
                break;
            }
            let slot = self.slots.pop_front().expect("front exists");
            out.queue(&slot.frame.expect("front is filled"));
            released.push(slot.meta);
        }
    }

    /// Slots not yet flushed (filled or waiting).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no reply is pending or waiting.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(frame_type: u8, payload: &[u8]) -> Vec<u8> {
        protocol::frame_bytes(frame_type, payload)
    }

    /// Feeds `bytes` in two pieces split at `at`, returning every event.
    fn feed_split(asm: &mut FrameAssembler, bytes: &[u8], at: usize) -> Vec<FrameEvent> {
        let mut events = Vec::new();
        for chunk in [&bytes[..at], &bytes[at..]] {
            let mut rest = chunk;
            while !rest.is_empty() {
                let (n, event) = asm.push(rest);
                events.extend(event);
                if n == 0 {
                    break;
                }
                rest = &rest[n..];
            }
        }
        events
    }

    #[test]
    fn frame_split_at_every_byte_boundary_parses_identically() {
        let bytes = frame(0x01, b"hello framing");
        for at in 0..=bytes.len() {
            let mut asm = FrameAssembler::new(1024);
            let events = feed_split(&mut asm, &bytes, at);
            assert_eq!(
                events,
                vec![FrameEvent::Frame { frame_type: 0x01, payload: b"hello framing".to_vec() }],
                "split at byte {at}"
            );
        }
    }

    #[test]
    fn back_to_back_frames_in_one_chunk_all_surface() {
        let mut bytes = frame(0x03, &[1]);
        bytes.extend(frame(0x04, &[]));
        bytes.extend(frame(0x01, b"xyz"));
        let mut asm = FrameAssembler::new(1024);
        let events = feed_split(&mut asm, &bytes, 0);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0], FrameEvent::Frame { frame_type: 0x03, payload: vec![1] });
        assert_eq!(events[1], FrameEvent::Frame { frame_type: 0x04, payload: vec![] });
        assert_eq!(events[2], FrameEvent::Frame { frame_type: 0x01, payload: b"xyz".to_vec() });
    }

    #[test]
    fn single_byte_trickle_parses_a_zero_length_frame() {
        let bytes = frame(0x04, &[]);
        let mut asm = FrameAssembler::new(16);
        let mut events = Vec::new();
        for &b in &bytes {
            let (n, event) = asm.push(&[b]);
            assert_eq!(n, 1);
            events.extend(event);
        }
        assert_eq!(events, vec![FrameEvent::Frame { frame_type: 0x04, payload: vec![] }]);
    }

    #[test]
    fn oversize_header_reports_before_buffering_and_drains() {
        let mut asm = FrameAssembler::new(8);
        let bytes = frame(0x01, &[0u8; 20]);
        let (consumed, event) = asm.push(&bytes);
        assert_eq!(event, Some(FrameEvent::Oversize { announced: 20, limit: 8 }));
        assert_eq!(consumed, 5, "only the header is consumed by the limit check");
        assert!(asm.is_draining());
        assert!(!asm.drained());
        let (n, event) = asm.push(&bytes[consumed..]);
        assert_eq!((n, event), (20, None), "drain swallows the announced payload");
        assert!(asm.drained());
        // Nothing after an oversize frame is ever parsed.
        let (n, event) = asm.push(&frame(0x03, &[1]));
        assert_eq!((n, event), (0, None));
    }

    /// A blocking reader over pre-cut chunks: each `read` hands out at most
    /// the rest of one chunk, so `read_frame` sees the same fragmentation
    /// the assembler is pushed.
    struct Chunked<'a> {
        chunks: &'a [&'a [u8]],
        at: usize,
        /// Bytes handed out so far.
        position: usize,
    }

    impl std::io::Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            while self.chunks.first().is_some_and(|c| self.at == c.len()) {
                self.chunks = &self.chunks[1..];
                self.at = 0;
            }
            let Some(chunk) = self.chunks.first() else { return Ok(0) };
            let n = buf.len().min(chunk.len() - self.at);
            buf[..n].copy_from_slice(&chunk[self.at..self.at + n]);
            self.at += n;
            self.position += n;
            Ok(n)
        }
    }

    /// What either parser made of a stream: frames and oversize reports in
    /// order, each with the stream position it was reported at.
    #[derive(Debug, PartialEq)]
    enum Parsed {
        Frame(u8, Vec<u8>, usize),
        Oversize { announced: usize, limit: usize, at: usize },
    }

    #[test]
    fn assembler_and_blocking_reader_agree_on_arbitrarily_split_streams() {
        const LIMIT: usize = 48;
        let (mut oversized, mut truncated, mut clean) = (0, 0, 0);
        for case in 0..2_000u64 {
            let mut rng = crate::test_rng::Rng::new(0xF4A3_0000 + case);
            // A stream of valid frames, sometimes ended by an oversize
            // header (with some of its payload following), sometimes cut
            // short at an arbitrary byte.
            let mut stream = Vec::new();
            for _ in 0..rng.below(6) {
                let payload: Vec<u8> =
                    (0..rng.below(LIMIT + 1)).map(|_| rng.next() as u8).collect();
                stream.extend(frame(rng.next() as u8, &payload));
            }
            if rng.below(3) == 0 {
                let announced = LIMIT + 1 + rng.below(200);
                stream.push(rng.next() as u8);
                stream.extend_from_slice(&(announced as u32).to_le_bytes());
                stream.extend((0..rng.below(announced + 40)).map(|_| rng.next() as u8));
            }
            if rng.below(3) == 0 {
                stream.truncate(rng.below(stream.len() + 1));
            }
            let mut cuts: Vec<usize> =
                (0..rng.below(8)).map(|_| rng.below(stream.len() + 1)).collect();
            cuts.extend([0, stream.len()]);
            cuts.sort_unstable();
            let chunks: Vec<&[u8]> = cuts.windows(2).map(|w| &stream[w[0]..w[1]]).collect();

            // The blocking reader: frames until EOF, an oversize header or
            // a mid-frame end of stream.
            let mut reader = Chunked { chunks: &chunks, at: 0, position: 0 };
            let mut blocking = Vec::new();
            let clean_eof = loop {
                match protocol::read_frame(&mut reader, LIMIT) {
                    Ok(Some((ty, payload))) => {
                        blocking.push(Parsed::Frame(ty, payload, reader.position))
                    }
                    Ok(None) => break true,
                    Err(protocol::FrameReadError::Oversize { announced, limit }) => {
                        blocking.push(Parsed::Oversize { announced, limit, at: reader.position });
                        break false;
                    }
                    Err(protocol::FrameReadError::Io(e)) => {
                        assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "case {case}");
                        break false;
                    }
                }
            };

            // The assembler, pushed the same chunks.
            let mut asm = FrameAssembler::new(LIMIT);
            let mut incremental = Vec::new();
            let mut position = 0;
            for chunk in &chunks {
                let mut rest = *chunk;
                while !rest.is_empty() {
                    let (n, event) = asm.push(rest);
                    position += n;
                    rest = &rest[n..];
                    match event {
                        Some(FrameEvent::Frame { frame_type, payload }) => {
                            incremental.push(Parsed::Frame(frame_type, payload, position))
                        }
                        Some(FrameEvent::Oversize { announced, limit }) => {
                            incremental.push(Parsed::Oversize { announced, limit, at: position })
                        }
                        None if n == 0 => break,
                        None => {}
                    }
                }
            }
            assert_eq!(incremental, blocking, "case {case}: parsers disagree on {stream:?}");

            // Where input stops being consumed: the reader stops at the
            // oversize header; the assembler swallows the announced payload
            // behind it and not a byte more. Without one, both take it all.
            if let Some(Parsed::Oversize { announced, at, .. }) = blocking.last() {
                oversized += 1;
                assert_eq!(reader.position, *at, "case {case}");
                assert!(asm.is_draining(), "case {case}");
                assert_eq!(position, stream.len().min(at + announced), "case {case}");
                assert_eq!(asm.drained(), stream.len() >= at + announced, "case {case}");
            } else {
                assert_eq!((reader.position, position), (stream.len(), stream.len()), "{case}");
                let framed = blocking.last().map_or(0, |p| match p {
                    Parsed::Frame(_, _, at) | Parsed::Oversize { at, .. } => *at,
                });
                assert_eq!(clean_eof, framed == stream.len(), "case {case}: EOF between frames");
                if clean_eof {
                    clean += 1;
                } else {
                    truncated += 1;
                }
            }
        }
        assert!(oversized > 200 && truncated > 200 && clean > 200, "sweep too narrow");
    }

    #[test]
    fn outbuf_tracks_partial_writes() {
        let mut out = OutBuf::default();
        out.queue(b"abcdef");
        assert_eq!(out.pending(), b"abcdef");
        out.advance(2);
        assert_eq!(out.pending(), b"cdef");
        out.queue(b"gh");
        assert_eq!(out.pending(), b"cdefgh");
        out.advance(6);
        assert!(out.is_empty());
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn reply_queue_releases_in_request_order_only() {
        let mut q = ReplyQueue::default();
        let received = Instant::now();
        let a = q.reserve(None, ReplyMeta::for_decode(received, None));
        let b = q.reserve(None, ReplyMeta::for_decode(received, None));
        let c = q.reserve(Some(b"C".to_vec()), ReplyMeta::inline());
        assert_eq!((a, b, c), (0, 1, 2));
        let mut out = OutBuf::default();
        let mut released = Vec::new();
        // Out-of-order completion: c is ready, b completes before a.
        q.fill(b, b"B".to_vec(), None, true);
        q.flush_into(&mut out, &mut released);
        assert!(out.is_empty(), "head reply still pending, nothing may leave");
        assert!(released.is_empty());
        q.fill(a, b"A".to_vec(), None, false);
        q.flush_into(&mut out, &mut released);
        assert_eq!(out.pending(), b"ABC", "replies leave strictly in request order");
        assert!(q.is_empty());
        // The released metadata tracks the flushed slots, in order.
        assert_eq!(released.len(), 3);
        assert_eq!(
            released.iter().map(|m| (m.decode, m.ok)).collect::<Vec<_>>(),
            vec![(true, false), (true, true), (false, false)],
        );
        // Filling a dropped/unknown slot is a no-op, not a panic.
        q.fill(99, b"zombie".to_vec(), None, true);
        assert!(q.is_empty());
    }
}
