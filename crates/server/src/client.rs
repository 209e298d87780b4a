//! Blocking client for the `easz` decode protocol — the edge side of the
//! wire, or any consumer that wants decoded frames back from a server.

use crate::metrics::ServerStats;
use crate::protocol::{self, EngineTier, ErrorCode, WireError};
use crate::trace::TraceReport;
use easz_image::ImageU8;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Capped exponential backoff with seeded jitter — the client half of the
/// server's failure model (`BUSY` is an explicit "retry later, with
/// backoff").
///
/// The policy drives two retry sites, both idempotent by construction:
/// connect attempts ([`EaszClient::connect_with`]) and single-container
/// decode requests answered with `BUSY` or a dead socket
/// ([`EaszClient::decode`] / [`EaszClient::decode_tiered`] on a client
/// built [`with_retry`](EaszClient::with_retry)). Batch requests are never
/// retried automatically: a batch interrupted mid-reply has delivered
/// partial results the caller may have acted on.
///
/// Delays are a pure function of `(policy, attempt)` — the jitter comes
/// from a seeded xorshift, not the clock — so tests replay schedules
/// exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (`0` = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each retry after that.
    pub base_delay: Duration,
    /// Ceiling on any single backoff delay (pre-jitter).
    pub max_delay: Duration,
    /// Seed for the jitter stream: each delay is scaled into
    /// `[50%, 100%]` of its exponential value by a deterministic draw.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The no-retry policy: every failure is final. This is what
    /// [`EaszClient::connect`] and [`EaszClient::from_stream`] start with,
    /// keeping the fail-fast behaviour unless a policy is opted into.
    pub fn none() -> Self {
        Self { max_retries: 0, ..Self::default() }
    }

    /// The backoff before retry `attempt` (0-based): `base_delay * 2^n`
    /// capped at `max_delay`, then jittered into `[50%, 100%]` by a draw
    /// seeded from `(jitter_seed, attempt)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt.min(31)).unwrap_or(u32::MAX))
            .min(self.max_delay);
        let capped_us = exp.as_micros().min(u64::MAX as u128) as u64;
        // Split-mix then xorshift, as everywhere else in this workspace.
        let mut x = self
            .jitter_seed
            .wrapping_add(u64::from(attempt) + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x0123_4567_89AB_CDEF)
            | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let half = capped_us / 2;
        Duration::from_micros(half + x % (capped_us - half + 1))
    }
}

/// Writes one frame, surviving the partial-progress failure modes a
/// backpressured or nonblocking-reactor peer exposes: short writes keep
/// going from where they left off, `Interrupted` (EINTR) retries
/// immediately, and `WouldBlock`/`TimedOut` — a socket send timeout firing
/// mid-frame while the server's reply buffer backs up — retries after a
/// short yield instead of abandoning the stream mid-frame (which would
/// desynchronise the framing for every later request).
///
/// `std::io::Write::write_all` already covers short writes and EINTR, but
/// treats `WouldBlock`/`TimedOut` as fatal — and a frame abandoned halfway
/// is unrecoverable for a length-prefixed protocol.
fn write_frame_resilient(w: &mut impl Write, frame_type: u8, payload: &[u8]) -> io::Result<()> {
    let frame = protocol::frame_bytes(frame_type, payload);
    let mut sent = 0;
    while sent < frame.len() {
        match w.write(&frame[sent..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "peer stopped accepting frame bytes",
                ))
            }
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                // The peer is applying backpressure; pause briefly and
                // resume from the same offset.
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
    loop {
        match w.flush() {
            Ok(()) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Failure of a client call.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (including the server closing mid-reply).
    Io(io::Error),
    /// The server answered the *whole request* with a typed error frame.
    /// Per-container errors inside a batch are returned inline instead.
    Remote(WireError),
    /// The server sent a reply this client cannot interpret.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport: {e}"),
            Self::Remote(e) => write!(f, "server error: {e}"),
            Self::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Remote(e) => Some(e),
            Self::Protocol(_) => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<protocol::FrameReadError> for ClientError {
    fn from(e: protocol::FrameReadError) -> Self {
        match e {
            protocol::FrameReadError::Io(e) => Self::Io(e),
            oversize @ protocol::FrameReadError::Oversize { .. } => {
                Self::Protocol(oversize.to_string())
            }
        }
    }
}

/// A blocking connection to an [`EaszServer`](crate::EaszServer).
///
/// One request is in flight at a time; replies arrive in request order, so
/// the client never needs correlation ids.
#[derive(Debug)]
pub struct EaszClient {
    stream: TcpStream,
    max_reply_len: usize,
    /// Set from the moment a request is written until its replies are read
    /// to the end. Still set after a call means the reply stream may be out
    /// of step — a read timed out or failed partway, a reply did not parse,
    /// or an over-limit payload was never consumed — and the next request
    /// would be answered with an earlier one's leftovers, so the client
    /// refuses instead.
    poisoned: bool,
    /// Backoff applied to `BUSY` replies and dead-socket resends on
    /// idempotent requests; [`RetryPolicy::none`] unless opted into.
    retry: RetryPolicy,
    /// The peer we connected to, kept so a retry can re-dial after the
    /// server dropped the connection (e.g. an admission-control `BUSY`
    /// that closes, or a crashed-and-restarted server).
    addr: Option<SocketAddr>,
}

impl EaszClient {
    /// Connects to a decode server. Fails fast; see
    /// [`connect_with`](Self::connect_with) for retrying connects.
    ///
    /// # Errors
    ///
    /// Propagates connection failures. Switching Nagle's algorithm off on
    /// the new socket (see [`from_stream`](Self::from_stream)) is part of
    /// connecting: a socket that refuses the option is a connection
    /// failure like any other.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(Self::new(Self::dial(addr)?))
    }

    /// Connects with retry: connection failures back off per `policy`
    /// until an attempt succeeds or the retry budget is spent. The
    /// returned client keeps the policy, so `BUSY` replies and dead
    /// sockets on idempotent requests retry with the same backoff.
    ///
    /// # Errors
    ///
    /// The final attempt's connection failure once `policy.max_retries`
    /// retries are exhausted.
    pub fn connect_with(addr: impl ToSocketAddrs, policy: RetryPolicy) -> io::Result<Self> {
        let mut attempt = 0;
        let stream = loop {
            match Self::dial(&addr) {
                Ok(stream) => break stream,
                Err(e) => {
                    if attempt >= policy.max_retries {
                        return Err(e);
                    }
                    std::thread::sleep(policy.delay(attempt));
                    attempt += 1;
                }
            }
        };
        Ok(Self::new(stream).with_retry(policy))
    }

    /// Wraps an already-connected stream (e.g. for tests driving both
    /// halves over a loopback pair), switching Nagle's algorithm off on
    /// it: every request leaves as one whole-frame write, so there is
    /// nothing for the kernel to coalesce, and a request written behind an
    /// unacknowledged one must not wait out the server's delayed ACK.
    /// There is deliberately no way to opt out. With no error to return,
    /// the switch is best effort here, as it is on the server's accepted
    /// sockets: a stream that refuses the option is wrapped anyway and
    /// only pays latency.
    pub fn from_stream(stream: TcpStream) -> Self {
        let _ = protocol::prepare_stream(&stream);
        Self::new(stream)
    }

    /// Opens a connection of this client's own: connect, then the socket
    /// setup every Easz stream gets. First connects and re-dials share it,
    /// so a re-dialed socket behaves like the one it replaces.
    fn dial(addr: impl ToSocketAddrs) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        protocol::prepare_stream(&stream)?;
        Ok(stream)
    }

    fn new(stream: TcpStream) -> Self {
        let addr = stream.peer_addr().ok();
        Self { stream, max_reply_len: 256 << 20, poisoned: false, retry: RetryPolicy::none(), addr }
    }

    /// Sets the retry policy for subsequent idempotent requests
    /// ([`decode`](Self::decode) and [`decode_tiered`](Self::decode_tiered)):
    /// `BUSY` replies and dead-socket transport failures are retried with
    /// the policy's backoff, re-dialing the peer when the connection died.
    /// Batch requests never retry automatically (partial replies may
    /// already have been delivered).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Caps the reply payload size this client will accept. The default of
    /// 256 MiB clears the largest reply a conforming server can send: the
    /// container bounds canvases to `easz_codecs::MAX_PIXELS` (2^26), so an
    /// `IMAGE` payload is at most `3 * 2^26 + 9` bytes ≈ 201 MiB.
    pub fn with_max_reply_len(mut self, max_reply_len: usize) -> Self {
        self.max_reply_len = max_reply_len;
        self
    }

    /// Round-trips a `PING`, returning the server's protocol version.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures; see [`ClientError`].
    pub fn ping(&mut self) -> Result<u8, ClientError> {
        self.round(protocol::PING, &[protocol::PROTOCOL_VERSION], |client| {
            let (frame_type, payload) = client.read_reply()?;
            match frame_type {
                protocol::PONG if payload.len() == 1 => Ok(payload[0]),
                protocol::PONG => {
                    Err(ClientError::Protocol(format!("pong payload of {} bytes", payload.len())))
                }
                other => Err(Self::unexpected(other, &payload)),
            }
        })
    }

    /// Round-trips a `STATS` request, returning the server's metrics
    /// snapshot (counters since server start; see
    /// [`ServerStats`]).
    ///
    /// # Errors
    ///
    /// Transport and protocol failures; see [`ClientError`].
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        self.round(protocol::STATS, &[], |client| {
            let (frame_type, payload) = client.read_reply()?;
            match frame_type {
                protocol::STATS_REPLY => {
                    ServerStats::from_payload(&payload).map_err(ClientError::Protocol)
                }
                other => Err(Self::unexpected(other, &payload)),
            }
        })
    }

    /// Round-trips a `TRACE` request, draining the server's recent trace
    /// spans, slow-request log and decode-stage accumulators (see
    /// [`TraceReport`]). A server running with tracing disabled answers
    /// with a valid empty report, so callers need no capability probe.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures; see [`ClientError`].
    pub fn trace(&mut self) -> Result<TraceReport, ClientError> {
        self.round(protocol::TRACE, &[], |client| {
            let (frame_type, payload) = client.read_reply()?;
            match frame_type {
                protocol::TRACE_REPLY => {
                    TraceReport::from_payload(&payload).map_err(ClientError::Protocol)
                }
                other => Err(Self::unexpected(other, &payload)),
            }
        })
    }

    /// Sends one serialized `.easz` container and returns the decoded
    /// image.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] carrying the server's typed error frame for
    /// undecodable containers, otherwise transport/protocol failures.
    /// Under a [`with_retry`](Self::with_retry) policy, `BUSY` replies and
    /// dead-socket failures are retried with backoff first.
    pub fn decode(&mut self, container: &[u8]) -> Result<ImageU8, ClientError> {
        self.image_request_with_retry(protocol::DECODE, container)
    }

    /// As [`decode`](Self::decode), but names the engine tier explicitly
    /// (`DECODE_TIERED`), overriding the container's standing preference:
    /// [`EngineTier::QuantizedInt8`] requests the fast ε/PSNR-bounded
    /// decode, [`EngineTier::Reference`] forces the bit-exact f32 one.
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode); additionally, a server predating the
    /// tiered frames answers with `UNKNOWN_FRAME` and closes.
    pub fn decode_tiered(
        &mut self,
        container: &[u8],
        tier: EngineTier,
    ) -> Result<ImageU8, ClientError> {
        let mut payload = Vec::with_capacity(1 + container.len());
        payload.push(tier.wire_byte());
        payload.extend_from_slice(container);
        self.image_request_with_retry(protocol::DECODE_TIERED, &payload)
    }

    /// One request/reply round expecting an `IMAGE` back, wrapped in the
    /// client's [`RetryPolicy`]: `BUSY` replies back off and resend, dead
    /// sockets re-dial the remembered peer address and resend. Safe only
    /// because a single-container decode is idempotent — the server holds
    /// no state for it and the reply is a pure function of the payload.
    fn image_request_with_retry(
        &mut self,
        frame: u8,
        payload: &[u8],
    ) -> Result<ImageU8, ClientError> {
        let mut result = self.image_request_once(frame, payload);
        let mut attempt = 0;
        while attempt < self.retry.max_retries {
            match &result {
                Err(e) if Self::retryable(e) => {}
                _ => break,
            }
            std::thread::sleep(self.retry.delay(attempt));
            attempt += 1;
            // A dead socket is re-dialed before the resend; a re-dial that
            // fails is this attempt's outcome, so the budget keeps running.
            let redial =
                if matches!(result, Err(ClientError::Io(_))) { self.reconnect() } else { Ok(()) };
            result = match redial {
                Ok(()) => self.image_request_once(frame, payload),
                Err(e) => Err(e.into()),
            };
        }
        result
    }

    fn image_request_once(&mut self, frame: u8, payload: &[u8]) -> Result<ImageU8, ClientError> {
        self.round(frame, payload, |client| {
            let (frame_type, payload) = client.read_reply()?;
            match frame_type {
                protocol::IMAGE => protocol::decode_image(&payload).map_err(ClientError::Protocol),
                other => Err(Self::unexpected(other, &payload)),
            }
        })
    }

    /// One request/reply round: refuses up front on a poisoned connection,
    /// writes the request, and lets `read` consume every reply it is owed.
    /// The client stays poisoned unless `read` got through its replies —
    /// with a result, or with a typed error frame from the server. A
    /// transport failure or an unparseable reply may have left replies
    /// unread, and they would answer the next request.
    fn round<T>(
        &mut self,
        frame: u8,
        payload: &[u8],
        read: impl FnOnce(&mut Self) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        self.ensure_usable()?;
        self.poisoned = true;
        write_frame_resilient(&mut self.stream, frame, payload)?;
        let result = read(self);
        if matches!(result, Ok(_) | Err(ClientError::Remote(_))) {
            self.poisoned = false;
        }
        result
    }

    /// The failures the server's failure model declares retryable: an
    /// explicit `BUSY` shed, or transport errors that mean the connection
    /// died cleanly between requests (so the request provably never
    /// produced a reply this client consumed).
    fn retryable(e: &ClientError) -> bool {
        match e {
            ClientError::Remote(err) => err.code == ErrorCode::Busy,
            ClientError::Io(io) => matches!(
                io.kind(),
                io::ErrorKind::BrokenPipe
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::UnexpectedEof
            ),
            ClientError::Protocol(_) => false,
        }
    }

    /// Re-dials the peer recorded at connect time, replacing the dead
    /// stream and clearing the poison flag (the new connection's framing
    /// starts clean).
    fn reconnect(&mut self) -> io::Result<()> {
        let addr = self.addr.ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotConnected, "peer address unknown; cannot re-dial")
        })?;
        self.stream = Self::dial(addr)?;
        self.poisoned = false;
        Ok(())
    }

    /// Sends a batch of serialized containers in one frame and collects one
    /// result per container, in order. Server-side, containers sharing a
    /// mask share a single transformer forward — this is the cheap way to
    /// decode many streams.
    ///
    /// # Errors
    ///
    /// The outer `Result` fails only for whole-request problems (transport,
    /// an over-limit batch, protocol violations); per-container decode
    /// failures come back inline as [`WireError`]s.
    pub fn decode_batch(
        &mut self,
        containers: &[&[u8]],
    ) -> Result<Vec<Result<ImageU8, WireError>>, ClientError> {
        self.decode_batch_frame(protocol::DECODE_BATCH, None, containers)
    }

    /// As [`decode_batch`](Self::decode_batch), but decodes every container
    /// in the batch on the named engine tier (`DECODE_BATCH_TIERED`),
    /// overriding each container's standing preference.
    ///
    /// # Errors
    ///
    /// As [`decode_batch`](Self::decode_batch); additionally, a server
    /// predating the tiered frames answers with `UNKNOWN_FRAME` and closes.
    pub fn decode_batch_tiered(
        &mut self,
        containers: &[&[u8]],
        tier: EngineTier,
    ) -> Result<Vec<Result<ImageU8, WireError>>, ClientError> {
        self.decode_batch_frame(protocol::DECODE_BATCH_TIERED, Some(tier), containers)
    }

    fn decode_batch_frame(
        &mut self,
        frame: u8,
        tier: Option<EngineTier>,
        containers: &[&[u8]],
    ) -> Result<Vec<Result<ImageU8, WireError>>, ClientError> {
        let batch = protocol::encode_batch(containers);
        let payload = match tier {
            None => batch,
            Some(tier) => {
                let mut tiered = Vec::with_capacity(1 + batch.len());
                tiered.push(tier.wire_byte());
                tiered.extend_from_slice(&batch);
                tiered
            }
        };
        self.round(frame, &payload, |client| {
            let mut results = Vec::with_capacity(containers.len());
            while results.len() < containers.len() {
                let (frame_type, payload) = client.read_reply()?;
                match frame_type {
                    protocol::IMAGE => {
                        // An unparseable image is a protocol bug, not a remote
                        // decode failure; abort the whole call.
                        let img =
                            protocol::decode_image(&payload).map_err(ClientError::Protocol)?;
                        results.push(Ok(img));
                    }
                    protocol::ERROR => {
                        let err =
                            WireError::from_payload(&payload).map_err(ClientError::Protocol)?;
                        // Per-container codes occupy a reply position: the
                        // container class (1..=15), UNKNOWN_MODEL (36), a shed
                        // slot (BUSY, 35), and the robustness pair INTERNAL
                        // (37) / DEADLINE_EXCEEDED (38). Only envelope
                        // failures — PROTOCOL, OVERSIZE, UNKNOWN_FRAME — abort
                        // the whole call with a single frame.
                        if matches!(
                            err.code,
                            ErrorCode::Protocol | ErrorCode::Oversize | ErrorCode::UnknownFrame
                        ) {
                            return Err(ClientError::Remote(err));
                        }
                        results.push(Err(err));
                    }
                    other => return Err(Self::unexpected(other, &payload)),
                }
            }
            Ok(results)
        })
    }

    /// Fails fast once the connection is poisoned (checked before every
    /// request so not even the request frame is written).
    fn ensure_usable(&self) -> Result<(), ClientError> {
        if self.poisoned {
            return Err(ClientError::Protocol(
                "connection poisoned: an earlier request's replies were not all read \
                 (timeout, transport failure, over-limit or unparseable reply); reconnect"
                    .into(),
            ));
        }
        Ok(())
    }

    fn read_reply(&mut self) -> Result<(u8, Vec<u8>), ClientError> {
        match protocol::read_frame(&mut self.stream, self.max_reply_len) {
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            ))),
            Err(oversize @ protocol::FrameReadError::Oversize { .. }) => {
                // The announced payload was not consumed, so the stream can
                // never be re-synchronised: poison this client (mirroring
                // the server, which closes on its framing violations).
                self.poisoned = true;
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
                Err(ClientError::Protocol(oversize.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Folds a reply that does not match the request into the right error:
    /// error frames become [`ClientError::Remote`], anything else is a
    /// protocol violation.
    fn unexpected(frame_type: u8, payload: &[u8]) -> ClientError {
        if frame_type == protocol::ERROR {
            match WireError::from_payload(payload) {
                Ok(err) => ClientError::Remote(err),
                Err(m) => ClientError::Protocol(m),
            }
        } else {
            ClientError::Protocol(format!("unexpected reply frame 0x{frame_type:02x}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that takes one byte at a time and fails with a scripted
    /// error before each accepted byte — the worst-case flaky peer.
    struct FlakyWriter {
        written: Vec<u8>,
        /// One entry per upcoming `write` call: `Some(kind)` fails, `None`
        /// accepts a single byte. Exhausted script = accept.
        script: Vec<Option<io::ErrorKind>>,
        flushes: usize,
    }

    impl Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match if self.script.is_empty() { None } else { Some(self.script.remove(0)) } {
                Some(Some(kind)) => Err(io::Error::new(kind, "scripted failure")),
                _ => {
                    self.written.push(buf[0]);
                    Ok(1)
                }
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn resilient_writer_survives_eintr_and_wouldblock_mid_frame() {
        use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
        let mut w = FlakyWriter {
            written: Vec::new(),
            // Interrupt before the header, stall twice inside the payload,
            // time out once near the end: every byte must still land, in
            // order, exactly once.
            script: vec![
                Some(Interrupted),
                None,
                None,
                Some(WouldBlock),
                None,
                None,
                None,
                Some(WouldBlock),
                Some(TimedOut),
                None,
            ],
            flushes: 0,
        };
        write_frame_resilient(&mut w, protocol::DECODE, b"abcdef").expect("resilient write");
        assert_eq!(w.written, protocol::frame_bytes(protocol::DECODE, b"abcdef"));
        assert_eq!(w.flushes, 1);
    }

    #[test]
    fn resilient_writer_reports_write_zero_and_real_errors() {
        struct Zero;
        impl Write for Zero {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = write_frame_resilient(&mut Zero, protocol::PING, &[1]).expect_err("write zero");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);

        let mut broken = FlakyWriter {
            written: Vec::new(),
            script: vec![None, Some(io::ErrorKind::BrokenPipe)],
            flushes: 0,
        };
        let err =
            write_frame_resilient(&mut broken, protocol::PING, &[1]).expect_err("broken pipe");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn retry_policy_delays_are_deterministic_capped_and_jittered() {
        let policy = RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
            jitter_seed: 42,
        };
        // Deterministic: the same (policy, attempt) always yields the same
        // delay, and a different seed yields a different schedule.
        let schedule: Vec<Duration> = (0..8).map(|n| policy.delay(n)).collect();
        assert_eq!(schedule, (0..8).map(|n| policy.delay(n)).collect::<Vec<_>>());
        let reseeded = RetryPolicy { jitter_seed: 43, ..policy.clone() };
        assert_ne!(schedule, (0..8).map(|n| reseeded.delay(n)).collect::<Vec<_>>());
        // Jitter bounds: each delay lands in [50%, 100%] of the capped
        // exponential value.
        for (n, d) in schedule.iter().enumerate() {
            let exp =
                (Duration::from_millis(10) * (1 << n.min(3)) as u32).min(Duration::from_millis(80));
            assert!(
                *d >= exp / 2 && *d <= exp,
                "attempt {n}: {d:?} outside [{:?}, {exp:?}]",
                exp / 2
            );
        }
        // Huge attempt numbers must not overflow, and stay within the cap.
        assert!(policy.delay(u32::MAX) <= Duration::from_millis(80));
    }

    /// A scripted peer: binds a listener and runs `serve` on a thread,
    /// returning the address and the join handle.
    fn scripted_server(
        serve: impl FnOnce(std::net::TcpListener) + Send + 'static,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        (addr, std::thread::spawn(move || serve(listener)))
    }

    fn tiny_image_payload() -> (ImageU8, Vec<u8>) {
        let img = ImageU8::from_vec(2, 1, easz_image::Channels::Gray, vec![7, 250]);
        let payload = protocol::encode_image(&img);
        (img, payload)
    }

    #[test]
    fn busy_replies_are_retried_with_backoff_until_the_shed_clears() {
        let (img, image_payload) = tiny_image_payload();
        let (addr, server) = scripted_server(move |listener| {
            let (mut conn, _) = listener.accept().expect("accept");
            // Shed the first two sends, then serve the third.
            for _ in 0..2 {
                let (frame, _) =
                    protocol::read_frame(&mut conn, 1 << 20).expect("read").expect("open");
                assert_eq!(frame, protocol::DECODE);
                let busy = WireError { code: ErrorCode::Busy, message: "shed".into() };
                protocol::write_frame(&mut conn, protocol::ERROR, &busy.to_payload())
                    .expect("busy frame");
            }
            let (frame, _) = protocol::read_frame(&mut conn, 1 << 20).expect("read").expect("open");
            assert_eq!(frame, protocol::DECODE);
            protocol::write_frame(&mut conn, protocol::IMAGE, &image_payload).expect("image frame");
        });
        let policy = RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            jitter_seed: 7,
        };
        let mut client = EaszClient::connect_with(addr, policy).expect("connect");
        let restored = client.decode(b"container-bytes").expect("decode after retries");
        assert_eq!(restored, img);
        server.join().expect("server thread");
    }

    #[test]
    fn busy_replies_without_a_policy_fail_fast() {
        let (addr, server) = scripted_server(|listener| {
            let (mut conn, _) = listener.accept().expect("accept");
            let _ = protocol::read_frame(&mut conn, 1 << 20).expect("read").expect("open");
            let busy = WireError { code: ErrorCode::Busy, message: "shed".into() };
            protocol::write_frame(&mut conn, protocol::ERROR, &busy.to_payload())
                .expect("busy frame");
        });
        let mut client = EaszClient::connect(addr).expect("connect");
        match client.decode(b"container-bytes") {
            Err(ClientError::Remote(err)) => assert_eq!(err.code, ErrorCode::Busy),
            other => panic!("expected fail-fast BUSY, got {other:?}"),
        }
        server.join().expect("server thread");
    }

    #[test]
    fn a_reply_that_arrives_after_the_read_timeout_never_answers_the_next_request() {
        let (_, late_payload) = tiny_image_payload();
        let (addr, server) = scripted_server(move |listener| {
            let (mut conn, _) = listener.accept().expect("accept");
            let _ = protocol::read_frame(&mut conn, 1 << 20).expect("read").expect("open");
            // Answer the first request only after the client gave up on it.
            std::thread::sleep(Duration::from_millis(300));
            protocol::write_frame(&mut conn, protocol::IMAGE, &late_payload).expect("late image");
            // Hold the connection until the client sends again or hangs up.
            let _ = protocol::read_frame(&mut conn, 1 << 20);
        });
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_millis(100))).expect("read timeout");
        let mut client = EaszClient::from_stream(stream);
        match client.decode(b"first") {
            Err(ClientError::Io(e)) => {
                assert!(matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut))
            }
            other => panic!("expected the read to time out, got {other:?}"),
        }
        // Let the late reply land in the socket buffer.
        std::thread::sleep(Duration::from_millis(400));
        match client.decode(b"second") {
            Err(ClientError::Protocol(message)) => assert!(message.contains("reconnect")),
            other => panic!("the first request's late reply answered the second: {other:?}"),
        }
        drop(client);
        server.join().expect("server thread");
    }

    #[test]
    fn dead_socket_resend_re_dials_the_peer() {
        let (img, image_payload) = tiny_image_payload();
        let (addr, server) = scripted_server(move |listener| {
            // First connection: take the request, close without replying —
            // the crashed-server case.
            let (mut conn, _) = listener.accept().expect("accept 1");
            let _ = protocol::read_frame(&mut conn, 1 << 20).expect("read").expect("open");
            drop(conn);
            // Second connection: the re-dialed client resends; serve it.
            let (mut conn, _) = listener.accept().expect("accept 2");
            let (frame, _) = protocol::read_frame(&mut conn, 1 << 20).expect("read").expect("open");
            assert_eq!(frame, protocol::DECODE);
            protocol::write_frame(&mut conn, protocol::IMAGE, &image_payload).expect("image frame");
        });
        let policy = RetryPolicy {
            max_retries: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            jitter_seed: 11,
        };
        let mut client = EaszClient::connect_with(addr, policy).expect("connect");
        let first_dial = client.stream.local_addr().expect("local addr");
        let restored = client.decode(b"container-bytes").expect("decode after re-dial");
        assert_eq!(restored, img);
        assert_ne!(client.stream.local_addr().expect("local addr"), first_dial, "a new socket");
        assert!(client.stream.nodelay().expect("nodelay"), "socket setup survives the re-dial");
        server.join().expect("server thread");
    }

    #[test]
    fn every_way_to_a_stream_turns_nagle_off() {
        let (done, wait) = std::sync::mpsc::channel::<()>();
        let (addr, server) = scripted_server(move |listener| {
            // Hold all four connections open until the client has looked.
            let _conns: Vec<_> = (0..4).map(|_| listener.accept().expect("accept")).collect();
            let _ = wait.recv();
        });
        let raw = TcpStream::connect(addr).expect("raw connect");
        assert!(!raw.nodelay().expect("nodelay"), "the OS default leaves Nagle on");
        let wrapped = EaszClient::from_stream(raw);
        assert!(wrapped.stream.nodelay().expect("nodelay"));
        let connected = EaszClient::connect(addr).expect("connect");
        assert!(connected.stream.nodelay().expect("nodelay"));
        let mut retrying =
            EaszClient::connect_with(addr, RetryPolicy::default()).expect("connect_with");
        assert!(retrying.stream.nodelay().expect("nodelay"));
        let first_dial = retrying.stream.local_addr().expect("local addr");
        retrying.reconnect().expect("re-dial");
        assert_ne!(retrying.stream.local_addr().expect("local addr"), first_dial, "a new socket");
        assert!(retrying.stream.nodelay().expect("nodelay"));
        drop(done);
        server.join().expect("server thread");
    }

    #[test]
    fn connect_with_retries_until_the_listener_appears() {
        // Reserve a port, free it, and only re-bind after the client has
        // started retrying against the closed port.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve");
        let addr = listener.local_addr().expect("local addr");
        drop(listener);
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            let listener = std::net::TcpListener::bind(addr).expect("re-bind");
            let _conn = listener.accept().expect("accept");
        });
        let policy = RetryPolicy {
            max_retries: 200,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(20),
            jitter_seed: 3,
        };
        let client = EaszClient::connect_with(addr, policy).expect("connect with retry");
        assert!(client.addr.is_some());
        server.join().expect("server thread");
    }
}
