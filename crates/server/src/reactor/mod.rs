//! The event-driven reactor front end: one thread, an epoll instance, and
//! nonblocking sockets, absorbing thousands of connections that the
//! thread-per-connection path would pay a stack and a scheduler slot each
//! for.
//!
//! Architecture (see the crate docs for the narrative version):
//!
//! - **Readiness loop** — [`run`] owns the listener, a [`sys::Epoll`]
//!   instance and every connection. Level-triggered readiness: each event
//!   drains its fd until `WouldBlock`, bounded per event for loop fairness.
//! - **Framing** — each connection owns a [`conn::FrameAssembler`] (the
//!   incremental twin of `protocol::read_frame`), an outbound
//!   [`conn::OutBuf`] surviving partial writes, and a [`conn::ReplyQueue`]
//!   keeping pipelined replies in request order while decode workers
//!   complete in any order.
//! - **Protocol** — what a complete frame asks for is decided by the
//!   transport-free [`Dispatch`](crate::dispatch::Dispatch) core the
//!   threaded front end drives too; this module only moves bytes and
//!   applies the reactor's own admission limit.
//! - **Decode hand-off** — the members of `DECODE`-family frames are
//!   submitted to the shared gateway [`Batcher`](crate::batcher::Batcher)
//!   with the connection id as the fairness source; the reply closure
//!   serializes the `IMAGE`/`ERROR` frame on the worker thread and posts
//!   it to a completion queue, waking the loop through a socketpair waker.
//!   The loop itself never decodes.
//! - **Backpressure** — a connection with too many decodes in flight or
//!   too many unflushed reply bytes stops being read (its `EPOLLIN`
//!   interest is dropped) until it drains; the kernel's receive buffer
//!   then throttles the peer.
//! - **Admission & shedding** — accepts beyond
//!   [`ReactorConfig::max_connections`] are answered with a best-effort
//!   `BUSY` error frame and closed; well-framed decode requests that the
//!   gateway refuses (full queue) get the shared positional `BUSY` reply,
//!   exactly as on the threaded front end.
//! - **Shutdown** — mirrors the threaded path's invariant: the gateway is
//!   flushed, every parked job's reply is written out (bounded by
//!   [`ReactorConfig::drain_grace`]), then sockets close.

#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
mod conn;
#[cfg(target_os = "linux")]
mod sys;

use std::time::Duration;

/// Tunables of the reactor front end (see
/// [`EaszServer::with_reactor`](crate::EaszServer::with_reactor)).
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Connections served concurrently before accepts are refused with a
    /// `BUSY` error frame. Also sets the listener's accept backlog (capped
    /// by the kernel's `net.core.somaxconn`), so a connect burst queues in
    /// the kernel instead of dropping SYNs while the loop is busy.
    pub max_connections: usize,
    /// Decode requests one connection may have in flight before the
    /// reactor stops reading from it (resumed as replies flush).
    pub max_inflight: usize,
    /// Unflushed outbound bytes one connection may accumulate before the
    /// reactor stops reading from it (a slow reader cannot balloon server
    /// memory past roughly this per connection).
    pub write_buffer_cap: usize,
    /// How long shutdown keeps flushing already-accepted work to slow
    /// readers before force-closing.
    pub drain_grace: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            max_connections: 4096,
            max_inflight: 32,
            write_buffer_cap: 8 << 20,
            drain_grace: Duration::from_secs(5),
        }
    }
}

#[cfg(target_os = "linux")]
pub(crate) use linux::run;

#[cfg(not(target_os = "linux"))]
pub(crate) fn run(
    _listener: std::net::TcpListener,
    _shutdown: &std::sync::atomic::AtomicBool,
    _config: &crate::server::ServerConfig,
    _reactor: &ReactorConfig,
    _metrics: &std::sync::Arc<crate::metrics::ServerMetrics>,
    _batcher: &crate::batcher::Batcher,
    _dispatch: crate::dispatch::Dispatch<'_>,
) -> std::io::Result<()> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the reactor front end requires Linux epoll; use the threaded path",
    ))
}

#[cfg(target_os = "linux")]
mod linux {
    use super::conn::{FrameAssembler, FrameEvent, OutBuf, ReplyMeta, ReplyQueue};
    use super::sys::{Epoll, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
    use super::ReactorConfig;
    use crate::batcher::Batcher;
    use crate::dispatch::{error_frame, reply_frame, Action, Dispatch, Member};
    use crate::metrics::ServerMetrics;
    use crate::protocol::ErrorCode;
    use crate::server::ServerConfig;
    use crate::trace::{SpanCtx, TraceStage};
    use std::collections::HashMap;
    use std::io::{self, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    const TOKEN_LISTENER: u64 = 0;
    const TOKEN_WAKER: u64 = 1;
    const FIRST_CONN_TOKEN: u64 = 2;

    /// Bytes read from one connection per readiness event before yielding
    /// to the next — a flooding peer cannot monopolise the loop.
    const READ_BUDGET: usize = 256 * 1024;

    /// The loop's base tick: shutdown flags, idle sweeps and drain
    /// deadlines are all observed within this latency even without events.
    const TICK: Duration = Duration::from_millis(250);

    /// How long a connection that triggered an oversize frame is kept open
    /// to swallow the announced payload, so closing does not RST the error
    /// reply out from under the peer (the threaded path's `drain_bounded`).
    const OVERSIZE_LINGER: Duration = Duration::from_secs(2);

    /// One decode completion crossing from a worker thread to the loop:
    /// `(connection id, reply slot, serialized reply frame, trace span,
    /// ok)` — the span (if sampled) and outcome ride along so the reply
    /// slot can account them at write time.
    type Completion = (u64, u64, Vec<u8>, Option<SpanCtx>, bool);

    /// Decode completions posted by worker threads, drained by the loop.
    struct Completions {
        posted: Mutex<Vec<Completion>>,
        /// Write half of the waker socketpair; one byte per post batch
        /// (best-effort — a full pipe already guarantees a pending wake).
        waker: UnixStream,
    }

    impl Completions {
        fn post(&self, conn_id: u64, seq: u64, frame: Vec<u8>, span: Option<SpanCtx>, ok: bool) {
            let was_empty = {
                let mut posted = self.posted.lock().unwrap_or_else(|e| e.into_inner());
                let was_empty = posted.is_empty();
                posted.push((conn_id, seq, frame, span, ok));
                was_empty
            };
            // Only the empty→non-empty transition needs a wake: a post that
            // observed a non-empty queue did so before the loop's drain took
            // the lock, so the wake byte for the earlier post still covers
            // it. Saves one syscall per reply under burst load.
            if was_empty {
                let _ = (&self.waker).write(&[1]);
            }
        }

        fn drain(&self) -> Vec<Completion> {
            std::mem::take(&mut *self.posted.lock().unwrap_or_else(|e| e.into_inner()))
        }
    }

    /// One nonblocking connection under the reactor.
    struct Connection {
        stream: TcpStream,
        assembler: FrameAssembler,
        out: OutBuf,
        replies: ReplyQueue,
        last_activity: Instant,
        /// No further input is parsed (EOF, terminal frame, or shutdown).
        read_closed: bool,
        /// Close once every reply has been flushed to the socket.
        close_when_flushed: bool,
        /// Force-close time for an oversize-draining connection.
        close_deadline: Option<Instant>,
        /// Currently registered epoll interest.
        interest: u32,
    }

    impl Connection {
        fn new(stream: TcpStream, max_frame_len: usize) -> Self {
            Self {
                stream,
                assembler: FrameAssembler::new(max_frame_len),
                out: OutBuf::default(),
                replies: ReplyQueue::default(),
                last_activity: Instant::now(),
                read_closed: false,
                close_when_flushed: false,
                close_deadline: None,
                interest: EPOLLIN,
            }
        }

        /// Whether reading is paused by backpressure.
        fn paused(&self, reactor: &ReactorConfig) -> bool {
            self.replies.len() >= reactor.max_inflight || self.out.len() >= reactor.write_buffer_cap
        }
    }

    /// What the loop's helpers share, bundled so their signatures stay
    /// readable.
    struct Shared<'a> {
        epoll: Epoll,
        config: &'a ServerConfig,
        reactor: &'a ReactorConfig,
        metrics: &'a Arc<ServerMetrics>,
        batcher: &'a Batcher,
        /// The protocol core, shared with the threaded front end.
        dispatch: Dispatch<'a>,
        completions: Arc<Completions>,
    }

    /// Runs the reactor until shutdown. Mirrors the threaded
    /// `serve_until` contract: only fatal listener errors surface,
    /// per-connection failures close that connection silently.
    pub(crate) fn run(
        listener: TcpListener,
        shutdown: &AtomicBool,
        config: &ServerConfig,
        reactor: &ReactorConfig,
        metrics: &Arc<ServerMetrics>,
        batcher: &Batcher,
        dispatch: Dispatch<'_>,
    ) -> io::Result<()> {
        let epoll = Epoll::new()?;
        listener.set_nonblocking(true)?;
        // Deepen the accept backlog to the connection budget: the loop
        // accepts between decode completions, not from a dedicated thread,
        // so std's default backlog of 128 overflows under a connect burst
        // and every dropped SYN costs that client a ~1s retransmission.
        super::sys::relisten(
            listener.as_raw_fd(),
            reactor.max_connections.clamp(128, i32::MAX as usize) as i32,
        )?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        epoll.add(waker_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKER)?;
        let completions = Arc::new(Completions { posted: Mutex::new(Vec::new()), waker: waker_tx });
        let shared = Shared { epoll, config, reactor, metrics, batcher, dispatch, completions };

        let idle_timeout = config.read_timeout.filter(|t| !t.is_zero());
        let mut conns: HashMap<u64, Connection> = HashMap::new();
        let mut next_token = FIRST_CONN_TOKEN;
        let mut events = Vec::with_capacity(1024);
        let mut scratch = vec![0u8; 64 * 1024];
        let mut next_idle_sweep = Instant::now() + TICK;
        // `Some(deadline)` once shutdown has been observed and the gateway
        // flushed; the loop then only drains outbound replies.
        let mut draining: Option<Instant> = None;

        loop {
            shared.epoll.wait(&mut events, Some(TICK))?;
            let now = Instant::now();

            if draining.is_none() && shutdown.load(Ordering::Acquire) {
                // Stop accepting, stop reading, flush the gateway: every
                // already-parked job still gets its reply written out —
                // the shutdown-flush invariant, readiness-style.
                let _ = shared.epoll.delete(listener.as_raw_fd());
                for conn in conns.values_mut() {
                    conn.read_closed = true;
                    conn.close_when_flushed = true;
                }
                batcher.shutdown();
                draining = Some(now + reactor.drain_grace);
            }

            // Connections touched this iteration, pumped (flush + write +
            // re-arm) once at the end.
            let mut touched: Vec<u64> = Vec::new();

            for ev in &events {
                let (bits, token) = (ev.events, ev.data);
                match token {
                    TOKEN_LISTENER => {
                        if draining.is_none() {
                            accept_ready(&listener, &shared, &mut conns, &mut next_token)?;
                        }
                    }
                    TOKEN_WAKER => {
                        // Drain the wake bytes; completions are collected
                        // below regardless.
                        while let Ok(n) = (&waker_rx).read(&mut scratch) {
                            if n == 0 {
                                break;
                            }
                        }
                    }
                    token => {
                        let Some(conn) = conns.get_mut(&token) else { continue };
                        if bits & EPOLLERR != 0 {
                            close_conn(&shared, &mut conns, token);
                            continue;
                        }
                        if bits & (EPOLLIN | EPOLLHUP) != 0 && !conn.read_closed {
                            read_ready(conn, token, &shared, &mut scratch);
                        } else if bits & EPOLLHUP != 0 && conn.out.is_empty() {
                            // Hangup with nothing left to deliver.
                            close_conn(&shared, &mut conns, token);
                            continue;
                        }
                        touched.push(token);
                    }
                }
            }

            // Route decode completions to their reply slots. A missing
            // connection simply drops the frame — it died while its job
            // was queued (the span dies with it: the reply was never
            // written, so `reply-written` would be a lie).
            for (conn_id, seq, frame, span, ok) in shared.completions.drain() {
                if let Some(conn) = conns.get_mut(&conn_id) {
                    conn.replies.fill(seq, frame, span, ok);
                    touched.push(conn_id);
                }
            }

            // While draining, every connection needs pumping: progress
            // comes from completions and writability, not reads.
            if draining.is_some() {
                touched.extend(conns.keys().copied());
            }
            touched.sort_unstable();
            touched.dedup();
            for token in touched {
                if !pump(&mut conns, token, &shared, now) {
                    close_conn(&shared, &mut conns, token);
                }
            }

            if let Some(deadline) = draining {
                if conns.is_empty() {
                    return Ok(());
                }
                if now >= deadline {
                    // Grace spent: abandon slow readers.
                    let tokens: Vec<u64> = conns.keys().copied().collect();
                    for token in tokens {
                        close_conn(&shared, &mut conns, token);
                    }
                    return Ok(());
                }
                continue;
            }

            if now >= next_idle_sweep {
                next_idle_sweep = now + TICK;
                // Expired linger deadlines (oversize connections kept open
                // to swallow their announced payload) close here: the peer
                // may never send another byte, so no readiness event can be
                // relied on to enforce the deadline.
                let expired: Vec<u64> = conns
                    .iter()
                    .filter(|(_, c)| c.close_deadline.is_some_and(|d| now >= d))
                    .map(|(t, _)| *t)
                    .collect();
                for token in expired {
                    let _ = pump(&mut conns, token, &shared, now);
                    close_conn(&shared, &mut conns, token);
                }
                if let Some(timeout) = idle_timeout {
                    // Idle = nothing owed to the peer and nothing heard
                    // from it; a connection waiting on its own decode is
                    // not idle (the threaded path's read timeout likewise
                    // only ticks between requests).
                    let stale: Vec<u64> = conns
                        .iter()
                        .filter(|(_, c)| {
                            c.replies.is_empty()
                                && c.out.is_empty()
                                && now.saturating_duration_since(c.last_activity) > timeout
                        })
                        .map(|(t, _)| *t)
                        .collect();
                    for token in stale {
                        close_conn(&shared, &mut conns, token);
                    }
                }
            }
        }
    }

    /// Accepts every pending connection, admitting or refusing each.
    fn accept_ready(
        listener: &TcpListener,
        shared: &Shared<'_>,
        conns: &mut HashMap<u64, Connection>,
        next_token: &mut u64,
    ) -> io::Result<()> {
        loop {
            let (stream, _) = match listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (the peer
                // vanished between SYN and accept) must not kill the loop.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                Err(e) => return Err(e),
            };
            if crate::fault::accept_abort() {
                // Injected ECONNABORTED-after-accept: the peer vanished
                // between SYN and our accept; drop it and keep accepting.
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue; // dropped: an unpollable socket cannot be served
            }
            // Before admission, so the BUSY refusal below leaves at once
            // too. Best effort: a socket that refuses the option is still
            // served, only slower.
            let _ = crate::protocol::prepare_stream(&stream);
            let limit = shared.reactor.max_connections;
            if conns.len() >= limit {
                // Admission control: answer with a typed BUSY frame
                // (best effort — a fresh socket's send buffer is empty,
                // so the single write virtually always lands) and close.
                shared.metrics.record_connection_refused();
                let frame = error_frame(
                    shared.metrics,
                    ErrorCode::Busy,
                    format!("server is at its {limit} connection limit"),
                );
                let _ = (&stream).write(&frame);
                continue;
            }
            let token = *next_token;
            *next_token += 1;
            if shared.epoll.add(stream.as_raw_fd(), EPOLLIN, token).is_err() {
                shared.metrics.record_connection_refused();
                continue;
            }
            shared.metrics.record_connection_open();
            conns.insert(token, Connection::new(stream, shared.config.max_frame_len));
        }
    }

    /// Drains a readable connection into its assembler, dispatching every
    /// complete frame, bounded by `READ_BUDGET` per call.
    fn read_ready(conn: &mut Connection, token: u64, shared: &Shared<'_>, scratch: &mut [u8]) {
        let mut budget = READ_BUDGET;
        while budget > 0 && !conn.read_closed && !conn.paused(shared.reactor) {
            let mut want = budget.min(scratch.len());
            if crate::fault::short_read() {
                // Injected short read: the kernel hands over one byte, so
                // the frame assembler must survive arbitrary fragmentation.
                want = 1;
            }
            let n = match conn.stream.read(&mut scratch[..want]) {
                Ok(0) => {
                    // EOF: no more requests, but replies already owed are
                    // still delivered before closing.
                    conn.read_closed = true;
                    conn.close_when_flushed = true;
                    return;
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.read_closed = true;
                    conn.close_when_flushed = true;
                    conn.replies = ReplyQueue::default();
                    conn.out = OutBuf::default();
                    return;
                }
            };
            budget -= n;
            conn.last_activity = Instant::now();
            let mut rest = &scratch[..n];
            while !rest.is_empty() && !conn.read_closed {
                let (consumed, event) = conn.assembler.push(rest);
                rest = &rest[consumed..];
                match event {
                    Some(FrameEvent::Frame { frame_type, payload }) => {
                        handle_frame(conn, token, frame_type, &payload, shared);
                    }
                    Some(FrameEvent::Oversize { announced, limit }) => {
                        // Framing is lost: answer once, then linger just
                        // long enough to swallow the announced bytes so
                        // the close does not RST the reply away.
                        let frame = shared.dispatch.oversize(announced, limit);
                        conn.replies.reserve(Some(frame), ReplyMeta::inline());
                        conn.close_when_flushed = true;
                        conn.close_deadline = Some(Instant::now() + OVERSIZE_LINGER);
                    }
                    None => {
                        if consumed == 0 {
                            return; // assembler refuses further input
                        }
                        break; // needs more bytes
                    }
                }
            }
        }
    }

    /// Acts on one complete inbound frame as the protocol core decides.
    /// Decode work goes to the gateway; everything else is answered inline
    /// through the reply queue so pipelined responses keep request order.
    fn handle_frame(
        conn: &mut Connection,
        token: u64,
        frame_type: u8,
        payload: &[u8],
        shared: &Shared<'_>,
    ) {
        // The frame is assembled: the service-time clock starts here.
        let received = Instant::now();
        match shared.dispatch.dispatch(frame_type, payload, token) {
            Action::Reply(frame) => {
                conn.replies.reserve(Some(frame), ReplyMeta::inline());
            }
            Action::ReplyThenClose(frame) => {
                conn.replies.reserve(Some(frame), ReplyMeta::inline());
                conn.read_closed = true;
                conn.close_when_flushed = true;
            }
            Action::Decode(members) => {
                for member in members {
                    submit_member(conn, token, member, received, shared);
                }
            }
        }
    }

    /// Parks one decode member in the gateway, reserving its ordered reply
    /// slot. A member that did not parse already carries its typed error
    /// frame; a refused submission (full queue or shutdown) sheds with
    /// `BUSY`.
    fn submit_member(
        conn: &mut Connection,
        token: u64,
        member: Member,
        received: Instant,
        shared: &Shared<'_>,
    ) {
        let Member { mut span, request } = member;
        let (encoded, engine) = match request {
            Ok(parsed) => parsed,
            Err(frame) => {
                if let Some(span) = &mut span {
                    span.stamp(TraceStage::ReplyQueued);
                }
                conn.replies.reserve(Some(frame), ReplyMeta::for_decode(received, span));
                return;
            }
        };
        let seq = conn.replies.reserve(None, ReplyMeta::for_decode(received, None));
        let completions = Arc::clone(&shared.completions);
        let metrics = Arc::clone(shared.metrics);
        let reply = Box::new(
            move |result: Result<easz_image::ImageF32, easz_core::EaszError>,
                  span: Option<SpanCtx>| {
                // Serialize on the worker thread: `to_u8` + frame assembly
                // are per-reply costs the event loop must not pay.
                let ok = result.is_ok();
                completions.post(token, seq, reply_frame(&metrics, result), span, ok);
            },
        );
        if let Err(span) = shared.batcher.submit(encoded, engine, token, span, reply) {
            // The refused span still rides the reply slot so shed requests
            // trace too.
            conn.replies.fill(seq, shared.dispatch.shed(), span, false);
        }
    }

    /// Flushes ready replies, writes what the socket will take, re-arms
    /// interest. Returns `false` when the connection should close.
    fn pump(
        conns: &mut HashMap<u64, Connection>,
        token: u64,
        shared: &Shared<'_>,
        now: Instant,
    ) -> bool {
        let Some(conn) = conns.get_mut(&token) else { return true };
        let mut released = Vec::new();
        conn.replies.flush_into(&mut conn.out, &mut released);
        let mut alive = true;
        while !conn.out.is_empty() {
            let pending = conn.out.pending();
            // Injected torn write: hand the kernel a prefix, forcing the
            // compacting out-buffer to resume mid-frame.
            let take = crate::fault::write_split(pending.len()).unwrap_or(pending.len());
            match conn.stream.write(&pending[..take]) {
                Ok(0) => {
                    alive = false;
                    break;
                }
                Ok(n) => {
                    conn.out.advance(n);
                    conn.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    alive = false;
                    break;
                }
            }
        }
        // Close the telemetry of the decode replies whose bytes just
        // reached the out-buffer / socket. A connection that died mid-write
        // still closes its spans — the decode outcome is what `ok` records.
        for meta in released {
            if meta.decode {
                shared.dispatch.finish(meta.received, meta.span, meta.ok);
            }
        }
        if !alive {
            return false;
        }
        if conn.close_when_flushed && conn.replies.is_empty() && conn.out.is_empty() {
            // An oversize linger keeps the socket open (still swallowing
            // the announced payload) until drained or out of grace.
            let lingering = conn.assembler.is_draining()
                && !conn.assembler.drained()
                && conn.close_deadline.is_some_and(|d| now < d);
            if !lingering {
                return false;
            }
        }
        let mut want = 0;
        if !conn.read_closed && !conn.paused(shared.reactor) {
            want |= EPOLLIN;
        }
        if !conn.out.is_empty() {
            want |= EPOLLOUT;
        }
        if want != conn.interest
            && shared.epoll.modify(conn.stream.as_raw_fd(), want, token).is_err()
        {
            return false;
        }
        conn.interest = want;
        true
    }

    /// Deregisters and drops one connection, updating the gauge.
    fn close_conn(shared: &Shared<'_>, conns: &mut HashMap<u64, Connection>, token: u64) {
        if let Some(conn) = conns.remove(&token) {
            let _ = shared.epoll.delete(conn.stream.as_raw_fd());
            shared.metrics.record_connection_close();
        }
    }
}
