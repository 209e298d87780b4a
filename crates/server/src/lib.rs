//! # easz-server
//!
//! The serving tier of the Easz reproduction: a batched `.easz` decode
//! server over TCP, its framing [`protocol`], and a blocking client.
//!
//! The paper's deployment story (Fig. 2) is asymmetric — model-free edge
//! encoders streaming to a server that owns the transformer — and this
//! crate moves the bytes between the two halves that `easz-core` already
//! provides. The server's job is *amortisation*: containers arriving in one
//! `DECODE_BATCH` frame, and requests from *different* connections, are
//! parked by the **decode gateway** into batching windows and decoded
//! through
//! [`EaszDecoder::decode_batch`](easz_core::EaszDecoder::decode_batch) —
//! one transformer forward per window group, even when every edge sender
//! rolls its own mask seed (the multi-mask fused forward in `easz-core`).
//! The gateway is always on; [`EaszServer::with_gateway`] tunes it.
//!
//! The wire format (both the `.easz` container and this crate's framing)
//! is specified normatively in `docs/FORMAT.md` at the repository root.
//!
//! * [`EaszServer`] — two thin front ends over one core: every protocol
//!   decision (tier bytes, batch envelopes, the `PING`/`STATS`/`TRACE`
//!   payload rules, the unknown-frame close, `IMAGE`/`ERROR`
//!   serialization and their counters, the `BUSY` shed) is made by one
//!   transport-free dispatcher (`dispatch.rs`), and every decode runs on a
//!   gateway worker through one isolated routine (`decode_window` in
//!   `batcher.rs`). The default front
//!   end is a multi-threaded accept loop (`std::net::TcpListener` +
//!   `std::thread::scope`, no external dependencies): one shared model,
//!   one handler thread per connection.
//! * [`GatewayConfig`] — the cross-connection batching scheduler: window
//!   size (`max_batch`), window latency budget (`max_wait_us`), decode
//!   worker count, queue bound, adaptive windows (`adaptive_wait`, on by
//!   default).
//! * [`ReactorConfig`] — the event-driven reactor front end (below).
//! * [`ServerMetrics`] / [`ServerStats`] — per-error-code counters, the
//!   batch-width histogram and queue-depth/latency gauges, served to
//!   clients via the `STATS` frame and scrapeable in-process.
//! * [`EaszClient`] — blocking request/reply client.
//! * [`protocol`] — frame I/O and payload codecs, usable directly by
//!   alternative clients or tests.
//! * `easz-serve` — the binary: `cargo run --release -p easz-server --bin
//!   easz-serve -- --addr 127.0.0.1:4860`.
//!
//! ```no_run
//! use easz_core::{zoo, EaszConfig, EaszEncoder};
//! use easz_codecs::{JpegLikeCodec, Quality};
//! use easz_data::Dataset;
//! use easz_server::{EaszClient, EaszServer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Server half (normally another machine).
//! let model = zoo::pretrained(zoo::PretrainSpec::quick());
//! let handle = EaszServer::new(model).spawn("127.0.0.1:0")?;
//!
//! // Edge half: compress, frame, send; get the decoded image back.
//! let encoder = EaszEncoder::new(EaszConfig::default())?;
//! let image = Dataset::KodakLike.image(0);
//! let wire = encoder.compress(&image, &JpegLikeCodec::new(), Quality::new(75))?.to_bytes();
//! let mut client = EaszClient::connect(handle.addr())?;
//! let restored = client.decode(&wire)?;
//! assert_eq!(restored.width(), image.width());
//! handle.shutdown()?;
//! # Ok(())
//! # }
//! ```
//!
//! ## The reactor front end
//!
//! The default front end spends one OS thread (stack, scheduler slot,
//! blocking reads) per connection — fine for tens of clients, wrong for
//! the paper's fleet topology of thousands of intermittent IoT encoders.
//! [`EaszServer::with_reactor`] swaps it for a single **readiness loop**
//! (Linux epoll via a thin in-crate syscall shim, no external
//! dependencies): nonblocking listener and sockets, level-triggered
//! readiness, and per-connection state machines.
//!
//! * **Framing state machine** — each connection incrementally assembles
//!   length-prefixed frames across arbitrary packet boundaries, with the
//!   payload buffer allocated only after the announced length passes
//!   `max_frame_len`. Outbound replies survive partial writes in a
//!   compacting buffer, and pipelined replies leave strictly in request
//!   order even though decode workers complete out of order.
//! * **Fairness draw** — both front ends submit every decode to the
//!   gateway tagged with its connection id, and the gateway forms windows by a
//!   round-robin draw across sources: one job per connection per cycle,
//!   so a flooding client cannot fill every window.
//! * **Admission control** — accepts beyond
//!   [`ReactorConfig::max_connections`] are answered with the typed `BUSY`
//!   error frame (`docs/FORMAT.md` §2.2) and closed instead of being
//!   silently dropped.
//! * **Backpressure** — a connection with too many decodes in flight or
//!   too many unflushed reply bytes stops being read until it drains; the
//!   kernel receive buffer then throttles the peer.
//! * **Adaptive windows** — with [`GatewayConfig::adaptive_wait`] (on in
//!   the default [`ServerConfig`]) the batching window's wait
//!   budget follows the observed inter-arrival EWMA: sparse traffic
//!   dispatches immediately, bursts wait just long enough to fill.
//!
//! Both front ends drive the same dispatcher and the same gateway, so
//! replies on the reactor path are byte-identical to the threaded path and
//! to serial local decoding — enforced by the loopback test suite. They
//! differ only in I/O (blocking `read_frame`/`write` per handler thread vs
//! frame assembler + ordered reply queue on the loop): a decode the
//! gateway cannot take is shed with the same positional `BUSY` on both.
//! The threaded path remains the default.
//!
//! ## Socket options
//!
//! Every stream the crate owns gets the same setup where it is born — the
//! two accept loops, [`EaszClient`]'s connect and re-dial, and
//! [`EaszClient::from_stream`]: Nagle's algorithm off (`TCP_NODELAY`). The
//! rule that makes this free is that every frame leaves in **one write**,
//! header and payload together ([`protocol::write_frame`], the threaded
//! reply path, the reactor's outbound buffer, the client's request
//! writer), so there are no tiny segments for Nagle to coalesce — it could
//! only hold the second of two back-to-back reply frames until the peer's
//! delayed ACK of the first, ≈ 40 ms on Linux per batch round trip. On
//! accepted sockets and in `from_stream` the setup is best effort (a
//! socket that refuses the option is served anyway); where the client
//! dials, a refusal is a connect failure. There is no option to turn it
//! back on: no deployment of a one-write-per-frame protocol wants it.
//!
//! ## Failure model
//!
//! The server degrades instead of dying, in a fixed order of escalation —
//! each stage answers with a *typed* error frame and each stage's blast
//! radius is one request (never a worker, never a connection, never the
//! process):
//!
//! 1. **`BUSY` shed (code 35)** — overload. Admission control refuses
//!    connections beyond [`ReactorConfig::max_connections`]; a saturated
//!    gateway queue sheds the decode, on either front end. Cheapest
//!    refusal, fired first.
//! 2. **Deadline expiry (code 38, `DEADLINE_EXCEEDED`)** — a job admitted
//!    to the gateway carries a deadline ([`GatewayConfig::deadline_us`]);
//!    if no worker picks it up in time it is swept unstarted and answered,
//!    so a stalled pool can never park a handler in `reply.recv()`
//!    forever.
//! 3. **Panic isolation (code 37, `INTERNAL`)** — every decode runs on a
//!    gateway worker through the one `decode_window` routine; its
//!    `catch_unwind` is the only one in the crate. A panicking container fails *its own* request (its windowmates
//!    are re-decoded serially), the supervisor respawns a poisoned worker,
//!    and the connection keeps serving.
//! 4. **Graceful drain** — shutdown (or SIGTERM in `easz-serve`) stops
//!    accepting, flushes parked gateway jobs, and answers everything
//!    in-flight before closing — the shutdown-flush invariant.
//!
//! The client side mirrors this: [`EaszClient`] takes a [`RetryPolicy`]
//! (capped exponential backoff with seeded jitter) and retries exactly the
//! failures the model declares retryable — connect errors and `BUSY` —
//! on idempotent requests only.
//!
//! Every stage is testable on demand: the [`fault`] module injects seeded,
//! deterministic faults (torn writes, EINTR storms, aborted accepts,
//! stalled or panicking decodes) at the syscall shim, protocol, and
//! gateway layers; `tests/chaos.rs` soaks both front ends under
//! randomized schedules and asserts exactly-one-reply, metrics
//! reconciliation, and byte-identity of every successful reply.
//!
//! ## Observability
//!
//! Three layers, identical on both front ends:
//!
//! 1. **Latency histograms (always on)** — [`ServerMetrics`] buckets queue
//!    wait, decode time, and end-to-end service time into log2 µs
//!    histograms ([`LATENCY_BUCKETS`] buckets), served in the `STATS`
//!    payload (v4, `docs/FORMAT.md` §2.5) with derivable
//!    p50/p90/p99/p999 via [`ServerStats::service_percentile_us`] and
//!    friends. The cost is one atomic increment per sample, so it is not
//!    gated.
//! 2. **Request tracing (opt-in)** — [`EaszServer::with_trace`] attaches a
//!    [`Tracer`]: every request carries a `Copy` [`SpanCtx`] stamping
//!    frame-assembled → admitted → enqueued → window-closed → dispatched
//!    → decode start/end → reply-queued → reply-written in monotonic µs.
//!    A 1-in-N sampling knob ([`TraceConfig::sample_every`]) bounds
//!    retention; requests slower than
//!    [`TraceConfig::slow_threshold_us`] are *always* captured into a
//!    slow-request log. Kept spans land in a fixed-size lock-light ring
//!    drained by the `TRACE` frame (`docs/FORMAT.md` §2.7). Decode-side
//!    stage hooks (parse / plan / fused-forward / finish, via
//!    [`easz_core::StageSink`]) aggregate per-stage wall time into the
//!    same report. With tracing off nothing allocates and no clock is
//!    read — the byte-identity and chaos suites run in that state.
//! 3. **`easz-top`** — a terminal inspector polling `STATS` + `TRACE`:
//!    throughput, latency percentiles, queue depth, batch-width
//!    histogram, decode-stage breakdown and the latest slow requests.
//!    `cargo run --release -p easz-server --bin easz-top -- --addr
//!    127.0.0.1:4860` (add `--once` for a single non-interactive
//!    snapshot).

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod batcher;
mod client;
mod dispatch;
pub mod fault;
mod metrics;
pub mod protocol;
mod reactor;
mod server;
mod trace;

pub use batcher::GatewayConfig;
pub use client::{ClientError, EaszClient, RetryPolicy};
pub use metrics::{
    latency_bucket, latency_bucket_upper_us, latency_percentile_us, ServerMetrics, ServerStats,
    LATENCY_BUCKETS, WIDTH_BUCKETS,
};
pub use protocol::{EngineTier, ErrorCode, WireError};
pub use reactor::ReactorConfig;
pub use server::{EaszServer, ServerConfig, ServerHandle};
pub use trace::{
    SpanCtx, TraceConfig, TraceReport, TraceSpan, TraceStage, Tracer, STAMP_UNSET, TRACE_STAGES,
};

/// The seeded generator this crate's sweep tests draw from.
#[cfg(test)]
mod test_rng {
    /// Split-mix-seeded xorshift, the construction `tests/parse_fuzz.rs`
    /// and the fault injector use: a case replays exactly from its seed.
    pub struct Rng(u64);

    impl Rng {
        pub fn new(seed: u64) -> Self {
            Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x0123_4567_89AB_CDEF) | 1)
        }

        pub fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        pub fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound.max(1) as u64) as usize
        }
    }
}
