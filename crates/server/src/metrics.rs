//! Server metrics: lock-free counters the serving tier maintains and the
//! wire form they travel in (`STATS` / `STATS_REPLY` frames, specified in
//! `docs/FORMAT.md` §2.5).
//!
//! [`ServerMetrics`] is the live registry — atomics shared by every handler
//! thread, the gateway scheduler and the decode workers. [`ServerStats`] is
//! a point-in-time snapshot of it, serializable to the `STATS_REPLY`
//! payload and parseable back by clients. Counters are cumulative since
//! server start; gauges (queue depth) reflect the moment of the snapshot.

use crate::protocol::ErrorCode;
use easz_codecs::wire::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets in the batch-width histogram: widths `1..WIDTH_BUCKETS-1` count
/// exactly, the last bucket collects everything `>= WIDTH_BUCKETS`.
pub const WIDTH_BUCKETS: usize = 16;

/// Buckets in each log2 latency histogram: bucket `0` counts samples of
/// `0 µs`, bucket `i >= 1` counts samples in `[2^(i-1), 2^i)` µs, and the
/// last bucket absorbs everything at or above `2^(LATENCY_BUCKETS-2)` µs
/// (~18 minutes) — wide enough that no serving-path latency saturates it.
pub const LATENCY_BUCKETS: usize = 32;

/// Highest error-code byte tracked per-code (the protocol's codes are
/// `1..=15` for the container class and `32..=38` for request/framing and
/// robustness reports; anything above lands in the last slot so a future
/// code is never silently dropped).
const MAX_ERROR_CODE: usize = 63;

/// The log2 bucket a microsecond sample lands in (see [`LATENCY_BUCKETS`]).
pub fn latency_bucket(us: u64) -> usize {
    ((u64::BITS - us.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
}

/// The inclusive upper bound (µs) of a log2 latency bucket — the value a
/// percentile read out of the histogram reports. The last bucket is
/// unbounded; it reports its lower bound.
pub fn latency_bucket_upper_us(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        b if b >= LATENCY_BUCKETS - 1 => 1 << (LATENCY_BUCKETS - 2),
        b => (1 << b) - 1,
    }
}

/// Reads the `q`-quantile (`0.0..=1.0`) out of a log2 latency histogram:
/// the upper bound of the bucket holding the `ceil(q * N)`-th sample.
/// Returns `0` for an empty histogram. Conservative by construction — the
/// true quantile is never above the reported value's bucket.
pub fn latency_percentile_us(histogram: &[u64; LATENCY_BUCKETS], q: f64) -> u64 {
    let total: u64 = histogram.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (bucket, count) in histogram.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return latency_bucket_upper_us(bucket);
        }
    }
    latency_bucket_upper_us(LATENCY_BUCKETS - 1)
}

/// The live metrics registry of one [`EaszServer`](crate::EaszServer).
///
/// Every field is a relaxed atomic: metrics never synchronise anything,
/// they only have to be individually consistent and cheap on the hot path.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Containers received for decoding (via `DECODE` or `DECODE_BATCH`),
    /// counted after framing but before parsing.
    decode_requests: AtomicU64,
    /// `IMAGE` replies sent.
    decode_ok: AtomicU64,
    /// Per-container `ERROR` replies sent (codes `1..=15`).
    decode_err: AtomicU64,
    /// Fused forward groups issued — one count per `(model id, tier,
    /// geometry)` fusion group a batch or gateway window dispatched.
    batches_dispatched: AtomicU64,
    /// Current gateway queue depth (gauge).
    queue_depth: AtomicU64,
    /// High-water gateway queue depth.
    queue_peak: AtomicU64,
    /// Total microseconds jobs spent queued before their window dispatched.
    queue_wait_us: AtomicU64,
    /// Total microseconds workers spent inside `decode_batch`.
    decode_us: AtomicU64,
    /// Log2 histogram of per-job queue wait (µs); see [`latency_bucket`].
    queue_wait_histo: [AtomicU64; LATENCY_BUCKETS],
    /// Log2 histogram of per-container decode time (µs) — each container's
    /// share of its fused forward group's wall time.
    decode_histo: [AtomicU64; LATENCY_BUCKETS],
    /// Log2 histogram of end-to-end service time (µs): request frame
    /// assembled to reply bytes written.
    service_histo: [AtomicU64; LATENCY_BUCKETS],
    /// Histogram of fused forward group widths (containers per shared
    /// model forward); bucket `i` counts width `i + 1`, the last bucket
    /// counts `>= WIDTH_BUCKETS`.
    batch_widths: [AtomicU64; WIDTH_BUCKETS],
    /// `ERROR` frames sent, by code byte (protocol-level codes included).
    errors: [AtomicU64; MAX_ERROR_CODE + 1],
    /// Connections currently being served (gauge).
    connections_active: AtomicU64,
    /// Connections accepted and served since start.
    connections_accepted: AtomicU64,
    /// Connections refused at accept (admission control: the connection
    /// table was full, or the socket could not be registered).
    connections_refused: AtomicU64,
    /// Well-framed decode requests shed with a `BUSY` error because the
    /// gateway refused them (queue full or shutting down).
    requests_shed: AtomicU64,
    /// EWMA of the microseconds between consecutive gateway submissions
    /// (gauge; `0` = no estimate yet). Drives the adaptive batching window.
    arrival_ewma_us: AtomicU64,
    /// Decode panics caught at an isolation boundary (each answered with
    /// the `INTERNAL` error on its own request).
    panics_caught: AtomicU64,
    /// Gateway decode workers respawned by the supervisor after a panic
    /// poisoned them.
    worker_respawns: AtomicU64,
    /// Gateway jobs swept unstarted because their deadline expired (each
    /// answered with `DEADLINE_EXCEEDED`).
    deadlines_expired: AtomicU64,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self {
            decode_requests: AtomicU64::new(0),
            decode_ok: AtomicU64::new(0),
            decode_err: AtomicU64::new(0),
            batches_dispatched: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            queue_wait_us: AtomicU64::new(0),
            decode_us: AtomicU64::new(0),
            queue_wait_histo: std::array::from_fn(|_| AtomicU64::new(0)),
            decode_histo: std::array::from_fn(|_| AtomicU64::new(0)),
            service_histo: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_widths: std::array::from_fn(|_| AtomicU64::new(0)),
            errors: std::array::from_fn(|_| AtomicU64::new(0)),
            connections_active: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            connections_refused: AtomicU64::new(0),
            requests_shed: AtomicU64::new(0),
            arrival_ewma_us: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            deadlines_expired: AtomicU64::new(0),
        }
    }
}

impl ServerMetrics {
    /// Fresh, all-zero registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts `n` containers accepted for decoding.
    pub fn record_requests(&self, n: u64) {
        self.decode_requests.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one decode outcome at reply time (`true` = `IMAGE`).
    pub fn record_decode(&self, ok: bool) {
        if ok {
            self.decode_ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.decode_err.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one `ERROR` frame by its code byte.
    pub fn record_error(&self, code: ErrorCode) {
        let idx = (code.value() as usize).min(MAX_ERROR_CODE);
        self.errors[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a decode batch of `width` containers and the wall time its
    /// `decode_batch` call took.
    pub fn record_batch(&self, width: usize, decode_us: u64) {
        debug_assert!(width > 0, "empty batch recorded");
        let bucket = width.saturating_sub(1).min(WIDTH_BUCKETS - 1);
        self.batch_widths[bucket].fetch_add(1, Ordering::Relaxed);
        self.batches_dispatched.fetch_add(1, Ordering::Relaxed);
        self.decode_us.fetch_add(decode_us, Ordering::Relaxed);
    }

    /// Updates the queue-depth gauge (and its high-water mark).
    pub fn record_queue_depth(&self, depth: usize) {
        let depth = depth as u64;
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Adds one job's time-in-queue to the latency accumulator and its
    /// log2 histogram bucket.
    pub fn record_queue_wait(&self, wait_us: u64) {
        self.queue_wait_us.fetch_add(wait_us, Ordering::Relaxed);
        self.queue_wait_histo[latency_bucket(wait_us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one container's decode time (its share of the fused forward
    /// group's wall time) into the decode latency histogram.
    pub fn record_decode_sample(&self, decode_us: u64) {
        self.decode_histo[latency_bucket(decode_us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request's end-to-end service time (frame assembled to
    /// reply written) into the service latency histogram.
    pub fn record_service(&self, service_us: u64) {
        self.service_histo[latency_bucket(service_us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one accepted connection entering service (gauge up).
    pub fn record_connection_open(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
        self.connections_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one served connection closing (gauge down).
    pub fn record_connection_close(&self) {
        self.connections_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts one connection refused at accept by admission control.
    pub fn record_connection_refused(&self) {
        self.connections_refused.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one decode request shed with a `BUSY` error.
    pub fn record_request_shed(&self) {
        self.requests_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the gateway's current inter-arrival EWMA (µs between
    /// submissions; `0` clears the estimate).
    pub fn record_arrival_ewma(&self, ewma_us: u64) {
        self.arrival_ewma_us.store(ewma_us, Ordering::Relaxed);
    }

    /// The published inter-arrival EWMA in µs (`0` = no estimate yet).
    pub fn arrival_ewma_us(&self) -> u64 {
        self.arrival_ewma_us.load(Ordering::Relaxed)
    }

    /// Counts one decode panic caught at an isolation boundary.
    pub fn record_panic_caught(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one gateway worker respawned after a panic poisoned it.
    pub fn record_worker_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one gateway job swept unstarted past its deadline.
    pub fn record_deadline_expired(&self) {
        self.deadlines_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a snapshot for a `STATS_REPLY`.
    pub fn snapshot(&self) -> ServerStats {
        let mut widths = [0u64; WIDTH_BUCKETS];
        for (out, w) in widths.iter_mut().zip(&self.batch_widths) {
            *out = w.load(Ordering::Relaxed);
        }
        let load_histo = |h: &[AtomicU64; LATENCY_BUCKETS]| {
            let mut out = [0u64; LATENCY_BUCKETS];
            for (out, b) in out.iter_mut().zip(h) {
                *out = b.load(Ordering::Relaxed);
            }
            out
        };
        let errors: Vec<(u8, u64)> = self
            .errors
            .iter()
            .enumerate()
            .filter_map(|(code, count)| {
                let count = count.load(Ordering::Relaxed);
                (count > 0).then_some((code as u8, count))
            })
            .collect();
        ServerStats {
            decode_requests: self.decode_requests.load(Ordering::Relaxed),
            decode_ok: self.decode_ok.load(Ordering::Relaxed),
            decode_err: self.decode_err.load(Ordering::Relaxed),
            batches_dispatched: self.batches_dispatched.load(Ordering::Relaxed),
            inline_decodes: 0,
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
            queue_wait_us: self.queue_wait_us.load(Ordering::Relaxed),
            decode_us: self.decode_us.load(Ordering::Relaxed),
            batch_widths: widths,
            errors,
            queue_wait_histo: load_histo(&self.queue_wait_histo),
            decode_histo: load_histo(&self.decode_histo),
            service_histo: load_histo(&self.service_histo),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_refused: self.connections_refused.load(Ordering::Relaxed),
            requests_shed: self.requests_shed.load(Ordering::Relaxed),
            arrival_ewma_us: self.arrival_ewma_us.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            deadlines_expired: self.deadlines_expired.load(Ordering::Relaxed),
        }
    }
}

/// Version byte leading a `STATS_REPLY` payload. Version 2 appended the
/// connection/admission block (five `u64`s) after the error entries;
/// version 3 appended the robustness block (three `u64`s: panics caught,
/// worker respawns, deadlines expired); version 4 appends the latency
/// block (a bucket-count byte followed by three [`LATENCY_BUCKETS`]-wide
/// log2 histograms: queue wait, decode, end-to-end service time). Every
/// version is a strict prefix of its successors; lower-version payloads
/// still parse, with the missing fields reported as `0`.
pub const STATS_PAYLOAD_VERSION: u8 = 4;

/// A point-in-time snapshot of a server's [`ServerMetrics`], as carried by
/// the `STATS_REPLY` frame. The default is the all-zero snapshot of a
/// server that has seen nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Containers received for decoding.
    pub decode_requests: u64,
    /// `IMAGE` replies sent.
    pub decode_ok: u64,
    /// Per-container `ERROR` replies sent.
    pub decode_err: u64,
    /// Fused forward groups issued (one per `(model id, tier, geometry)`
    /// fusion group dispatched).
    pub batches_dispatched: u64,
    /// Always `0`: every decode runs on a gateway worker. The field keeps
    /// its slot because the payload layout is append-only.
    pub inline_decodes: u64,
    /// Gateway queue depth at snapshot time (gauge).
    pub queue_depth: u64,
    /// High-water gateway queue depth.
    pub queue_peak: u64,
    /// Total microseconds jobs waited in the gateway queue.
    pub queue_wait_us: u64,
    /// Total microseconds spent inside `decode_batch` calls.
    pub decode_us: u64,
    /// Fused-forward-group width histogram; bucket `i` counts groups of
    /// width `i + 1` containers, the last bucket counts `>= WIDTH_BUCKETS`.
    pub batch_widths: [u64; WIDTH_BUCKETS],
    /// `(error code byte, count)` for every code observed at least once,
    /// ascending by code.
    pub errors: Vec<(u8, u64)>,
    /// Connections being served at snapshot time (gauge; payload v2).
    pub connections_active: u64,
    /// Connections accepted since start (payload v2).
    pub connections_accepted: u64,
    /// Connections refused at accept by admission control (payload v2).
    pub connections_refused: u64,
    /// Decode requests shed with a `BUSY` error (payload v2).
    pub requests_shed: u64,
    /// Inter-arrival EWMA of gateway submissions in µs (gauge; `0` = no
    /// estimate yet; payload v2).
    pub arrival_ewma_us: u64,
    /// Decode panics caught at an isolation boundary (payload v3).
    pub panics_caught: u64,
    /// Gateway workers respawned by the supervisor (payload v3).
    pub worker_respawns: u64,
    /// Gateway jobs swept unstarted past their deadline (payload v3).
    pub deadlines_expired: u64,
    /// Log2 histogram of per-job gateway queue wait in µs (payload v4);
    /// bucket semantics in [`latency_bucket`].
    pub queue_wait_histo: [u64; LATENCY_BUCKETS],
    /// Log2 histogram of per-container decode time in µs (payload v4).
    pub decode_histo: [u64; LATENCY_BUCKETS],
    /// Log2 histogram of end-to-end service time in µs — request frame
    /// assembled to reply bytes written (payload v4).
    pub service_histo: [u64; LATENCY_BUCKETS],
}

impl ServerStats {
    /// Count of `ERROR` frames sent under `code` (0 if never).
    pub fn error_count(&self, code: ErrorCode) -> u64 {
        self.errors.iter().find(|(c, _)| *c == code.value()).map_or(0, |(_, n)| *n)
    }

    /// The `q`-quantile of queue wait in µs (see [`latency_percentile_us`]).
    pub fn queue_wait_percentile_us(&self, q: f64) -> u64 {
        latency_percentile_us(&self.queue_wait_histo, q)
    }

    /// The `q`-quantile of per-container decode time in µs.
    pub fn decode_percentile_us(&self, q: f64) -> u64 {
        latency_percentile_us(&self.decode_histo, q)
    }

    /// The `q`-quantile of end-to-end service time in µs.
    pub fn service_percentile_us(&self, q: f64) -> u64 {
        latency_percentile_us(&self.service_histo, q)
    }

    /// Serializes into a `STATS_REPLY` frame payload (layout in
    /// `docs/FORMAT.md` §2.5).
    pub fn to_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            1 + 9 * 8
                + 1
                + self.batch_widths.len() * 8
                + 1
                + self.errors.len() * 9
                + 8 * 8
                + 1
                + 3 * LATENCY_BUCKETS * 8,
        );
        out.push(STATS_PAYLOAD_VERSION);
        for v in [
            self.decode_requests,
            self.decode_ok,
            self.decode_err,
            self.batches_dispatched,
            self.inline_decodes,
            self.queue_depth,
            self.queue_peak,
            self.queue_wait_us,
            self.decode_us,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.push(self.batch_widths.len() as u8);
        for w in &self.batch_widths {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.push(self.errors.len() as u8);
        for (code, count) in &self.errors {
            out.push(*code);
            out.extend_from_slice(&count.to_le_bytes());
        }
        for v in [
            self.connections_active,
            self.connections_accepted,
            self.connections_refused,
            self.requests_shed,
            self.arrival_ewma_us,
            self.panics_caught,
            self.worker_respawns,
            self.deadlines_expired,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.push(LATENCY_BUCKETS as u8);
        for histo in [&self.queue_wait_histo, &self.decode_histo, &self.service_histo] {
            for b in histo {
                out.extend_from_slice(&b.to_le_bytes());
            }
        }
        out
    }

    /// Parses a `STATS_REPLY` frame payload.
    ///
    /// # Errors
    ///
    /// A description of the malformation (unknown payload version, short or
    /// trailing bytes, oversized histogram).
    pub fn from_payload(payload: &[u8]) -> Result<Self, String> {
        Self::parse(&mut Cursor::new(payload)).map_err(|e| format!("stats payload: {e}"))
    }

    fn parse(r: &mut Cursor<'_>) -> Result<Self, String> {
        let version = r.u8()?;
        if version == 0 || version > STATS_PAYLOAD_VERSION {
            return Err(format!("unknown version {version}"));
        }
        // The blocks in `to_payload`'s order; fields a lower version
        // predates stay 0.
        let mut s = Self::default();
        for v in [
            &mut s.decode_requests,
            &mut s.decode_ok,
            &mut s.decode_err,
            &mut s.batches_dispatched,
            &mut s.inline_decodes,
            &mut s.queue_depth,
            &mut s.queue_peak,
            &mut s.queue_wait_us,
            &mut s.decode_us,
        ] {
            *v = r.u64()?;
        }
        let n_widths = usize::from(r.u8()?);
        if n_widths != WIDTH_BUCKETS {
            return Err(format!("histogram has {n_widths} buckets, expected {WIDTH_BUCKETS}"));
        }
        for w in &mut s.batch_widths {
            *w = r.u64()?;
        }
        let n_errors = r.u8()?;
        s.errors.reserve_exact(usize::from(n_errors));
        for _ in 0..n_errors {
            let code = r.u8()?;
            s.errors.push((code, r.u64()?));
        }
        if version >= 2 {
            for v in [
                &mut s.connections_active,
                &mut s.connections_accepted,
                &mut s.connections_refused,
                &mut s.requests_shed,
                &mut s.arrival_ewma_us,
            ] {
                *v = r.u64()?;
            }
        }
        if version >= 3 {
            for v in [&mut s.panics_caught, &mut s.worker_respawns, &mut s.deadlines_expired] {
                *v = r.u64()?;
            }
        }
        if version >= 4 {
            let n_latency = usize::from(r.u8()?);
            if n_latency != LATENCY_BUCKETS {
                return Err(format!(
                    "latency histograms have {n_latency} buckets, expected {LATENCY_BUCKETS}"
                ));
            }
            for histo in [&mut s.queue_wait_histo, &mut s.decode_histo, &mut s.service_histo] {
                for b in histo {
                    *b = r.u64()?;
                }
            }
        }
        r.finish()?;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_payload_round_trips() {
        let m = ServerMetrics::new();
        m.record_requests(5);
        m.record_decode(true);
        m.record_decode(true);
        m.record_decode(false);
        m.record_error(ErrorCode::BadMagic);
        m.record_error(ErrorCode::BadMagic);
        m.record_error(ErrorCode::Protocol);
        m.record_batch(3, 1500);
        m.record_batch(1, 200);
        m.record_batch(WIDTH_BUCKETS + 10, 9000); // overflow bucket
        m.record_queue_depth(4);
        m.record_queue_depth(2);
        m.record_queue_wait(750);
        m.record_decode_sample(1500);
        m.record_service(2500);
        m.record_connection_open();
        m.record_connection_open();
        m.record_connection_close();
        m.record_connection_refused();
        m.record_request_shed();
        m.record_arrival_ewma(1234);
        m.record_panic_caught();
        m.record_panic_caught();
        m.record_worker_respawn();
        m.record_deadline_expired();
        let mut stats = m.snapshot();
        assert_eq!(stats.inline_decodes, 0, "nothing decodes outside the gateway");
        // The retired field still travels in its slot.
        stats.inline_decodes = 1;
        assert_eq!(stats.decode_requests, 5);
        assert_eq!((stats.decode_ok, stats.decode_err), (2, 1));
        assert_eq!(stats.error_count(ErrorCode::BadMagic), 2);
        assert_eq!(stats.error_count(ErrorCode::Protocol), 1);
        assert_eq!(stats.error_count(ErrorCode::Oversize), 0);
        assert_eq!(stats.batches_dispatched, 3);
        assert_eq!(stats.batch_widths[0], 1);
        assert_eq!(stats.batch_widths[2], 1);
        assert_eq!(stats.batch_widths[WIDTH_BUCKETS - 1], 1);
        assert_eq!(stats.decode_us, 10700);
        assert_eq!(stats.inline_decodes, 1);
        assert_eq!((stats.queue_depth, stats.queue_peak), (2, 4));
        assert_eq!(stats.queue_wait_us, 750);
        assert_eq!((stats.connections_active, stats.connections_accepted), (1, 2));
        assert_eq!((stats.connections_refused, stats.requests_shed), (1, 1));
        assert_eq!(stats.arrival_ewma_us, 1234);
        assert_eq!(stats.panics_caught, 2);
        assert_eq!((stats.worker_respawns, stats.deadlines_expired), (1, 1));
        assert_eq!(stats.queue_wait_histo[latency_bucket(750)], 1);
        assert_eq!(stats.decode_histo[latency_bucket(1500)], 1);
        assert_eq!(stats.service_histo[latency_bucket(2500)], 1);
        let back = ServerStats::from_payload(&stats.to_payload()).expect("parse");
        assert_eq!(back, stats);
    }

    /// The v4 latency block in bytes: bucket-count byte + three histograms.
    const V4_BLOCK: usize = 1 + 3 * LATENCY_BUCKETS * 8;

    #[test]
    fn stats_payload_v1_still_parses() {
        let m = ServerMetrics::new();
        m.record_requests(3);
        m.record_connection_open();
        m.record_request_shed();
        let stats = m.snapshot();
        let mut v1 = stats.to_payload();
        // Strip the v2 connection, v3 robustness and v4 latency blocks.
        v1.truncate(v1.len() - 8 * 8 - V4_BLOCK);
        v1[0] = 1;
        let back = ServerStats::from_payload(&v1).expect("v1 payload parses");
        assert_eq!(back.decode_requests, 3);
        assert_eq!(back.connections_active, 0, "v1 has no connection block");
        assert_eq!(back.requests_shed, 0);
        assert_eq!(back.panics_caught, 0);
    }

    #[test]
    fn stats_payload_v2_still_parses() {
        let m = ServerMetrics::new();
        m.record_requests(4);
        m.record_connection_open();
        m.record_request_shed();
        m.record_panic_caught();
        m.record_deadline_expired();
        let stats = m.snapshot();
        let mut v2 = stats.to_payload();
        v2.truncate(v2.len() - 3 * 8 - V4_BLOCK); // strip the v3 + v4 blocks
        v2[0] = 2;
        let back = ServerStats::from_payload(&v2).expect("v2 payload parses");
        assert_eq!(back.decode_requests, 4);
        assert_eq!(back.connections_accepted, 1, "v2 keeps its connection block");
        assert_eq!(back.requests_shed, 1);
        assert_eq!(back.panics_caught, 0, "v2 has no robustness block");
        assert_eq!((back.worker_respawns, back.deadlines_expired), (0, 0));
    }

    #[test]
    fn stats_payload_v3_still_parses() {
        let m = ServerMetrics::new();
        m.record_requests(6);
        m.record_panic_caught();
        m.record_queue_wait(900);
        m.record_service(1800);
        let stats = m.snapshot();
        let mut v3 = stats.to_payload();
        v3.truncate(v3.len() - V4_BLOCK); // strip the v4 latency block
        v3[0] = 3;
        let back = ServerStats::from_payload(&v3).expect("v3 payload parses");
        assert_eq!(back.decode_requests, 6);
        assert_eq!(back.panics_caught, 1, "v3 keeps its robustness block");
        assert_eq!(back.queue_wait_us, 900, "the v1 sum accumulator survives");
        assert_eq!(back.queue_wait_histo, [0; LATENCY_BUCKETS], "v3 has no latency block");
        assert_eq!(back.service_histo, [0; LATENCY_BUCKETS]);
    }

    #[test]
    fn stats_payload_rejects_malformations() {
        let payload = ServerMetrics::new().snapshot().to_payload();
        assert!(ServerStats::from_payload(&payload[..payload.len() - 1]).is_err(), "truncated");
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(ServerStats::from_payload(&trailing).is_err(), "trailing byte");
        let mut bad_version = payload.clone();
        bad_version[0] = 9;
        assert!(ServerStats::from_payload(&bad_version).is_err(), "unknown version");
        let mut bad_buckets = payload.clone();
        bad_buckets[1 + 9 * 8] = 3;
        assert!(ServerStats::from_payload(&bad_buckets).is_err(), "bucket count");
        let mut bad_latency = payload;
        let count_at = bad_latency.len() - V4_BLOCK;
        bad_latency[count_at] = 7;
        assert!(ServerStats::from_payload(&bad_latency).is_err(), "latency bucket count");
    }

    #[test]
    fn latency_buckets_split_exactly_at_powers_of_two() {
        // Bucket 0 is the zero bucket; bucket i >= 1 holds [2^(i-1), 2^i).
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 1);
        for i in 1..LATENCY_BUCKETS - 2 {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(latency_bucket(lo), i, "lower boundary of bucket {i}");
            assert_eq!(latency_bucket(hi), i, "upper boundary of bucket {i}");
            assert_eq!(latency_bucket(hi + 1), i + 1, "first sample past bucket {i}");
            assert_eq!(latency_bucket_upper_us(i), hi);
        }
        // Everything at or past 2^(LATENCY_BUCKETS-2) lands in the last
        // bucket, including u64::MAX.
        let last_lo = 1u64 << (LATENCY_BUCKETS - 2);
        assert_eq!(latency_bucket(last_lo), LATENCY_BUCKETS - 1);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
        assert_eq!(latency_bucket_upper_us(LATENCY_BUCKETS - 1), last_lo);
        assert_eq!(latency_bucket_upper_us(0), 0);
    }

    #[test]
    fn latency_percentiles_read_the_right_buckets() {
        let mut h = [0u64; LATENCY_BUCKETS];
        assert_eq!(latency_percentile_us(&h, 0.5), 0, "empty histogram reads 0");
        // 90 samples in [256, 512), 9 in [4096, 8192), 1 in [65536, 131072).
        h[latency_bucket(300)] = 90;
        h[latency_bucket(5000)] = 9;
        h[latency_bucket(100_000)] = 1;
        assert_eq!(latency_percentile_us(&h, 0.50), 511);
        assert_eq!(latency_percentile_us(&h, 0.90), 511);
        assert_eq!(latency_percentile_us(&h, 0.99), 8191);
        assert_eq!(latency_percentile_us(&h, 0.999), 131_071);
        assert_eq!(latency_percentile_us(&h, 1.0), 131_071);
        // A single sample answers every quantile with its own bucket.
        let mut one = [0u64; LATENCY_BUCKETS];
        one[latency_bucket(42)] = 1;
        assert_eq!(latency_percentile_us(&one, 0.01), 63);
        assert_eq!(latency_percentile_us(&one, 0.999), 63);
    }
}
