//! Low-overhead request tracing: per-request spans, a sampled ring of
//! recent traces, an always-capture slow-request log, and the wire codec
//! for the `TRACE` / `TRACE_REPLY` frame pair (`docs/FORMAT.md` §2.7).
//!
//! # Design
//!
//! A request's life is described by a [`SpanCtx`]: a small `Copy` struct
//! created when its frame is assembled off the socket and carried *by
//! value* alongside the request through admission, the batch queue, decode
//! and the reply path. Each milestone calls [`SpanCtx::stamp`], writing a
//! relative microsecond offset into a fixed `[u32; 8]` — no allocation, no
//! shared state, one monotonic clock read.
//!
//! Only [`Tracer::finish`] touches shared state, and only for spans that
//! are *kept*: every `sample_every`-th request, plus any request whose
//! end-to-end time crosses `slow_threshold_us` (slow requests are always
//! captured, regardless of sampling). Kept spans land in a fixed-capacity
//! ring of per-slot mutexes — writers contend only when they hash to the
//! same slot — and slow spans additionally enter a bounded slow-request
//! log. Nothing on this path allocates after construction.
//!
//! When tracing is disabled (the default — the server simply has no
//! `Tracer`), none of this exists: request structs carry `None` where the
//! span would be and every instrumented site reduces to an inlined
//! `Option` check, the same off-path discipline as [`fault`](crate::fault)
//! (gated at runtime rather than compile time, because the inspector must
//! work against release builds). The bit-identity and chaos suites run in
//! that state and are untouched by this module.
//!
//! The decoder-side half lives in `easz-core`
//! ([`DecodeStage`](easz_core::DecodeStage)): the server installs a
//! [`StageSink`](easz_core::StageSink) routing per-stage wall times into
//! [`Tracer::record_decode_stage`] accumulators, reported in the same
//! [`TraceReport`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use easz_codecs::wire::Cursor;
use easz_core::{DecodeStage, DECODE_STAGES};

/// Number of [`TraceStage`] milestones stamped into a span.
pub const TRACE_STAGES: usize = 8;

/// Sentinel for a stage a request never reached (e.g. a shed request is
/// finished before `Enqueued`).
pub const STAMP_UNSET: u32 = u32::MAX;

/// Version byte leading a `TRACE_REPLY` payload.
pub const TRACE_PAYLOAD_VERSION: u8 = 1;

/// Milestones of a request's life inside the server, stamped in order.
///
/// The span itself starts when the request frame is fully assembled off
/// the socket, so "frame-assembled" is offset 0 rather than a stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStage {
    /// Passed admission control (gateway accepted the request).
    Admitted = 0,
    /// Entered the batch queue.
    Enqueued = 1,
    /// The batching window it waited in closed.
    WindowClosed = 2,
    /// Its batch was handed to a decode worker.
    Dispatched = 3,
    /// Decode of its batch group began.
    DecodeStart = 4,
    /// Decode of its batch group finished.
    DecodeEnd = 5,
    /// The reply was queued for its connection.
    ReplyQueued = 6,
    /// The reply bytes were handed to the socket.
    ReplyWritten = 7,
}

impl TraceStage {
    /// All stages, in pipeline order.
    pub const ALL: [TraceStage; TRACE_STAGES] = [
        TraceStage::Admitted,
        TraceStage::Enqueued,
        TraceStage::WindowClosed,
        TraceStage::Dispatched,
        TraceStage::DecodeStart,
        TraceStage::DecodeEnd,
        TraceStage::ReplyQueued,
        TraceStage::ReplyWritten,
    ];

    /// Stable lowercase name, as rendered by `easz-top`.
    pub fn name(self) -> &'static str {
        match self {
            Self::Admitted => "admitted",
            Self::Enqueued => "enqueued",
            Self::WindowClosed => "window-closed",
            Self::Dispatched => "dispatched",
            Self::DecodeStart => "decode-start",
            Self::DecodeEnd => "decode-end",
            Self::ReplyQueued => "reply-queued",
            Self::ReplyWritten => "reply-written",
        }
    }

    /// Dense index into a span's stamp array.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Tuning knobs for a [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Slots in the recent-span ring. `0` disables the ring (slow capture
    /// still works).
    pub capacity: usize,
    /// Keep every N-th request's span (`1` keeps all, `0` keeps none
    /// except slow requests).
    pub sample_every: u64,
    /// End-to-end threshold above which a span is always captured and
    /// logged as slow. `0` disables slow capture.
    pub slow_threshold_us: u64,
    /// Bound on the slow-request log; oldest entries are evicted.
    pub slow_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { capacity: 512, sample_every: 16, slow_threshold_us: 50_000, slow_capacity: 32 }
    }
}

/// Per-request trace context, carried by value with the request.
///
/// `Copy` and fixed-size: creating and stamping one never allocates, and
/// it crosses thread boundaries inside `Job` structs and reply closures
/// without synchronisation.
#[derive(Debug, Clone, Copy)]
pub struct SpanCtx {
    /// Monotonic request sequence number (per tracer).
    pub id: u64,
    /// Request frame type (`protocol::DECODE` etc.).
    pub frame: u8,
    /// Connection token the request arrived on.
    pub source: u64,
    start: Instant,
    stamps: [u32; TRACE_STAGES],
}

impl SpanCtx {
    /// Records "stage happened now" as µs since the frame was assembled.
    #[inline]
    pub fn stamp(&mut self, stage: TraceStage) {
        let us = self.start.elapsed().as_micros().min(u128::from(STAMP_UNSET - 1)) as u32;
        self.stamps[stage.index()] = us;
    }

    /// Microseconds since the span began.
    #[inline]
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Whether `stage` has been stamped on this context.
    pub fn stamped(&self, stage: TraceStage) -> bool {
        self.stamps[stage.index()] != STAMP_UNSET
    }
}

/// A completed span, as stored in the ring / slow log and sent over the
/// wire in a [`TraceReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// Request sequence number.
    pub id: u64,
    /// Connection token the request arrived on.
    pub source: u64,
    /// Span start, µs since the tracer was created.
    pub start_us: u64,
    /// Request frame type.
    pub frame: u8,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Per-stage offsets (µs since span start); [`STAMP_UNSET`] where the
    /// request never reached the stage.
    pub stamps: [u32; TRACE_STAGES],
}

impl TraceSpan {
    /// Bytes one span occupies in a `TRACE_REPLY` payload.
    pub(crate) const WIRE_LEN: usize = 8 + 8 + 8 + 1 + 1 + TRACE_STAGES * 4;

    /// End-to-end time: the latest stamped offset (µs).
    pub fn total_us(&self) -> u32 {
        self.stamps.iter().copied().filter(|&s| s != STAMP_UNSET).max().unwrap_or(0)
    }

    /// The stamped offset for `stage`, if the request reached it.
    pub fn stage_us(&self, stage: TraceStage) -> Option<u32> {
        let s = self.stamps[stage.index()];
        (s != STAMP_UNSET).then_some(s)
    }
}

/// The serving tier's trace collector. One per server; shared by both
/// front ends.
pub struct Tracer {
    cfg: TraceConfig,
    epoch: Instant,
    seq: AtomicU64,
    /// Recent-span ring: per-slot mutexes so concurrent finishers only
    /// contend when they land on the same slot.
    slots: Box<[Mutex<Option<TraceSpan>>]>,
    head: AtomicU64,
    slow: Mutex<VecDeque<TraceSpan>>,
    spans_finished: AtomicU64,
    spans_kept: AtomicU64,
    slow_captured: AtomicU64,
    stage_counts: [AtomicU64; DECODE_STAGES],
    stage_total_us: [AtomicU64; DECODE_STAGES],
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("cfg", &self.cfg)
            .field("spans_finished", &self.spans_finished.load(Ordering::Relaxed))
            .field("spans_kept", &self.spans_kept.load(Ordering::Relaxed))
            .field("slow_captured", &self.slow_captured.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// Builds a tracer. All captures after this point are allocation-free:
    /// the ring and the slow log are sized here, once.
    pub fn new(cfg: TraceConfig) -> Self {
        Self {
            cfg,
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            slots: (0..cfg.capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            // One spare slot so eviction can pop before pushing.
            slow: Mutex::new(VecDeque::with_capacity(cfg.slow_capacity + 1)),
            spans_finished: AtomicU64::new(0),
            spans_kept: AtomicU64::new(0),
            slow_captured: AtomicU64::new(0),
            stage_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            stage_total_us: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The configuration this tracer was built with.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Opens a span for a freshly assembled request frame.
    #[inline]
    pub fn begin(&self, frame: u8, source: u64) -> SpanCtx {
        SpanCtx {
            id: self.seq.fetch_add(1, Ordering::Relaxed),
            frame,
            source,
            start: Instant::now(),
            stamps: [STAMP_UNSET; TRACE_STAGES],
        }
    }

    /// Closes a span. Kept (and possibly slow-logged) if it is a sampling
    /// hit or crossed the slow threshold; dropped on the floor otherwise.
    pub fn finish(&self, ctx: SpanCtx, ok: bool) {
        self.spans_finished.fetch_add(1, Ordering::Relaxed);
        let total_us = ctx.elapsed_us();
        let sampled = self.cfg.sample_every > 0 && ctx.id.is_multiple_of(self.cfg.sample_every);
        let slow = self.cfg.slow_threshold_us > 0 && total_us >= self.cfg.slow_threshold_us;
        if !sampled && !slow {
            return;
        }
        let span = TraceSpan {
            id: ctx.id,
            source: ctx.source,
            start_us: ctx
                .start
                .checked_duration_since(self.epoch)
                .map_or(0, |d| d.as_micros().min(u128::from(u64::MAX)) as u64),
            frame: ctx.frame,
            ok,
            stamps: ctx.stamps,
        };
        self.spans_kept.fetch_add(1, Ordering::Relaxed);
        if !self.slots.is_empty() {
            let at = self.head.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
            *self.slots[at].lock().unwrap_or_else(|e| e.into_inner()) = Some(span);
        }
        if slow && self.cfg.slow_capacity > 0 {
            self.slow_captured.fetch_add(1, Ordering::Relaxed);
            let mut log = self.slow.lock().unwrap_or_else(|e| e.into_inner());
            if log.len() >= self.cfg.slow_capacity {
                log.pop_front();
            }
            log.push_back(span);
        }
    }

    /// Accumulates one decode-stage sample (routed here from the
    /// [`StageSink`](easz_core::StageSink) the server installs on its
    /// decoders).
    pub fn record_decode_stage(&self, stage: DecodeStage, us: u64) {
        self.stage_counts[stage.index()].fetch_add(1, Ordering::Relaxed);
        self.stage_total_us[stage.index()].fetch_add(us, Ordering::Relaxed);
    }

    /// Drains the recent-span ring (emptying it) and snapshots the slow
    /// log and decode-stage accumulators (both retained, so successive
    /// polls keep seeing the latest slow requests and running totals).
    pub fn drain(&self) -> TraceReport {
        let mut recent: Vec<TraceSpan> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().unwrap_or_else(|e| e.into_inner()).take())
            .collect();
        recent.sort_unstable_by_key(|s| s.id);
        let slow: Vec<TraceSpan> = {
            let log = self.slow.lock().unwrap_or_else(|e| e.into_inner());
            log.iter().copied().collect()
        };
        TraceReport {
            recent,
            slow,
            decode_stages: std::array::from_fn(|i| {
                (
                    self.stage_counts[i].load(Ordering::Relaxed),
                    self.stage_total_us[i].load(Ordering::Relaxed),
                )
            }),
        }
    }

    /// Spans finished / kept / slow-captured since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.spans_finished.load(Ordering::Relaxed),
            self.spans_kept.load(Ordering::Relaxed),
            self.slow_captured.load(Ordering::Relaxed),
        )
    }
}

/// One drain of a [`Tracer`], as carried by a `TRACE_REPLY` frame.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceReport {
    /// Recent sampled spans, oldest first (drained: each appears once
    /// across successive polls).
    pub recent: Vec<TraceSpan>,
    /// Latest slow requests, oldest first (retained across polls).
    pub slow: Vec<TraceSpan>,
    /// Decode-stage accumulators `(count, total µs)`, indexed by
    /// [`DecodeStage`](easz_core::DecodeStage).
    pub decode_stages: [(u64, u64); DECODE_STAGES],
}

impl TraceReport {
    /// Serializes into a `TRACE_REPLY` frame payload (layout in
    /// `docs/FORMAT.md` §2.7).
    pub fn to_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            3 + DECODE_STAGES * 16
                + 2
                + self.recent.len() * TraceSpan::WIRE_LEN
                + 2
                + self.slow.len() * TraceSpan::WIRE_LEN,
        );
        out.push(TRACE_PAYLOAD_VERSION);
        out.push(TRACE_STAGES as u8);
        out.push(DECODE_STAGES as u8);
        for (count, total_us) in &self.decode_stages {
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&total_us.to_le_bytes());
        }
        for list in [&self.recent, &self.slow] {
            out.extend_from_slice(&(list.len().min(u16::MAX as usize) as u16).to_le_bytes());
            for span in list.iter().take(u16::MAX as usize) {
                out.extend_from_slice(&span.id.to_le_bytes());
                out.extend_from_slice(&span.source.to_le_bytes());
                out.extend_from_slice(&span.start_us.to_le_bytes());
                out.push(span.frame);
                out.push(span.ok as u8);
                for stamp in &span.stamps {
                    out.extend_from_slice(&stamp.to_le_bytes());
                }
            }
        }
        out
    }

    /// Parses a `TRACE_REPLY` frame payload.
    ///
    /// # Errors
    ///
    /// A description of the malformation (unknown version, mismatched
    /// stage counts, bad `ok` flag, short or trailing bytes).
    pub fn from_payload(payload: &[u8]) -> Result<Self, String> {
        Self::parse(&mut Cursor::new(payload)).map_err(|e| format!("trace payload: {e}"))
    }

    fn parse(r: &mut Cursor<'_>) -> Result<Self, String> {
        let version = r.u8()?;
        if version == 0 || version > TRACE_PAYLOAD_VERSION {
            return Err(format!("unknown version {version}"));
        }
        let n_stages = usize::from(r.u8()?);
        if n_stages != TRACE_STAGES {
            return Err(format!("spans carry {n_stages} stages, expected {TRACE_STAGES}"));
        }
        let n_decode = usize::from(r.u8()?);
        if n_decode != DECODE_STAGES {
            return Err(format!("{n_decode} decode stages, expected {DECODE_STAGES}"));
        }
        let mut decode_stages = [(0u64, 0u64); DECODE_STAGES];
        for entry in &mut decode_stages {
            *entry = (r.u64()?, r.u64()?);
        }
        let mut lists: [Vec<TraceSpan>; 2] = [Vec::new(), Vec::new()];
        for list in &mut lists {
            // The count is checked against the bytes behind it before it
            // sizes the list.
            let count = r.count_u16(TraceSpan::WIRE_LEN)?;
            list.reserve_exact(count);
            for _ in 0..count {
                let id = r.u64()?;
                let source = r.u64()?;
                let start_us = r.u64()?;
                let frame = r.u8()?;
                let ok = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("span ok flag is {other}, expected 0|1")),
                };
                let mut stamps = [STAMP_UNSET; TRACE_STAGES];
                for stamp in &mut stamps {
                    *stamp = r.u32()?;
                }
                list.push(TraceSpan { id, source, start_us, frame, ok, stamps });
            }
        }
        r.finish()?;
        let [recent, slow] = lists;
        Ok(Self { recent, slow, decode_stages })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished_span(tracer: &Tracer, frame: u8, ok: bool) -> SpanCtx {
        let mut ctx = tracer.begin(frame, 7);
        for stage in TraceStage::ALL {
            ctx.stamp(stage);
        }
        tracer.finish(ctx, ok);
        ctx
    }

    #[test]
    fn sampling_keeps_every_nth_span() {
        let tracer = Tracer::new(TraceConfig {
            capacity: 64,
            sample_every: 4,
            slow_threshold_us: 0,
            slow_capacity: 0,
        });
        for _ in 0..16 {
            finished_span(&tracer, crate::protocol::DECODE, true);
        }
        let report = tracer.drain();
        assert_eq!(report.recent.len(), 4, "ids 0,4,8,12");
        assert!(report.recent.windows(2).all(|w| w[0].id < w[1].id), "oldest first");
        assert_eq!(report.recent[0].id % 4, 0);
        assert!(report.slow.is_empty());
        // Drained: a second poll sees nothing new.
        assert!(tracer.drain().recent.is_empty());
    }

    #[test]
    fn slow_requests_are_always_captured() {
        // sample_every = 0 keeps nothing by sampling; threshold of 1µs
        // makes every request slow.
        let tracer = Tracer::new(TraceConfig {
            capacity: 8,
            sample_every: 0,
            slow_threshold_us: 1,
            slow_capacity: 4,
        });
        for i in 0..6 {
            let mut ctx = tracer.begin(crate::protocol::DECODE, 100 + i);
            std::thread::sleep(std::time::Duration::from_micros(50));
            ctx.stamp(TraceStage::ReplyWritten);
            tracer.finish(ctx, true);
        }
        let report = tracer.drain();
        assert_eq!(report.slow.len(), 4, "slow log bounded, oldest evicted");
        assert_eq!(report.slow.last().unwrap().id, 5);
        assert!(report.recent.len() >= 4, "slow spans also land in the ring");
        let (finished, kept, slow) = tracer.counters();
        assert_eq!((finished, kept, slow), (6, 6, 6));
        // Slow log is retained across polls.
        assert_eq!(tracer.drain().slow.len(), 4);
    }

    #[test]
    fn unsampled_fast_spans_are_dropped() {
        let tracer = Tracer::new(TraceConfig {
            capacity: 8,
            sample_every: 0,
            slow_threshold_us: 60_000_000,
            slow_capacity: 4,
        });
        finished_span(&tracer, crate::protocol::DECODE, true);
        let (finished, kept, slow) = tracer.counters();
        assert_eq!((finished, kept, slow), (1, 0, 0));
        assert!(tracer.drain().recent.is_empty());
    }

    #[test]
    fn ring_overwrites_oldest() {
        let tracer = Tracer::new(TraceConfig {
            capacity: 4,
            sample_every: 1,
            slow_threshold_us: 0,
            slow_capacity: 0,
        });
        for _ in 0..10 {
            finished_span(&tracer, crate::protocol::PING, true);
        }
        let report = tracer.drain();
        assert_eq!(report.recent.len(), 4);
        assert_eq!(report.recent.iter().map(|s| s.id).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn span_stamps_are_monotonic_and_total_is_last() {
        let tracer = Tracer::new(TraceConfig { sample_every: 1, ..TraceConfig::default() });
        let mut ctx = tracer.begin(crate::protocol::DECODE, 3);
        for stage in TraceStage::ALL {
            ctx.stamp(stage);
        }
        tracer.finish(ctx, true);
        let report = tracer.drain();
        let span = report.recent[0];
        let stamps = span.stamps;
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "stamps in order: {stamps:?}");
        assert_eq!(span.total_us(), stamps[TraceStage::ReplyWritten.index()]);
        assert_eq!(span.stage_us(TraceStage::Admitted), Some(stamps[0]));
    }

    #[test]
    fn unreached_stages_read_back_as_none() {
        let tracer = Tracer::new(TraceConfig { sample_every: 1, ..TraceConfig::default() });
        let mut ctx = tracer.begin(crate::protocol::DECODE, 3);
        ctx.stamp(TraceStage::Admitted);
        tracer.finish(ctx, false);
        let span = tracer.drain().recent[0];
        assert!(!span.ok);
        assert_eq!(span.stage_us(TraceStage::Enqueued), None);
        assert_eq!(span.total_us(), span.stamps[TraceStage::Admitted.index()]);
    }

    #[test]
    fn decode_stage_accumulators_sum_by_stage() {
        let tracer = Tracer::new(TraceConfig::default());
        tracer.record_decode_stage(DecodeStage::Forward, 100);
        tracer.record_decode_stage(DecodeStage::Forward, 50);
        tracer.record_decode_stage(DecodeStage::Parse, 7);
        let report = tracer.drain();
        assert_eq!(report.decode_stages[DecodeStage::Forward.index()], (2, 150));
        assert_eq!(report.decode_stages[DecodeStage::Parse.index()], (1, 7));
        assert_eq!(report.decode_stages[DecodeStage::Plan.index()], (0, 0));
    }

    fn sample_report() -> TraceReport {
        let tracer = Tracer::new(TraceConfig {
            capacity: 16,
            sample_every: 1,
            slow_threshold_us: 1,
            slow_capacity: 4,
        });
        let mut ctx = tracer.begin(crate::protocol::DECODE, 42);
        ctx.stamp(TraceStage::Admitted);
        ctx.stamp(TraceStage::Enqueued);
        std::thread::sleep(std::time::Duration::from_micros(50));
        ctx.stamp(TraceStage::ReplyWritten);
        tracer.finish(ctx, true);
        let mut ctx = tracer.begin(crate::protocol::DECODE_BATCH, 43);
        ctx.stamp(TraceStage::Admitted);
        tracer.finish(ctx, false);
        tracer.record_decode_stage(DecodeStage::Forward, 1234);
        tracer.drain()
    }

    #[test]
    fn trace_payload_round_trips() {
        let report = sample_report();
        assert!(!report.recent.is_empty());
        assert!(!report.slow.is_empty());
        let parsed = TraceReport::from_payload(&report.to_payload()).expect("round trip");
        assert_eq!(parsed, report);
        // Empty reports round-trip too.
        let empty = TraceReport::default();
        assert_eq!(TraceReport::from_payload(&empty.to_payload()).unwrap(), empty);
    }

    #[test]
    fn malformed_trace_payloads_are_rejected() {
        let good = sample_report().to_payload();
        assert!(TraceReport::from_payload(&good).is_ok());

        let mut bad_version = good.clone();
        bad_version[0] = TRACE_PAYLOAD_VERSION + 1;
        assert!(TraceReport::from_payload(&bad_version).unwrap_err().contains("version"));
        bad_version[0] = 0;
        assert!(TraceReport::from_payload(&bad_version).is_err());

        let mut bad_stages = good.clone();
        bad_stages[1] = 5;
        assert!(TraceReport::from_payload(&bad_stages).unwrap_err().contains("stages"));

        let mut bad_decode = good.clone();
        bad_decode[2] = 9;
        assert!(TraceReport::from_payload(&bad_decode).unwrap_err().contains("decode"));

        // Every truncation point is caught.
        for len in 0..good.len() {
            assert!(TraceReport::from_payload(&good[..len]).is_err(), "truncated at {len}");
        }

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(TraceReport::from_payload(&trailing).unwrap_err().contains("trailing"));

        // A span count pointing past the end of the payload is a
        // truncation, not a crash.
        let mut huge_count = good.clone();
        let counts_at = 3 + DECODE_STAGES * 16;
        huge_count[counts_at..counts_at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(TraceReport::from_payload(&huge_count).is_err());

        // Corrupt ok flag inside the first span.
        let mut bad_ok = good.clone();
        let ok_at = counts_at + 2 + 8 + 8 + 8 + 1;
        bad_ok[ok_at] = 2;
        assert!(TraceReport::from_payload(&bad_ok).unwrap_err().contains("ok flag"));
    }

    #[test]
    fn span_wire_len_matches_encoder() {
        let mut report = TraceReport::default();
        report.recent.push(TraceSpan {
            id: 1,
            source: 2,
            start_us: 3,
            frame: 0x01,
            ok: true,
            stamps: [STAMP_UNSET; TRACE_STAGES],
        });
        let base = TraceReport::default().to_payload().len();
        assert_eq!(report.to_payload().len(), base + TraceSpan::WIRE_LEN);
    }
}
