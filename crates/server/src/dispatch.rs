//! The transport-free protocol core: every decision the wire contract
//! (`docs/FORMAT.md` §2) asks of a server is made here, once, for both
//! front ends.
//!
//! [`Dispatch::dispatch`] turns one assembled `(frame type, payload)` into
//! exactly one [`Action`]: a serialized reply frame, a reply after which the
//! connection closes, or the [`Members`] of a decode request — its
//! containers parsed lazily, in request order, each either ready to decode
//! or already answered by its positional `ERROR` frame. [`reply_frame`] is
//! the one `Result -> IMAGE/ERROR` serializer and [`Dispatch::finish`] the
//! one place a decode reply's telemetry closes. Admission is one rule too:
//! every parsed member goes to the gateway, and one it refuses is answered
//! by [`Dispatch::shed`]. A front end keeps only its I/O: how frames come
//! off a socket and how reply bytes go back.

use crate::metrics::ServerMetrics;
use crate::protocol::{self, EngineTier, ErrorCode, WireError};
use crate::trace::{SpanCtx, TraceStage, Tracer};
use easz_core::{DecodeEngine, EaszEncoded, EaszError};
use easz_image::ImageF32;
use std::time::Instant;

/// What one inbound frame asks of the connection it arrived on.
pub(crate) enum Action<'p> {
    /// Answer with this serialized frame; the connection stays open.
    Reply(Vec<u8>),
    /// Answer with this serialized frame, then close: the peer speaks
    /// something else and framing can no longer be trusted.
    ReplyThenClose(Vec<u8>),
    /// A decode request; every member is owed one reply, in order.
    Decode(Members<'p>),
}

/// One container of a decode request.
pub(crate) struct Member {
    /// The container's trace span (`None` with tracing off), stamped
    /// `Admitted`. Parse failures carry one too: their unreached stages
    /// simply stay unset.
    pub span: Option<SpanCtx>,
    /// The parsed container and the engine it decodes on — or, when it did
    /// not parse, its positional `ERROR` frame, already counted.
    pub request: Result<(EaszEncoded, DecodeEngine), Vec<u8>>,
}

/// The protocol core's view of a server: its batch limit and where its
/// telemetry goes.
#[derive(Clone, Copy)]
pub(crate) struct Dispatch<'a> {
    /// Largest container count accepted in one batch frame.
    pub max_batch: usize,
    pub metrics: &'a ServerMetrics,
    /// The request tracer, when tracing is enabled.
    pub tracer: Option<&'a Tracer>,
}

impl<'a> Dispatch<'a> {
    /// Decides what `frame_type` carrying `payload` asks for. `source` is
    /// the connection's id, recorded on the spans of decode members.
    pub fn dispatch<'p>(self, frame_type: u8, payload: &'p [u8], source: u64) -> Action<'p>
    where
        'a: 'p,
    {
        let len = payload.len();
        match frame_type {
            protocol::DECODE
            | protocol::DECODE_TIERED
            | protocol::DECODE_BATCH
            | protocol::DECODE_BATCH_TIERED => {
                self.decode_request(frame_type, payload, source).unwrap_or_else(|message| {
                    Action::Reply(error_frame(self.metrics, ErrorCode::Protocol, message))
                })
            }
            protocol::PING if len == 1 => {
                Action::Reply(protocol::frame_bytes(protocol::PONG, &[protocol::PROTOCOL_VERSION]))
            }
            protocol::STATS if len == 0 => Action::Reply(protocol::frame_bytes(
                protocol::STATS_REPLY,
                &self.metrics.snapshot().to_payload(),
            )),
            protocol::TRACE if len == 0 => {
                // With tracing off the reply is a valid empty report, so
                // inspectors degrade instead of erroring.
                let report = self.tracer.map(Tracer::drain).unwrap_or_default();
                Action::Reply(protocol::frame_bytes(protocol::TRACE_REPLY, &report.to_payload()))
            }
            protocol::PING | protocol::STATS | protocol::TRACE => {
                let message = match frame_type {
                    protocol::PING => format!("ping payload must be 1 byte, got {len}"),
                    protocol::STATS => format!("stats payload must be empty, got {len}"),
                    _ => format!("trace payload must be empty, got {len}"),
                };
                Action::Reply(error_frame(self.metrics, ErrorCode::Protocol, message))
            }
            other => Action::ReplyThenClose(error_frame(
                self.metrics,
                ErrorCode::UnknownFrame,
                format!("unknown frame type 0x{other:02x}"),
            )),
        }
    }

    /// Validates a decode-family frame's envelope — the tier byte of the
    /// tiered types, the entry table of the batch types — and counts its
    /// containers as requests. `Err` is the `PROTOCOL` message of an
    /// unhonourable envelope: one error answers the whole frame, nothing
    /// was counted and the connection stays open.
    fn decode_request<'p>(
        self,
        frame_type: u8,
        payload: &'p [u8],
        source: u64,
    ) -> Result<Action<'p>, String>
    where
        'a: 'p,
    {
        // A tiered request prefixes its body with one engine byte that
        // overrides every container's standing preference.
        let tiered = matches!(frame_type, protocol::DECODE_TIERED | protocol::DECODE_BATCH_TIERED);
        let (tier, body) = if tiered {
            let (&byte, body) =
                payload.split_first().ok_or("tiered request is missing its engine byte")?;
            let tier = EngineTier::from_byte(byte)
                .ok_or_else(|| format!("unknown engine tier byte {byte}"))?;
            (Some(tier), body)
        } else {
            (None, payload)
        };
        let containers = if matches!(frame_type, protocol::DECODE | protocol::DECODE_TIERED) {
            Containers::One(Some(body))
        } else {
            Containers::Many(protocol::decode_batch_payload(body, self.max_batch)?.into_iter())
        };
        self.metrics.record_requests(containers.len() as u64);
        Ok(Action::Decode(Members { core: self, frame_type, source, tier, containers }))
    }

    /// The `OVERSIZE` frame for a header announcing more than `limit`
    /// bytes. Unread payload follows it, so framing is lost: the front end
    /// sends this and closes.
    pub fn oversize(&self, announced: usize, limit: usize) -> Vec<u8> {
        error_frame(
            self.metrics,
            ErrorCode::Oversize,
            format!("frame announces {announced} bytes, limit is {limit}"),
        )
    }

    /// The positional `BUSY` reply of a parsed decode member the gateway
    /// refused (queue full or shutting down), counted as shed. Both front
    /// ends answer a refusal with exactly this: nothing decodes outside the
    /// gateway.
    pub fn shed(&self) -> Vec<u8> {
        self.metrics.record_request_shed();
        let message = "decode queue is saturated, retry later".into();
        error_frame(self.metrics, ErrorCode::Busy, message)
    }

    /// Closes a decode member's telemetry once its reply bytes are handed
    /// to the socket: the service-time sample, clocked from `received`
    /// (when the request's frame was assembled), and the span's last stamp.
    /// Every member gets exactly this, whether it parsed, decoded, was shed
    /// or failed.
    pub fn finish(&self, received: Instant, span: Option<SpanCtx>, ok: bool) {
        self.metrics.record_service(received.elapsed().as_micros() as u64);
        if let (Some(tracer), Some(mut span)) = (self.tracer, span) {
            span.stamp(TraceStage::ReplyWritten);
            tracer.finish(span, ok);
        }
    }
}

/// The container byte ranges of a decode request. A single `DECODE` owns no
/// heap: only a batch has an entry table to hold.
enum Containers<'p> {
    One(Option<&'p [u8]>),
    Many(std::vec::IntoIter<&'p [u8]>),
}

impl<'p> Containers<'p> {
    fn len(&self) -> usize {
        match self {
            Self::One(container) => usize::from(container.is_some()),
            Self::Many(containers) => containers.len(),
        }
    }

    fn next(&mut self) -> Option<&'p [u8]> {
        match self {
            Self::One(container) => container.take(),
            Self::Many(containers) => containers.next(),
        }
    }
}

/// The members of one decode request, parsed as they are drawn so a batch
/// never holds more parsed containers than its front end has taken.
pub(crate) struct Members<'p> {
    core: Dispatch<'p>,
    frame_type: u8,
    source: u64,
    tier: Option<EngineTier>,
    containers: Containers<'p>,
}

impl Iterator for Members<'_> {
    type Item = Member;

    fn next(&mut self) -> Option<Member> {
        let container = self.containers.next()?;
        let span = self.core.tracer.map(|tracer| {
            let mut span = tracer.begin(self.frame_type, self.source);
            span.stamp(TraceStage::Admitted);
            span
        });
        let request = match EaszEncoded::from_bytes(container) {
            Ok(encoded) => {
                let engine =
                    self.tier.map_or_else(|| encoded.preferred_engine(), EngineTier::engine);
                Ok((encoded, engine))
            }
            Err(e) => Err(reply_frame(self.core.metrics, Err(e))),
        };
        Some(Member { span, request })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.containers.len();
        (len, Some(len))
    }
}

impl ExactSizeIterator for Members<'_> {}

/// Serializes a decode outcome into its reply frame — `IMAGE` or the typed
/// `ERROR` — counting the outcome and, for errors, the code. Takes the
/// registry alone so a gateway reply callback can serialize on its worker
/// thread.
pub(crate) fn reply_frame(metrics: &ServerMetrics, result: Result<ImageF32, EaszError>) -> Vec<u8> {
    metrics.record_decode(result.is_ok());
    match result {
        Ok(image) => protocol::image_frame(&image.to_u8()),
        Err(e) => {
            let err = WireError::from_easz(&e);
            error_frame(metrics, err.code, err.message)
        }
    }
}

/// Serializes one typed `ERROR` frame, counting it under its code.
pub(crate) fn error_frame(metrics: &ServerMetrics, code: ErrorCode, message: String) -> Vec<u8> {
    metrics.record_error(code);
    protocol::frame_bytes(protocol::ERROR, &WireError { code, message }.to_payload())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ServerStats;
    use crate::test_rng::Rng;
    use crate::trace::{TraceConfig, STAMP_UNSET};
    use easz_codecs::{JpegLikeCodec, Quality};
    use easz_core::{EaszConfig, EaszEncoder};
    use easz_data::Dataset;

    const MAX_BATCH: usize = 4;
    const SOURCE: u64 = 7;

    fn container() -> Vec<u8> {
        let enc = EaszEncoder::new(EaszConfig::default()).expect("encoder");
        let img = Dataset::KodakLike.image(0).crop(0, 0, 64, 64);
        enc.compress(&img, &JpegLikeCodec::new(), Quality::new(75)).expect("compress").to_bytes()
    }

    /// What one frame must turn into.
    #[derive(Debug)]
    enum Expect {
        /// A non-error reply of this type; nothing is counted.
        Reply(u8),
        /// One `ERROR` frame with exactly this code and message, counted
        /// under the code; the connection closes iff `close`.
        Error { code: ErrorCode, message: String, close: bool },
        /// Decode members in order: the engine a parsed container decodes
        /// on, or the code of its positional error.
        Members(Vec<Result<DecodeEngine, ErrorCode>>),
    }

    fn protocol(message: impl Into<String>) -> Expect {
        Expect::Error { code: ErrorCode::Protocol, message: message.into(), close: false }
    }

    /// The member a lone container must turn into: `easz-core`'s parser is
    /// the oracle for container-level codes, the core only carries them.
    fn member(container: &[u8], tier: Option<EngineTier>) -> Result<DecodeEngine, ErrorCode> {
        EaszEncoded::from_bytes(container)
            .map(|e| tier.map_or_else(|| e.preferred_engine(), EngineTier::engine))
            .map_err(|e| ErrorCode::of(&e))
    }

    fn parse_error(frame: &[u8]) -> WireError {
        let (ty, payload) = protocol::read_frame(&mut &frame[..], 1 << 20)
            .expect("a serialized frame reads back")
            .expect("one frame");
        assert_eq!(ty, protocol::ERROR, "expected an ERROR frame");
        WireError::from_payload(&payload).expect("wire error")
    }

    fn bump_error(stats: &mut ServerStats, code: ErrorCode) {
        match stats.errors.iter_mut().find(|(c, _)| *c == code.value()) {
            Some((_, n)) => *n += 1,
            None => {
                stats.errors.push((code.value(), 1));
                stats.errors.sort_unstable();
            }
        }
    }

    /// Dispatches one frame and holds the action, the frames and the exact
    /// metrics delta to `expect`.
    fn check(core: Dispatch<'_>, name: &str, frame_type: u8, payload: &[u8], expect: &Expect) {
        let mut want = core.metrics.snapshot();
        let action = core.dispatch(frame_type, payload, SOURCE);
        match (action, expect) {
            (Action::Reply(frame), Expect::Reply(reply_type)) => {
                assert_eq!(frame[0], *reply_type, "{name}: reply type");
                let announced = u32::from_le_bytes(frame[1..5].try_into().expect("4 bytes"));
                assert_eq!(announced as usize, frame.len() - 5, "{name}: reply length");
            }
            (Action::Reply(frame), Expect::Error { code, message, close: false })
            | (Action::ReplyThenClose(frame), Expect::Error { code, message, close: true }) => {
                let err = parse_error(&frame);
                assert_eq!((err.code, &err.message), (*code, message), "{name}");
                bump_error(&mut want, *code);
            }
            (Action::Decode(members), Expect::Members(expected)) => {
                assert_eq!(members.len(), expected.len(), "{name}: announced member count");
                want.decode_requests += expected.len() as u64;
                let members: Vec<Member> = members.collect();
                assert_eq!(members.len(), expected.len(), "{name}: yielded member count");
                for (i, (member, expected)) in members.into_iter().zip(expected).enumerate() {
                    assert_eq!(member.span.is_some(), core.tracer.is_some(), "{name}[{i}]: span");
                    match (member.request, expected) {
                        (Ok((_, engine)), Ok(want_engine)) => {
                            assert_eq!(engine, *want_engine, "{name}[{i}]: engine")
                        }
                        (Err(frame), Err(code)) => {
                            assert_eq!(parse_error(&frame).code, *code, "{name}[{i}]");
                            want.decode_err += 1;
                            bump_error(&mut want, *code);
                        }
                        (got, _) => {
                            panic!("{name}[{i}]: parsed={} but expected {expected:?}", got.is_ok())
                        }
                    }
                }
            }
            (action, _) => {
                let got = match action {
                    Action::Reply(_) => "Reply",
                    Action::ReplyThenClose(_) => "ReplyThenClose",
                    Action::Decode(_) => "Decode",
                };
                panic!("{name}: got {got}, expected {expect:?}");
            }
        }
        assert_eq!(core.metrics.snapshot(), want, "{name}: metrics delta");
    }

    /// Every frame type × {valid, empty, over-long, reserved tier byte,
    /// over-`max_batch`, truncated entry table, trailing bytes}.
    #[test]
    fn every_frame_type_and_malformation_yields_one_exact_action() {
        let metrics = ServerMetrics::new();
        let core = Dispatch { max_batch: MAX_BATCH, metrics: &metrics, tracer: None };
        let c = container();
        let junk = b"not a container".to_vec();
        let with = |prefix: &[u8], body: &[u8], suffix: &[u8]| [prefix, body, suffix].concat();
        let batch = protocol::encode_batch(&[&c, &junk]);
        let over = protocol::encode_batch(&[junk.as_slice(); MAX_BATCH + 1]);
        // Cut inside the second entry's length prefix.
        let cut = &batch[..4 + 4 + c.len() + 2];
        let q8 = EngineTier::QuantizedInt8;
        let pair = |tier| Expect::Members(vec![member(&c, tier), Err(ErrorCode::Truncated)]);
        let over_limit = format!("batch of {} containers exceeds the limit of 4", MAX_BATCH + 1);
        let cut_entry = "batch entry 1 is missing its length prefix";
        let no_tier = "tiered request is missing its engine byte";

        let mut rows: Vec<(String, u8, Vec<u8>, Expect)> = Vec::new();
        let mut row = |name: &str, ty: u8, payload: Vec<u8>, expect: Expect| {
            rows.push((format!("0x{ty:02x} {name}"), ty, payload, expect));
        };

        // DECODE: any payload is one container, judged by the parser alone.
        for (name, payload) in [
            ("valid", c.clone()),
            ("empty", vec![]),
            ("over-long", with(&[], &c, &[0xAA; 3])),
            ("reserved tier byte", with(&[2], &c, &[])),
            ("over max_batch", over.clone()),
            ("truncated entry table", cut.to_vec()),
            ("trailing bytes", with(&[], &batch, &[9])),
        ] {
            let expect = Expect::Members(vec![member(&payload, None)]);
            row(name, protocol::DECODE, payload, expect);
        }
        assert_eq!(member(&c, None), Ok(DecodeEngine::TapeFree), "the valid row must parse");

        // DECODE_TIERED: the tier byte is checked, the rest is one container.
        let t = protocol::DECODE_TIERED;
        row("valid", t, with(&[1], &c, &[]), Expect::Members(vec![Ok(q8.engine())]));
        row("valid reference", t, with(&[0], &c, &[]), Expect::Members(vec![member(&c, None)]));
        row("empty", t, vec![], protocol(no_tier));
        for (name, body) in [
            ("over-long", with(&[], &c, &[0xAA; 3])),
            ("over max_batch", over.clone()),
            ("truncated entry table", cut.to_vec()),
            ("trailing bytes", with(&[], &batch, &[9])),
        ] {
            let expect = Expect::Members(vec![member(&body, Some(q8))]);
            row(name, t, with(&[1], &body, &[]), expect);
        }
        row("reserved tier byte", t, with(&[2], &c, &[]), protocol("unknown engine tier byte 2"));

        // DECODE_BATCH: the envelope is checked before any container.
        let b = protocol::DECODE_BATCH;
        row("valid", b, batch.clone(), pair(None));
        row("zero count", b, protocol::encode_batch(&[]), Expect::Members(vec![]));
        row("empty", b, vec![], protocol("batch payload shorter than its count"));
        let trailing3 = "3 trailing bytes after the batch entries";
        row("over-long", b, with(&[], &batch, &[0xAA; 3]), protocol(trailing3));
        // The stray byte shifts the count field: 0x0202 containers.
        let shifted = "batch of 514 containers exceeds the limit of 4";
        row("reserved tier byte", b, with(&[2], &batch, &[]), protocol(shifted));
        row("over max_batch", b, over.clone(), protocol(over_limit.as_str()));
        row("truncated entry table", b, cut.to_vec(), protocol(cut_entry));
        let trailing1 = "1 trailing bytes after the batch entries";
        row("trailing bytes", b, with(&[], &batch, &[9]), protocol(trailing1));

        // DECODE_BATCH_TIERED: tier byte first, then the same envelope.
        let bt = protocol::DECODE_BATCH_TIERED;
        row("valid", bt, with(&[1], &batch, &[]), pair(Some(q8)));
        row("empty", bt, vec![], protocol(no_tier));
        row("tier byte only", bt, vec![1], protocol("batch payload shorter than its count"));
        row("over-long", bt, with(&[1], &batch, &[0xAA; 3]), protocol(trailing3));
        row(
            "reserved tier byte",
            bt,
            with(&[2], &batch, &[]),
            protocol("unknown engine tier byte 2"),
        );
        row("over max_batch", bt, with(&[1], &over, &[]), protocol(over_limit.as_str()));
        row("truncated entry table", bt, with(&[1], cut, &[]), protocol(cut_entry));
        row("trailing bytes", bt, with(&[1], &batch, &[9]), protocol(trailing1));

        // PING / STATS / TRACE: only the payload length matters.
        let fixed = [
            (protocol::PING, protocol::PONG, 1usize, "ping payload must be 1 byte"),
            (protocol::STATS, protocol::STATS_REPLY, 0, "stats payload must be empty"),
            (protocol::TRACE, protocol::TRACE_REPLY, 0, "trace payload must be empty"),
        ];
        for (ty, reply, valid_len, rule) in fixed {
            for (name, payload) in [
                ("valid", vec![protocol::PROTOCOL_VERSION; valid_len]),
                ("empty", vec![]),
                ("over-long", vec![protocol::PROTOCOL_VERSION; valid_len + 1]),
                ("reserved tier byte", vec![2; valid_len + 1]),
                ("over max_batch", over.clone()),
                ("truncated entry table", cut.to_vec()),
                ("trailing bytes", with(&[], &batch, &[9])),
            ] {
                let expect = if payload.len() == valid_len {
                    Expect::Reply(reply)
                } else {
                    protocol(format!("{rule}, got {}", payload.len()))
                };
                row(name, ty, payload, expect);
            }
        }

        // Everything else — unassigned requests and the response types —
        // is answered once and closes, whatever it carries.
        for ty in [0x00, 0x08, 0x7F, protocol::IMAGE, protocol::PONG, protocol::ERROR, 0xFF] {
            for payload in [vec![], c.clone(), batch.clone()] {
                let message = format!("unknown frame type 0x{ty:02x}");
                let expect = Expect::Error { code: ErrorCode::UnknownFrame, message, close: true };
                row("unknown", ty, payload, expect);
            }
        }

        assert!(rows.len() >= 7 * 7, "the table covers the full cross product");
        for (name, ty, payload, expect) in &rows {
            check(core, name, *ty, payload, expect);
        }
    }

    #[test]
    fn stats_and_pong_replies_carry_the_live_payloads() {
        let metrics = ServerMetrics::new();
        let core = Dispatch { max_batch: MAX_BATCH, metrics: &metrics, tracer: None };
        metrics.record_requests(3);
        let Action::Reply(frame) = core.dispatch(protocol::STATS, &[], SOURCE) else {
            panic!("STATS must reply")
        };
        assert_eq!(ServerStats::from_payload(&frame[5..]).expect("stats"), metrics.snapshot());
        let Action::Reply(frame) = core.dispatch(protocol::PING, &[9], SOURCE) else {
            panic!("PING must reply")
        };
        assert_eq!(frame, protocol::frame_bytes(protocol::PONG, &[protocol::PROTOCOL_VERSION]));
    }

    #[test]
    fn every_member_parsed_or_not_carries_an_admitted_span_and_finishes_once() {
        let metrics = ServerMetrics::new();
        let tracer = Tracer::new(TraceConfig { sample_every: 1, ..TraceConfig::default() });
        let core = Dispatch { max_batch: MAX_BATCH, metrics: &metrics, tracer: Some(&tracer) };
        let batch = protocol::encode_batch(&[&container(), b"garbage"]);
        let received = Instant::now();
        let Action::Decode(members) = core.dispatch(protocol::DECODE_BATCH, &batch, SOURCE) else {
            panic!("a valid batch must yield members")
        };
        for member in members {
            let span = member.span.expect("tracing is on");
            assert!(span.stamped(TraceStage::Admitted));
            assert!(!span.stamped(TraceStage::Enqueued) && !span.stamped(TraceStage::DecodeEnd));
            core.finish(received, Some(span), member.request.is_ok());
        }
        let report = tracer.drain();
        assert_eq!(report.recent.len(), 2, "one span per member, parsed or not");
        assert_eq!(report.recent.iter().map(|s| s.ok).collect::<Vec<_>>(), [true, false]);
        for span in &report.recent {
            assert_eq!((span.frame, span.source), (protocol::DECODE_BATCH, SOURCE));
            assert_ne!(span.stamps[TraceStage::ReplyWritten.index()], STAMP_UNSET);
            assert_eq!(span.stamps[TraceStage::Dispatched.index()], STAMP_UNSET);
        }
        let service: u64 = metrics.snapshot().service_histo.iter().sum();
        assert_eq!(service, 2, "one service sample per member, parsed or not");
    }

    #[test]
    fn ten_thousand_arbitrary_frames_never_panic_and_always_reconcile() {
        let metrics = ServerMetrics::new();
        let tracer = Tracer::new(TraceConfig::default());
        let c = container();
        let seeds: [Vec<u8>; 4] = [
            c.clone(),
            protocol::encode_batch(&[&c, b"junk", &c]),
            [&[1u8][..], &c].concat(),
            [&[0u8][..], &protocol::encode_batch(&[&c])].concat(),
        ];
        let (mut decodes, mut replies, mut closes) = (0u64, 0u64, 0u64);
        for case in 0..10_000u64 {
            let mut rng = Rng::new(0xD15A_7C40 + case);
            // Half the cases trace, so the span path sees arbitrary input too.
            let tracer = (case % 2 == 0).then_some(&tracer);
            let core = Dispatch { max_batch: MAX_BATCH, metrics: &metrics, tracer };
            // Mostly assigned request types; sometimes any byte at all.
            let frame_type = match rng.below(4) {
                0 => rng.next() as u8,
                _ => 1 + rng.below(7) as u8,
            };
            let mut payload = match rng.below(3) {
                0 => (0..rng.below(96)).map(|_| rng.next() as u8).collect(),
                _ => seeds[rng.below(seeds.len())].clone(),
            };
            for _ in 0..rng.below(4) {
                match rng.below(4) {
                    0 if !payload.is_empty() => {
                        let at = rng.below(payload.len());
                        payload[at] ^= (rng.next() as u8).max(1);
                    }
                    1 => payload.truncate(rng.below(payload.len() + 1)),
                    2 => payload.extend((0..rng.below(8)).map(|_| rng.next() as u8)),
                    _ => payload.insert(0, rng.next() as u8),
                }
            }
            let before = metrics.snapshot();
            let yielded = match core.dispatch(frame_type, &payload, case) {
                Action::Decode(members) => {
                    decodes += 1;
                    let announced = members.len();
                    let yielded = members
                        .map(|member| {
                            assert_eq!(member.span.is_some(), tracer.is_some(), "case {case}");
                            if let Err(frame) = &member.request {
                                parse_error(frame);
                            }
                        })
                        .count();
                    assert_eq!(yielded, announced, "case {case}: size hint");
                    yielded as u64
                }
                Action::Reply(frame) => {
                    replies += 1;
                    assert_eq!(
                        frame.len(),
                        5 + u32::from_le_bytes(frame[1..5].try_into().unwrap()) as usize
                    );
                    0
                }
                Action::ReplyThenClose(frame) => {
                    closes += 1;
                    assert_eq!(parse_error(&frame).code, ErrorCode::UnknownFrame, "case {case}");
                    0
                }
            };
            let after = metrics.snapshot();
            assert_eq!(
                after.decode_requests - before.decode_requests,
                yielded,
                "case {case}: decode_requests must equal the members yielded"
            );
        }
        assert!(decodes > 1000 && replies > 1000 && closes > 100, "sweep too narrow to mean much");
    }
}
