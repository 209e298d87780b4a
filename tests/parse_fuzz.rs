//! Seeded fuzzing of every parser that faces untrusted bytes: the `.easz`
//! container, the pure protocol payload codecs, and a live server fed
//! mutated frames over real sockets.
//!
//! 10 000 deterministic cases per run (xorshift-seeded, so a failure
//! reproduces by case index). The contract under test is uniform:
//! untrusted input is answered with a **typed** `EaszError` / error frame —
//! never a panic, never a connection left owing a reply, and never an
//! allocation sized from unvalidated header fields (the dimension-bomb
//! mutations would abort the process long before the assertion if the
//! `MAX_PIXELS` budget were not enforced up front).
//!
//! Beside the random sweeps, one deterministic sweep holds every exact
//! layout (container, mask side channel, `ERROR`, `IMAGE`, `DECODE_BATCH`,
//! STATS v1–v4, TRACE) to its contract: every strict prefix and one
//! trailing byte are rejected.

use easz::codecs::{JpegLikeCodec, Quality};
use easz::core::{EaszConfig, EaszDecoder, EaszEncoded, EaszEncoder, MaskStrategy};
use easz::core::{Reconstructor, ReconstructorConfig};
use easz::data::Dataset;
use easz::server::{protocol, EaszClient, EaszServer, ErrorCode, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

const CONTAINER_CASES: usize = 8000;
const PAYLOAD_CASES: usize = 1500;
const SOCKET_CASES: usize = 500;

/// Deterministic per-case PRNG (split-mix seeded xorshift).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x0123_4567_89AB_CDEF))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// Seed corpus: genuine containers across strategies, geometries and all
/// three format versions (the quantized opt-in produces a v2 header, a
/// nonzero zoo model id a v3 one).
fn corpus() -> Vec<Vec<u8>> {
    let codec = JpegLikeCodec::new();
    let mut out = Vec::new();
    for (strategy, quantized, model_id, side, index) in [
        (MaskStrategy::Proposed, false, 0u8, 32usize, 1usize),
        (MaskStrategy::Random, false, 0, 64, 2),
        (MaskStrategy::Diagonal, false, 0, 32, 3),
        (MaskStrategy::Proposed, true, 0, 64, 4),
        (MaskStrategy::Proposed, false, 1, 32, 5),
    ] {
        let cfg =
            EaszConfig { strategy, allow_quantized: quantized, model_id, ..EaszConfig::default() };
        let encoder = EaszEncoder::new(cfg).expect("encoder");
        let img = Dataset::KodakLike.image(index).crop(0, 0, side, side);
        out.push(encoder.compress(&img, &codec, Quality::new(80)).expect("compress").to_bytes());
    }
    out
}

/// One mutated variant of `base`: bit flips, truncation, extension, a
/// splice of two corpus members, or a dimension bomb in the header.
fn mutate(rng: &mut Rng, base: &[u8], other: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    match rng.below(7) {
        // Flip 1..=8 random bytes anywhere (header, mask channel, payload).
        0 | 1 => {
            for _ in 0..=rng.below(8) {
                let at = rng.below(bytes.len());
                bytes[at] ^= (rng.next() as u8).max(1);
            }
        }
        // Truncate to a random prefix (including the empty container).
        2 => bytes.truncate(rng.below(bytes.len() + 1)),
        // Append trailing garbage, which the exact-length rule must catch.
        3 => bytes.extend((0..=rng.below(64)).map(|_| rng.next() as u8)),
        // Splice: head of one genuine container, tail of another.
        4 => {
            let cut = rng.below(bytes.len());
            bytes.truncate(cut);
            let from = rng.below(other.len());
            bytes.extend_from_slice(&other[from..]);
        }
        // Dimension bomb: per-side-plausible but terabyte-scale canvas.
        5 => {
            let (w, h) = ((1u32 << (10 + rng.below(10))), (1u32 << (10 + rng.below(10))));
            bytes[14..18].copy_from_slice(&w.to_le_bytes());
            bytes[18..22].copy_from_slice(&h.to_le_bytes());
        }
        // Model-id byte: random value, sometimes paired with a version
        // flip, probing the reserved-byte rejection (v1/v2) against the
        // routing field it became (v3).
        _ => {
            bytes[9] = rng.next() as u8;
            if rng.below(2) == 0 {
                bytes[4] = 1 + (rng.next() % 3) as u8;
            }
        }
    }
    bytes
}

#[test]
fn container_mutation_sweep_never_panics_and_errors_are_typed() {
    let corpus = corpus();
    // Weights are irrelevant to parse behaviour; the small geometry keeps
    // the few mutants that still decode end-to-end cheap.
    let model = Reconstructor::new(ReconstructorConfig::fast());
    let decoder = EaszDecoder::new(&model);
    let (mut parsed_ok, mut decoded_ok) = (0usize, 0usize);
    for case in 0..CONTAINER_CASES {
        let mut rng = Rng::new(case as u64);
        let base = &corpus[rng.below(corpus.len())];
        let other = &corpus[rng.below(corpus.len())];
        let bytes = mutate(&mut rng, base, other);
        // The whole assertion: this returns (typed) instead of panicking
        // or allocating from a bomb header.
        match EaszEncoded::from_bytes(&bytes) {
            Ok(parsed) => {
                parsed_ok += 1;
                // Round-trip sanity: whatever parses must re-serialize.
                let _ = parsed.to_bytes();
                // A parsed container may still fail decode (mutated mask
                // channel, garbage inner bitstream, bomb dimensions) —
                // but only with a typed error. Decode a slice of the
                // survivors so the sweep stays fast.
                if case % 4 == 0 {
                    match decoder.decode(&parsed) {
                        Ok(_) => decoded_ok += 1,
                        Err(e) => {
                            let _ = e.to_string(); // every error displays
                        }
                    }
                }
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
    // The sweep must exercise both sides of the parser, or the corpus /
    // mutators have rotted into triviality.
    assert!(parsed_ok > 0, "no mutant parsed: mutation sweep too destructive");
    assert!(
        parsed_ok < CONTAINER_CASES,
        "every mutant parsed: mutation sweep not destructive enough"
    );
    // decoded_ok is allowed to be 0 (most surviving parses carry a
    // corrupted inner payload), it exists to keep the decode loop honest.
    let _ = decoded_ok;
}

#[test]
fn protocol_payload_parsers_never_panic_on_garbage() {
    for case in 0..PAYLOAD_CASES {
        let mut rng = Rng::new(0x5EED_0000 + case as u64);
        let len = rng.below(256);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        // Every pure payload parser on the reply and request paths.
        let _ = protocol::WireError::from_payload(&bytes);
        let _ = protocol::decode_image(&bytes);
        let _ = protocol::decode_batch_payload(&bytes, 64);
        // And the batch parser against a length-field-consistent but
        // content-garbage batch, which exercises the per-entry bounds.
        let entries: Vec<&[u8]> = bytes.chunks(17).collect();
        let refs: Vec<&[u8]> = entries.clone();
        let encoded = protocol::encode_batch(&refs);
        let decoded = protocol::decode_batch_payload(&encoded, 64).expect("self-encoded batch");
        assert_eq!(decoded.len(), refs.len());
    }
}

#[test]
fn live_server_survives_mutated_frames_and_always_settles() {
    let model = Arc::new(Reconstructor::new(ReconstructorConfig::fast()));
    let config = ServerConfig { max_frame_len: 1 << 20, ..ServerConfig::default() };
    let handle = EaszServer::new(model).with_config(config).spawn("127.0.0.1:0").expect("spawn");
    let mut corpus = corpus();
    let request_types = [
        protocol::DECODE,
        protocol::DECODE_BATCH,
        protocol::PING,
        protocol::STATS,
        protocol::DECODE_TIERED,
        protocol::DECODE_BATCH_TIERED,
    ];

    for case in 0..SOCKET_CASES {
        let mut rng = Rng::new(0xF0A_0000 + case as u64);
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_read_timeout(Some(std::time::Duration::from_secs(20))).expect("read timeout");

        // Build a well-lengthed frame around a mutated payload: a random
        // known request type (or a fully random byte), carrying either a
        // mutated container, random bytes, or an empty payload.
        let frame_type = if rng.below(4) == 0 {
            rng.next() as u8
        } else {
            request_types[rng.below(request_types.len())]
        };
        let payload = match rng.below(4) {
            0 => Vec::new(),
            1 => (0..rng.below(128)).map(|_| rng.next() as u8).collect(),
            _ => {
                let base = &corpus[rng.below(corpus.len())];
                let other = &corpus[rng.below(corpus.len())];
                mutate(&mut rng, base, other)
            }
        };

        if rng.below(4) == 0 {
            // Truncation case: announce more than is sent, then half-close
            // so the server observes EOF mid-frame. No reply is owed, and
            // the server must simply drop the connection.
            let mut wire = vec![frame_type];
            wire.extend_from_slice(&(payload.len() as u32 + 7).to_le_bytes());
            wire.extend_from_slice(&payload);
            stream.write_all(&wire).expect("write truncated frame");
            stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        } else {
            protocol::write_frame(&mut stream, frame_type, &payload).expect("write frame");
        }

        // Settle: the first reply frame (if any) must parse with the
        // reference reader, and error frames must carry a decodable
        // WireError. A truncated request owes no reply (EOF is the correct
        // settle), a complete one owes at least one frame; either way the
        // server must answer or close — never hang (the generous read
        // timeout above only trips on a genuine bug). Dropping the stream
        // right after the first frame also abandons batch replies
        // mid-stream, which the server must absorb as a disconnect.
        match protocol::read_frame(&mut stream, 1 << 24) {
            Ok(None) => {}
            Ok(Some((ty, reply))) => {
                if ty == protocol::ERROR {
                    let err = protocol::WireError::from_payload(&reply).expect("typed error frame");
                    let _ = err.code;
                }
            }
            Err(e) => panic!("case {case}: reply stream failed: {e}"),
        }
        drop(stream);
    }

    // After the entire sweep the server still serves clean requests.
    let mut client = EaszClient::connect(handle.addr()).expect("connect");
    let good = corpus.remove(0);
    match client.decode(&good) {
        Ok(_) => {}
        Err(easz::server::ClientError::Remote(e)) => {
            panic!("server must still decode the pristine container, got {:?}", e.code)
        }
        Err(e) => panic!("server unusable after fuzz sweep: {e}"),
    }
    assert_eq!(client.ping().expect("ping"), protocol::PROTOCOL_VERSION);
    let stats = client.stats().expect("stats");
    assert!(stats.decode_requests > 0, "the sweep must have reached the decode path");
    assert!(
        stats.error_count(ErrorCode::UnknownFrame) > 0,
        "the sweep must have exercised unknown frame types"
    );
    drop(client);
    handle.shutdown().expect("clean shutdown");
}

/// The exact-layout contract on one valid instance: it parses, while every
/// strict prefix and the instance plus one trailing byte are rejected — and
/// nothing on the way panics.
fn assert_exact<T, E>(name: &str, valid: &[u8], parse: impl Fn(&[u8]) -> Result<T, E>) {
    assert!(parse(valid).is_ok(), "{name}: the valid instance must parse");
    for len in 0..valid.len() {
        assert!(parse(&valid[..len]).is_err(), "{name}: the {len}-byte prefix must be rejected");
    }
    let mut long = valid.to_vec();
    long.push(0);
    assert!(parse(&long).is_err(), "{name}: one trailing byte must be rejected");
}

#[test]
fn every_exact_layout_rejects_every_prefix_and_a_trailing_byte() {
    use easz::core::{EraseMask, MaskKind};
    use easz::image::{Channels, ImageU8};
    use easz::server::{ServerMetrics, ServerStats, TraceReport, TraceSpan, LATENCY_BUCKETS};

    // The container and its mask side channel, across strategies and
    // format versions; plus a grid whose cells end mid-byte (pad bits).
    for (i, container) in corpus().iter().enumerate() {
        assert_exact(&format!("container {i}"), container, EaszEncoded::from_bytes);
        let mask = EaszEncoded::from_bytes(container).expect("corpus parses").mask_bytes;
        assert_exact(&format!("mask of container {i}"), &mask, EraseMask::from_bytes);
    }
    let padded = MaskKind::Diagonal { n_grid: 3 }.generate(0).to_bytes();
    assert_exact("3x3 mask", &padded, EraseMask::from_bytes);

    // The request and reply payloads.
    let error = protocol::WireError { code: ErrorCode::Malformed, message: "no such grid".into() };
    assert_exact("ERROR", &error.to_payload(), protocol::WireError::from_payload);
    let image = ImageU8::from_vec(3, 2, Channels::Rgb, (0..18).collect());
    assert_exact("IMAGE", &protocol::encode_image(&image), protocol::decode_image);
    let batch = protocol::encode_batch(&[b"one", b"", b"three"]);
    assert_exact("DECODE_BATCH", &batch, |b| {
        protocol::decode_batch_payload(b, 64).map(|c| c.len())
    });

    // STATS at every payload version: each is the v4 payload cut after its
    // own last block, with its version byte.
    let metrics = ServerMetrics::new();
    metrics.record_requests(3);
    metrics.record_error(ErrorCode::BadMagic);
    metrics.record_error(ErrorCode::Protocol);
    metrics.record_connection_open();
    metrics.record_service(900);
    let v4 = metrics.snapshot().to_payload();
    let v3_len = v4.len() - (1 + 3 * LATENCY_BUCKETS * 8);
    for (version, len) in [(1u8, v3_len - 8 * 8), (2, v3_len - 3 * 8), (3, v3_len), (4, v4.len())] {
        let mut payload = v4[..len].to_vec();
        payload[0] = version;
        assert_exact(&format!("STATS v{version}"), &payload, ServerStats::from_payload);
    }

    // TRACE, with spans in both lists.
    let span = |id| TraceSpan {
        id,
        source: 7,
        start_us: 100 * id,
        frame: protocol::DECODE,
        ok: id % 2 == 0,
        stamps: [id as u32; easz::server::TRACE_STAGES],
    };
    let report =
        TraceReport { recent: vec![span(1), span(2)], slow: vec![span(3)], ..Default::default() };
    assert_exact("TRACE", &report.to_payload(), TraceReport::from_payload);
}
