//! End-to-end tracing suite: drives loopback load through both front ends
//! with tracing enabled and asserts the full observability contract — the
//! always-on latency histograms report nonzero percentiles, sampled spans
//! stamp every pipeline milestone in order, slow requests are captured
//! with per-stage breakdowns, decode-stage accumulators tick, replies stay
//! byte-identical to a local serial decode, and a tracing-disabled server
//! answers `TRACE` with a valid empty report instead of an error.

use easz::codecs::{JpegLikeCodec, Quality};
use easz::core::{
    DecodeStage, EaszConfig, EaszDecoder, EaszEncoder, Reconstructor, ReconstructorConfig,
};
use easz::data::Dataset;
use easz::image::ImageU8;
use easz::server::{
    protocol, EaszClient, EaszServer, ErrorCode, GatewayConfig, ServerHandle, TraceConfig,
    TraceReport, TraceStage, WireError,
};
use std::net::TcpStream;
use std::sync::Arc;

/// Weights don't matter for tracing or byte-identity, so an untrained
/// (seeded, deterministic) model keeps these tests fast.
fn model() -> Arc<Reconstructor> {
    Arc::new(Reconstructor::new(ReconstructorConfig::fast()))
}

/// One container per mask seed — distinct seeds so the gateway actually
/// fuses windows across connections.
fn fleet_containers(seeds: &[u64]) -> Vec<Vec<u8>> {
    let codec = JpegLikeCodec::new();
    seeds
        .iter()
        .map(|&seed| {
            let enc = EaszEncoder::new(EaszConfig { mask_seed: seed, ..EaszConfig::default() })
                .expect("encoder");
            let img = Dataset::KodakLike.image(seed as usize % 8).crop(0, 0, 96, 64);
            enc.compress(&img, &codec, Quality::new(80)).expect("compress").to_bytes()
        })
        .collect()
}

fn local_references(model: &Arc<Reconstructor>, wires: &[Vec<u8>]) -> Vec<ImageU8> {
    let local = EaszDecoder::new(model);
    wires.iter().map(|w| local.decode_bytes(w).expect("local decode").to_u8()).collect()
}

/// Sample everything and call everything slow, so one burst of traffic
/// exercises the ring, the slow log and the per-stage breakdowns at once.
fn capture_everything() -> TraceConfig {
    TraceConfig { capacity: 64, sample_every: 1, slow_threshold_us: 1, slow_capacity: 8 }
}

/// A gateway whose windows genuinely wait (nonzero queue-wait histogram)
/// but still close fast enough to keep the suite quick.
fn traced_gateway() -> GatewayConfig {
    GatewayConfig { max_batch: 4, max_wait_us: 5_000, workers: 2, ..Default::default() }
}

/// Three concurrent clients each decode every wire; replies come back for
/// the byte-identity check.
fn drive_load(handle: &ServerHandle, wires: &[Vec<u8>]) -> Vec<Vec<ImageU8>> {
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let (wires, addr) = (wires, handle.addr());
                scope.spawn(move || {
                    let mut client = EaszClient::connect(addr).expect("connect");
                    wires.iter().map(|w| client.decode(w).expect("decode")).collect()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("client thread")).collect()
    })
}

/// The acceptance contract, shared by the threaded and reactor cases:
/// nonzero p50/p99 on all three histograms, sampled spans with monotonic
/// milestone stamps, at least one slow request with a full per-stage
/// breakdown, live decode-stage accumulators and byte-identical replies.
fn assert_traced_front_end(handle: &ServerHandle, front_end: &str) {
    let model = model();
    let wires = fleet_containers(&[11, 22, 33, 44]);
    let references = local_references(&model, &wires);

    let replies = drive_load(handle, &wires);
    for (client_idx, client_replies) in replies.iter().enumerate() {
        for (i, reference) in references.iter().enumerate() {
            assert_eq!(
                client_replies[i].data(),
                reference.data(),
                "{front_end}: traced reply (client {client_idx}, frame {i}) != local decode"
            );
        }
    }

    let mut client = EaszClient::connect(handle.addr()).expect("inspector connect");
    let stats = client.stats().expect("stats");
    for (name, p50, p99) in [
        ("queue wait", stats.queue_wait_percentile_us(0.50), stats.queue_wait_percentile_us(0.99)),
        ("decode", stats.decode_percentile_us(0.50), stats.decode_percentile_us(0.99)),
        ("service", stats.service_percentile_us(0.50), stats.service_percentile_us(0.99)),
    ] {
        assert!(p50 > 0, "{front_end}: {name} p50 must be nonzero, got {p50}");
        assert!(p99 >= p50, "{front_end}: {name} p99 {p99} < p50 {p50}");
    }

    let trace = client.trace().expect("trace");
    assert!(!trace.recent.is_empty(), "{front_end}: sample_every=1 must capture spans");
    for span in &trace.recent {
        let stamps: Vec<u32> = TraceStage::ALL.iter().filter_map(|&s| span.stage_us(s)).collect();
        assert!(
            stamps.windows(2).all(|w| w[0] <= w[1]),
            "{front_end}: span #{} stamps out of order: {stamps:?}",
            span.id
        );
    }
    assert!(!trace.slow.is_empty(), "{front_end}: a 1µs slow threshold must capture slow requests");
    let slow = trace.slow.last().expect("slow span");
    for stage in TraceStage::ALL {
        assert!(
            slow.stage_us(stage).is_some(),
            "{front_end}: slow decode span #{} never reached {}",
            slow.id,
            stage.name()
        );
    }
    assert!(slow.ok, "{front_end}: the slow span came from a successful decode");
    for stage in DecodeStage::ALL {
        let (count, _total_us) = trace.decode_stages[stage.index()];
        assert!(count > 0, "{front_end}: decode stage {} never reported", stage.name());
    }

    // The ring drains; the slow log and stage accumulators are retained.
    // No decode traffic ran in between, so the second poll's ring is empty.
    let again = client.trace().expect("second trace");
    assert!(again.recent.is_empty(), "{front_end}: second poll must see a drained ring");
    assert_eq!(again.slow, trace.slow, "{front_end}: slow log survives polls");
    assert_eq!(again.decode_stages, trace.decode_stages);
}

#[test]
fn threaded_front_end_traces_end_to_end() {
    let handle = EaszServer::new(model())
        .with_gateway(traced_gateway())
        .with_trace(capture_everything())
        .spawn("127.0.0.1:0")
        .expect("spawn threaded server");
    assert_traced_front_end(&handle, "threaded");
    handle.shutdown().expect("threaded shutdown");
}

#[cfg(target_os = "linux")]
#[test]
fn reactor_front_end_traces_end_to_end() {
    let handle = EaszServer::new(model())
        .with_gateway(traced_gateway())
        .with_reactor(easz::server::ReactorConfig::default())
        .with_trace(capture_everything())
        .spawn("127.0.0.1:0")
        .expect("spawn reactor server");
    assert_traced_front_end(&handle, "reactor");
    handle.shutdown().expect("reactor shutdown");
}

/// Sends `frames` down one raw connection, reads `replies` reply frames,
/// then drains the tracer and the stats over the same connection — so
/// every reply's telemetry has closed before it is read.
fn telemetry_after(
    addr: std::net::SocketAddr,
    frames: &[(u8, Vec<u8>)],
    replies: usize,
) -> (TraceReport, u64) {
    let mut sock = TcpStream::connect(addr).expect("connect");
    for (ty, payload) in frames {
        protocol::write_frame(&mut sock, *ty, payload).expect("write request");
    }
    for i in 0..replies {
        let (ty, _) = protocol::read_frame(&mut sock, 1 << 20)
            .expect("read reply")
            .unwrap_or_else(|| panic!("connection closed before reply {i}"));
        assert!(ty == protocol::IMAGE || ty == protocol::ERROR, "reply {i} has type 0x{ty:02x}");
    }
    let mut client = EaszClient::from_stream(sock);
    let trace = client.trace().expect("trace");
    let stats = client.stats().expect("stats");
    (trace, stats.service_histo.iter().sum())
}

#[test]
fn every_front_end_keeps_the_same_books_for_good_garbage_and_bad_tier_requests() {
    let wires = fleet_containers(&[7, 8]);
    let garbage = b"EASZ but not really a container, just bytes".to_vec();
    let bad_tier = [&[9u8][..], &wires[0]].concat();
    let batch = protocol::encode_batch(&[&wires[0], &garbage, &wires[1]]);
    let bad_tier_batch = [&[9u8][..], &batch].concat();
    // Singly and batched: six containers (four good, two garbage) and two
    // frames whose reserved tier byte makes the envelope unhonourable.
    let frames = [
        (protocol::DECODE, wires[0].clone()),
        (protocol::DECODE, garbage.clone()),
        (protocol::DECODE_TIERED, bad_tier),
        (protocol::DECODE, wires[1].clone()),
        (protocol::DECODE_BATCH, batch),
        (protocol::DECODE_BATCH_TIERED, bad_tier_batch),
    ];
    let (containers, replies) = (6, 8);

    let trace_all =
        TraceConfig { capacity: 64, sample_every: 1, slow_threshold_us: 0, slow_capacity: 0 };
    let server = || EaszServer::new(model()).with_trace(trace_all);
    let mut fronts = vec![
        ("threaded default", server()),
        ("threaded gateway", server().with_gateway(traced_gateway())),
    ];
    if cfg!(target_os = "linux") {
        let reactor = easz::server::ReactorConfig::default();
        fronts.push(("reactor", server().with_gateway(traced_gateway()).with_reactor(reactor)));
    }
    for (front_end, server) in fronts {
        let handle = server.spawn("127.0.0.1:0").expect("spawn server");
        let (trace, service_samples) = telemetry_after(handle.addr(), &frames, replies);
        // One span and one service sample per decode-family container,
        // parsed or not; none for a frame that never yielded containers.
        assert_eq!(trace.recent.len(), containers, "{front_end}: span count");
        assert_eq!(service_samples, containers as u64, "{front_end}: service samples");
        let failed: Vec<_> = trace.recent.iter().filter(|s| !s.ok).collect();
        assert_eq!(failed.len(), 2, "{front_end}: the two garbage containers");
        for span in failed {
            for stage in TraceStage::ALL {
                let reached = matches!(
                    stage,
                    TraceStage::Admitted | TraceStage::ReplyQueued | TraceStage::ReplyWritten
                );
                assert_eq!(
                    span.stage_us(stage).is_some(),
                    reached,
                    "{front_end}: parse-failed span #{} at {}",
                    span.id,
                    stage.name()
                );
            }
        }
        handle.shutdown().expect("shutdown");
    }
}

#[test]
fn tracing_disabled_server_answers_trace_with_empty_report() {
    // No `with_trace`: spans don't exist, but the frame still answers with
    // a valid empty report (inspectors degrade instead of erroring) and
    // the always-on histograms keep counting.
    let handle = EaszServer::new(model())
        .with_gateway(traced_gateway())
        .spawn("127.0.0.1:0")
        .expect("spawn untraced server");
    let wires = fleet_containers(&[5]);
    let mut client = EaszClient::connect(handle.addr()).expect("connect");
    client.decode(&wires[0]).expect("decode");
    assert_eq!(client.trace().expect("trace"), TraceReport::default());
    let stats = client.stats().expect("stats");
    assert!(stats.service_percentile_us(0.99) > 0, "histograms are always on");
    handle.shutdown().expect("shutdown");
}

/// Raw-socket check: a `TRACE` frame must carry an empty payload.
fn assert_trace_payload_rejected(addr: std::net::SocketAddr, front_end: &str) {
    let mut sock = TcpStream::connect(addr).expect("connect");
    protocol::write_frame(&mut sock, protocol::TRACE, &[0xAB]).expect("write");
    let (ty, payload) =
        protocol::read_frame(&mut sock, 1 << 20).expect("read").expect("reply frame");
    assert_eq!(ty, protocol::ERROR, "{front_end}: nonempty TRACE payload must error");
    let err = WireError::from_payload(&payload).expect("wire error");
    assert_eq!(err.code, ErrorCode::Protocol, "{front_end}: {err}");
    assert!(err.message.contains("trace payload"), "{front_end}: {err}");
}

#[test]
fn trace_frame_with_payload_is_a_protocol_error() {
    let threaded = EaszServer::new(model())
        .with_trace(capture_everything())
        .spawn("127.0.0.1:0")
        .expect("spawn threaded server");
    assert_trace_payload_rejected(threaded.addr(), "threaded");
    threaded.shutdown().expect("threaded shutdown");

    #[cfg(target_os = "linux")]
    {
        let reactor = EaszServer::new(model())
            .with_reactor(easz::server::ReactorConfig::default())
            .with_trace(capture_everything())
            .spawn("127.0.0.1:0")
            .expect("spawn reactor server");
        assert_trace_payload_rejected(reactor.addr(), "reactor");
        reactor.shutdown().expect("reactor shutdown");
    }
}
