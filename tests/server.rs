//! Protocol-hardening tests for `easz-server` over real loopback sockets:
//! malformed, truncated and oversized frames must come back as typed error
//! frames without killing the server, and concurrent clients must decode
//! byte-identically to a serial one.

use easz::codecs::{CodecId, JpegLikeCodec, Quality};
use easz::core::{
    EaszConfig, EaszDecoder, EaszEncoded, EaszEncoder, Reconstructor, ReconstructorConfig,
};
use easz::data::Dataset;
use easz::image::ImageU8;
use easz::server::{
    protocol, ClientError, EaszClient, EaszServer, EngineTier, ErrorCode, GatewayConfig,
    ServerConfig,
};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Weights don't matter for wire-level behaviour, so an untrained (seeded,
/// deterministic) model keeps these tests fast.
fn model() -> Arc<Reconstructor> {
    Arc::new(Reconstructor::new(ReconstructorConfig::fast()))
}

fn containers() -> Vec<Vec<u8>> {
    let encoder = EaszEncoder::new(EaszConfig::default()).expect("encoder");
    let codec = JpegLikeCodec::new();
    [(1usize, 96, 64), (3, 64, 64), (5, 128, 96)]
        .iter()
        .map(|&(i, w, h)| {
            let img = Dataset::KodakLike.image(i).crop(0, 0, w, h);
            encoder.compress(&img, &codec, Quality::new(80)).expect("compress").to_bytes()
        })
        .collect()
}

#[test]
fn single_decode_matches_local_decode_bit_for_bit() {
    let model = model();
    let handle = EaszServer::new(model.clone()).spawn("127.0.0.1:0").expect("spawn");
    let mut client = EaszClient::connect(handle.addr()).expect("connect");
    assert_eq!(client.ping().expect("ping"), protocol::PROTOCOL_VERSION);

    let wire = &containers()[0];
    let remote = client.decode(wire).expect("remote decode");
    let local = EaszDecoder::new(&model).decode_bytes(wire).expect("local decode").to_u8();
    assert_eq!(remote.data(), local.data(), "server must reproduce the local decode exactly");
    drop(client);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn malformed_containers_are_typed_errors_not_connection_deaths() {
    let handle = EaszServer::new(model()).spawn("127.0.0.1:0").expect("spawn");
    let mut client = EaszClient::connect(handle.addr()).expect("connect");
    let good = containers().remove(0);

    // Header-sized garbage: rejected at the magic. Shorter garbage is a
    // length problem before the magic is even looked at.
    match client.decode(&[b'X'; 64]) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::BadMagic),
        other => panic!("expected BadMagic, got {other:?}"),
    }
    match client.decode(b"too short to be a container") {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Truncated),
        other => panic!("expected Truncated, got {other:?}"),
    }
    // A truncated but genuine container: typed truncation report.
    match client.decode(&good[..good.len() / 2]) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Truncated),
        other => panic!("expected Truncated, got {other:?}"),
    }
    // A genuine container whose geometry the model does not serve.
    let foreign_cfg = EaszConfig::builder().n(16).b(2).build().expect("cfg");
    let foreign = EaszEncoder::new(foreign_cfg)
        .expect("encoder")
        .compress(
            &Dataset::KodakLike.image(2).crop(0, 0, 64, 64),
            &JpegLikeCodec::new(),
            Quality::new(70),
        )
        .expect("compress")
        .to_bytes();
    match client.decode(&foreign) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::GeometryMismatch),
        other => panic!("expected GeometryMismatch, got {other:?}"),
    }
    // A genuine container naming a reserved simulated codec (header byte
    // 5): those ids are not in the default registry, so the codec is
    // unknown — a typed error, not a decode under the wrong codec.
    for id in
        [CodecId::BALLE_FACTORIZED, CodecId::BALLE_HYPERPRIOR, CodecId::MBT, CodecId::CHENG_ANCHOR]
    {
        let mut renamed = good.clone();
        renamed[5] = id.value();
        match client.decode(&renamed) {
            Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::UnknownCodec, "{id}"),
            other => panic!("{id}: expected UnknownCodec, got {other:?}"),
        }
    }
    // The same connection still decodes fine afterwards.
    assert!(client.decode(&good).is_ok(), "connection must survive typed errors");
    drop(client);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn framing_violations_answer_once_and_close() {
    let config = ServerConfig { max_frame_len: 4096, ..ServerConfig::default() };
    let handle = EaszServer::new(model()).with_config(config).spawn("127.0.0.1:0").expect("spawn");

    // An unknown frame type: one UnknownFrame error, then EOF.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    protocol::write_frame(&mut raw, 0x7f, b"??").expect("write");
    let (ty, payload) = protocol::read_frame(&mut raw, 1 << 20).expect("read").expect("frame");
    assert_eq!(ty, protocol::ERROR);
    let err = protocol::WireError::from_payload(&payload).expect("error payload");
    assert_eq!(err.code, ErrorCode::UnknownFrame);
    assert!(
        protocol::read_frame(&mut raw, 1 << 20).expect("post-error read").is_none(),
        "server must close after an unknown frame type"
    );

    // A frame announcing more than the server's limit: Oversize, then EOF.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    let mut header = vec![protocol::DECODE];
    header.extend_from_slice(&(1u32 << 24).to_le_bytes());
    std::io::Write::write_all(&mut raw, &header).expect("write oversize header");
    let (ty, payload) = protocol::read_frame(&mut raw, 1 << 20).expect("read").expect("frame");
    assert_eq!(ty, protocol::ERROR);
    let err = protocol::WireError::from_payload(&payload).expect("error payload");
    assert_eq!(err.code, ErrorCode::Oversize);
    assert!(
        protocol::read_frame(&mut raw, 1 << 20).expect("post-error read").is_none(),
        "server must close after an oversize announcement"
    );

    // A mid-frame disconnect: no reply owed, and the server survives.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    std::io::Write::write_all(&mut raw, &[protocol::DECODE, 100, 0, 0, 0, 1, 2, 3])
        .expect("write partial frame");
    drop(raw);

    // A bad ping is a well-framed request: error frame, connection lives.
    let mut client = EaszClient::connect(handle.addr()).expect("connect");
    {
        let mut raw = TcpStream::connect(handle.addr()).expect("connect");
        protocol::write_frame(&mut raw, protocol::PING, b"four").expect("write");
        let (ty, payload) = protocol::read_frame(&mut raw, 1 << 20).expect("read").expect("frame");
        assert_eq!(ty, protocol::ERROR);
        let err = protocol::WireError::from_payload(&payload).expect("error payload");
        assert_eq!(err.code, ErrorCode::Protocol);
        protocol::write_frame(&mut raw, protocol::PING, &[protocol::PROTOCOL_VERSION])
            .expect("write");
        let (ty, _) = protocol::read_frame(&mut raw, 1 << 20).expect("read").expect("frame");
        assert_eq!(ty, protocol::PONG, "connection must survive a bad ping");
    }
    // After all of the above, fresh connections still decode.
    assert!(client.decode(&containers()[1]).is_ok(), "server must outlive abusive peers");
    drop(client);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn batch_mixes_results_in_request_order() {
    let config = ServerConfig { max_batch: 4, ..ServerConfig::default() };
    let handle = EaszServer::new(model()).with_config(config).spawn("127.0.0.1:0").expect("spawn");
    let mut client = EaszClient::connect(handle.addr()).expect("connect");
    let wires = containers();

    let garbage = [b'X'; 64];
    let batch: Vec<&[u8]> = vec![&wires[0], &garbage, &wires[1], &wires[2]];
    let results = client.decode_batch(&batch).expect("batch call");
    assert_eq!(results.len(), 4);
    assert!(results[0].is_ok());
    assert_eq!(results[1].as_ref().expect_err("garbage entry").code, ErrorCode::BadMagic);
    assert!(results[2].is_ok() && results[3].is_ok());
    // Each batch entry must be byte-identical to its single-decode twin.
    for (wire, result) in [(&wires[0], &results[0]), (&wires[1], &results[2])] {
        let single = client.decode(wire).expect("single decode");
        assert_eq!(result.as_ref().expect("batch decode").data(), single.data());
    }

    // One container over the limit: the whole request is rejected with a
    // protocol-class error, and the connection stays usable.
    let oversized: Vec<&[u8]> = wires.iter().map(Vec::as_slice).cycle().take(5).collect();
    match client.decode_batch(&oversized) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Protocol),
        other => panic!("expected batch-limit rejection, got {other:?}"),
    }
    assert!(client.ping().is_ok(), "connection must survive a rejected batch");
    drop(client);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn concurrent_clients_decode_byte_identically_to_serial() {
    let handle = EaszServer::new(model()).spawn("127.0.0.1:0").expect("spawn");
    let wires = containers();

    // Serial reference, one client, one request at a time.
    let mut serial_client = EaszClient::connect(handle.addr()).expect("connect");
    let serial: Vec<ImageU8> =
        wires.iter().map(|w| serial_client.decode(w).expect("serial decode")).collect();
    drop(serial_client);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (wires, addr) = (&wires, handle.addr());
                scope.spawn(move || {
                    let mut client = EaszClient::connect(addr).expect("connect");
                    let batch: Vec<&[u8]> = wires.iter().map(Vec::as_slice).collect();
                    let batched: Vec<ImageU8> = client
                        .decode_batch(&batch)
                        .expect("batch call")
                        .into_iter()
                        .map(|r| r.expect("batch decode"))
                        .collect();
                    let singles: Vec<ImageU8> =
                        wires.iter().map(|w| client.decode(w).expect("decode")).collect();
                    (batched, singles)
                })
            })
            .collect();
        for h in handles {
            let (batched, singles) = h.join().expect("client thread");
            for ((b, s), reference) in batched.iter().zip(&singles).zip(&serial) {
                assert_eq!(b.data(), reference.data(), "batched != serial reference");
                assert_eq!(s.data(), reference.data(), "concurrent single != serial reference");
            }
        }
    });
    handle.shutdown().expect("clean shutdown");
}

/// One container per mask seed: the mixed-fleet shape where every edge
/// sender rolls its own mask, so pre-gateway batching never fused them.
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

#[test]
fn gateway_fuses_concurrent_mixed_mask_clients_byte_identically() {
    // K concurrent clients, each with a distinct mask seed, decode through
    // the cross-connection gateway; every reply must be byte-identical to
    // a local serial decode. The generous window wait makes the clients
    // overwhelmingly likely to share windows, but correctness here must
    // not depend on how the windows actually formed.
    let model = model();
    let gateway =
        GatewayConfig { max_batch: 4, max_wait_us: 50_000, workers: 2, ..GatewayConfig::default() };
    let handle =
        EaszServer::new(model.clone()).with_gateway(gateway).spawn("127.0.0.1:0").expect("spawn");
    let wires = fleet_containers(&[11, 22, 33, 44]);
    let local = EaszDecoder::new(&model);
    let references: Vec<ImageU8> =
        wires.iter().map(|w| local.decode_bytes(w).expect("local decode").to_u8()).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = wires
            .iter()
            .zip(&references)
            .map(|(wire, reference)| {
                let addr = handle.addr();
                scope.spawn(move || {
                    let mut client = EaszClient::connect(addr).expect("connect");
                    for _ in 0..3 {
                        let remote = client.decode(wire).expect("gateway decode");
                        assert_eq!(
                            remote.data(),
                            reference.data(),
                            "gateway decode must be byte-identical to local serial decode"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });

    // The gateway must have actually batched: all 12 decodes succeeded and
    // were dispatched through windows (none shed: the queue never filled).
    let stats = handle.metrics().snapshot();
    assert_eq!(stats.decode_ok, 12, "every request must decode");
    assert_eq!(stats.decode_requests, 12);
    assert!(stats.batches_dispatched >= 1, "windows must dispatch through the gateway");
    let histogram_total: u64 = stats.batch_widths.iter().sum();
    assert_eq!(histogram_total, stats.batches_dispatched, "histogram covers every window");
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn gateway_stress_mixed_tiers_abusive_peers_and_disconnects_reconcile() {
    // The gateway under fire: concurrent clients mixing engine tiers
    // (whose windows must group but never fuse across tiers), an abusive
    // peer sending malformed containers and a reserved tier byte, and
    // clients that disconnect mid-decode without reading their reply.
    // Afterwards the server-side counters must reconcile *exactly* with
    // what the clients observed, and a final parked burst must be flushed
    // by shutdown rather than dropped.
    let model = model();
    let gateway = GatewayConfig {
        max_batch: 4,
        max_wait_us: 150_000,
        workers: 2,
        ..GatewayConfig::default()
    };
    let server = EaszServer::new(model.clone()).with_gateway(gateway);
    let metrics = server.metrics();
    let handle = server.spawn("127.0.0.1:0").expect("spawn");
    let wires = fleet_containers(&[101, 202, 303, 404]);

    // Per-tier local references: the f32 tier is bit-exact, and the
    // quantized tier is deterministic, so both compare byte-for-byte.
    let local = EaszDecoder::new(&model);
    let reference = |wire: &[u8], tier: EngineTier| -> ImageU8 {
        let encoded = EaszEncoded::from_bytes(wire).expect("parse");
        local.decode_as(&encoded, tier.engine()).expect("local decode").to_u8()
    };
    let refs_f32: Vec<ImageU8> =
        wires.iter().map(|w| reference(w, EngineTier::Reference)).collect();
    let refs_quant: Vec<ImageU8> =
        wires.iter().map(|w| reference(w, EngineTier::QuantizedInt8)).collect();
    assert!(
        refs_f32.iter().zip(&refs_quant).any(|(a, b)| a.data() != b.data()),
        "tiers must be distinguishable for this test to mean anything"
    );

    let mut observed_ok = 0u64;
    std::thread::scope(|scope| {
        // Four tier-mixing clients: three singles alternating tiers, then
        // one whole-batch request pinned to the client's tier.
        let tier_clients: Vec<_> = (0..4usize)
            .map(|c| {
                let (wires, refs_f32, refs_quant) = (&wires, &refs_f32, &refs_quant);
                let addr = handle.addr();
                scope.spawn(move || {
                    let mut client = EaszClient::connect(addr).expect("connect");
                    let mut ok = 0u64;
                    for i in 0..3usize {
                        let tier = if (c + i) % 2 == 0 {
                            EngineTier::Reference
                        } else {
                            EngineTier::QuantizedInt8
                        };
                        let img = client.decode_tiered(&wires[i], tier).expect("tiered decode");
                        let expect = if tier == EngineTier::Reference {
                            &refs_f32[i]
                        } else {
                            &refs_quant[i]
                        };
                        assert_eq!(img.data(), expect.data(), "client {c} single {i} on {tier:?}");
                        ok += 1;
                    }
                    let tier =
                        if c % 2 == 0 { EngineTier::QuantizedInt8 } else { EngineTier::Reference };
                    let batch: Vec<&[u8]> = wires.iter().map(Vec::as_slice).collect();
                    let results = client.decode_batch_tiered(&batch, tier).expect("tiered batch");
                    let expect = if tier == EngineTier::Reference { refs_f32 } else { refs_quant };
                    for (i, (r, e)) in results.iter().zip(expect).enumerate() {
                        let img = r.as_ref().expect("batch member decode");
                        assert_eq!(img.data(), e.data(), "client {c} batch member {i} on {tier:?}");
                        ok += 1;
                    }
                    ok
                })
            })
            .collect();

        // One abusive peer: a garbage container (typed decode error), a
        // reserved tier byte (protocol error, connection survives), then a
        // good tiered decode on the *same* connection.
        let abusive = {
            let (wires, refs_quant) = (&wires, &refs_quant);
            let addr = handle.addr();
            scope.spawn(move || {
                let mut client = EaszClient::connect(addr).expect("connect");
                match client.decode(&[b'X'; 64]) {
                    Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::BadMagic),
                    other => panic!("expected BadMagic, got {other:?}"),
                }
                let mut raw = TcpStream::connect(addr).expect("connect");
                let mut payload = vec![7u8]; // reserved tier byte
                payload.extend_from_slice(&wires[0]);
                protocol::write_frame(&mut raw, protocol::DECODE_TIERED, &payload).expect("write");
                let (ty, reply) =
                    protocol::read_frame(&mut raw, 1 << 24).expect("read").expect("frame");
                assert_eq!(ty, protocol::ERROR);
                let err = protocol::WireError::from_payload(&reply).expect("error payload");
                assert_eq!(err.code, ErrorCode::Protocol, "reserved tier byte is protocol-class");
                // The same raw connection still serves a correct quantized
                // decode afterwards.
                let mut payload = vec![EngineTier::QuantizedInt8.wire_byte()];
                payload.extend_from_slice(&wires[0]);
                protocol::write_frame(&mut raw, protocol::DECODE_TIERED, &payload).expect("write");
                let (ty, reply) =
                    protocol::read_frame(&mut raw, 1 << 24).expect("read").expect("frame");
                assert_eq!(ty, protocol::IMAGE, "connection must survive the reserved byte");
                let img = protocol::decode_image(&reply).expect("image payload");
                assert_eq!(img.data(), refs_quant[0].data());
                1u64 // one client-observed OK decode
            })
        };

        // Two clients that request a decode and vanish without reading the
        // reply — the mid-decode disconnect. The server still decodes (the
        // frame was complete) and must absorb the failed reply write.
        let disconnectors: Vec<_> = (0..2usize)
            .map(|i| {
                let wires = &wires;
                let addr = handle.addr();
                scope.spawn(move || {
                    let mut raw = TcpStream::connect(addr).expect("connect");
                    protocol::write_frame(&mut raw, protocol::DECODE, &wires[i]).expect("write");
                    drop(raw); // vanish mid-decode
                })
            })
            .collect();

        for h in tier_clients {
            observed_ok += h.join().expect("tier client");
        }
        observed_ok += abusive.join().expect("abusive client");
        for h in disconnectors {
            h.join().expect("disconnector");
        }
    });

    // Final burst: three well-formed requests parked in the gateway with
    // nobody reading — shutdown must flush them through decode (a dropped
    // window would leave decode_ok short and fail the reconciliation).
    let parked: Vec<TcpStream> = (0..3usize)
        .map(|i| {
            let mut raw = TcpStream::connect(handle.addr()).expect("connect");
            protocol::write_frame(&mut raw, protocol::DECODE, &wires[i]).expect("write");
            raw
        })
        .collect();
    // Wait until the burst is inside the decode path (requests are counted
    // before parking), so shutdown races against parked jobs, not reads.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while handle.metrics().snapshot().decode_requests < 35 {
        assert!(std::time::Instant::now() < deadline, "burst never reached the decode path");
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.shutdown().expect("clean shutdown");
    drop(parked);

    // Reconciliation. Client-observed OKs: 4 tier clients x (3 singles +
    // 4 batch members) + 1 abusive good decode = 29. The server counts
    // those plus 2 disconnected decodes and 3 flushed parked jobs.
    let stats = metrics.snapshot();
    assert_eq!(observed_ok, 29, "clients must have observed every good reply");
    assert_eq!(stats.decode_requests, 35, "28 tiered + 1 garbage + 1 good + 2 vanished + 3 parked");
    assert_eq!(stats.decode_ok, observed_ok + 2 + 3, "server OKs = observed + vanished + flushed");
    assert_eq!(stats.decode_err, 1, "exactly the garbage container fails decode");
    assert_eq!(stats.error_count(ErrorCode::BadMagic), 1);
    assert_eq!(stats.error_count(ErrorCode::Protocol), 1, "the reserved tier byte");
    let histogram_total: u64 = stats.batch_widths.iter().sum();
    assert_eq!(histogram_total, stats.batches_dispatched, "histogram covers every window");
    assert!(stats.batches_dispatched >= 1, "the storm must have dispatched through windows");
}

/// One container per zoo model id, all sharing one mask seed and geometry:
/// every stream is fusable with every other by shape, so the *only* thing
/// keeping them out of a shared forward is the model id in the gateway's
/// fusion key.
fn zoo_containers(model_ids: &[u8]) -> Vec<Vec<u8>> {
    let codec = JpegLikeCodec::new();
    model_ids
        .iter()
        .map(|&id| {
            let enc = EaszEncoder::new(EaszConfig {
                mask_seed: 77,
                model_id: id,
                ..EaszConfig::default()
            })
            .expect("encoder");
            let img = Dataset::KodakLike.image(id as usize % 8).crop(0, 0, 96, 64);
            enc.compress(&img, &codec, Quality::new(80)).expect("compress").to_bytes()
        })
        .collect()
}

/// Distinctly seeded (so behaviourally distinct) zoo models for ids 1..=3.
fn zoo_models() -> Vec<Arc<Reconstructor>> {
    [91u64, 92, 93]
        .iter()
        .map(|&seed| {
            Arc::new(Reconstructor::new(ReconstructorConfig {
                seed,
                ..ReconstructorConfig::fast()
            }))
        })
        .collect()
}

#[test]
fn gateway_routes_models_exactly_and_never_fuses_across_ids() {
    // K concurrent clients, each pinned to a different zoo model id, decode
    // through the cross-connection gateway. Every reply must be
    // byte-identical to a local per-model serial decode, and the
    // batch-width histogram must show that no window fused containers
    // across model ids: with one in-flight request per client and all ids
    // distinct, every fused forward group has width exactly 1.
    let generic = model();
    let zoo = zoo_models();
    let gateway =
        GatewayConfig { max_batch: 4, max_wait_us: 50_000, workers: 2, ..GatewayConfig::default() };
    let mut server = EaszServer::new(generic.clone()).with_gateway(gateway);
    for (i, m) in zoo.iter().enumerate() {
        server = server.with_model(i as u8 + 1, m.clone());
    }
    let handle = server.spawn("127.0.0.1:0").expect("spawn");

    let wires = zoo_containers(&[0, 1, 2, 3]);
    let mut local = EaszDecoder::new(&generic);
    for (i, m) in zoo.iter().enumerate() {
        local.add_model(i as u8 + 1, m);
    }
    let references: Vec<ImageU8> =
        wires.iter().map(|w| local.decode_bytes(w).expect("local decode").to_u8()).collect();
    // The models must actually disagree, or routing bugs would be invisible.
    assert!(
        references.windows(2).any(|p| p[0].data() != p[1].data()),
        "zoo models must reconstruct differently for this test to mean anything"
    );

    std::thread::scope(|scope| {
        let handles: Vec<_> = wires
            .iter()
            .zip(&references)
            .map(|(wire, reference)| {
                let addr = handle.addr();
                scope.spawn(move || {
                    let mut client = EaszClient::connect(addr).expect("connect");
                    for _ in 0..3 {
                        let remote = client.decode(wire).expect("zoo decode");
                        assert_eq!(
                            remote.data(),
                            reference.data(),
                            "gateway decode must match the per-model local serial decode"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });

    let stats = handle.metrics().snapshot();
    assert_eq!(stats.decode_ok, 12, "every request must decode");
    let histogram_total: u64 = stats.batch_widths.iter().sum();
    assert_eq!(histogram_total, stats.batches_dispatched, "histogram covers every group");
    assert!(stats.batches_dispatched >= 1, "windows must dispatch through the gateway");
    assert_eq!(
        stats.batch_widths[0], histogram_total,
        "all-distinct model ids must make every fused forward group width 1 \
         (a wider group means the gateway fused across models)"
    );

    // An id nobody mounted is the typed UnknownModel error, not a wrong
    // reconstruction — and the connection survives it.
    let stray = zoo_containers(&[9]).remove(0);
    let mut client = EaszClient::connect(handle.addr()).expect("connect");
    match client.decode(&stray) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::UnknownModel),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
    assert!(client.decode(&wires[1]).is_ok(), "connection must survive an unknown model id");
    drop(client);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn stats_frame_round_trips_and_counts_errors() {
    let handle = EaszServer::new(model()).spawn("127.0.0.1:0").expect("spawn");
    let mut client = EaszClient::connect(handle.addr()).expect("connect");
    let wire = containers().remove(0);

    let before = client.stats().expect("stats");
    assert_eq!(before.decode_requests, 0);
    assert_eq!(before.error_count(ErrorCode::BadMagic), 0);

    // One good decode, one malformed container.
    client.decode(&wire).expect("decode");
    match client.decode(&[b'X'; 64]) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::BadMagic),
        other => panic!("expected BadMagic, got {other:?}"),
    }

    let after = client.stats().expect("stats");
    assert_eq!(after.decode_requests, 2);
    assert_eq!(after.decode_ok, 1);
    assert_eq!(after.decode_err, 1);
    assert_eq!(after.error_count(ErrorCode::BadMagic), 1, "malformed frame must be counted");

    // A malformed STATS request (non-empty payload) is a protocol error —
    // and itself lands in the counters.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    protocol::write_frame(&mut raw, protocol::STATS, b"x").expect("write");
    let (ty, payload) = protocol::read_frame(&mut raw, 1 << 20).expect("read").expect("frame");
    assert_eq!(ty, protocol::ERROR);
    let err = protocol::WireError::from_payload(&payload).expect("error payload");
    assert_eq!(err.code, ErrorCode::Protocol);
    let last = client.stats().expect("stats");
    assert_eq!(last.error_count(ErrorCode::Protocol), 1);

    // The wire snapshot and the in-process registry agree.
    assert_eq!(handle.metrics().snapshot(), last);
    drop((client, raw));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn idle_connections_are_disconnected_by_the_read_timeout() {
    let handle = EaszServer::new(model())
        .with_read_timeout(Duration::from_millis(100))
        .spawn("127.0.0.1:0")
        .expect("spawn");
    let mut client = EaszClient::connect(handle.addr()).expect("connect");
    assert!(client.ping().is_ok(), "live connection answers before the timeout");
    // Stay idle past the timeout: the server must close the connection, so
    // the next read observes EOF instead of hanging.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("client timeout");
    let mut buf = [0u8; 1];
    match std::io::Read::read(&mut raw, &mut buf) {
        Ok(0) => {} // server closed the idle connection
        other => panic!("expected EOF from the idle timeout, got {other:?}"),
    }
    drop((client, raw));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn shutdown_unblocks_idle_connections() {
    // An idle keep-alive client must not pin shutdown: the handler thread
    // is blocked in read, and shutdown has to wake it (the scope join
    // would otherwise never complete and this test would time out).
    let handle = EaszServer::new(model()).spawn("127.0.0.1:0").expect("spawn");
    let mut idle = EaszClient::connect(handle.addr()).expect("connect");
    assert!(idle.ping().is_ok(), "connection is live before shutdown");
    handle.shutdown().expect("shutdown with an idle connection open");
    // The forcibly closed connection now fails cleanly client-side.
    assert!(idle.ping().is_err(), "socket must be dead after server shutdown");
}

#[test]
fn client_poisons_itself_on_an_over_limit_reply() {
    // A reply announcing more than the client's limit leaves unread bytes
    // on the stream; the client must refuse further requests (reconnect is
    // the only safe recovery) instead of parsing pixels as frame headers.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake_server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        // Read the ping, reply with a frame announcing 1 GiB.
        protocol::read_frame(&mut conn, 1 << 20).expect("read ping");
        std::io::Write::write_all(&mut conn, &[protocol::PONG, 0, 0, 0, 0x40])
            .expect("oversize announce");
        conn
    });
    let mut client = EaszClient::connect(addr).expect("connect").with_max_reply_len(1 << 20);
    match client.ping() {
        Err(ClientError::Protocol(_)) => {}
        other => panic!("expected a protocol error, got {other:?}"),
    }
    match client.ping() {
        Err(ClientError::Protocol(m)) => {
            assert!(m.contains("poisoned"), "second call must fail fast, got {m:?}")
        }
        other => panic!("expected fail-fast poisoning, got {other:?}"),
    }
    drop(fake_server.join().expect("fake server"));
}

#[test]
fn decode_bomb_container_is_rejected_not_allocated() {
    // A container whose header (or inner bitstream) declares a
    // per-side-legal but terabyte-scale canvas must come back as a typed
    // error frame; the 2^26-pixel budget is enforced before any buffer is
    // sized from untrusted fields.
    let handle = EaszServer::new(model()).spawn("127.0.0.1:0").expect("spawn");
    let mut client = EaszClient::connect(handle.addr()).expect("connect");
    let mut bomb = containers().remove(0);
    bomb[14..18].copy_from_slice(&(1u32 << 14).to_le_bytes());
    bomb[18..22].copy_from_slice(&(1u32 << 13).to_le_bytes());
    match client.decode(&bomb) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }
    assert!(client.ping().is_ok(), "connection survives the bomb");
    drop(client);
    handle.shutdown().expect("clean shutdown");
}
