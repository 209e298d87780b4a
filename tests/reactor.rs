//! The epoll reactor front end over real loopback sockets: replies must be
//! byte-identical to the threaded front end and to local serial decoding,
//! pipelined replies must keep request order, typed errors must never kill
//! the connection, and the reactor's own behaviours — admission control,
//! idle sweeps, shutdown flushing — must hold under fire. Load shedding is
//! checked here on both front ends.
//!
//! The reactor is Linux-only (epoll), so this whole suite is too.
#![cfg(target_os = "linux")]

use easz::codecs::{JpegLikeCodec, Quality};
use easz::core::{EaszConfig, EaszDecoder, EaszEncoder, Reconstructor, ReconstructorConfig};
use easz::data::Dataset;
use easz::image::ImageU8;
use easz::server::{
    protocol, ClientError, EaszClient, EaszServer, ErrorCode, GatewayConfig, ReactorConfig,
    ServerConfig,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Weights don't matter for byte-identity or wire-level behaviour, so an
/// untrained (seeded, deterministic) model keeps these tests fast.
fn model() -> Arc<Reconstructor> {
    Arc::new(Reconstructor::new(ReconstructorConfig::fast()))
}

/// One container per mask seed — the mixed fleet the reactor targets.
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

#[test]
fn reactor_replies_byte_identical_to_threaded_and_local() {
    // The tentpole promise: the same traffic through the reactor front end,
    // the threaded front end and a local serial decoder produces the same
    // bytes. Concurrent clients with distinct mask seeds make the gateway
    // actually fuse windows on both serving paths.
    let model = model();
    let wires = fleet_containers(&[11, 22, 33, 44]);
    let references = local_references(&model, &wires);
    let gateway =
        GatewayConfig { max_batch: 4, max_wait_us: 50_000, workers: 2, ..Default::default() };

    let decode_all = |handle: &easz::server::ServerHandle| -> Vec<Vec<ImageU8>> {
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    let (wires, addr) = (&wires, handle.addr());
                    scope.spawn(move || {
                        let mut client = EaszClient::connect(addr).expect("connect");
                        wires.iter().map(|w| client.decode(w).expect("decode")).collect()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("client thread")).collect()
        })
    };

    let reactor_handle = EaszServer::new(model.clone())
        .with_gateway(gateway.clone())
        .with_reactor(ReactorConfig::default())
        .spawn("127.0.0.1:0")
        .expect("spawn reactor server");
    let via_reactor = decode_all(&reactor_handle);
    reactor_handle.shutdown().expect("reactor shutdown");

    let threaded_handle = EaszServer::new(model.clone())
        .with_gateway(gateway)
        .spawn("127.0.0.1:0")
        .expect("spawn threaded server");
    let via_threads = decode_all(&threaded_handle);
    threaded_handle.shutdown().expect("threaded shutdown");

    for (client_idx, (r, t)) in via_reactor.iter().zip(&via_threads).enumerate() {
        for (i, reference) in references.iter().enumerate() {
            assert_eq!(
                r[i].data(),
                reference.data(),
                "reactor reply (client {client_idx}, frame {i}) != local serial decode"
            );
            assert_eq!(
                t[i].data(),
                reference.data(),
                "threaded reply (client {client_idx}, frame {i}) != local serial decode"
            );
        }
    }
}

#[test]
fn reactor_routes_zoo_models_exactly_and_never_fuses_across_ids() {
    // The mixed-model identity contract on the reactor path: concurrent
    // clients pinned to different zoo model ids must get replies
    // byte-identical to local per-model serial decodes, and the batch-width
    // histogram must show no window fused across model ids (all ids
    // distinct + one in-flight request per client ⇒ every fused forward
    // group has width 1).
    let generic = model();
    let zoo: Vec<Arc<Reconstructor>> = [71u64, 72, 73]
        .iter()
        .map(|&seed| {
            Arc::new(Reconstructor::new(ReconstructorConfig {
                seed,
                ..ReconstructorConfig::fast()
            }))
        })
        .collect();
    let codec = JpegLikeCodec::new();
    let wires: Vec<Vec<u8>> = [0u8, 1, 2, 3]
        .iter()
        .map(|&id| {
            let enc = EaszEncoder::new(EaszConfig {
                mask_seed: 177,
                model_id: id,
                ..EaszConfig::default()
            })
            .expect("encoder");
            let img = Dataset::KodakLike.image(id as usize % 8).crop(0, 0, 96, 64);
            enc.compress(&img, &codec, Quality::new(80)).expect("compress").to_bytes()
        })
        .collect();

    let mut local = EaszDecoder::new(&generic);
    for (i, m) in zoo.iter().enumerate() {
        local.add_model(i as u8 + 1, m);
    }
    let references: Vec<ImageU8> =
        wires.iter().map(|w| local.decode_bytes(w).expect("local decode").to_u8()).collect();
    assert!(
        references.windows(2).any(|p| p[0].data() != p[1].data()),
        "zoo models must reconstruct differently for this test to mean anything"
    );

    let gateway =
        GatewayConfig { max_batch: 4, max_wait_us: 50_000, workers: 2, ..Default::default() };
    let mut server = EaszServer::new(generic.clone())
        .with_gateway(gateway)
        .with_reactor(ReactorConfig::default());
    for (i, m) in zoo.iter().enumerate() {
        server = server.with_model(i as u8 + 1, m.clone());
    }
    let handle = server.spawn("127.0.0.1:0").expect("spawn");

    std::thread::scope(|scope| {
        let threads: Vec<_> = wires
            .iter()
            .zip(&references)
            .map(|(wire, reference)| {
                let addr = handle.addr();
                scope.spawn(move || {
                    let mut client = EaszClient::connect(addr).expect("connect");
                    for _ in 0..3 {
                        let img = client.decode(wire).expect("zoo decode via reactor");
                        assert_eq!(
                            img.data(),
                            reference.data(),
                            "reactor reply must match the per-model local serial decode"
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("client thread");
        }
    });

    let stats = handle.metrics().snapshot();
    assert_eq!(stats.decode_ok, 12, "every request must decode");
    let histogram_total: u64 = stats.batch_widths.iter().sum();
    assert_eq!(histogram_total, stats.batches_dispatched, "histogram covers every group");
    assert!(stats.batches_dispatched >= 1, "decodes must flow through the gateway");
    assert_eq!(
        stats.batch_widths[0], histogram_total,
        "all-distinct model ids must keep every fused forward group at width 1"
    );
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn pipelined_requests_reply_in_request_order() {
    // Six DECODE frames written back-to-back before any reply is read:
    // decode workers finish in whatever order, but the reply queue must
    // emit IMAGE frames in strict request order.
    let model = model();
    let wires = fleet_containers(&[5, 6, 7, 8, 9, 10]);
    let references = local_references(&model, &wires);
    let handle = EaszServer::new(model)
        .with_reactor(ReactorConfig::default())
        .spawn("127.0.0.1:0")
        .expect("spawn");

    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    for wire in &wires {
        protocol::write_frame(&mut raw, protocol::DECODE, wire).expect("write");
    }
    for (i, reference) in references.iter().enumerate() {
        let (ty, payload) = protocol::read_frame(&mut raw, 1 << 24).expect("read").expect("frame");
        assert_eq!(ty, protocol::IMAGE, "pipelined reply {i} must be an IMAGE frame");
        let img = protocol::decode_image(&payload).expect("image payload");
        assert_eq!(img.data(), reference.data(), "pipelined reply {i} out of order or corrupt");
    }
    drop(raw);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn reactor_typed_errors_keep_the_connection_alive() {
    let model = model();
    let wires = fleet_containers(&[1]);
    let references = local_references(&model, &wires);
    let handle = EaszServer::new(model)
        .with_reactor(ReactorConfig::default())
        .spawn("127.0.0.1:0")
        .expect("spawn");
    let mut client = EaszClient::connect(handle.addr()).expect("connect");

    // A garbage container: typed decode error, connection survives.
    match client.decode(&[b'X'; 64]) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::BadMagic),
        other => panic!("expected BadMagic, got {other:?}"),
    }
    // A malformed ping: protocol-class error, connection survives.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    protocol::write_frame(&mut raw, protocol::PING, b"four").expect("write");
    let (ty, payload) = protocol::read_frame(&mut raw, 1 << 20).expect("read").expect("frame");
    assert_eq!(ty, protocol::ERROR);
    let err = protocol::WireError::from_payload(&payload).expect("error payload");
    assert_eq!(err.code, ErrorCode::Protocol);
    protocol::write_frame(&mut raw, protocol::PING, &[protocol::PROTOCOL_VERSION]).expect("write");
    let (ty, _) = protocol::read_frame(&mut raw, 1 << 20).expect("read").expect("frame");
    assert_eq!(ty, protocol::PONG, "connection must survive a bad ping");

    // The abused client connection still decodes correctly afterwards.
    let img = client.decode(&wires[0]).expect("decode after typed errors");
    assert_eq!(img.data(), references[0].data());
    drop((client, raw));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn reactor_framing_violations_answer_once_and_close() {
    let config = ServerConfig {
        max_frame_len: 4096,
        reactor: Some(ReactorConfig::default()),
        ..ServerConfig::default()
    };
    let handle = EaszServer::new(model()).with_config(config).spawn("127.0.0.1:0").expect("spawn");

    // Unknown frame type: one UnknownFrame error, then EOF.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    protocol::write_frame(&mut raw, 0x7f, b"??").expect("write");
    let (ty, payload) = protocol::read_frame(&mut raw, 1 << 20).expect("read").expect("frame");
    assert_eq!(ty, protocol::ERROR);
    let err = protocol::WireError::from_payload(&payload).expect("error payload");
    assert_eq!(err.code, ErrorCode::UnknownFrame);
    assert!(
        protocol::read_frame(&mut raw, 1 << 20).expect("post-error read").is_none(),
        "reactor must close after an unknown frame type"
    );

    // A frame announcing more than the limit: Oversize, then EOF.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    let mut header = vec![protocol::DECODE];
    header.extend_from_slice(&(1u32 << 24).to_le_bytes());
    raw.write_all(&header).expect("write oversize header");
    let (ty, payload) = protocol::read_frame(&mut raw, 1 << 20).expect("read").expect("frame");
    assert_eq!(ty, protocol::ERROR);
    let err = protocol::WireError::from_payload(&payload).expect("error payload");
    assert_eq!(err.code, ErrorCode::Oversize);
    assert!(
        protocol::read_frame(&mut raw, 1 << 20).expect("post-error read").is_none(),
        "reactor must close after an oversize announcement"
    );

    // A mid-frame disconnect: no reply owed, and the server survives.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.write_all(&[protocol::DECODE, 100, 0, 0, 0, 1, 2, 3]).expect("write partial frame");
    drop(raw);

    let mut client = EaszClient::connect(handle.addr()).expect("connect");
    assert!(client.ping().is_ok(), "reactor must outlive abusive peers");
    drop(client);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn reactor_idle_and_slow_loris_connections_are_disconnected() {
    // The reactor's idle sweep replaces the threaded path's OS read
    // timeout: both a silent connection and a slow-loris peer trickling a
    // partial frame must be closed once they go quiet past the timeout.
    let handle = EaszServer::new(model())
        .with_read_timeout(Duration::from_millis(100))
        .with_reactor(ReactorConfig::default())
        .spawn("127.0.0.1:0")
        .expect("spawn");

    // Fully idle: never sends a byte.
    let mut idle = TcpStream::connect(handle.addr()).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(10))).expect("client timeout");
    // Slow loris: half a frame header, then silence mid-frame.
    let mut loris = TcpStream::connect(handle.addr()).expect("connect");
    loris.set_read_timeout(Some(Duration::from_secs(10))).expect("client timeout");
    loris.write_all(&[protocol::DECODE, 100, 0]).expect("write partial header");

    let mut buf = [0u8; 1];
    match idle.read(&mut buf) {
        Ok(0) => {} // reactor closed the idle connection
        other => panic!("expected EOF from the idle sweep, got {other:?}"),
    }
    match loris.read(&mut buf) {
        Ok(0) => {} // mid-frame silence is just as idle
        other => panic!("expected EOF for the slow loris, got {other:?}"),
    }

    // A live connection is untouched as long as it keeps talking.
    let mut client = EaszClient::connect(handle.addr()).expect("connect");
    assert!(client.ping().is_ok(), "active connections survive the sweep");
    drop((idle, loris, client));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn reactor_admission_control_answers_busy_and_recovers() {
    let handle = EaszServer::new(model())
        .with_reactor(ReactorConfig { max_connections: 2, ..ReactorConfig::default() })
        .spawn("127.0.0.1:0")
        .expect("spawn");

    // Fill both admission slots (the ping round-trips prove both are
    // registered inside the reactor, not just sitting in the TCP backlog).
    let mut first = EaszClient::connect(handle.addr()).expect("connect");
    let mut second = EaszClient::connect(handle.addr()).expect("connect");
    assert!(first.ping().is_ok() && second.ping().is_ok());

    // The third connection is answered with a typed BUSY frame and closed.
    let mut refused = TcpStream::connect(handle.addr()).expect("connect");
    refused.set_read_timeout(Some(Duration::from_secs(10))).expect("client timeout");
    let (ty, payload) = protocol::read_frame(&mut refused, 1 << 20).expect("read").expect("frame");
    assert_eq!(ty, protocol::ERROR);
    let err = protocol::WireError::from_payload(&payload).expect("error payload");
    assert_eq!(err.code, ErrorCode::Busy, "admission refusal must be the typed BUSY error");
    assert!(
        protocol::read_frame(&mut refused, 1 << 20).expect("post-busy read").is_none(),
        "a refused connection is closed after the BUSY frame"
    );

    let stats = handle.metrics().snapshot();
    assert_eq!(stats.connections_active, 2, "both admitted connections are live");
    assert_eq!(stats.connections_accepted, 2);
    assert_eq!(stats.connections_refused, 1);
    assert_eq!(stats.error_count(ErrorCode::Busy), 1);

    // Freeing a slot re-opens admission (the close is observed within the
    // reactor's tick, so poll briefly).
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut third = loop {
        let mut candidate = EaszClient::connect(handle.addr()).expect("connect");
        if candidate.ping().is_ok() {
            break candidate;
        }
        assert!(Instant::now() < deadline, "freed slot never became admittable");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(third.ping().is_ok() && second.ping().is_ok());
    drop((second, third, refused));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn decode_overload_sheds_with_positional_busy_on_both_front_ends() {
    // A gateway with a 4-deep queue and a 1 s window budget: one
    // DECODE_BATCH of ten arrives while the first window is still
    // collecting, so exactly four members are parked and six are shed with
    // the typed BUSY error — on either front end, never decoded outside the
    // gateway, never silently dropped. Replies are positional: four IMAGEs,
    // then six BUSYs.
    let model = model();
    let wires = fleet_containers(&[3]);
    let references = local_references(&model, &wires);
    let gateway = GatewayConfig {
        max_batch: 64,
        max_wait_us: 1_000_000,
        workers: 1,
        queue_depth: 4,
        adaptive_wait: false,
        deadline_us: 0,
    };
    let batch = protocol::encode_batch(&[wires[0].as_slice(); 10]);
    let server = || EaszServer::new(model.clone()).with_gateway(gateway.clone());
    let fronts =
        [("threaded", server()), ("reactor", server().with_reactor(ReactorConfig::default()))];
    for (front_end, server) in fronts {
        let handle = server.spawn("127.0.0.1:0").expect("spawn");
        let mut raw = TcpStream::connect(handle.addr()).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(30))).expect("client timeout");
        protocol::write_frame(&mut raw, protocol::DECODE_BATCH, &batch).expect("write");
        for i in 0..10usize {
            let (ty, payload) =
                protocol::read_frame(&mut raw, 1 << 24).expect("read").expect("frame");
            if i < 4 {
                assert_eq!(ty, protocol::IMAGE, "{front_end}: reply {i} must be a decoded image");
                let img = protocol::decode_image(&payload).expect("image payload");
                assert_eq!(
                    img.data(),
                    references[0].data(),
                    "{front_end}: survivors decode exactly"
                );
            } else {
                assert_eq!(ty, protocol::ERROR, "{front_end}: reply {i} must be shed");
                let err = protocol::WireError::from_payload(&payload).expect("error payload");
                assert_eq!(err.code, ErrorCode::Busy, "{front_end}: shedding uses typed BUSY");
            }
        }
        // The connection survives shedding.
        protocol::write_frame(&mut raw, protocol::PING, &[protocol::PROTOCOL_VERSION])
            .expect("write");
        let (ty, _) = protocol::read_frame(&mut raw, 1 << 20).expect("read").expect("frame");
        assert_eq!(ty, protocol::PONG, "{front_end}: connection must survive being shed");

        let stats = handle.metrics().snapshot();
        assert_eq!(stats.requests_shed, 6, "{front_end}: exactly the overflow is shed");
        assert_eq!(stats.error_count(ErrorCode::Busy), 6, "{front_end}");
        assert_eq!((stats.decode_ok, stats.decode_requests), (4, 10), "{front_end}");
        assert_eq!(stats.inline_decodes, 0, "{front_end}: nothing decodes outside the gateway");
        drop(raw);
        handle.shutdown().expect("clean shutdown");
    }
}

#[test]
fn reactor_shutdown_delivers_replies_to_parked_connections() {
    // The shutdown-flush invariant, readiness-style: requests parked in
    // the gateway with nobody reading must be decoded during the drain
    // phase and their IMAGE frames actually *received* by the peers.
    let model = model();
    let wires = fleet_containers(&[31, 32, 33]);
    let references = local_references(&model, &wires);
    let gateway =
        GatewayConfig { max_batch: 8, max_wait_us: 2_000_000, workers: 1, ..Default::default() };
    let server =
        EaszServer::new(model).with_gateway(gateway).with_reactor(ReactorConfig::default());
    let metrics = server.metrics();
    let handle = server.spawn("127.0.0.1:0").expect("spawn");

    let mut parked: Vec<TcpStream> = wires
        .iter()
        .map(|wire| {
            let mut raw = TcpStream::connect(handle.addr()).expect("connect");
            raw.set_read_timeout(Some(Duration::from_secs(30))).expect("client timeout");
            protocol::write_frame(&mut raw, protocol::DECODE, wire).expect("write");
            raw
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(20);
    while metrics.snapshot().decode_requests < 3 {
        assert!(Instant::now() < deadline, "parked burst never reached the gateway");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Shut down with the 2 s window still collecting: the drain must flush
    // the gateway early and write every reply out.
    handle.shutdown().expect("clean shutdown");

    for (i, raw) in parked.iter_mut().enumerate() {
        let (ty, payload) = protocol::read_frame(raw, 1 << 24).expect("read").expect("frame");
        assert_eq!(ty, protocol::IMAGE, "parked request {i} must be answered by the drain");
        let img = protocol::decode_image(&payload).expect("image payload");
        assert_eq!(img.data(), references[i].data(), "drained reply {i} diverges");
    }
    assert_eq!(metrics.snapshot().decode_ok, 3, "all parked jobs decoded");
}

#[test]
fn reactor_serves_a_fleet_of_connections_without_dropping_replies() {
    // A 64-connection burst (each its own mask seed, one decode each) —
    // small by the bench's standards but enough to prove the accounting:
    // every reply arrives, every reply is exact, nothing is shed.
    const FLEET: usize = 64;
    let model = model();
    let seeds: Vec<u64> = (0..FLEET as u64).map(|i| 1000 + i).collect();
    let wires = fleet_containers(&seeds);
    let references = local_references(&model, &wires);
    let handle = EaszServer::new(model)
        .with_reactor(ReactorConfig::default())
        .spawn("127.0.0.1:0")
        .expect("spawn");

    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..FLEET)
            .map(|i| {
                let (wire, reference, addr) = (&wires[i], &references[i], handle.addr());
                scope.spawn(move || {
                    let mut client = EaszClient::connect(addr).expect("connect");
                    let img = client.decode(wire).expect("fleet decode");
                    assert_eq!(img.data(), reference.data(), "fleet reply {i} diverges");
                })
            })
            .collect();
        for t in threads {
            t.join().expect("fleet client");
        }
    });

    // The v2 STATS payload carries the connection counters over the wire.
    let mut client = EaszClient::connect(handle.addr()).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.decode_ok, FLEET as u64, "every fleet request decoded");
    assert_eq!(stats.requests_shed, 0, "nothing shed at this load");
    assert_eq!(stats.connections_refused, 0);
    assert!(
        stats.connections_accepted > FLEET as u64,
        "fleet + stats connections all admitted, got {}",
        stats.connections_accepted
    );
    assert!(stats.connections_active >= 1, "this stats connection is live");
    assert!(stats.arrival_ewma_us > 0, "a 64-submission burst must produce an arrival estimate");
    drop(client);
    handle.shutdown().expect("clean shutdown");
}
