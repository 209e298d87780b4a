//! The paper's deployment story over a real (loopback) socket: model-free
//! edge encoders streaming `.easz` containers to an `easz-server` that
//! batches the transformer reconstruction across streams through its
//! **cross-connection decode gateway** (tuned here to windows of four), so
//! concurrent clients with
//! *distinct mask seeds* (the realistic mixed fleet) still share fused
//! transformer forwards.
//!
//! ```sh
//! cargo run --release --example edge_to_server
//! cargo run --release --example edge_to_server -- --reactor
//! ```
//!
//! With `--reactor` the same traffic is served by the epoll reactor front
//! end (one readiness loop instead of one thread per connection) — the
//! replies must be byte-identical either way.
//!
//! Every reply is asserted byte-identical to a local serial decode — CI
//! runs this example as the gateway's end-to-end smoke test (both front
//! ends) and fails on any divergence. The wire protocol (framing, error
//! codes, the container itself) is specified in `docs/FORMAT.md`.

use easz::codecs::{BpgLikeCodec, ImageCodec, JpegLikeCodec, Quality};
use easz::core::{zoo, EaszConfig, EaszDecoder, EaszEncoder};
use easz::data::Dataset;
use easz::metrics::psnr;
use easz::server::{ClientError, EaszClient, EaszServer, GatewayConfig, ReactorConfig};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let use_reactor = std::env::args().skip(1).any(|a| a == "--reactor");
    println!("loading (or pretraining once) the reconstruction model...");
    let model = zoo::pretrained(zoo::PretrainSpec::quick());

    // The server half: normally another machine; here a loopback port.
    // The gateway parks requests from every connection into batching
    // windows (up to 4 requests or 20 ms) decoded by a shared worker pool.
    let gateway =
        GatewayConfig { max_batch: 4, max_wait_us: 20_000, workers: 2, ..Default::default() };
    let mut server = EaszServer::new(model.clone()).with_gateway(gateway);
    if use_reactor {
        server = server.with_reactor(ReactorConfig::default());
    }
    let handle = server.spawn("127.0.0.1:0")?;
    println!(
        "easz-serve listening on {} ({} front end, gateway: window 4 reqs / 20 ms)",
        handle.addr(),
        if use_reactor { "reactor" } else { "threaded" }
    );

    let mut client = EaszClient::connect(handle.addr())?;
    println!("server speaks protocol v{}", client.ping()?);

    // The edge half: a mixed fleet. Every sender rolls its own mask seed
    // and picks its own inner codec — the server resolves the codec from
    // the container header and fuses the distinct-mask streams into one
    // transformer forward (same geometry + erase count is enough).
    let jpeg = JpegLikeCodec::new();
    let bpg = BpgLikeCodec::new();
    let frames: Vec<(&dyn ImageCodec, usize, u64)> =
        vec![(&jpeg, 0, 1), (&bpg, 1, 2), (&jpeg, 2, 3)];
    let mut originals = Vec::new();
    let mut wires: Vec<Vec<u8>> = Vec::new();
    for &(codec, i, seed) in &frames {
        let encoder =
            EaszEncoder::new(EaszConfig::builder().erase_ratio(0.25).mask_seed(seed).build()?)?;
        let img = Dataset::KodakLike.image(i).crop(0, 0, 128, 96);
        wires.push(encoder.compress(&img, codec, Quality::new(80))?.to_bytes());
        originals.push(img);
    }

    // Local serial reference: the gateway must reproduce it bit-for-bit.
    let local = EaszDecoder::new(&model);
    let references: Vec<_> =
        wires.iter().map(|w| local.decode_bytes(w).expect("local decode").to_u8()).collect();

    // Concurrent single-frame clients: cross-connection batching is the
    // gateway's whole point, so each frame travels on its own connection.
    let start = Instant::now();
    let decoded: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = wires
            .iter()
            .map(|wire| {
                let addr = handle.addr();
                scope.spawn(move || {
                    let mut c = EaszClient::connect(addr).expect("connect");
                    c.decode(wire).expect("gateway decode")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = start.elapsed();

    println!("\ngateway decode of {} concurrent mixed-mask streams in {elapsed:?}:", decoded.len());
    println!("{:<6} {:>10} {:>6} {:>10} {:>9}", "frame", "codec", "seed", "wire B", "psnr dB");
    for (i, (img, &(codec, _, seed))) in decoded.iter().zip(&frames).enumerate() {
        assert_eq!(
            img.data(),
            references[i].data(),
            "gateway reply {i} must be byte-identical to the local serial decode"
        );
        println!(
            "{:<6} {:>10} {:>6} {:>10} {:>9.2}",
            i,
            codec.name(),
            seed,
            wires[i].len(),
            psnr(&originals[i], &img.to_f32())
        );
    }
    println!("all gateway replies byte-identical to local serial decode");

    // One DECODE_BATCH frame goes through the same gateway (each entry is
    // parked individually, so it can fuse with other connections too).
    let batch: Vec<&[u8]> = wires.iter().map(Vec::as_slice).collect();
    let results = client.decode_batch(&batch)?;
    for (i, result) in results.iter().enumerate() {
        let img = result.as_ref().expect("batch decode");
        assert_eq!(img.data(), references[i].data(), "batch reply {i} diverges");
    }
    println!("batched decode of {} streams: byte-identical too", results.len());

    // Malformed input comes back as a typed error frame, and the
    // connection (and server) stay up.
    match client.decode(&[b'X'; 64]) {
        Err(ClientError::Remote(e)) => println!("garbage stream rejected: {e}"),
        other => panic!("expected a typed error frame, got {other:?}"),
    }
    let again = client.decode(&wires[1])?;
    println!("connection survives: re-decoded frame 1 ({}x{})", again.width(), again.height());

    // The server's own accounting, over the wire.
    let stats = client.stats()?;
    println!(
        "\nserver stats: {} containers, {} ok / {} errors, {} windows (widths: {:?}), \
         queue peak {}, {} µs decoding",
        stats.decode_requests,
        stats.decode_ok,
        stats.decode_err,
        stats.batches_dispatched,
        stats
            .batch_widths
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| format!("{}x{}", i + 1, c))
            .collect::<Vec<_>>(),
        stats.queue_peak,
        stats.decode_us,
    );

    drop(client);
    handle.shutdown()?;
    println!("server drained and shut down cleanly");
    Ok(())
}
