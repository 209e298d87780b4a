//! The wire path must not stall on kernel timers: several small reply
//! frames written back to back to a peer that is only reading must not
//! wait for that peer's delayed ACK (≈ 40 ms on Linux) between them.
//!
//! Both tests time replies that cost the server next to nothing to produce,
//! so what they measure is the socket, not the model, and both assert on a
//! **median** over 20 rounds: a Nagle × delayed-ACK stall hits every round
//! and moves the median to the timer's 40 ms floor, while a loaded host
//! only stretches a few rounds.

use easz::core::{Reconstructor, ReconstructorConfig};
use easz::server::{EaszClient, EaszServer};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROUNDS: usize = 20;

/// Untrained (seeded, deterministic) weights: nothing here looks at pixels.
fn model() -> Arc<Reconstructor> {
    Arc::new(Reconstructor::new(ReconstructorConfig::fast()))
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Threaded front end: a batch of eight unparseable containers is answered
/// with eight positional `ERROR` frames, one `write` each, with no forward
/// in between.
///
/// Parent commit (202f2a2, Nagle on): median 44.0 ms on each of three runs
/// — reply 2 sits in the server's send queue until the client's delayed-ACK
/// timer fires. With `TCP_NODELAY` set at accept: median 0.03 ms.
#[test]
fn threaded_batch_of_error_replies_does_not_wait_for_delayed_acks() {
    let handle = EaszServer::new(model()).spawn("127.0.0.1:0").expect("spawn");
    let mut client = EaszClient::connect(handle.addr()).expect("connect");
    let garbage: [&[u8]; 8] = [b"not an easz container"; 8];
    let round_trips = (0..ROUNDS)
        .map(|_| {
            let sent = Instant::now();
            let replies = client.decode_batch(&garbage).expect("batch round trip");
            let elapsed = sent.elapsed();
            assert_eq!(replies.len(), garbage.len());
            assert!(replies.iter().all(Result::is_err), "garbage must not decode");
            elapsed
        })
        .collect();
    let median = median(round_trips);
    println!("threaded DECODE_BATCH of 8 errors, median round trip: {median:?}");
    drop(client);
    handle.shutdown().expect("shutdown");
    assert!(
        median < Duration::from_millis(15),
        "median DECODE_BATCH round trip {median:?}: back-to-back replies are waiting on ACKs"
    );
}

/// Reactor: two `DECODE` frames arrive in one client segment; a gateway of
/// one worker and windows of one decodes them one after the other, so the
/// two replies complete in different loop iterations and leave as two
/// writes with no client segment (and so no ACK) in between.
///
/// Parent commit (202f2a2, Nagle on): median time to the second reply
/// 48.0 ms on each of three runs. With `TCP_NODELAY` set at accept: 10 ms
/// in the dev profile, 5 ms in release — two one-patch forwards.
#[cfg(target_os = "linux")]
#[test]
fn reactor_second_pipelined_reply_does_not_wait_for_a_delayed_ack() {
    use easz::codecs::{JpegLikeCodec, Quality};
    use easz::core::{EaszConfig, EaszEncoder};
    use easz::data::Dataset;
    use easz::server::{protocol, GatewayConfig, ReactorConfig};
    use std::io::Write;
    use std::net::TcpStream;

    let gateway = GatewayConfig { max_batch: 1, workers: 1, ..Default::default() };
    let handle = EaszServer::new(model())
        .with_gateway(gateway)
        .with_reactor(ReactorConfig::default())
        .spawn("127.0.0.1:0")
        .expect("spawn");

    // Distinct mask seeds, as two edge senders would have.
    let pair: Vec<u8> = [5u64, 6]
        .iter()
        .flat_map(|&seed| {
            let encoder = EaszEncoder::new(EaszConfig { mask_seed: seed, ..EaszConfig::default() })
                .expect("encoder");
            let image = Dataset::KodakLike.image(0).crop(0, 0, 32, 32);
            let wire = encoder
                .compress(&image, &JpegLikeCodec::new(), Quality::new(80))
                .expect("compress")
                .to_bytes();
            protocol::frame_bytes(protocol::DECODE, &wire)
        })
        .collect();

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let to_second_reply = (0..ROUNDS)
        .map(|_| {
            let sent = Instant::now();
            stream.write_all(&pair).expect("send both requests in one write");
            for _ in 0..2 {
                let (frame_type, _) =
                    protocol::read_frame(&mut stream, 1 << 20).expect("read").expect("reply");
                assert_eq!(frame_type, protocol::IMAGE);
            }
            sent.elapsed()
        })
        .collect();
    let median = median(to_second_reply);
    println!("reactor pipelined pair, median time to second reply: {median:?}");
    drop(stream);
    handle.shutdown().expect("shutdown");
    assert!(
        median < Duration::from_millis(25),
        "median time to the second pipelined reply {median:?}: it is waiting on an ACK"
    );
}
