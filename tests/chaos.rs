//! Chaos soak for the serving stack: seeded fault schedules (torn writes,
//! EINTR storms, aborted accepts, short reads, stalled / panicking decodes,
//! refused gateway submissions, shed with `BUSY` on either) against both
//! front ends, asserting the failure-model contract end to end — no hangs,
//! one typed reply per request, exact metrics reconciliation, and every
//! successful reply byte-identical to a fault-free local decode.
//!
//! Faults come from `easz_server::fault` (compiled in via the test-only
//! `fault-injection` feature): every schedule is a pure function of its
//! seed, so a failing run reproduces from the seed in the assertion
//! message. The reactor front end is Linux-only (epoll), so this suite is
//! too.
#![cfg(target_os = "linux")]

use easz::codecs::{JpegLikeCodec, Quality};
use easz::core::{EaszConfig, EaszDecoder, EaszEncoder, Reconstructor, ReconstructorConfig};
use easz::data::Dataset;
use easz::image::ImageU8;
use easz::server::fault::{self, FaultCounters, FaultPlan};
use easz::server::{
    protocol, ClientError, EaszClient, EaszServer, ErrorCode, GatewayConfig, ReactorConfig,
    RetryPolicy, ServerHandle,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Weights don't matter for wire-level behaviour; the untrained (seeded,
/// deterministic) model keeps the soak fast.
fn model() -> Arc<Reconstructor> {
    Arc::new(Reconstructor::new(ReconstructorConfig::fast()))
}

/// One container per mask seed — concurrent clients with distinct seeds
/// make the gateway actually fuse multi-mask windows.
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

/// The fault-free ground truth every successful reply must match, byte for
/// byte (local decoding never passes through the fault hooks).
fn local_references(model: &Arc<Reconstructor>, wires: &[Vec<u8>]) -> Vec<ImageU8> {
    let local = EaszDecoder::new(model);
    wires.iter().map(|w| local.decode_bytes(w).expect("local decode").to_u8()).collect()
}

/// The serving topologies under chaos: both front ends, each decoding
/// every request through the gateway's worker pool.
#[derive(Clone, Copy, Debug)]
enum Front {
    Threaded,
    Reactor,
}

fn spawn(front: Front, model: &Arc<Reconstructor>, gateway: GatewayConfig) -> ServerHandle {
    let server = EaszServer::new(model.clone()).with_gateway(gateway);
    match front {
        Front::Threaded => server,
        Front::Reactor => server.with_reactor(ReactorConfig::default()),
    }
    .spawn("127.0.0.1:0")
    .expect("spawn server")
}

/// A client whose reads time out: the no-hang gate. A request the server
/// never answers trips the 60 s timeout and fails the test instead of
/// wedging the suite.
fn chaos_client(addr: SocketAddr, retry: Option<RetryPolicy>) -> EaszClient {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let client = EaszClient::from_stream(stream);
    match retry {
        Some(policy) => client.with_retry(policy),
        None => client,
    }
}

/// The only errors the failure model may produce for a *pristine*
/// container: a shed (35), an isolated panic (37), a swept deadline (38).
/// Anything else — container-class codes, protocol errors, closes — means
/// a fault corrupted server state.
fn assert_degraded_only(code: ErrorCode, context: &str) {
    assert!(
        matches!(code, ErrorCode::Busy | ErrorCode::Internal | ErrorCode::DeadlineExceeded),
        "{context}: pristine container answered with {code:?}"
    );
}

fn reconcile(stats: &easz::server::ServerStats, context: &str) {
    assert_eq!(
        stats.decode_requests,
        stats.decode_ok + stats.decode_err + stats.requests_shed,
        "{context}: every admitted decode must be answered exactly once \
         (ok + typed error + shed must account for all requests)"
    );
    assert_eq!(stats.inline_decodes, 0, "{context}: nothing decodes outside the gateway");
}

fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        read_interrupt_permille: 80,
        write_split_permille: 120,
        accept_abort_permille: 15,
        epoll_spurious_permille: 80,
        short_read_permille: 100,
        decode_delay_permille: 60,
        decode_delay_us: 3_000,
        decode_panic_permille: 40,
        submit_refuse_permille: 60,
        ..FaultPlan::default()
    }
}

/// One seeded schedule: install the plan, serve, hammer with concurrent
/// retrying clients, reconcile the metrics, shut down under fire. Returns
/// the schedule's fault counters and how many replies decoded successfully.
fn run_schedule(
    seed: u64,
    front: Front,
    model: &Arc<Reconstructor>,
    wires: &[Vec<u8>],
    references: &[ImageU8],
) -> (FaultCounters, usize) {
    let guard = fault::install(chaos_plan(seed));
    let gateway = GatewayConfig {
        max_batch: 4,
        max_wait_us: 2_000,
        workers: 2,
        queue_depth: 32,
        adaptive_wait: false,
        deadline_us: 2_000_000,
    };
    let handle = spawn(front, model, gateway);
    let context = format!("seed {seed} front {front:?}");

    let successes: usize = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..2u64)
            .map(|client_idx| {
                let (wires, context, addr) = (wires, &context, handle.addr());
                scope.spawn(move || {
                    let policy = RetryPolicy {
                        max_retries: 6,
                        base_delay: Duration::from_millis(2),
                        max_delay: Duration::from_millis(20),
                        jitter_seed: seed ^ client_idx,
                    };
                    let mut client = chaos_client(addr, Some(policy));
                    let mut ok = 0usize;
                    for _pass in 0..2 {
                        for (i, wire) in wires.iter().enumerate() {
                            match client.decode(wire) {
                                Ok(img) => {
                                    assert_eq!(
                                        img.data(),
                                        references[i].data(),
                                        "{context}: reply under faults != fault-free decode"
                                    );
                                    ok += 1;
                                }
                                Err(ClientError::Remote(err)) => {
                                    assert_degraded_only(err.code, context);
                                }
                                Err(e) => panic!("{context}: transport failed past retries: {e}"),
                            }
                        }
                    }
                    // One batch over everything: the positional contract
                    // must hold under faults — a panicking or shed batchmate
                    // fails its own slot only.
                    let refs: Vec<&[u8]> = wires.iter().map(Vec::as_slice).collect();
                    let results = client
                        .decode_batch(&refs)
                        .unwrap_or_else(|e| panic!("{context}: batch envelope failed: {e}"));
                    for (i, result) in results.into_iter().enumerate() {
                        match result {
                            Ok(img) => {
                                assert_eq!(
                                    img.data(),
                                    references[i].data(),
                                    "{context}: batch slot {i} != fault-free decode"
                                );
                                ok += 1;
                            }
                            Err(err) => assert_degraded_only(err.code, context),
                        }
                    }
                    ok
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("client thread")).sum()
    });

    // Settle and reconcile on fresh probes (a probe connection can itself
    // be killed by an injected accept abort, so a few attempts are fair).
    let mut stats = None;
    for _ in 0..10 {
        let mut probe = chaos_client(handle.addr(), None);
        if let Ok(s) = probe.stats() {
            if probe.ping().is_ok() {
                stats = Some(s);
                break;
            }
        }
    }
    let stats = stats.unwrap_or_else(|| panic!("{context}: stats probe never settled"));
    reconcile(&stats, &context);

    // Shutdown still under the fault plan: the drain invariant must hold
    // with faults firing.
    handle.shutdown().unwrap_or_else(|e| panic!("{context}: shutdown under faults: {e}"));
    let counters = fault::counters();
    drop(guard);
    (counters, successes)
}

#[test]
fn chaos_soak_holds_the_failure_model_on_both_front_ends() {
    let model = model();
    let wires = fleet_containers(&[21, 22, 23]);
    let references = local_references(&model, &wires);

    let mut total = FaultCounters::default();
    let mut successes = 0usize;
    for seed in 0..8u64 {
        for front in [Front::Reactor, Front::Threaded] {
            let (counters, ok) = run_schedule(seed, front, &model, &wires, &references);
            successes += ok;
            total = FaultCounters {
                read_interrupts: total.read_interrupts + counters.read_interrupts,
                write_splits: total.write_splits + counters.write_splits,
                accept_aborts: total.accept_aborts + counters.accept_aborts,
                epoll_spurious: total.epoll_spurious + counters.epoll_spurious,
                short_reads: total.short_reads + counters.short_reads,
                decode_delays: total.decode_delays + counters.decode_delays,
                decode_panics: total.decode_panics + counters.decode_panics,
                submit_refusals: total.submit_refusals + counters.submit_refusals,
            };
        }
    }

    assert!(successes > 0, "no request ever succeeded: the soak shed everything");
    // The schedules must actually have injected faults, or the soak passed
    // vacuously (each line names the layer whose hook went dead).
    assert!(total.read_interrupts > 0, "protocol read hook never fired: {total:?}");
    assert!(total.write_splits > 0, "protocol write hook never fired: {total:?}");
    assert!(total.epoll_spurious > 0, "epoll shim hook never fired: {total:?}");
    assert!(total.short_reads > 0, "reactor read hook never fired: {total:?}");
    assert!(total.decode_delays > 0, "decode stall hook never fired: {total:?}");
    assert!(total.decode_panics > 0, "decode panic hook never fired: {total:?}");
    assert!(total.submit_refusals > 0, "gateway submit hook never fired: {total:?}");
}

#[test]
fn a_forced_decode_panic_fails_one_request_and_the_pool_recovers() {
    let model = model();
    let wires = fleet_containers(&[31, 32]);
    let references = local_references(&model, &wires);
    for front in [Front::Threaded, Front::Reactor] {
        let _guard = fault::install(FaultPlan { decode_panic_oneshot: 1, ..FaultPlan::default() });
        let gateway = GatewayConfig {
            max_batch: 4,
            max_wait_us: 2_000,
            workers: 2,
            ..GatewayConfig::default()
        };
        let handle = spawn(front, &model, gateway);
        let mut client = chaos_client(handle.addr(), None);

        // The poisoned decode answers with INTERNAL and nothing else dies.
        match client.decode(&wires[0]) {
            Err(ClientError::Remote(err)) => {
                assert_eq!(err.code, ErrorCode::Internal, "{front:?}");
                assert!(
                    err.message.contains("injected decode panic"),
                    "{front:?}: the caught panic's message must round-trip, got {:?}",
                    err.message
                );
            }
            other => panic!("{front:?}: expected INTERNAL, got {other:?}"),
        }

        // Same connection, post-panic: the worker was respawned and replies
        // are byte-identical again.
        for (i, wire) in wires.iter().enumerate() {
            let img = client.decode(wire).unwrap_or_else(|e| {
                panic!("{front:?}: decode {i} after the panic must succeed: {e}")
            });
            assert_eq!(img.data(), references[i].data(), "{front:?}: post-panic byte identity");
        }

        let stats = client.stats().expect("stats");
        assert!(stats.panics_caught >= 1, "{front:?}: {stats:?}");
        assert_eq!(stats.error_count(ErrorCode::Internal), 1, "{front:?}");
        assert_eq!(stats.worker_respawns, 1, "{front:?}: one poisoning, one respawn");
        reconcile(&stats, &format!("{front:?}"));
        drop(client);
        handle.shutdown().expect("shutdown");
    }
}

#[test]
fn a_stalled_worker_expires_queued_deadlines_instead_of_parking_handlers() {
    let model = model();
    let wires = fleet_containers(&[41]);
    let references = local_references(&model, &wires);
    for front in [Front::Threaded, Front::Reactor] {
        let _guard = fault::install(FaultPlan {
            decode_delay_oneshot: 1,
            decode_delay_us: 1_500_000,
            ..FaultPlan::default()
        });
        // One worker, windows of one, 50 ms scheduling deadline: the first
        // request monopolises the worker for 1.5 s, so everything queued
        // behind it must be swept and answered — not parked until the
        // worker frees up.
        let gateway = GatewayConfig {
            max_batch: 1,
            max_wait_us: 1_000,
            workers: 1,
            queue_depth: 8,
            adaptive_wait: false,
            deadline_us: 50_000,
        };
        let handle = spawn(front, &model, gateway);
        let addr = handle.addr();
        let wire = &wires[0];

        std::thread::scope(|scope| {
            // The deadline bounds *scheduling*, not decode duration: the
            // stalled request was dispatched in time and must still finish.
            let slow = scope.spawn(move || {
                let mut client = chaos_client(addr, None);
                let started = Instant::now();
                let img = client.decode(wire).expect("stalled decode still completes");
                (img, started.elapsed())
            });
            // Let the slow request reach the worker before queuing behind it.
            std::thread::sleep(Duration::from_millis(150));
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(move || {
                        let mut client = chaos_client(addr, None);
                        let started = Instant::now();
                        (client.decode(wire), started.elapsed())
                    })
                })
                .collect();

            for waiter in waiters {
                let (result, elapsed) = waiter.join().expect("waiter thread");
                match result {
                    Err(ClientError::Remote(err)) => {
                        assert_eq!(err.code, ErrorCode::DeadlineExceeded, "{front:?}")
                    }
                    other => panic!("{front:?}: expected DEADLINE_EXCEEDED, got {other:?}"),
                }
                // The sweep must answer within deadline + tick slack — far
                // before the stalled worker would have freed up.
                assert!(
                    elapsed < Duration::from_millis(1_000),
                    "{front:?}: swept reply took {elapsed:?}, deadline is 50 ms"
                );
            }
            let (img, slow_elapsed) = slow.join().expect("slow client");
            assert_eq!(img.data(), references[0].data(), "{front:?}");
            assert!(
                slow_elapsed >= Duration::from_millis(500),
                "{front:?}: the injected stall must actually stall, took {slow_elapsed:?}"
            );
        });

        let stats = handle.metrics().snapshot();
        assert_eq!(stats.deadlines_expired, 2, "{front:?}: {stats:?}");
        assert_eq!(stats.error_count(ErrorCode::DeadlineExceeded), 2, "{front:?}");
        reconcile(&stats, &format!("{front:?}"));
        handle.shutdown().expect("shutdown");
    }
}

/// Deterministic per-case PRNG and the container mutator, mirroring
/// `tests/parse_fuzz.rs` (test binaries cannot share code without a
/// support crate; the duplication is the lesser evil).
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

fn mutate(rng: &mut Rng, base: &[u8], other: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    match rng.below(7) {
        0 | 1 => {
            for _ in 0..=rng.below(8) {
                let at = rng.below(bytes.len());
                bytes[at] ^= (rng.next() as u8).max(1);
            }
        }
        2 => bytes.truncate(rng.below(bytes.len() + 1)),
        3 => bytes.extend((0..=rng.below(64)).map(|_| rng.next() as u8)),
        4 => {
            let cut = rng.below(bytes.len());
            bytes.truncate(cut);
            let from = rng.below(other.len());
            bytes.extend_from_slice(&other[from..]);
        }
        5 => {
            let (w, h) = ((1u32 << (10 + rng.below(10))), (1u32 << (10 + rng.below(10))));
            bytes[14..18].copy_from_slice(&w.to_le_bytes());
            bytes[18..22].copy_from_slice(&h.to_le_bytes());
        }
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
fn mutated_container_replay_stays_typed_and_the_connection_survives() {
    let model = model();
    let wires = fleet_containers(&[51, 52, 53]);
    let references = local_references(&model, &wires);
    for front in [Front::Threaded, Front::Reactor] {
        // A neutral plan injects nothing but holds the fault serialization
        // lock, so a concurrently running chaos test cannot leak injected
        // faults into this sweep's accounting.
        let _guard = fault::install(FaultPlan::default());
        let gateway = GatewayConfig {
            max_batch: 4,
            max_wait_us: 2_000,
            workers: 2,
            ..GatewayConfig::default()
        };
        let handle = spawn(front, &model, gateway);
        let mut client = chaos_client(handle.addr(), None);

        let (mut typed_errors, mut decoded) = (0u64, 0u64);
        for case in 0..150u64 {
            let mut rng = Rng::new(0xC4A0_5000 + case);
            let base = &wires[rng.below(wires.len())];
            let other = &wires[rng.below(wires.len())];
            let mutant = mutate(&mut rng, base, other);
            match client.decode(&mutant) {
                Ok(_) => decoded += 1,
                // Remote means the reply parsed as a typed WireError — the
                // uniform contract for untrusted bytes, now including
                // mutants that panic the decoder (isolated to INTERNAL).
                Err(ClientError::Remote(_)) => typed_errors += 1,
                Err(e) => panic!("{front:?} case {case}: non-typed failure: {e}"),
            }
            if case % 25 == 0 {
                // The connection must stay in sync mid-sweep.
                assert_eq!(client.ping().expect("ping"), protocol::PROTOCOL_VERSION);
            }
        }
        assert!(typed_errors > 0, "mutation sweep too gentle to mean anything");

        // The same connection still serves pristine containers,
        // byte-identical to local decodes.
        for (i, wire) in wires.iter().enumerate() {
            let img = client.decode(wire).expect("pristine decode after the sweep");
            assert_eq!(img.data(), references[i].data(), "{front:?}");
        }

        let stats = client.stats().expect("stats");
        reconcile(&stats, &format!("{front:?}"));
        assert_eq!(stats.decode_ok, decoded + wires.len() as u64, "{front:?}");
        assert_eq!(stats.decode_err, typed_errors, "{front:?}");
        drop(client);
        handle.shutdown().expect("shutdown");
    }
}
