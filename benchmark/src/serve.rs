//! The two serving workloads, over loopback TCP against an in-process
//! server. The load generator is this process: at most two threads and at
//! most two connections at any time.
//!
//! `serve_steady` — **open loop**: seeded arrivals at a fixed 250 requests
//! per second of single-patch 32×32 containers (8 mask seeds × 16 images),
//! pipelined on one connection by a paced writer thread and a reader thread,
//! against the reactor front end with its default adaptive gateway. Latency
//! counts from each request's due time. The eight masks fit the plan cache
//! and windows are mostly one wide, so fusion and plan building are bypassed:
//! a fused-forward or plan-cache change must read "no change" here, a
//! per-request overhead fix must move it. Untrained `fast()` weights (decode
//! time does not depend on weight values), so set-up is short.
//!
//! `serve_batch` — **closed loop**: two unmodified blocking `EaszClient`s,
//! one thread each, looping `decode_batch` of 8 single-patch containers
//! against the threaded front end with the default gateway. Every container
//! has its own mask seed from a pool of 256 — more than the plan cache
//! holds, walked cyclically, so every lookup misses — and an erase ratio
//! drawn 1:2:1 from the three the paper switches between (unequal kept-counts
//! never fuse). It uses the same layers the other way: the other front end,
//! batch envelopes, windows formed across connections, multi-mask fused
//! forwards of varying width, plan-cache misses, the shipped client's socket
//! behaviour.

use crate::alloc;
use crate::harness::{self, Clock, Phase, RunArgs};
use crate::inputs::{self, digest, Rng};
use crate::probes;
use crate::report::Report;
use crate::spans::{self, Recorder, Span};
use crate::stats::{self, Sample, WINDOWS};
use easz_core::{EaszDecoder, EaszEncoded, Reconstructor, ReconstructorConfig};
use easz_image::ImageF32;
use easz_server::{
    protocol, EaszClient, EaszServer, GatewayConfig, ReactorConfig, ServerHandle, ServerStats,
    TraceConfig, TraceSpan, TraceStage,
};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Which of the two serving workloads runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `serve_steady`
    Steady,
    /// `serve_batch`
    Batch,
}

/// Offered rate of `serve_steady`, requests per second: about half of the
/// reference box's knee.
const RATE: f64 = 250.0;
/// Latency limit of `serve_steady`, from the due time.
const LIMIT_MS: f64 = 25.0;
/// Side of every container's source image: one patch.
const SIDE: usize = 32;
const PATCH_MPX: f64 = (SIDE * SIDE) as f64 / 1e6;
const STEADY_MASKS: usize = 8;
const STEADY_IMAGES: usize = 16;
const BATCH_MASKS: usize = 256;
const BATCH_IMAGES: usize = 64;
const BATCH: usize = 8;
const CLIENTS: usize = 2;
/// Operations of the check pass that `peak_heap_mib` is read on: requests of
/// `serve_steady`, batches of `serve_batch`.
const HEAP_OPS: usize = 32;

/// One container with what the server must answer.
struct Item {
    /// The request frame (`DECODE` + wire), for the pipelined writer.
    frame: Vec<u8>,
    wire: Vec<u8>,
    /// Digest of the `IMAGE` payload the server must reply with.
    expected: u64,
    /// Digest of the mask side channel: the plan-cache key.
    mask: u64,
}

struct Inputs {
    items: Vec<Item>,
    wire_bpp: f64,
    psnr_db: f64,
    /// Plans the local reference decoder holds after decoding every item.
    cached_plans: usize,
}

fn make_inputs(seed: u64, kind: Kind, model: &Reconstructor) -> Inputs {
    let mut rng = Rng::new(seed, 3 + kind as u64);
    let frames = inputs::frames(&mut rng, 2);
    let containers: Vec<(ImageF32, EaszEncoded)> = match kind {
        Kind::Steady => {
            let images = inputs::crops(&mut rng, &frames, SIDE, STEADY_IMAGES);
            let seeds: Vec<u64> = (0..STEADY_MASKS).map(|_| rng.next_u64()).collect();
            let pairs =
                seeds.iter().flat_map(|&seed| images.iter().map(move |image| (image, seed)));
            pairs
                .map(|(image, seed)| {
                    (image.clone(), inputs::encode(image, inputs::edge_config(0.25, seed, true)))
                })
                .collect()
        }
        Kind::Batch => {
            let images = inputs::crops(&mut rng, &frames, SIDE, BATCH_IMAGES);
            (0..BATCH_MASKS)
                .map(|k| {
                    let config = inputs::edge_config(
                        inputs::draw_erase_ratio(&mut rng),
                        rng.next_u64(),
                        true,
                    );
                    let image = &images[k % BATCH_IMAGES];
                    (image.clone(), inputs::encode(image, config))
                })
                .collect()
        }
    };
    // What the server must answer, computed locally: the same decoder code
    // run in process on the same container.
    let decoder = EaszDecoder::new(model);
    let (mut bits, mut psnr) = (0usize, 0.0);
    let items = containers
        .iter()
        .map(|(source, container)| {
            let reply = decoder.decode(container).expect("generated containers decode").to_u8();
            bits += container.total_bytes() * 8;
            psnr += easz_metrics::psnr(&reply.to_f32(), source);
            let wire = container.to_bytes();
            Item {
                frame: protocol::frame_bytes(protocol::DECODE, &wire),
                wire,
                expected: digest(&protocol::encode_image(&reply)),
                mask: digest(&container.mask_bytes),
            }
        })
        .collect::<Vec<Item>>();
    Inputs {
        wire_bpp: bits as f64 / (items.len() * SIDE * SIDE) as f64,
        psnr_db: psnr / items.len() as f64,
        cached_plans: decoder.cached_plans(),
        items,
    }
}

fn spawn(model: &Arc<Reconstructor>, kind: Kind, traced: bool) -> Result<ServerHandle, String> {
    let server = match kind {
        Kind::Steady => EaszServer::new(Arc::clone(model)).with_reactor(ReactorConfig::default()),
        Kind::Batch => EaszServer::new(Arc::clone(model)).with_gateway(GatewayConfig::default()),
    };
    // Every span of the pass is kept: the ring holds warm-up and pass alike.
    let trace =
        TraceConfig { capacity: 1 << 15, sample_every: 1, slow_threshold_us: 0, slow_capacity: 0 };
    let server = if traced { server.with_trace(trace) } else { server };
    server.spawn("127.0.0.1:0").map_err(|e| format!("could not spawn the server: {e}"))
}

/// The generator's pipelined connection of `serve_steady`.
struct Pipe {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Pipe {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let io = |e: std::io::Error| format!("generator socket: {e}");
        let writer = TcpStream::connect(addr).map_err(io)?;
        // The generator is not the system under test: its own small writes
        // must not wait for the server's ACKs.
        writer.set_nodelay(true).map_err(io)?;
        writer.set_read_timeout(Some(Duration::from_secs(20))).map_err(io)?;
        let reader = BufReader::new(writer.try_clone().map_err(io)?);
        Ok(Self { writer, reader })
    }

    /// Reads the next reply; `None` when the connection gave none.
    fn read_reply(reader: &mut BufReader<TcpStream>) -> Option<(u8, Vec<u8>)> {
        protocol::read_frame(reader, 1 << 24).ok().flatten()
    }

    /// Whether `reply` is the `IMAGE` the server must answer `item` with.
    fn is_expected(reply: &(u8, Vec<u8>), item: &Item) -> bool {
        reply.0 == protocol::IMAGE && digest(&reply.1) == item.expected
    }

    /// One request, one reply: warm-up and the check pass.
    fn round_trip(&mut self, item: &Item) -> bool {
        self.writer.write_all(&item.frame).is_ok()
            && Self::read_reply(&mut self.reader).is_some_and(|r| Self::is_expected(&r, item))
    }

    /// The open loop: request `i` is written when `due[i]` comes, whatever
    /// became of the ones before; replies are read on a second thread in
    /// request order, and checked after the clock has been read. Returns one
    /// sample per request.
    fn open_loop(&mut self, items: &[Item], order: &[usize], due: &[f64]) -> Phase {
        let n = due.len();
        let host_before = harness::host_speed_ms();
        let phase = Instant::now() + Duration::from_millis(20);
        let since = |at: Instant| at.saturating_duration_since(phase).as_secs_f64();
        let Self { writer, reader } = self;
        let (sent, replies) = std::thread::scope(|scope| {
            let paced = scope.spawn(move || {
                let mut sent = Vec::with_capacity(n);
                for (i, &at) in due.iter().enumerate() {
                    let wait = (phase + Duration::from_secs_f64(at))
                        .saturating_duration_since(Instant::now());
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    sent.push(since(Instant::now()));
                    if writer.write_all(&items[order[i]].frame).is_err() {
                        break;
                    }
                }
                sent
            });
            let collector = scope.spawn(move || {
                let mut replies = Vec::with_capacity(n);
                for &item in order {
                    let Some(reply) = Self::read_reply(reader) else { break };
                    let done = since(Instant::now());
                    replies.push((done, Self::is_expected(&reply, &items[item])));
                }
                replies
            });
            (
                paced.join().expect("the writer does not panic"),
                collector.join().expect("the reader does not panic"),
            )
        });
        // A request never written or never answered failed, and took at
        // least until the phase's last reading.
        let end = since(Instant::now());
        let samples = (0..n)
            .map(|i| {
                let (done, ok) = replies.get(i).copied().unwrap_or((end, false));
                Sample { due: due[i], sent: sent.get(i).copied().unwrap_or(end), done, ok }
            })
            .collect();
        Phase { samples, host: Vec::new(), host_around: [host_before, harness::host_speed_ms()] }
    }
}

/// Batch `j` of the cyclic walk over the items.
fn batch_wires(items: &[Item], j: usize) -> Vec<&[u8]> {
    let batches = items.len() / BATCH;
    items[(j % batches) * BATCH..(j % batches + 1) * BATCH]
        .iter()
        .map(|item| item.wire.as_slice())
        .collect()
}

/// One `decode_batch` round trip of batch `j`: what is timed. Returns a
/// closure that says — off the clock — whether all eight replies were the
/// images expected, in order.
fn batch_round_trip<'a>(
    client: &mut EaszClient,
    items: &'a [Item],
    j: usize,
) -> impl FnOnce() -> bool + 'a {
    let replies = client.decode_batch(&batch_wires(items, j));
    let first = (j % (items.len() / BATCH)) * BATCH;
    move || {
        replies.is_ok_and(|replies| {
            replies.len() == BATCH
                && replies.iter().enumerate().all(|(m, reply)| {
                    reply.as_ref().is_ok_and(|image| {
                        digest(&protocol::encode_image(image)) == items[first + m].expected
                    })
                })
        })
    }
}

/// The closed loop of `serve_batch`: each client sends its next batch when
/// its last one is answered, for `seconds`. Before the phase each client
/// walks all its batches once, untimed; `after_warmup` runs in between.
fn batch_loop(
    clients: &mut [EaszClient],
    items: &[Item],
    seconds: f64,
    after_warmup: impl FnOnce(),
) -> Phase {
    let per_client = items.len() / BATCH / CLIENTS;
    let barrier = Barrier::new(CLIENTS + 1);
    let mut host_around = [0.0; 2];
    let per_thread: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    // Client `c` walks batches c, c + 2, c + 4, …
                    let warm =
                        (0..per_client).all(|k| batch_round_trip(client, items, c + CLIENTS * k)());
                    barrier.wait();
                    barrier.wait();
                    let start = Instant::now();
                    let mut samples = Vec::new();
                    loop {
                        let due = start.elapsed().as_secs_f64();
                        if due >= seconds {
                            return samples;
                        }
                        let j = c + CLIENTS * (per_client + samples.len());
                        let check = batch_round_trip(client, items, j);
                        let done = start.elapsed().as_secs_f64();
                        samples.push(Sample { due, sent: due, done, ok: check() && warm });
                    }
                })
            })
            .collect();
        barrier.wait();
        after_warmup();
        host_around[0] = harness::host_speed_ms();
        barrier.wait();
        let samples =
            threads.into_iter().map(|t| t.join().expect("client threads do not panic")).collect();
        host_around[1] = harness::host_speed_ms();
        samples
    });
    let mut samples = per_thread.concat();
    samples.sort_by(|a, b| a.due.total_cmp(&b.due));
    Phase { samples, host: Vec::new(), host_around }
}

fn connect_client(addr: SocketAddr) -> Result<EaszClient, String> {
    EaszClient::connect(addr).map_err(|e| format!("client connect: {e}"))
}

/// The request order and due times of `serve_steady` for `seconds`.
fn steady_schedule(seed: u64, items: usize, seconds: f64) -> (Vec<usize>, Vec<f64>) {
    let mut rng = Rng::new(seed, 7);
    let due = inputs::schedule(&mut rng, RATE, seconds, WINDOWS);
    let order = (0..due.len()).map(|_| rng.below(items)).collect();
    (order, due)
}

/// Runs the workload.
pub fn run(args: &RunArgs, kind: Kind) -> Result<Report, String> {
    let model = Arc::new(Reconstructor::new(ReconstructorConfig::fast()));
    let inputs = make_inputs(args.seed, kind, &model);
    let server = spawn(&model, kind, false)?;
    let setup_s = args.setup_s();
    let items = &inputs.items;
    let seconds = if args.traced { args.quarter_s() } else { args.seconds as f64 };
    // The traced pass replays the first quarter of the measured run's schedule.
    let (order, due) = steady_schedule(args.seed, items.len(), args.seconds as f64);
    let due: Vec<f64> = due.into_iter().take_while(|&at| at < seconds).collect();
    let order = &order[..due.len()];
    let op_mpx = if kind == Kind::Steady { PATCH_MPX } else { PATCH_MPX * BATCH as f64 };
    let limit = (kind == Kind::Steady).then_some(LIMIT_MS);

    // One phase against `server`: warm-up (every item once, which fills the
    // plan cache and the arenas), `after_warmup`, then the loop.
    let phase = |server: &ServerHandle, after_warmup: &mut dyn FnMut()| -> Result<Phase, String> {
        match kind {
            Kind::Steady => {
                let mut pipe = Pipe::open(server.addr())?;
                let warm = items.iter().all(|item| pipe.round_trip(item));
                after_warmup();
                let mut phase = pipe.open_loop(items, order, &due);
                phase.samples.iter_mut().for_each(|s| s.ok &= warm);
                Ok(phase)
            }
            Kind::Batch => {
                let mut clients = (0..CLIENTS)
                    .map(|_| connect_client(server.addr()))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(batch_loop(&mut clients, items, seconds, after_warmup))
            }
        }
    };

    let mut report = Report::default();
    if args.traced {
        let untraced = phase(&server, &mut || ())?;
        drop(server);
        let server = spawn(&model, kind, true)?;
        let mut warm_stats = None;
        let traced = phase(&server, &mut || warm_stats = Some(server.metrics().snapshot()))?;
        let traced_ms: Vec<f64> = traced.samples.iter().map(Sample::latency_ms).collect();
        harness::fill_bench_layer(&mut report, &untraced, &traced, &traced_ms);
        let warm_stats = warm_stats.expect("the phase ran its warm-up");
        let mut all_spans =
            fill_server_layers(&mut report, &server, &warm_stats, &traced.samples, kind, items)?;
        let recorder = Recorder::new();
        probes::model(&recorder, &mut report, &model);
        probes::tensor(&recorder, &mut report, model.config());
        let wires: Vec<&[u8]> = items.iter().map(|i| i.wire.as_slice()).collect();
        probes::containers(&recorder, &mut report, &wires);
        let decoder = EaszDecoder::new(&model);
        probes::steady_allocs(
            &mut report,
            &decoder,
            &EaszEncoded::from_bytes(&items[0].wire).expect("generated wires parse"),
        );
        report.set("core.plan.cached_plans", inputs.cached_plans as f64);
        // Warm-up walks every item once; the pass then looks masks up in the
        // order the generator sends them.
        let warm: Vec<u64> = items.iter().map(|i| i.mask).collect();
        let lookups: Vec<u64> = match kind {
            Kind::Steady => order.iter().map(|&i| items[i].mask).collect(),
            Kind::Batch => {
                (0..traced.samples.len() * BATCH).map(|i| items[i % items.len()].mask).collect()
            }
        };
        report.set(
            "core.plan.miss_share",
            probes::fifo_miss_share(&warm, &lookups, probes::PLAN_CACHE_BOUND),
        );
        all_spans.extend(recorder.spans());
        spans::write_trace(&all_spans, workload_name(kind));
        return Ok(report);
    }

    let measured = phase(&server, &mut || ())?;
    report.set("setup_s", setup_s);
    harness::fill_timing(&mut report, &measured, seconds, op_mpx, limit, Clock::Wall)?;

    // Check pass, untimed and sequential, on the evaluation inputs
    // (`inputs::EVAL_SEED`): every reply must be the image the local decode
    // gives, and `wire_bpp` and `psnr_db` are those containers' and those
    // replies'. `peak_heap_mib` is what one request or one batch adds at its
    // peak to the process's live heap — generator, sockets and server
    // together — the largest of `HEAP_OPS` of them.
    let eval = make_inputs(inputs::EVAL_SEED, kind, &model);
    let mut peak = 0;
    let mut measured_op = |op: &mut dyn FnMut() -> bool| {
        let (ok, heap) = alloc::measure(op);
        peak = peak.max(heap.peak);
        ok
    };
    let replies_ok = match kind {
        Kind::Steady => {
            let mut pipe = Pipe::open(server.addr())?;
            eval.items.iter().all(|item| pipe.round_trip(item))
                && eval.items[..HEAP_OPS]
                    .iter()
                    .all(|item| measured_op(&mut || pipe.round_trip(item)))
        }
        Kind::Batch => {
            let mut client = connect_client(server.addr())?;
            (0..eval.items.len() / BATCH).all(|j| batch_round_trip(&mut client, &eval.items, j)())
                && (0..HEAP_OPS)
                    .all(|j| measured_op(&mut || batch_round_trip(&mut client, &eval.items, j)()))
        }
    };
    report.check("check pass replies", eval.items.len() as u64, u64::from(!replies_ok));
    report.set("wire_bpp", eval.wire_bpp);
    report.set("psnr_db", eval.psnr_db);
    report.set("peak_heap_mib", alloc::mib(peak));

    let stats = server.metrics().snapshot();
    println!(
        "server: requests={} ok={} err={} shed={} inline={} groups={} queue_peak={}",
        stats.decode_requests,
        stats.decode_ok,
        stats.decode_err,
        stats.requests_shed,
        stats.inline_decodes,
        stats.batches_dispatched,
        stats.queue_peak
    );
    server.shutdown().map_err(|e| format!("server shutdown: {e}"))?;
    Ok(report)
}

fn workload_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Steady => "serve_steady",
        Kind::Batch => "serve_batch",
    }
}

/// A leg of a request's life inside the server, as its span stamps it: the
/// span name, the two milestones it runs between (`None`: the request frame
/// assembled, offset 0), and the metrics its p50 and p90 are reported as.
type Leg = (&'static str, Option<TraceStage>, TraceStage, &'static str, Option<&'static str>);

const LEGS: [Leg; 5] = [
    (
        "server.front.admit",
        None,
        TraceStage::Admitted,
        "server.front.admit_p50_us",
        Some("server.front.admit_p90_us"),
    ),
    (
        "server.batcher.window_wait",
        Some(TraceStage::Enqueued),
        TraceStage::WindowClosed,
        "server.batcher.window_wait_p50_us",
        Some("server.batcher.window_wait_p90_us"),
    ),
    (
        "server.batcher.dispatch_wait",
        Some(TraceStage::WindowClosed),
        TraceStage::DecodeStart,
        "server.batcher.dispatch_wait_p50_us",
        Some("server.batcher.dispatch_wait_p90_us"),
    ),
    (
        "core.decoder.decode",
        Some(TraceStage::DecodeStart),
        TraceStage::DecodeEnd,
        "server.trace.decode_p50_us",
        None,
    ),
    (
        "server.front.reply",
        Some(TraceStage::DecodeEnd),
        TraceStage::ReplyWritten,
        "server.front.reply_p50_us",
        Some("server.front.reply_p90_us"),
    ),
];

/// Start and end of a leg in `span`, µs from the span's start; `None` when
/// the request never reached one of its milestones.
fn leg_us(span: &TraceSpan, from: Option<TraceStage>, to: TraceStage) -> Option<(u32, u32)> {
    let start = from.map_or(Some(0), |stage| span.stage_us(stage))?;
    Some((start, span.stage_us(to)?.max(start)))
}

/// p50 and p90 of `values` into the two named metrics; the p90 is left out
/// when the sample is too thin for one.
fn set_percentiles(
    report: &mut Report,
    p50: &'static str,
    p90: Option<&'static str>,
    values: &[f64],
) {
    if values.is_empty() {
        return;
    }
    report.set_timing(p50, stats::median(values), values.len(), Vec::new());
    if let (Some(name), Some(p)) = (p90, stats::tail_percentile(values, 0.9)) {
        report.set_timing(name, p, values.len(), Vec::new());
    }
}

/// The `server.*` readings of the traced pass, from the telemetry the
/// server already exposes: its request spans (drained over a `TRACE` frame)
/// and its always-on metrics snapshot, the latter as the change since
/// warm-up ended.
fn fill_server_layers(
    report: &mut Report,
    server: &ServerHandle,
    warm: &ServerStats,
    samples: &[Sample],
    kind: Kind,
    items: &[Item],
) -> Result<Vec<Span>, String> {
    let trace =
        connect_client(server.addr())?.trace().map_err(|e| format!("TRACE request: {e}"))?;
    // Span ids count requests from the server's start: warm-up sent every
    // item once, the pass is everything after.
    let pass: Vec<&TraceSpan> =
        trace.recent.iter().filter(|s| s.id >= items.len() as u64).collect();
    for (_, from, to, p50, p90) in LEGS {
        let durations: Vec<f64> = pass
            .iter()
            .filter_map(|s| leg_us(s, from, to))
            .map(|(a, b)| f64::from(b - a))
            .collect();
        set_percentiles(report, p50, p90, &durations);
    }
    let totals: Vec<f64> = pass.iter().map(|s| f64::from(s.total_us())).collect();
    set_percentiles(
        report,
        "server.trace.span_total_p50_us",
        Some("server.trace.span_total_p90_us"),
        &totals,
    );

    // Decode stages as the server's own sink summed them, per container.
    let names = [
        "core.decoder.stage_parse_ms",
        "core.decoder.stage_plan_ms",
        "core.decoder.stage_forward_ms",
        "core.decoder.stage_finish_ms",
    ];
    let containers = trace.recent.len().max(1) as f64;
    for (name, (_, total_us)) in names.into_iter().zip(trace.decode_stages) {
        report.set_timing(name, total_us as f64 / containers / 1e3, trace.recent.len(), Vec::new());
    }

    let client_p50 = stats::median(&samples.iter().map(Sample::latency_ms).collect::<Vec<f64>>());
    let server_p50_us = if totals.is_empty() { 0.0 } else { stats::median(&totals) };
    match kind {
        Kind::Steady => {
            report.set("server.protocol.wire_overhead_us", client_p50 * 1e3 - server_p50_us)
        }
        Kind::Batch => {
            // A batch's residence in the server: from its first member's
            // frame to its last member's reply, members being consecutive
            // spans of one connection.
            let mut by_source: std::collections::BTreeMap<u64, Vec<&TraceSpan>> =
                std::collections::BTreeMap::new();
            pass.iter().for_each(|s| by_source.entry(s.source).or_default().push(s));
            let residence: Vec<f64> = by_source
                .values()
                .flat_map(|spans| spans.chunks_exact(BATCH))
                .map(|batch| {
                    let start = batch.iter().map(|s| s.start_us).min().expect("eight members");
                    let end = batch
                        .iter()
                        .map(|s| s.start_us + u64::from(s.total_us()))
                        .max()
                        .expect("eight members");
                    (end - start) as f64 / 1e3
                })
                .collect();
            let residence_p50 = if residence.is_empty() { 0.0 } else { stats::median(&residence) };
            report.set("server.client.batch_rtt_minus_decode_ms", client_p50 - residence_p50);
            report.set("server.protocol.wire_overhead_us", (client_p50 - residence_p50) * 1e3);
        }
    }
    let per_request = |f: &dyn Fn(&Item) -> usize| {
        harness::mean(&items.iter().map(|i| f(i) as f64).collect::<Vec<f64>>())
    };
    report.set("server.protocol.frame_bytes_in", per_request(&|i| i.frame.len()));
    // An IMAGE reply: frame header, 9 bytes of dimensions, RGB samples.
    report.set(
        "server.protocol.frame_bytes_out",
        (protocol::FRAME_HEADER_LEN + 9 + SIDE * SIDE * 3) as f64,
    );

    let now = server.metrics().snapshot();
    let groups: Vec<f64> =
        now.batch_widths.iter().zip(warm.batch_widths).map(|(a, b)| (a - b) as f64).collect();
    let requests: f64 = groups.iter().enumerate().map(|(w, n)| (w + 1) as f64 * n).sum();
    let fused: f64 = groups.iter().enumerate().skip(1).map(|(w, n)| (w + 1) as f64 * n).sum();
    let dispatched = groups.iter().sum::<f64>();
    report.set("server.batcher.windows", dispatched);
    report.set(
        "server.batcher.mean_width",
        if dispatched > 0.0 { requests / dispatched } else { 0.0 },
    );
    report.set("server.batcher.fused_share", if requests > 0.0 { fused / requests } else { 0.0 });
    report.set("server.batcher.queue_peak", now.queue_peak as f64);
    report.set("server.batcher.inline_decodes", (now.inline_decodes - warm.inline_decodes) as f64);
    report.set("server.batcher.deadlines_expired", now.deadlines_expired as f64);
    report.set("server.front.connections_accepted", now.connections_accepted as f64);
    report.set("server.front.requests_shed", now.requests_shed as f64);
    // Log2 histograms: the values are bucket upper bounds.
    report.set("server.metrics.service_p50_us", now.service_percentile_us(0.5) as f64);
    report.set("server.metrics.decode_p50_us", now.decode_percentile_us(0.5) as f64);

    // The server's spans as spans of the trace file, on the server tracer's
    // clock: each request's milestones under one `server.request`, whose
    // operation is the request's position in the pass.
    let mut out = Vec::new();
    for (op, s) in pass.iter().enumerate() {
        let at = |us: u32| (s.start_us + u64::from(us)) as f64;
        let root = out.len();
        out.push(Span {
            name: "server.request",
            start_us: at(0),
            end_us: at(s.total_us()),
            parent: None,
            op: op as u64,
        });
        for (name, from, to, _, _) in LEGS {
            if let Some((start, end)) = leg_us(s, from, to) {
                out.push(Span {
                    name,
                    start_us: at(start),
                    end_us: at(end),
                    parent: Some(root),
                    op: op as u64,
                });
            }
        }
    }
    Ok(out)
}
