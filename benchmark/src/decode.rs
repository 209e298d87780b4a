//! `decode_offline`: the server's reconstruction, in process and without
//! sockets. Closed loop of `EaszDecoder::decode_batch_with` on batches of
//! four 128×128 containers (16 patches each, four distinct mask seeds, erase
//! ratio 0.25, so one fused multi-mask forward of 64 patches ≈ 3 000 encoder
//! rows), the f32 tier and the int8 tier taking turns on the same batch.
//!
//! One operation is that pair of decodes: both tiers weigh in on every
//! timing metric, so a change that helps the f32 matmul but costs the int8
//! kernels (or the arena and pool they share) shows. The transformer forward
//! dominates; `server` does nothing.

use crate::alloc;
use crate::harness::{self, Clock, RunArgs};
use crate::inputs::{self, Rng};
use crate::probes;
use crate::report::Report;
use crate::spans::{self, Recorder, Span, SpanId};
use easz_core::{
    DecodeEngine, DecodeStage, EaszDecoder, EaszEncoded, Reconstructor, ReconstructorConfig,
    TrainConfig, Trainer,
};
use easz_data::Dataset;
use easz_image::ImageF32;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Batches the timed loop walks.
const BATCHES: usize = 4;
/// Batches of the evaluation inputs, which `wire_bpp` and `psnr_db` are read
/// on: 64 crops.
const EVAL_BATCHES: usize = 16;
const BATCH: usize = 4;
const SIDE: usize = 128;
const ERASE_RATIO: f64 = 0.25;
const TIERS: [DecodeEngine; 2] = [DecodeEngine::TapeFree, DecodeEngine::QuantizedInt8];

/// The model every decoding workload that reads quality uses: `fast()`
/// trained in set-up, in process and without the `zoo` disk cache (so
/// `setup_s` repeats), for 100 steps on 32 CIFAR-like tiles. That lifts
/// PSNR from ≈ 14 dB (random weights) to ≈ 27 dB, enough for `psnr_db` to
/// react to the codec and to the forward alike. The corpus and the trainer
/// seed are fixed: the model is part of the program, not of the inputs.
pub fn trained_model() -> Reconstructor {
    let corpus = Dataset::CifarLike.images(32);
    let mut trainer = Trainer::new(
        Reconstructor::new(ReconstructorConfig::fast()),
        TrainConfig { lr: 1.2e-3, ..Default::default() },
    );
    trainer.train(&corpus, 100);
    trainer.into_model()
}

struct Batch {
    sources: Vec<ImageF32>,
    /// As the edge sends them (grain synthesis on): what is timed.
    containers: Vec<EaszEncoded>,
    /// The same streams with grain synthesis off: what `psnr_db` is read on.
    plain: Vec<EaszEncoded>,
}

/// `count` batches of four crops from four frames, all chosen by `seed`.
fn make_batches(seed: u64, count: usize) -> Vec<Batch> {
    let mut rng = Rng::new(seed, 2);
    let frames = inputs::frames(&mut rng, BATCHES);
    (0..count)
        .map(|_| {
            let sources = inputs::crops(&mut rng, &frames, SIDE, BATCH);
            let seeds: Vec<u64> = (0..BATCH).map(|_| rng.next_u64()).collect();
            let encode_all = |grain: bool| -> Vec<EaszEncoded> {
                sources
                    .iter()
                    .zip(&seeds)
                    .map(|(s, &seed)| {
                        inputs::encode(s, inputs::edge_config(ERASE_RATIO, seed, grain))
                    })
                    .collect()
            };
            Batch { containers: encode_all(true), plain: encode_all(false), sources }
        })
        .collect()
}

/// A batch decoded on one tier; `None` if a container failed to decode.
type Decoded = Option<Vec<ImageF32>>;

fn decode(decoder: &EaszDecoder<'_>, containers: &[EaszEncoded], tier: DecodeEngine) -> Decoded {
    decoder
        .decode_batch_with(black_box(containers), &vec![tier; containers.len()])
        .into_iter()
        .collect::<Result<_, _>>()
        .ok()
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    let (model, batches) = (trained_model(), make_batches(args.seed, BATCHES));
    let setup_s = args.setup_s();
    let decoder = EaszDecoder::new(&model);
    // Warm-up, untimed: fills the plan cache and the arenas on both tiers and
    // fixes the output every later decode of a batch is compared with.
    let mut expected: Vec<[Vec<ImageF32>; 2]> = Vec::new();
    for batch in &batches {
        let [f32_out, q8_out] = TIERS.map(|tier| decode(&decoder, &batch.containers, tier));
        let failed = "a generated container failed to decode";
        expected.push([f32_out.ok_or(failed)?, q8_out.ok_or(failed)?]);
    }
    let (batches, expected) = (&batches, &expected);
    let pair_mpx = (TIERS.len() * BATCH * SIDE * SIDE) as f64 / 1e6;
    // Seconds spent in each tier's decodes, for the per-tier rates.
    let mut tier_s = [0.0f64; 2];
    let mut pair = |i: usize| -> [Decoded; 2] {
        std::array::from_fn(|t| {
            let start = Instant::now();
            let out = decode(&decoder, &batches[i % batches.len()].containers, TIERS[t]);
            tier_s[t] += start.elapsed().as_secs_f64();
            out
        })
    };
    let as_expected = |i: usize, out: [Decoded; 2]| {
        out.iter().zip(&expected[i % batches.len()]).all(|(out, want)| out.as_ref() == Some(want))
    };

    let mut report = Report::default();
    if args.traced {
        let untraced = harness::closed_loop(args.quarter_s(), &mut pair, as_expected);
        let pairs = untraced.samples.len();
        let [f32_mpx_s, q8_mpx_s] = tier_s.map(|s| pairs as f64 * pair_mpx / 2.0 / s);
        report.set_timing("core.decoder.f32_mpx_s", f32_mpx_s, pairs, Vec::new());
        report.set_timing("core.decoder.q8_mpx_s", q8_mpx_s, pairs, Vec::new());
        let recorder = Arc::new(Recorder::new());
        let traced = traced_pass(args, &recorder, &mut report, &model, batches, as_expected);
        let traced_ms: Vec<f64> = traced.samples.iter().map(|s| s.latency_ms()).collect();
        harness::fill_bench_layer(&mut report, &untraced, &traced, &traced_ms);
        probes::model(&recorder, &mut report, &model);
        probes::tensor(&recorder, &mut report, model.config());
        let wires: Vec<Vec<u8>> =
            batches.iter().flat_map(|b| b.containers.iter().map(EaszEncoded::to_bytes)).collect();
        let wires: Vec<&[u8]> = wires.iter().map(Vec::as_slice).collect();
        probes::containers(&recorder, &mut report, &wires);
        probes::steady_allocs(&mut report, &decoder, &batches[0].containers[0]);
        report.set("core.plan.cached_plans", decoder.cached_plans() as f64);
        // Sixteen masks, all built in warm-up, looked up cyclically.
        let masks: Vec<u64> = (0..(BATCHES * BATCH) as u64).collect();
        let lookups: Vec<u64> =
            (0..traced.samples.len() * TIERS.len()).flat_map(|_| masks.iter().copied()).collect();
        report.set(
            "core.plan.miss_share",
            probes::fifo_miss_share(&masks, &lookups, probes::PLAN_CACHE_BOUND),
        );
        fill_layers(&mut report, &recorder);
        return Ok(report);
    }

    let phase = harness::closed_loop(args.seconds as f64, &mut pair, as_expected);
    let pairs = phase.samples.len();
    let [f32_mpx_s, q8_mpx_s] = tier_s.map(|s| pairs as f64 * pair_mpx / 2.0 / s);
    println!(
        "per tier, wall clock: f32 {f32_mpx_s:.4} Mpx/s, int8 {q8_mpx_s:.4} Mpx/s (n={pairs})"
    );
    report.set("setup_s", setup_s);
    harness::fill_timing(
        &mut report,
        &phase,
        args.seconds as f64,
        pair_mpx,
        None,
        Clock::Reference,
    )?;
    check(&mut report, &decoder, batches, expected);
    count(&mut report, &decoder);
    Ok(report)
}

/// The correctness checks on this run's batches, untimed: the fused batch
/// equals the serial decode on each tier, the int8 output keeps its
/// documented 40 dB against the f32 output, dimensions match the source.
fn check(
    report: &mut Report,
    decoder: &EaszDecoder<'_>,
    batches: &[Batch],
    expected: &[[Vec<ImageF32>; 2]],
) {
    let (mut serial_bad, mut tier_bad, mut size_bad) = (0, 0, 0);
    for (batch, [f32_out, q8_out]) in batches.iter().zip(expected) {
        for (i, container) in batch.containers.iter().enumerate() {
            for (tier, out) in TIERS.into_iter().zip([f32_out, q8_out]) {
                let serial = decoder.decode_as(container, tier).ok();
                serial_bad += u64::from(serial.as_ref() != Some(&out[i]));
            }
            tier_bad += u64::from(easz_metrics::psnr(&q8_out[i], &f32_out[i]) < 40.0);
            let (out, source) = (&f32_out[i], &batch.sources[i]);
            size_bad += u64::from((out.width(), out.height()) != (source.width(), source.height()));
        }
    }
    let containers = (batches.len() * BATCH) as u64;
    report.check(
        "batch decode is byte-equal to serial decode on both tiers",
        containers * 2,
        serial_bad,
    );
    report.check("int8 output is at least 40 dB against the f32 output", containers, tier_bad);
    report.check("output dimensions match the source", containers, size_bad);
}

/// The exact counts, untimed, on the evaluation inputs (`inputs::EVAL_SEED`):
/// `wire_bpp`, `psnr_db` of the f32 tier against the source, and
/// `peak_heap_mib` of one warm batch decode (largest of the first four).
fn count(report: &mut Report, decoder: &EaszDecoder<'_>) {
    let batches = make_batches(inputs::EVAL_SEED, EVAL_BATCHES);
    let (mut bits, mut pixels, mut psnr, mut peak) = (0usize, 0usize, 0.0, 0usize);
    for (i, batch) in batches.iter().enumerate() {
        bits += batch.containers.iter().map(|c| c.total_bytes() * 8).sum::<usize>();
        pixels += batch.sources.iter().map(|s| s.width() * s.height()).sum::<usize>();
        let plain = decode(decoder, &batch.plain, DecodeEngine::TapeFree).unwrap_or_default();
        psnr +=
            batch.sources.iter().zip(&plain).map(|(s, p)| easz_metrics::psnr(p, s)).sum::<f64>();
        if i < BATCHES {
            // The plain decode above built these masks' plans: this one is warm.
            let (_, heap) = alloc::measure(|| {
                black_box(decode(decoder, &batch.containers, DecodeEngine::TapeFree))
            });
            peak = peak.max(heap.peak);
        }
    }
    report.set("wire_bpp", bits as f64 / pixels as f64);
    report.set("psnr_db", psnr / (EVAL_BATCHES * BATCH) as f64);
    report.set("peak_heap_mib", alloc::mib(peak));
}

/// The traced pass: the same pairs on a decoder with a stage sink installed,
/// so every parse / plan / forward / finish stage the decoder reports lands
/// as a child span of the `decode_batch` call it ran in.
fn traced_pass(
    args: &RunArgs,
    recorder: &Arc<Recorder>,
    report: &mut Report,
    model: &Reconstructor,
    batches: &[Batch],
    as_expected: impl FnMut(usize, [Decoded; 2]) -> bool,
) -> harness::Phase {
    // The `decode_batch` span the sink's stages belong to, with its operation.
    let current: Arc<Mutex<(Option<SpanId>, u64)>> = Arc::new(Mutex::new((None, 0)));
    let mut decoder = EaszDecoder::new(model);
    let (sink_rec, sink_current) = (Arc::clone(recorder), Arc::clone(&current));
    decoder.set_stage_sink(Arc::new(move |stage: DecodeStage, us: u64| {
        // The decoder reports a stage as it ends: the span ends now. Stages
        // of the warm-up decodes below belong to no `decode_batch` span.
        let (Some(parent), op) =
            *sink_current.lock().expect("the sink never panics while holding the lock")
        else {
            return;
        };
        let end_us = sink_rec.us(Instant::now());
        let name = match stage {
            DecodeStage::Parse => "core.decoder.stage.parse",
            DecodeStage::Plan => "core.decoder.stage.plan",
            DecodeStage::Forward => "core.decoder.stage.forward",
            DecodeStage::Finish => "core.decoder.stage.finish",
        };
        sink_rec.push(Span {
            name,
            start_us: end_us - us as f64,
            end_us,
            parent: Some(parent),
            op,
        });
    }));
    for batch in batches {
        for tier in TIERS {
            black_box(decode(&decoder, &batch.containers, tier));
        }
    }
    let (mut groups, mut widths) = (Vec::new(), Vec::new());
    let traced_pair = |i: usize| {
        let (batch, op) = (&batches[i % batches.len()], i as u64);
        let root = recorder.open("bench.op", None, op);
        let outs = TIERS.map(|tier| {
            let span = recorder.open("core.decoder.decode_batch", Some(root), op);
            *current.lock().expect("the sink never panics while holding the lock") =
                (Some(span), op);
            let (out, fused) =
                decoder.decode_batch_with_stats(black_box(&batch.containers), &[tier; BATCH]);
            recorder.close(span);
            groups.push(fused.len() as f64);
            widths.extend(fused.iter().map(|&(_, width)| width as f64));
            out.into_iter().collect::<Result<Vec<ImageF32>, _>>().ok()
        });
        recorder.close(root);
        outs
    };
    let phase = harness::closed_loop(args.quarter_s(), traced_pair, as_expected);
    report.set("core.decoder.fused_groups_per_batch", harness::mean(&groups));
    report.set("core.decoder.mean_group_width", harness::mean(&widths));
    phase
}

fn fill_layers(report: &mut Report, recorder: &Recorder) {
    let all = recorder.spans();
    let by_name = spans::durations_by_name(&all);
    let batches = by_name.get("core.decoder.decode_batch").map_or(0, Vec::len);
    // Stage time per `decode_batch` call, not per stage execution: parse and
    // finish run once per container, plan and forward once per group.
    let per_batch_ms = |name: &str| {
        by_name.get(name).map_or(0.0, |d| d.iter().sum::<f64>()) / batches.max(1) as f64 / 1e3
    };
    let mut set =
        |metric: &'static str, value: f64| report.set_timing(metric, value, batches, Vec::new());
    set("core.decoder.decode_batch_ms", per_batch_ms("core.decoder.decode_batch"));
    set("core.decoder.stage_parse_ms", per_batch_ms("core.decoder.stage.parse"));
    set("core.decoder.stage_plan_ms", per_batch_ms("core.decoder.stage.plan"));
    set("core.decoder.stage_forward_ms", per_batch_ms("core.decoder.stage.forward"));
    set("core.decoder.stage_finish_ms", per_batch_ms("core.decoder.stage.finish"));
    set(
        "core.decoder.self_ms",
        harness::mean(&spans::self_times_of(&all, "core.decoder.decode_batch")) / 1e3,
    );
    spans::write_trace(&all, "decode_offline");
}
