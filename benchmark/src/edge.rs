//! `edge_encode`: the paper's headline path, a model-free encoder on the
//! device. Closed loop, one thread, no model, no sockets:
//! `EaszEncoder::compress(..).to_bytes()` on six full Kodak-like 768×512
//! frames at each of the three erase ratios.
//!
//! One operation is one encode; the loop walks the 18 (frame, ratio) pairs
//! in order, a cycle of ≈ 0.7 s, so every 2 s window holds all of them in
//! nearly equal shares.
//!
//! `core.encoder`, `core.mask`, `core.patchify`, `core.squeeze`,
//! `codecs.jpeg` (encode) and `image` do all the work; `tensor`,
//! `core.decoder` and `server` do none, so a decode or serving change must
//! read "no change" here.

use crate::alloc;
use crate::harness::{self, Clock, RunArgs};
use crate::inputs::{self, Rng, ERASE_RATIOS, QUALITY};
use crate::report::Report;
use crate::spans::{self, Recorder};
use easz_codecs::{CodecRegistry, ImageCodec, JpegLikeCodec, Quality};
use easz_core::{pixel_saving_ratio, EaszEncoded, EaszEncoder, EraseMask, Patchified};
use easz_image::ImageF32;
use std::hint::black_box;

const FRAMES: usize = 6;

/// One (frame, erase ratio) pair with the wire the encoder must produce.
struct Case {
    frame: usize,
    encoder: EaszEncoder,
    wire: Vec<u8>,
}

struct Inputs {
    frames: Vec<ImageF32>,
    cases: Vec<Case>,
}

/// The 18 (frame, ratio) pairs of `seed`, wires still to be fixed.
fn setup_cases(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let frames = inputs::frames(&mut rng, FRAMES);
    let cases = (0..FRAMES)
        .flat_map(|frame| ERASE_RATIOS.map(|ratio| (frame, ratio)))
        .map(|(frame, ratio)| {
            let config = inputs::edge_config(ratio, rng.next_u64(), true);
            let encoder = EaszEncoder::new(config).expect("benchmark configurations are valid");
            Case { frame, encoder, wire: Vec::new() }
        })
        .collect();
    Inputs { frames, cases }
}

fn encode(case: &Case, frames: &[ImageF32], codec: &JpegLikeCodec) -> Vec<u8> {
    case.encoder
        .compress(black_box(&frames[case.frame]), codec, Quality::new(QUALITY))
        .expect("the JPEG-like codec encodes every generated frame")
        .to_bytes()
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    let codec = JpegLikeCodec::new();
    let Inputs { frames, mut cases } = setup_cases(args.seed);
    let setup_s = args.setup_s();
    // Warm-up, untimed: one pass over the cases, which also fixes the wire
    // every later encode of a case is compared with.
    for case in &mut cases {
        case.wire = encode(case, &frames, &codec);
    }
    let (frames, cases) = (&frames, &cases);
    let frame_mpx = (frames[0].width() * frames[0].height()) as f64 / 1e6;
    let encode_case = |i: usize| black_box(encode(&cases[i % cases.len()], frames, &codec));
    let same_wire = |i: usize, wire: Vec<u8>| wire == cases[i % cases.len()].wire;

    let mut report = Report::default();
    if args.traced {
        let untraced = harness::closed_loop(args.quarter_s(), encode_case, same_wire);
        let recorder = Recorder::new();
        let traced = harness::closed_loop(
            args.quarter_s(),
            |i| traced_encode(&recorder, &mut report, i, &cases[i % cases.len()], frames, &codec),
            same_wire,
        );
        // The real call inside each traced operation, against the same call
        // untraced: `compress` and `to_bytes` of one operation, summed.
        let by_name = spans::durations_by_name(&recorder.spans());
        let real_call_ms: Vec<f64> = by_name["core.encoder.compress"]
            .iter()
            .zip(&by_name["core.container.to_bytes"])
            .map(|(compress, to_bytes)| (compress + to_bytes) / 1e3)
            .collect();
        harness::fill_bench_layer(&mut report, &untraced, &traced, &real_call_ms);
        fill_layers(&mut report, &recorder, cases);
        return Ok(report);
    }

    let phase = harness::closed_loop(args.seconds as f64, encode_case, same_wire);
    report.set("setup_s", setup_s);
    harness::fill_timing(
        &mut report,
        &phase,
        args.seconds as f64,
        frame_mpx,
        None,
        Clock::Reference,
    )?;
    check(&mut report, cases, frames);
    count(&mut report, &codec);
    Ok(report)
}

/// The correctness checks on this run's wires, untimed: each round-trips
/// `from_bytes` / `to_bytes` byte-exactly, and the squeezed canvas has the
/// size the erase ratio predicts.
fn check(report: &mut Report, cases: &[Case], frames: &[ImageF32]) {
    let (mut round_trip_bad, mut canvas_bad) = (0, 0);
    for case in cases {
        let frame = &frames[case.frame];
        let parsed = EaszEncoded::from_bytes(&case.wire);
        round_trip_bad += u64::from(parsed.map_or(true, |e| e.to_bytes() != case.wire));
        let (canvas, mask) = case.encoder.erase_and_squeeze(frame);
        let config = case.encoder.config();
        let kept = 1.0 - pixel_saving_ratio(config.geometry(), &mask);
        let predicted = ((frame.width() as f64 * kept).round() as usize, frame.height());
        let erased_as_asked = (1.0 - kept - config.erase_ratio).abs() < 1e-9;
        canvas_bad += u64::from((canvas.width(), canvas.height()) != predicted || !erased_as_asked);
    }
    report.check(
        "wire round-trips from_bytes/to_bytes byte-exactly",
        cases.len() as u64,
        round_trip_bad,
    );
    report.check(
        "squeezed canvas has the size the erase ratio predicts",
        cases.len() as u64,
        canvas_bad,
    );
}

/// The exact counts, untimed, on the evaluation inputs (`inputs::EVAL_SEED`):
/// `wire_bpp`, `psnr_db` — what the codec made of the squeezed canvas, the
/// quality the edge transmits — and `peak_heap_mib`.
fn count(report: &mut Report, codec: &JpegLikeCodec) {
    let Inputs { frames, cases } = setup_cases(inputs::EVAL_SEED);
    let registry = CodecRegistry::with_defaults();
    let (mut bits, mut pixels, mut psnr, mut peak) = (0usize, 0usize, 0.0, 0usize);
    for case in &cases {
        let frame = &frames[case.frame];
        // Peak heap of one warm encode above the resident frame, armed only
        // here.
        black_box(encode(case, &frames, codec));
        let (wire, heap) = alloc::measure(|| black_box(encode(case, &frames, codec)));
        peak = peak.max(heap.peak);
        bits += wire.len() * 8;
        pixels += frame.width() * frame.height();
        let (canvas, _mask) = case.encoder.erase_and_squeeze(frame);
        let decoded = EaszEncoded::from_bytes(&wire)
            .ok()
            .and_then(|e| registry.get(e.codec_id)?.decode(&e.payload).ok());
        psnr += decoded.map_or(0.0, |d| easz_metrics::psnr(&d, &canvas));
    }
    report.set("wire_bpp", bits as f64 / pixels as f64);
    report.set("psnr_db", psnr / cases.len() as f64);
    report.set("peak_heap_mib", alloc::mib(peak));
}

/// One operation of the traced pass: the real `compress` + `to_bytes` first
/// (the parent reading), then each layer's public function on its own, all
/// under one `bench.op` root so the spans nest.
fn traced_encode(
    rec: &Recorder,
    report: &mut Report,
    i: usize,
    case: &Case,
    frames: &[ImageF32],
    codec: &JpegLikeCodec,
) -> Vec<u8> {
    let op = i as u64;
    let frame = &frames[case.frame];
    let config = *case.encoder.config();
    let root = rec.open("bench.op", None, op);
    let ((encoded, heap), _) = rec.time("core.encoder.compress", Some(root), op, || {
        alloc::measure(|| {
            case.encoder.compress(black_box(frame), codec, Quality::new(QUALITY)).expect("encodes")
        })
    });
    let (wire, _) = rec.time("core.container.to_bytes", Some(root), op, || encoded.to_bytes());
    let _ = rec
        .time("core.container.parse", Some(root), op, || black_box(EaszEncoded::from_bytes(&wire)));
    let _ = rec.time("core.mask.make_mask", Some(root), op, || black_box(config.make_mask()));
    let _ = rec.time("core.patchify.from_image", Some(root), op, || {
        black_box(Patchified::from_image(frame, config.geometry()))
    });
    let ((canvas, _mask), _) = rec.time("core.squeeze.erase_and_squeeze", Some(root), op, || {
        case.encoder.erase_and_squeeze(frame)
    });
    let _ = rec.time("codecs.jpeg.encode", Some(root), op, || {
        black_box(codec.encode(&canvas, Quality::new(QUALITY)))
    });
    rec.close(root);
    // Per-frame allocation of the real call; every frame allocates alike, so
    // the last one stands for all.
    report.set("core.encoder.alloc_count", heap.calls as f64);
    report.set("core.encoder.alloc_mib", alloc::mib(heap.bytes));
    wire
}

fn fill_layers(report: &mut Report, recorder: &Recorder, cases: &[Case]) {
    let all = recorder.spans();
    let by_name = spans::durations_by_name(&all);
    let mean_of = |name: &str| harness::mean(by_name.get(name).map_or(&[][..], Vec::as_slice));
    let n = by_name.get("core.encoder.compress").map_or(0, Vec::len);
    let mut set =
        |metric: &'static str, value: f64| report.set_timing(metric, value, n, Vec::new());
    let compress = mean_of("core.encoder.compress");
    set("core.encoder.compress_ms", compress / 1e3);
    // `compress` is erase-and-squeeze, the codec and glue of its own.
    set(
        "core.encoder.self_ms",
        (compress - mean_of("core.squeeze.erase_and_squeeze") - mean_of("codecs.jpeg.encode"))
            / 1e3,
    );
    set("core.mask.make_mask_us", mean_of("core.mask.make_mask"));
    set("core.patchify.from_image_ms", mean_of("core.patchify.from_image") / 1e3);
    set("core.squeeze.erase_and_squeeze_ms", mean_of("core.squeeze.erase_and_squeeze") / 1e3);
    set("codecs.jpeg.encode_ms", mean_of("codecs.jpeg.encode") / 1e3);
    set("core.container.to_bytes_us", mean_of("core.container.to_bytes"));
    set("core.container.parse_us", mean_of("core.container.parse"));

    let parsed: Vec<EaszEncoded> =
        cases.iter().filter_map(|c| EaszEncoded::from_bytes(&c.wire).ok()).collect();
    let mean_over = |f: &dyn Fn(&EaszEncoded) -> f64| {
        harness::mean(&parsed.iter().map(f).collect::<Vec<f64>>())
    };
    report.set("core.mask.side_channel_bytes", mean_over(&|e| e.mask_bytes.len() as f64));
    report.set("codecs.jpeg.payload_bytes", mean_over(&|e| e.payload.len() as f64));
    report.set("core.container.wire_bytes", mean_over(&|e| e.total_bytes() as f64));
    let saving = |e: &EaszEncoded| {
        EraseMask::from_bytes(&e.mask_bytes)
            .map_or(0.0, |m| pixel_saving_ratio(e.config.geometry(), &m))
    };
    report.set("core.squeeze.pixel_saving_share", mean_over(&saving));

    spans::write_trace(&all, "edge_encode");
}
