//! Fig. 8 — end-to-end compression performance across bitrates: BRISQUE /
//! PI / TReS vs BPP for JPEG, JPEG+Easz, MBT and Cheng (a-c), plus the
//! end-to-end latency on the testbed (d).
//!
//! Shape target: JPEG+Easz lifts plain JPEG to neural-codec territory on
//! the perceptual metrics while its latency stays ~10× below MBT/Cheng
//! (paper: 2568 ms average, an 89% reduction).

use easz_bench::{bench_model, kodak_eval_set, mean, ResultSink};
use easz_codecs::{encode_to_bpp, ImageCodec, JpegLikeCodec};
use easz_core::{EaszConfig, EaszDecoder, EaszEncoder, ReconstructorConfig};
use easz_metrics::{brisque, pi, tres};
use easz_testbed::{NeuralSimCodec, NeuralTier, Testbed, WorkloadProfile};

const PAPER_PIXELS: usize = 512 * 768;

fn main() {
    let mut sink = ResultSink::new("fig8_end_to_end");
    let images = kodak_eval_set(2, 256, 192);
    let model = bench_model();
    let encoder =
        EaszEncoder::new(EaszConfig { mask_seed: 9, ..EaszConfig::default() }).expect("encoder");
    let decoder = EaszDecoder::new(&model);
    let jpeg = JpegLikeCodec::new();
    let mbt = NeuralSimCodec::new(NeuralTier::Mbt);
    let cheng = NeuralSimCodec::new(NeuralTier::ChengAnchor);
    let tb = Testbed::paper();
    let targets = [0.8f64, 1.1, 1.5, 2.0];

    sink.row(format!(
        "{:<11} {:>7} {:>9} {:>7} {:>7} {:>14}",
        "scheme", "bpp", "brisque", "pi", "tres", "latency (ms)"
    ));
    for &target in &targets {
        // Plain JPEG.
        emit_plain(&mut sink, &tb, "jpeg", &jpeg, &images, target, &WorkloadProfile::jpeg_like());
        // JPEG + Easz.
        {
            let (mut bpps, mut bs, mut ps, mut ts, mut bytes) =
                (vec![], vec![], vec![], vec![], vec![]);
            for img in &images {
                let (_, enc) =
                    encoder.compress_to_bpp(img, &jpeg, target, 8).expect("rate-targeted easz");
                let dec = decoder.decode(&enc).expect("decode");
                bpps.push(enc.bpp());
                bs.push(brisque(&dec));
                ps.push(pi(&dec));
                ts.push(tres(&dec));
                bytes.push(enc.total_bytes() as f64);
            }
            let w = WorkloadProfile::easz(
                &WorkloadProfile::jpeg_like(),
                &ReconstructorConfig::paper(),
                0.25,
            );
            let scaled = (mean(&bytes) * PAPER_PIXELS as f64
                / (images[0].width() * images[0].height()) as f64)
                as usize;
            let lat = tb.run(&w, PAPER_PIXELS, scaled).total_s();
            sink.row(format!(
                "{:<11} {:>7.3} {:>9.2} {:>7.2} {:>7.2} {:>14.0}",
                "jpeg+easz",
                mean(&bpps),
                mean(&bs),
                mean(&ps),
                mean(&ts),
                lat * 1e3
            ));
        }
        // Neural baselines.
        emit_plain(
            &mut sink,
            &tb,
            "mbt",
            &mbt,
            &images,
            target,
            &WorkloadProfile::neural(NeuralTier::Mbt),
        );
        emit_plain(
            &mut sink,
            &tb,
            "cheng",
            &cheng,
            &images,
            target,
            &WorkloadProfile::neural(NeuralTier::ChengAnchor),
        );
        sink.row("");
    }
    sink.row("shape check (a-c): jpeg+easz ≈ neural codecs on perceptual metrics, >> jpeg");
    sink.row("shape check (d): jpeg+easz latency ~10x below mbt/cheng at every bpp");
}

fn emit_plain(
    sink: &mut ResultSink,
    tb: &Testbed,
    name: &str,
    codec: &dyn ImageCodec,
    images: &[easz_image::ImageF32],
    target: f64,
    workload: &WorkloadProfile,
) {
    let (mut bpps, mut bs, mut ps, mut ts, mut bytes) = (vec![], vec![], vec![], vec![], vec![]);
    for img in images {
        let (_, enc) =
            encode_to_bpp(codec, img, target, img.width(), img.height(), 6).expect("rate");
        let dec = codec.decode(&enc.bytes).expect("decode");
        bpps.push(enc.bpp());
        bs.push(brisque(&dec));
        ps.push(pi(&dec));
        ts.push(tres(&dec));
        bytes.push(enc.bytes.len() as f64);
    }
    let scaled = (mean(&bytes) * PAPER_PIXELS as f64
        / (images[0].width() * images[0].height()) as f64) as usize;
    let lat = tb.run(workload, PAPER_PIXELS, scaled).total_s();
    sink.row(format!(
        "{:<11} {:>7.3} {:>9.2} {:>7.2} {:>7.2} {:>14.0}",
        name,
        mean(&bpps),
        mean(&bs),
        mean(&ps),
        mean(&ts),
        lat * 1e3
    ));
}
