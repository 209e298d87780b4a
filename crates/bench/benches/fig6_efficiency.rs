//! Fig. 6 — efficiency on the Jetson TX2 testbed: (a) end-to-end latency
//! breakdown, (b) edge encode power, (c) edge encode memory, for Easz vs
//! MBT vs Cheng-Anchor.
//!
//! Paper values (512×768): Easz erase+squeeze ≈ 0.7% of end-to-end,
//! reconstruction ≈ 74%, total ≈ 2.5 s vs ~20 s for MBT/Cheng; power
//! reductions 71.3% / 59.9% with zero GPU draw; memory 1.05 vs
//! 1.93 / 1.98 GB.

use easz_bench::{kodak_eval_set, ResultSink};
use easz_codecs::{encode_to_bpp, JpegLikeCodec};
use easz_core::{EaszConfig, EaszEncoder, ReconstructorConfig};
use easz_testbed::{NeuralSimCodec, NeuralTier, Testbed, WorkloadProfile};

const PAPER_PIXELS: usize = 512 * 768;

fn main() {
    let mut sink = ResultSink::new("fig6_efficiency");
    let tb = Testbed::paper();
    let img = &kodak_eval_set(1, 512, 384)[0];
    let scale = PAPER_PIXELS as f64 / (img.width() * img.height()) as f64;

    // Real payload sizes at ~0.4 bpp for each scheme. Only transmitted
    // bytes matter here, so the model-free encoder suffices.
    let jpeg = JpegLikeCodec::new();
    let encoder = EaszEncoder::new(EaszConfig::default()).expect("encoder");
    let easz_payload = {
        let enc = encoder.compress(img, &jpeg, easz_codecs::Quality::new(60)).expect("easz");
        (enc.total_bytes() as f64 * scale) as usize
    };
    let neural_payload = |tier: NeuralTier| {
        let codec = NeuralSimCodec::new(tier);
        let (_, enc) = encode_to_bpp(&codec, img, 0.8, img.width(), img.height(), 6).expect("rate");
        (enc.bytes.len() as f64 * scale) as usize
    };

    let easz_w =
        WorkloadProfile::easz(&WorkloadProfile::jpeg_like(), &ReconstructorConfig::paper(), 0.25);
    let schemes: Vec<(String, WorkloadProfile, usize)> = vec![
        ("easz".into(), easz_w, easz_payload),
        ("mbt".into(), WorkloadProfile::neural(NeuralTier::Mbt), neural_payload(NeuralTier::Mbt)),
        (
            "cheng".into(),
            WorkloadProfile::neural(NeuralTier::ChengAnchor),
            neural_payload(NeuralTier::ChengAnchor),
        ),
    ];

    sink.row("-- (a) end-to-end latency breakdown (ms) --");
    sink.row(format!(
        "{:<8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "scheme", "erase+sq", "compress", "transmit", "decomp", "recon", "total"
    ));
    for (name, w, payload) in &schemes {
        let lat = tb.run(w, PAPER_PIXELS, *payload);
        sink.row(format!(
            "{:<8} {:>12.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            name,
            lat.erase_squeeze_s * 1e3,
            lat.compression_s * 1e3,
            lat.transmit_s * 1e3,
            lat.decompression_s * 1e3,
            lat.reconstruction_s * 1e3,
            lat.total_s() * 1e3
        ));
    }

    sink.row("-- (b) edge encode power (W) --");
    sink.row(format!("{:<8} {:>8} {:>8} {:>8}", "scheme", "cpu", "gpu", "total"));
    for (name, w, _) in &schemes {
        let p = tb.edge_encode_power(w);
        sink.row(format!("{:<8} {:>8.2} {:>8.2} {:>8.2}", name, p.cpu_w, p.gpu_w, p.total_w()));
    }

    sink.row("-- (c) edge encode memory (GB) --");
    for (name, w, _) in &schemes {
        let mem = tb.edge_encode_memory(w, PAPER_PIXELS) as f64 / 1e9;
        sink.row(format!("{name:<8} {mem:>8.2}"));
    }
    sink.row("shape check: easz 0 GPU W, smallest memory, total latency ~10x below mbt/cheng");
}
