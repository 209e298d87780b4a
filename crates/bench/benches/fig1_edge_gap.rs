//! Fig. 1 — the edge gap: transmission vs model-load vs encode latency for
//! four neural codecs on the Jetson TX2.
//!
//! Paper values (512×768 image): transmission 151-163 ms; load 286 ms
//! (Ballé-fact.) to 11600 ms (Cheng); encode 374 ms (Ballé-fact.) to
//! 18015 ms (Cheng). Shape target: load and encode dwarf transmission by
//! 1-2 orders of magnitude for the autoregressive models.

use easz_bench::{kodak_eval_set, ResultSink};
use easz_codecs::{encode_to_bpp, ImageCodec};
use easz_testbed::{NeuralSimCodec, NeuralTier, Testbed, WorkloadProfile};

fn main() {
    let mut sink = ResultSink::new("fig1_edge_gap");
    let tb = Testbed::paper();
    // One Kodak-like frame at the paper's 512×768-scale; rate-targeted to
    // ~0.4 bpp like the paper's transmission bar.
    let img = &kodak_eval_set(1, 512, 384)[0];
    sink.row(format!(
        "{:<18} {:>16} {:>14} {:>18}",
        "codec", "transmit (ms)", "load (ms)", "edge encode (ms)"
    ));
    for tier in [
        NeuralTier::BalleFactorized,
        NeuralTier::BalleHyperprior,
        NeuralTier::Mbt,
        NeuralTier::ChengAnchor,
    ] {
        let codec = NeuralSimCodec::new(tier);
        let (_, enc) = encode_to_bpp(&codec, img, 0.8, img.width(), img.height(), 6)
            .expect("rate-targeted encode");
        // Scale payload to the paper's 512×768 canvas for the transmit bar.
        let paper_pixels = 512 * 768;
        let payload = (enc.bytes.len() as f64 * paper_pixels as f64
            / (img.width() * img.height()) as f64) as usize;
        let w = WorkloadProfile::neural(tier);
        let lat = tb.run(&w, paper_pixels, payload);
        let load = tb.edge_load_seconds(&w);
        sink.row(format!(
            "{:<18} {:>16.0} {:>14.0} {:>18.0}",
            codec.name(),
            lat.transmit_s * 1e3,
            load * 1e3,
            lat.compression_s * 1e3
        ));
    }
    sink.row("shape check: encode/load >> transmission for MBT & Cheng (paper: 18s vs 0.15s)");
}
