//! Table I — Easz vs super-resolution methods (SwinIR, realESRGAN,
//! BSRGAN stand-ins) on the Kodak-like set.
//!
//! Regime: SR methods transmit a 2× downsampled image and re-hallucinate
//! all pixels; Easz transmits an erased image and reconstructs only the
//! erased sub-patches. Reported at two points of Easz's flexible-reduction
//! knob (r = 0.125 and the paper's r = 0.25).
//!
//! Paper values: PSNR 28.96 (Easz) vs 24.85-25.35 (SR); MS-SSIM 0.96 vs
//! 0.93-0.94; model 8.7 MB vs 67 MB. Shape target: Easz above every SR row
//! on both metrics with a ~8x smaller model.

use easz_bench::{bench_model, kodak_eval_set, mean, ResultSink};
use easz_core::{
    EaszConfig, EaszDecoder, EaszEncoder, MaskStrategy, Orientation, Reconstructor,
    ReconstructorConfig,
};
use easz_image::resample::downsample2;
use easz_metrics::{ms_ssim, psnr};
use easz_testbed::sr::{BicubicUpscaler, EnhancedUpscaler, Upscaler};

fn main() {
    let mut sink = ResultSink::new("table1_sr_comparison");
    let images = kodak_eval_set(4, 256, 192);
    sink.row(format!("{:<16} {:>8} {:>10} {:>14}", "method", "PSNR", "MS-SSIM", "model size"));

    // Easz at two operating points of its flexible-reduction knob (the
    // paper's Table I runs a single fixed point; the flexibility is the
    // framework's selling point), no meaningful inner-codec loss.
    let model = bench_model();
    // Model-size accounting uses the paper-scale architecture (the bench
    // model is the same structure at reduced width).
    let paper_bytes = Reconstructor::new(ReconstructorConfig::paper()).model_bytes();
    for ratio in [0.125f64, 0.25] {
        let cfg = EaszConfig {
            erase_ratio: ratio,
            strategy: MaskStrategy::Proposed,
            orientation: Orientation::Horizontal,
            mask_seed: 5,
            // Table I measures PSNR/MS-SSIM: use PSNR-optimal decoding.
            synthesize_grain: false,
            ..EaszConfig::default()
        };
        let enc = EaszEncoder::new(cfg).expect("encoder");
        let dec = EaszDecoder::new(&model);
        let mut psnrs = Vec::new();
        let mut ssims = Vec::new();
        for img in &images {
            let (squeezed, mask) = enc.erase_and_squeeze(img);
            let recon = reconstruct_lossless(&enc, &dec, img, &squeezed, &mask);
            psnrs.push(psnr(img, &recon));
            ssims.push(ms_ssim(img, &recon));
        }
        sink.row(format!(
            "{:<16} {:>8.2} {:>10.4} {:>11.1} MB",
            format!("easz (r={ratio})"),
            mean(&psnrs),
            mean(&ssims),
            paper_bytes as f64 / (1024.0 * 1024.0)
        ));
    }

    // SR baselines: downsample 2x, upscale back.
    let upscalers: Vec<Box<dyn Upscaler>> = vec![
        Box::new(EnhancedUpscaler::swinir_sim()),
        Box::new(EnhancedUpscaler::real_esrgan_sim()),
        Box::new(EnhancedUpscaler::bsrgan_sim()),
        Box::new(BicubicUpscaler),
    ];
    for up in &upscalers {
        let mut psnrs = Vec::new();
        let mut ssims = Vec::new();
        for img in &images {
            let recon = up.upscale(&downsample2(img), img.width(), img.height());
            psnrs.push(psnr(img, &recon));
            ssims.push(ms_ssim(img, &recon));
        }
        sink.row(format!(
            "{:<16} {:>8.2} {:>10.4} {:>11.1} MB",
            up.name(),
            mean(&psnrs),
            mean(&ssims),
            up.model_bytes() as f64 / (1024.0 * 1024.0)
        ));
    }
    sink.row("shape check: easz row above all SR rows in PSNR and MS-SSIM, ~8x smaller model");
}

/// Easz reconstruction with a lossless inner path: unsqueeze + model, no
/// codec distortion (Table I isolates the reconstruction comparison).
fn reconstruct_lossless(
    encoder: &EaszEncoder,
    decoder: &EaszDecoder<'_>,
    original: &easz_image::ImageF32,
    _squeezed: &easz_image::ImageF32,
    _mask: &easz_core::EraseMask,
) -> easz_image::ImageF32 {
    // Route through compress/decode with a near-lossless JPEG setting;
    // q=100 keeps codec loss an order of magnitude below reconstruction
    // error, preserving the comparison.
    let codec = easz_codecs::JpegLikeCodec::new();
    let enc = encoder.compress(original, &codec, easz_codecs::Quality::new(100)).expect("compress");
    decoder.decode(&enc).expect("decode")
}
