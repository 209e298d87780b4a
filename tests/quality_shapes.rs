//! Integration-level checks of the *shape* claims the paper's evaluation
//! rests on: codec quality tiers, metric reactions, and the SR comparison.

use easz::codecs::{encode_to_bpp, BpgLikeCodec, ImageCodec, JpegLikeCodec, Quality};
mod common;

use easz::core::{EaszConfig, EaszDecoder, EaszEncoder};
use easz::data::Dataset;
use easz::image::resample::downsample2;
use easz::metrics::{brisque, ms_ssim, psnr};
use easz::testbed::sr::{EnhancedUpscaler, Upscaler};
use easz::testbed::{NeuralSimCodec, NeuralTier};

fn scene() -> easz::image::ImageF32 {
    Dataset::KodakLike.image(55).crop(64, 64, 192, 128)
}

#[test]
fn brisque_tracks_jpeg_quality() {
    // The Fig. 7a/8a premise: lower rate -> more artefacts -> higher score.
    let img = scene();
    let codec = JpegLikeCodec::new();
    let score = |q: u8| {
        let bytes = codec.encode(&img, Quality::new(q)).expect("encode");
        brisque(&codec.decode(&bytes).expect("decode"))
    };
    let bad = score(5);
    let good = score(90);
    assert!(bad > good + 3.0, "q5 ({bad:.1}) should score clearly worse than q90 ({good:.1})");
}

#[test]
fn codec_tiers_order_as_in_the_paper() {
    // JPEG <= BPG <= MBT <= Cheng in PSNR at a matched rate (with slack for
    // per-image noise). 1.2 bpp sits inside every codec's reachable range
    // on the detail-heavy synthetic scenes.
    let img = scene();
    let (w, h) = (img.width(), img.height());
    let jpeg = JpegLikeCodec::new();
    let bpg = BpgLikeCodec::new();
    let cheng = NeuralSimCodec::new(NeuralTier::ChengAnchor);
    let at_rate = |codec: &dyn ImageCodec| {
        let (_, enc) = encode_to_bpp(codec, &img, 1.2, w, h, 8).expect("rate");
        psnr(&img, &codec.decode(&enc.bytes).expect("decode"))
    };
    let pj = at_rate(&jpeg);
    let pc = at_rate(&cheng);
    let pb = at_rate(&bpg);
    assert!(pc > pj, "cheng ({pc:.2}) must beat jpeg ({pj:.2}) at 1.2bpp");
    assert!(pc >= pb - 0.3, "cheng ({pc:.2}) should not lose to bpg ({pb:.2})");
}

#[test]
fn easz_beats_2x_super_resolution_in_psnr_and_ms_ssim() {
    // Table I's headline at integration level. The GAN-SR stand-in trades
    // PSNR for invented texture like the published models do; Easz at a
    // light erase ratio keeps 87.5% of pixels exactly.
    let model = common::quick_model();
    let cfg =
        EaszConfig::builder().erase_ratio(0.125).synthesize_grain(false).build().expect("cfg");
    let encoder = EaszEncoder::new(cfg).expect("encoder");
    let decoder = EaszDecoder::new(&model);
    let img = scene();
    let codec = JpegLikeCodec::new();
    let enc = encoder.compress(&img, &codec, Quality::new(95)).expect("compress");
    let easz_out = decoder.decode(&enc).expect("decode");

    let sr = EnhancedUpscaler::real_esrgan_sim();
    let sr_out = sr.upscale(&downsample2(&img), img.width(), img.height());

    assert!(
        psnr(&img, &easz_out) > psnr(&img, &sr_out),
        "easz {:.2} dB vs SR {:.2} dB",
        psnr(&img, &easz_out),
        psnr(&img, &sr_out)
    );
    assert!(
        ms_ssim(&img, &easz_out) > ms_ssim(&img, &sr_out) - 0.02,
        "easz {:.4} vs SR {:.4}",
        ms_ssim(&img, &easz_out),
        ms_ssim(&img, &sr_out)
    );
}

#[test]
fn easz_improves_jpeg_brisque_at_comparable_rate() {
    // Table II's enhancement claim for the JPEG row.
    let model = common::quick_model();
    let cfg = EaszConfig::builder().mask_seed(4).build().expect("cfg");
    let encoder = EaszEncoder::new(cfg).expect("encoder");
    let decoder = EaszDecoder::new(&model);
    let img = scene();
    let codec = JpegLikeCodec::new();

    // Plain JPEG at ~1.8 bpp (a reachable mid rate on this content).
    let target = 1.8;
    let (_, plain) =
        encode_to_bpp(&codec, &img, target, img.width(), img.height(), 8).expect("rate");
    let plain_dec = codec.decode(&plain.bytes).expect("decode");

    // JPEG+Easz rate-targeted on total transmitted bits.
    let (_, enc) = encoder.compress_to_bpp(&img, &codec, target, 8).expect("rate");
    assert!(
        enc.bpp() <= plain.bpp() * 1.15,
        "easz rate {:.3} should be comparable to plain {:.3}",
        enc.bpp(),
        plain.bpp()
    );
    let easz_dec = decoder.decode(&enc).expect("decode");

    let b_plain = brisque(&plain_dec);
    let b_easz = brisque(&easz_dec);
    assert!(
        b_easz < b_plain + 1.0,
        "+easz brisque {b_easz:.1} should be at or below plain jpeg {b_plain:.1} \
         (plain {:.3} bpp, easz {:.3} bpp)",
        plain.bpp(),
        enc.bpp()
    );
}
