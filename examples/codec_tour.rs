//! A rate-distortion tour of every codec in the repository: JPEG-like,
//! BPG-like, the simulated neural tiers of `easz-testbed`, and each of them
//! enhanced with Easz — the qualitative content of the paper's Table II in one run.
//!
//! Rate targeting: plain rows search the codec's quality knob directly;
//! `+easz` rows go through [`EaszEncoder::compress_to_bpp`], which charges
//! the *total* transmitted bytes (container header + mask side channel +
//! payload) against the original canvas — the accounting the paper uses —
//! so both row families aim at the same target.
//!
//! ```sh
//! cargo run --release --example codec_tour
//! ```

use easz::codecs::{encode_to_bpp, BpgLikeCodec, CodecRegistry, ImageCodec, JpegLikeCodec};
use easz::core::{zoo, EaszConfig, EaszDecoder, EaszEncoder};
use easz::data::Dataset;
use easz::metrics::{brisque, psnr, ssim};
use easz::testbed::{NeuralSimCodec, NeuralTier};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let image = Dataset::KodakLike.image(3).crop(64, 64, 256, 192);
    let target_bpp = 0.5;
    let model = zoo::pretrained(zoo::PretrainSpec::quick());
    let encoder = EaszEncoder::new(EaszConfig::default())?;
    // The simulated neural codecs live in `easz-testbed` and are not in the
    // default registry a server decodes with; a caller that wants their
    // containers decoded registers them.
    let mut registry = CodecRegistry::with_defaults();
    registry
        .register(Box::new(NeuralSimCodec::new(NeuralTier::Mbt)))
        .register(Box::new(NeuralSimCodec::new(NeuralTier::ChengAnchor)));
    let decoder = EaszDecoder::with_registry(&model, registry);

    let jpeg = JpegLikeCodec::new();
    let bpg = BpgLikeCodec::new();
    let mbt = NeuralSimCodec::new(NeuralTier::Mbt);
    let cheng = NeuralSimCodec::new(NeuralTier::ChengAnchor);
    let codecs: [&dyn ImageCodec; 4] = [&jpeg, &bpg, &mbt, &cheng];

    println!("target: {target_bpp} bpp on a {}x{} scene", image.width(), image.height());
    println!(
        "{:<22} {:>7} {:>8} {:>8} {:>9} {:>8}",
        "codec", "bpp", "psnr", "ssim", "brisque", "tgt err"
    );
    for codec in codecs {
        // Plain.
        let (_, enc) = encode_to_bpp(codec, &image, target_bpp, image.width(), image.height(), 8)?;
        let dec = codec.decode(&enc.bytes)?;
        println!(
            "{:<22} {:>7.3} {:>8.2} {:>8.4} {:>9.1} {:>7.0}%",
            codec.name(),
            enc.bpp(),
            psnr(&image, &dec),
            ssim(&image, &dec),
            brisque(&dec),
            (enc.bpp() - target_bpp).abs() / target_bpp * 100.0
        );
        // +Easz, rate-targeted on total transmitted bits (header + mask +
        // payload) against the original canvas.
        let (_, enc) = encoder.compress_to_bpp(&image, codec, target_bpp, 8)?;
        let dec = decoder.decode(&enc)?;
        println!(
            "{:<22} {:>7.3} {:>8.2} {:>8.4} {:>9.1} {:>7.0}%",
            format!("{}+easz", codec.name()),
            enc.bpp(),
            psnr(&image, &dec),
            ssim(&image, &dec),
            brisque(&dec),
            (enc.bpp() - target_bpp).abs() / target_bpp * 100.0
        );
    }
    println!("\nlower brisque = fewer visible artefacts; +easz rows should win at equal bpp");
    Ok(())
}
