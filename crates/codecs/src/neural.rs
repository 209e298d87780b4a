//! Simulated neural codecs: MBT (Minnen et al., NeurIPS'18) and
//! Cheng-Anchor (Cheng et al., CVPR'20).
//!
//! The paper uses these as its strongest baselines. Training the real
//! models is out of scope on this substrate (README, "Reproduction scope");
//! instead each is an instance of the shared transform engine tuned one
//! quality tier above the BPG-like codec (finer chroma, RD-style dead-zone
//! quantisation, stronger loop filtering, more efficient step scaling), plus
//! a **cost profile** carrying the published architecture's parameter count
//! and encode/decode complexity. Quality experiments exercise the real
//! bitstreams; efficiency experiments (Fig 1, Fig 6, Fig 8d) consume the
//! cost profiles through `easz-testbed`.

use crate::codec::{CodecError, ImageCodec, Quality};
use crate::registry::CodecId;
use crate::transform::{decode_engine, encode_engine, EngineConfig};
use easz_image::ImageF32;

/// Which published neural codec a [`NeuralSimCodec`] stands in for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeuralTier {
    /// Ballé et al. 2017 factorized-prior model (Fig 1 baseline).
    BalleFactorized,
    /// Ballé et al. 2018 hyperprior model (Fig 1 baseline).
    BalleHyperprior,
    /// Minnen et al. 2018 joint autoregressive + hierarchical priors.
    Mbt,
    /// Cheng et al. 2020 GMM likelihoods + attention.
    ChengAnchor,
}

impl NeuralTier {
    /// Display name used in tables.
    pub fn label(self) -> &'static str {
        match self {
            NeuralTier::BalleFactorized => "balle-factorized",
            NeuralTier::BalleHyperprior => "balle-hyperprior",
            NeuralTier::Mbt => "mbt",
            NeuralTier::ChengAnchor => "cheng-anchor",
        }
    }
}

/// Compute/size profile of a neural codec (values from the published
/// architectures; consumed by the testbed latency/power/memory models).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfile {
    /// Serialized model size in bytes (all rate points bundled, as deployed).
    pub model_bytes: u64,
    /// Encoder cost in FLOPs per input pixel.
    pub encode_flops_per_pixel: f64,
    /// Decoder cost in FLOPs per input pixel.
    pub decode_flops_per_pixel: f64,
    /// Peak working-set memory per pixel during encode, in bytes.
    pub encode_mem_bytes_per_pixel: f64,
    /// Whether encode is serial (autoregressive context models cannot be
    /// parallelised across pixels, the reason MBT/Cheng are so slow on edge
    /// GPUs).
    pub autoregressive: bool,
}

impl NeuralTier {
    /// The published-architecture cost profile.
    ///
    /// FLOPs/pixel figures follow the common accounting for these models
    /// (e.g. ~300-500 kFLOPs/px for hyperprior-class encoders; the
    /// autoregressive context models add serial decode cost).
    pub fn cost_profile(self) -> CostProfile {
        match self {
            NeuralTier::BalleFactorized => CostProfile {
                model_bytes: 12 * 1024 * 1024,
                encode_flops_per_pixel: 250e3,
                decode_flops_per_pixel: 250e3,
                encode_mem_bytes_per_pixel: 1200.0,
                autoregressive: false,
            },
            NeuralTier::BalleHyperprior => CostProfile {
                model_bytes: 25 * 1024 * 1024,
                encode_flops_per_pixel: 350e3,
                decode_flops_per_pixel: 350e3,
                encode_mem_bytes_per_pixel: 1600.0,
                autoregressive: false,
            },
            NeuralTier::Mbt => CostProfile {
                model_bytes: 60 * 1024 * 1024,
                encode_flops_per_pixel: 450e3,
                decode_flops_per_pixel: 450e3,
                encode_mem_bytes_per_pixel: 2000.0,
                autoregressive: true,
            },
            NeuralTier::ChengAnchor => CostProfile {
                model_bytes: 120 * 1024 * 1024,
                encode_flops_per_pixel: 900e3,
                decode_flops_per_pixel: 900e3,
                encode_mem_bytes_per_pixel: 2100.0,
                autoregressive: true,
            },
        }
    }
}

/// A simulated learned codec (see module docs for what is and is not real).
///
/// ```
/// use easz_codecs::{ImageCodec, NeuralSimCodec, NeuralTier, Quality};
/// use easz_image::{Channels, ImageF32};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let codec = NeuralSimCodec::new(NeuralTier::Mbt);
/// let img = ImageF32::new(32, 32, Channels::Rgb);
/// let out = codec.decode(&codec.encode(&img, Quality::new(50))?)?;
/// assert_eq!(out.width(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NeuralSimCodec {
    tier: NeuralTier,
    cfg: EngineConfig,
}

impl NeuralSimCodec {
    /// Creates the simulator for a tier.
    pub fn new(tier: NeuralTier) -> Self {
        let cfg = match tier {
            // The Ballé tiers reuse the MBT engine config: Fig 1 only needs
            // their cost profiles, but a real bitstream keeps them usable.
            NeuralTier::BalleFactorized | NeuralTier::BalleHyperprior => {
                EngineConfig { magic: *b"EBAL", ..EngineConfig::mbt_sim() }
            }
            NeuralTier::Mbt => EngineConfig::mbt_sim(),
            NeuralTier::ChengAnchor => EngineConfig::cheng_sim(),
        };
        Self { tier, cfg }
    }

    /// Which tier this codec simulates.
    pub fn tier(&self) -> NeuralTier {
        self.tier
    }

    /// The published-architecture cost profile (for the testbed).
    pub fn cost_profile(&self) -> CostProfile {
        self.tier.cost_profile()
    }
}

impl ImageCodec for NeuralSimCodec {
    fn name(&self) -> &str {
        self.tier.label()
    }

    fn id(&self) -> CodecId {
        match self.tier {
            NeuralTier::BalleFactorized => CodecId::BALLE_FACTORIZED,
            NeuralTier::BalleHyperprior => CodecId::BALLE_HYPERPRIOR,
            NeuralTier::Mbt => CodecId::MBT,
            NeuralTier::ChengAnchor => CodecId::CHENG_ANCHOR,
        }
    }

    fn encode(&self, img: &ImageF32, quality: Quality) -> Result<Vec<u8>, CodecError> {
        encode_engine(img, quality, &self.cfg)
    }

    fn decode(&self, bytes: &[u8]) -> Result<ImageF32, CodecError> {
        decode_engine(bytes, &self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bpg::BpgLikeCodec;
    use crate::codec::encode_to_bpp;
    use easz_image::Channels;

    fn test_image(w: usize, h: usize) -> ImageF32 {
        let mut img = ImageF32::new(w, h, Channels::Rgb);
        for y in 0..h {
            for x in 0..w {
                let r = 0.5 + 0.35 * ((x as f32 * 0.21).sin() + (y as f32 * 0.09).cos()) / 2.0;
                let g = 0.3 + 0.5 * (y as f32 / h as f32);
                let b = 0.5 + 0.3 * (((x / 11) % 2) as f32 - 0.5);
                img.set(x, y, 0, r.clamp(0.0, 1.0));
                img.set(x, y, 1, g.clamp(0.0, 1.0));
                img.set(x, y, 2, b.clamp(0.0, 1.0));
            }
        }
        img
    }

    fn mse(a: &ImageF32, b: &ImageF32) -> f32 {
        a.data().iter().zip(b.data()).map(|(x, y)| (x - y) * (x - y)).sum::<f32>()
            / a.data().len() as f32
    }

    #[test]
    fn round_trip_all_tiers() {
        let img = test_image(48, 32);
        for tier in [
            NeuralTier::BalleFactorized,
            NeuralTier::BalleHyperprior,
            NeuralTier::Mbt,
            NeuralTier::ChengAnchor,
        ] {
            let codec = NeuralSimCodec::new(tier);
            let dec =
                codec.decode(&codec.encode(&img, Quality::new(60)).expect("enc")).expect("dec");
            assert_eq!(dec.width(), 48, "{}", codec.name());
        }
    }

    #[test]
    fn rd_ordering_matches_paper_tiers() {
        // At a matched rate, distortion should order Cheng <= MBT <= BPG
        // (the paper's quality tiers).
        let img = test_image(128, 96);
        let (w, h) = (img.width(), img.height());
        let bpg = BpgLikeCodec::new();
        let mbt = NeuralSimCodec::new(NeuralTier::Mbt);
        let cheng = NeuralSimCodec::new(NeuralTier::ChengAnchor);
        let target = 0.5;
        let (_, e1) = encode_to_bpp(&bpg, &img, target, w, h, 8).expect("bpg");
        let (_, e2) = encode_to_bpp(&mbt, &img, target, w, h, 8).expect("mbt");
        let (_, e3) = encode_to_bpp(&cheng, &img, target, w, h, 8).expect("cheng");
        let m1 = mse(&img, &bpg.decode(&e1.bytes).expect("d1"));
        let m2 = mse(&img, &mbt.decode(&e2.bytes).expect("d2"));
        let m3 = mse(&img, &cheng.decode(&e3.bytes).expect("d3"));
        assert!(m2 <= m1 * 1.15, "mbt {m2} should be <= bpg {m1} (with slack)");
        assert!(m3 <= m2 * 1.15, "cheng {m3} should be <= mbt {m2} (with slack)");
    }

    #[test]
    fn cost_profiles_scale_with_tier() {
        let mbt = NeuralTier::Mbt.cost_profile();
        let cheng = NeuralTier::ChengAnchor.cost_profile();
        let balle = NeuralTier::BalleFactorized.cost_profile();
        assert!(cheng.encode_flops_per_pixel > mbt.encode_flops_per_pixel);
        assert!(mbt.encode_flops_per_pixel > balle.encode_flops_per_pixel);
        assert!(cheng.model_bytes > mbt.model_bytes);
        assert!(mbt.autoregressive && cheng.autoregressive && !balle.autoregressive);
    }

    #[test]
    fn tier_labels_are_distinct() {
        let labels: Vec<&str> = [
            NeuralTier::BalleFactorized,
            NeuralTier::BalleHyperprior,
            NeuralTier::Mbt,
            NeuralTier::ChengAnchor,
        ]
        .iter()
        .map(|t| t.label())
        .collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }
}
