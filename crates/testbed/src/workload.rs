//! Compression-workload profiles: what each codec costs on the edge and on
//! the server.
//!
//! Classical codecs are CPU transform coders; neural codecs carry model
//! weights (load time!), heavy conv encoders, and — for MBT/Cheng —
//! autoregressive context models whose serial structure wastes almost all
//! GPU parallelism (the paper's 18-second encodes). Easz's edge side is a
//! handful of copies per pixel; its server side is inner-codec decode plus
//! the transformer reconstructor.

use crate::NeuralTier;
use easz_core::ReconstructorConfig;

/// Cost description of one compression scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Display name (matches the codec's `name()`).
    pub name: String,
    /// Model bytes that must be resident on the *edge* to encode.
    pub edge_model_bytes: u64,
    /// Edge-side encode cost, FLOP per pixel.
    pub encode_flops_per_pixel: f64,
    /// Whether encode runs on the GPU (if the device has one).
    pub encode_on_gpu: bool,
    /// Serial-execution penalty for autoregressive models (1 = fully
    /// parallel). Divides the effective GPU throughput.
    pub serial_penalty: f64,
    /// Server-side decode cost, FLOP per pixel.
    pub decode_flops_per_pixel: f64,
    /// Whether decode runs on the server GPU.
    pub decode_on_gpu: bool,
    /// Extra server-side reconstruction cost, FLOP per pixel (Easz's
    /// transformer; zero for plain codecs).
    pub recon_flops_per_pixel: f64,
    /// Peak working-set bytes per pixel during encode.
    pub encode_mem_bytes_per_pixel: f64,
    /// Fraction of CPU capacity used while encoding (power accounting).
    pub encode_cpu_utilisation: f64,
    /// Fraction of GPU capacity used while encoding.
    pub encode_gpu_utilisation: f64,
    /// Extra one-time initialisation on model load, seconds (framework
    /// graph build; large for Cheng's GMM + attention stack).
    pub extra_init_s: f64,
}

impl WorkloadProfile {
    /// JPEG-class classical codec: DCT + Huffman on the CPU, no model.
    pub fn jpeg_like() -> Self {
        Self {
            name: "jpeg".into(),
            edge_model_bytes: 0,
            encode_flops_per_pixel: 300.0,
            encode_on_gpu: false,
            serial_penalty: 1.0,
            decode_flops_per_pixel: 300.0,
            decode_on_gpu: false,
            recon_flops_per_pixel: 0.0,
            encode_mem_bytes_per_pixel: 12.0,
            encode_cpu_utilisation: 0.6,
            encode_gpu_utilisation: 0.0,
            extra_init_s: 0.0,
        }
    }

    /// BPG-class classical codec: intra search makes it ~4× JPEG.
    pub fn bpg_like() -> Self {
        Self {
            name: "bpg".into(),
            encode_flops_per_pixel: 1200.0,
            decode_flops_per_pixel: 600.0,
            ..Self::jpeg_like()
        }
    }

    /// A neural codec from its published architecture's cost.
    ///
    /// FLOP/pixel figures follow the common accounting for these models
    /// (~300–500 kFLOP/px for hyperprior-class encoders; decode costs the
    /// same). Serial penalties are calibrated against the paper's Fig. 1
    /// encode latencies on the TX2: the Ballé tiers run parallel, MBT/Cheng
    /// pay for their autoregressive context models. The graph-build cost on
    /// load is calibrated to Fig. 1's load bars (286 / 552 / 1361 / 11600 ms
    /// on the TX2; Cheng bundles every rate point).
    pub fn neural(tier: NeuralTier) -> Self {
        // (model MiB, FLOP/px, encode bytes/px, serial penalty, init s)
        let (model_mib, flops_per_pixel, mem_per_pixel, serial_penalty, extra_init_s) = match tier {
            NeuralTier::BalleFactorized => (12, 250e3, 1200.0, 1.0, 0.0),
            NeuralTier::BalleHyperprior => (25, 350e3, 1600.0, 1.0, 0.1),
            NeuralTier::Mbt => (60, 450e3, 2000.0, 27.0, 0.55),
            NeuralTier::ChengAnchor => (120, 900e3, 2100.0, 13.5, 10.0),
        };
        Self {
            name: tier.label().into(),
            edge_model_bytes: model_mib * 1024 * 1024,
            encode_flops_per_pixel: flops_per_pixel,
            encode_on_gpu: true,
            serial_penalty,
            decode_flops_per_pixel: flops_per_pixel,
            decode_on_gpu: true,
            recon_flops_per_pixel: 0.0,
            encode_mem_bytes_per_pixel: mem_per_pixel,
            encode_cpu_utilisation: 0.4,
            encode_gpu_utilisation: 0.9,
            extra_init_s,
        }
    }

    /// Easz with a given inner codec and reconstructor.
    ///
    /// Edge = erase-and-squeeze (a few copies per pixel) + the inner
    /// codec on ~`1 − erase_ratio` of the pixels. Server = inner decode +
    /// transformer reconstruction.
    pub fn easz(inner: &WorkloadProfile, model: &ReconstructorConfig, erase_ratio: f64) -> Self {
        let kept = 1.0 - erase_ratio;
        // Transformer FLOPs per token ≈ 2 × parameter count; tokens per
        // pixel = 1 / (b² · kept-fraction accounting cancels: every erased
        // token is reconstructed from the full patch context).
        let params = estimate_params(model);
        let tokens_per_pixel = 1.0 / (model.b * model.b) as f64;
        let recon_flops_per_pixel = 2.0 * params as f64 * tokens_per_pixel;
        Self {
            name: format!("easz+{}", inner.name),
            edge_model_bytes: 0,
            encode_flops_per_pixel: 10.0 + inner.encode_flops_per_pixel * kept,
            encode_on_gpu: false,
            serial_penalty: 1.0,
            decode_flops_per_pixel: inner.decode_flops_per_pixel * kept,
            decode_on_gpu: false,
            recon_flops_per_pixel,
            encode_mem_bytes_per_pixel: 14.0,
            encode_cpu_utilisation: 0.5,
            encode_gpu_utilisation: 0.0,
            extra_init_s: 0.0,
        }
    }
}

/// Parameter count of a reconstructor configuration (no weights needed).
pub fn estimate_params(cfg: &ReconstructorConfig) -> u64 {
    let d = cfg.d_model as u64;
    let ffn = cfg.ffn as u64;
    let token = cfg.token_dim() as u64;
    let seq = cfg.seq_len() as u64;
    let blocks = (cfg.encoder_blocks + cfg.decoder_blocks) as u64;
    let per_block = 4 * d * d + 2 * d * ffn + 9 * d + ffn; // QKVO + FFN + norms/biases
    blocks * per_block + 2 * token * d + token + d // in/out proj
        + 2 * seq * d // positional tables
        + d // mask token
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neural_profiles_order_by_tier() {
        let balle = WorkloadProfile::neural(NeuralTier::BalleFactorized);
        let mbt = WorkloadProfile::neural(NeuralTier::Mbt);
        let cheng = WorkloadProfile::neural(NeuralTier::ChengAnchor);
        assert!(balle.serial_penalty < mbt.serial_penalty);
        assert!(mbt.edge_model_bytes < cheng.edge_model_bytes);
        assert!(balle.encode_flops_per_pixel < cheng.encode_flops_per_pixel);
    }

    #[test]
    fn easz_edge_is_light_and_model_free() {
        let easz = WorkloadProfile::easz(
            &WorkloadProfile::jpeg_like(),
            &ReconstructorConfig::paper(),
            0.25,
        );
        assert_eq!(easz.edge_model_bytes, 0, "no model ships to the edge");
        assert!(!easz.encode_on_gpu);
        let mbt = WorkloadProfile::neural(NeuralTier::Mbt);
        assert!(easz.encode_flops_per_pixel < mbt.encode_flops_per_pixel / 100.0);
        // But the server pays for reconstruction.
        assert!(easz.recon_flops_per_pixel > 0.0);
    }

    #[test]
    fn estimated_params_match_real_model_within_tolerance() {
        let cfg = ReconstructorConfig::fast();
        let est = estimate_params(&cfg);
        let real = easz_core::Reconstructor::new(cfg).params().num_scalars() as u64;
        let ratio = est as f64 / real as f64;
        assert!((0.9..1.1).contains(&ratio), "estimate {est} vs real {real}");
    }
}
