//! The receiver-side lightweight transformer reconstructor (paper §III-B,
//! Fig. 5).
//!
//! An asymmetric encoder-decoder: the **encoder** (two transformer blocks)
//! sees only the un-erased sub-patch tokens; the **decoder** (two blocks)
//! sees the encoder features scattered back to their grid positions plus a
//! shared learned mask token in each erased slot, and predicts pixel values
//! for every position (the served decode asks only for the erased ones; see
//! [`Reconstructor::infer_erased`]). One model serves *every* erase ratio —
//! the paper's key flexibility claim — because the mask enters only through
//! the token scatter, never through the weights.

use crate::decoder::DecodeEngine;
use crate::mask::EraseMask;
use crate::patchify::PatchGeometry;
use crate::plan::{DecodePlan, MultiMaskPlan};
use easz_image::{Channels, ImageF32};
use easz_tensor::nn::Executor;
use easz_tensor::{
    init, nn, Graph, InferenceSession, ParamSet, QuantizedParams, ScratchArena, Tensor, Var,
};
use std::sync::OnceLock;

/// Hyper-parameters of the reconstructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconstructorConfig {
    /// Patch geometry the model is built for (fixes the token count).
    pub n: usize,
    /// Sub-patch side length.
    pub b: usize,
    /// Colour channels.
    pub color: bool,
    /// Model width.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Feed-forward hidden width.
    pub ffn: usize,
    /// Encoder blocks (paper: 2).
    pub encoder_blocks: usize,
    /// Decoder blocks (paper: 2).
    pub decoder_blocks: usize,
    /// Weight-init seed.
    pub seed: u64,
}

impl ReconstructorConfig {
    /// The paper-scale model: ~8-9 MB serialized (Table I's 8.7 MB row).
    pub fn paper() -> Self {
        Self {
            n: 32,
            b: 4,
            color: true,
            d_model: 240,
            heads: 4,
            ffn: 480,
            encoder_blocks: 2,
            decoder_blocks: 2,
            seed: 42,
        }
    }

    /// A small configuration for tests and fast benches (same structure,
    /// ~100x fewer weights).
    pub fn fast() -> Self {
        Self {
            n: 32,
            b: 4,
            color: true,
            d_model: 64,
            heads: 4,
            ffn: 128,
            encoder_blocks: 2,
            decoder_blocks: 2,
            seed: 42,
        }
    }

    /// The geometry this model reconstructs.
    pub fn geometry(&self) -> PatchGeometry {
        PatchGeometry::new(self.n, self.b)
    }

    /// Channel layout.
    pub fn channels(&self) -> Channels {
        if self.color {
            Channels::Rgb
        } else {
            Channels::Gray
        }
    }

    /// Token vector width (`b² · C`).
    pub fn token_dim(&self) -> usize {
        self.geometry().token_dim(self.channels())
    }

    /// Tokens per patch.
    pub fn seq_len(&self) -> usize {
        self.geometry().tokens_per_patch()
    }
}

/// The transformer reconstructor with its parameters.
pub struct Reconstructor {
    cfg: ReconstructorConfig,
    params: ParamSet,
    in_proj: nn::Linear,
    enc_pos: easz_tensor::ParamId,
    enc_blocks: Vec<nn::TransformerBlock>,
    mask_token: easz_tensor::ParamId,
    dec_pos: easz_tensor::ParamId,
    dec_blocks: Vec<nn::TransformerBlock>,
    out_proj: nn::Linear,
    /// Lazily-built int8 form of every matmul weight, shared by all
    /// quantized-tier decodes of this model. Invalidated whenever the
    /// caller takes mutable access to the parameters.
    quant_cache: OnceLock<QuantizedParams>,
}

impl std::fmt::Debug for Reconstructor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reconstructor")
            .field("cfg", &self.cfg)
            .field("params", &self.params.len())
            .field("scalars", &self.params.num_scalars())
            .finish()
    }
}

/// A batch of patches prepared for the model: tokens are centred to
/// `[-0.5, 0.5]` and stacked `[batch * seq, token_dim]`.
#[derive(Debug, Clone)]
pub struct TokenBatch {
    /// Number of patches in the batch.
    pub batch: usize,
    /// Tokens per patch.
    pub seq: usize,
    /// `[batch * seq, token_dim]` centred token values.
    pub tokens: Tensor,
}

impl TokenBatch {
    /// Builds a batch from raw token vectors (values in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if patch token lists are ragged or empty.
    pub fn from_patches(patches: &[Vec<Vec<f32>>]) -> Self {
        assert!(!patches.is_empty(), "empty batch");
        let seq = patches[0].len();
        let dim = patches[0][0].len();
        let mut data = Vec::with_capacity(patches.len() * seq * dim);
        for p in patches {
            assert_eq!(p.len(), seq, "ragged batch");
            for tok in p {
                assert_eq!(tok.len(), dim, "ragged token");
                data.extend(tok.iter().map(|&v| v - 0.5));
            }
        }
        Self {
            batch: patches.len(),
            seq,
            tokens: Tensor::from_vec(data, &[patches.len() * seq, dim]),
        }
    }

    /// Builds a batch straight from `count` whole patches: the same values
    /// as [`from_patches`](Self::from_patches) over each patch's
    /// [`patch_tokens`](crate::patch_tokens), without a `Vec` per token.
    ///
    /// # Panics
    ///
    /// Panics if `patches` does not yield `count` patches of `geometry`'s
    /// size in `channels`.
    pub(crate) fn from_image_patches<'a>(
        patches: impl IntoIterator<Item = &'a ImageF32>,
        count: usize,
        geometry: PatchGeometry,
        channels: Channels,
    ) -> Self {
        let (n, b, grid) = (geometry.n, geometry.b, geometry.grid());
        let (seq, dim) = (geometry.tokens_per_patch(), geometry.token_dim(channels));
        let cc = channels.count();
        // One sub-patch row: `b` pixels of interleaved channels.
        let run = b * cc;
        let mut data = Vec::with_capacity(count * seq * dim);
        for patch in patches {
            assert_eq!((patch.width(), patch.height()), (n, n), "patch size");
            assert_eq!(patch.channels(), channels, "patch channels");
            let pixels = patch.data();
            for row in 0..grid {
                for col in 0..grid {
                    for dy in 0..b {
                        let at = ((row * b + dy) * n + col * b) * cc;
                        data.extend(pixels[at..at + run].iter().map(|&v| v - 0.5));
                    }
                }
            }
        }
        assert_eq!(data.len(), count * seq * dim, "patch count");
        Self { batch: count, seq, tokens: Tensor::from_vec(data, &[count * seq, dim]) }
    }
}

impl Reconstructor {
    /// Builds a model with fresh (seeded) weights.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has no decoder block: the served decode restricts
    /// the last one to the erased rows.
    pub fn new(cfg: ReconstructorConfig) -> Self {
        assert!(cfg.decoder_blocks > 0, "the reconstructor needs a decoder block");
        let mut params = ParamSet::new();
        let mut rng = init::rng(cfg.seed);
        let d = cfg.d_model;
        let token_dim = cfg.token_dim();
        let seq = cfg.seq_len();
        let in_proj = nn::Linear::new(&mut params, &mut rng, "in_proj", token_dim, d);
        let enc_pos = params.add("enc_pos", init::normal_trunc(&mut rng, &[seq, d], 0.02));
        let enc_blocks = (0..cfg.encoder_blocks)
            .map(|i| {
                nn::TransformerBlock::new(
                    &mut params,
                    &mut rng,
                    &format!("enc.{i}"),
                    d,
                    cfg.heads,
                    cfg.ffn,
                )
            })
            .collect();
        let mask_token = params.add("mask_token", init::normal_trunc(&mut rng, &[1, d], 0.02));
        let dec_pos = params.add("dec_pos", init::normal_trunc(&mut rng, &[seq, d], 0.02));
        let dec_blocks = (0..cfg.decoder_blocks)
            .map(|i| {
                nn::TransformerBlock::new(
                    &mut params,
                    &mut rng,
                    &format!("dec.{i}"),
                    d,
                    cfg.heads,
                    cfg.ffn,
                )
            })
            .collect();
        let out_proj = nn::Linear::new(&mut params, &mut rng, "out_proj", d, token_dim);
        Self {
            cfg,
            params,
            in_proj,
            enc_pos,
            enc_blocks,
            mask_token,
            dec_pos,
            dec_blocks,
            out_proj,
            quant_cache: OnceLock::new(),
        }
    }

    /// Model configuration.
    pub fn config(&self) -> &ReconstructorConfig {
        &self.cfg
    }

    /// Parameter set (for optimisers and serialization).
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable parameter set (for optimisers and weight loading).
    ///
    /// Drops any cached quantized weights: the int8 tables are derived
    /// from the f32 values and must be rebuilt after training steps or a
    /// weight load.
    pub fn params_mut(&mut self) -> &mut ParamSet {
        self.quant_cache = OnceLock::new();
        &mut self.params
    }

    /// The int8-quantized form of every matmul weight, built on first use
    /// and cached until [`params_mut`](Self::params_mut) is next called.
    pub fn quantized_params(&self) -> &QuantizedParams {
        self.quant_cache.get_or_init(|| {
            let mut q = QuantizedParams::new();
            self.in_proj.quantize_into(&self.params, &mut q);
            for block in &self.enc_blocks {
                block.quantize_into(&self.params, &mut q);
            }
            for block in &self.dec_blocks {
                block.quantize_into(&self.params, &mut q);
            }
            self.out_proj.quantize_into(&self.params, &mut q);
            q
        })
    }

    /// Serialized model size in bytes (the paper's 8.7 MB accounting).
    pub fn model_bytes(&self) -> usize {
        easz_tensor::serialized_size(&self.params)
    }

    /// Forward pass over a token batch under one shared erase mask,
    /// returning the predicted centred tokens `[batch * seq, token_dim]`.
    ///
    /// The graph is created by the caller so losses can be appended.
    ///
    /// # Panics
    ///
    /// Panics if the batch geometry does not match the model.
    pub fn forward(&self, g: &mut Graph<'_>, batch: &TokenBatch, mask: &EraseMask) -> Var {
        assert_eq!(mask.n_grid() * mask.n_grid(), batch.seq, "mask size mismatch");
        let plan = DecodePlan::new(mask);
        self.run(g, batch, &MultiMaskPlan::new(&[(&plan, batch.batch)]), None)
    }

    /// The transformer forward, written once for every executor: encoder
    /// over the kept tokens, decoder over the composed sequence, each patch
    /// mapped by its own mask through `plan`. With `out_rows = None` it
    /// predicts every row, `[batch * seq, token_dim]`;
    /// with `Some(rows)` (the same count per patch) the last decoder block
    /// queries only those rows and the result is `[rows.len(), token_dim]`,
    /// each row bit-equal to its row of the full prediction.
    fn run<E: Executor>(
        &self,
        e: &mut E,
        batch: &TokenBatch,
        plan: &MultiMaskPlan,
        out_rows: Option<&[usize]>,
    ) -> E::Value {
        let (bsz, seq) = (batch.batch, batch.seq);
        assert_eq!(seq, self.cfg.seq_len(), "sequence length mismatch");
        assert_eq!((plan.patches(), plan.seq()), (bsz, seq), "plan does not match the batch");
        let m = plan.kept_per_patch();

        // --- Encoder: only un-erased tokens. ---
        let enc_in = e.gather_input(&batch.tokens, plan.kept_rows());
        let x = self.in_proj.forward(e, &enc_in);
        e.free(enc_in);
        // `[bsz * m, d]`: each patch's kept positions, one block per patch.
        let pos = e.gather_param(self.enc_pos, plan.pos_rows());
        let mut x = e.add_rows(x, pos);
        for block in &self.enc_blocks {
            x = block.forward(e, x, bsz, m, None);
        }

        // --- Decoder input: scatter encoder features + mask tokens. ---
        let y = e.compose_tokens(x, self.mask_token, plan.compose());
        let mut y = e.add_param_rows(y, self.dec_pos);
        let last = self.dec_blocks.len() - 1;
        for (i, block) in self.dec_blocks.iter().enumerate() {
            y = block.forward(e, y, bsz, seq, if i == last { out_rows } else { None });
        }
        let out = self.out_proj.forward(e, &y);
        e.free(y);
        out
    }

    /// The forward on the tape-free engine over `arena`, on `engine`'s
    /// numeric tier, predicting `out_rows` (every row if `None`); `read`
    /// receives the centred predictions before the arena takes them back.
    fn infer<T>(
        &self,
        batch: &TokenBatch,
        plan: &MultiMaskPlan,
        out_rows: Option<&[usize]>,
        arena: &mut ScratchArena,
        engine: DecodeEngine,
        read: impl FnOnce(&[f32]) -> T,
    ) -> T {
        let mut s = match engine {
            DecodeEngine::TapeFree => InferenceSession::new(&self.params, arena),
            DecodeEngine::QuantizedInt8 => {
                InferenceSession::with_quantized(&self.params, self.quantized_params(), arena)
            }
        };
        let out = self.run(&mut s, batch, plan, out_rows);
        let result = read(out.data());
        s.free(out);
        result
    }

    /// The full-row forward: per patch, per grid position, the predicted
    /// token values in `[0, 1]`.
    fn infer_all(
        &self,
        batch: &TokenBatch,
        plan: &MultiMaskPlan,
        arena: &mut ScratchArena,
        engine: DecodeEngine,
    ) -> Vec<Vec<Vec<f32>>> {
        let dim = self.cfg.token_dim();
        self.infer(batch, plan, None, arena, engine, |out| to_patches(out, batch.seq, dim))
    }

    /// The served decode's forward: predicts only the erased rows of
    /// `plan` (each patch's erased positions) on `engine`'s tier, over
    /// `arena`.
    ///
    /// The last decoder block queries only those rows (its keys and values
    /// still cover every row), and the output projection runs on them
    /// alone. Every op there is row-wise or per query row, so each
    /// prediction is bit-equal to its row of the full-row forward
    /// ([`infer_tokens`](Self::infer_tokens) and siblings) on either tier.
    ///
    /// Returns one buffer of `token_dim`-wide rows with values in
    /// `[0, 1]`: patch after patch, and within a patch the erased positions
    /// in raster order. Empty if the mask erases nothing.
    ///
    /// # Panics
    ///
    /// Panics if the batch geometry does not match the model or `plan`
    /// was built for a different batch.
    pub fn infer_erased(
        &self,
        batch: &TokenBatch,
        plan: &MultiMaskPlan,
        arena: &mut ScratchArena,
        engine: DecodeEngine,
    ) -> Vec<f32> {
        self.infer(batch, plan, Some(plan.erased_rows()), arena, engine, |out| {
            out.iter().map(|&v| decentre(v)).collect()
        })
    }

    /// Convenience inference: the full-row forward of a batch.
    ///
    /// Returns, per patch, per grid position, the predicted token values in
    /// `[0, 1]`. Kept positions get the model's re-prediction too; the
    /// served decode ([`EaszDecoder`](crate::EaszDecoder), through
    /// [`infer_erased`](Self::infer_erased)) does not compute those.
    ///
    /// Runs on the tape-free engine with a throwaway plan and arena; hot
    /// paths that decode many containers should build a [`DecodePlan`] (or
    /// go through [`EaszDecoder`](crate::EaszDecoder), which caches them)
    /// and a reusable [`ScratchArena`], then call
    /// [`infer_tokens`](Self::infer_tokens) directly.
    pub fn reconstruct_tokens(&self, batch: &TokenBatch, mask: &EraseMask) -> Vec<Vec<Vec<f32>>> {
        let plan = DecodePlan::new(mask);
        let mut arena = ScratchArena::new();
        self.infer_tokens(batch, &plan, &mut arena)
    }

    /// [`reconstruct_tokens`](Self::reconstruct_tokens) on the autodiff
    /// tape — the training engine run forward-only.
    ///
    /// Byte-identical to the tape-free path by construction (both run the
    /// one generic forward; the equivalence sweep in
    /// `tests/infer_equivalence.rs` checks it end to end); kept as the
    /// reference that sweep compares against.
    pub fn reconstruct_tokens_graph(
        &self,
        batch: &TokenBatch,
        mask: &EraseMask,
    ) -> Vec<Vec<Vec<f32>>> {
        let mut g = Graph::new(&self.params);
        let out = self.forward(&mut g, batch, mask);
        to_patches(g.value(out).data(), batch.seq, self.cfg.token_dim())
    }

    /// The tape-free forward: reconstructs a token batch using a
    /// precomputed [`DecodePlan`] and a reusable [`ScratchArena`].
    ///
    /// No autodiff tape, no parameter clones, in-place activations, and —
    /// once `arena` is warm — no allocations beyond the batch's one-stream
    /// [`MultiMaskPlan`] and the returned token lists. Output is
    /// byte-identical to [`forward`](Self::forward) on a [`Graph`].
    ///
    /// # Panics
    ///
    /// Panics if the batch geometry does not match the model or `plan` was
    /// built for a different grid.
    pub fn infer_tokens(
        &self,
        batch: &TokenBatch,
        plan: &DecodePlan,
        arena: &mut ScratchArena,
    ) -> Vec<Vec<Vec<f32>>> {
        self.infer_tokens_multi(batch, &MultiMaskPlan::new(&[(plan, batch.batch)]), arena)
    }

    /// [`infer_tokens`](Self::infer_tokens) on the quantized int8 tier:
    /// same plan and arena machinery, but every `Linear` runs the int8
    /// widening kernel with f16-rounded activations. Deterministic (same
    /// bytes for any batch packing or worker count) but **not** bit-equal
    /// to the f32 engines; the workspace divergence suite bounds the gap.
    pub fn infer_tokens_quant(
        &self,
        batch: &TokenBatch,
        plan: &DecodePlan,
        arena: &mut ScratchArena,
    ) -> Vec<Vec<Vec<f32>>> {
        self.infer_tokens_multi_quant(batch, &MultiMaskPlan::new(&[(plan, batch.batch)]), arena)
    }

    /// The tape-free forward over a [`MultiMaskPlan`]: patches that share
    /// a geometry and erase *count* but not necessarily erase positions (a
    /// fleet of edge senders with per-device mask seeds) reconstructed in
    /// one forward pass. [`infer_tokens`](Self::infer_tokens) is its
    /// one-stream case.
    ///
    /// Per stream, the output is byte-identical to
    /// [`infer_tokens`](Self::infer_tokens) under that stream's own plan:
    /// attention is confined within each patch and every other op is
    /// row-wise, so packing differently-masked patches into one batch
    /// changes only which rows sit next to each other, never the
    /// per-element operations or their order.
    ///
    /// # Panics
    ///
    /// Panics if the batch geometry does not match the model or `plan`
    /// disagrees with the batch's patch count.
    pub fn infer_tokens_multi(
        &self,
        batch: &TokenBatch,
        plan: &MultiMaskPlan,
        arena: &mut ScratchArena,
    ) -> Vec<Vec<Vec<f32>>> {
        self.infer_all(batch, plan, arena, DecodeEngine::TapeFree)
    }

    /// [`infer_tokens_multi`](Self::infer_tokens_multi) on the quantized
    /// int8 tier. The fused forward stays row-invariant on this tier too —
    /// activation quantization, the integer accumulation and f16 rounding
    /// are all per-row — so a stream's quantized output is byte-identical
    /// whether it decodes serially or fused into a mixed-mask batch.
    pub fn infer_tokens_multi_quant(
        &self,
        batch: &TokenBatch,
        plan: &MultiMaskPlan,
        arena: &mut ScratchArena,
    ) -> Vec<Vec<Vec<f32>>> {
        self.infer_all(batch, plan, arena, DecodeEngine::QuantizedInt8)
    }

    /// Builds the paper's training loss (Eq. 2): `L1 + λ · perceptual` where
    /// the perceptual term is a frequency-weighted error in the sub-patch
    /// DCT basis (the differentiable LPIPS stand-in; README, "Reproduction
    /// scope").
    ///
    /// Returns the scalar loss node.
    pub fn loss(
        &self,
        g: &mut Graph<'_>,
        predictions: Var,
        target: &TokenBatch,
        lambda: f32,
    ) -> Var {
        let l1 = g.l1_loss(predictions, &target.tokens);
        if lambda == 0.0 {
            return l1;
        }
        let (k, w) = dct_weighting(self.cfg.b, self.cfg.channels().count());
        let kt = g.input(k.clone());
        let pred_freq = g.matmul(predictions, kt);
        let target_freq = target.tokens.matmul(&k);
        let rows = target.tokens.shape()[0];
        let mut weights = Tensor::zeros(&[rows, w.len()]);
        for r in 0..rows {
            let dst = &mut weights.data_mut()[r * w.len()..(r + 1) * w.len()];
            dst.copy_from_slice(&w);
        }
        let perceptual = g.weighted_mse_loss(pred_freq, &target_freq, &weights);
        let scaled = g.scale(perceptual, lambda);
        g.add(l1, scaled)
    }
}

/// A centred prediction back in `[0, 1]`.
fn decentre(v: f32) -> f32 {
    (v + 0.5).clamp(0.0, 1.0)
}

/// Splits `[batch * seq, dim]` centred predictions into per-patch token
/// lists with values back in `[0, 1]`.
fn to_patches(out: &[f32], seq: usize, dim: usize) -> Vec<Vec<Vec<f32>>> {
    out.chunks_exact(seq * dim)
        .map(|patch| {
            patch.chunks_exact(dim).map(|row| row.iter().map(|&v| decentre(v)).collect()).collect()
        })
        .collect()
}

/// The sub-patch DCT operator `K` (`token_dim × token_dim`, channel
/// block-diagonal) and per-coefficient perceptual weights.
///
/// Low frequencies carry the perceptually dominant structure, so weights
/// fall off with the 2-D frequency index like JPEG's quantisation tables
/// rise with it.
fn dct_weighting(b: usize, channels: usize) -> (Tensor, Vec<f32>) {
    // 1-D orthonormal DCT basis for size b.
    let mut c = vec![0f32; b * b];
    for k in 0..b {
        for i in 0..b {
            let s = if k == 0 { (1.0 / b as f64).sqrt() } else { (2.0 / b as f64).sqrt() };
            c[k * b + i] = (s
                * ((std::f64::consts::PI * (2.0 * i as f64 + 1.0) * k as f64) / (2.0 * b as f64))
                    .cos()) as f32;
        }
    }
    let dim = b * b * channels;
    // Token layout: pixel raster-major, channels interleaved. K maps token
    // vectors to per-channel 2-D DCT coefficients (same layout).
    // K[col = (i*b+j)*C + ch][row? ] -> we build K so that freq = token * K
    // (row vector convention): K[(p, ch), (k, ch)] = C2d[k][p].
    let mut kmat = Tensor::zeros(&[dim, dim]);
    for ku in 0..b {
        for kv in 0..b {
            for i in 0..b {
                for j in 0..b {
                    let coeff = c[ku * b + i] * c[kv * b + j];
                    for ch in 0..channels {
                        let col = (ku * b + kv) * channels + ch;
                        let row = (i * b + j) * channels + ch;
                        kmat.data_mut()[row * dim + col] = coeff;
                    }
                }
            }
        }
    }
    let mut weights = vec![0f32; dim];
    for ku in 0..b {
        for kv in 0..b {
            let w = 1.0 / (1.0 + (ku + kv) as f32);
            for ch in 0..channels {
                weights[(ku * b + kv) * channels + ch] = w;
            }
        }
    }
    (kmat, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::{MaskKind, RowSamplerConfig};

    fn small_cfg() -> ReconstructorConfig {
        ReconstructorConfig {
            n: 16,
            b: 4,
            d_model: 32,
            heads: 2,
            ffn: 64,
            ..ReconstructorConfig::fast()
        }
    }

    fn random_batch(cfg: &ReconstructorConfig, bsz: usize, seed: u64) -> TokenBatch {
        let mut s = seed;
        let seq = cfg.seq_len();
        let dim = cfg.token_dim();
        let patches: Vec<Vec<Vec<f32>>> = (0..bsz)
            .map(|_| {
                (0..seq)
                    .map(|_| {
                        (0..dim)
                            .map(|_| {
                                s ^= s << 13;
                                s ^= s >> 7;
                                s ^= s << 17;
                                ((s >> 40) as f32 / (1u64 << 24) as f32).clamp(0.0, 1.0)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        TokenBatch::from_patches(&patches)
    }

    fn mask_for(cfg: &ReconstructorConfig, seed: u64) -> EraseMask {
        MaskKind::RowConditional(RowSamplerConfig::with_ratio(cfg.geometry().grid(), 0.25))
            .generate(seed)
    }

    #[test]
    fn forward_shapes_and_finiteness() {
        let cfg = small_cfg();
        let model = Reconstructor::new(cfg);
        let batch = random_batch(&cfg, 3, 1);
        let mask = mask_for(&cfg, 2);
        let mut g = Graph::new(model.params());
        let predictions = model.forward(&mut g, &batch, &mask);
        let out = g.value(predictions);
        assert_eq!(out.shape(), &[3 * cfg.seq_len(), cfg.token_dim()]);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn same_model_handles_multiple_erase_ratios() {
        // The paper's flexibility claim: one weight set, any erase ratio.
        let cfg = small_cfg();
        let model = Reconstructor::new(cfg);
        let batch = random_batch(&cfg, 2, 3);
        for ratio in [0.25, 0.5] {
            let mask = MaskKind::RowConditional(RowSamplerConfig::with_ratio(
                cfg.geometry().grid(),
                ratio,
            ))
            .generate(1);
            let out = model.reconstruct_tokens(&batch, &mask);
            assert_eq!(out.len(), 2);
            assert_eq!(out[0].len(), cfg.seq_len());
        }
    }

    #[test]
    fn loss_backward_reaches_all_parameters() {
        let cfg = small_cfg();
        let model = Reconstructor::new(cfg);
        let batch = random_batch(&cfg, 2, 5);
        let mask = mask_for(&cfg, 7);
        let mut g = Graph::new(model.params());
        let predictions = model.forward(&mut g, &batch, &mask);
        let loss = model.loss(&mut g, predictions, &batch, 0.3);
        assert!(g.value(loss).item().is_finite());
        let grads = g.backward(loss);
        assert_eq!(grads.len(), model.params().len(), "every parameter should get gradients");
    }

    #[test]
    fn paper_config_model_size_is_about_9mb() {
        let model = Reconstructor::new(ReconstructorConfig::paper());
        let mb = model.model_bytes() as f64 / (1024.0 * 1024.0);
        assert!(
            (7.0..11.0).contains(&mb),
            "paper config should serialize near 8.7 MB, got {mb:.2} MB"
        );
    }

    #[test]
    fn dct_weighting_is_orthonormal_per_channel() {
        let (k, w) = dct_weighting(4, 3);
        // K^T K = I (orthonormal transform).
        let ktk = k.transpose2().matmul(&k);
        let dim = 48;
        for i in 0..dim {
            for j in 0..dim {
                let expect = if i == j { 1.0 } else { 0.0 };
                let got = ktk.data()[i * dim + j];
                assert!((got - expect).abs() < 1e-4, "K^T K [{i},{j}] = {got}");
            }
        }
        // DC weight is the largest.
        assert!(w[0] >= w.iter().fold(0.0f32, |a, &b| a.max(b)) - 1e-9);
    }

    #[test]
    fn image_patch_batch_matches_token_list_batch_bitwise() {
        let cfg = small_cfg();
        let geometry = cfg.geometry();
        let patches: Vec<ImageF32> = (0..3)
            .map(|k| {
                let mut img = ImageF32::new(cfg.n, cfg.n, Channels::Rgb);
                for (i, v) in img.data_mut().iter_mut().enumerate() {
                    *v = ((i * 37 + k * 11) % 101) as f32 / 100.0;
                }
                img
            })
            .collect();
        let lists: Vec<Vec<Vec<f32>>> =
            patches.iter().map(|p| crate::patchify::patch_tokens(p, geometry)).collect();
        let expect = TokenBatch::from_patches(&lists);
        let got = TokenBatch::from_image_patches(&patches, 3, geometry, Channels::Rgb);
        assert_eq!((got.batch, got.seq), (expect.batch, expect.seq));
        assert_eq!(got.tokens.shape(), expect.tokens.shape());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.tokens), bits(&expect.tokens));
    }

    #[test]
    fn token_batch_centres_values() {
        let patches = vec![vec![vec![1.0f32, 0.0, 0.5]; 4]; 2];
        let b = TokenBatch::from_patches(&patches);
        assert_eq!(b.tokens.shape(), &[8, 3]);
        assert_eq!(b.tokens.row(0), &[0.5, -0.5, 0.0]);
    }
}
