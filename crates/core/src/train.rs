//! Training (paper §III-B "Training Process" and §IV-A).
//!
//! Offline pretraining uses the paper's hyper-parameters: AdamW with
//! learning rate 2.8e-4 and weight decay 0.05, erase ratio 0.25, randomly
//! generated erase masks per step for robustness, CIFAR-like 32×32 patches,
//! and the Eq. 2 loss `L1 + 0.3 · perceptual`.
//!
//! [`Trainer`] is the one training loop. Its shard count is part of the
//! recipe (one for pretraining, [`Trainer::sharded`] for the zoo's
//! fine-tunes); the worker count that carries the shards is the tensor
//! pool's and never changes a bit (see the type docs).

use crate::mask::{MaskKind, RowSamplerConfig};
use crate::model::{Reconstructor, TokenBatch};
use crate::patchify::{patch_tokens, Patchified};
use easz_image::ImageF32;
use easz_tensor::{AdamW, AdamWConfig, Gradients, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Training hyper-parameters (defaults = the paper's pretraining setting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Learning rate (paper: 2.8e-4).
    pub lr: f32,
    /// Weight decay (paper: 0.05).
    pub weight_decay: f32,
    /// Erase ratio during training (paper: 0.25).
    pub erase_ratio: f64,
    /// Patches per optimisation step. The paper uses 4096 on GPUs; the CPU
    /// default is smaller with more steps.
    pub batch_size: usize,
    /// Perceptual-loss weight λ (paper: 0.3).
    pub lambda: f32,
    /// RNG seed for batching and masks.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            lr: 2.8e-4,
            weight_decay: 0.05,
            erase_ratio: 0.25,
            batch_size: 16,
            lambda: 0.3,
            seed: 7,
        }
    }
}

/// A reconstructor plus its optimiser state and loss history.
///
/// Each step shards its batch across the persistent tensor worker pool and
/// combines shard gradients with a [`Gradients::tree_reduce`] all-reduce,
/// so results are **bit-identical for any worker count**: parallelism is
/// scheduling, never numerics.
///
/// - The **shard count is part of the training recipe** (like the batch
///   size): each step's `batch_size` patches are split into `shards` equal
///   contiguous slices, each running its own forward/backward on an
///   independent tape. Changing the shard count changes how per-element
///   losses group into float sums, so it changes bits.
/// - The **worker count** is the pool's, sized once per process by
///   `EASZ_MATMUL_THREADS`. Every shard computes the same tape on any
///   thread and the reduction tree adds in shard-index order, so neither
///   the pool size nor scheduling can reach the floats.
/// - Patch sampling and mask generation draw from the step RNG *before*
///   sharding, so the RNG stream does not depend on the shard count.
/// - With one shard ([`new`](Self::new)) the shard runs inline on the
///   caller's thread, keeping the nested matmuls parallel; the tree reduce
///   of one gradient is a move and no scaling is applied.
///
/// Shard gradients are averaged (`tree sum × 1/shards`): each shard's loss
/// is a mean over its own slice, so the average of shard gradients is the
/// gradient of the mean of shard losses, the same objective at any shard
/// count up to float grouping.
pub struct Trainer {
    model: Reconstructor,
    opt: AdamW,
    cfg: TrainConfig,
    shards: usize,
    rng: StdRng,
    history: Vec<f32>,
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer")
            .field("cfg", &self.cfg)
            .field("shards", &self.shards)
            .field("steps", &self.history.len())
            .finish()
    }
}

impl Trainer {
    /// Wraps a model for training with one gradient shard per step.
    pub fn new(model: Reconstructor, cfg: TrainConfig) -> Self {
        Self::sharded(model, cfg, 1)
    }

    /// Wraps a model for training over `shards` gradient shards per step.
    ///
    /// # Panics
    ///
    /// Panics unless `shards >= 1` and `cfg.batch_size` is a multiple of
    /// `shards` (equal shard sizes are what make the shard average equal
    /// the batch mean).
    pub fn sharded(model: Reconstructor, cfg: TrainConfig, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one gradient shard");
        assert!(
            cfg.batch_size.is_multiple_of(shards),
            "batch_size {} must be a multiple of the shard count {shards}",
            cfg.batch_size
        );
        let opt = AdamW::new(AdamWConfig {
            lr: cfg.lr,
            weight_decay: cfg.weight_decay,
            ..AdamWConfig::default()
        });
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self { model, opt, cfg, shards, rng, history: Vec::new() }
    }

    /// The model being trained.
    pub fn model(&self) -> &Reconstructor {
        &self.model
    }

    /// Consumes the trainer, returning the trained model.
    pub fn into_model(self) -> Reconstructor {
        self.model
    }

    /// Per-step losses so far (Fig. 7d's series).
    pub fn history(&self) -> &[f32] {
        &self.history
    }

    /// Training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Gradient shards per step (a recipe property, see the type docs).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Overrides the learning rate (fine-tuning uses a smaller one).
    pub fn set_lr(&mut self, lr: f32) {
        self.opt.set_lr(lr);
    }

    /// The optimiser (step count, moment estimates) — read access for the
    /// determinism harness, which compares full AdamW state bit-for-bit.
    pub fn optimizer(&self) -> &AdamW {
        &self.opt
    }

    /// Runs `steps` optimisation steps over patches sampled from `corpus`.
    ///
    /// Each step draws `batch_size` random `n × n` crops, generates a fresh
    /// random row-conditional mask (paper: "randomly generated erase masks
    /// are applied for model robustness"), and minimises Eq. 2.
    ///
    /// Returns the per-step losses appended during this call (each the mean
    /// of its shard losses).
    ///
    /// # Panics
    ///
    /// Panics if `corpus` is empty or images are smaller than the patch.
    pub fn train(&mut self, corpus: &[ImageF32], steps: usize) -> Vec<f32> {
        assert!(!corpus.is_empty(), "training corpus is empty");
        let n = self.model.config().n;
        let grid = self.model.config().geometry().grid();
        let geometry = self.model.config().geometry();
        let per_shard = self.cfg.batch_size / self.shards;
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            // Draw the whole batch and the step mask before sharding: the
            // RNG stream must not depend on the shard count.
            let mut patches = Vec::with_capacity(self.cfg.batch_size);
            for _ in 0..self.cfg.batch_size {
                let img = &corpus[self.rng.gen_range(0..corpus.len())];
                assert!(
                    img.width() >= n && img.height() >= n,
                    "corpus image {}x{} smaller than patch {n}",
                    img.width(),
                    img.height()
                );
                let x0 = self.rng.gen_range(0..=img.width() - n);
                let y0 = self.rng.gen_range(0..=img.height() - n);
                let patch = img.crop(x0, y0, n, n);
                patches.push(patch_tokens(&patch, geometry));
            }
            let mask =
                MaskKind::RowConditional(RowSamplerConfig::with_ratio(grid, self.cfg.erase_ratio))
                    .generate(self.rng.gen());
            // Per-shard forward/backward on independent tapes, one pool
            // task per shard. Each task writes only its own slot, so task
            // scheduling cannot affect anything downstream.
            let shards = self.shards;
            let lambda = self.cfg.lambda;
            let model = &self.model;
            let results: Vec<Mutex<Option<(f32, Gradients)>>> =
                (0..shards).map(|_| Mutex::new(None)).collect();
            easz_tensor::parallel::run_tasks(shards, &|si| {
                let slice = &patches[si * per_shard..(si + 1) * per_shard];
                let batch = TokenBatch::from_patches(slice);
                let mut g = Graph::new(model.params());
                let predictions = model.forward(&mut g, &batch, &mask);
                let loss = model.loss(&mut g, predictions, &batch, lambda);
                let value = g.value(loss).item();
                let grads = g.backward(loss);
                *results[si].lock().expect("shard slot") = Some((value, grads));
            });
            // Fixed-tree all-reduce in shard-index order, then the shard
            // mean. With one shard both are no-ops.
            let mut shard_grads = Vec::with_capacity(shards);
            let mut loss_sum = 0.0f32;
            for slot in &results {
                let (value, grads) =
                    slot.lock().expect("shard slot").take().expect("every shard ran");
                loss_sum += value;
                shard_grads.push(grads);
            }
            let mut combined = Gradients::tree_reduce(shard_grads);
            if shards > 1 {
                combined.scale(1.0 / shards as f32);
            }
            self.opt.step(self.model.params_mut(), &combined);
            let loss = loss_sum / shards as f32;
            self.history.push(loss);
            out.push(loss);
        }
        out
    }

    /// Fine-tunes on a target-domain corpus (paper Fig. 7d): same loop with
    /// a reduced learning rate.
    pub fn finetune(&mut self, corpus: &[ImageF32], steps: usize) -> Vec<f32> {
        let lr = self.opt.config().lr;
        self.opt.set_lr(lr * 0.5);
        let losses = self.train(corpus, steps);
        self.opt.set_lr(lr);
        losses
    }

    /// Average loss over the most recent `window` steps.
    pub fn recent_loss(&self, window: usize) -> Option<f32> {
        if self.history.is_empty() {
            return None;
        }
        let w = window.min(self.history.len()).max(1);
        Some(self.history[self.history.len() - w..].iter().sum::<f32>() / w as f32)
    }
}

/// Evaluates reconstruction MSE of `model` on erased regions of `images`
/// under a fixed mask (the Fig. 3b / Fig. 7c measurement).
///
/// Only erased positions count, because they are what the model fills in.
/// At kept positions the model's re-prediction is discarded: in serving,
/// kept pixels come from the inner codec (JPEG-like or BPG-like), so
/// scoring them would mix in an output the pipeline never uses.
pub fn erased_region_mse(
    model: &Reconstructor,
    images: &[ImageF32],
    mask: &crate::mask::EraseMask,
) -> f64 {
    let geometry = model.config().geometry();
    let mut acc = 0.0f64;
    let mut count = 0usize;
    for img in images {
        let patched = Patchified::from_image(img, geometry);
        let tokens: Vec<Vec<Vec<f32>>> =
            patched.patches.iter().map(|p| patch_tokens(p, geometry)).collect();
        let batch = TokenBatch::from_patches(&tokens);
        let recon = model.reconstruct_tokens(&batch, mask);
        for (pi, patch_tokens_orig) in tokens.iter().enumerate() {
            for (row, col, erased) in mask.iter() {
                if !erased {
                    continue;
                }
                let s = row * mask.n_grid() + col;
                for (a, b) in patch_tokens_orig[s].iter().zip(recon[pi][s].iter()) {
                    let d = (*a - *b) as f64;
                    acc += d * d;
                    count += 1;
                }
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        acc / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ReconstructorConfig;
    use easz_data::Dataset;

    fn tiny_model() -> Reconstructor {
        Reconstructor::new(ReconstructorConfig {
            n: 16,
            b: 4,
            d_model: 32,
            heads: 2,
            ffn: 64,
            ..ReconstructorConfig::fast()
        })
    }

    /// Trains the tiny model 30 steps on `shards` gradient shards and checks
    /// that the loss falls.
    fn assert_training_reduces_loss(shards: usize) {
        let corpus = Dataset::CifarLike.images(12);
        let mut trainer = Trainer::sharded(
            tiny_model(),
            TrainConfig { batch_size: 8, lr: 2e-3, ..TrainConfig::default() },
            shards,
        );
        let losses = trainer.train(&corpus, 30);
        assert_eq!(losses.len(), 30);
        let head: f32 = losses[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = losses[25..].iter().sum::<f32>() / 5.0;
        assert!(
            tail < head * 0.9,
            "{shards}-shard loss should drop during training: head {head} tail {tail}"
        );
        assert!(trainer.recent_loss(5).expect("history") > 0.0);
        assert_eq!(trainer.shards(), shards);
    }

    #[test]
    fn training_reduces_loss() {
        assert_training_reduces_loss(1);
    }

    #[test]
    fn sharded_training_reduces_loss() {
        assert_training_reduces_loss(4);
    }

    #[test]
    fn trained_model_beats_untrained_on_erased_mse() {
        let corpus = Dataset::CifarLike.images(12);
        let mask = MaskKind::RowConditional(RowSamplerConfig::with_ratio(4, 0.25)).generate(3);
        let test: Vec<_> =
            (20..24).map(|i| Dataset::CifarLike.image(i).crop(0, 0, 16, 16)).collect();
        let untrained_mse = erased_region_mse(&tiny_model(), &test, &mask);
        let mut trainer = Trainer::new(
            tiny_model(),
            TrainConfig { batch_size: 8, lr: 2e-3, ..TrainConfig::default() },
        );
        trainer.train(&corpus, 60);
        let trained_mse = erased_region_mse(trainer.model(), &test, &mask);
        assert!(
            trained_mse < untrained_mse * 0.8,
            "training should help: {trained_mse} vs {untrained_mse}"
        );
    }

    #[test]
    fn finetune_appends_history() {
        let corpus = Dataset::CifarLike.images(6);
        let mut trainer =
            Trainer::new(tiny_model(), TrainConfig { batch_size: 4, ..TrainConfig::default() });
        trainer.train(&corpus, 3);
        trainer.finetune(&corpus, 2);
        assert_eq!(trainer.history().len(), 5);
    }

    #[test]
    #[should_panic(expected = "must be a multiple of the shard count")]
    fn parallel_trainer_rejects_indivisible_shard_counts() {
        let _ = Trainer::sharded(
            tiny_model(),
            TrainConfig { batch_size: 8, ..TrainConfig::default() },
            3,
        );
    }
}
