//! The model zoo: pretrained and domain fine-tuned reconstructors with an
//! on-disk weight cache, plus the [`ModelRegistry`] a decode server uses to
//! route containers by their header model id.
//!
//! Pretraining and fine-tuning are deterministic (seeded data, seeded
//! masks, seeded init, fixed-tree gradient reduction), so a weight file is
//! fully described by its configuration. Tests, benches and examples share
//! one training run per configuration: the first caller trains and saves
//! under `target/easz-weights/`, everyone else loads.

use crate::model::{Reconstructor, ReconstructorConfig};
use crate::train::{TrainConfig, Trainer};
use easz_data::Dataset;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::sync::{Arc, OnceLock};

/// A fully specified pretraining recipe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PretrainSpec {
    /// Model architecture.
    pub model: ReconstructorConfig,
    /// Optimisation hyper-parameters.
    pub train: TrainConfig,
    /// Number of optimisation steps.
    pub steps: usize,
    /// Number of CIFAR-like corpus images.
    pub corpus: usize,
}

impl PretrainSpec {
    /// The quick recipe used by tests and benches: a `fast()` model trained
    /// 2000 steps — the shortest run that beats the neighbour-fill baseline
    /// with a comfortable (~15%) MSE margin on the held-out Kodak-like eval.
    /// Trains once per machine (minutes on one CPU core), then loads from
    /// the weight cache.
    pub fn quick() -> Self {
        Self {
            model: ReconstructorConfig { d_model: 96, ffn: 192, ..ReconstructorConfig::fast() },
            train: TrainConfig { batch_size: 16, lr: 1.2e-3, ..TrainConfig::default() },
            steps: 2000,
            corpus: 64,
        }
    }

    /// Cache key (stable across processes for identical specs).
    fn key(&self) -> String {
        let m = &self.model;
        let t = &self.train;
        format!(
            "n{}b{}c{}d{}h{}f{}e{}x{}s{}-lr{:e}wd{:e}er{}bs{}l{:e}ts{}-st{}co{}",
            m.n,
            m.b,
            u8::from(m.color),
            m.d_model,
            m.heads,
            m.ffn,
            m.encoder_blocks,
            m.decoder_blocks,
            m.seed,
            t.lr,
            t.weight_decay,
            t.erase_ratio,
            t.batch_size,
            t.lambda,
            t.seed,
            self.steps,
            self.corpus
        )
    }
}

fn cache_dir() -> PathBuf {
    // Anchor at the workspace target dir regardless of the runner's cwd.
    let manifest = env!("CARGO_MANIFEST_DIR");
    PathBuf::from(manifest).join("../../target/easz-weights")
}

fn registry() -> &'static Mutex<HashMap<String, Arc<Reconstructor>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Arc<Reconstructor>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the model cached under `key`: from the in-memory registry, else
/// from the weight file, else built by `train` from a fresh `config` model
/// and then written to the weight file.
fn cached(
    key: String,
    config: ReconstructorConfig,
    train: impl FnOnce(Reconstructor) -> Reconstructor,
) -> Arc<Reconstructor> {
    // The lock is held across the build on purpose: training takes
    // minutes, so concurrent first callers (parallel test threads) must
    // block on the winner rather than each redundantly retraining and
    // racing writes to the same cache file.
    let mut reg = registry().lock().expect("zoo registry poisoned");
    if let Some(model) = reg.get(&key) {
        return model.clone();
    }
    let path = cache_dir().join(format!("{key}.bin"));
    let mut model = Reconstructor::new(config);
    if easz_tensor::load_params_file(model.params_mut(), &path).is_err() {
        model = train(model);
        // Write-then-rename so a concurrent process never reads a torn file.
        let tmp = path.with_extension("bin.tmp");
        let saved = easz_tensor::save_params_file(model.params(), &tmp)
            .map_err(|e| e.to_string())
            .and_then(|()| std::fs::rename(&tmp, &path).map_err(|e| e.to_string()));
        if let Err(err) = saved {
            // Cache writes are best-effort (e.g. read-only target dirs).
            eprintln!("warning: could not cache weights at {}: {err}", path.display());
        }
    }
    let arc = Arc::new(model);
    reg.insert(key, arc.clone());
    arc
}

/// Returns the pretrained model for `spec`, training it (once) on the
/// synthetic CIFAR-like corpus if no cached weights exist.
///
/// The returned model is shared; training happens at most once per spec per
/// machine (in-memory registry + on-disk cache).
pub fn pretrained(spec: PretrainSpec) -> Arc<Reconstructor> {
    cached(spec.key(), spec.model, |model| {
        let corpus = Dataset::CifarLike.images(spec.corpus);
        let mut trainer = Trainer::new(model, spec.train);
        trainer.train(&corpus, spec.steps);
        trainer.into_model()
    })
}

/// A fine-tuning domain the zoo serves a specialised model for.
///
/// Each domain names a synthetic corpus at one end of the texture/detail
/// axis and a conventional wire model id (container header byte 9, format
/// version 3); id 0 always means the generic pretrained model and never
/// appears here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FinetuneDomain {
    /// Foliage/fabric-dominated content ([`Dataset::TexturedLike`]), wire
    /// model id 1.
    Textured,
    /// Documents/walls/UI-like content ([`Dataset::FlatLike`]), wire model
    /// id 2.
    Flat,
}

impl FinetuneDomain {
    /// Every domain, in wire-id order.
    pub const ALL: [FinetuneDomain; 2] = [FinetuneDomain::Textured, FinetuneDomain::Flat];

    /// The conventional container model id for this domain.
    pub fn model_id(self) -> u8 {
        match self {
            FinetuneDomain::Textured => 1,
            FinetuneDomain::Flat => 2,
        }
    }

    /// The fine-tuning corpus.
    pub fn dataset(self) -> Dataset {
        match self {
            FinetuneDomain::Textured => Dataset::TexturedLike,
            FinetuneDomain::Flat => Dataset::FlatLike,
        }
    }

    /// Stable lowercase name (cache keys, CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            FinetuneDomain::Textured => "textured",
            FinetuneDomain::Flat => "flat",
        }
    }

    /// Parses a CLI name (`"textured"` / `"flat"`).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|d| d.name() == s)
    }
}

/// A fully specified fine-tuning recipe: a pretrained base plus a
/// domain-specific data-parallel refinement pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinetuneSpec {
    /// The pretrained model fine-tuning starts from.
    pub base: PretrainSpec,
    /// Target domain (corpus + conventional model id).
    pub domain: FinetuneDomain,
    /// Fine-tuning steps (at half the base learning rate).
    pub steps: usize,
    /// Number of domain corpus images.
    pub corpus: usize,
    /// Gradient shards per step — part of the recipe, not a performance
    /// knob (see [`Trainer::sharded`]); the worker count that carries them
    /// is the tensor pool's and never changes a bit of the result.
    pub shards: usize,
}

impl FinetuneSpec {
    /// The quick recipe used by tests: the [`PretrainSpec::quick`] base
    /// refined for 240 data-parallel steps on the domain corpus.
    pub fn quick(domain: FinetuneDomain) -> Self {
        Self { base: PretrainSpec::quick(), domain, steps: 240, corpus: 48, shards: 4 }
    }

    /// Cache key (stable across processes for identical specs).
    fn key(&self) -> String {
        format!(
            "{}-ft-{}-st{}co{}sh{}",
            self.base.key(),
            self.domain.name(),
            self.steps,
            self.corpus,
            self.shards
        )
    }
}

/// Returns the domain fine-tuned model for `spec`, training it (once) with
/// a [`Trainer::sharded`] over `spec.shards` if no cached weights exist.
///
/// Like [`pretrained`], the result is shared per process and cached on disk
/// per machine; the result is bit-identical for any worker count, so the
/// cache file is portable across machine core counts.
pub fn finetuned(spec: FinetuneSpec) -> Arc<Reconstructor> {
    // Resolve the base BEFORE taking the registry lock: `pretrained` takes
    // the same (non-reentrant) lock, and a cold base may train for minutes.
    let base = pretrained(spec.base);
    cached(spec.key(), spec.base.model, |mut model| {
        // Seed the fresh model with the base weights (Reconstructor is not
        // Clone; an in-memory weights round-trip is exact).
        let mut buf = Vec::new();
        easz_tensor::save_params(base.params(), &mut buf).expect("in-memory weight save");
        easz_tensor::load_params(model.params_mut(), buf.as_slice())
            .expect("in-memory weight load");
        let corpus = spec.domain.dataset().images(spec.corpus);
        let mut trainer = Trainer::sharded(model, spec.base.train, spec.shards);
        trainer.finetune(&corpus, spec.steps);
        trainer.into_model()
    })
}

/// The reconstructors a decode server serves, keyed by the wire model id
/// (container header byte 9, format version 3; id 0 = the generic model).
///
/// Kept sorted by id so iteration order — and therefore everything a server
/// builds from it — is deterministic regardless of insertion order.
#[derive(Clone, Default)]
pub struct ModelRegistry {
    models: Vec<(u8, Arc<Reconstructor>)>,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry").field("ids", &self.ids().collect::<Vec<_>>()).finish()
    }
}

impl ModelRegistry {
    /// A registry serving `generic` under id 0.
    pub fn new(generic: Arc<Reconstructor>) -> Self {
        Self { models: vec![(0, generic)] }
    }

    /// Registers (or replaces) the model served under `id`.
    pub fn insert(&mut self, id: u8, model: Arc<Reconstructor>) {
        match self.models.binary_search_by_key(&id, |(i, _)| *i) {
            Ok(pos) => self.models[pos].1 = model,
            Err(pos) => self.models.insert(pos, (id, model)),
        }
    }

    /// Builder-style [`insert`](Self::insert).
    pub fn with_model(mut self, id: u8, model: Arc<Reconstructor>) -> Self {
        self.insert(id, model);
        self
    }

    /// The model served under `id`, if any.
    pub fn get(&self, id: u8) -> Option<&Arc<Reconstructor>> {
        self.models.binary_search_by_key(&id, |(i, _)| *i).ok().map(|pos| &self.models[pos].1)
    }

    /// Served ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = u8> + '_ {
        self.models.iter().map(|(id, _)| *id)
    }

    /// `(id, model)` pairs, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (u8, &Arc<Reconstructor>)> {
        self.models.iter().map(|(id, m)| (*id, m))
    }

    /// Number of served models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the registry serves no models at all.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_spec_is_stable() {
        let a = PretrainSpec::quick().key();
        let b = PretrainSpec::quick().key();
        assert_eq!(a, b);
    }

    #[test]
    fn different_specs_have_different_keys() {
        let a = PretrainSpec::quick();
        let mut b = a;
        b.steps += 1;
        assert_ne!(a.key(), b.key());
        let mut c = a;
        c.model.d_model *= 2;
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn registry_returns_shared_instance() {
        // Use a minuscule spec so the test trains in milliseconds even on a
        // cold cache.
        let spec = PretrainSpec {
            model: ReconstructorConfig {
                n: 16,
                b: 4,
                d_model: 16,
                heads: 2,
                ffn: 32,
                ..ReconstructorConfig::fast()
            },
            train: TrainConfig { batch_size: 2, ..TrainConfig::default() },
            steps: 2,
            corpus: 2,
        };
        let a = pretrained(spec);
        let b = pretrained(spec);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the registry");
    }

    fn tiny_spec() -> PretrainSpec {
        PretrainSpec {
            model: ReconstructorConfig {
                n: 16,
                b: 4,
                d_model: 16,
                heads: 2,
                ffn: 32,
                ..ReconstructorConfig::fast()
            },
            train: TrainConfig { batch_size: 4, ..TrainConfig::default() },
            steps: 2,
            corpus: 2,
        }
    }

    #[test]
    fn finetuned_models_differ_from_their_base_and_are_shared() {
        let spec = FinetuneSpec {
            base: tiny_spec(),
            domain: FinetuneDomain::Flat,
            steps: 2,
            corpus: 2,
            shards: 2,
        };
        let base = pretrained(spec.base);
        let a = finetuned(spec);
        let b = finetuned(spec);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the registry");
        assert!(!Arc::ptr_eq(&a, &base), "fine-tune must not alias the base");
        // Fine-tuning must actually have moved the weights.
        let moved = base
            .params()
            .ids()
            .any(|id| base.params().value(id).data() != a.params().value(id).data());
        assert!(moved, "fine-tuned weights must differ from the base");
    }

    #[test]
    fn finetune_domains_have_distinct_keys_and_ids() {
        let t = FinetuneSpec::quick(FinetuneDomain::Textured);
        let f = FinetuneSpec::quick(FinetuneDomain::Flat);
        assert_ne!(t.key(), f.key());
        assert_ne!(FinetuneDomain::Textured.model_id(), FinetuneDomain::Flat.model_id());
        for d in FinetuneDomain::ALL {
            assert_ne!(d.model_id(), 0, "id 0 is reserved for the generic model");
            assert_eq!(FinetuneDomain::parse(d.name()), Some(d));
        }
        assert_eq!(FinetuneDomain::parse("bogus"), None);
    }

    #[test]
    fn model_registry_routes_by_id_and_stays_sorted() {
        let m1 = pretrained(tiny_spec());
        let m2 = pretrained(PretrainSpec { steps: 3, ..tiny_spec() });
        let mut reg = ModelRegistry::new(m1.clone());
        reg.insert(5, m2.clone());
        reg.insert(2, m1.clone());
        assert_eq!(reg.ids().collect::<Vec<_>>(), vec![0, 2, 5]);
        assert!(Arc::ptr_eq(reg.get(5).expect("id 5"), &m2));
        assert!(reg.get(7).is_none());
        // Replacement keeps the registry sorted and deduplicated.
        reg.insert(5, m1.clone());
        assert_eq!(reg.len(), 3);
        assert!(Arc::ptr_eq(reg.get(5).expect("id 5"), &m1));
        assert!(!reg.is_empty());
        assert!(ModelRegistry::default().is_empty());
    }
}
