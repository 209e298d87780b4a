//! Named synthetic datasets standing in for CIFAR-10, Kodak and CLIC.
//!
//! The paper pretrains on CIFAR-10 (32×32 tiles) and evaluates on Kodak
//! (768×512) and CLIC (larger, more detailed photographs). The stand-ins
//! reproduce the *sizes* and the broad content statistics; see "Reproduction
//! scope" in the README for the substitution rationale.

use crate::scene::{generate_scene, SceneConfig};
use easz_image::ImageF32;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which synthetic corpus to draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// 32×32 training tiles (CIFAR-10 stand-in).
    CifarLike,
    /// 768×512 photographic test images (Kodak stand-in).
    KodakLike,
    /// 1152×768 higher-detail test images (CLIC stand-in).
    ClicLike,
    /// 32×32 heavily textured tiles (foliage/fabric-dominated content) —
    /// the "textured" fine-tuning domain of the model zoo.
    TexturedLike,
    /// 32×32 flat, near-noiseless tiles (documents, walls, synthetic UI) —
    /// the "flat" fine-tuning domain of the model zoo.
    FlatLike,
}

impl Dataset {
    /// Image dimensions `(width, height)` for this dataset.
    pub fn dimensions(self) -> (usize, usize) {
        match self {
            Dataset::CifarLike | Dataset::TexturedLike | Dataset::FlatLike => (32, 32),
            Dataset::KodakLike => (768, 512),
            Dataset::ClicLike => (1152, 768),
        }
    }

    /// The per-image scene configuration.
    fn scene_config(self) -> SceneConfig {
        let (width, height) = self.dimensions();
        match self {
            Dataset::CifarLike => SceneConfig {
                width,
                height,
                objects: 3,
                texture: 0.3,
                micro_detail: 0.22,
                sensor_noise: 0.015,
            },
            Dataset::KodakLike => SceneConfig {
                width,
                height,
                objects: 10,
                texture: 0.3,
                micro_detail: 0.22,
                sensor_noise: 0.008,
            },
            Dataset::ClicLike => SceneConfig {
                width,
                height,
                objects: 16,
                texture: 0.4,
                micro_detail: 0.24,
                sensor_noise: 0.006,
            },
            // The two fine-tuning domains deliberately sit at opposite ends
            // of the texture/detail axis so the zoo's per-domain models have
            // genuinely different statistics to specialise to.
            Dataset::TexturedLike => SceneConfig {
                width,
                height,
                objects: 2,
                texture: 0.85,
                micro_detail: 0.38,
                sensor_noise: 0.015,
            },
            Dataset::FlatLike => SceneConfig {
                width,
                height,
                objects: 4,
                texture: 0.02,
                micro_detail: 0.02,
                sensor_noise: 0.004,
            },
        }
    }

    /// Generates image `index` of this dataset (deterministic).
    pub fn image(self, index: usize) -> ImageF32 {
        let tag = match self {
            Dataset::CifarLike => 0x1000_0000u64,
            Dataset::KodakLike => 0x2000_0000u64,
            Dataset::ClicLike => 0x3000_0000u64,
            Dataset::TexturedLike => 0x4000_0000u64,
            Dataset::FlatLike => 0x5000_0000u64,
        };
        generate_scene(&self.scene_config(), tag + index as u64)
    }

    /// Generates the first `count` images.
    pub fn images(self, count: usize) -> Vec<ImageF32> {
        (0..count).map(|i| self.image(i)).collect()
    }
}

/// Samples `count` random square patches of side `size` from a slice of
/// images (the training-batch source).
///
/// # Panics
///
/// Panics if `images` is empty or any image is smaller than `size`.
pub fn sample_patches(images: &[ImageF32], size: usize, count: usize, seed: u64) -> Vec<ImageF32> {
    assert!(!images.is_empty(), "need at least one source image");
    let mut r = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let img = &images[r.gen_range(0..images.len())];
        assert!(
            img.width() >= size && img.height() >= size,
            "image {}x{} smaller than patch {size}",
            img.width(),
            img.height()
        );
        let x0 = r.gen_range(0..=img.width() - size);
        let y0 = r.gen_range(0..=img.height() - size);
        out.push(img.crop(x0, y0, size, size));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_dimensions_match_paper_sources() {
        assert_eq!(Dataset::CifarLike.dimensions(), (32, 32));
        assert_eq!(Dataset::KodakLike.dimensions(), (768, 512));
        let (w, h) = Dataset::ClicLike.dimensions();
        assert!(w > 768 && h > 512, "CLIC-like should be larger than Kodak-like");
    }

    #[test]
    fn images_are_deterministic_and_distinct() {
        let a = Dataset::KodakLike.image(0);
        let b = Dataset::KodakLike.image(0);
        let c = Dataset::KodakLike.image(1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.width(), 768);
        assert_eq!(a.height(), 512);
    }

    #[test]
    fn datasets_are_decorrelated() {
        let a = Dataset::CifarLike.image(0);
        let b = Dataset::CifarLike.image(1);
        assert_ne!(a, b);
    }

    #[test]
    fn finetuning_domains_sit_at_opposite_texture_extremes() {
        // Mean absolute horizontal gradient as a cheap texture proxy: the
        // textured domain must be markedly busier than the flat one, or the
        // zoo's per-domain specialisation has nothing to learn.
        let energy = |d: Dataset| {
            let mut acc = 0.0f64;
            let mut count = 0usize;
            for img in d.images(6) {
                for y in 0..img.height() {
                    for x in 0..img.width() - 1 {
                        acc += (img.get(x + 1, y, 0) - img.get(x, y, 0)).abs() as f64;
                        count += 1;
                    }
                }
            }
            acc / count as f64
        };
        let textured = energy(Dataset::TexturedLike);
        let flat = energy(Dataset::FlatLike);
        assert!(
            textured > flat * 3.0,
            "domains must be statistically distinct: textured {textured:.4} flat {flat:.4}"
        );
        assert_eq!(Dataset::TexturedLike.dimensions(), (32, 32));
        assert_eq!(Dataset::FlatLike.dimensions(), (32, 32));
    }

    #[test]
    fn sample_patches_shape_and_determinism() {
        let imgs = Dataset::CifarLike.images(4);
        let p1 = sample_patches(&imgs, 16, 8, 42);
        let p2 = sample_patches(&imgs, 16, 8, 42);
        assert_eq!(p1.len(), 8);
        assert_eq!(p1, p2);
        assert!(p1.iter().all(|p| p.width() == 16 && p.height() == 16));
    }

    #[test]
    #[should_panic(expected = "smaller than patch")]
    fn sample_patches_rejects_oversize() {
        let imgs = Dataset::CifarLike.images(1);
        let _ = sample_patches(&imgs, 64, 1, 0);
    }
}
