//! # easz-data
//!
//! Seeded synthetic image datasets for the Easz reproduction (Mao et al.,
//! DAC 2025). Stand-ins for the paper's corpora:
//!
//! * [`Dataset::CifarLike`] — 32×32 pretraining tiles (CIFAR-10 role),
//! * [`Dataset::KodakLike`] — 768×512 test photographs (Kodak role),
//! * [`Dataset::ClicLike`] — 1152×768 high-detail test images (CLIC role).
//!
//! Scenes are painted procedurally (gradient backgrounds, anti-aliased
//! geometry, fractal texture, sensor noise) so that they carry the
//! natural-image statistics — smooth regions, strong edges, mid-frequency
//! texture — that the paper's comparisons depend on, while remaining exactly
//! reproducible from a seed. See "Reproduction scope" in the README for the
//! substitution notes.
//!
//! ```
//! use easz_data::Dataset;
//! let img = Dataset::KodakLike.image(3);
//! assert_eq!((img.width(), img.height()), (768, 512));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod datasets;
pub mod noise;
pub mod scene;

pub use datasets::{sample_patches, Dataset};
