//! # easz-metrics
//!
//! Image-quality metrics for the Easz reproduction (Mao et al., DAC 2025):
//!
//! * Full-reference: [`mse`], [`psnr`], [`ssim`], [`ms_ssim`] (Table I).
//! * No-reference: [`brisque`], [`niqe`], [`pi`], [`tres`] (Table II,
//!   Figs. 7-8) built on real MSCN + AGGD natural-scene statistics with a
//!   multivariate-Gaussian pristine model ([`NaturalnessModel`]).
//! * Perceptual distance: [`lpips_sim`] (the evaluation-side stand-in for
//!   LPIPS; the differentiable training loss lives in `easz-core`).
//! * Rate: [`bits_per_pixel`].
//!
//! Substitutions relative to the published metrics are listed under
//! "Reproduction scope" in the README; polarity and value ranges follow the originals.
//!
//! ```
//! use easz_data::Dataset;
//! use easz_metrics::{psnr, ssim};
//! let a = Dataset::CifarLike.image(0);
//! let b = Dataset::CifarLike.image(0);
//! assert!(psnr(&a, &b).is_infinite()); // identical
//! assert!((ssim(&a, &b) - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fr;
mod lpips;
pub mod mscn;
mod naturalness;
mod nr;

pub use fr::{ms_ssim, mse, psnr, ssim};
pub use lpips::lpips_sim;
pub use naturalness::{brisque_features, NaturalnessModel, FEATURE_DIM};
pub use nr::{
    bits_per_pixel, brisque, brisque_with, ma_sim, niqe, niqe_with, pi, pi_with, tres, tres_with,
};
