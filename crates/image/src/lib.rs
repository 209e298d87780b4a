//! # easz-image
//!
//! Image containers and pixel-level primitives for the Easz reproduction
//! (Mao et al., DAC 2025): float/8-bit images, BT.601 colour conversion,
//! classical resampling filters, NetPBM I/O and block-grid utilities.
//!
//! Everything downstream — the erase-and-squeeze transform, the DCT codecs,
//! the quality metrics and the synthetic datasets — is built on
//! [`ImageF32`], an interleaved `f32` image with values nominally in `[0,1]`.
//!
//! ```
//! use easz_image::{Channels, ImageF32, resample};
//!
//! let img = ImageF32::new(64, 48, Channels::Rgb);
//! let half = resample::downsample2(&img);
//! let back = resample::resize(&half, 64, 48, resample::Filter::Bicubic);
//! assert_eq!(back.width(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod color;
mod image;
pub mod io;
pub mod resample;

pub use image::{Channels, ImageF32, ImageU8};
