//! # easz
//!
//! A from-scratch Rust reproduction of **"Easz: An Agile Transformer-based
//! Image Compression Framework for Resource-constrained IoTs"**
//! (Mao et al., DAC 2025) — the full system, its baselines and a simulated
//! edge-server testbed.
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `easz-core` | erase-and-squeeze, two-stage patchify, transformer reconstructor, training, pipeline |
//! | [`server`] | `easz-server` | batched `.easz` decode server over TCP, framing protocol, blocking client |
//! | [`codecs`] | `easz-codecs` | JPEG-like, BPG-like, simulated neural codecs, SR baselines, entropy coders |
//! | [`metrics`] | `easz-metrics` | PSNR/SSIM/MS-SSIM, BRISQUE/NIQE/PI/TReS, LPIPS-sim |
//! | [`testbed`] | `easz-testbed` | Jetson TX2 / server / Wi-Fi analytic models |
//! | [`data`] | `easz-data` | synthetic CIFAR-like / Kodak-like / CLIC-like datasets |
//! | [`image`] | `easz-image` | image containers, colour conversion, resampling, PPM I/O |
//! | [`tensor`] | `easz-tensor` | autodiff + transformer-layer substrate |
//!
//! ## Quickstart
//!
//! The pipeline is split along the paper's edge/server asymmetry: the edge
//! runs a model-free [`core::EaszEncoder`] and ships a self-describing
//! `.easz` container; the server's [`core::EaszDecoder`] resolves the
//! inner codec from the bitstream header and reconstructs with the
//! transformer.
//!
//! ```no_run
//! use easz::core::{zoo, EaszConfig, EaszDecoder, EaszEncoder};
//! use easz::codecs::{JpegLikeCodec, Quality};
//! use easz::data::Dataset;
//! use easz::metrics::psnr;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Edge side: erase-and-squeeze + JPEG. No neural network in sight.
//! let encoder = EaszEncoder::new(EaszConfig::builder().erase_ratio(0.25).build()?)?;
//! let image = Dataset::KodakLike.image(0);
//! let encoded = encoder.compress(&image, &JpegLikeCodec::new(), Quality::new(75))?;
//! let wire = encoded.to_bytes(); // what the sensor actually transmits
//!
//! // Server side: a reconstructor pretrained on synthetic tiles (cached),
//! // inner codec resolved from the wire bytes themselves.
//! let model = zoo::pretrained(zoo::PretrainSpec::quick());
//! let decoder = EaszDecoder::new(&model);
//! let restored = decoder.decode_bytes(&wire)?;
//! println!("{:.3} bpp, {:.2} dB", encoded.bpp(), psnr(&image, &restored));
//! # Ok(())
//! # }
//! ```
//!
//! See "Reproduction scope" in the README for what is substituted or
//! simulated, and `EXPERIMENTS.md` (built by the `assemble_experiments` bin)
//! for paper-vs-measured numbers of every table/figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use easz_codecs as codecs;
pub use easz_core as core;
pub use easz_data as data;
pub use easz_image as image;
pub use easz_metrics as metrics;
pub use easz_server as server;
pub use easz_tensor as tensor;
pub use easz_testbed as testbed;
