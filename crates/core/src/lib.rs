//! # easz-core
//!
//! The Easz framework (Mao et al., DAC 2025): agile, edge-compute-free
//! image compression via **erase-and-squeeze** on the sender and a
//! **lightweight transformer reconstructor** on the receiver.
//!
//! The pieces, mirroring the paper's §III:
//!
//! * [`EraseMask`] / [`MaskKind`] — erase masks over the sub-patch grid,
//!   including the proposed row-based conditional sampler with intra-row
//!   (`δ`) and inter-row (`Δ`) distance constraints, plus the diagonal,
//!   uniform-2× and unconstrained-random degenerate/baseline cases.
//! * [`PatchGeometry`] / [`Patchified`] — the two-stage patchify that
//!   bounds attention cost (the 256×256/n=32/b=4 example reproduces the
//!   paper's complexity reduction).
//! * [`squeeze_patch`] / [`unsqueeze_patch`] — rectangular squeeze thanks
//!   to the equal-erasure-per-row invariant.
//! * [`Reconstructor`] — the ~8.7 MB transformer encoder-decoder (two
//!   blocks each) that in-paints erased sub-patches at any erase ratio with
//!   a single weight set. Its forward is written once over an executor:
//!   training records it on the autodiff tape, inference runs it on the
//!   tape-free arena engine ([`Reconstructor::infer_tokens`] over a cached
//!   [`DecodePlan`]).
//! * [`Trainer`] — AdamW pretraining/fine-tuning with the paper's Eq. 2
//!   loss (`L1 + 0.3 · perceptual`).
//! * [`EaszEncoder`] (edge, model-free) and [`EaszDecoder`] (server) — the
//!   split pipeline, talking through the versioned [`EaszEncoded`] `.easz`
//!   container whose header names the inner codec by
//!   [`CodecId`](easz_codecs::CodecId).
//! * [`zoo`] — the versioned model zoo: a deterministic pretrained-weights
//!   cache shared by tests, examples and benches, plus fine-tuned domain
//!   variants ([`zoo::FinetuneDomain`]) served under container model ids
//!   and a [`zoo::ModelRegistry`] for routing.
//!
//! The edge and the server share nothing but bytes: the encoder is
//! constructible without a [`Reconstructor`] in scope, and the decoder
//! resolves the inner codec from the bitstream via a
//! [`CodecRegistry`](easz_codecs::CodecRegistry).
//!
//! ```no_run
//! use easz_core::{zoo, EaszConfig, EaszDecoder, EaszEncoder};
//! use easz_codecs::{JpegLikeCodec, Quality};
//! use easz_data::Dataset;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Edge (no model anywhere): erase-and-squeeze + JPEG, then serialize.
//! let encoder = EaszEncoder::new(EaszConfig::builder().erase_ratio(0.25).build()?)?;
//! let image = Dataset::KodakLike.image(0);
//! let encoded = encoder.compress(&image, &JpegLikeCodec::new(), Quality::new(75))?;
//! println!("{:.3} bpp (container + mask side-channel included)", encoded.bpp());
//! let wire: Vec<u8> = encoded.to_bytes();
//!
//! // Server: parse the container, resolve the codec from its header,
//! // reconstruct with the transformer.
//! let model = zoo::pretrained(zoo::PretrainSpec::quick());
//! let decoder = EaszDecoder::new(&model);
//! let restored = decoder.decode_bytes(&wire)?;
//! assert_eq!(restored.width(), image.width());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod container;
mod decoder;
mod encoder;
mod error;
mod mask;
mod model;
mod patchify;
mod plan;
mod squeeze;
mod stagetrace;
mod train;
pub mod zoo;

pub use config::{EaszConfig, EaszConfigBuilder, MaskStrategy};
pub use container::{EaszEncoded, FORMAT_VERSION, FORMAT_VERSION_MAX, HEADER_LEN, MAGIC};
pub use decoder::{DecodeEngine, EaszDecoder, FusedGroup};
pub use encoder::EaszEncoder;
pub use error::EaszError;
pub use mask::{EraseMask, MaskKind, RowSamplerConfig};
pub use model::{Reconstructor, ReconstructorConfig, TokenBatch};
pub use patchify::{
    attention_cost_reduction, extract_token, patch_tokens, place_token, PatchGeometry, Patchified,
};
pub use plan::{DecodePlan, MultiMaskPlan};
pub use squeeze::{pixel_saving_ratio, squeeze_patch, unsqueeze_patch, FillMethod, Orientation};
pub use stagetrace::{DecodeStage, StageSink, DECODE_STAGES};
pub use train::{erased_region_mse, TrainConfig, Trainer};
