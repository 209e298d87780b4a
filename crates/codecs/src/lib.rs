//! # easz-codecs
//!
//! Image codecs and entropy-coding substrate for the Easz reproduction
//! (Mao et al., DAC 2025). All baselines the paper measures against are
//! implemented here, from scratch:
//!
//! * [`JpegLikeCodec`] — baseline-JPEG-style transform codec (8×8 DCT,
//!   Annex-K quantisation, Huffman coding).
//! * [`BpgLikeCodec`] — HEVC-intra-style codec (intra prediction, 16×16
//!   residual DCT, adaptive range coding, deblocking).
//! * [`NeuralSimCodec`] — simulated learned codecs (MBT, Cheng-Anchor,
//!   Ballé tiers) with real bitstreams one quality tier above BPG plus the
//!   published architectures' cost profiles (see "Reproduction scope" in the
//!   README).
//! * [`sr`] — super-resolution baselines for the paper's Table I.
//! * [`entropy`] — bit I/O, canonical Huffman, adaptive binary range coder.
//! * [`wire`] — the one place untrusted bytes are bounds-checked: the byte
//!   [`Cursor`](wire::Cursor) every parser in the workspace reads through
//!   (container, mask side channel, inner-codec headers, protocol payloads)
//!   and the canvas bound ([`MAX_PIXELS`], [`wire::MAX_SIDE`]).
//!
//! Everything speaks the [`ImageCodec`] trait, and [`encode_to_bpp`]
//! provides the BPP-targeted encoding the paper's tables use.
//!
//! ```
//! use easz_codecs::{encode_with, ImageCodec, JpegLikeCodec, Quality};
//! use easz_image::{Channels, ImageF32};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let img = ImageF32::new(64, 64, Channels::Rgb);
//! let codec = JpegLikeCodec::new();
//! let encoded = encode_with(&codec, &img, Quality::new(75))?;
//! println!("{} bpp", encoded.bpp());
//! let _restored = codec.decode(&encoded.bytes)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bpg;
mod codec;
pub mod dct;
pub mod entropy;
mod jpeg;
mod neural;
mod registry;
pub mod sr;
pub mod transform;
pub mod wire;

pub use bpg::BpgLikeCodec;
pub use codec::{
    bpp_quality_search, encode_to_bpp, encode_with, CodecError, Encoded, ImageCodec, Quality,
};
pub use jpeg::JpegLikeCodec;
pub use neural::{CostProfile, NeuralSimCodec, NeuralTier};
pub use registry::{CodecId, CodecRegistry};
pub use wire::MAX_PIXELS;
