//! # easz-codecs
//!
//! Image codecs and entropy-coding substrate for the Easz reproduction
//! (Mao et al., DAC 2025), implemented from scratch. These are the codecs
//! a decoder serves: [`CodecRegistry::with_defaults`] holds exactly the two
//! below.
//!
//! * [`JpegLikeCodec`] — baseline-JPEG-style transform codec (8×8 DCT,
//!   Annex-K quantisation, Huffman coding).
//! * [`BpgLikeCodec`] — HEVC-intra-style codec (intra prediction, 16×16
//!   residual DCT, adaptive range coding, deblocking).
//! * [`transform`] — the intra-prediction transform engine behind
//!   [`BpgLikeCodec`]. `easz-testbed` builds its simulated learned codecs
//!   (MBT, Cheng-Anchor, Ballé tiers) on it; they are not served (see
//!   "Reproduction scope" in the README).
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
mod registry;
pub mod transform;
pub mod wire;

pub use bpg::BpgLikeCodec;
pub use codec::{
    bpp_quality_search, encode_to_bpp, encode_with, CodecError, Encoded, ImageCodec, Quality,
};
pub use jpeg::JpegLikeCodec;
pub use registry::{CodecId, CodecRegistry};
pub use wire::MAX_PIXELS;
