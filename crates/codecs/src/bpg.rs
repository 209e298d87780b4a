//! A from-scratch BPG/HEVC-intra-style codec (thin wrapper over the shared
//! transform engine — see [`crate::transform`]).
//!
//! Structure (the stages that give BPG its edge over JPEG): per-block intra
//! prediction from reconstructed neighbours (DC / horizontal / vertical /
//! planar, chosen by SSE), 16×16 residual DCT for luma (8×8 for subsampled
//! chroma), uniform quantisation, adaptive binary range coding with
//! per-coefficient-class contexts, and an in-loop deblocking filter. Not
//! bit-compatible with BPG — see "Reproduction scope" in the README.

use crate::codec::{CodecError, ImageCodec, Quality};
use crate::registry::CodecId;
use crate::transform::{decode_engine, encode_engine, EngineConfig};
use easz_image::ImageF32;

/// The from-scratch BPG/HEVC-intra-style codec.
///
/// ```
/// use easz_codecs::{BpgLikeCodec, ImageCodec, Quality};
/// use easz_image::{Channels, ImageF32};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let img = ImageF32::new(32, 32, Channels::Rgb);
/// let codec = BpgLikeCodec::new();
/// let decoded = codec.decode(&codec.encode(&img, Quality::new(60))?)?;
/// assert_eq!(decoded.height(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BpgLikeCodec {
    cfg: EngineConfig,
}

impl Default for BpgLikeCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl BpgLikeCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        Self { cfg: EngineConfig::bpg() }
    }
}

impl ImageCodec for BpgLikeCodec {
    fn name(&self) -> &str {
        "bpg-like"
    }

    fn id(&self) -> CodecId {
        CodecId::BPG_LIKE
    }

    fn encode(&self, img: &ImageF32, quality: Quality) -> Result<Vec<u8>, CodecError> {
        encode_engine(img, quality, &self.cfg)
    }

    fn decode(&self, bytes: &[u8]) -> Result<ImageF32, CodecError> {
        decode_engine(bytes, &self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easz_image::{color, Channels};

    fn test_image(w: usize, h: usize) -> ImageF32 {
        let mut img = ImageF32::new(w, h, Channels::Rgb);
        for y in 0..h {
            for x in 0..w {
                let r = 0.5 + 0.4 * ((x as f32 * 0.13).sin() * (y as f32 * 0.07).cos());
                let g = 0.2 + 0.6 * (x as f32 / w as f32);
                let b = if x > w / 2 { 0.75 } else { 0.25 };
                img.set(x, y, 0, r.clamp(0.0, 1.0));
                img.set(x, y, 1, g);
                img.set(x, y, 2, b);
            }
        }
        img
    }

    fn mse(a: &ImageF32, b: &ImageF32) -> f32 {
        a.data().iter().zip(b.data()).map(|(x, y)| (x - y) * (x - y)).sum::<f32>()
            / a.data().len() as f32
    }

    #[test]
    fn round_trip_and_quality_monotonicity() {
        let img = test_image(64, 48);
        let codec = BpgLikeCodec::new();
        let lo = codec.encode(&img, Quality::new(20)).expect("encode lo");
        let hi = codec.encode(&img, Quality::new(90)).expect("encode hi");
        assert!(hi.len() > lo.len(), "bytes: lo {} hi {}", lo.len(), hi.len());
        let dlo = codec.decode(&lo).expect("decode lo");
        let dhi = codec.decode(&hi).expect("decode hi");
        assert!(mse(&img, &dhi) < mse(&img, &dlo));
        assert_eq!(dhi.width(), 64);
    }

    #[test]
    fn competitive_with_jpeg_like_at_matched_rate() {
        // The structural claim behind Fig 7b / Table II: the BPG-like codec
        // sits at or above the JPEG-like codec in rate-distortion.
        use crate::codec::encode_to_bpp;
        use crate::jpeg::JpegLikeCodec;
        let img = test_image(128, 96);
        let bpg = BpgLikeCodec::new();
        let jpeg = JpegLikeCodec::new();
        let (_, ebpg) = encode_to_bpp(&bpg, &img, 0.6, img.width(), img.height(), 8).expect("bpg");
        let (_, ejpeg) =
            encode_to_bpp(&jpeg, &img, 0.6, img.width(), img.height(), 8).expect("jpeg");
        let dbpg = bpg.decode(&ebpg.bytes).expect("bpg dec");
        let djpeg = jpeg.decode(&ejpeg.bytes).expect("jpeg dec");
        let (mb, mj) = (mse(&img, &dbpg), mse(&img, &djpeg));
        assert!(
            mb < mj * 1.1,
            "bpg-like should not be clearly worse than jpeg-like at 0.6bpp: {mb} vs {mj}"
        );
    }

    #[test]
    fn grayscale_and_odd_sizes() {
        let img = color::luma(&test_image(37, 23));
        let codec = BpgLikeCodec::new();
        let dec = codec.decode(&codec.encode(&img, Quality::new(70)).expect("enc")).expect("dec");
        assert_eq!((dec.width(), dec.height()), (37, 23));
        assert!(mse(&img, &dec) < 0.02);
    }

    #[test]
    fn intra_prediction_helps_gradients() {
        // A pure gradient is almost perfectly predicted by planar mode, so
        // the bitstream should be very small at decent quality.
        let mut img = ImageF32::new(64, 64, Channels::Gray);
        for y in 0..64 {
            for x in 0..64 {
                img.set(x, y, 0, (x + y) as f32 / 128.0);
            }
        }
        let codec = BpgLikeCodec::new();
        let bytes = codec.encode(&img, Quality::new(70)).expect("enc");
        let bpp = bytes.len() as f64 * 8.0 / (64.0 * 64.0);
        assert!(bpp < 0.5, "gradient image should be cheap, got {bpp} bpp");
    }

    #[test]
    fn garbage_rejected() {
        let codec = BpgLikeCodec::new();
        assert!(codec.decode(b"EBPGxxxx").is_err());
        assert!(codec.decode(b"??").is_err());
    }
}
