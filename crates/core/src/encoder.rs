//! The edge half of Easz: erase + squeeze + inner codec encode.
//!
//! [`EaszEncoder`] is deliberately model-free — the paper's central systems
//! claim (Fig. 2, Fig. 6a) is that the edge runs *no* neural network, so no
//! [`Reconstructor`](crate::Reconstructor) appears anywhere in this module's
//! signatures and a sensor build never touches the tensor crate's forward
//! pass.
//!
//! What Easz itself adds on the device, [`EaszEncoder::erase_and_squeeze`],
//! is one copy per kept pixel. Measured rather than asserted: in the traced
//! `edge_encode` run of `benchmark/` it is
//! `core.squeeze.erase_and_squeeze_ms` ÷ `core.encoder.compress_ms` ≈ 10 % of
//! a 768×512 encode (1.3 of 13.4 ms on the reference box), the rest being the
//! inner JPEG-like codec. The paper's Fig. 6a puts that slice at 0.7 % beside
//! neural encoders; beside a conventional codec it is a tenth.

use crate::config::EaszConfig;
use crate::container::EaszEncoded;
use crate::error::EaszError;
use crate::mask::EraseMask;
use crate::patchify::PatchGeometry;
use crate::squeeze::Orientation;
use easz_codecs::{wire, CodecId, ImageCodec, Quality};
use easz_image::ImageF32;

/// The edge-side session: configuration plus an inner codec of the caller's
/// choice per call. Constructible anywhere — no model, no registry.
#[derive(Debug, Clone)]
pub struct EaszEncoder {
    config: EaszConfig,
}

impl EaszEncoder {
    /// Creates an encoder, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EaszError::InvalidConfig`] for configurations violating
    /// [`EaszConfig::validate`].
    pub fn new(config: EaszConfig) -> Result<Self, EaszError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &EaszConfig {
        &self.config
    }

    /// Edge-side transform: erase + squeeze, producing the smaller image
    /// that the inner codec will compress, plus the mask.
    ///
    /// The image counts as padded to whole patches by replicating its right
    /// and bottom edges; every kept `b`-pixel run is copied straight from
    /// its source row to its place in the squeezed canvas.
    pub fn erase_and_squeeze(&self, img: &ImageF32) -> (ImageF32, EraseMask) {
        let PatchGeometry { n, b } = self.config.geometry();
        let (grid, mask) = (n / b, self.config.make_mask());
        let kept = grid - mask.erased_per_row();
        let horizontal = self.config.orientation == Orientation::Horizontal;
        // Grid cells per patch across and down the canvas: the squeeze
        // direction has lost the erased ones.
        let (across, down) = if horizontal { (kept, grid) } else { (grid, kept) };
        let (w, h, cc) = (img.width(), img.height(), img.channels().count());
        let mut canvas =
            ImageF32::new(across * b * w.div_ceil(n), down * b * h.div_ceil(n), img.channels());
        if canvas.pixels() == 0 {
            return (canvas, mask); // no last row or column to clamp to
        }
        // `kept_of[line * kept + slot]`: the cell of grid line `line` (a grid
        // row when squeezing horizontally, else a grid column) that lands in
        // `slot`.
        let kept_of: Vec<usize> = (0..grid).flat_map(|line| mask.kept_cols(line)).collect();
        let canvas_row = canvas.width() * cc;
        for (y, out_row) in canvas.data_mut().chunks_exact_mut(canvas_row).enumerate() {
            let (patch_y, cell_y, dy) = (y / (down * b), y / b % down, y % b);
            for (i, run) in out_row.chunks_exact_mut(b * cc).enumerate() {
                let (patch_x, cell_x) = (i / across, i % across);
                let (src_cell_x, src_cell_y) = if horizontal {
                    (kept_of[cell_y * kept + cell_x], cell_y)
                } else {
                    (cell_x, kept_of[cell_x * kept + cell_y])
                };
                let src_y = (patch_y * n + src_cell_y * b + dy).min(h - 1);
                let src_row = &img.data()[src_y * w * cc..][..w * cc];
                let x0 = patch_x * n + src_cell_x * b;
                if x0 + b <= w {
                    run.copy_from_slice(&src_row[x0 * cc..][..b * cc]);
                } else {
                    for (dx, px) in run.chunks_exact_mut(cc).enumerate() {
                        px.copy_from_slice(&src_row[(x0 + dx).min(w - 1) * cc..][..cc]);
                    }
                }
            }
        }
        (canvas, mask)
    }

    /// Full edge-side compression: erase + squeeze + inner codec encode,
    /// wrapped in a transmissible container
    /// ([`EaszEncoded::to_bytes`]).
    ///
    /// # Errors
    ///
    /// Propagates inner-codec errors; returns
    /// [`EaszError::AnonymousCodec`] if `codec` has no [`CodecId`], since
    /// its bitstream could never be resolved by the receiving registry.
    pub fn compress(
        &self,
        img: &ImageF32,
        codec: &dyn ImageCodec,
        quality: Quality,
    ) -> Result<EaszEncoded, EaszError> {
        if codec.id() == CodecId::UNKNOWN {
            return Err(EaszError::AnonymousCodec(codec.name().to_string()));
        }
        // Only the upper bound is shared with the parser: an empty image
        // is the inner codec's to refuse.
        if !wire::canvas_fits(img.width(), img.height()) {
            return Err(EaszError::Malformed(format!(
                "canvas {}x{} exceeds the container limits ({} per side, {} pixels total)",
                img.width(),
                img.height(),
                wire::MAX_SIDE,
                wire::MAX_PIXELS
            )));
        }
        let (squeezed, mask) = self.erase_and_squeeze(img);
        let payload = codec.encode(&squeezed, quality)?;
        Ok(EaszEncoded {
            payload,
            mask_bytes: mask.to_bytes(),
            width: img.width(),
            height: img.height(),
            config: self.config,
            quality,
            codec_id: codec.id(),
        })
    }

    /// Rate-targeted compression: binary-searches the inner quality knob
    /// for the encode whose *total* bits per pixel — container header and
    /// mask side channel included, charged against the original canvas, the
    /// accounting the paper uses — lands closest to `target_bpp`.
    ///
    /// This composes correctly where chaining
    /// [`encode_to_bpp`](easz_codecs::encode_to_bpp) on the squeezed canvas
    /// does not: that targets payload-only bits against the *squeezed*
    /// geometry, so the `+easz` rate lands systematically off target.
    ///
    /// Returns the chosen quality and its encode after at most `max_iters`
    /// probe encodes (clamped to at least one).
    ///
    /// # Errors
    ///
    /// Propagates errors from probe encodes.
    pub fn compress_to_bpp(
        &self,
        img: &ImageF32,
        codec: &dyn ImageCodec,
        target_bpp: f64,
        max_iters: usize,
    ) -> Result<(Quality, EaszEncoded), EaszError> {
        easz_codecs::bpp_quality_search(target_bpp, max_iters, |q| {
            let enc = self.compress(img, codec, q)?;
            Ok((enc.bpp(), enc))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patchify::Patchified;
    use crate::squeeze::squeeze_patch;
    use easz_codecs::JpegLikeCodec;
    use easz_data::Dataset;

    #[test]
    fn erase_and_squeeze_shrinks_by_ratio() {
        let enc = EaszEncoder::new(EaszConfig::default()).expect("encoder");
        let img = Dataset::KodakLike.image(0).crop(0, 0, 128, 64);
        let (squeezed, mask) = enc.erase_and_squeeze(&img);
        assert_eq!(mask.erased_per_row(), 2);
        // 25% of each patch row is erased: 128 * 0.75 = 96.
        assert_eq!((squeezed.width(), squeezed.height()), (96, 64));
    }

    #[test]
    fn vertical_squeeze_shrinks_height() {
        let cfg = EaszConfig { orientation: Orientation::Vertical, ..Default::default() };
        let enc = EaszEncoder::new(cfg).expect("encoder");
        let img = Dataset::KodakLike.image(0).crop(0, 0, 64, 128);
        let (squeezed, _) = enc.erase_and_squeeze(&img);
        assert_eq!((squeezed.width(), squeezed.height()), (64, 96));
    }

    /// Erase-and-squeeze as the public pieces compose it: pad and cut into
    /// patches, squeeze each, paste side by side.
    fn squeeze_by_patches(enc: &EaszEncoder, img: &ImageF32) -> ImageF32 {
        let (geometry, mask) = (enc.config.geometry(), enc.config.make_mask());
        let patched = Patchified::from_image(img, geometry);
        let squeezed: Vec<ImageF32> = patched
            .patches
            .iter()
            .map(|p| squeeze_patch(p, geometry, &mask, enc.config.orientation))
            .collect();
        let (sq_w, sq_h) = (squeezed[0].width(), squeezed[0].height());
        let mut canvas = ImageF32::new(sq_w * patched.cols, sq_h * patched.rows, img.channels());
        for (i, sq) in squeezed.iter().enumerate() {
            canvas.paste(sq, i % patched.cols * sq_w, i / patched.cols * sq_h);
        }
        canvas
    }

    #[test]
    fn direct_gather_equals_patchify_squeeze_and_paste() {
        let frame = Dataset::KodakLike.image(5);
        // A whole number of patches, ragged on both edges, and smaller than
        // one patch (everything but the corner is replicated edge).
        for (w, h) in [(96, 64), (100, 70), (20, 13)] {
            let rgb = frame.crop(7, 3, w, h);
            for img in [easz_image::color::luma(&rgb), rgb] {
                for orientation in [Orientation::Horizontal, Orientation::Vertical] {
                    for erase_ratio in [0.125, 0.375] {
                        let cfg = EaszConfig { orientation, erase_ratio, ..Default::default() };
                        let enc = EaszEncoder::new(cfg).expect("encoder");
                        let (canvas, _) = enc.erase_and_squeeze(&img);
                        assert_eq!(
                            canvas,
                            squeeze_by_patches(&enc, &img),
                            "{w}x{h} {:?} {orientation:?} r={erase_ratio}",
                            img.channels()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn images_without_pixels_are_a_typed_error_not_a_panic() {
        let codec = JpegLikeCodec::new();
        for orientation in [Orientation::Horizontal, Orientation::Vertical] {
            let enc = EaszEncoder::new(EaszConfig { orientation, ..Default::default() })
                .expect("encoder");
            for (w, h) in [(0, 0), (0, 5), (5, 0)] {
                let img = ImageF32::new(w, h, easz_image::Channels::Rgb);
                let (canvas, _) = enc.erase_and_squeeze(&img);
                assert_eq!(canvas.pixels(), 0, "{w}x{h}");
                assert!(
                    matches!(
                        enc.compress(&img, &codec, Quality::new(75)),
                        Err(EaszError::Codec(easz_codecs::CodecError::Unsupported(_)))
                    ),
                    "{w}x{h} {orientation:?}"
                );
            }
        }
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let cfg = EaszConfig { n: 30, ..Default::default() };
        assert!(matches!(EaszEncoder::new(cfg), Err(EaszError::InvalidConfig(_))));
    }

    #[test]
    fn erasing_more_saves_more_payload() {
        let img = Dataset::KodakLike.image(3).crop(0, 0, 128, 96);
        let codec = JpegLikeCodec::new();
        let bpp = |ratio: f64| {
            let cfg = EaszConfig { erase_ratio: ratio, ..Default::default() };
            let enc = EaszEncoder::new(cfg).expect("encoder");
            enc.compress(&img, &codec, Quality::new(75)).expect("compress").bpp()
        };
        assert!(bpp(0.375) < bpp(0.125), "more erasure must mean fewer bits");
    }

    #[test]
    fn anonymous_codec_cannot_be_containerized() {
        struct NoId;
        impl ImageCodec for NoId {
            fn name(&self) -> &str {
                "no-id"
            }
            fn encode(
                &self,
                _img: &ImageF32,
                _q: Quality,
            ) -> Result<Vec<u8>, easz_codecs::CodecError> {
                Ok(Vec::new())
            }
            fn decode(&self, _bytes: &[u8]) -> Result<ImageF32, easz_codecs::CodecError> {
                unreachable!("encode is rejected first")
            }
        }
        let enc = EaszEncoder::new(EaszConfig::default()).expect("encoder");
        let img = Dataset::KodakLike.image(1).crop(0, 0, 64, 64);
        assert!(matches!(
            enc.compress(&img, &NoId, Quality::new(50)),
            Err(EaszError::AnonymousCodec(_))
        ));
    }

    #[test]
    fn compress_to_bpp_hits_target_within_tolerance() {
        let enc = EaszEncoder::new(EaszConfig::default()).expect("encoder");
        let img = Dataset::KodakLike.image(2).crop(0, 0, 128, 96);
        let codec = JpegLikeCodec::new();
        // A mid-rate target inside JPEG's reachable range on this content.
        let lo = enc.compress(&img, &codec, Quality::new(1)).expect("q1").bpp();
        let hi = enc.compress(&img, &codec, Quality::new(100)).expect("q100").bpp();
        let target = (lo + hi) / 2.0;
        let (_, best) = enc.compress_to_bpp(&img, &codec, target, 8).expect("rate search");
        let err = (best.bpp() - target).abs() / target;
        assert!(err < 0.25, "relative target error {err:.3} too large (target {target:.3})");
    }

    #[test]
    fn compress_to_bpp_with_zero_iters_still_probes_once() {
        let enc = EaszEncoder::new(EaszConfig::default()).expect("encoder");
        let img = Dataset::KodakLike.image(4).crop(0, 0, 64, 64);
        let (_, best) =
            enc.compress_to_bpp(&img, &JpegLikeCodec::new(), 1.0, 0).expect("clamped to 1 probe");
        assert!(best.bpp() > 0.0);
    }
}
