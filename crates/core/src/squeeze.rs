//! Squeeze and un-squeeze (paper §III-A, Fig. 2).
//!
//! Squeezing removes the erased `b × b` sub-patches of a patch and packs
//! the kept ones together. Because every grid row erases exactly `T`
//! sub-patches (the [`EraseMask`](crate::EraseMask) invariant), the
//! horizontal squeeze of an `n × n` patch is a rectangular
//! `n × (n − T·b)` image — directly encodable by any conventional codec.
//! Un-squeezing restores the original geometry with placeholder content in
//! the erased slots (zero or neighbour fill, Fig. 2(b)).

use crate::mask::EraseMask;
use crate::patchify::{extract_token, place_token, PatchGeometry};
use easz_image::ImageF32;

/// Squeeze direction. Both variants are viable per the paper; horizontal is
/// the default used in the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// Pack kept sub-patches leftwards; width shrinks.
    Horizontal,
    /// Pack kept sub-patches upwards; height shrinks.
    Vertical,
}

/// Placeholder content for erased slots during un-squeeze.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FillMethod {
    /// Zero (black) fill — what the reconstruction model trains against.
    Zero,
    /// Copy the nearest kept sub-patch in the row — a cheap baseline that
    /// needs no model at all.
    Neighbor,
}

/// Squeezes one patch under `mask`.
///
/// # Panics
///
/// Panics if the patch is not `n × n` or the mask grid does not match the
/// geometry.
pub fn squeeze_patch(
    patch: &ImageF32,
    geometry: PatchGeometry,
    mask: &EraseMask,
    orientation: Orientation,
) -> ImageF32 {
    validate(patch, geometry, mask);
    let b = geometry.b;
    let grid = geometry.grid();
    let t = mask.erased_per_row();
    let kept = grid - t;
    let (w, h) = match orientation {
        Orientation::Horizontal => (kept * b, geometry.n),
        Orientation::Vertical => (geometry.n, kept * b),
    };
    let mut out = ImageF32::new(w, h, patch.channels());
    for line in 0..grid {
        // For horizontal squeeze, `line` walks grid rows and kept columns
        // pack leftwards; vertical is the transpose.
        let cols = mask.kept_cols(line);
        for (slot, &src) in cols.iter().enumerate() {
            let token = match orientation {
                Orientation::Horizontal => extract_token(patch, geometry, line, src),
                Orientation::Vertical => extract_token(patch, geometry, src, line),
            };
            place_token_rect(&mut out, geometry, orientation, line, slot, &token);
        }
    }
    out
}

/// Un-squeezes back to `n × n`, filling erased slots per `fill`.
///
/// # Panics
///
/// Panics if the squeezed patch has the wrong dimensions for `mask`.
pub fn unsqueeze_patch(
    squeezed: &ImageF32,
    geometry: PatchGeometry,
    mask: &EraseMask,
    orientation: Orientation,
    fill: FillMethod,
) -> ImageF32 {
    let b = geometry.b;
    let grid = geometry.grid();
    let t = mask.erased_per_row();
    let kept = grid - t;
    let expect = match orientation {
        Orientation::Horizontal => (kept * b, geometry.n),
        Orientation::Vertical => (geometry.n, kept * b),
    };
    assert_eq!(
        (squeezed.width(), squeezed.height()),
        expect,
        "squeezed patch size mismatch for mask (t = {t})"
    );
    let mut out = ImageF32::new(geometry.n, geometry.n, squeezed.channels());
    for line in 0..grid {
        let cols = mask.kept_cols(line);
        // Restore kept sub-patches.
        for (slot, &dst) in cols.iter().enumerate() {
            let token = extract_token_rect(squeezed, geometry, orientation, line, slot);
            match orientation {
                Orientation::Horizontal => place_token(&mut out, geometry, line, dst, &token),
                Orientation::Vertical => place_token(&mut out, geometry, dst, line, &token),
            }
        }
        // Fill erased slots.
        for dst in mask.erased_cols(line) {
            let token = match fill {
                FillMethod::Zero => vec![0.0; geometry.token_dim(squeezed.channels())],
                FillMethod::Neighbor => {
                    let nearest =
                        cols.iter().min_by_key(|&&c| c.abs_diff(dst)).copied().unwrap_or(0);
                    let slot = cols.iter().position(|&c| c == nearest).unwrap_or(0);
                    extract_token_rect(squeezed, geometry, orientation, line, slot)
                }
            };
            match orientation {
                Orientation::Horizontal => place_token(&mut out, geometry, line, dst, &token),
                Orientation::Vertical => place_token(&mut out, geometry, dst, line, &token),
            }
        }
    }
    out
}

/// Token I/O on the (non-square) squeezed patch.
fn place_token_rect(
    img: &mut ImageF32,
    geometry: PatchGeometry,
    orientation: Orientation,
    line: usize,
    slot: usize,
    token: &[f32],
) {
    let b = geometry.b;
    let cc = img.channels().count();
    let (x0, y0) = match orientation {
        Orientation::Horizontal => (slot * b, line * b),
        Orientation::Vertical => (line * b, slot * b),
    };
    let mut i = 0;
    for dy in 0..b {
        for dx in 0..b {
            for c in 0..cc {
                img.set(x0 + dx, y0 + dy, c, token[i]);
                i += 1;
            }
        }
    }
}

fn extract_token_rect(
    img: &ImageF32,
    geometry: PatchGeometry,
    orientation: Orientation,
    line: usize,
    slot: usize,
) -> Vec<f32> {
    let b = geometry.b;
    let cc = img.channels().count();
    let (x0, y0) = match orientation {
        Orientation::Horizontal => (slot * b, line * b),
        Orientation::Vertical => (line * b, slot * b),
    };
    let mut out = Vec::with_capacity(b * b * cc);
    for dy in 0..b {
        for dx in 0..b {
            for c in 0..cc {
                out.push(img.get(x0 + dx, y0 + dy, c));
            }
        }
    }
    out
}

fn validate(patch: &ImageF32, geometry: PatchGeometry, mask: &EraseMask) {
    assert_eq!((patch.width(), patch.height()), (geometry.n, geometry.n), "patch must be n x n");
    assert_eq!(mask.n_grid(), geometry.grid(), "mask grid must match geometry");
}

/// File-size saving fraction from erasing: `T·b / n` of the pixels vanish
/// before the inner codec even runs.
pub fn pixel_saving_ratio(geometry: PatchGeometry, mask: &EraseMask) -> f64 {
    (mask.erased_per_row() * geometry.b) as f64 / geometry.n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::{MaskKind, RowSamplerConfig};
    use easz_image::Channels;

    fn sample_patch(n: usize) -> ImageF32 {
        let mut img = ImageF32::new(n, n, Channels::Rgb);
        for (i, v) in img.data_mut().iter_mut().enumerate() {
            *v = ((i * 13 + 5) % 97) as f32 / 96.0;
        }
        img
    }

    fn mask8() -> EraseMask {
        MaskKind::RowConditional(RowSamplerConfig::with_ratio(8, 0.25)).generate(9)
    }

    #[test]
    fn squeeze_shapes() {
        let g = PatchGeometry::new(32, 4);
        let patch = sample_patch(32);
        let m = mask8();
        let h = squeeze_patch(&patch, g, &m, Orientation::Horizontal);
        assert_eq!((h.width(), h.height()), (24, 32));
        let v = squeeze_patch(&patch, g, &m, Orientation::Vertical);
        assert_eq!((v.width(), v.height()), (32, 24));
    }

    #[test]
    fn unsqueeze_restores_kept_pixels_exactly() {
        let g = PatchGeometry::new(32, 4);
        let patch = sample_patch(32);
        let m = mask8();
        for orientation in [Orientation::Horizontal, Orientation::Vertical] {
            let squeezed = squeeze_patch(&patch, g, &m, orientation);
            let restored = unsqueeze_patch(&squeezed, g, &m, orientation, FillMethod::Zero);
            for (row, col, erased) in m.iter() {
                let (prow, pcol) = match orientation {
                    Orientation::Horizontal => (row, col),
                    Orientation::Vertical => (col, row),
                };
                let expect = extract_token(&patch, g, prow, pcol);
                let got = extract_token(&restored, g, prow, pcol);
                if erased {
                    assert!(got.iter().all(|&v| v == 0.0), "erased slot must be zero");
                } else {
                    assert_eq!(got, expect, "kept slot ({row},{col}) changed");
                }
            }
        }
    }

    #[test]
    fn neighbor_fill_copies_nearest_kept() {
        let g = PatchGeometry::new(16, 4);
        let patch = sample_patch(16);
        let m = MaskKind::Diagonal { n_grid: 4 }.generate(0);
        let squeezed = squeeze_patch(&patch, g, &m, Orientation::Horizontal);
        let restored =
            unsqueeze_patch(&squeezed, g, &m, Orientation::Horizontal, FillMethod::Neighbor);
        // Row 0 erases col 0; its nearest kept is col 1.
        let got = extract_token(&restored, g, 0, 0);
        let neighbour = extract_token(&patch, g, 0, 1);
        assert_eq!(got, neighbour);
    }

    #[test]
    fn saving_ratio_matches_mask() {
        let g = PatchGeometry::new(32, 4);
        assert!((pixel_saving_ratio(g, &mask8()) - 0.25).abs() < 1e-9);
        let m = MaskKind::Uniform2x { n_grid: 8 }.generate(0);
        assert!((pixel_saving_ratio(g, &m) - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "squeezed patch size mismatch")]
    fn unsqueeze_rejects_wrong_size() {
        let g = PatchGeometry::new(32, 4);
        let wrong = ImageF32::new(32, 32, Channels::Rgb);
        let _ = unsqueeze_patch(&wrong, g, &mask8(), Orientation::Horizontal, FillMethod::Zero);
    }

    #[test]
    fn squeeze_then_unsqueeze_is_lossless_outside_mask_for_gray() {
        let g = PatchGeometry::new(16, 2);
        let mut patch = ImageF32::new(16, 16, Channels::Gray);
        for (i, v) in patch.data_mut().iter_mut().enumerate() {
            *v = (i % 11) as f32 / 10.0;
        }
        let m = MaskKind::RowConditional(RowSamplerConfig::with_ratio(8, 0.25)).generate(3);
        let sq = squeeze_patch(&patch, g, &m, Orientation::Horizontal);
        let back = unsqueeze_patch(&sq, g, &m, Orientation::Horizontal, FillMethod::Zero);
        let mut kept_pixels = 0;
        for (row, col, erased) in m.iter() {
            if !erased {
                assert_eq!(extract_token(&back, g, row, col), extract_token(&patch, g, row, col));
                kept_pixels += 1;
            }
        }
        assert_eq!(kept_pixels, 8 * 6);
    }
}
