//! Natural-scene-statistics model: 36-dim BRISQUE feature extraction and a
//! multivariate-Gaussian "distance from natural" scorer (the NIQE scoring
//! rule applied to BRISQUE features — see "Reproduction scope" in the README
//! for why the learned SVR of real BRISQUE is replaced by this).

use crate::mscn::{fit_aggd, fit_ggd, mscn_map, paired_products};
use easz_image::resample::downsample2;
use easz_image::ImageF32;
use std::sync::OnceLock;

/// Number of features (18 per scale × 2 scales, as in BRISQUE).
pub const FEATURE_DIM: usize = 36;

/// Extracts the 36 BRISQUE features of an image.
///
/// Per scale: GGD (alpha, sigma²) of the MSCN map plus AGGD
/// (alpha, eta, sigma_l², sigma_r²) of the four neighbour products.
pub fn brisque_features(img: &ImageF32) -> [f64; FEATURE_DIM] {
    let mut out = [0f64; FEATURE_DIM];
    let mut current = img.clone();
    for scale in 0..2 {
        let base = scale * 18;
        let m = mscn_map(&current);
        let g = fit_ggd(m.data());
        out[base] = g.alpha;
        out[base + 1] = g.sigma_sq;
        for (pi, products) in paired_products(&m).iter().enumerate() {
            let a = fit_aggd(products);
            let o = base + 2 + pi * 4;
            out[o] = a.alpha;
            out[o + 1] = a.eta;
            out[o + 2] = a.sigma_l_sq;
            out[o + 3] = a.sigma_r_sq;
        }
        if scale == 0 {
            current = downsample2(&current);
        }
    }
    out
}

/// A fitted model of pristine-image feature statistics.
#[derive(Debug, Clone)]
pub struct NaturalnessModel {
    mean: [f64; FEATURE_DIM],
    /// Inverse of the (regularised) feature covariance.
    inv_cov: Vec<f64>,
}

impl NaturalnessModel {
    /// Fits the model to a corpus of pristine images.
    ///
    /// # Panics
    ///
    /// Panics if `corpus` is empty.
    pub fn fit(corpus: &[ImageF32]) -> Self {
        assert!(!corpus.is_empty(), "naturalness model needs a pristine corpus");
        let feats: Vec<[f64; FEATURE_DIM]> = corpus.iter().map(brisque_features).collect();
        let n = feats.len() as f64;
        let mut mean = [0f64; FEATURE_DIM];
        for f in &feats {
            for (m, &v) in mean.iter_mut().zip(f.iter()) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let d = FEATURE_DIM;
        let mut cov = vec![0f64; d * d];
        for f in &feats {
            for i in 0..d {
                for j in 0..d {
                    cov[i * d + j] += (f[i] - mean[i]) * (f[j] - mean[j]);
                }
            }
        }
        for v in &mut cov {
            *v /= n.max(2.0) - 1.0;
        }
        // Diagonal loading: the corpus is small relative to 36 dims.
        let trace: f64 = (0..d).map(|i| cov[i * d + i]).sum();
        let ridge = (trace / d as f64) * 0.1 + 1e-6;
        for i in 0..d {
            cov[i * d + i] += ridge;
        }
        let inv_cov = invert(&cov, d).expect("regularised covariance is invertible");
        Self { mean, inv_cov }
    }

    /// Mahalanobis distance of an image's features from the pristine model.
    pub fn distance(&self, img: &ImageF32) -> f64 {
        let f = brisque_features(img);
        let d = FEATURE_DIM;
        let mut diff = [0f64; FEATURE_DIM];
        for i in 0..d {
            diff[i] = f[i] - self.mean[i];
        }
        let mut acc = 0.0;
        for i in 0..d {
            let mut row = 0.0;
            for (j, &dj) in diff.iter().enumerate() {
                row += self.inv_cov[i * d + j] * dj;
            }
            acc += diff[i] * row;
        }
        acc.max(0.0).sqrt()
    }

    /// The shared default model, fit lazily on pristine synthetic images
    /// (Kodak-like scenes 0..8). Deterministic across processes.
    pub fn shared() -> &'static NaturalnessModel {
        static MODEL: OnceLock<NaturalnessModel> = OnceLock::new();
        MODEL.get_or_init(|| {
            let corpus: Vec<ImageF32> = (0..8)
                .map(|i| {
                    // Fit on half-resolution crops: full Kodak-like frames
                    // would be slow and the statistics are scale-local.
                    let img = easz_data::Dataset::KodakLike.image(i);
                    img.crop(128, 128, 384, 256)
                })
                .collect();
            NaturalnessModel::fit(&corpus)
        })
    }
}

/// Gauss-Jordan inversion of a dense `d × d` matrix.
fn invert(a: &[f64], d: usize) -> Option<Vec<f64>> {
    let mut m = a.to_vec();
    let mut inv = vec![0f64; d * d];
    for i in 0..d {
        inv[i * d + i] = 1.0;
    }
    for col in 0..d {
        // Partial pivoting.
        let mut pivot = col;
        for r in col + 1..d {
            if m[r * d + col].abs() > m[pivot * d + col].abs() {
                pivot = r;
            }
        }
        if m[pivot * d + col].abs() < 1e-12 {
            return None;
        }
        if pivot != col {
            for j in 0..d {
                m.swap(col * d + j, pivot * d + j);
                inv.swap(col * d + j, pivot * d + j);
            }
        }
        let p = m[col * d + col];
        for j in 0..d {
            m[col * d + j] /= p;
            inv[col * d + j] /= p;
        }
        for r in 0..d {
            if r == col {
                continue;
            }
            let f = m[r * d + col];
            if f == 0.0 {
                continue;
            }
            for j in 0..d {
                m[r * d + j] -= f * m[col * d + j];
                inv[r * d + j] -= f * inv[col * d + j];
            }
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use easz_data::Dataset;

    #[test]
    fn invert_small_matrix() {
        // [[4,7],[2,6]] -> inverse [[0.6,-0.7],[-0.2,0.4]]
        let a = vec![4.0, 7.0, 2.0, 6.0];
        let inv = invert(&a, 2).expect("invertible");
        let expect = [0.6, -0.7, -0.2, 0.4];
        for (x, y) in inv.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn invert_rejects_singular() {
        let a = vec![1.0, 2.0, 2.0, 4.0];
        assert!(invert(&a, 2).is_none());
    }

    #[test]
    fn features_have_expected_layout() {
        let img = Dataset::CifarLike.image(3);
        let f = brisque_features(&img);
        // Alphas live in a sane range, variances are non-negative.
        assert!(f[0] > 0.2 && f[0] < 10.0, "scale-0 mscn alpha {}", f[0]);
        assert!(f[1] >= 0.0);
        assert!(f[18] > 0.2 && f[18] < 10.0, "scale-1 mscn alpha {}", f[18]);
    }

    #[test]
    fn distorted_images_are_farther_than_pristine() {
        let corpus: Vec<ImageF32> =
            (0..6).map(|i| Dataset::KodakLike.image(i).crop(64, 64, 256, 192)).collect();
        let model = NaturalnessModel::fit(&corpus);
        let probe = Dataset::KodakLike.image(9).crop(64, 64, 256, 192);
        let d_clean = model.distance(&probe);
        // Blockiness: quantise 8x8 blocks to their mean (JPEG-at-q1 style).
        let mut blocky = probe.clone();
        let cc = blocky.channels().count();
        for by in (0..blocky.height()).step_by(8) {
            for bx in (0..blocky.width()).step_by(8) {
                for c in 0..cc {
                    let mut acc = 0.0;
                    let mut cnt = 0;
                    for y in by..(by + 8).min(blocky.height()) {
                        for x in bx..(bx + 8).min(blocky.width()) {
                            acc += blocky.get(x, y, c);
                            cnt += 1;
                        }
                    }
                    let m = acc / cnt as f32;
                    for y in by..(by + 8).min(blocky.height()) {
                        for x in bx..(bx + 8).min(blocky.width()) {
                            blocky.set(x, y, c, m);
                        }
                    }
                }
            }
        }
        let d_blocky = model.distance(&blocky);
        assert!(
            d_blocky > d_clean * 1.5,
            "blocky {d_blocky} should be much farther than clean {d_clean}"
        );
    }
}
