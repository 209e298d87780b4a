//! LPIPS-sim: a fixed-filter-bank perceptual distance standing in for
//! LPIPS (Zhang et al. 2018) — see "Reproduction scope" in the README.
//!
//! Features: oriented gradients (2 orientations) plus a centre-surround
//! (Laplacian) response, each at 3 dyadic scales, unit-normalised per
//! position like LPIPS normalises channel vectors. The distance is the
//! mean squared difference of the normalised feature vectors, averaged
//! over scales.
//!
//! The differentiable loss used during training lives in `easz-core`
//! (a DCT-weighted error with the same role in Eq. 2); this module is the
//! evaluation-side metric.

use easz_image::resample::downsample2;
use easz_image::{color, ImageF32};

/// Number of feature channels per position.
const CHANNELS: usize = 3;
/// Number of dyadic scales.
const SCALES: usize = 3;

/// Per-pixel feature map: `[gx, gy, laplacian]`, each position normalised.
fn feature_map(y: &ImageF32) -> Vec<[f32; CHANNELS]> {
    let (w, h) = (y.width(), y.height());
    let mut out = Vec::with_capacity(w * h);
    for yy in 0..h {
        for xx in 0..w {
            let c = y.get(xx, yy, 0);
            let gx = y.get_clamped(xx as isize + 1, yy as isize, 0) - c;
            let gy = y.get_clamped(xx as isize, yy as isize + 1, 0) - c;
            let lap = y.get_clamped(xx as isize + 1, yy as isize, 0)
                + y.get_clamped(xx as isize - 1, yy as isize, 0)
                + y.get_clamped(xx as isize, yy as isize + 1, 0)
                + y.get_clamped(xx as isize, yy as isize - 1, 0)
                - 4.0 * c;
            let mut f = [gx, gy, lap];
            // LPIPS-style unit normalisation in channel space.
            let norm = (f.iter().map(|v| v * v).sum::<f32>()).sqrt() + 1e-4;
            for v in &mut f {
                *v /= norm;
            }
            out.push(f);
        }
    }
    out
}

/// Perceptual distance between two same-shaped images (0 = identical).
///
/// Values are small (natural pairs land in ~0.0-0.6); like LPIPS, the
/// metric saturates less than MSE on structural differences.
///
/// # Panics
///
/// Panics if the images differ in size.
pub fn lpips_sim(a: &ImageF32, b: &ImageF32) -> f64 {
    assert_eq!((a.width(), a.height()), (b.width(), b.height()), "lpips_sim needs identical sizes");
    let mut ya = color::luma(a);
    let mut yb = color::luma(b);
    let mut acc = 0.0f64;
    let mut used_scales = 0usize;
    for scale in 0..SCALES {
        let fa = feature_map(&ya);
        let fb = feature_map(&yb);
        let mut scale_acc = 0.0f64;
        for (va, vb) in fa.iter().zip(fb.iter()) {
            for c in 0..CHANNELS {
                let d = (va[c] - vb[c]) as f64;
                scale_acc += d * d;
            }
        }
        acc += scale_acc / (fa.len().max(1) * CHANNELS) as f64;
        used_scales += 1;
        if scale + 1 < SCALES {
            if ya.width() < 8 || ya.height() < 8 {
                break;
            }
            ya = downsample2(&ya);
            yb = downsample2(&yb);
        }
    }
    acc / used_scales as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use easz_data::Dataset;

    #[test]
    fn identical_images_have_zero_distance() {
        let img = Dataset::CifarLike.image(0);
        assert_eq!(lpips_sim(&img, &img), 0.0);
    }

    #[test]
    fn distance_grows_with_structural_damage() {
        let img = Dataset::KodakLike.image(2).crop(100, 100, 128, 128);
        let mut slightly = img.clone();
        for v in slightly.data_mut() {
            *v = (*v * 0.98 + 0.01).clamp(0.0, 1.0);
        }
        let mut scrambled = img.clone();
        let n = scrambled.data().len();
        for i in 0..n / 2 {
            let j = n - 1 - i;
            let (a, b) = (scrambled.data()[i], scrambled.data()[j]);
            scrambled.data_mut()[i] = b;
            scrambled.data_mut()[j] = a;
        }
        let d_small = lpips_sim(&img, &slightly);
        let d_big = lpips_sim(&img, &scrambled);
        assert!(d_small < d_big, "{d_small} vs {d_big}");
        assert!(d_small < 0.05, "near-identical pair scored {d_small}");
    }

    #[test]
    fn symmetric() {
        let a = Dataset::CifarLike.image(1);
        let b = Dataset::CifarLike.image(2);
        let d1 = lpips_sim(&a, &b);
        let d2 = lpips_sim(&b, &a);
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn more_sensitive_to_structure_than_to_brightness() {
        // LPIPS's selling point: a flat brightness shift matters less than
        // edge damage of the same MSE.
        let img = Dataset::KodakLike.image(5).crop(64, 64, 128, 128);
        let mut shifted = img.clone();
        for v in shifted.data_mut() {
            *v = (*v + 0.08).min(1.0);
        }
        let mut edge_damaged = img.clone();
        // Blur a band of rows (destroys edges in that band).
        for y in 40..88 {
            for x in 1..127 {
                for c in 0..3 {
                    let m = (img.get(x - 1, y, c) + img.get(x, y, c) + img.get(x + 1, y, c)) / 3.0;
                    edge_damaged.set(x, y, c, m);
                }
            }
        }
        let d_shift = lpips_sim(&img, &shifted);
        let d_edge = lpips_sim(&img, &edge_damaged);
        assert!(d_edge > d_shift, "edge {d_edge} should exceed shift {d_shift}");
    }
}
