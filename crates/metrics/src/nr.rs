//! No-reference perceptual scores: BRISQUE-style, NIQE-style, PI and
//! TReS-sim — the four metrics of the paper's Tables II and Fig. 8.
//!
//! Substitutions relative to the published metrics are documented under
//! "Reproduction scope" in the README; the scores preserve the published ranges and polarity
//! (BRISQUE/PI/NIQE: lower is better; TReS: higher is better) and react to
//! the same distortions (blockiness, ringing, blur, noise).

use crate::naturalness::NaturalnessModel;
use easz_image::resample::downsample2;
use easz_image::{color, ImageF32};

/// BRISQUE-style score, roughly 0 (pristine) to 100 (heavily distorted).
///
/// Mahalanobis distance of the image's 36 BRISQUE features from pristine
/// statistics, scaled so pristine synthetic images land near 10-25 and
/// strong artefacts push beyond 40 (matching the value ranges the paper
/// reports on Kodak/CLIC).
pub fn brisque(img: &ImageF32) -> f64 {
    brisque_with(NaturalnessModel::shared(), img)
}

/// [`brisque`] against a caller-supplied pristine model.
pub fn brisque_with(model: &NaturalnessModel, img: &ImageF32) -> f64 {
    let d = model.distance(img);
    // Log map calibrated on the synthetic corpus: pristine images sit at
    // Mahalanobis distance ~8-14 (sqrt(36) plus corpus mismatch), visible
    // blockiness at ~100-2000. Mapped to the paper's BRISQUE ranges
    // (clean ~15, JPEG-at-0.4bpp ~45, severe ~90+).
    (18.0 * (1.0 + d / 8.0).ln()).clamp(0.0, 120.0)
}

/// NIQE-style score (lower = better, pristine ≈ 2-4).
pub fn niqe(img: &ImageF32) -> f64 {
    niqe_with(NaturalnessModel::shared(), img)
}

/// [`niqe`] against a caller-supplied pristine model.
pub fn niqe_with(model: &NaturalnessModel, img: &ImageF32) -> f64 {
    // Same log compression as BRISQUE, scaled to NIQE's 2-12 range.
    2.0 * (1.0 + model.distance(img) / 8.0).ln()
}

/// Sharpness proxy for the Ma-score term of PI (0 = blurry, 10 = crisp).
///
/// Ratio of fine-scale to coarse-scale gradient energy: genuine detail has
/// energy at the finest scale; blur and heavy compression remove it.
pub fn ma_sim(img: &ImageF32) -> f64 {
    let y = color::luma(img);
    let fine = gradient_energy(&y);
    let coarse = gradient_energy(&downsample2(&y));
    if fine + coarse < 1e-12 {
        return 0.0;
    }
    let ratio = fine / (fine + coarse);
    // Synthetic sharp scenes land at ratio ~0.28-0.40; blur pushes below
    // 0.15. Map [0.12, 0.57] -> [0, 10].
    ((ratio - 0.12) / 0.045).clamp(0.0, 10.0)
}

fn gradient_energy(y: &ImageF32) -> f64 {
    let (w, h) = (y.width(), y.height());
    let mut acc = 0.0f64;
    for yy in 0..h.saturating_sub(1) {
        for xx in 0..w.saturating_sub(1) {
            let gx = (y.get(xx + 1, yy, 0) - y.get(xx, yy, 0)) as f64;
            let gy = (y.get(xx, yy + 1, 0) - y.get(xx, yy, 0)) as f64;
            acc += gx * gx + gy * gy;
        }
    }
    acc / ((w.max(2) - 1) * (h.max(2) - 1)) as f64
}

/// Perceptual Index: `PI = ((10 − Ma) + NIQE) / 2`, lower is better.
pub fn pi(img: &ImageF32) -> f64 {
    pi_with(NaturalnessModel::shared(), img)
}

/// [`pi`] against a caller-supplied pristine model.
pub fn pi_with(model: &NaturalnessModel, img: &ImageF32) -> f64 {
    0.5 * ((10.0 - ma_sim(img)) + niqe_with(model, img))
}

/// TReS-style positive quality score (higher = better, natural ≈ 75-90).
///
/// Combines naturalness (inverted distance) with the sharpness proxy, the
/// two signals the transformer IQA models weight most.
pub fn tres(img: &ImageF32) -> f64 {
    tres_with(NaturalnessModel::shared(), img)
}

/// [`tres`] against a caller-supplied pristine model.
pub fn tres_with(model: &NaturalnessModel, img: &ImageF32) -> f64 {
    let naturalness = (100.0 - brisque_with(model, img)).max(0.0);
    let sharp = ma_sim(img) * 10.0;
    (0.7 * naturalness + 0.3 * sharp).clamp(0.0, 100.0)
}

/// Bits-per-pixel of a payload against a pixel canvas.
pub fn bits_per_pixel(payload_bytes: usize, width: usize, height: usize) -> f64 {
    payload_bytes as f64 * 8.0 / (width * height).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use easz_data::Dataset;

    fn probe() -> ImageF32 {
        Dataset::KodakLike.image(11).crop(128, 96, 256, 192)
    }

    fn blur(img: &ImageF32, passes: usize) -> ImageF32 {
        let mut out = img.clone();
        let cc = img.channels().count();
        for _ in 0..passes {
            let src = out.clone();
            for y in 0..img.height() {
                for x in 0..img.width() {
                    for c in 0..cc {
                        let mut acc = 0.0;
                        for dy in -1isize..=1 {
                            for dx in -1isize..=1 {
                                acc += src.get_clamped(x as isize + dx, y as isize + dy, c);
                            }
                        }
                        out.set(x, y, c, acc / 9.0);
                    }
                }
            }
        }
        out
    }

    fn blockify(img: &ImageF32, block: usize) -> ImageF32 {
        let mut out = img.clone();
        let cc = img.channels().count();
        for by in (0..img.height()).step_by(block) {
            for bx in (0..img.width()).step_by(block) {
                for c in 0..cc {
                    let mut acc = 0.0;
                    let mut cnt = 0usize;
                    for y in by..(by + block).min(img.height()) {
                        for x in bx..(bx + block).min(img.width()) {
                            acc += img.get(x, y, c);
                            cnt += 1;
                        }
                    }
                    let m = acc / cnt as f32;
                    for y in by..(by + block).min(img.height()) {
                        for x in bx..(bx + block).min(img.width()) {
                            out.set(x, y, c, m);
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn brisque_rises_with_blockiness() {
        let img = probe();
        let clean = brisque(&img);
        let blocky = brisque(&blockify(&img, 8));
        assert!(blocky > clean + 5.0, "clean {clean} blocky {blocky}");
    }

    #[test]
    fn pi_rises_with_blur() {
        let img = probe();
        let clean = pi(&img);
        let blurred = pi(&blur(&img, 3));
        assert!(blurred > clean, "clean {clean} blurred {blurred}");
    }

    #[test]
    fn tres_falls_with_distortion() {
        let img = probe();
        let clean = tres(&img);
        let bad = tres(&blockify(&blur(&img, 2), 8));
        assert!(clean > bad, "clean {clean} distorted {bad}");
        assert!(clean > 40.0, "natural image should score decently, got {clean}");
    }

    #[test]
    fn ma_sim_detects_blur() {
        let img = probe();
        let sharp = ma_sim(&img);
        let blurred = ma_sim(&blur(&img, 3));
        assert!(sharp > blurred, "sharp {sharp} vs blurred {blurred}");
    }

    #[test]
    fn bpp_accounting() {
        assert!((bits_per_pixel(1000, 100, 80) - 1.0).abs() < 1e-12);
        assert_eq!(bits_per_pixel(10, 0, 0), 80.0); // degenerate canvas guard
    }
}
