//! Image resampling: box down-sampling and bilinear/bicubic/Lanczos
//! up-sampling. These are the substrate for the super-resolution baselines
//! of Table I and for JPEG-style 4:2:0 chroma subsampling.

use crate::image::ImageF32;

/// Interpolation kernel for [`resize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Filter {
    /// Nearest-neighbour (blocky, used only in tests/diagnostics).
    Nearest,
    /// Bilinear interpolation.
    Bilinear,
    /// Catmull-Rom bicubic interpolation.
    Bicubic,
    /// Lanczos with a = 3 (highest quality of the classical filters).
    Lanczos3,
}

impl Filter {
    /// Support radius (in source samples at unit scale) and weight function.
    fn kernel(self) -> (f32, fn(f32) -> f32) {
        match self {
            Filter::Nearest => (0.5, |_| 1.0),
            Filter::Bilinear => (1.0, |x| (1.0 - x.abs()).max(0.0)),
            Filter::Bicubic => (2.0, cubic),
            Filter::Lanczos3 => (3.0, lanczos3),
        }
    }
}

fn cubic(x: f32) -> f32 {
    // Catmull-Rom (B = 0, C = 0.5).
    let x = x.abs();
    if x < 1.0 {
        1.5 * x * x * x - 2.5 * x * x + 1.0
    } else if x < 2.0 {
        -0.5 * x * x * x + 2.5 * x * x - 4.0 * x + 2.0
    } else {
        0.0
    }
}

fn sinc(x: f32) -> f32 {
    if x.abs() < 1e-7 {
        1.0
    } else {
        let px = std::f32::consts::PI * x;
        px.sin() / px
    }
}

fn lanczos3(x: f32) -> f32 {
    if x.abs() >= 3.0 {
        0.0
    } else {
        sinc(x) * sinc(x / 3.0)
    }
}

/// The source samples one output coordinate of an axis reads: edge-clamped
/// indices with their kernel weights, zero weights already dropped, in
/// ascending source order.
struct AxisTaps {
    /// `taps[starts[o]..starts[o + 1]]` belong to output coordinate `o`.
    starts: Vec<usize>,
    taps: Vec<(usize, f32)>,
}

impl AxisTaps {
    fn new(src_len: usize, dst_len: usize, filter: Filter) -> Self {
        let scale = src_len as f32 / dst_len as f32;
        let last = src_len as isize - 1;
        let mut starts = Vec::with_capacity(dst_len + 1);
        let mut taps = Vec::new();
        let (radius, kernel) = filter.kernel();
        // When down-sampling, widen the kernel to act as a proper low-pass.
        let widen = scale.max(1.0);
        for o in 0..dst_len {
            starts.push(taps.len());
            let centre = (o as f32 + 0.5) * scale - 0.5;
            if filter == Filter::Nearest {
                taps.push(((centre.round() as isize).clamp(0, last) as usize, 1.0));
                continue;
            }
            let lo = (centre - radius * widen).floor() as isize;
            let hi = (centre + radius * widen).ceil() as isize;
            for i in lo..=hi {
                let weight = kernel((i as f32 - centre) / widen);
                if weight != 0.0 {
                    taps.push((i.clamp(0, last) as usize, weight));
                }
            }
        }
        starts.push(taps.len());
        Self { starts, taps }
    }

    fn of(&self, o: usize) -> &[(usize, f32)] {
        &self.taps[self.starts[o]..self.starts[o + 1]]
    }
}

/// Resizes an image to `(new_w, new_h)` with the given filter.
///
/// Every output sample is the weight-normalised sum over its kernel
/// footprint, rows outermost, weights multiplied as `wx * wy` — the JPEG-like
/// bitstream's chroma planes depend on exactly this order.
///
/// # Panics
///
/// Panics if a target dimension is zero.
pub fn resize(img: &ImageF32, new_w: usize, new_h: usize, filter: Filter) -> ImageF32 {
    assert!(new_w > 0 && new_h > 0, "resize target must be nonzero");
    let cc = img.channels().count();
    let mut out = ImageF32::new(new_w, new_h, img.channels());
    let cols = AxisTaps::new(img.width(), new_w, filter);
    let rows = AxisTaps::new(img.height(), new_h, filter);
    let src = img.data();
    let stride = img.width() * cc;
    for (oy, out_row) in out.data_mut().chunks_exact_mut(new_w * cc).enumerate() {
        let row_taps = rows.of(oy);
        for (ox, out_px) in out_row.chunks_exact_mut(cc).enumerate() {
            let col_taps = cols.of(ox);
            if filter == Filter::Nearest {
                let at = row_taps[0].0 * stride + col_taps[0].0 * cc;
                out_px.copy_from_slice(&src[at..at + cc]);
                continue;
            }
            for (c, out_sample) in out_px.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                let mut wsum = 0.0f32;
                for &(y, wy) in row_taps {
                    let src_row = &src[y * stride..(y + 1) * stride];
                    for &(x, wx) in col_taps {
                        let w = wx * wy;
                        acc += w * src_row[x * cc + c];
                        wsum += w;
                    }
                }
                *out_sample = if wsum != 0.0 { acc / wsum } else { 0.0 };
            }
        }
    }
    out
}

/// 2× box down-sampling (exact averaging of 2×2 blocks).
///
/// Odd trailing rows/columns are averaged with edge replication.
pub fn downsample2(img: &ImageF32) -> ImageF32 {
    let (w, h) = (img.width().div_ceil(2), img.height().div_ceil(2));
    let cc = img.channels().count();
    let mut out = ImageF32::new(w, h, img.channels());
    for y in 0..h {
        for x in 0..w {
            for c in 0..cc {
                let mut acc = 0.0;
                for dy in 0..2 {
                    for dx in 0..2 {
                        acc += img.get_clamped((2 * x + dx) as isize, (2 * y + dy) as isize, c);
                    }
                }
                out.set(x, y, c, acc / 4.0);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Channels;

    fn ramp(w: usize, h: usize) -> ImageF32 {
        let mut img = ImageF32::new(w, h, Channels::Gray);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, 0, x as f32 / (w - 1) as f32);
            }
        }
        img
    }

    /// `resize` as it was before the per-axis tap tables: the kernel
    /// evaluated per tap through `get_clamped`. Kept as the reference for
    /// bit equality.
    fn resize_reference(img: &ImageF32, new_w: usize, new_h: usize, filter: Filter) -> ImageF32 {
        let cc = img.channels().count();
        let mut out = ImageF32::new(new_w, new_h, img.channels());
        let sx = img.width() as f32 / new_w as f32;
        let sy = img.height() as f32 / new_h as f32;
        let (radius, kernel) = filter.kernel();
        let kx = sx.max(1.0);
        let ky = sy.max(1.0);
        for oy in 0..new_h {
            let src_y = (oy as f32 + 0.5) * sy - 0.5;
            for ox in 0..new_w {
                let src_x = (ox as f32 + 0.5) * sx - 0.5;
                for c in 0..cc {
                    if filter == Filter::Nearest {
                        let v = img.get_clamped(src_x.round() as isize, src_y.round() as isize, c);
                        out.set(ox, oy, c, v);
                        continue;
                    }
                    let mut acc = 0.0f32;
                    let mut wsum = 0.0f32;
                    let y0 = (src_y - radius * ky).floor() as isize;
                    let y1 = (src_y + radius * ky).ceil() as isize;
                    let x0 = (src_x - radius * kx).floor() as isize;
                    let x1 = (src_x + radius * kx).ceil() as isize;
                    for yy in y0..=y1 {
                        let wy = kernel((yy as f32 - src_y) / ky);
                        if wy == 0.0 {
                            continue;
                        }
                        for xx in x0..=x1 {
                            let wx = kernel((xx as f32 - src_x) / kx);
                            if wx == 0.0 {
                                continue;
                            }
                            let w = wx * wy;
                            acc += w * img.get_clamped(xx, yy, c);
                            wsum += w;
                        }
                    }
                    out.set(ox, oy, c, if wsum != 0.0 { acc / wsum } else { 0.0 });
                }
            }
        }
        out
    }

    #[test]
    fn resample_is_bit_identical_to_the_reference() {
        let noisy = |w: usize, h: usize, channels: Channels| {
            let mut img = ImageF32::new(w, h, channels);
            for (i, v) in img.data_mut().iter_mut().enumerate() {
                *v = ((i as u32).wrapping_mul(2_654_435_761) >> 8) as f32 / (1u32 << 24) as f32;
            }
            img
        };
        // (source, target): 2:1 down, 1:2 up, odd to odd, 1×1 both ways, a
        // non-integer ratio in each direction.
        let shapes = [
            ((24, 16), (12, 8)),
            ((12, 8), (24, 16)),
            ((17, 9), (9, 5)),
            ((1, 1), (1, 1)),
            ((1, 1), (5, 3)),
            ((13, 7), (1, 1)),
            ((20, 15), (13, 11)),
            ((10, 7), (23, 12)),
        ];
        for filter in [Filter::Nearest, Filter::Bilinear, Filter::Bicubic, Filter::Lanczos3] {
            for ((w, h), (new_w, new_h)) in shapes {
                for channels in [Channels::Gray, Channels::Rgb] {
                    let img = noisy(w, h, channels);
                    let got = resize(&img, new_w, new_h, filter);
                    let want = resize_reference(&img, new_w, new_h, filter);
                    let bits =
                        |i: &ImageF32| i.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{filter:?} {w}x{h} -> {new_w}x{new_h} {channels:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn identity_resize_is_near_exact() {
        let img = ramp(16, 8);
        for f in [Filter::Bilinear, Filter::Bicubic, Filter::Lanczos3] {
            let r = resize(&img, 16, 8, f);
            let err =
                img.data().iter().zip(r.data()).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
            assert!(err < 1e-4, "{f:?} identity error {err}");
        }
    }

    #[test]
    fn constant_image_stays_constant() {
        let mut img = ImageF32::new(9, 7, Channels::Rgb);
        for v in img.data_mut() {
            *v = 0.42;
        }
        for f in [Filter::Bilinear, Filter::Bicubic, Filter::Lanczos3] {
            let up = resize(&img, 20, 13, f);
            for &v in up.data() {
                assert!((v - 0.42).abs() < 1e-4, "{f:?} broke constancy: {v}");
            }
        }
    }

    #[test]
    fn down_then_up_preserves_low_frequency() {
        let img = ramp(32, 32);
        let down = downsample2(&img);
        assert_eq!(down.width(), 16);
        let up = resize(&down, 32, 32, Filter::Bicubic);
        let mse: f32 =
            img.data().iter().zip(up.data()).map(|(a, b)| (a - b) * (a - b)).sum::<f32>()
                / img.data().len() as f32;
        assert!(mse < 1e-3, "linear ramp should survive 2x round trip, mse {mse}");
    }

    #[test]
    fn lanczos_beats_bilinear_on_ramp_roundtrip() {
        // A smooth signal upsampled back should favour wider kernels.
        let img = ramp(64, 4);
        let down = downsample2(&img);
        let err = |f: Filter| {
            let up = resize(&down, 64, 4, f);
            img.data().iter().zip(up.data()).map(|(a, b)| (a - b) * (a - b)).sum::<f32>()
        };
        assert!(err(Filter::Lanczos3) <= err(Filter::Bilinear) + 1e-3);
    }
}
