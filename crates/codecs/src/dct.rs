//! Orthonormal 2-D DCT-II / DCT-III over square blocks (separable form).
//!
//! Both block codecs are transform coders: JPEG-like uses 8×8 blocks,
//! BPG-like 16×16 luma residual blocks. The transform is implemented as
//! `C · X · Cᵀ` with a precomputed orthonormal cosine basis, giving exact
//! forward/inverse symmetry up to float rounding.

use std::sync::OnceLock;

/// Precomputed orthonormal DCT basis for one block size.
#[derive(Debug, Clone)]
pub struct DctBasis {
    n: usize,
    /// Row-major `n × n` basis matrix `C` (`C[k][i] = s_k cos(...)`).
    c: Vec<f32>,
    /// `Cᵀ`, so that either direction is two plain row-major products.
    ct: Vec<f32>,
}

impl DctBasis {
    /// Builds the basis for `n × n` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "dct size must be nonzero");
        let mut c = vec![0.0f32; n * n];
        let mut ct = vec![0.0f32; n * n];
        let norm0 = (1.0 / n as f64).sqrt();
        let norm = (2.0 / n as f64).sqrt();
        for k in 0..n {
            for i in 0..n {
                let s = if k == 0 { norm0 } else { norm };
                c[k * n + i] = (s
                    * ((std::f64::consts::PI * (2.0 * i as f64 + 1.0) * k as f64)
                        / (2.0 * n as f64))
                        .cos()) as f32;
                ct[i * n + k] = c[k * n + i];
            }
        }
        Self { n, c, ct }
    }

    /// Block side length.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Forward 2-D DCT of a row-major `n*n` block.
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != n*n`.
    pub fn forward(&self, block: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n * self.n];
        self.forward_into(block, &mut out);
        out
    }

    /// Inverse 2-D DCT of a row-major `n*n` coefficient block.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != n*n`.
    pub fn inverse(&self, coeffs: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n * self.n];
        self.inverse_into(coeffs, &mut out);
        out
    }

    /// [`Self::forward`] into a caller-owned buffer: `C · X · Cᵀ`.
    ///
    /// # Panics
    ///
    /// Panics unless `block` and `out` both hold `n*n` values.
    pub fn forward_into(&self, block: &[f32], out: &mut [f32]) {
        self.apply(&self.c, &self.ct, block, out);
    }

    /// [`Self::inverse`] into a caller-owned buffer: `Cᵀ · X · C`.
    ///
    /// # Panics
    ///
    /// Panics unless `coeffs` and `out` both hold `n*n` values.
    pub fn inverse_into(&self, coeffs: &[f32], out: &mut [f32]) {
        self.apply(&self.ct, &self.c, coeffs, out);
    }

    /// `out = (first · x) · second`. The two codec block sizes get the row
    /// scratch on the stack and a compile-time trip count.
    fn apply(&self, first: &[f32], second: &[f32], x: &[f32], out: &mut [f32]) {
        match self.n {
            8 => product_of_three(8, first, second, x, out, &mut [0.0; 8]),
            16 => product_of_three(16, first, second, x, out, &mut [0.0; 16]),
            n => product_of_three(n, first, second, x, out, &mut vec![0.0; n]),
        }
    }
}

/// `out = (first · x) · second` over row-major `n × n` matrices, one output
/// row at a time through `row`.
///
/// Every element is accumulated from `0.0` in ascending index order, one
/// multiply and one add per term — the order the codecs' bitstreams were
/// defined with, so a payload encoded by any build decodes to the same
/// samples. Iterating the *output* column innermost keeps that per-element
/// order while giving the compiler independent lanes to vectorise.
#[inline(always)]
fn product_of_three(
    n: usize,
    first: &[f32],
    second: &[f32],
    x: &[f32],
    out: &mut [f32],
    row: &mut [f32],
) {
    assert_eq!(x.len(), n * n, "block size mismatch");
    assert_eq!(out.len(), n * n, "output size mismatch");
    assert!(first.len() == n * n && second.len() == n * n && row.len() == n);
    for (first_row, out_row) in first.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
        row.fill(0.0);
        for (&a, x_row) in first_row.iter().zip(x.chunks_exact(n)) {
            for (acc, &v) in row.iter_mut().zip(x_row) {
                *acc += a * v;
            }
        }
        out_row.fill(0.0);
        for (&t, second_row) in row.iter().zip(second.chunks_exact(n)) {
            for (acc, &b) in out_row.iter_mut().zip(second_row) {
                *acc += t * b;
            }
        }
    }
}

/// Shared 8×8 basis (JPEG-like codec).
pub fn dct8() -> &'static DctBasis {
    static BASIS: OnceLock<DctBasis> = OnceLock::new();
    BASIS.get_or_init(|| DctBasis::new(8))
}

/// Shared 16×16 basis (BPG-like codec).
pub fn dct16() -> &'static DctBasis {
    static BASIS: OnceLock<DctBasis> = OnceLock::new();
    BASIS.get_or_init(|| DctBasis::new(16))
}

/// Zigzag scan order for an `n × n` block (low frequencies first).
pub fn zigzag_order(n: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(n * n);
    for s in 0..(2 * n - 1) {
        if s % 2 == 0 {
            // Walk up-right.
            let i0 = s.min(n - 1);
            let j0 = s - i0;
            let (mut i, mut j) = (i0 as isize, j0 as isize);
            while i >= 0 && (j as usize) < n {
                order.push(i as usize * n + j as usize);
                i -= 1;
                j += 1;
            }
        } else {
            // Walk down-left.
            let j0 = s.min(n - 1);
            let i0 = s - j0;
            let (mut i, mut j) = (i0 as isize, j0 as isize);
            while j >= 0 && (i as usize) < n {
                order.push(i as usize * n + j as usize);
                i += 1;
                j -= 1;
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block(n: usize, seed: u32) -> Vec<f32> {
        (0..n * n)
            .map(|i| {
                (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 16) % 256) as f32
                    / 255.0
                    - 0.5
            })
            .collect()
    }

    /// The triple loop [`DctBasis`] shipped with before its rows were fused,
    /// kept as the reference for bit equality.
    fn apply_reference(basis: &DctBasis, x: &[f32], inverse: bool) -> Vec<f32> {
        let n = basis.n;
        let mut tmp = vec![0.0f32; n * n];
        for k in 0..n {
            for j in 0..n {
                let mut acc = 0.0f32;
                for i in 0..n {
                    let ck = if inverse { basis.c[i * n + k] } else { basis.c[k * n + i] };
                    acc += ck * x[i * n + j];
                }
                tmp[k * n + j] = acc;
            }
        }
        let mut out = vec![0.0f32; n * n];
        for k in 0..n {
            for l in 0..n {
                let mut acc = 0.0f32;
                for j in 0..n {
                    let cl = if inverse { basis.c[j * n + l] } else { basis.c[l * n + j] };
                    acc += tmp[k * n + j] * cl;
                }
                out[k * n + l] = acc;
            }
        }
        out
    }

    #[test]
    fn dct_forward_and_inverse_are_bit_identical_to_the_reference() {
        // Signed zeros, subnormals and the ±0.5 range ends sit among seeded
        // noise: a reassociated or contracted kernel differs on these first.
        let specials = [0.0f32, -0.0, 0.5, -0.5, f32::MIN_POSITIVE / 4.0, -1.0e-41, 1.0e-39];
        for n in [4, 8, 16] {
            let basis = DctBasis::new(n);
            for seed in 0..40u32 {
                let mut x = sample_block(n, seed.wrapping_mul(0x9E37_79B9));
                for (i, v) in x.iter_mut().enumerate() {
                    match seed % 4 {
                        0 if i % 3 == 0 => *v = specials[(i / 3 + seed as usize) % specials.len()],
                        1 => *v *= 1.0e-38,
                        2 if i % 5 != 0 => *v = 0.0,
                        _ => {}
                    }
                }
                for inverse in [false, true] {
                    let got = if inverse { basis.inverse(&x) } else { basis.forward(&x) };
                    let want = apply_reference(&basis, &x, inverse);
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "n={n} seed={seed} inverse={inverse}");
                }
            }
        }
    }

    #[test]
    fn forward_inverse_is_identity() {
        for n in [4, 8, 16] {
            let basis = DctBasis::new(n);
            let x = sample_block(n, 7);
            let back = basis.inverse(&basis.forward(&x));
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-4, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn dct_is_orthonormal_parseval() {
        let basis = dct8();
        let x = sample_block(8, 13);
        let y = basis.forward(&x);
        let ex: f32 = x.iter().map(|v| v * v).sum();
        let ey: f32 = y.iter().map(|v| v * v).sum();
        assert!((ex - ey).abs() < 1e-3, "energy {ex} vs {ey}");
    }

    #[test]
    fn constant_block_concentrates_in_dc() {
        let basis = dct8();
        let x = vec![0.5f32; 64];
        let y = basis.forward(&x);
        assert!((y[0] - 0.5 * 8.0).abs() < 1e-4, "dc = {}", y[0]);
        for (i, &v) in y.iter().enumerate().skip(1) {
            assert!(v.abs() < 1e-4, "ac[{i}] = {v}");
        }
    }

    #[test]
    fn smooth_block_energy_is_low_frequency() {
        let basis = dct16();
        let n = 16;
        let x: Vec<f32> = (0..n * n).map(|i| (i % n) as f32 / n as f32).collect();
        let y = basis.forward(&x);
        let order = zigzag_order(n);
        let first_energy: f32 = order[..16].iter().map(|&i| y[i] * y[i]).sum();
        let total: f32 = y.iter().map(|v| v * v).sum();
        assert!(first_energy / total > 0.95, "low-freq fraction {}", first_energy / total);
    }

    #[test]
    fn zigzag_is_a_permutation() {
        for n in [4, 8, 16] {
            let mut order = zigzag_order(n);
            assert_eq!(order.len(), n * n);
            order.sort_unstable();
            assert!(order.iter().enumerate().all(|(i, &v)| i == v), "not a permutation for n={n}");
        }
    }

    #[test]
    fn zigzag_8_starts_like_jpeg() {
        let order = zigzag_order(8);
        // JPEG zigzag: 0, 1, 8, 16, 9, 2, 3, 10, ...
        assert_eq!(&order[..8], &[0, 1, 8, 16, 9, 2, 3, 10]);
    }
}
