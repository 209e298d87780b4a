//! Scalar/elementwise kernels shared by the autodiff [`Graph`] and the
//! tape-free [`InferenceSession`] so the two engines are byte-identical by
//! construction: both execute the very same loops in the very same
//! floating-point operation order, only the buffer management differs.
//!
//! [`Graph`]: crate::Graph
//! [`InferenceSession`]: crate::InferenceSession

pub(crate) const SQRT_2_OVER_PI: f32 = 0.797_884_6;
pub(crate) const GELU_COEF: f32 = 0.044_715;

/// Fast `tanh` for the GELU hot path: the classic single-precision rational
/// minimax approximation (odd 13th-degree numerator over even 6th-degree
/// denominator, input clamped where `tanh` saturates in f32), accurate to a
/// couple of ulps.
///
/// Two reasons to prefer this over `f32::tanh`: it is ~5x faster (libm's
/// `tanhf` dominated the feed-forward GELU at transformer-forward sizes),
/// and it is *portable-deterministic* — pure mul/add/div, so every libc and
/// platform produces the same bits, where libm implementations differ.
#[allow(clippy::excessive_precision)] // keep the published coefficients verbatim
#[inline(always)] // so the AVX2 bodies below vectorise through it
pub(crate) fn fast_tanh(x: f32) -> f32 {
    // Beyond ~7.9 tanh is 1.0 to within f32 rounding of this rational.
    let x = x.clamp(-7.905_311, 7.905_311);
    let x2 = x * x;
    let mut p = -2.760_768_5e-16f32;
    p = p * x2 + 2.000_188e-13;
    p = p * x2 + -8.604_672e-11;
    p = p * x2 + 5.122_297e-8;
    p = p * x2 + 1.485_722_4e-5;
    p = p * x2 + 6.372_619_3e-4;
    p = p * x2 + 4.893_524_6e-3;
    let p = p * x;
    let mut q = 1.198_258_4e-6f32;
    q = q * x2 + 1.185_347e-4;
    q = q * x2 + 2.268_434_6e-3;
    q = q * x2 + 4.893_525_2e-3;
    p / q
}

/// Fast `exp` for the softmax hot path: Cephes-style range reduction
/// (`x = n·ln2 + r`, `|r| ≤ ln2/2`) with a 6th-degree polynomial and an
/// exponent-bits reconstruction — accurate to ~1 ulp and, like
/// [`fast_tanh`], portable-deterministic pure arithmetic where libm's
/// `expf` differs across platforms.
#[allow(clippy::excessive_precision)] // keep the published coefficients verbatim
#[inline(always)] // so the AVX2 bodies below vectorise through it
pub(crate) fn fast_exp(x: f32) -> f32 {
    // Below this exp underflows to 0; above it overflows to inf. Softmax
    // feeds max-subtracted inputs (≤ 0), but keep the function total.
    let x = x.clamp(-87.336_54, 88.376_26);
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // Round-to-nearest integer without `round()` (a libm call on baseline
    // x86-64): adding 2^23 forces the fraction bits out, and the result
    // stays exact because |x·log2e| < 2^7.
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    let t = x * LOG2E + MAGIC;
    let n = t - MAGIC;
    let r = x - n * LN2_HI - n * LN2_LO;
    let mut p = 1.987_569_2e-4f32;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 5.000_000_1e-1;
    let p = p * r * r + r + 1.0;
    // 2^n via the exponent field. `t` lies in MAGIC's binade, where one ulp
    // is 1, so its bits are MAGIC's plus the integer `n`: an integer
    // subtraction yields `n as i32` exactly, and unlike the saturating
    // float-to-int cast it vectorises.
    let bits = t.to_bits().wrapping_sub(MAGIC.to_bits()).wrapping_add(127) << 23;
    p * f32::from_bits(bits)
}

/// GELU forward (tanh approximation) of one element.
#[inline(always)]
fn gelu_fwd(x: f32) -> f32 {
    0.5 * x * (1.0 + fast_tanh(SQRT_2_OVER_PI * (x + GELU_COEF * x * x * x)))
}

/// GELU derivative (tape backward pass only; same `tanh` as the forward so
/// training and inference see one consistent activation).
pub(crate) fn gelu_bwd(x: f32) -> f32 {
    let u = SQRT_2_OVER_PI * (x + GELU_COEF * x * x * x);
    let t = fast_tanh(u);
    let du = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_COEF * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// GELU forward over every element, in place, as both engines apply it.
///
/// Dispatches to an AVX2 compilation of the same loop when the CPU has it.
/// The op is elementwise and the body is pure mul/add/div (never fused), so
/// lane width cannot change a bit.
pub(crate) fn gelu_in_place(data: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // Safety: the `avx2` feature was just verified at runtime.
        unsafe { gelu_in_place_avx2(data) };
        return;
    }
    gelu_in_place_generic(data);
}

/// [`gelu_in_place`]'s body compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gelu_in_place_avx2(data: &mut [f32]) {
    gelu_in_place_generic(data);
}

#[inline(always)]
fn gelu_in_place_generic(data: &mut [f32]) {
    for v in data {
        *v = gelu_fwd(*v);
    }
}

/// Rows the row-wise kernels below walk side by side. Their sums are
/// sequential add chains, one per row, whose latency bounds a lone row;
/// eight independent chains keep the FP adder busy instead.
const ROW_INTERLEAVE: usize = 8;

/// Numerically stabilised softmax over contiguous length-`d` rows, in
/// place. `data.len()` is a multiple of `d`.
///
/// Each row takes four passes: the max; the `fast_exp(v - max)` writes;
/// the sum, left to right from `0.0`; the divide. Those are the per-element
/// operations of one fused loop in the same order, so the bits are the
/// same, but the exp and divide passes now vectorise, and the sum chains of
/// [`ROW_INTERLEAVE`] rows overlap. Dispatches to an AVX2 compilation of
/// the same body when the CPU has it.
pub(crate) fn softmax_last_axis(data: &mut [f32], d: usize) {
    debug_assert!(data.len().is_multiple_of(d), "softmax over ragged rows");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // Safety: the `avx2` feature was just verified at runtime.
        unsafe { softmax_last_axis_avx2(data, d) };
        return;
    }
    softmax_last_axis_generic(data, d);
}

/// [`softmax_last_axis`]'s body compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn softmax_last_axis_avx2(data: &mut [f32], d: usize) {
    softmax_last_axis_generic(data, d);
}

#[inline(always)]
fn softmax_last_axis_generic(data: &mut [f32], d: usize) {
    let mut groups = data.chunks_exact_mut(ROW_INTERLEAVE * d);
    for group in &mut groups {
        softmax_rows::<ROW_INTERLEAVE>(group, d);
    }
    for row in groups.into_remainder().chunks_exact_mut(d) {
        softmax_rows::<1>(row, d);
    }
}

/// The first `R` length-`d` rows of `group`, as separate slices so a loop
/// over a column index can step every row at once.
#[inline(always)]
pub(crate) fn rows_of<const R: usize>(group: &[f32], d: usize) -> [&[f32]; R] {
    let mut rows = group.chunks_exact(d);
    std::array::from_fn(|_| rows.next().expect("group holds R rows"))
}

/// Softmax of the `R` length-`d` rows of `group`.
#[inline(always)]
fn softmax_rows<const R: usize>(group: &mut [f32], d: usize) {
    // A maximum does not depend on the order it is taken in, except for
    // the sign of a zero maximum, and `fast_exp(v - 0.0)` equals
    // `fast_exp(v - -0.0)` for every `v`: each row's fold may vectorise.
    let max =
        rows_of::<R>(group, d).map(|row| row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b)));
    for (row, &m) in group.chunks_exact_mut(d).zip(&max) {
        for v in row {
            *v = fast_exp(*v - m);
        }
    }
    let mut sum = [0.0f32; R];
    {
        let rows = rows_of::<R>(group, d);
        for j in 0..d {
            for (s, row) in sum.iter_mut().zip(&rows) {
                *s += row[j];
            }
        }
    }
    for (row, &s) in group.chunks_exact_mut(d).zip(&sum) {
        for v in row {
            *v /= s;
        }
    }
}

/// Layer norm over contiguous length-`d` rows with learned gain/bias, in
/// place. `data.len()` is a multiple of `d`.
///
/// Per row: the mean, the variance, then `(v - mean) * inv * gamma + beta`
/// per element. The mean and variance sums run left to right from `-0.0`
/// (the neutral element `Iterator::sum` folds from), one chain per row,
/// over [`ROW_INTERLEAVE`] rows side by side; the normalising pass
/// vectorises. Dispatches to an AVX2 compilation of the same body when the
/// CPU has it.
pub(crate) fn layer_norm_last_axis(
    data: &mut [f32],
    d: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) {
    debug_assert!(data.len().is_multiple_of(d), "layer norm over ragged rows");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // Safety: the `avx2` feature was just verified at runtime.
        unsafe { layer_norm_last_axis_avx2(data, d, gamma, beta, eps) };
        return;
    }
    layer_norm_last_axis_generic(data, d, gamma, beta, eps);
}

/// [`layer_norm_last_axis`]'s body compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn layer_norm_last_axis_avx2(
    data: &mut [f32],
    d: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) {
    layer_norm_last_axis_generic(data, d, gamma, beta, eps);
}

#[inline(always)]
fn layer_norm_last_axis_generic(data: &mut [f32], d: usize, gamma: &[f32], beta: &[f32], eps: f32) {
    let (gamma, beta) = (&gamma[..d], &beta[..d]);
    let mut groups = data.chunks_exact_mut(ROW_INTERLEAVE * d);
    for group in &mut groups {
        layer_norm_rows::<ROW_INTERLEAVE>(group, d, gamma, beta, eps);
    }
    for row in groups.into_remainder().chunks_exact_mut(d) {
        layer_norm_rows::<1>(row, d, gamma, beta, eps);
    }
}

/// Layer norm of the `R` length-`d` rows of `group`.
#[inline(always)]
fn layer_norm_rows<const R: usize>(
    group: &mut [f32],
    d: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) {
    let mut mean = [-0.0f32; R];
    let mut var = [-0.0f32; R];
    {
        let rows = rows_of::<R>(group, d);
        for j in 0..d {
            for (s, row) in mean.iter_mut().zip(&rows) {
                *s += row[j];
            }
        }
        for s in &mut mean {
            *s /= d as f32;
        }
        for j in 0..d {
            for ((s, row), &mu) in var.iter_mut().zip(&rows).zip(&mean) {
                *s += (row[j] - mu) * (row[j] - mu);
            }
        }
    }
    for (row, (&mu, &var)) in group.chunks_exact_mut(d).zip(mean.iter().zip(&var)) {
        let inv = 1.0 / (var / d as f32 + eps).sqrt();
        for ((v, &g), &b) in row.iter_mut().zip(gamma).zip(beta) {
            *v = (*v - mu) * inv * g + b;
        }
    }
}

/// `out[r, d] += b[s, d]` with the `s` rhs rows tiled over blocks of the
/// `r` lhs rows (`r % s == 0`), in place on `out`.
pub(crate) fn add_rows_broadcast(out: &mut [f32], b: &[f32], d: usize, s: usize) {
    let r = out.len() / d;
    for i in 0..r {
        let brow = &b[(i % s) * d..(i % s + 1) * d];
        let orow = &mut out[i * d..(i + 1) * d];
        for (o, &x) in orow.iter_mut().zip(brow) {
            *o += x;
        }
    }
}

/// IEEE-754 binary32 → binary16 bit conversion with round-to-nearest-even.
///
/// Pure integer arithmetic (no libm, no hardware `f16` dependence), so the
/// quantized tier's activation rounding is portable-deterministic like
/// [`fast_tanh`]/[`fast_exp`]. f32 subnormals (< 2^-126) flush to zero —
/// irrelevant at activation magnitudes.
pub(crate) fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp32 = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;
    if exp32 == 0xff {
        // Inf stays inf; NaN keeps a quiet payload bit.
        return sign | 0x7c00 | if mant != 0 { 0x0200 } else { 0 };
    }
    let exp = exp32 - 127 + 15;
    if exp >= 0x1f {
        return sign | 0x7c00; // overflow → ±inf
    }
    if exp <= 0 {
        if exp < -10 {
            return sign; // rounds to ±0 (includes f32 subnormal inputs)
        }
        // f16 subnormal: shift the full 24-bit mantissa down, ties to even.
        let full = mant | 0x0080_0000;
        let shift = (14 - exp) as u32;
        let bias = (1u32 << (shift - 1)) - 1 + ((full >> shift) & 1);
        return sign | ((full + bias) >> shift) as u16;
    }
    // Normal: drop 13 mantissa bits with ties to even; a mantissa carry
    // propagates into the exponent field arithmetically (incl. → inf).
    let bias = 0x0fff + ((mant >> 13) & 1);
    sign | (((exp as u32) << 10) + ((mant + bias) >> 13)) as u16
}

/// IEEE-754 binary16 → binary32 bit conversion (exact; every f16 value is
/// representable in f32).
pub(crate) fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;
    if exp == 0 {
        if mant == 0 {
            return f32::from_bits(sign);
        }
        // Subnormal: normalise the mantissa into an f32 exponent.
        let p = 31 - mant.leading_zeros();
        let frac = (mant << (10 - p)) & 0x03ff;
        return f32::from_bits(sign | ((103 + p) << 23) | (frac << 13));
    }
    if exp == 0x1f {
        return f32::from_bits(sign | 0x7f80_0000 | (mant << 13));
    }
    f32::from_bits(sign | ((exp + 127 - 15) << 23) | (mant << 13))
}

/// Rounds every element to the nearest f16 value (storing the result back
/// in f32 width) — the quantized tier's "f16-stored activations" contract:
/// activation precision between layers is capped at half precision while
/// buffers stay `f32` so every downstream kernel is shared.
///
/// Dispatches to hardware F16C (`vcvtps2ph`/`vcvtph2ps`, round-to-nearest-
/// even) when available: bit-identical to the software path on every
/// non-NaN input (both are IEEE RNE and both send f32 subnormals to ±0 —
/// they sit far below half the smallest f16 subnormal), and NaN never
/// survives the layer norms that precede every rounded activation. The
/// software path runs one element at a time through the bit converters, so
/// on an f16-rounded layer it would otherwise cost more than the matmul
/// that produced the activations.
pub(crate) fn f16_round_slice(data: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("f16c") {
        // Safety: the `f16c` feature was just verified at runtime.
        unsafe { f16_round_slice_f16c(data) };
        return;
    }
    for v in data {
        *v = f16_bits_to_f32(f32_to_f16_bits(*v));
    }
}

/// Hardware body of [`f16_round_slice`]: eight lanes per round trip.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "f16c")]
unsafe fn f16_round_slice_f16c(data: &mut [f32]) {
    use std::arch::x86_64::*;
    const RNE: i32 = _MM_FROUND_TO_NEAREST_INT;
    let mut chunks = data.chunks_exact_mut(8);
    for c in &mut chunks {
        let h = _mm256_cvtps_ph::<RNE>(_mm256_loadu_ps(c.as_ptr()));
        _mm256_storeu_ps(c.as_mut_ptr(), _mm256_cvtph_ps(h));
    }
    for v in chunks.into_remainder() {
        *v = f16_bits_to_f32(f32_to_f16_bits(*v));
    }
}

/// Per-row symmetric int8 quantization of a `[m, k]` activation matrix into
/// a zero-padded `[m, k_pad]` matrix of sign-extended i16 codes plus one
/// scale per row.
///
/// `scale_i = max_j |a[i,j]| / 127`, `q = round(v / scale)` clamped to
/// ±127, with round-to-nearest-even ties (`f32::round_ties_even` is the
/// IEEE `roundToIntegralTiesToEven` operation — exactly what `vroundps`
/// computes, so the scalar and AVX2 bodies below are bit-identical by
/// construction and the quantization is deterministic everywhere). An
/// all-zero row gets scale 0 and all-zero codes, which dequantizes
/// exactly. Columns `k..k_pad` are written 0 so the packed-pair kernel can
/// treat odd `k` uniformly.
///
/// Codes are int8-valued but stored widened to i16: a consecutive pair is
/// then exactly the 32-bit memory word the AVX2 kernel broadcasts per `k`
/// step (one `vpbroadcastd` instead of two byte loads plus shifts), which
/// is where the int8 path wins or loses its speed. Quantization runs once
/// per Linear over `m·k` elements while the matmul it feeds does `m·k·n`
/// MACs — but at transformer widths (`n` ~ 10²) a scalar `round` per
/// element still costs as much as a row of `madd`s, hence the SIMD body.
pub(crate) fn quantize_rows(a: &[f32], k: usize, k_pad: usize, qa: &mut [i16], scales: &mut [f32]) {
    let m = scales.len();
    debug_assert_eq!(a.len(), m * k, "activation size");
    debug_assert!(qa.len() >= m * k_pad, "quantized buffer size");
    debug_assert!(k_pad >= k && k_pad.is_multiple_of(2), "k_pad must be even and >= k");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // Safety: the `avx2` feature was just verified at runtime.
        unsafe { quantize_rows_avx2(a, k, k_pad, qa, scales) };
        return;
    }
    for i in 0..m {
        let row = &a[i * k..(i + 1) * k];
        let amax = row.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
        let scale = amax / 127.0;
        scales[i] = scale;
        let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
        let q = &mut qa[i * k_pad..(i + 1) * k_pad];
        for (dst, &v) in q.iter_mut().zip(row) {
            *dst = (v * inv).round_ties_even().clamp(-127.0, 127.0) as i16;
        }
        for dst in &mut q[k..] {
            *dst = 0;
        }
    }
}

/// AVX2 body of [`quantize_rows`]: vector abs-max reduction, then
/// 16 codes per iteration (`mul` → `vroundps` → clamp → `cvtps2dq` →
/// saturating pack to i16). Every step is an exact IEEE operation the
/// scalar body also performs, in the same per-element order, so the two
/// bodies agree bit-for-bit — max/min/abs never round, `vroundps` nearest
/// is `round_ties_even`, and the `i32` conversion is exact because the
/// value is already integral in ±127.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_rows_avx2(
    a: &[f32],
    k: usize,
    k_pad: usize,
    qa: &mut [i16],
    scales: &mut [f32],
) {
    use std::arch::x86_64::*;
    const RNE: i32 = _MM_FROUND_TO_NEAREST_INT;
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let lo = _mm256_set1_ps(-127.0);
    let hi = _mm256_set1_ps(127.0);
    for (i, scale_slot) in scales.iter_mut().enumerate() {
        let row = &a[i * k..(i + 1) * k];
        // |amax| reduction: 8-lane max, folded horizontally, scalar tail.
        let mut vmax = _mm256_setzero_ps();
        let mut chunks = row.chunks_exact(8);
        for c in &mut chunks {
            vmax = _mm256_max_ps(vmax, _mm256_and_ps(_mm256_loadu_ps(c.as_ptr()), abs_mask));
        }
        let mut lanes = [0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), vmax);
        let mut amax = lanes.iter().fold(0.0f32, |acc, &v| acc.max(v));
        for &v in chunks.remainder() {
            amax = amax.max(v.abs());
        }
        let scale = amax / 127.0;
        *scale_slot = scale;
        let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
        let vinv = _mm256_set1_ps(inv);
        let q = &mut qa[i * k_pad..(i + 1) * k_pad];
        let mut j = 0usize;
        while j + 16 <= k {
            let q0 = _mm256_cvtps_epi32(_mm256_max_ps(
                lo,
                _mm256_min_ps(
                    hi,
                    _mm256_round_ps::<RNE>(_mm256_mul_ps(
                        _mm256_loadu_ps(row.as_ptr().add(j)),
                        vinv,
                    )),
                ),
            ));
            let q1 = _mm256_cvtps_epi32(_mm256_max_ps(
                lo,
                _mm256_min_ps(
                    hi,
                    _mm256_round_ps::<RNE>(_mm256_mul_ps(
                        _mm256_loadu_ps(row.as_ptr().add(j + 8)),
                        vinv,
                    )),
                ),
            ));
            // packs interleaves 128-bit lanes; permute restores order.
            let packed = _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_packs_epi32(q0, q1));
            _mm256_storeu_si256(q.as_mut_ptr().add(j).cast(), packed);
            j += 16;
        }
        for (dst, &v) in q[j..k].iter_mut().zip(&row[j..]) {
            *dst = (v * inv).round_ties_even().clamp(-127.0, 127.0) as i16;
        }
        for dst in &mut q[k..] {
            *dst = 0;
        }
    }
}

/// Output-column block width of the int8 kernel: 8 columns is exactly one
/// 256-bit `madd` accumulator, and the scalar path uses the same block so
/// both produce identical i32 sums (integer addition is associative — the
/// two paths are bit-identical by construction, unlike a float reorder).
const QCOL_BLOCK: usize = 8;

/// `C[m,n] = dequant(QA[m,k_pad] · QW[k_pad,n])`: int8×int8 widening
/// multiply-accumulate in i32, dequantized as
/// `((acc as f32) * a_scale_i) * w_scale_j`.
///
/// `packed` is the weight matrix pre-packed by
/// [`pack_weight_pairs`]: k-pair interleaved i16
/// (`packed[(kp * n + j) * 2 + t]` holds `qw[2*kp + t, j]`), which is the
/// exact operand layout of AVX2 `madd` — and the scalar path walks the same
/// array, so there is one packing, two ISAs, one result.
///
/// Accumulation is exact: `k_pad ≤ 2^16` keeps `Σ |127·127|` far below
/// `i32::MAX`, so no saturation path exists.
pub(crate) fn qmatmul_rows(
    qa: &[i16],
    a_scales: &[f32],
    packed: &[i16],
    w_scales: &[f32],
    out: &mut [f32],
    k_pad: usize,
    n: usize,
) {
    debug_assert!(k_pad.is_multiple_of(2), "k_pad must be even");
    debug_assert!(qa.len() >= a_scales.len() * k_pad, "qa size");
    debug_assert_eq!(packed.len(), k_pad * n, "packed weight size");
    debug_assert_eq!(w_scales.len(), n, "weight scale count");
    debug_assert_eq!(out.len(), a_scales.len() * n, "output size");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // Safety: the `avx2` feature was just verified at runtime.
        unsafe { qmatmul_rows_avx2(qa, a_scales, packed, w_scales, out, k_pad, n) };
        return;
    }
    qmatmul_rows_generic(qa, a_scales, packed, w_scales, out, k_pad, n);
}

/// AVX2 body: broadcast one activation pair per `k` step — a single
/// `vpbroadcastd` straight from the i16 activation row — and `madd` it
/// against four blocks of 8 packed weight columns at once (4 independent
/// i32 accumulators, 64 exact MACs per broadcast), so the per-`k`
/// broadcast cost is amortised across 32 output columns. Narrower
/// remainders fall to a one-block loop, then the scalar tail. Every path
/// produces the same i32 sums (integer addition is associative), so the
/// unroll factor cannot change results.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qmatmul_rows_avx2(
    qa: &[i16],
    a_scales: &[f32],
    packed: &[i16],
    w_scales: &[f32],
    out: &mut [f32],
    k_pad: usize,
    n: usize,
) {
    use std::arch::x86_64::*;
    const UNROLL: usize = 4;
    let pairs = k_pad / 2;
    let n32 = n - n % (UNROLL * QCOL_BLOCK);
    let n8 = n - n % QCOL_BLOCK;
    for (i, &a_scale) in a_scales.iter().enumerate() {
        let qrow = &qa[i * k_pad..(i + 1) * k_pad];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut j = 0usize;
        while j < n32 {
            let mut acc = [_mm256_setzero_si256(); UNROLL];
            for kp in 0..pairs {
                // Safety: 2*kp + 2 <= k_pad == qrow.len(); a consecutive
                // i16 pair is read as one (unaligned) 32-bit word.
                let av = _mm256_set1_epi32(std::ptr::read_unaligned(
                    qrow.as_ptr().add(2 * kp).cast::<i32>(),
                ));
                let base = (kp * n + j) * 2;
                for (u, slot) in acc.iter_mut().enumerate() {
                    // Safety: base + 2*QCOL_BLOCK*(u+1) <= (kp*n + n)*2
                    // <= k_pad*n == packed.len() because j + 32 <= n.
                    let bv =
                        _mm256_loadu_si256(packed.as_ptr().add(base + 2 * QCOL_BLOCK * u).cast());
                    *slot = _mm256_add_epi32(*slot, _mm256_madd_epi16(av, bv));
                }
            }
            let av_scale = _mm256_set1_ps(a_scale);
            for (u, slot) in acc.iter().enumerate() {
                let at = j + QCOL_BLOCK * u;
                // `vcvtdq2ps` rounds to nearest-even exactly like Rust's
                // `i32 as f32`, and the multiply order matches the scalar
                // `(v as f32) * a_scale * w_scales[j]` — bit-identical.
                let f = _mm256_mul_ps(_mm256_cvtepi32_ps(*slot), av_scale);
                let ws = _mm256_loadu_ps(w_scales.as_ptr().add(at));
                _mm256_storeu_ps(orow.as_mut_ptr().add(at), _mm256_mul_ps(f, ws));
            }
            j += UNROLL * QCOL_BLOCK;
        }
        while j < n8 {
            let mut acc = _mm256_setzero_si256();
            for kp in 0..pairs {
                let av = _mm256_set1_epi32(std::ptr::read_unaligned(
                    qrow.as_ptr().add(2 * kp).cast::<i32>(),
                ));
                // Safety: (kp*n + j)*2 + 16 <= k_pad*n == packed.len()
                // because j + 8 <= n.
                let bv = _mm256_loadu_si256(packed.as_ptr().add((kp * n + j) * 2).cast());
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
            }
            let f = _mm256_mul_ps(_mm256_cvtepi32_ps(acc), _mm256_set1_ps(a_scale));
            let ws = _mm256_loadu_ps(w_scales.as_ptr().add(j));
            _mm256_storeu_ps(orow.as_mut_ptr().add(j), _mm256_mul_ps(f, ws));
            j += QCOL_BLOCK;
        }
        qcols_remainder(qrow, a_scale, packed, w_scales, orow, n, j);
    }
}

/// Portable body over the same packed operand; identical i32 sums to the
/// AVX2 path (see [`qmatmul_rows`]).
fn qmatmul_rows_generic(
    qa: &[i16],
    a_scales: &[f32],
    packed: &[i16],
    w_scales: &[f32],
    out: &mut [f32],
    k_pad: usize,
    n: usize,
) {
    let pairs = k_pad / 2;
    for (i, &a_scale) in a_scales.iter().enumerate() {
        let qrow = &qa[i * k_pad..(i + 1) * k_pad];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut j = 0usize;
        while j + QCOL_BLOCK <= n {
            let mut acc = [0i32; QCOL_BLOCK];
            for kp in 0..pairs {
                let a0 = qrow[2 * kp] as i32;
                let a1 = qrow[2 * kp + 1] as i32;
                let base = (kp * n + j) * 2;
                let brow = &packed[base..base + 2 * QCOL_BLOCK];
                for (l, slot) in acc.iter_mut().enumerate() {
                    *slot += a0 * brow[2 * l] as i32 + a1 * brow[2 * l + 1] as i32;
                }
            }
            for (l, &v) in acc.iter().enumerate() {
                orow[j + l] = (v as f32) * a_scale * w_scales[j + l];
            }
            j += QCOL_BLOCK;
        }
        qcols_remainder(qrow, a_scale, packed, w_scales, orow, n, j);
    }
}

/// Scalar tail for output columns past the last full [`QCOL_BLOCK`].
fn qcols_remainder(
    qrow: &[i16],
    a_scale: f32,
    packed: &[i16],
    w_scales: &[f32],
    orow: &mut [f32],
    n: usize,
    mut j: usize,
) {
    let pairs = qrow.len() / 2;
    while j < n {
        let mut acc = 0i32;
        for kp in 0..pairs {
            let base = (kp * n + j) * 2;
            acc += qrow[2 * kp] as i32 * packed[base] as i32
                + qrow[2 * kp + 1] as i32 * packed[base + 1] as i32;
        }
        orow[j] = (acc as f32) * a_scale * w_scales[j];
        j += 1;
    }
}

/// Packs an already-quantized `[k, n]` int8 weight matrix into the
/// k-pair-interleaved, sign-extended i16 layout [`qmatmul_rows`] consumes:
/// `packed[(kp * n + j) * 2 + t] = qw[2*kp + t, j]`, with an implicit zero
/// row appended when `k` is odd.
pub(crate) fn pack_weight_pairs(qw: &[i8], k: usize, n: usize) -> Vec<i16> {
    debug_assert_eq!(qw.len(), k * n, "quantized weight size");
    let k_pad = k + k % 2;
    let mut packed = vec![0i16; k_pad * n];
    for kk in 0..k {
        let (kp, t) = (kk / 2, kk % 2);
        for j in 0..n {
            packed[(kp * n + j) * 2 + t] = qw[kk * n + j] as i16;
        }
    }
    packed
}

/// Maximum tensor rank the permute kernel supports (and the stack rank the
/// inference arena assumes). The transformer uses rank 0 through 4.
pub const MAX_RANK: usize = 8;

/// Axis permutation of `src` (row-major, shape `src_shape`) into `out`.
///
/// Odometer-style walk — no per-element div/mod. When the innermost output
/// axis is also the innermost input axis (every head split/merge in the
/// attention layers), whole rows are copied as contiguous blocks. Pure data
/// movement: no floating-point arithmetic, so the result is bit-exact
/// regardless of engine.
///
/// # Panics
///
/// Panics if `axes` is not a permutation of `0..rank`, rank exceeds
/// [`MAX_RANK`], or `out` does not match the element count.
pub(crate) fn permute_into(src: &[f32], src_shape: &[usize], axes: &[usize], out: &mut [f32]) {
    let r = src_shape.len();
    assert_eq!(axes.len(), r, "permute axes length");
    assert!(r <= MAX_RANK, "permute rank {r} exceeds MAX_RANK {MAX_RANK}");
    assert_eq!(src.len(), out.len(), "permute element count");
    let mut seen = [false; MAX_RANK];
    for &a in axes {
        assert!(a < r && !seen[a], "permute axes must be a permutation, got {axes:?}");
        seen[a] = true;
    }
    if out.is_empty() || r == 0 {
        out.copy_from_slice(src);
        return;
    }
    let old_strides = crate::tensor::strides_of_array::<MAX_RANK>(src_shape);
    // Source strides and output shape in output-axis order.
    let mut src_strides = [0usize; MAX_RANK];
    let mut new_shape = [0usize; MAX_RANK];
    for (d, &a) in axes.iter().enumerate() {
        src_strides[d] = old_strides[a];
        new_shape[d] = src_shape[a];
    }
    let block = if src_strides[r - 1] == 1 { new_shape[r - 1] } else { 1 };
    let outer = r - 1;
    let inner = new_shape[r - 1];
    let mut idx = [0usize; MAX_RANK];
    let mut src_off = 0usize;
    let mut written = 0usize;
    while written < out.len() {
        if block > 1 {
            out[written..written + block].copy_from_slice(&src[src_off..src_off + block]);
            written += block;
        } else {
            let stride = src_strides[r - 1];
            let mut s = src_off;
            for slot in &mut out[written..written + inner] {
                *slot = src[s];
                s += stride;
            }
            written += inner;
        }
        // Advance the outer odometer and the source offset with it.
        for d in (0..outer).rev() {
            idx[d] += 1;
            src_off += src_strides[d];
            if idx[d] < new_shape[d] {
                break;
            }
            src_off -= src_strides[d] * new_shape[d];
            idx[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_tanh_matches_libm_closely() {
        let mut worst = 0.0f32;
        let mut x = -12.0f32;
        while x <= 12.0 {
            let err = (fast_tanh(x) - x.tanh()).abs();
            worst = worst.max(err);
            x += 1e-3;
        }
        // A couple of f32 ulps across the whole range incl. saturation.
        assert!(worst < 1e-6, "fast_tanh worst abs error {worst}");
        assert_eq!(fast_tanh(0.0), 0.0);
        assert_eq!(fast_tanh(40.0), 1.0);
        assert_eq!(fast_tanh(-40.0), -1.0);
    }

    #[test]
    fn fast_exp_matches_libm_closely() {
        let mut worst_rel = 0.0f32;
        let mut x = -20.0f32;
        while x <= 20.0 {
            let (got, want) = (fast_exp(x), x.exp());
            let rel = ((got - want) / want).abs();
            worst_rel = worst_rel.max(rel);
            x += 1e-3;
        }
        assert!(worst_rel < 4e-7, "fast_exp worst rel error {worst_rel}");
        assert_eq!(fast_exp(0.0), 1.0);
        assert!(fast_exp(-100.0) < 1e-37, "deep negative must underflow to ~0");
        assert!(fast_exp(100.0).is_finite(), "clamped overflow stays finite");
    }

    /// The softmax loop shipped before its passes were split, kept as the
    /// reference for bit equality.
    fn softmax_reference(data: &mut [f32], d: usize) {
        for chunk in data.chunks_mut(d) {
            let m = chunk.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let mut sum = 0.0;
            for v in chunk.iter_mut() {
                *v = fast_exp(*v - m);
                sum += *v;
            }
            for v in chunk.iter_mut() {
                *v /= sum;
            }
        }
    }

    /// The layer-norm loop shipped before its rows were interleaved.
    fn layer_norm_reference(data: &mut [f32], d: usize, gamma: &[f32], beta: &[f32], eps: f32) {
        for chunk in data.chunks_mut(d) {
            let mean = chunk.iter().sum::<f32>() / d as f32;
            let var = chunk.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv = 1.0 / (var + eps).sqrt();
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (*v - mean) * inv * gamma[j] + beta[j];
            }
        }
    }

    /// The GELU loop both engines ran before it was compiled for AVX2.
    fn gelu_reference(data: &mut [f32]) {
        for v in data {
            *v = gelu_fwd(*v);
        }
    }

    /// `rows × width` inputs for the row-kernel sweeps, by `kind`: seeded
    /// noise; noise wide enough that `v - max` passes the `fast_exp` clamp;
    /// noise with signed zeros, subnormals, repeated maxima and values at
    /// the clamp mixed in; a row of `-0.0`; a constant row.
    fn row_inputs(rows: usize, width: usize, kind: usize, seed: u32) -> Vec<f32> {
        let specials = [0.0f32, -0.0, 9.0, 9.0, -87.336_54, -88.0, 88.376_26, 1.0e-39, -1.0e-41];
        let mut s = seed.wrapping_mul(0x9E37_79B9) | 1;
        (0..rows * width)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                let noise = (s >> 8) as f32 / (1u32 << 20) as f32 - 8.0;
                match kind {
                    0 => noise,
                    1 => noise * 30.0,
                    2 if i % 3 == 0 => specials[(s as usize) % specials.len()],
                    2 => noise,
                    3 => -0.0,
                    _ => 3.5,
                }
            })
            .collect()
    }

    /// Runs `kernel` and `reference` on every ragged `rows × width` input
    /// and asserts the bits agree.
    fn sweep_rows(
        name: &str,
        kernel: impl Fn(&mut [f32], usize),
        reference: impl Fn(&mut [f32], usize),
    ) {
        for width in [1usize, 7, 8, 15, 16, 17, 48, 64, 65, 129] {
            for rows in 1..=9 {
                for kind in 0..5 {
                    let seed = (width * 131 + rows * 17 + kind) as u32;
                    let input = row_inputs(rows, width, kind, seed);
                    let (mut got, mut want) = (input.clone(), input);
                    kernel(&mut got, width);
                    reference(&mut want, width);
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{name}: width={width} rows={rows} kind={kind}"
                    );
                }
            }
        }
    }

    #[test]
    fn softmax_is_bit_identical_to_the_reference() {
        sweep_rows("dispatched softmax", softmax_last_axis, softmax_reference);
        sweep_rows("generic softmax", softmax_last_axis_generic, softmax_reference);
    }

    #[test]
    fn layer_norm_is_bit_identical_to_the_reference() {
        // Gains and biases include `-0.0`: an all-`-0.0` row then yields
        // `-0.0` or `+0.0` depending on whether the mean's sum starts at
        // `-0.0` or `+0.0`.
        let gamma = row_inputs(1, 129, 0, 7);
        let beta: Vec<f32> = row_inputs(1, 129, 0, 8)
            .iter()
            .enumerate()
            .map(|(j, &b)| if j % 4 == 0 { -0.0 } else { b })
            .collect();
        let eps = 1e-5;
        let dispatched = |x: &mut [f32], d| layer_norm_last_axis(x, d, &gamma, &beta, eps);
        let generic = |x: &mut [f32], d| layer_norm_last_axis_generic(x, d, &gamma, &beta, eps);
        let reference = |x: &mut [f32], d| layer_norm_reference(x, d, &gamma[..d], &beta[..d], eps);
        sweep_rows("dispatched layer norm", dispatched, reference);
        sweep_rows("generic layer norm", generic, reference);
    }

    #[test]
    fn gelu_is_bit_identical_to_the_reference() {
        // GELU is elementwise: a row layout only varies the slice length.
        let flat = |f: fn(&mut [f32])| move |x: &mut [f32], _: usize| f(x);
        sweep_rows("dispatched gelu", flat(gelu_in_place), flat(gelu_reference));
        sweep_rows("generic gelu", flat(gelu_in_place_generic), flat(gelu_reference));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut x = vec![1.0f32, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_last_axis(&mut x, 3);
        for chunk in x.chunks(3) {
            let s: f32 = chunk.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn layer_norm_centres_and_scales() {
        let mut x = vec![1.0f32, 2.0, 3.0, 4.0];
        layer_norm_last_axis(&mut x, 4, &[1.0; 4], &[0.0; 4], 1e-5);
        let mean: f32 = x.iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
    }

    #[test]
    fn broadcast_add_tiles_rows() {
        let mut out = vec![0.0f32; 6];
        add_rows_broadcast(&mut out, &[1.0, 2.0], 2, 1);
        assert_eq!(out, vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn f16_round_trip_is_exact_and_rne() {
        // Exactly representable values survive unchanged.
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 65504.0, -65504.0, 2.0f32.powi(-24)] {
            assert_eq!(f16_bits_to_f32(f32_to_f16_bits(v)).to_bits(), v.to_bits(), "{v}");
        }
        // Ties round to even: 1 + 2^-11 is exactly between 1.0 and the next
        // f16 (1 + 2^-10); even mantissa wins → 1.0.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1.0 + 2f32.powi(-11))), 1.0);
        // 1 + 3·2^-11 ties between 1+2^-10 and 1+2^-9 → the even 1+2^-9.
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(1.0 + 3.0 * 2f32.powi(-11))),
            1.0 + 2.0 * 2f32.powi(-10)
        );
        // Overflow saturates to inf, specials survive.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e9)), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(f32::NEG_INFINITY)), f32::NEG_INFINITY);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Subnormal f16 range round-trips through the normalisation path.
        let tiny = 3.0 * 2f32.powi(-24);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(tiny)), tiny);
        // Everything in the normal range lands within half an f16 ulp.
        let mut x = -8.0f32;
        while x <= 8.0 {
            let r = f16_bits_to_f32(f32_to_f16_bits(x));
            let ulp = 2f32.powi((x.abs().max(2f32.powi(-24)).log2().floor() as i32 - 10).max(-24));
            assert!((r - x).abs() <= ulp * 0.5 + 1e-12, "f16({x}) = {r}");
            x += 1e-2;
        }
    }

    #[test]
    fn f16_round_hardware_path_matches_software_bits() {
        // Sweep every finite f16 payload (exactly representable values must
        // survive both paths unchanged) plus a dense random-ish grid of f32
        // inputs that exercise rounding, overflow and subnormal flushing.
        let mut inputs = Vec::new();
        for h in 0..=u16::MAX {
            let v = f16_bits_to_f32(h);
            if v.is_finite() {
                inputs.push(v);
            }
        }
        let mut state = 0x2545_f491u32;
        for _ in 0..100_000 {
            // xorshift over the full f32 bit space, NaN/inf filtered.
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            let v = f32::from_bits(state);
            if v.is_finite() {
                inputs.push(v);
            }
        }
        inputs.extend([0.0, -0.0, 65519.9, -65520.1, 1e-40, -1e-40, 2f32.powi(-25)]);
        let mut hw = inputs.clone();
        f16_round_slice(&mut hw); // dispatches to F16C when present
        for (&x, &h) in inputs.iter().zip(&hw) {
            let sw = f16_bits_to_f32(f32_to_f16_bits(x));
            assert_eq!(h.to_bits(), sw.to_bits(), "f16_round({x:e}): hw {h:e} vs sw {sw:e}");
        }
    }

    #[test]
    fn quantize_rows_simd_matches_scalar_reference() {
        // Dispatched quantize_rows (AVX2 on x86) against a from-scratch
        // scalar transcription of the spec, across sizes hitting the
        // 16-wide main loop, the scalar tail, and the odd-k zero pad.
        let mut state = 0x9e37_79b9u32;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            (state as f32 / u32::MAX as f32) * 4.0 - 2.0
        };
        for (m, k) in [(1usize, 1usize), (3, 16), (2, 17), (5, 37), (4, 96), (1, 130)] {
            let k_pad = k + k % 2;
            let a: Vec<f32> = (0..m * k).map(|_| rnd()).collect();
            let mut qa = vec![0i16; m * k_pad];
            let mut scales = vec![0f32; m];
            quantize_rows(&a, k, k_pad, &mut qa, &mut scales);
            for i in 0..m {
                let row = &a[i * k..(i + 1) * k];
                let amax = row.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
                let scale = amax / 127.0;
                assert_eq!(scales[i].to_bits(), scale.to_bits(), "scale row {i} (m={m},k={k})");
                let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
                for (j, &v) in row.iter().enumerate() {
                    let want = (v * inv).round_ties_even().clamp(-127.0, 127.0) as i16;
                    assert_eq!(qa[i * k_pad + j], want, "code ({i},{j}) (m={m},k={k})");
                }
                for j in k..k_pad {
                    assert_eq!(qa[i * k_pad + j], 0, "pad ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn quantize_rows_round_trips_within_half_step() {
        let a = [0.5f32, -1.0, 0.25, 0.0, 0.0, 0.0]; // second row all-zero
        let (k, k_pad) = (3usize, 4usize);
        let mut qa = [0i16; 8];
        let mut scales = [0f32; 2];
        quantize_rows(&a, k, k_pad, &mut qa, &mut scales);
        assert_eq!(qa[1], -127, "amax element maps to -127");
        assert_eq!(qa[3], 0, "padding column is zero");
        assert_eq!(scales[1], 0.0, "all-zero row gets scale 0");
        assert_eq!(&qa[4..], &[0i16; 4], "all-zero row quantizes to zeros");
        for (j, &v) in a[..k].iter().enumerate() {
            let deq = qa[j] as f32 * scales[0];
            assert!((deq - v).abs() <= scales[0] * 0.5 + 1e-7, "col {j}: {deq} vs {v}");
        }
    }

    #[test]
    fn qmatmul_matches_dequantized_reference_on_both_paths() {
        // Odd k exercises the pair padding; n = 43 exercises one full
        // 32-wide unrolled block, one 8-wide block, and the scalar
        // column remainder.
        let (m, k, n) = (5usize, 7usize, 43usize);
        let k_pad = k + k % 2;
        let mut s = 0x1234_5678u64;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        };
        let a: Vec<f32> = (0..m * k).map(|_| rnd()).collect();
        let w: Vec<f32> = (0..k * n).map(|_| rnd()).collect();
        // Quantize weights per column, activations per row.
        let mut qw = vec![0i8; k * n];
        let mut w_scales = vec![0f32; n];
        for j in 0..n {
            let wmax = (0..k).fold(0.0f32, |acc, i| acc.max(w[i * n + j].abs()));
            let scale = wmax / 127.0;
            w_scales[j] = scale;
            let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
            for i in 0..k {
                qw[i * n + j] = (w[i * n + j] * inv).round().clamp(-127.0, 127.0) as i8;
            }
        }
        let packed = pack_weight_pairs(&qw, k, n);
        let mut qa = vec![0i16; m * k_pad];
        let mut a_scales = vec![0f32; m];
        quantize_rows(&a, k, k_pad, &mut qa, &mut a_scales);

        let mut got = vec![0f32; m * n];
        qmatmul_rows(&qa, &a_scales, &packed, &w_scales, &mut got, k_pad, n);
        // Reference: exact integer dot products dequantized in f64.
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for kk in 0..k {
                    acc += qa[i * k_pad + kk] as i64 * qw[kk * n + j] as i64;
                }
                let want = acc as f64 * a_scales[i] as f64 * w_scales[j] as f64;
                let err = (got[i * n + j] as f64 - want).abs();
                assert!(err < 1e-4, "({i},{j}): {} vs {want}", got[i * n + j]);
            }
        }
        // The generic path must agree bit-for-bit with whatever the
        // dispatcher picked (i32 sums are associative; dequant order fixed).
        let mut generic = vec![0f32; m * n];
        qmatmul_rows_generic(&qa, &a_scales, &packed, &w_scales, &mut generic, k_pad, n);
        let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        let sb: Vec<u32> = generic.iter().map(|v| v.to_bits()).collect();
        assert_eq!(gb, sb, "AVX2 and scalar int8 kernels must be bit-identical");
    }

    #[test]
    fn permute_into_matches_shape_logic() {
        let src: Vec<f32> = (0..24).map(|v| v as f32).collect();
        let mut out = vec![0.0f32; 24];
        permute_into(&src, &[2, 3, 4], &[0, 2, 1], &mut out);
        // Compare against the Tensor-level permute, which shares this kernel
        // but exercises it through the public API.
        let t = crate::Tensor::from_vec(src, &[2, 3, 4]).permuted(&[0, 2, 1]);
        assert_eq!(out, t.data());
    }
}
