//! Tape-free transformer inference: a forward-only executor with scratch
//! buffer reuse.
//!
//! The autodiff [`Graph`](crate::Graph) is the *training* engine: every op
//! clones its input, heap-allocates a node and pins all intermediates on the
//! tape for a backward pass. Server-side decoding never runs backward, so
//! this module provides the inference twin:
//!
//! * [`ScratchArena`] — a pool of reusable `f32` buffers. After the first
//!   forward warms it up, repeated forwards of the same shape perform **no
//!   allocations at all**; the arena exposes counters so tests can prove it.
//! * [`InferenceSession`] — implements the same [`Executor`] as `Graph`
//!   (linear, layer norm, softmax, GELU, permute, batched matmul, token
//!   gather/compose) but forward-only: activations like GELU and softmax
//!   mutate their buffer in place, parameters are **borrowed** from the
//!   [`ParamSet`] instead of cloned, and nothing is retained between ops.
//!
//! Outputs are **byte-identical** to the `Graph` path: every layer has one
//! `forward`, generic over the executor, so both engines run the same op
//! sequence, and each op calls the very same kernels ([`crate::kernels`],
//! [`crate::parallel`]) in the same floating-point operation order. The
//! workspace equivalence sweep checks it end to end.

use crate::kernels;
use crate::nn::Executor;
use crate::params::{ParamId, ParamSet};
use crate::quant::{QuantizedMatrix, QuantizedParams};
use crate::tensor::Tensor;

/// Maximum rank a [`ScratchTensor`] can carry (the transformer needs 4).
pub const MAX_RANK: usize = 4;

/// A stack-allocated shape (rank ≤ [`MAX_RANK`]); avoids the per-op `Vec`
/// allocations the `Tensor` shape field would cost on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    fn from_slice(dims: &[usize]) -> Self {
        assert!(dims.len() <= MAX_RANK, "rank {} exceeds MAX_RANK {MAX_RANK}", dims.len());
        let mut a = [0usize; MAX_RANK];
        a[..dims.len()].copy_from_slice(dims);
        Self { dims: a, rank: dims.len() }
    }

    fn as_slice(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    fn numel(&self) -> usize {
        self.as_slice().iter().product()
    }
}

/// Read-only view shared by [`Tensor`] (parameters, external inputs) and
/// [`ScratchTensor`] (arena-owned intermediates), so session ops accept
/// either without copies.
pub trait TensorView {
    /// Underlying row-major data.
    fn view_data(&self) -> &[f32];
    /// Shape of the value.
    fn view_shape(&self) -> &[usize];
}

impl TensorView for Tensor {
    fn view_data(&self) -> &[f32] {
        self.data()
    }
    fn view_shape(&self) -> &[usize] {
        self.shape()
    }
}

impl TensorView for ScratchTensor {
    fn view_data(&self) -> &[f32] {
        self.data()
    }
    fn view_shape(&self) -> &[usize] {
        self.shape.as_slice()
    }
}

/// An intermediate value whose buffer is leased from a [`ScratchArena`].
///
/// The backing buffer keeps its high-water length and the tensor uses a
/// prefix of it, so a warmed-up arena never re-zeroes or reallocates.
/// Return it with [`InferenceSession::free`] when dead so later ops can
/// reuse the buffer; a dropped (not freed) tensor simply costs a fresh
/// allocation next forward.
#[derive(Debug)]
pub struct ScratchTensor {
    data: Vec<f32>,
    shape: Shape,
}

impl ScratchTensor {
    /// Shape of the value.
    pub fn shape(&self) -> &[usize] {
        self.shape.as_slice()
    }

    /// Row-major data (the leased prefix of the backing buffer).
    pub fn data(&self) -> &[f32] {
        &self.data[..self.shape.numel()]
    }

    /// Mutable row-major data (the leased prefix of the backing buffer).
    pub fn data_mut(&mut self) -> &mut [f32] {
        let numel = self.shape.numel();
        &mut self.data[..numel]
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Reinterprets the shape without moving data (row-major reshape).
    ///
    /// # Panics
    ///
    /// Panics if the element count changes.
    pub fn reshape(&mut self, shape: &[usize]) {
        let s = Shape::from_slice(shape);
        assert_eq!(s.numel(), self.shape.numel(), "reshape to {shape:?} changes element count");
        self.shape = s;
    }

    /// Row `i` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if not rank 2 or out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.shape.rank, 2, "row() needs rank 2");
        let d = self.shape.dims[1];
        // Slice the live prefix, not the high-water backing buffer: an
        // out-of-range row must panic, not read a previous lease's data.
        &self.data()[i * d..(i + 1) * d]
    }
}

/// A reusable pool of forward-pass buffers.
///
/// `take` hands out the best-fitting free buffer (smallest sufficient
/// capacity) and only allocates when nothing fits, so a warmed-up arena
/// services an entire forward pass allocation-free. The counters report
/// every genuine allocation, which is how the reuse tests prove the
/// steady state allocates nothing.
#[derive(Debug, Default)]
pub struct ScratchArena {
    free: Vec<Vec<f32>>,
    /// Separate pool for the quantized tier's activation-code buffers
    /// (int8-valued, stored widened to i16 for the kernel's pair
    /// broadcasts; same leasing discipline, same counters).
    free_bytes: Vec<Vec<i16>>,
    allocated_buffers: usize,
    allocated_bytes: usize,
}

impl ScratchArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        // Inference recycles the same multi-KB..MB buffers per forward; keep
        // glibc from re-faulting them (no-op after the first call).
        crate::alloc::tune_for_tapes();
        Self::default()
    }

    /// Number of buffers ever allocated (monotonic; flat once warm).
    pub fn allocated_buffers(&self) -> usize {
        self.allocated_buffers
    }

    /// Total bytes ever allocated across buffers (monotonic; flat once
    /// warm).
    pub fn allocated_bytes(&self) -> usize {
        self.allocated_bytes
    }

    fn take(&mut self, len: usize) -> Vec<f32> {
        let mut best: Option<usize> = None;
        for (i, b) in self.free.iter().enumerate() {
            if b.len() >= len && best.is_none_or(|j| b.len() < self.free[j].len()) {
                best = Some(i);
            }
        }
        match best {
            // Buffers keep their high-water length (the lease uses a prefix
            // slice), so the steady state re-zeroes nothing: every op fully
            // overwrites the region it leases.
            Some(i) => self.free.swap_remove(i),
            None => {
                self.allocated_buffers += 1;
                self.allocated_bytes += len * std::mem::size_of::<f32>();
                vec![0.0f32; len]
            }
        }
    }

    fn put(&mut self, buf: Vec<f32>) {
        self.free.push(buf);
    }

    fn take_bytes(&mut self, len: usize) -> Vec<i16> {
        let mut best: Option<usize> = None;
        for (i, b) in self.free_bytes.iter().enumerate() {
            if b.len() >= len && best.is_none_or(|j| b.len() < self.free_bytes[j].len()) {
                best = Some(i);
            }
        }
        match best {
            Some(i) => self.free_bytes.swap_remove(i),
            None => {
                self.allocated_buffers += 1;
                self.allocated_bytes += len * std::mem::size_of::<i16>();
                vec![0i16; len]
            }
        }
    }

    fn put_bytes(&mut self, buf: Vec<i16>) {
        self.free_bytes.push(buf);
    }
}

/// A forward-only [`Executor`] over a [`ParamSet`] with arena-backed
/// buffers.
///
/// Runs the same layer `forward`s as the [`Graph`](crate::Graph), with the
/// same floating-point operation order per op; see the module docs for the
/// byte-identity contract.
///
/// ```
/// use easz_tensor::{init, nn, InferenceSession, ParamSet, ScratchArena, Tensor};
/// let mut params = ParamSet::new();
/// let mut rng = init::rng(7);
/// let lin = nn::Linear::new(&mut params, &mut rng, "lin", 4, 3);
/// let mut arena = ScratchArena::new();
/// let mut s = InferenceSession::new(&params, &mut arena);
/// let x = s.copy_in(&Tensor::zeros(&[2, 4]));
/// let y = lin.forward(&mut s, &x);
/// assert_eq!(y.shape(), &[2, 3]);
/// s.free(x);
/// s.free(y);
/// ```
pub struct InferenceSession<'p, 'a> {
    params: &'p ParamSet,
    /// When set, the session runs the int8 fast tier: `Linear` layers
    /// dispatch to [`qmatmul`](Self::qmatmul) for weights present in the
    /// table and cap activation precision at f16 between layers.
    quant: Option<&'p QuantizedParams>,
    arena: &'a mut ScratchArena,
}

impl<'p, 'a> InferenceSession<'p, 'a> {
    /// Starts a session over `params` with buffers leased from `arena`
    /// (the bit-exact f32 reference mode).
    pub fn new(params: &'p ParamSet, arena: &'a mut ScratchArena) -> Self {
        Self { params, quant: None, arena }
    }

    /// Starts a session in the quantized int8 tier: layers consult `quant`
    /// for pre-packed weights and fall back to the f32 path for ids not in
    /// the table.
    pub fn with_quantized(
        params: &'p ParamSet,
        quant: &'p QuantizedParams,
        arena: &'a mut ScratchArena,
    ) -> Self {
        Self { params, quant: Some(quant), arena }
    }

    /// Borrows a parameter value (no clone — the `Graph` engine copies the
    /// tensor onto the tape here).
    pub fn param(&self, id: ParamId) -> &'p Tensor {
        let params: &'p ParamSet = self.params;
        params.value(id)
    }

    /// The quantized form of parameter `id`, if this session runs the
    /// quantized tier and the id was quantized.
    pub fn quantized(&self, id: ParamId) -> Option<&'p QuantizedMatrix> {
        self.quant.and_then(|q| q.get(id))
    }

    /// Returns a dead intermediate's buffer to the arena.
    pub fn free(&mut self, t: ScratchTensor) {
        self.arena.put(t.data);
    }

    fn alloc(&mut self, shape: &[usize]) -> ScratchTensor {
        let shape = Shape::from_slice(shape);
        ScratchTensor { data: self.arena.take(shape.numel()), shape }
    }

    /// Copies an external value into the arena (the inference analogue of
    /// `Graph::input` for values that later ops mutate).
    pub fn copy_in(&mut self, v: &impl TensorView) -> ScratchTensor {
        let mut out = self.alloc(v.view_shape());
        out.data_mut().copy_from_slice(v.view_data());
        out
    }

    /// Gathers rows of a rank-2 value: `out[i] = src[rows[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not rank 2 or an index is out of bounds.
    pub fn gather_rows(&mut self, src: &impl TensorView, rows: &[usize]) -> ScratchTensor {
        assert_eq!(src.view_shape().len(), 2, "gather_rows needs rank 2");
        let d = src.view_shape()[1];
        let mut out = self.alloc(&[rows.len(), d]);
        let data = src.view_data();
        let dst = out.data_mut();
        for (i, &r) in rows.iter().enumerate() {
            dst[i * d..(i + 1) * d].copy_from_slice(&data[r * d..(r + 1) * d]);
        }
        out
    }

    /// Rank-2 matrix product (same parallel kernel as `Tensor::matmul`).
    ///
    /// # Panics
    ///
    /// Panics if operands are not rank 2 with matching inner dims.
    pub fn matmul(&mut self, a: &impl TensorView, b: &impl TensorView) -> ScratchTensor {
        let (ashape, bshape) = (a.view_shape(), b.view_shape());
        assert_eq!(ashape.len(), 2, "matmul lhs must be rank 2, got {ashape:?}");
        assert_eq!(bshape.len(), 2, "matmul rhs must be rank 2, got {bshape:?}");
        let (m, k) = (ashape[0], ashape[1]);
        let (k2, n) = (bshape[0], bshape[1]);
        assert_eq!(k, k2, "matmul inner dims: {ashape:?} x {bshape:?}");
        let mut out = self.alloc(&[m, n]);
        crate::parallel::par_matmul(a.view_data(), b.view_data(), out.data_mut(), m, k, n);
        out
    }

    /// Rank-2 matrix product against a pre-quantized weight matrix: the
    /// activation rows are quantized to int8 on the fly (per-row scales),
    /// multiplied through the widening int8 kernel, and dequantized into
    /// f32 output. The int8 staging buffers are leased from the arena like
    /// every other intermediate, so the zero-steady-state-allocation
    /// contract holds for the quantized tier too.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not rank 2 or its width differs from `qw.k()`.
    pub fn qmatmul(&mut self, a: &impl TensorView, qw: &QuantizedMatrix) -> ScratchTensor {
        let ashape = a.view_shape();
        assert_eq!(ashape.len(), 2, "qmatmul lhs must be rank 2, got {ashape:?}");
        let (m, k) = (ashape[0], ashape[1]);
        assert_eq!(k, qw.k(), "qmatmul inner dims: {ashape:?} x [{}, {}]", qw.k(), qw.n());
        let k_pad = qw.k_pad();
        let mut qa = self.arena.take_bytes(m * k_pad);
        let mut scales = self.arena.take(m);
        kernels::quantize_rows(a.view_data(), k, k_pad, &mut qa[..m * k_pad], &mut scales[..m]);
        let mut out = self.alloc(&[m, qw.n()]);
        crate::parallel::par_qmatmul(
            &qa[..m * k_pad],
            &scales[..m],
            qw.packed(),
            qw.scales(),
            out.data_mut(),
            m,
            k_pad,
            qw.n(),
        );
        self.arena.put_bytes(qa);
        self.arena.put(scales);
        out
    }

    /// Rounds every element to its nearest f16 value in place (storage
    /// stays f32-width) — the quantized tier's inter-layer activation
    /// precision cap.
    pub fn f16_round_in_place(&mut self, t: &mut ScratchTensor) {
        kernels::f16_round_slice(t.data_mut());
    }

    /// Rank-3 batched matrix product (same kernel as
    /// `Tensor::batch_matmul`).
    ///
    /// # Panics
    ///
    /// Panics if operands are not rank 3 with matching batch/inner dims.
    pub fn batch_matmul(&mut self, a: &impl TensorView, b: &impl TensorView) -> ScratchTensor {
        let (ashape, bshape) = (a.view_shape(), b.view_shape());
        assert_eq!(ashape.len(), 3, "batch_matmul lhs rank");
        assert_eq!(bshape.len(), 3, "batch_matmul rhs rank");
        let (g, m, k) = (ashape[0], ashape[1], ashape[2]);
        let (g2, k2, n) = (bshape[0], bshape[1], bshape[2]);
        assert_eq!(g, g2, "batch_matmul batch dims");
        assert_eq!(k, k2, "batch_matmul inner dims");
        let mut out = self.alloc(&[g, m, n]);
        crate::parallel::par_batch_matmul(a.view_data(), b.view_data(), out.data_mut(), g, m, k, n);
        out
    }

    /// `a[r, d] += b[s, d]` with rhs rows tiled over blocks of `s` rows, in
    /// place on `a` (bias addition, positional embeddings).
    ///
    /// # Panics
    ///
    /// Panics if shapes are not `[r, d]` / `[s, d]` with `r % s == 0`.
    pub fn add_broadcast_rows(&mut self, a: &mut ScratchTensor, b: &impl TensorView) {
        assert_eq!(a.shape().len(), 2, "add_broadcast_rows lhs must be rank 2");
        assert_eq!(b.view_shape().len(), 2, "add_broadcast_rows rhs must be rank 2");
        let (r, d) = (a.shape()[0], a.shape()[1]);
        let (s, d2) = (b.view_shape()[0], b.view_shape()[1]);
        assert_eq!(d, d2, "broadcast width mismatch");
        assert!(s > 0 && r % s == 0, "rows {r} not a multiple of broadcast rows {s}");
        kernels::add_rows_broadcast(a.data_mut(), b.view_data(), d, s);
    }

    /// `dst = a + dst` elementwise, in place on `dst` (residual adds; the
    /// operand order matches `Graph::add(a, dst)`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, dst: &mut ScratchTensor, a: &impl TensorView) {
        assert_eq!(dst.shape(), a.view_shape(), "add_assign shape mismatch");
        for (o, &x) in dst.data_mut().iter_mut().zip(a.view_data()) {
            *o += x;
        }
    }

    /// Layer norm over the last axis into a fresh buffer (the input stays
    /// live for the residual connection, exactly like the `Graph` op).
    ///
    /// # Panics
    ///
    /// Panics if `gamma`/`beta` are not `[d]` vectors matching the last
    /// axis.
    pub fn layer_norm(
        &mut self,
        x: &impl TensorView,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
    ) -> ScratchTensor {
        let d = *x.view_shape().last().expect("layer_norm needs rank >= 1");
        assert_eq!(gamma.numel(), d, "gamma size");
        assert_eq!(beta.numel(), d, "beta size");
        let mut out = self.copy_in(x);
        kernels::layer_norm_last_axis(out.data_mut(), d, gamma.data(), beta.data(), eps);
        out
    }

    /// Softmax over the last axis, in place.
    pub fn softmax_in_place(&mut self, t: &mut ScratchTensor) {
        let d = *t.shape().last().expect("softmax needs rank >= 1");
        kernels::softmax_last_axis(t.data_mut(), d);
    }

    /// GELU activation (tanh approximation), in place.
    pub fn gelu_in_place(&mut self, t: &mut ScratchTensor) {
        kernels::gelu_in_place(t.data_mut());
    }

    /// Multiplies by a constant, in place.
    pub fn scale_in_place(&mut self, t: &mut ScratchTensor, s: f32) {
        for v in t.data_mut() {
            *v *= s;
        }
    }

    /// Axis permutation into a fresh buffer (shared odometer kernel).
    ///
    /// # Panics
    ///
    /// Panics if `axes` is not a permutation of `0..rank`.
    pub fn permute(&mut self, a: &ScratchTensor, axes: &[usize]) -> ScratchTensor {
        let mut new_shape = [0usize; MAX_RANK];
        for (d, &ax) in axes.iter().enumerate() {
            new_shape[d] = a.shape()[ax];
        }
        let mut out = self.alloc(&new_shape[..axes.len()]);
        kernels::permute_into(a.data(), a.shape(), axes, out.data_mut());
        out
    }

    /// Builds a token matrix from encoder rows and a learned fill token:
    /// `map[i] = Some(j)` copies row `j` of `src`, `None` copies the single
    /// row of `fill` (the mask token).
    ///
    /// # Panics
    ///
    /// Panics if widths differ, `fill` is not a single row, or an index is
    /// out of bounds.
    pub fn compose_tokens(
        &mut self,
        src: &ScratchTensor,
        fill: &Tensor,
        map: &[Option<usize>],
    ) -> ScratchTensor {
        assert_eq!(src.shape().len(), 2, "compose_tokens src rank");
        assert_eq!(fill.rank(), 2, "compose_tokens fill rank");
        assert_eq!(fill.shape()[0], 1, "fill must be a single row");
        let d = src.shape()[1];
        assert_eq!(fill.shape()[1], d, "fill width mismatch");
        let mut out = self.alloc(&[map.len(), d]);
        let dst_all = out.data_mut();
        for (i, slot) in map.iter().enumerate() {
            let dst = &mut dst_all[i * d..(i + 1) * d];
            match slot {
                Some(j) => dst.copy_from_slice(src.row(*j)),
                None => dst.copy_from_slice(fill.row(0)),
            }
        }
        out
    }
}

/// The arena executor: dead operands go back to the arena right after the
/// op that consumed them, and activations run in place where the op allows.
impl Executor for InferenceSession<'_, '_> {
    type Value = ScratchTensor;

    /// In a quantized session with `w` in the table, the product runs
    /// through the int8 kernel and the output (after the f32 bias add) is
    /// rounded to f16 precision — the quantized tier's inter-layer
    /// activation contract. Otherwise this is the bit-exact f32 path.
    fn linear(&mut self, x: &ScratchTensor, w: ParamId, b: ParamId) -> ScratchTensor {
        let b = self.param(b);
        if let Some(qw) = self.quantized(w) {
            let mut y = self.qmatmul(x, qw);
            self.add_broadcast_rows(&mut y, b);
            self.f16_round_in_place(&mut y);
            return y;
        }
        let mut y = self.matmul(x, self.param(w));
        self.add_broadcast_rows(&mut y, b);
        y
    }

    fn layer_norm(
        &mut self,
        x: &ScratchTensor,
        gamma: ParamId,
        beta: ParamId,
        eps: f32,
    ) -> ScratchTensor {
        self.layer_norm(x, self.param(gamma), self.param(beta), eps)
    }

    fn gelu(&mut self, mut x: ScratchTensor) -> ScratchTensor {
        self.gelu_in_place(&mut x);
        x
    }

    fn scale(&mut self, mut x: ScratchTensor, s: f32) -> ScratchTensor {
        self.scale_in_place(&mut x, s);
        x
    }

    fn softmax(&mut self, mut x: ScratchTensor) -> ScratchTensor {
        self.softmax_in_place(&mut x);
        x
    }

    /// Sums into `h`'s buffer and recycles `x`'s.
    fn add(&mut self, x: ScratchTensor, mut h: ScratchTensor) -> ScratchTensor {
        self.add_assign(&mut h, &x);
        self.free(x);
        h
    }

    fn reshape(&mut self, mut x: ScratchTensor, shape: &[usize]) -> ScratchTensor {
        x.reshape(shape);
        x
    }

    fn permute(&mut self, x: ScratchTensor, axes: &[usize]) -> ScratchTensor {
        let out = self.permute(&x, axes);
        self.free(x);
        out
    }

    fn batch_matmul(&mut self, a: ScratchTensor, b: ScratchTensor) -> ScratchTensor {
        let out = self.batch_matmul(&a, &b);
        self.free(a);
        self.free(b);
        out
    }

    fn gather_input(&mut self, src: &Tensor, rows: &[usize]) -> ScratchTensor {
        self.gather_rows(src, rows)
    }

    fn gather_rows(&mut self, x: &ScratchTensor, rows: &[usize]) -> ScratchTensor {
        self.gather_rows(x, rows)
    }

    fn gather_param(&mut self, id: ParamId, rows: &[usize]) -> ScratchTensor {
        self.gather_rows(self.param(id), rows)
    }

    fn add_rows(&mut self, mut x: ScratchTensor, rows: ScratchTensor) -> ScratchTensor {
        self.add_broadcast_rows(&mut x, &rows);
        self.free(rows);
        x
    }

    fn add_param_rows(&mut self, mut x: ScratchTensor, id: ParamId) -> ScratchTensor {
        self.add_broadcast_rows(&mut x, self.param(id));
        x
    }

    fn compose_tokens(
        &mut self,
        src: ScratchTensor,
        fill: ParamId,
        map: &[Option<usize>],
    ) -> ScratchTensor {
        let out = self.compose_tokens(&src, self.param(fill), map);
        self.free(src);
        out
    }

    fn free(&mut self, x: ScratchTensor) {
        self.arena.put(x.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, Var};
    use crate::{init, nn};

    fn seeded(shape: &[usize], seed: u64) -> Tensor {
        let n: usize = shape.iter().product();
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let data: Vec<f32> = (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 40) as f32 / (1 << 24) as f32) - 0.5
            })
            .collect();
        Tensor::from_vec(data, shape)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn transformer_block_infer_is_bit_identical_to_graph() {
        let mut p = ParamSet::new();
        let mut r = init::rng(11);
        let block = nn::TransformerBlock::new(&mut p, &mut r, "blk", 16, 4, 32);
        let input = seeded(&[3 * 6, 16], 5);

        let mut g = Graph::new(&p);
        let x = g.input(input.clone());
        let y = block.forward(&mut g, x, 3, 6, None);
        let tape = g.value(y).data().to_vec();

        let mut arena = ScratchArena::new();
        let mut s = InferenceSession::new(&p, &mut arena);
        let x = s.copy_in(&input);
        let y = block.forward(&mut s, x, 3, 6, None);
        assert_eq!(bits(&tape), bits(y.data()), "tape vs tape-free must match bit-for-bit");
        s.free(y);
    }

    #[test]
    fn block_query_rows_match_the_full_forward_bitwise() {
        // Restricting a block's queries to some rows of each sequence must
        // return exactly those rows of the full forward, on both executors
        // and on the int8 tier (activation quantization is per row too).
        let mut p = ParamSet::new();
        let mut r = init::rng(13);
        let block = nn::TransformerBlock::new(&mut p, &mut r, "blk", 16, 4, 32);
        let mut q = QuantizedParams::new();
        block.quantize_into(&p, &mut q);
        let input = seeded(&[3 * 6, 16], 7);
        // Two query rows per sequence, out of order within the second.
        let rows = [1usize, 4, 11, 6, 12, 17];
        let picked = |full: &[f32]| -> Vec<u32> {
            rows.iter().flat_map(|&i| bits(&full[i * 16..(i + 1) * 16])).collect()
        };

        let mut g = Graph::new(&p);
        let x = g.input(input.clone());
        let full = block.forward(&mut g, x, 3, 6, None);
        let x = g.input(input.clone());
        let pruned = block.forward(&mut g, x, 3, 6, Some(&rows));
        assert_eq!(g.value(pruned).shape(), &[rows.len(), 16]);
        assert_eq!(bits(g.value(pruned).data()), picked(g.value(full).data()), "tape");

        let mut arena = ScratchArena::new();
        for quant in [None, Some(&q)] {
            let mut s = match quant {
                None => InferenceSession::new(&p, &mut arena),
                Some(q) => InferenceSession::with_quantized(&p, q, &mut arena),
            };
            let x = s.copy_in(&input);
            let full = block.forward(&mut s, x, 3, 6, None);
            let x = s.copy_in(&input);
            let pruned = block.forward(&mut s, x, 3, 6, Some(&rows));
            assert_eq!(
                bits(pruned.data()),
                picked(full.data()),
                "session, int8 {}",
                quant.is_some()
            );
            s.free(full);
            s.free(pruned);
        }
    }

    #[test]
    fn arena_does_not_grow_across_repeated_forwards() {
        let mut p = ParamSet::new();
        let mut r = init::rng(3);
        let block = nn::TransformerBlock::new(&mut p, &mut r, "blk", 8, 2, 16);
        let input = seeded(&[2 * 4, 8], 9);
        let mut arena = ScratchArena::new();
        let run = |arena: &mut ScratchArena| {
            let mut s = InferenceSession::new(&p, arena);
            let x = s.copy_in(&input);
            let y = block.forward(&mut s, x, 2, 4, None);
            s.free(y);
        };
        run(&mut arena);
        let (buffers, bytes) = (arena.allocated_buffers(), arena.allocated_bytes());
        assert!(buffers > 0, "first forward must warm the arena");
        for _ in 0..8 {
            run(&mut arena);
        }
        assert_eq!(arena.allocated_buffers(), buffers, "steady state must not allocate buffers");
        assert_eq!(arena.allocated_bytes(), bytes, "steady state must not allocate bytes");
    }

    /// One op's output as `(shape, bits)`.
    type Reading = (Vec<usize>, Vec<u32>);

    /// Calls every [`Executor`] method once on `[rows, width]` inputs and
    /// returns each output by method name; every value is freed after it is
    /// read. `ids` are `[w, b, gamma, beta, pos, fill]` with `pos` holding
    /// `block` rows. Consumed operands are fresh row gathers of `x` or `y`.
    fn every_op<E: Executor>(
        e: &mut E,
        read: impl Fn(&E, &E::Value) -> Reading,
        [w, b, gamma, beta, pos, fill]: [ParamId; 6],
        (x, y): (&Tensor, &Tensor),
        block: usize,
    ) -> Vec<(&'static str, Reading)> {
        let (rows, width) = (x.shape()[0], x.shape()[1]);
        let shuffled: Vec<usize> = (0..rows).map(|i| (i * 5 + 3) % rows).collect();
        let reversed: Vec<usize> = (0..block).rev().collect();
        let picked: Vec<usize> = (0..rows).rev().step_by(2).chain([0]).collect();
        let map: Vec<Option<usize>> =
            (0..rows + 2).map(|i| (i % 3 != 1).then_some(i * 7 % rows)).collect();
        let mut out = Vec::new();
        let mut keep = |e: &mut E, name: &'static str, v: E::Value| {
            out.push((name, read(e, &v)));
            e.free(v);
        };
        let a = e.gather_input(x, &shuffled);
        let v = e.linear(&a, w, b);
        keep(e, "linear", v);
        let v = e.layer_norm(&a, gamma, beta, 1e-5);
        keep(e, "layer_norm", v);
        let v = e.gather_rows(&a, &picked);
        keep(e, "gather_rows", v);
        keep(e, "gather_input", a);
        let v = e.gather_input(x, &shuffled);
        let v = e.gelu(v);
        keep(e, "gelu", v);
        let v = e.gather_input(x, &shuffled);
        let v = e.scale(v, 0.37);
        keep(e, "scale", v);
        let v = e.gather_input(x, &shuffled);
        let v = e.softmax(v);
        keep(e, "softmax", v);
        let (v, h) = (e.gather_input(x, &shuffled), e.gather_input(y, &shuffled));
        let v = e.add(v, h);
        keep(e, "add", v);
        let v = e.gather_param(pos, &reversed);
        keep(e, "gather_param", v);
        let (v, p) = (e.gather_input(x, &shuffled), e.gather_param(pos, &reversed));
        let v = e.add_rows(v, p);
        keep(e, "add_rows", v);
        let v = e.gather_input(y, &shuffled);
        let v = e.add_param_rows(v, pos);
        keep(e, "add_param_rows", v);
        let v = e.gather_input(y, &shuffled);
        let v = e.compose_tokens(v, fill, &map);
        keep(e, "compose_tokens", v);
        let v = e.gather_input(x, &shuffled);
        let v = e.reshape(v, &[width, rows]);
        keep(e, "reshape", v);
        let v = e.gather_input(y, &shuffled);
        let v = e.permute(v, &[1, 0]);
        keep(e, "permute", v);
        // Attention scores: [1, rows, width] x [1, width, rows].
        let q = e.gather_input(x, &shuffled);
        let q = e.reshape(q, &[1, rows, width]);
        let k = e.gather_input(y, &shuffled);
        let k = e.reshape(k, &[1, rows, width]);
        let k = e.permute(k, &[0, 2, 1]);
        let v = e.batch_matmul(q, k);
        keep(e, "batch_matmul", v);
        out
    }

    #[test]
    fn session_ops_match_graph_ops_bitwise() {
        // Each executor method in isolation on ragged shapes (rows 1, 7 and
        // 33; widths and block sizes off the 8-lane kernel tiles), not just
        // the composed block.
        for (case, (rows, width, block)) in
            [(1usize, 5usize, 1usize), (7, 13, 7), (33, 19, 11)].into_iter().enumerate()
        {
            let seed = 40 + 10 * case as u64;
            let mut p = ParamSet::new();
            let ids = [
                p.add("w", seeded(&[width, width + 2], seed)),
                p.add("b", seeded(&[1, width + 2], seed + 1)),
                p.add("gamma", seeded(&[width], seed + 2)),
                p.add("beta", seeded(&[width], seed + 3)),
                p.add("pos", seeded(&[block, width], seed + 4)),
                p.add("fill", seeded(&[1, width], seed + 5)),
            ];
            let (x, y) = (seeded(&[rows, width], seed + 6), seeded(&[rows, width], seed + 7));

            let mut g = Graph::new(&p);
            let read = |g: &Graph<'_>, v: &Var| {
                let t = g.value(*v);
                (t.shape().to_vec(), bits(t.data()))
            };
            let tape = every_op(&mut g, read, ids, (&x, &y), block);
            assert_eq!(tape.len(), 15, "one reading per value-producing method");

            let mut arena = ScratchArena::new();
            let read = |_: &InferenceSession<'_, '_>, v: &ScratchTensor| {
                (v.shape().to_vec(), bits(v.data()))
            };
            let run = |arena: &mut ScratchArena| {
                every_op(&mut InferenceSession::new(&p, arena), read, ids, (&x, &y), block)
            };
            let free = run(&mut arena);
            for ((op, t), (_, f)) in tape.iter().zip(&free) {
                assert_eq!(t, f, "{op} diverges at rows={rows} width={width}");
            }
            // `free` returned every buffer: a second pass leases, never
            // allocates.
            let allocated = (arena.allocated_buffers(), arena.allocated_bytes());
            assert_eq!(run(&mut arena), free, "session ops must be deterministic");
            assert_eq!((arena.allocated_buffers(), arena.allocated_bytes()), allocated);
        }
    }

    #[test]
    fn quantized_block_tracks_reference_and_reuses_arena() {
        let mut p = ParamSet::new();
        let mut r = init::rng(11);
        let block = nn::TransformerBlock::new(&mut p, &mut r, "blk", 16, 4, 32);
        let mut q = QuantizedParams::new();
        block.quantize_into(&p, &mut q);
        assert_eq!(q.len(), 6, "4 attention projections + 2 ffn layers");
        let input = seeded(&[3 * 6, 16], 5);

        // Bit-exact f32 reference.
        let mut arena = ScratchArena::new();
        let mut s = InferenceSession::new(&p, &mut arena);
        let x = s.copy_in(&input);
        let y = block.forward(&mut s, x, 3, 6, None);
        let reference = y.data().to_vec();
        s.free(y);

        // Quantized tier: deterministic, arena-steady, bounded divergence.
        let mut arena = ScratchArena::new();
        let run = |arena: &mut ScratchArena| {
            let mut s = InferenceSession::with_quantized(&p, &q, arena);
            let x = s.copy_in(&input);
            let y = block.forward(&mut s, x, 3, 6, None);
            let out = y.data().to_vec();
            s.free(y);
            out
        };
        let first = run(&mut arena);
        let (buffers, bytes) = (arena.allocated_buffers(), arena.allocated_bytes());
        assert!(buffers > 0, "first quantized forward must warm the arena");
        for _ in 0..4 {
            let again = run(&mut arena);
            assert_eq!(bits(&first), bits(&again), "quantized tier must be deterministic");
        }
        assert_eq!(
            (arena.allocated_buffers(), arena.allocated_bytes()),
            (buffers, bytes),
            "quantized steady state must not allocate"
        );
        assert_ne!(bits(&first), bits(&reference), "the int8 tier must actually be in play");
        // Post-layer-norm outputs are O(1); int8+f16 error stays well under
        // this after one block.
        let worst = first.iter().zip(&reference).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(worst < 0.25, "quantized block diverged too far from f32: {worst}");
    }

    #[test]
    fn gather_permute_compose_round_trip() {
        let mut p = ParamSet::new();
        let fill = p.add("fill", seeded(&[1, 4], 31));
        let src = seeded(&[3, 4], 30);
        let mut arena = ScratchArena::new();
        let mut s = InferenceSession::new(&p, &mut arena);
        let a = s.copy_in(&src);
        let picked = s.gather_rows(&a, &[2, 0]);
        assert_eq!(picked.row(0), src.row(2));
        let composed = s.compose_tokens(&picked, s.param(fill), &[Some(1), None, Some(0)]);
        assert_eq!(composed.row(0), src.row(0));
        assert_eq!(composed.row(1), s.param(fill).row(0));
        let mut m = s.copy_in(&seeded(&[2, 3, 4], 33));
        m.reshape(&[2, 3, 4]);
        let t = s.permute(&m, &[0, 2, 1]);
        let expect = seeded(&[2, 3, 4], 33).permuted(&[0, 2, 1]);
        assert_eq!(t.data(), expect.data());
        for t in [a, picked, composed, m, t] {
            s.free(t);
        }
    }
}
