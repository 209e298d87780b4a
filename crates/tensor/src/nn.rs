//! Neural-network building blocks written once over an [`Executor`].
//!
//! Each layer registers its parameters in a [`ParamSet`] at construction and
//! has exactly one `forward`, generic over the executor that runs it: the
//! autodiff [`Graph`](crate::Graph) records the ops on a tape for training,
//! and the [`InferenceSession`](crate::InferenceSession) runs them
//! forward-only on arena buffers. Tape and tape-free outputs are therefore
//! the same definition, not two implementations held equal by a test. The
//! blocks mirror Fig. 5 of the paper: a transformer block holds an attention
//! layer and a feed-forward layer wrapped in layer norms with residual
//! connections.

use crate::init;
use crate::params::{ParamId, ParamSet};
use crate::quant::QuantizedParams;
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// The op vocabulary the transformer layers are written in.
///
/// Ownership follows liveness: an operand that dies at the op is passed by
/// value, so the arena executor can recycle its buffer (the tape executor
/// ignores that, since [`Var`](crate::Var) is `Copy`); an operand that is
/// still live afterwards is borrowed. The order in which a forward calls
/// these methods is the order the session leases and frees buffers and the
/// order the tape records nodes, so both are part of the numeric contract.
pub trait Executor {
    /// A value flowing between ops: a tape handle or an arena buffer.
    type Value;
    /// `x W + b` with the layer's `(w, b)` parameters. A session holding an
    /// int8 form of `w` runs the quantized kernel and rounds the output to
    /// f16 precision.
    fn linear(&mut self, x: &Self::Value, w: ParamId, b: ParamId) -> Self::Value;
    /// Layer norm over the last axis with `(gamma, beta)` parameters.
    fn layer_norm(
        &mut self,
        x: &Self::Value,
        gamma: ParamId,
        beta: ParamId,
        eps: f32,
    ) -> Self::Value;
    /// GELU activation (tanh approximation).
    fn gelu(&mut self, x: Self::Value) -> Self::Value;
    /// Multiplies by a constant.
    fn scale(&mut self, x: Self::Value, s: f32) -> Self::Value;
    /// Softmax over the last axis.
    fn softmax(&mut self, x: Self::Value) -> Self::Value;
    /// Residual sum `x + h` of two same-shaped values.
    fn add(&mut self, x: Self::Value, h: Self::Value) -> Self::Value;
    /// Row-major reshape (element order preserved).
    fn reshape(&mut self, x: Self::Value, shape: &[usize]) -> Self::Value;
    /// Axis permutation.
    fn permute(&mut self, x: Self::Value, axes: &[usize]) -> Self::Value;
    /// Rank-3 batched matrix product.
    fn batch_matmul(&mut self, a: Self::Value, b: Self::Value) -> Self::Value;
    /// Rows of an external rank-2 tensor: `out[i] = src[rows[i]]`.
    fn gather_input(&mut self, src: &Tensor, rows: &[usize]) -> Self::Value;
    /// Rows of a live rank-2 value: `out[i] = x[rows[i]]`.
    fn gather_rows(&mut self, x: &Self::Value, rows: &[usize]) -> Self::Value;
    /// Rows of a rank-2 parameter: `out[i] = param[rows[i]]`.
    fn gather_param(&mut self, id: ParamId, rows: &[usize]) -> Self::Value;
    /// `x[r, d] + rows[s, d]` with `rows` tiled over blocks of `s` rows.
    fn add_rows(&mut self, x: Self::Value, rows: Self::Value) -> Self::Value;
    /// [`add_rows`](Self::add_rows) with a rank-2 parameter as the rows.
    fn add_param_rows(&mut self, x: Self::Value, id: ParamId) -> Self::Value;
    /// Token matrix from encoder rows and a learned fill row: `map[i] =
    /// Some(j)` copies row `j` of `src`, `None` the single row of `fill`.
    fn compose_tokens(
        &mut self,
        src: Self::Value,
        fill: ParamId,
        map: &[Option<usize>],
    ) -> Self::Value;
    /// Ends a value's life.
    fn free(&mut self, x: Self::Value);
}

/// A dense affine layer `y = x W + b` on `[rows, in] -> [rows, out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers the layer's weights under `prefix` (e.g. `"enc.0.attn.q"`).
    pub fn new(
        params: &mut ParamSet,
        rng: &mut StdRng,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = params.add(format!("{prefix}.w"), init::xavier_uniform(rng, in_dim, out_dim));
        let b = params.add(format!("{prefix}.b"), crate::tensor::Tensor::zeros(&[1, out_dim]));
        Self { w, b, in_dim, out_dim }
    }

    /// Applies the layer (see [`Executor::linear`] for the quantized tier).
    ///
    /// # Panics
    ///
    /// Panics (inside the matmul) if `x` is not `[rows, in_dim]`.
    pub fn forward<E: Executor>(&self, e: &mut E, x: &E::Value) -> E::Value {
        e.linear(x, self.w, self.b)
    }

    /// Quantizes this layer's weight matrix into `out` (the bias stays
    /// f32; it is added after dequantization).
    pub fn quantize_into(&self, params: &ParamSet, out: &mut QuantizedParams) {
        out.quantize(params, self.w);
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// Layer normalisation with learned gain and bias over the last axis.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    eps: f32,
}

impl LayerNorm {
    /// Registers gain/bias of width `dim` under `prefix`.
    pub fn new(params: &mut ParamSet, prefix: &str, dim: usize) -> Self {
        let gamma = params.add(format!("{prefix}.gamma"), crate::tensor::Tensor::full(&[dim], 1.0));
        let beta = params.add(format!("{prefix}.beta"), crate::tensor::Tensor::zeros(&[dim]));
        Self { gamma, beta, eps: 1e-5 }
    }

    /// Applies layer norm along the last axis (the input stays live for
    /// residual connections).
    pub fn forward<E: Executor>(&self, e: &mut E, x: &E::Value) -> E::Value {
        e.layer_norm(x, self.gamma, self.beta, self.eps)
    }
}

/// Multi-head self-attention over `[batch * seq, dim]` token matrices.
///
/// The caller supplies `batch` and `seq` at forward time; attention is
/// confined within each sequence (the paper's per-patch attention scope).
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    q: Linear,
    k: Linear,
    v: Linear,
    o: Linear,
    heads: usize,
    dim: usize,
}

impl MultiHeadAttention {
    /// Registers Q/K/V/O projections under `prefix`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(
        params: &mut ParamSet,
        rng: &mut StdRng,
        prefix: &str,
        dim: usize,
        heads: usize,
    ) -> Self {
        assert_eq!(dim % heads, 0, "dim {dim} must be divisible by heads {heads}");
        Self {
            q: Linear::new(params, rng, &format!("{prefix}.q"), dim, dim),
            k: Linear::new(params, rng, &format!("{prefix}.k"), dim, dim),
            v: Linear::new(params, rng, &format!("{prefix}.v"), dim, dim),
            o: Linear::new(params, rng, &format!("{prefix}.o"), dim, dim),
            heads,
            dim,
        }
    }

    /// Self-attention over `batch` sequences of `seq` tokens.
    ///
    /// `x` must be `[batch * seq, dim]`. With `queries = None` every row
    /// queries and the result has `x`'s shape. With `Some(rows)` only the
    /// rows of `x` listed there query (keys and values still cover all
    /// `seq` rows): `rows` holds the same number of rows for each sequence,
    /// sequence after sequence, and the result is `[rows.len(), dim]`, row
    /// `i` bit-equal to row `rows[i]` of the full result, because every op
    /// after the key/value projections is per query row. Each projection
    /// is split into heads before the next one runs, so at most one
    /// un-split projection is live at a time.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of `batch`.
    pub fn forward<E: Executor>(
        &self,
        e: &mut E,
        x: &E::Value,
        batch: usize,
        seq: usize,
        queries: Option<&[usize]>,
    ) -> E::Value {
        let (h, d) = (self.heads, self.dim);
        let dh = d / h;
        // [B*L, D] -> [B, L, H, Dh] -> [B, H, L, Dh] -> [B*H, L, Dh]
        let to_heads = |e: &mut E, proj: &Linear, x: &E::Value, len: usize| {
            let t = proj.forward(e, x);
            let t = e.reshape(t, &[batch, len, h, dh]);
            let t = e.permute(t, &[0, 2, 1, 3]);
            e.reshape(t, &[batch * h, len, dh])
        };
        let (qh, q_len) = match queries {
            None => (to_heads(e, &self.q, x, seq), seq),
            Some(rows) => {
                assert_eq!(
                    rows.len() % batch,
                    0,
                    "{} query rows over {batch} sequences",
                    rows.len()
                );
                let q_len = rows.len() / batch;
                let xq = e.gather_rows(x, rows);
                let qh = to_heads(e, &self.q, &xq, q_len);
                e.free(xq);
                (qh, q_len)
            }
        };
        let kh = to_heads(e, &self.k, x, seq);
        let vh = to_heads(e, &self.v, x, seq);
        let kt = e.permute(kh, &[0, 2, 1]);
        let scores = e.batch_matmul(qh, kt);
        let scores = e.scale(scores, 1.0 / (dh as f32).sqrt());
        let attn = e.softmax(scores);
        let ctx = e.batch_matmul(attn, vh);
        // [B*H, Lq, Dh] -> [B, H, Lq, Dh] -> [B, Lq, H, Dh] -> [B*Lq, D]
        let ctx = e.reshape(ctx, &[batch, h, q_len, dh]);
        let ctx = e.permute(ctx, &[0, 2, 1, 3]);
        let ctx = e.reshape(ctx, &[batch * q_len, d]);
        let out = self.o.forward(e, &ctx);
        e.free(ctx);
        out
    }

    /// Quantizes the Q/K/V/O projection weights into `out`.
    pub fn quantize_into(&self, params: &ParamSet, out: &mut QuantizedParams) {
        self.q.quantize_into(params, out);
        self.k.quantize_into(params, out);
        self.v.quantize_into(params, out);
        self.o.quantize_into(params, out);
    }
}

/// Two-layer GELU feed-forward network.
#[derive(Debug, Clone)]
pub struct FeedForward {
    fc1: Linear,
    fc2: Linear,
}

impl FeedForward {
    /// Registers the two projections under `prefix`.
    pub fn new(
        params: &mut ParamSet,
        rng: &mut StdRng,
        prefix: &str,
        dim: usize,
        hidden: usize,
    ) -> Self {
        Self {
            fc1: Linear::new(params, rng, &format!("{prefix}.fc1"), dim, hidden),
            fc2: Linear::new(params, rng, &format!("{prefix}.fc2"), hidden, dim),
        }
    }

    /// Applies `fc2(gelu(fc1(x)))`.
    pub fn forward<E: Executor>(&self, e: &mut E, x: &E::Value) -> E::Value {
        let h = self.fc1.forward(e, x);
        let h = e.gelu(h);
        let out = self.fc2.forward(e, &h);
        e.free(h);
        out
    }

    /// Quantizes both projection weights into `out`.
    pub fn quantize_into(&self, params: &ParamSet, out: &mut QuantizedParams) {
        self.fc1.quantize_into(params, out);
        self.fc2.quantize_into(params, out);
    }
}

/// A pre-norm transformer block with a trailing norm, matching the paper's
/// "three layernorms, one attention layer, one feedforward layer" block.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    ffn: FeedForward,
    ln3: LayerNorm,
}

impl TransformerBlock {
    /// Registers all block parameters under `prefix`.
    pub fn new(
        params: &mut ParamSet,
        rng: &mut StdRng,
        prefix: &str,
        dim: usize,
        heads: usize,
        ffn_hidden: usize,
    ) -> Self {
        Self {
            ln1: LayerNorm::new(params, &format!("{prefix}.ln1"), dim),
            attn: MultiHeadAttention::new(params, rng, &format!("{prefix}.attn"), dim, heads),
            ln2: LayerNorm::new(params, &format!("{prefix}.ln2"), dim),
            ffn: FeedForward::new(params, rng, &format!("{prefix}.ffn"), dim, ffn_hidden),
            ln3: LayerNorm::new(params, &format!("{prefix}.ln3"), dim),
        }
    }

    /// Applies the block to `[batch * seq, dim]` tokens, consuming `x`.
    ///
    /// `queries` restricts the output to those rows of `x`, as in
    /// [`MultiHeadAttention::forward`]: attention still reads every row,
    /// and the residual, feed-forward and norms after it run on the listed
    /// rows only. `None` runs every row.
    pub fn forward<E: Executor>(
        &self,
        e: &mut E,
        x: E::Value,
        batch: usize,
        seq: usize,
        queries: Option<&[usize]>,
    ) -> E::Value {
        let ln = self.ln1.forward(e, &x);
        let h = self.attn.forward(e, &ln, batch, seq, queries);
        e.free(ln);
        let x = match queries {
            None => x,
            Some(rows) => {
                let xq = e.gather_rows(&x, rows);
                e.free(x);
                xq
            }
        };
        let x = e.add(x, h);
        let ln = self.ln2.forward(e, &x);
        let h = self.ffn.forward(e, &ln);
        e.free(ln);
        let x = e.add(x, h);
        let out = self.ln3.forward(e, &x);
        e.free(x);
        out
    }

    /// Quantizes every matmul weight of the block (attention projections
    /// and feed-forward layers; layer norms stay f32) into `out`.
    pub fn quantize_into(&self, params: &ParamSet, out: &mut QuantizedParams) {
        self.attn.quantize_into(params, out);
        self.ffn.quantize_into(params, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn linear_shapes() {
        let mut p = ParamSet::new();
        let mut r = init::rng(0);
        let lin = Linear::new(&mut p, &mut r, "lin", 4, 6);
        let mut g = Graph::new(&p);
        let x = g.input(Tensor::zeros(&[3, 4]));
        let y = lin.forward(&mut g, &x);
        assert_eq!(g.value(y).shape(), &[3, 6]);
        assert_eq!(lin.in_dim(), 4);
        assert_eq!(lin.out_dim(), 6);
    }

    #[test]
    fn attention_preserves_shape_and_is_finite() {
        let mut p = ParamSet::new();
        let mut r = init::rng(1);
        let attn = MultiHeadAttention::new(&mut p, &mut r, "attn", 8, 2);
        let mut g = Graph::new(&p);
        let x = g.input(init::uniform(&mut r, &[2 * 5, 8], -1.0, 1.0));
        let y = attn.forward(&mut g, &x, 2, 5, None);
        assert_eq!(g.value(y).shape(), &[10, 8]);
        assert!(g.value(y).data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn block_forward_backward_runs() {
        let mut p = ParamSet::new();
        let mut r = init::rng(2);
        let block = TransformerBlock::new(&mut p, &mut r, "blk", 8, 2, 16);
        let mut g = Graph::new(&p);
        let x = g.input(init::uniform(&mut r, &[2 * 4, 8], -1.0, 1.0));
        let y = block.forward(&mut g, x, 2, 4, None);
        let loss = g.mean_all(y);
        let grads = g.backward(loss);
        // Every block parameter should receive a gradient.
        assert_eq!(grads.len(), p.len());
        assert!(grads.global_norm().is_finite());
    }

    #[test]
    fn attention_rows_sum_to_one_effect() {
        // A constant-value input should stay (nearly) constant through
        // softmax-weighted averaging of identical values.
        let mut p = ParamSet::new();
        let mut r = init::rng(3);
        let attn = MultiHeadAttention::new(&mut p, &mut r, "attn", 4, 1);
        let mut g = Graph::new(&p);
        let x = g.input(Tensor::full(&[6, 4], 0.5));
        let y = attn.forward(&mut g, &x, 1, 6, None);
        let d = g.value(y).data();
        for row in 1..6 {
            for j in 0..4 {
                assert!((d[row * 4 + j] - d[j]).abs() < 1e-5, "rows should be identical");
            }
        }
    }
}
