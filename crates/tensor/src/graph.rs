//! Reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a tape of operations built during a forward pass. Each
//! [`Var`] indexes a node holding the op's output value; [`Graph::backward`]
//! walks the tape in reverse, accumulating gradients for every node and for
//! every parameter of the attached [`ParamSet`].
//!
//! The op set is exactly what the Easz reconstruction transformer needs:
//! (batched) matmul, broadcast adds, layer norm, softmax, GELU, token
//! scatter/gather for the erased-position decoder input, and the training
//! losses (L1 and a frequency-weighted perceptual term). `Graph` implements
//! [`Executor`], so the `nn` layers' one `forward` records onto it.

use crate::kernels::gelu_bwd;
use crate::nn::Executor;
use crate::params::{ParamId, ParamSet};
use crate::tensor::{inverse_permutation, Tensor};
use std::collections::HashMap;

/// Handle to a node on the autodiff tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

#[derive(Debug)]
enum Op {
    /// External input (constant w.r.t. gradients).
    Input,
    /// Parameter leaf; gradients flow into the [`ParamSet`] gradient buffer.
    Param(ParamId),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    /// `[r, d] + [s, d]` with the rhs tiled over blocks of `s` rows.
    AddBroadcastRows(Var, Var),
    Matmul(Var, Var),
    BatchMatmul(Var, Var),
    Reshape(Var),
    Permute(Var, Vec<usize>),
    /// Softmax over the last axis.
    Softmax(Var),
    /// Layer norm over the last axis with learned gain/bias.
    LayerNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    },
    Gelu(Var),
    Relu(Var),
    /// Select rows of a rank-2 tensor.
    GatherRows(Var, Vec<usize>),
    /// Build a token sequence from encoder rows and a shared mask token.
    ///
    /// `map[i] = Some(j)` takes row `j` of the first parent; `None` takes the
    /// single row of the second parent (the learned mask token).
    ComposeTokens {
        src: Var,
        fill: Var,
        map: Vec<Option<usize>>,
    },
    /// Mean of |x - target| (the L1 term of Eq. 2).
    L1Loss {
        x: Var,
        target: Tensor,
    },
    /// Mean of w * (x - target)^2 with constant per-element weights.
    WeightedMseLoss {
        x: Var,
        target: Tensor,
        weights: Tensor,
    },
    MeanAll(Var),
}

struct Node {
    value: Tensor,
    op: Op,
}

/// An autodiff tape bound to a parameter set.
///
/// ```
/// use easz_tensor::{Graph, ParamSet, Tensor};
/// let mut params = ParamSet::new();
/// let w = params.add("w", Tensor::from_vec(vec![2.0], &[1, 1]));
/// let mut g = Graph::new(&params);
/// let x = g.input(Tensor::from_vec(vec![3.0], &[1, 1]));
/// let wv = g.param(w);
/// let y = g.matmul(x, wv);
/// let loss = g.mean_all(y);
/// let grads = g.backward(loss);
/// assert_eq!(grads.get(w).unwrap().data(), &[3.0]);
/// ```
pub struct Graph<'p> {
    params: &'p ParamSet,
    nodes: Vec<Node>,
    param_nodes: HashMap<ParamId, Var>,
}

/// Gradients produced by [`Graph::backward`], keyed by parameter.
#[derive(Debug, Default)]
pub struct Gradients {
    by_param: HashMap<ParamId, Tensor>,
}

impl Gradients {
    /// Gradient tensor for `id`, if that parameter participated in the loss.
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.by_param.get(&id)
    }

    /// Iterates over `(parameter, gradient)` pairs in `ParamId` order.
    ///
    /// The order is deterministic (not `HashMap` order): training must be
    /// reproducible across processes, and float reductions over gradients
    /// are order-sensitive.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        let mut ids: Vec<ParamId> = self.by_param.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter().map(|id| (id, &self.by_param[&id]))
    }

    /// Number of parameters with gradients.
    pub fn len(&self) -> usize {
        self.by_param.len()
    }

    /// Whether no parameter received a gradient.
    pub fn is_empty(&self) -> bool {
        self.by_param.is_empty()
    }

    /// Global L2 norm across all parameter gradients.
    ///
    /// Summed in `ParamId` order so the result (and anything derived from
    /// it, like gradient-clipping scales) is identical across processes.
    pub fn global_norm(&self) -> f32 {
        self.iter().map(|(_, g)| g.sq_norm()).sum::<f32>().sqrt()
    }

    /// Scales every gradient in place (used for gradient clipping).
    pub fn scale(&mut self, s: f32) {
        for g in self.by_param.values_mut() {
            for v in g.data_mut() {
                *v *= s;
            }
        }
    }

    /// Sums per-shard gradients with a **fixed pairwise reduction tree**:
    /// `((g0 + g1) + (g2 + g3)) + ...` over shard index, elementwise per
    /// parameter in `ParamId` order.
    ///
    /// The grouping of the float additions depends only on the number of
    /// shards — never on worker count, scheduling, or which thread produced
    /// which shard — so a data-parallel backward pass that reduces through
    /// here is bit-identical across any degree of execution parallelism.
    /// This is the parallel-path extension of the [`iter`](Self::iter)/
    /// [`global_norm`](Self::global_norm) determinism contract. A single
    /// shard passes through untouched (no regrouping, no scaling).
    pub fn tree_reduce(shards: Vec<Gradients>) -> Gradients {
        let mut layer = shards;
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let mut pairs = layer.into_iter();
            while let Some(mut left) = pairs.next() {
                if let Some(right) = pairs.next() {
                    left.accumulate(&right);
                }
                next.push(left);
            }
            layer = next;
        }
        layer.pop().unwrap_or_default()
    }

    /// Adds `other` into `self` elementwise (`self[i] += other[i]` per
    /// parameter); parameters only present in `other` are copied over.
    fn accumulate(&mut self, other: &Gradients) {
        for (id, g) in other.iter() {
            match self.by_param.get_mut(&id) {
                Some(acc) => {
                    debug_assert_eq!(acc.shape(), g.shape(), "shard gradient shapes must agree");
                    for (a, b) in acc.data_mut().iter_mut().zip(g.data()) {
                        *a += *b;
                    }
                }
                None => {
                    self.by_param.insert(id, g.clone());
                }
            }
        }
    }
}

impl<'p> Graph<'p> {
    /// Creates an empty tape over `params`.
    pub fn new(params: &'p ParamSet) -> Self {
        // Tapes allocate and free MBs of tensors per pass; make sure malloc
        // recycles them instead of re-faulting (no-op after the first tape).
        crate::alloc::tune_for_tapes();
        Self { params, nodes: Vec::with_capacity(64), param_nodes: HashMap::new() }
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// The current value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Number of nodes recorded on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a constant input tensor.
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Input)
    }

    /// Records (or reuses) the node for parameter `id`.
    pub fn param(&mut self, id: ParamId) -> Var {
        if let Some(&v) = self.param_nodes.get(&id) {
            return v;
        }
        let value = self.params.value(id).clone();
        let v = self.push(value, Op::Param(id));
        self.param_nodes.insert(id, v);
        v
    }

    /// Elementwise sum of two same-shaped nodes.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.zip(&self.nodes[b.0].value, |x, y| x + y);
        self.push(value, Op::Add(a, b))
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.zip(&self.nodes[b.0].value, |x, y| x - y);
        self.push(value, Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.zip(&self.nodes[b.0].value, |x, y| x * y);
        self.push(value, Op::Mul(a, b))
    }

    /// Multiplies by a compile-time constant.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.nodes[a.0].value.map(|x| x * s);
        self.push(value, Op::Scale(a, s))
    }

    /// Adds a scalar constant.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let value = self.nodes[a.0].value.map(|x| x + s);
        self.push(value, Op::AddScalar(a))
    }

    /// `[r, d] + [s, d]` broadcast: rhs rows are tiled along the row axis.
    ///
    /// Used for bias addition (`s == 1`) and positional embeddings
    /// (`s ==` sequence length, `r == batch * s`).
    ///
    /// # Panics
    ///
    /// Panics if shapes are not `[r, d]` / `[s, d]` with `r % s == 0`.
    pub fn add_broadcast_rows(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(av.rank(), 2, "add_broadcast_rows lhs must be rank 2");
        assert_eq!(bv.rank(), 2, "add_broadcast_rows rhs must be rank 2");
        let (r, d) = (av.shape()[0], av.shape()[1]);
        let (s, d2) = (bv.shape()[0], bv.shape()[1]);
        assert_eq!(d, d2, "broadcast width mismatch");
        assert!(s > 0 && r % s == 0, "rows {r} not a multiple of broadcast rows {s}");
        let mut out = av.clone();
        crate::kernels::add_rows_broadcast(out.data_mut(), bv.data(), d, s);
        self.push(out, Op::AddBroadcastRows(a, b))
    }

    /// Rank-2 matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(value, Op::Matmul(a, b))
    }

    /// Rank-3 batched matrix product.
    pub fn batch_matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.batch_matmul(&self.nodes[b.0].value);
        self.push(value, Op::BatchMatmul(a, b))
    }

    /// Reshape (element order preserved).
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let value = self.nodes[a.0].value.reshaped(shape);
        self.push(value, Op::Reshape(a))
    }

    /// Axis permutation.
    pub fn permute(&mut self, a: Var, axes: &[usize]) -> Var {
        let value = self.nodes[a.0].value.permuted(axes);
        self.push(value, Op::Permute(a, axes.to_vec()))
    }

    /// Softmax along the last axis (numerically stabilised).
    pub fn softmax(&mut self, a: Var) -> Var {
        let x = &self.nodes[a.0].value;
        let d = *x.shape().last().expect("softmax needs rank >= 1");
        let mut out = x.clone();
        crate::kernels::softmax_last_axis(out.data_mut(), d);
        self.push(out, Op::Softmax(a))
    }

    /// Layer normalisation over the last axis with learned `gamma`/`beta`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma`/`beta` are not `[d]` vectors matching the last axis.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let xv = &self.nodes[x.0].value;
        let d = *xv.shape().last().expect("layer_norm needs rank >= 1");
        let gv = &self.nodes[gamma.0].value;
        let bv = &self.nodes[beta.0].value;
        assert_eq!(gv.numel(), d, "gamma size");
        assert_eq!(bv.numel(), d, "beta size");
        let mut out = xv.clone();
        crate::kernels::layer_norm_last_axis(out.data_mut(), d, gv.data(), bv.data(), eps);
        self.push(out, Op::LayerNorm { x, gamma, beta, eps })
    }

    /// GELU activation (tanh approximation).
    pub fn gelu(&mut self, a: Var) -> Var {
        let mut value = self.nodes[a.0].value.clone();
        crate::kernels::gelu_in_place(value.data_mut());
        self.push(value, Op::Gelu(a))
    }

    /// ReLU activation.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|x| x.max(0.0));
        self.push(value, Op::Relu(a))
    }

    /// Gathers rows of a rank-2 node: `out[i] = a[rows[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not rank 2 or an index is out of bounds.
    pub fn gather_rows(&mut self, a: Var, rows: &[usize]) -> Var {
        let av = &self.nodes[a.0].value;
        assert_eq!(av.rank(), 2, "gather_rows needs rank 2");
        let d = av.shape()[1];
        let mut data = Vec::with_capacity(rows.len() * d);
        for &r in rows {
            data.extend_from_slice(av.row(r));
        }
        let value = Tensor::from_vec(data, &[rows.len(), d]);
        self.push(value, Op::GatherRows(a, rows.to_vec()))
    }

    /// Builds a token matrix from encoder rows and a learned fill token.
    ///
    /// `map[i] = Some(j)` copies row `j` of `src`; `None` copies the single
    /// row of `fill` (the paper's zero-vector slot, implemented as a learned
    /// mask token). Gradients flow to both parents.
    ///
    /// # Panics
    ///
    /// Panics if widths differ, `fill` is not a single row, or an index is
    /// out of bounds.
    pub fn compose_tokens(&mut self, src: Var, fill: Var, map: &[Option<usize>]) -> Var {
        let sv = &self.nodes[src.0].value;
        let fv = &self.nodes[fill.0].value;
        assert_eq!(sv.rank(), 2, "compose_tokens src rank");
        assert_eq!(fv.rank(), 2, "compose_tokens fill rank");
        assert_eq!(fv.shape()[0], 1, "fill must be a single row");
        let d = sv.shape()[1];
        assert_eq!(fv.shape()[1], d, "fill width mismatch");
        let mut data = Vec::with_capacity(map.len() * d);
        for slot in map {
            match slot {
                Some(j) => data.extend_from_slice(sv.row(*j)),
                None => data.extend_from_slice(fv.row(0)),
            }
        }
        let value = Tensor::from_vec(data, &[map.len(), d]);
        self.push(value, Op::ComposeTokens { src, fill, map: map.to_vec() })
    }

    /// Scalar mean of all elements.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.nodes[a.0].value.mean());
        self.push(value, Op::MeanAll(a))
    }

    /// Mean absolute error against a constant target (L1 loss).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn l1_loss(&mut self, x: Var, target: &Tensor) -> Var {
        let xv = &self.nodes[x.0].value;
        assert_eq!(xv.shape(), target.shape(), "l1_loss shape mismatch");
        let value = Tensor::scalar(xv.zip(target, |a, b| (a - b).abs()).mean());
        self.push(value, Op::L1Loss { x, target: target.clone() })
    }

    /// Mean of `w * (x - t)^2` with constant weights (perceptual loss term).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn weighted_mse_loss(&mut self, x: Var, target: &Tensor, weights: &Tensor) -> Var {
        let xv = &self.nodes[x.0].value;
        assert_eq!(xv.shape(), target.shape(), "weighted_mse shape mismatch");
        assert_eq!(xv.shape(), weights.shape(), "weighted_mse weights mismatch");
        let n = xv.numel().max(1) as f32;
        let mut acc = 0.0f64;
        for i in 0..xv.numel() {
            let d = xv.data()[i] - target.data()[i];
            acc += (weights.data()[i] * d * d) as f64;
        }
        let value = Tensor::scalar((acc / n as f64) as f32);
        self.push(
            value,
            Op::WeightedMseLoss { x, target: target.clone(), weights: weights.clone() },
        )
    }

    /// Runs reverse-mode accumulation from a scalar `loss` node.
    ///
    /// Returns per-parameter gradients. Node gradients are discarded after
    /// the walk; the tape can keep being extended afterwards if desired.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(self.nodes[loss.0].value.numel(), 1, "backward needs a scalar loss");
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::scalar(1.0));
        let mut out = Gradients::default();

        for idx in (0..=loss.0).rev() {
            let Some(g) = grads[idx].take() else { continue };
            match &self.nodes[idx].op {
                Op::Input => {}
                Op::Param(id) => {
                    out.by_param.entry(*id).and_modify(|acc| acc.axpy(1.0, &g)).or_insert(g);
                }
                Op::Add(a, b) => {
                    accumulate(&mut grads, *a, &g);
                    accumulate(&mut grads, *b, &g);
                }
                Op::Sub(a, b) => {
                    accumulate(&mut grads, *a, &g);
                    let neg = g.map(|x| -x);
                    accumulate(&mut grads, *b, &neg);
                }
                Op::Mul(a, b) => {
                    let ga = g.zip(&self.nodes[b.0].value, |x, y| x * y);
                    let gb = g.zip(&self.nodes[a.0].value, |x, y| x * y);
                    accumulate(&mut grads, *a, &ga);
                    accumulate(&mut grads, *b, &gb);
                }
                Op::Scale(a, s) => {
                    let ga = g.map(|x| x * s);
                    accumulate(&mut grads, *a, &ga);
                }
                Op::AddScalar(a) => accumulate(&mut grads, *a, &g),
                Op::AddBroadcastRows(a, b) => {
                    accumulate(&mut grads, *a, &g);
                    let bshape = self.nodes[b.0].value.shape().to_vec();
                    let (s, d) = (bshape[0], bshape[1]);
                    let mut gb = Tensor::zeros(&bshape);
                    let r = g.shape()[0];
                    for i in 0..r {
                        let grow = g.row(i);
                        let target = &mut gb.data_mut()[(i % s) * d..(i % s + 1) * d];
                        for (t, &x) in target.iter_mut().zip(grow) {
                            *t += x;
                        }
                    }
                    accumulate(&mut grads, *b, &gb);
                }
                Op::Matmul(a, b) => {
                    let av = &self.nodes[a.0].value;
                    let bv = &self.nodes[b.0].value;
                    let ga = g.matmul(&bv.transpose2());
                    let gb = av.transpose2().matmul(&g);
                    accumulate(&mut grads, *a, &ga);
                    accumulate(&mut grads, *b, &gb);
                }
                Op::BatchMatmul(a, b) => {
                    let av = &self.nodes[a.0].value;
                    let bv = &self.nodes[b.0].value;
                    let ga = g.batch_matmul(&bv.transpose_last2());
                    let gb = av.transpose_last2().batch_matmul(&g);
                    accumulate(&mut grads, *a, &ga);
                    accumulate(&mut grads, *b, &gb);
                }
                Op::Reshape(a) => {
                    let orig = self.nodes[a.0].value.shape().to_vec();
                    let ga = g.reshaped(&orig);
                    accumulate(&mut grads, *a, &ga);
                }
                Op::Permute(a, axes) => {
                    let inv = inverse_permutation(axes);
                    let ga = g.permuted(&inv);
                    accumulate(&mut grads, *a, &ga);
                }
                Op::Softmax(a) => {
                    // dx = y * (dy - sum(dy * y)) per softmax row.
                    let y = &self.nodes[idx].value;
                    let d = *y.shape().last().expect("softmax rank");
                    let mut dx = Tensor::zeros(y.shape());
                    let rows = y.numel() / d;
                    for r in 0..rows {
                        let ys = &y.data()[r * d..(r + 1) * d];
                        let gs = &g.data()[r * d..(r + 1) * d];
                        let dot: f32 = ys.iter().zip(gs).map(|(&a, &b)| a * b).sum();
                        let ds = &mut dx.data_mut()[r * d..(r + 1) * d];
                        for j in 0..d {
                            ds[j] = ys[j] * (gs[j] - dot);
                        }
                    }
                    accumulate(&mut grads, *a, &dx);
                }
                Op::LayerNorm { x, gamma, beta, eps } => {
                    let xv = &self.nodes[x.0].value;
                    let gv = &self.nodes[gamma.0].value;
                    let d = *xv.shape().last().expect("ln rank");
                    let rows = xv.numel() / d;
                    let mut dx = Tensor::zeros(xv.shape());
                    let mut dgamma = Tensor::zeros(gv.shape());
                    let mut dbeta = Tensor::zeros(gv.shape());
                    for r in 0..rows {
                        let xs = &xv.data()[r * d..(r + 1) * d];
                        let gs = &g.data()[r * d..(r + 1) * d];
                        let mean = xs.iter().sum::<f32>() / d as f32;
                        let var =
                            xs.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
                        let inv = 1.0 / (var + eps).sqrt();
                        // xhat_j = (x_j - mean) * inv
                        // dy/dxhat = g_j * gamma_j
                        let mut sum_dxhat = 0.0f32;
                        let mut sum_dxhat_xhat = 0.0f32;
                        for j in 0..d {
                            let xhat = (xs[j] - mean) * inv;
                            let dxhat = gs[j] * gv.data()[j];
                            sum_dxhat += dxhat;
                            sum_dxhat_xhat += dxhat * xhat;
                            dgamma.data_mut()[j] += gs[j] * xhat;
                            dbeta.data_mut()[j] += gs[j];
                        }
                        let ds = &mut dx.data_mut()[r * d..(r + 1) * d];
                        for j in 0..d {
                            let xhat = (xs[j] - mean) * inv;
                            let dxhat = gs[j] * gv.data()[j];
                            ds[j] = inv / d as f32
                                * (d as f32 * dxhat - sum_dxhat - xhat * sum_dxhat_xhat);
                        }
                    }
                    accumulate(&mut grads, *x, &dx);
                    accumulate(&mut grads, *gamma, &dgamma);
                    accumulate(&mut grads, *beta, &dbeta);
                }
                Op::Gelu(a) => {
                    let ga = self.nodes[a.0].value.zip(&g, |x, gy| gelu_bwd(x) * gy);
                    accumulate(&mut grads, *a, &ga);
                }
                Op::Relu(a) => {
                    let ga = self.nodes[a.0].value.zip(&g, |x, gy| if x > 0.0 { gy } else { 0.0 });
                    accumulate(&mut grads, *a, &ga);
                }
                Op::GatherRows(a, rows) => {
                    let shape = self.nodes[a.0].value.shape().to_vec();
                    let d = shape[1];
                    let mut ga = Tensor::zeros(&shape);
                    for (i, &r) in rows.iter().enumerate() {
                        let grow = g.row(i);
                        let target = &mut ga.data_mut()[r * d..(r + 1) * d];
                        for (t, &x) in target.iter_mut().zip(grow) {
                            *t += x;
                        }
                    }
                    accumulate(&mut grads, *a, &ga);
                }
                Op::ComposeTokens { src, fill, map } => {
                    let sshape = self.nodes[src.0].value.shape().to_vec();
                    let d = sshape[1];
                    let mut gsrc = Tensor::zeros(&sshape);
                    let mut gfill = Tensor::zeros(&[1, d]);
                    for (i, slot) in map.iter().enumerate() {
                        let grow = g.row(i);
                        match slot {
                            Some(j) => {
                                let target = &mut gsrc.data_mut()[j * d..(j + 1) * d];
                                for (t, &x) in target.iter_mut().zip(grow) {
                                    *t += x;
                                }
                            }
                            None => {
                                for (t, &x) in gfill.data_mut().iter_mut().zip(grow) {
                                    *t += x;
                                }
                            }
                        }
                    }
                    accumulate(&mut grads, *src, &gsrc);
                    accumulate(&mut grads, *fill, &gfill);
                }
                Op::MeanAll(a) => {
                    let n = self.nodes[a.0].value.numel().max(1) as f32;
                    let ga = Tensor::full(self.nodes[a.0].value.shape(), g.item() / n);
                    accumulate(&mut grads, *a, &ga);
                }
                Op::L1Loss { x, target } => {
                    let n = target.numel().max(1) as f32;
                    let s = g.item() / n;
                    let ga = self.nodes[x.0].value.zip(target, |a, b| {
                        if a > b {
                            s
                        } else if a < b {
                            -s
                        } else {
                            0.0
                        }
                    });
                    accumulate(&mut grads, *x, &ga);
                }
                Op::WeightedMseLoss { x, target, weights } => {
                    let n = target.numel().max(1) as f32;
                    let s = 2.0 * g.item() / n;
                    let xv = &self.nodes[x.0].value;
                    let mut ga = Tensor::zeros(xv.shape());
                    for i in 0..xv.numel() {
                        ga.data_mut()[i] =
                            s * weights.data()[i] * (xv.data()[i] - target.data()[i]);
                    }
                    accumulate(&mut grads, *x, &ga);
                }
            }
        }
        out
    }
}

/// The tape executor: each op records the nodes of the inherent ops it is
/// made of (e.g. `linear` = the `w` and `b` param nodes, `matmul`,
/// `add_broadcast_rows`), and [`free`](Executor::free) is a no-op because
/// every node stays on the tape for [`Graph::backward`].
impl Executor for Graph<'_> {
    type Value = Var;

    fn linear(&mut self, x: &Var, w: ParamId, b: ParamId) -> Var {
        let w = self.param(w);
        let b = self.param(b);
        let y = self.matmul(*x, w);
        self.add_broadcast_rows(y, b)
    }

    fn layer_norm(&mut self, x: &Var, gamma: ParamId, beta: ParamId, eps: f32) -> Var {
        let gamma = self.param(gamma);
        let beta = self.param(beta);
        self.layer_norm(*x, gamma, beta, eps)
    }

    fn gelu(&mut self, x: Var) -> Var {
        self.gelu(x)
    }

    fn scale(&mut self, x: Var, s: f32) -> Var {
        self.scale(x, s)
    }

    fn softmax(&mut self, x: Var) -> Var {
        self.softmax(x)
    }

    fn add(&mut self, x: Var, h: Var) -> Var {
        self.add(x, h)
    }

    fn reshape(&mut self, x: Var, shape: &[usize]) -> Var {
        self.reshape(x, shape)
    }

    fn permute(&mut self, x: Var, axes: &[usize]) -> Var {
        self.permute(x, axes)
    }

    fn batch_matmul(&mut self, a: Var, b: Var) -> Var {
        self.batch_matmul(a, b)
    }

    fn gather_input(&mut self, src: &Tensor, rows: &[usize]) -> Var {
        let src = self.input(src.clone());
        self.gather_rows(src, rows)
    }

    fn gather_rows(&mut self, x: &Var, rows: &[usize]) -> Var {
        self.gather_rows(*x, rows)
    }

    fn gather_param(&mut self, id: ParamId, rows: &[usize]) -> Var {
        let src = self.param(id);
        self.gather_rows(src, rows)
    }

    fn add_rows(&mut self, x: Var, rows: Var) -> Var {
        self.add_broadcast_rows(x, rows)
    }

    fn add_param_rows(&mut self, x: Var, id: ParamId) -> Var {
        let rows = self.param(id);
        self.add_broadcast_rows(x, rows)
    }

    fn compose_tokens(&mut self, src: Var, fill: ParamId, map: &[Option<usize>]) -> Var {
        let fill = self.param(fill);
        self.compose_tokens(src, fill, map)
    }

    fn free(&mut self, _: Var) {}
}

fn accumulate(grads: &mut [Option<Tensor>], v: Var, g: &Tensor) {
    match &mut grads[v.0] {
        Some(acc) => acc.axpy(1.0, g),
        slot @ None => *slot = Some(g.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;

    /// Finite-difference check of `d loss / d param` for a given builder.
    fn check_grads(
        params: &mut ParamSet,
        build: impl Fn(&mut Graph<'_>, &ParamSet) -> Var,
        tol: f32,
    ) {
        let analytic = {
            let g = &mut Graph::new(params);
            let loss = build(g, params);
            g.backward(loss)
        };
        let eps = 1e-2f32;
        let ids: Vec<ParamId> = params.ids().collect();
        for id in ids {
            let n = params.value(id).numel();
            for i in 0..n.min(6) {
                let orig = params.value(id).data()[i];
                params.value_mut(id).data_mut()[i] = orig + eps;
                let lp = {
                    let g = &mut Graph::new(params);
                    let loss = build(g, params);
                    g.value(loss).item()
                };
                params.value_mut(id).data_mut()[i] = orig - eps;
                let lm = {
                    let g = &mut Graph::new(params);
                    let loss = build(g, params);
                    g.value(loss).item()
                };
                params.value_mut(id).data_mut()[i] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let got = analytic.get(id).map(|t| t.data()[i]).unwrap_or(0.0);
                assert!(
                    (numeric - got).abs() < tol.max(0.05 * numeric.abs()),
                    "param {:?} elem {}: numeric {} vs analytic {}",
                    id,
                    i,
                    numeric,
                    got
                );
            }
        }
    }

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

    #[test]
    fn grad_matmul_chain() {
        let mut p = ParamSet::new();
        let w1 = p.add("w1", seeded(&[3, 4], 1));
        let w2 = p.add("w2", seeded(&[4, 2], 2));
        check_grads(
            &mut p,
            |g, _| {
                let x = g.input(seeded(&[2, 3], 3));
                let (w1v, w2v) = (g.param(w1), g.param(w2));
                let h = g.matmul(x, w1v);
                let h = g.gelu(h);
                let y = g.matmul(h, w2v);
                g.mean_all(y)
            },
            2e-3,
        );
    }

    #[test]
    fn grad_softmax_attention_shape() {
        let mut p = ParamSet::new();
        let q = p.add("q", seeded(&[2, 4, 3], 5));
        let k = p.add("k", seeded(&[2, 4, 3], 6));
        check_grads(
            &mut p,
            |g, _| {
                let (qv, kv) = (g.param(q), g.param(k));
                let kt = g.permute(kv, &[0, 2, 1]);
                let scores = g.batch_matmul(qv, kt);
                let scores = g.scale(scores, 1.0 / 3f32.sqrt());
                let attn = g.softmax(scores);
                g.mean_all(attn)
            },
            5e-3,
        );
    }

    #[test]
    fn grad_layer_norm() {
        let mut p = ParamSet::new();
        let x = p.add("x", seeded(&[3, 5], 7));
        let gamma = p.add("gamma", Tensor::full(&[5], 1.2));
        let beta = p.add("beta", Tensor::full(&[5], -0.1));
        check_grads(
            &mut p,
            |g, _| {
                let (xv, gv, bv) = (g.param(x), g.param(gamma), g.param(beta));
                let y = g.layer_norm(xv, gv, bv, 1e-5);
                let t = Tensor::full(&[3, 5], 0.3);
                g.weighted_mse_loss(y, &t, &Tensor::full(&[3, 5], 1.0))
            },
            5e-2,
        );
    }

    #[test]
    fn grad_compose_and_gather() {
        let mut p = ParamSet::new();
        let src = p.add("src", seeded(&[3, 4], 9));
        let fill = p.add("fill", seeded(&[1, 4], 10));
        check_grads(
            &mut p,
            |g, _| {
                let (sv, fv) = (g.param(src), g.param(fill));
                let map = [Some(2), None, Some(0), None, Some(1)];
                let seq = g.compose_tokens(sv, fv, &map);
                let picked = g.gather_rows(seq, &[1, 3, 4]);
                let t = Tensor::full(&[3, 4], 0.2);
                g.l1_loss(picked, &t)
            },
            5e-3,
        );
    }

    #[test]
    fn grad_broadcast_bias() {
        let mut p = ParamSet::new();
        let b = p.add("b", seeded(&[1, 4], 11));
        let pos = p.add("pos", seeded(&[2, 4], 12));
        check_grads(
            &mut p,
            |g, _| {
                let x = g.input(seeded(&[6, 4], 13));
                let (bv, pv) = (g.param(b), g.param(pos));
                let y = g.add_broadcast_rows(x, bv);
                let y = g.add_broadcast_rows(y, pv);
                g.mean_all(y)
            },
            2e-3,
        );
    }

    #[test]
    fn gradients_iterate_in_param_id_order() {
        // Cross-process training determinism depends on this: HashMap order
        // would randomize float-reduction order (e.g. the clipping norm).
        let mut p = ParamSet::new();
        let ids: Vec<ParamId> =
            (0..12).map(|i| p.add(format!("w{i}"), Tensor::full(&[2], i as f32))).collect();
        let mut g = Graph::new(&p);
        let vars: Vec<Var> = ids.iter().map(|&id| g.param(id)).collect();
        let sum = vars[1..].iter().fold(vars[0], |a, &b| g.add(a, b));
        let loss = g.mean_all(sum);
        let grads = g.backward(loss);
        let seen: Vec<ParamId> = grads.iter().map(|(id, _)| id).collect();
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(seen, sorted);
        assert_eq!(seen.len(), ids.len());
    }

    #[test]
    fn param_node_is_deduplicated() {
        let mut p = ParamSet::new();
        let w = p.add("w", Tensor::full(&[2, 2], 1.0));
        let mut g = Graph::new(&p);
        let a = g.param(w);
        let b = g.param(w);
        assert_eq!(a, b);
    }

    #[test]
    fn gradients_global_norm_and_scale() {
        let mut p = ParamSet::new();
        let w = p.add("w", Tensor::full(&[2], 3.0));
        let mut g = Graph::new(&p);
        let wv = g.param(w);
        let loss = g.mean_all(wv);
        let mut grads = g.backward(loss);
        // d mean / d w_i = 1/2 for both elements -> norm = sqrt(0.5).
        let norm = grads.global_norm();
        assert!((norm - 0.5f32.sqrt()).abs() < 1e-5);
        grads.scale(0.5);
        assert!((grads.global_norm() - norm * 0.5).abs() < 1e-6);
    }

    fn shard_with(id: ParamId, values: &[f32]) -> Gradients {
        let mut by_param = HashMap::new();
        by_param.insert(id, Tensor::from_vec(values.to_vec(), &[values.len()]));
        Gradients { by_param }
    }

    #[test]
    fn tree_reduce_pins_the_pairwise_grouping() {
        // Values where the float grouping is observable: at f32 precision
        // (1e8 + 1) == 1e8 and (-1e8 + 1) == -1e8, so the fixed pairwise
        // tree ((g0+g1) + (g2+g3)) yields exactly 0.0 while a left fold
        // (((g0+g1)+g2)+g3) yields 1.0. This is the regression pin for the
        // reduction order: any regrouping of the shard sum changes the bits
        // here before it can silently change training runs.
        let mut p = ParamSet::new();
        let w = p.add("w", Tensor::zeros(&[2]));
        let shards =
            vec![1e8f32, 1.0, -1e8, 1.0].into_iter().map(|v| shard_with(w, &[v, -v])).collect();
        let reduced = Gradients::tree_reduce(shards);
        let got = reduced.get(w).expect("reduced gradient");
        assert_eq!(got.data()[0].to_bits(), 0.0f32.to_bits(), "pairwise tree changed");
        assert_eq!(got.data()[1].to_bits(), 0.0f32.to_bits(), "pairwise tree changed");
        // The same inputs left-folded really would differ — guards against
        // the pin accidentally testing an order-insensitive quantity.
        let fold = ((1e8f32 + 1.0) + -1e8) + 1.0;
        assert_ne!(fold.to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn tree_reduce_edge_cases() {
        // Zero shards: an empty gradient set.
        assert!(Gradients::tree_reduce(Vec::new()).is_empty());
        // One shard passes through bit-for-bit untouched.
        let mut p = ParamSet::new();
        let w = p.add("w", Tensor::zeros(&[3]));
        let single = Gradients::tree_reduce(vec![shard_with(w, &[0.1, -2.5, 3e7])]);
        let got = single.get(w).expect("gradient");
        for (a, b) in got.data().iter().zip([0.1f32, -2.5, 3e7]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A parameter missing from some shards still reduces (sparse tapes).
        let v = p.add("v", Tensor::zeros(&[1]));
        let mut with_both = shard_with(w, &[1.0, 1.0, 1.0]);
        with_both.by_param.insert(v, Tensor::from_vec(vec![5.0], &[1]));
        let reduced = Gradients::tree_reduce(vec![with_both, shard_with(w, &[1.0, 1.0, 1.0])]);
        assert_eq!(reduced.get(v).expect("sparse param").data(), &[5.0]);
        assert_eq!(reduced.get(w).expect("dense param").data(), &[2.0, 2.0, 2.0]);
    }
}
