//! # easz-tensor
//!
//! A from-scratch `f32` tensor library with reverse-mode automatic
//! differentiation, written as the neural-network substrate of the Easz
//! image-compression reproduction (Mao et al., DAC 2025).
//!
//! The paper's reconstruction network is a small transformer encoder-decoder
//! trained with AdamW; this crate provides exactly the pieces that network
//! needs and nothing more:
//!
//! * [`Tensor`] — dense row-major storage plus the raw kernels (matmul,
//!   batched matmul, permutation) with thread-parallel inner loops.
//! * [`nn`] — the [`Executor`](nn::Executor) trait (the op vocabulary the
//!   transformer is written in) and `Linear`, `LayerNorm`,
//!   `MultiHeadAttention`, `FeedForward` and `TransformerBlock` layers
//!   mirroring Fig. 5 of the paper, each with one `forward` generic over the
//!   executor.
//! * [`Graph`] — the tape executor: a tape-based autodiff engine that records
//!   each op for a backward pass, plus the training losses.
//! * [`InferenceSession`] / [`ScratchArena`] — the arena executor: the same
//!   forwards run forward-only with in-place activations and preallocated,
//!   reusable buffers, optionally on an int8 tier. On the f32 tier it is
//!   byte-identical to the `Graph` (one definition, the same kernels in the
//!   same order).
//! * [`AdamW`] — decoupled weight decay Adam with optional gradient clipping.
//! * [`io`](crate::load_params) — a tiny binary weight format used for the
//!   paper's model-size accounting (the 8.7 MB claim) and for caching
//!   pretrained weights.
//!
//! ```
//! use easz_tensor::{init, nn, Graph, InferenceSession, ParamSet, ScratchArena, Tensor};
//!
//! # fn main() {
//! let mut params = ParamSet::new();
//! let mut rng = init::rng(42);
//! let block = nn::TransformerBlock::new(&mut params, &mut rng, "blk", 16, 4, 32);
//! let tokens = init::uniform(&mut rng, &[2 * 8, 16], -1.0, 1.0); // 2 patches x 8 tokens
//!
//! // Training: the forward records onto a tape.
//! let mut graph = Graph::new(&params);
//! let x = graph.input(tokens.clone());
//! let taped = block.forward(&mut graph, x, 2, 8);
//! assert_eq!(graph.value(taped).shape(), &[16, 16]);
//!
//! // Inference: the same forward on arena buffers, bit for bit.
//! let mut arena = ScratchArena::new();
//! let mut session = InferenceSession::new(&params, &mut arena);
//! let x = session.copy_in(&tokens);
//! let out = block.forward(&mut session, x, 2, 8);
//! assert_eq!(out.data(), graph.value(taped).data());
//! session.free(out);
//! # }
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod alloc;
mod graph;
mod infer;
pub mod init;
mod io;
mod kernels;
pub mod nn;
mod optim;
pub mod parallel;
mod params;
mod quant;
mod tensor;

pub use graph::{Gradients, Graph, Var};
pub use infer::{InferenceSession, ScratchArena, ScratchTensor, TensorView};
pub use io::{
    load_params, load_params_file, save_params, save_params_file, serialized_size, WeightsError,
};
pub use optim::{AdamW, AdamWConfig};
pub use params::{ParamId, ParamSet};
pub use quant::{QuantizedMatrix, QuantizedParams};
pub use tensor::{inverse_permutation, strides_of, Tensor};
