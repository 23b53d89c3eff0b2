//! # vgod-autograd
//!
//! A tape-based reverse-mode automatic-differentiation engine over
//! [`vgod_tensor::Matrix`] values.
//!
//! The engine is eager: every operation computes its forward value
//! immediately and records a node on a shared [`Tape`]. Calling
//! [`Var::backward`] on a scalar (`1 × 1`) loss walks the tape in reverse,
//! accumulating gradients for every node; [`Var::backward_into`] additionally
//! deposits the gradients of trainable parameters into a [`ParamStore`] so an
//! optimizer can step them.
//!
//! The op set is exactly what graph neural networks need: dense GEMM in all
//! three transpose flavours, sparse message passing (`spmm`), elementwise
//! arithmetic and activations, row broadcasts, reductions, row
//! L2-normalisation, row gathering, per-segment softmax over edge scores and
//! the weighted scatter-add (`edge_aggregate`) that together form a GAT
//! attention head.
//!
//! ```
//! use vgod_autograd::{ParamStore, Tape};
//! use vgod_tensor::Matrix;
//!
//! let mut store = ParamStore::new();
//! let w = store.insert(Matrix::from_rows(&[&[0.5]]));
//!
//! let tape = Tape::new();
//! let x = tape.constant(Matrix::from_rows(&[&[2.0]]));
//! let wv = tape.param(&store, w);
//! let loss = x.matmul(&wv).sum_all(); // loss = 2 * w
//! loss.backward_into(&mut store);
//! assert_eq!(store.grad(w).as_slice(), &[2.0]);
//! ```
//!
//! Every operation's gradient is validated against central finite
//! differences in this crate's test suite (see `tests/grad_check.rs`).

#![warn(missing_docs)]

mod param;
pub mod persist;
mod tape;

pub use param::{Param, ParamId, ParamStore};
pub use tape::{
    edge_aggregate_forward, leaky_relu_forward, relu_forward, segment_softmax_forward, Gradients,
    Tape, Var,
};
