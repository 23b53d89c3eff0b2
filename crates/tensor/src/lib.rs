//! # vgod-tensor
//!
//! Dense row-major `f32` matrices and CSR sparse matrices — the numeric
//! substrate underneath the `vgod-rs` workspace.
//!
//! The crate deliberately implements only the kernels the VGOD paper's
//! models need (dense GEMM in its three transpose flavours, elementwise
//! arithmetic, row broadcasts, reductions, row L2-normalisation, and sparse
//! × dense products for message passing), but implements them carefully:
//! large matrix products are split into row bands executed on a persistent
//! worker pool (see [`threading`]), the band bodies run dispatched SIMD
//! micro-kernels (AVX2+FMA with a portable unrolled fallback, see [`simd`]),
//! and every public operation validates its shape preconditions.
//!
//! ```
//! use vgod_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::eye(2);
//! assert_eq!(a.matmul(&b), a);
//! ```

#![warn(missing_docs)]

pub mod arena;
mod csr;
mod kernels;
mod matrix;
mod parallel;
mod pool;
pub mod simd;

pub use csr::Csr;
pub use kernels::AdamStep;
pub use matrix::Matrix;

/// Thread-pool configuration for the parallel kernels, plus the shared
/// indexed-task dispatcher ([`threading::run_indexed`]) other crates use to
/// fan independent work units (e.g. out-of-core score batches) across the
/// same persistent pool.
pub mod threading {
    pub use crate::pool::{
        force_sequential, num_threads, run_indexed, set_num_threads, ThreadCountAlreadySet,
    };

    /// Exported so tests can size products that are sure to engage the pool.
    #[doc(hidden)]
    pub use crate::parallel::GEMM_FLOP_THRESHOLD;
}

/// Error type for fallible tensor constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Data length does not match the requested shape.
    ShapeMismatch {
        /// Expected number of elements (`rows * cols`).
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// An edge endpoint or column index is out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The exclusive bound it violated.
        bound: usize,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "shape mismatch: expected {expected} elements, got {actual}"
                )
            }
            TensorError::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds ({bound})")
            }
        }
    }
}

impl std::error::Error for TensorError {}
