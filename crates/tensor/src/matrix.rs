//! Dense row-major `f32` matrix.

use crate::kernels;
use crate::parallel::{
    for_each_chunk3, for_each_row_band, for_each_row_chunk, row_chunks, threads_for,
    ELEMWISE_THRESHOLD, GEMM_FLOP_THRESHOLD,
};
use crate::{AdamStep, TensorError};

/// Thread count for a streaming elementwise kernel over `len` elements.
fn elem_threads(len: usize) -> usize {
    threads_for(len, ELEMWISE_THRESHOLD)
}

/// A dense, row-major matrix of `f32` values.
///
/// `Matrix` is the workhorse value type of the whole workspace: node
/// attribute matrices, hidden representations, weights and gradients are all
/// `Matrix` values. A vector is represented as an `n × 1` (column) or
/// `1 × d` (row) matrix.
///
/// Storage is allocated through the thread-local [`crate::arena`]: inside an
/// [`crate::arena::scope`], dropped matrices donate their buffers to a free
/// list and new matrices of the same size reuse them. Recycled buffers are
/// always fully overwritten before reuse, so results never depend on whether
/// a buffer was fresh or recycled.
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: crate::arena::alloc_copy(&self.data),
        }
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        crate::arena::release(std::mem::take(&mut self.data));
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// An all-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: crate::arena::alloc_zeroed(rows * cols),
        }
    }

    /// A matrix of the given shape with every element set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: crate::arena::alloc_filled(rows * cols, value),
        }
    }

    /// Build from a flat row-major buffer. Fails if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Build from row slices (all rows must have equal length).
    ///
    /// # Panics
    /// Panics if rows have differing lengths. Intended for tests and small
    /// literals; use [`Matrix::from_vec`] for data paths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows passed to Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build element-by-element from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// A `1 × d` row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// An `n × 1` column vector.
    pub fn column_vector(values: &[f32]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    // ------------------------------------------------------------------
    // Shape & access
    // ------------------------------------------------------------------

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat row-major mutable view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat row-major buffer.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic
    // ------------------------------------------------------------------

    fn assert_same_shape(&self, other: &Matrix, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }

    /// Banded elementwise combination through a dispatched SIMD kernel.
    fn zip_kernel(
        &self,
        other: &Matrix,
        op: &str,
        kernel: fn(&mut [f32], &[f32], &[f32]),
    ) -> Matrix {
        self.assert_same_shape(other, op);
        let mut data = crate::arena::alloc_zeroed(self.data.len());
        let (a, b) = (&self.data, &other.data);
        for_each_row_band(
            &mut data,
            1,
            a.len(),
            elem_threads(a.len()),
            |s, e, band| {
                kernel(band, &a[s..e], &b[s..e]);
            },
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise sum `self + other`.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_kernel(other, "add", kernels::zip_add)
    }

    /// Elementwise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_kernel(other, "sub", kernels::zip_sub)
    }

    /// Hadamard (elementwise) product `self ∘ other`.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        self.zip_kernel(other, "mul", kernels::zip_mul)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.assert_same_shape(other, "add_assign");
        let b = &other.data;
        for_each_row_band(
            &mut self.data,
            1,
            b.len(),
            elem_threads(b.len()),
            |s, e, band| {
                kernels::add_inplace(band, &b[s..e]);
            },
        );
    }

    /// In-place `self += alpha * other` (axpy).
    pub fn add_scaled(&mut self, alpha: f32, other: &Matrix) {
        self.assert_same_shape(other, "add_scaled");
        let b = &other.data;
        for_each_row_band(
            &mut self.data,
            1,
            b.len(),
            elem_threads(b.len()),
            |s, e, band| {
                kernels::axpy(band, alpha, &b[s..e]);
            },
        );
    }

    /// Scalar product `alpha * self`.
    pub fn scale(&self, alpha: f32) -> Matrix {
        let mut data = crate::arena::alloc_zeroed(self.data.len());
        let src = &self.data;
        for_each_row_band(
            &mut data,
            1,
            src.len(),
            elem_threads(src.len()),
            |s, e, band| {
                kernels::scale(band, &src[s..e], alpha);
            },
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place scalar product.
    pub fn scale_inplace(&mut self, alpha: f32) {
        let len = self.data.len();
        for_each_row_band(&mut self.data, 1, len, elem_threads(len), |_, _, band| {
            kernels::scale_inplace(band, alpha);
        });
    }

    /// Set every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Apply `f` to every element, producing a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut data = crate::arena::alloc_zeroed(self.data.len());
        let src = &self.data;
        for_each_row_band(
            &mut data,
            1,
            src.len(),
            elem_threads(src.len()),
            |s, e, band| {
                for (d, &v) in band.iter_mut().zip(&src[s..e]) {
                    *d = f(v);
                }
            },
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        let len = self.data.len();
        for_each_row_band(&mut self.data, 1, len, elem_threads(len), |_, _, band| {
            for v in band.iter_mut() {
                *v = f(*v);
            }
        });
    }

    /// Combine with `other` elementwise into a new matrix:
    /// `out[i] = f(self[i], other[i])`.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32 + Sync) -> Matrix {
        self.assert_same_shape(other, "zip_map");
        let mut data = crate::arena::alloc_zeroed(self.data.len());
        let (a, b) = (&self.data, &other.data);
        for_each_row_band(
            &mut data,
            1,
            a.len(),
            elem_threads(a.len()),
            |s, e, band| {
                for ((d, &x), &y) in band.iter_mut().zip(&a[s..e]).zip(&b[s..e]) {
                    *d = f(x, y);
                }
            },
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Update every element in place from the matching element of `other`:
    /// `f(&mut self[i], other[i])`.
    pub fn zip_apply(&mut self, other: &Matrix, f: impl Fn(&mut f32, f32) + Sync) {
        self.assert_same_shape(other, "zip_apply");
        let b = &other.data;
        for_each_row_band(
            &mut self.data,
            1,
            b.len(),
            elem_threads(b.len()),
            |s, e, band| {
                for (a, &y) in band.iter_mut().zip(&b[s..e]) {
                    f(a, y);
                }
            },
        );
    }

    /// Fused elementwise update over three mutable matrices and one source:
    /// `f(&mut self[i], &mut b[i], &mut c[i], src[i])` for every element, in
    /// one memory pass. This is the shape of an optimizer step (parameter +
    /// first/second moment buffers updated from the gradient); fusing the
    /// pass matters because these kernels are purely memory-bound.
    pub fn zip_apply3(
        &mut self,
        b: &mut Matrix,
        c: &mut Matrix,
        src: &Matrix,
        f: impl Fn(&mut f32, &mut f32, &mut f32, f32) + Sync,
    ) {
        self.assert_same_shape(b, "zip_apply3");
        self.assert_same_shape(c, "zip_apply3");
        self.assert_same_shape(src, "zip_apply3");
        let len = self.data.len();
        let g = &src.data;
        for_each_chunk3(
            &mut self.data,
            &mut b.data,
            &mut c.data,
            elem_threads(len),
            |s, ca, cb, cc| {
                for (((a, bb), cv), &gv) in ca
                    .iter_mut()
                    .zip(cb.iter_mut())
                    .zip(cc.iter_mut())
                    .zip(&g[s..])
                {
                    f(a, bb, cv, gv);
                }
            },
        );
    }

    /// Fused Adam update through the dispatched SIMD kernel: `self` is the
    /// parameter, `m`/`v` the first/second moment buffers, `g` the gradient.
    /// One memory pass over all four buffers; bitwise identical across ISA
    /// paths (the kernel deliberately avoids FMA contraction).
    pub fn fused_adam_step(&mut self, m: &mut Matrix, v: &mut Matrix, g: &Matrix, step: &AdamStep) {
        self.assert_same_shape(m, "fused_adam_step");
        self.assert_same_shape(v, "fused_adam_step");
        self.assert_same_shape(g, "fused_adam_step");
        let len = self.data.len();
        let grad = &g.data;
        let step = *step;
        for_each_chunk3(
            &mut self.data,
            &mut m.data,
            &mut v.data,
            elem_threads(len),
            |s, cp, cm, cv| {
                kernels::fused_adam(cp, cm, cv, &grad[s..s + cp.len()], &step);
            },
        );
    }

    /// Run `f` over every row (with its row index), rows distributed across
    /// the worker pool when the matrix is large enough.
    pub fn par_rows_mut(&mut self, f: impl Fn(usize, &mut [f32]) + Sync) {
        let threads = threads_for(self.data.len(), ELEMWISE_THRESHOLD);
        let (rows, cols) = (self.rows, self.cols);
        for_each_row_band(&mut self.data, cols, rows, threads, |s, e, band| {
            for (local, r) in (s..e).enumerate() {
                f(r, &mut band[local * cols..(local + 1) * cols]);
            }
        });
    }

    // ------------------------------------------------------------------
    // Broadcasts
    // ------------------------------------------------------------------

    /// Add a `1 × cols` row vector to every row (bias addition).
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(
            row.rows, 1,
            "add_row_broadcast: rhs must be a 1×d row vector"
        );
        assert_eq!(row.cols, self.cols, "add_row_broadcast: column mismatch");
        let mut out = self.clone();
        let src = &row.data;
        out.par_rows_mut(|_, dst| {
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        });
        out
    }

    /// Multiply every row elementwise by a `1 × cols` row vector.
    pub fn mul_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(
            row.rows, 1,
            "mul_row_broadcast: rhs must be a 1×d row vector"
        );
        assert_eq!(row.cols, self.cols, "mul_row_broadcast: column mismatch");
        let mut out = self.clone();
        let src = &row.data;
        out.par_rows_mut(|_, dst| {
            for (d, s) in dst.iter_mut().zip(src) {
                *d *= s;
            }
        });
        out
    }

    /// Multiply every element of row `r` by `col[r]`, where `col` is `n × 1`.
    pub fn mul_col_broadcast(&self, col: &Matrix) -> Matrix {
        assert_eq!(
            col.cols, 1,
            "mul_col_broadcast: rhs must be an n×1 column vector"
        );
        assert_eq!(col.rows, self.rows, "mul_col_broadcast: row mismatch");
        let mut out = self.clone();
        let scales = &col.data;
        out.par_rows_mut(|r, dst| {
            let s = scales[r];
            for d in dst {
                *d *= s;
            }
        });
        out
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements (8-lane kernel, fixed reduction tree).
    pub fn sum(&self) -> f32 {
        kernels::sum(&self.data)
    }

    /// Mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Per-row sums as an `n × 1` column vector.
    pub fn row_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        let threads = threads_for(self.data.len(), ELEMWISE_THRESHOLD);
        let src = &self.data;
        let (rows, cols) = (self.rows, self.cols);
        for_each_row_band(&mut out.data, 1, rows, threads, |s, e, band| {
            for (local, r) in (s..e).enumerate() {
                band[local] = kernels::sum(&src[r * cols..(r + 1) * cols]);
            }
        });
        out
    }

    /// Per-row means as an `n × 1` column vector.
    pub fn row_means(&self) -> Matrix {
        let mut out = self.row_sums();
        if self.cols > 0 {
            out.scale_inplace(1.0 / self.cols as f32);
        }
        out
    }

    /// Per-column sums as a `1 × d` row vector: rows added in order, so
    /// the result does not depend on the thread count.
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            kernels::add_inplace(&mut out.data, self.row(r));
        }
        out
    }

    /// Squared L2 norm of each row, as an `n × 1` column vector.
    pub fn row_sq_norms(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        let threads = threads_for(self.data.len(), ELEMWISE_THRESHOLD);
        let src = &self.data;
        let (rows, cols) = (self.rows, self.cols);
        for_each_row_band(&mut out.data, 1, rows, threads, |s, e, band| {
            for (local, r) in (s..e).enumerate() {
                band[local] = kernels::sum_sq(&src[r * cols..(r + 1) * cols]);
            }
        });
        out
    }

    /// L2 norm of each row, as an `n × 1` column vector.
    pub fn row_norms(&self) -> Matrix {
        let mut out = self.row_sq_norms();
        out.map_inplace(f32::sqrt);
        out
    }

    /// Frobenius norm of the whole matrix.
    pub fn frobenius_norm(&self) -> f32 {
        kernels::sum_sq(&self.data).sqrt()
    }

    /// Largest absolute element (0.0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    // ------------------------------------------------------------------
    // Row normalisation
    // ------------------------------------------------------------------

    /// L2-normalise every row: `h_i = ĥ_i / (‖ĥ_i‖₂ + eps)`.
    ///
    /// Returns the normalised matrix together with the per-row divisors
    /// (`‖ĥ_i‖₂ + eps`, as an `n × 1` vector) — the autograd layer needs the
    /// divisors to compute the backward pass.
    pub fn l2_normalize_rows(&self, eps: f32) -> (Matrix, Matrix) {
        let mut norms = self.row_norms();
        norms.map_inplace(move |v| v + eps);
        let mut out = self.clone();
        let divisors = &norms.data;
        out.par_rows_mut(|r, row| {
            let inv = 1.0 / divisors[r];
            for v in row {
                *v *= inv;
            }
        });
        (out, norms)
    }

    /// Divide every element of row `r` by `row_sums[r]` (for mean
    /// aggregation); rows with zero divisor are left unchanged.
    pub fn div_rows_by(&self, divisors: &Matrix) -> Matrix {
        assert_eq!(divisors.cols, 1, "div_rows_by: divisors must be n×1");
        assert_eq!(divisors.rows, self.rows, "div_rows_by: row mismatch");
        let mut out = self.clone();
        let divs = &divisors.data;
        out.par_rows_mut(|r, row| {
            let d = divs[r];
            if d != 0.0 {
                let inv = 1.0 / d;
                for v in row {
                    *v *= inv;
                }
            }
        });
        out
    }

    // ------------------------------------------------------------------
    // GEMM
    // ------------------------------------------------------------------

    /// Dense matrix product `self · other` (`m×k · k×n → m×n`).
    ///
    /// B is packed once into `NR`-wide column panels (arena-recycled
    /// buffer); row bands then run the register-tiled, cache-blocked
    /// micro-kernel against the shared read-only panels.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul: inner dimension mismatch {:?} · {:?}",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        let threads = threads_for(m * k * n, GEMM_FLOP_THRESHOLD);
        let mut bp = crate::arena::alloc_zeroed(kernels::packed_len(k, n));
        kernels::pack_b(&mut bp, &other.data, k, n);
        let a = &self.data;
        let bp_ref = &bp;
        for_each_row_band(&mut out.data, n, m, threads, |s, e, band| {
            kernels::gemm_nn(band, &a[s * k..e * k], bp_ref, e - s, k, n);
        });
        crate::arena::release(bp);
        out
    }

    /// Transposed-left product `selfᵀ · other` (`(k×m)ᵀ · k×n → m×n`).
    ///
    /// No transpose is materialised: the AᵀB band kernel reads `self` in
    /// place (a row of `self` holds consecutive output rows) and gives
    /// every output element the same k-sequential accumulation chain as
    /// [`Matrix::matmul`], so the result is bitwise equal to
    /// `self.transpose().matmul(other)`. B is read in place when its width
    /// is a whole number of 16-wide panels (or narrower than 8) and packed
    /// otherwise.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows,
            other.rows,
            "matmul_tn: leading dimension mismatch {:?}ᵀ · {:?}",
            self.shape(),
            other.shape()
        );
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        let threads = threads_for(m * k * n, GEMM_FLOP_THRESHOLD);
        let packed = (n >= kernels::NARROW && !n.is_multiple_of(kernels::NR)).then(|| {
            let mut bp = crate::arena::alloc_zeroed(kernels::packed_len(k, n));
            kernels::pack_b(&mut bp, &other.data, k, n);
            bp
        });
        let panels = match &packed {
            Some(bp) => kernels::Panels::packed(bp, k),
            None => kernels::Panels::direct(&other.data, n),
        };
        let a = &self.data;
        // Every band streams all of the tall B, and output rows cost the
        // same, so one band per thread (no oversplit) reads B least often.
        for_each_row_chunk(&mut out.data, n, &row_chunks(m, threads), |s, e, band| {
            kernels::gemm_tn(band, &a[s..], m, panels, e - s, k, n);
        });
        if let Some(bp) = packed {
            crate::arena::release(bp);
        }
        out
    }

    /// Transposed-right product `self · otherᵀ` (`m×k · (n×k)ᵀ → m×n`).
    ///
    /// Both operands are already row-major over `k`, so this runs the
    /// dot-product micro-kernel directly — no packing needed.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_nt: trailing dimension mismatch {:?} · {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        let threads = threads_for(m * k * n, GEMM_FLOP_THRESHOLD);
        let a = &self.data;
        let b = &other.data;
        for_each_row_band(&mut out.data, n, m, threads, |s, e, band| {
            kernels::gemm_nt(band, &a[s * k..e * k], b, e - s, k, n);
        });
        out
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        let (rows, cols) = (self.rows, self.cols);
        let src = &self.data;
        // Parallel over *output* rows (= input columns): each band gathers
        // its columns from the source, which is only read.
        let threads = threads_for(src.len(), ELEMWISE_THRESHOLD);
        for_each_row_band(&mut out.data, rows, cols, threads, |s, e, band| {
            for (local, c) in (s..e).enumerate() {
                let out_row = &mut band[local * rows..(local + 1) * rows];
                for (r, o) in out_row.iter_mut().enumerate() {
                    *o = src[r * cols + c];
                }
            }
        });
        out
    }

    // ------------------------------------------------------------------
    // Row gather / scatter & concatenation
    // ------------------------------------------------------------------

    /// Gather rows by index: `out[e, :] = self[idx[e], :]`.
    pub fn gather_rows(&self, idx: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        let cols = self.cols;
        let src = &self.data;
        let rows = self.rows;
        let threads = threads_for(idx.len() * cols, ELEMWISE_THRESHOLD);
        for_each_row_band(&mut out.data, cols, idx.len(), threads, |s, e, band| {
            for (local, &i) in idx[s..e].iter().enumerate() {
                let i = i as usize;
                debug_assert!(i < rows, "gather_rows index out of bounds");
                band[local * cols..(local + 1) * cols]
                    .copy_from_slice(&src[i * cols..(i + 1) * cols]);
            }
        });
        out
    }

    /// Scatter-add rows: `self[idx[e], :] += src[e, :]`.
    pub fn scatter_add_rows(&mut self, idx: &[u32], src: &Matrix) {
        assert_eq!(
            idx.len(),
            src.rows,
            "scatter_add_rows: index/source mismatch"
        );
        assert_eq!(self.cols, src.cols, "scatter_add_rows: column mismatch");
        for (e, &i) in idx.iter().enumerate() {
            let i = i as usize;
            debug_assert!(i < self.rows, "scatter_add_rows index out of bounds");
            let cols = self.cols;
            let dst = &mut self.data[i * cols..(i + 1) * cols];
            for (d, s) in dst.iter_mut().zip(src.row(e)) {
                *d += s;
            }
        }
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat: row mismatch");
        let cols = self.cols + other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(other.row(r));
        }
        out
    }

    /// Vertical concatenation `[self; other]`.
    pub fn vcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vcat: column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    // ------------------------------------------------------------------
    // Test helpers
    // ------------------------------------------------------------------

    /// Whether every element differs from `other`'s by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol || (a - b).abs() <= tol * a.abs().max(b.abs()))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Matrix::eye(3)), a);
        assert_eq!(Matrix::eye(2).matmul(&a), a);
    }

    #[test]
    fn matmul_matches_hand_example() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_tn_equals_transpose_then_matmul() {
        let a = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(5, 4, |r, c| (r + c) as f32 * 0.25);
        let expect = naive_matmul(&a.transpose(), &b);
        assert!(a.matmul_tn(&b).approx_eq(&expect, 1e-5));
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r as f32 - c as f32) * 0.7);
        let b = Matrix::from_fn(6, 3, |r, c| (r * c) as f32 * 0.1 + 1.0);
        let expect = naive_matmul(&a, &b.transpose());
        assert!(a.matmul_nt(&b).approx_eq(&expect, 1e-5));
    }

    #[test]
    fn large_matmul_parallel_path_matches_naive() {
        let _ = crate::pool::set_num_threads(4);
        // Big enough to cross GEMM_FLOP_THRESHOLD (200*200*200 = 8e6).
        let a = Matrix::from_fn(200, 200, |r, c| ((r * 31 + c * 17) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(200, 200, |r, c| ((r * 7 + c * 3) % 11) as f32 - 5.0);
        let got = a.matmul(&b);
        let expect = naive_matmul(&a, &b);
        assert!(got.approx_eq(&expect, 1e-3));
    }

    #[test]
    fn zip_apply3_fused_update_matches_separate_passes() {
        let mut p = Matrix::from_fn(10, 8, |r, c| (r + c) as f32 * 0.1);
        let mut m = Matrix::filled(10, 8, 0.5);
        let mut v = Matrix::filled(10, 8, 0.25);
        let g = Matrix::from_fn(10, 8, |r, c| (r as f32 - c as f32) * 0.2);
        let (expect_p, expect_m, expect_v) = {
            let mut m2 = m.clone();
            let mut v2 = v.clone();
            let mut p2 = p.clone();
            m2.scale_inplace(0.9);
            m2.add_scaled(0.1, &g);
            let g_sq = g.mul(&g);
            v2.scale_inplace(0.99);
            v2.add_scaled(0.01, &g_sq);
            let step = m2.zip_map(&v2, |mv, vv| mv / (vv.sqrt() + 1e-8));
            p2.add_scaled(-0.05, &step);
            (p2, m2, v2)
        };
        p.zip_apply3(&mut m, &mut v, &g, |pv, mv, vv, gv| {
            *mv = 0.9 * *mv + 0.1 * gv;
            *vv = 0.99 * *vv + 0.01 * gv * gv;
            *pv -= 0.05 * *mv / (vv.sqrt() + 1e-8);
        });
        assert!(p.approx_eq(&expect_p, 1e-6));
        assert!(m.approx_eq(&expect_m, 1e-6));
        assert!(v.approx_eq(&expect_v, 1e-6));
    }

    #[test]
    fn par_rows_mut_sees_global_row_indices() {
        let _ = crate::pool::set_num_threads(4);
        let mut a = Matrix::zeros(400, 350); // 140k elements: above ELEMWISE_THRESHOLD
        a.par_rows_mut(|r, row| {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (r * 350 + c) as f32;
            }
        });
        for (i, v) in a.as_slice().iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn fused_adam_step_matches_zip_apply3_closure() {
        let (lr, beta1, beta2, eps) = (0.05f32, 0.9f32, 0.99f32, 1e-8f32);
        let (bias1, bias2) = (1.0 - beta1 * beta1, 1.0 - beta2 * beta2);
        let mut p = Matrix::from_fn(17, 9, |r, c| (r + c) as f32 * 0.1 - 1.0);
        let mut m = Matrix::from_fn(17, 9, |r, c| (r as f32 - c as f32) * 0.05);
        let mut v = Matrix::from_fn(17, 9, |r, c| ((r * c) % 7) as f32 * 0.02);
        let g = Matrix::from_fn(17, 9, |r, c| ((r * 3 + c * 5) % 11) as f32 * 0.3 - 1.5);
        let (mut p2, mut m2, mut v2) = (p.clone(), m.clone(), v.clone());
        p2.zip_apply3(&mut m2, &mut v2, &g, |pv, mv, vv, gv| {
            *mv = beta1 * *mv + (1.0 - beta1) * gv;
            *vv = beta2 * *vv + (1.0 - beta2) * gv * gv;
            let m_hat = *mv / bias1;
            let v_hat = *vv / bias2;
            *pv -= lr * m_hat / (v_hat.sqrt() + eps);
        });
        let step = AdamStep {
            lr,
            beta1,
            beta2,
            eps,
            bias1,
            bias2,
        };
        let mut legs = Vec::new();
        for forced in [true, false] {
            let (mut pk, mut mk, mut vk) = (p.clone(), m.clone(), v.clone());
            crate::simd::force_scalar(forced);
            pk.fused_adam_step(&mut mk, &mut vk, &g, &step);
            crate::simd::force_scalar(false);
            // The moment recurrences share the closure's operation order
            // exactly; the parameter update folds the bias-correction
            // divisions into reciprocal multiplies, so it only agrees with
            // the closure to a few ulp.
            assert_eq!(mk.as_slice(), m2.as_slice(), "forced={forced}");
            assert_eq!(vk.as_slice(), v2.as_slice(), "forced={forced}");
            for (i, (a, b)) in pk.as_slice().iter().zip(p2.as_slice()).enumerate() {
                let tol = 1e-5 * b.abs().max(1.0);
                assert!((a - b).abs() <= tol, "forced={forced} elem {i}: {a} vs {b}");
            }
            legs.push(pk);
        }
        // …but the scalar and dispatched kernels must agree bitwise.
        assert_eq!(legs[0].as_slice(), legs[1].as_slice());
        p.fused_adam_step(&mut m, &mut v, &g, &step);
        assert_eq!(p.as_slice(), legs[1].as_slice());
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.5, 0.5], &[1.0, -1.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[1.5, -1.5], &[4.0, 3.0]]));
        assert_eq!(a.sub(&b), Matrix::from_rows(&[&[0.5, -2.5], &[2.0, 5.0]]));
        assert_eq!(a.mul(&b), Matrix::from_rows(&[&[0.5, -1.0], &[3.0, -4.0]]));
        assert_eq!(
            a.scale(2.0),
            Matrix::from_rows(&[&[2.0, -4.0], &[6.0, 8.0]])
        );
    }

    #[test]
    fn broadcasts() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let row = Matrix::row_vector(&[10.0, 20.0]);
        assert_eq!(
            a.add_row_broadcast(&row),
            Matrix::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]])
        );
        assert_eq!(
            a.mul_row_broadcast(&row),
            Matrix::from_rows(&[&[10.0, 40.0], &[30.0, 80.0]])
        );
        let col = Matrix::column_vector(&[2.0, 0.5]);
        assert_eq!(
            a.mul_col_broadcast(&col),
            Matrix::from_rows(&[&[2.0, 4.0], &[1.5, 2.0]])
        );
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.row_sums(), Matrix::column_vector(&[3.0, 7.0]));
        assert_eq!(a.col_sums(), Matrix::row_vector(&[4.0, 6.0]));
        assert_eq!(a.row_sq_norms(), Matrix::column_vector(&[5.0, 25.0]));
        assert!((a.frobenius_norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn l2_row_normalisation_yields_unit_rows() {
        let a = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0], &[1.0, 0.0]]);
        let (n, norms) = a.l2_normalize_rows(1e-8);
        assert!((n.row(0)[0] - 0.6).abs() < 1e-6);
        assert!((n.row(0)[1] - 0.8).abs() < 1e-6);
        // Zero row stays (near) zero instead of dividing by zero.
        assert!(n.row(1).iter().all(|v| v.abs() < 1e-6));
        assert!((norms.as_slice()[0] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let idx = [2u32, 0, 2];
        let g = a.gather_rows(&idx);
        assert_eq!(
            g,
            Matrix::from_rows(&[&[5.0, 6.0], &[1.0, 2.0], &[5.0, 6.0]])
        );
        let mut out = Matrix::zeros(3, 2);
        out.scatter_add_rows(&idx, &g);
        // Row 2 receives itself twice, row 0 once, row 1 nothing.
        assert_eq!(
            out,
            Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 0.0], &[10.0, 12.0]])
        );
    }

    #[test]
    fn concatenation() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0], &[4.0]]);
        assert_eq!(a.hcat(&b), Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]));
        assert_eq!(
            a.vcat(&b),
            Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]])
        );
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
            (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
                proptest::collection::vec(-10.0f32..10.0, r * c)
                    .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
            })
        }

        proptest! {
            #[test]
            fn matmul_matches_naive(
                m in 1usize..6, k in 1usize..6, n in 1usize..6,
                seed in 0u64..1000
            ) {
                let a = Matrix::from_fn(m, k, |r, c| ((seed as usize + r * 13 + c * 7) % 17) as f32 - 8.0);
                let b = Matrix::from_fn(k, n, |r, c| ((seed as usize + r * 5 + c * 11) % 19) as f32 - 9.0);
                let got = a.matmul(&b);
                let expect = naive_matmul(&a, &b);
                prop_assert!(got.approx_eq(&expect, 1e-4));
            }

            #[test]
            fn add_commutes(a in small_matrix(5)) {
                let b = a.map(|v| v * 0.5 - 1.0);
                prop_assert!(a.add(&b).approx_eq(&b.add(&a), 1e-6));
            }

            #[test]
            fn transpose_respects_matmul(m in 1usize..5, k in 1usize..5, n in 1usize..5) {
                let a = Matrix::from_fn(m, k, |r, c| (r as f32 + 1.0) * (c as f32 - 1.5));
                let b = Matrix::from_fn(k, n, |r, c| (r as f32 - 2.0) * (c as f32 + 0.5));
                // (AB)ᵀ = BᵀAᵀ
                let lhs = a.matmul(&b).transpose();
                let rhs = b.transpose().matmul(&a.transpose());
                prop_assert!(lhs.approx_eq(&rhs, 1e-4));
            }

            #[test]
            fn row_norms_match_manual(a in small_matrix(6)) {
                let norms = a.row_norms();
                for r in 0..a.rows() {
                    let manual: f32 = a.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
                    prop_assert!((norms.as_slice()[r] - manual).abs() < 1e-4);
                }
            }

            #[test]
            fn normalized_rows_are_unit_or_zero(a in small_matrix(6)) {
                let (n, _) = a.l2_normalize_rows(1e-12);
                for r in 0..n.rows() {
                    let norm: f32 = n.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
                    prop_assert!(norm < 1.0 + 1e-4);
                    let orig: f32 = a.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
                    if orig > 1e-3 {
                        prop_assert!((norm - 1.0).abs() < 1e-3);
                    }
                }
            }
        }
    }
}
