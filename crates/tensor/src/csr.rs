//! Compressed-sparse-row matrices for graph message passing.

use crate::kernels;
use crate::parallel::{for_each_row_band, threads_for, SPMM_WORK_THRESHOLD};
use crate::{Matrix, TensorError};

/// A sparse matrix in compressed-sparse-row format.
///
/// In this workspace a `Csr` is almost always a (possibly normalised)
/// adjacency matrix: `spmm` with a dense feature matrix is the message-
/// passing primitive that GCN/GIN layers and the MeanConv/MinusConv layers
/// of the VGOD paper are built from.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    /// `indptr[r]..indptr[r+1]` is the slice of `indices`/`values` for row `r`.
    indptr: Vec<usize>,
    /// Column index of each stored entry, sorted within each row.
    indices: Vec<u32>,
    /// Value of each stored entry.
    values: Vec<f32>,
}

impl Csr {
    /// Build from `(row, col, value)` triplets. Duplicate coordinates are
    /// summed. Fails if any coordinate is out of bounds.
    pub fn from_triplets(
        n_rows: usize,
        n_cols: usize,
        triplets: &[(u32, u32, f32)],
    ) -> Result<Self, TensorError> {
        for &(r, c, _) in triplets {
            if r as usize >= n_rows {
                return Err(TensorError::IndexOutOfBounds {
                    index: r as usize,
                    bound: n_rows,
                });
            }
            if c as usize >= n_cols {
                return Err(TensorError::IndexOutOfBounds {
                    index: c as usize,
                    bound: n_cols,
                });
            }
        }
        let mut sorted: Vec<(u32, u32, f32)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut indptr = vec![0usize; n_rows + 1];
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values: Vec<f32> = Vec::with_capacity(sorted.len());
        for &(r, c, v) in &sorted {
            if let (Some(&last_c), true) = (indices.last(), indptr[r as usize + 1] > 0) {
                // Merge duplicates within the current row.
                if last_c == c && indptr[r as usize + 1] == indices.len() {
                    *values
                        .last_mut()
                        .expect("values non-empty when indices non-empty") += v;
                    continue;
                }
            }
            // Close out any skipped rows.
            indices.push(c);
            values.push(v);
            indptr[r as usize + 1] = indices.len();
        }
        // Make indptr cumulative (rows with no entries inherit the previous offset).
        for r in 1..=n_rows {
            if indptr[r] < indptr[r - 1] {
                indptr[r] = indptr[r - 1];
            }
        }
        Ok(Self {
            n_rows,
            n_cols,
            indptr,
            indices,
            values,
        })
    }

    /// Build a binary (all-ones) sparse matrix from `(row, col)` edges.
    pub fn from_edges(
        n_rows: usize,
        n_cols: usize,
        edges: &[(u32, u32)],
    ) -> Result<Self, TensorError> {
        let triplets: Vec<(u32, u32, f32)> = edges.iter().map(|&(r, c)| (r, c, 1.0)).collect();
        Self::from_triplets(n_rows, n_cols, &triplets)
    }

    /// Build directly from raw CSR arrays (used by normalisation routines).
    ///
    /// # Panics
    /// Debug-asserts the CSR invariants.
    pub fn from_raw(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), n_rows + 1);
        debug_assert_eq!(indices.len(), values.len());
        debug_assert_eq!(*indptr.last().unwrap_or(&0), indices.len());
        debug_assert!(indices.iter().all(|&c| (c as usize) < n_cols));
        Self {
            n_rows,
            n_cols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Column indices of row `r`.
    #[inline]
    pub fn row_indices(&self, r: usize) -> &[u32] {
        &self.indices[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Values of row `r`.
    #[inline]
    pub fn row_values(&self, r: usize) -> &[f32] {
        &self.values[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Iterate over `(row, col, value)` of every stored entry.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.n_rows).flat_map(move |r| {
            self.row_indices(r)
                .iter()
                .zip(self.row_values(r))
                .map(move |(&c, &v)| (r as u32, c, v))
        })
    }

    /// Sparse × dense product `self · dense` (`r×c · c×d → r×d`).
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        assert_eq!(
            self.n_cols,
            dense.rows(),
            "spmm: inner dimension mismatch {}x{} · {:?}",
            self.n_rows,
            self.n_cols,
            dense.shape()
        );
        let d = dense.cols();
        let mut out = Matrix::zeros(self.n_rows, d);
        let threads = threads_for(self.nnz() * d, SPMM_WORK_THRESHOLD);
        // Oversplit (inside for_each_row_band): row cost is proportional to
        // row nnz, which is uneven on real graphs; the pool's claim counter
        // balances the bands.
        let (indptr, indices, values) = (&self.indptr, &self.indices, &self.values);
        let dense_data = dense.as_slice();
        for_each_row_band(out.as_mut_slice(), d, self.n_rows, threads, |s, e, band| {
            kernels::spmm_rows(band, s, e, indptr, indices, values, dense_data, d);
        });
        out
    }

    /// Transposed sparse × dense product `selfᵀ · dense` (`c×r · r×d → c×d`).
    ///
    /// Used by the autograd backward pass of `spmm` — a training hot path.
    /// Runs as [`Csr::spmm`] over [`Csr::transpose`]: each output row's
    /// sources sit in ascending input-row order, the add order of a
    /// sequential scatter, and the row kernel is row-disjoint, so the
    /// result is bit-identical at every thread count.
    pub fn spmm_t(&self, dense: &Matrix) -> Matrix {
        assert_eq!(
            self.n_rows,
            dense.rows(),
            "spmm_t: inner dimension mismatch ({}x{})ᵀ · {:?}",
            self.n_rows,
            self.n_cols,
            dense.shape()
        );
        self.transpose().spmm(dense)
    }

    /// Explicit transpose as a new CSR matrix. Each output row lists its
    /// entries in ascending input-row order.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.n_cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.n_rows {
            for (&c, &v) in self.row_indices(r).iter().zip(self.row_values(r)) {
                let pos = cursor[c as usize];
                indices[pos] = r as u32;
                values[pos] = v;
                cursor[c as usize] += 1;
            }
        }
        Csr {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            indptr,
            indices,
            values,
        }
    }

    /// Row-normalise to mean aggregation: `D⁻¹ · self`, where `D` is the
    /// diagonal of row sums of absolute values of stored entries (rows with
    /// no entries are left zero).
    ///
    /// For a binary adjacency matrix this turns `spmm` into neighbour-mean
    /// aggregation — the MeanConv layer of the VGOD paper (Eq. 7).
    pub fn row_normalized(&self) -> Csr {
        let mut out = self.clone();
        for r in 0..out.n_rows {
            let (s, e) = (out.indptr[r], out.indptr[r + 1]);
            let deg: f32 = out.values[s..e].iter().map(|v| v.abs()).sum();
            if deg > 0.0 {
                let inv = 1.0 / deg;
                for v in &mut out.values[s..e] {
                    *v *= inv;
                }
            }
        }
        out
    }

    /// GCN symmetric normalisation `D^{-1/2} (A + I) D^{-1/2}` (Kipf &
    /// Welling), treating `self` as the adjacency matrix `A`. Requires a
    /// square matrix.
    pub fn gcn_normalized(&self) -> Csr {
        assert_eq!(
            self.n_rows, self.n_cols,
            "gcn_normalized requires a square matrix"
        );
        let with_loops = self.with_self_loops(1.0);
        let mut deg = vec![0.0f32; with_loops.n_rows];
        for (r, d) in deg.iter_mut().enumerate() {
            *d = with_loops.row_values(r).iter().sum();
        }
        let inv_sqrt: Vec<f32> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let mut out = with_loops;
        for r in 0..out.n_rows {
            let (s, e) = (out.indptr[r], out.indptr[r + 1]);
            for k in s..e {
                let c = out.indices[k] as usize;
                out.values[k] *= inv_sqrt[r] * inv_sqrt[c];
            }
        }
        out
    }

    /// Return a copy with `weight` added on the diagonal (self-loop edges).
    /// Requires a square matrix. Existing diagonal entries are incremented.
    pub fn with_self_loops(&self, weight: f32) -> Csr {
        assert_eq!(
            self.n_rows, self.n_cols,
            "with_self_loops requires a square matrix"
        );
        let mut triplets: Vec<(u32, u32, f32)> = self.iter().collect();
        triplets.extend((0..self.n_rows as u32).map(|i| (i, i, weight)));
        Csr::from_triplets(self.n_rows, self.n_cols, &triplets)
            .expect("self-loop triplets are in bounds by construction")
    }

    /// Densify (for tests and tiny examples only).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.n_rows, self.n_cols);
        for (r, c, v) in self.iter() {
            out[(r as usize, c as usize)] += v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Csr {
        // [[0,1,0],[2,0,3],[0,0,4]]
        Csr::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0), (2, 2, 4.0)]).unwrap()
    }

    #[test]
    fn from_triplets_sums_duplicates() {
        let m = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.to_dense(), Matrix::from_rows(&[&[3.5, 0.0], &[0.0, 1.0]]));
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        assert!(Csr::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(Csr::from_triplets(2, 2, &[(0, 2, 1.0)]).is_err());
    }

    #[test]
    fn spmm_matches_dense_product() {
        let s = example();
        let d = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let got = s.spmm(&d);
        let expect = s.to_dense().matmul(&d);
        assert!(got.approx_eq(&expect, 1e-6));
    }

    #[test]
    fn spmm_t_matches_transposed_product() {
        let s = example();
        let d = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let got = s.spmm_t(&d);
        let expect = s.to_dense().transpose().matmul(&d);
        assert!(got.approx_eq(&expect, 1e-6));
    }

    #[test]
    fn spmm_t_adds_in_ascending_input_row_order() {
        // Output row 0 gathers 1e8, 1 and -1e8 from input rows 0, 1, 2: in
        // that order the 1 is absorbed and the sum is 0; any other grouping
        // keeps it. `d = 1` takes the unfused tail on both ISAs.
        let s = Csr::from_triplets(
            4,
            2,
            &[
                (0, 0, 1.0),
                (1, 0, 1.0),
                (1, 1, 2.0),
                (2, 0, 1.0),
                (3, 1, 0.5),
            ],
        )
        .unwrap();
        let d = Matrix::from_rows(&[&[1e8], &[1.0], &[-1e8], &[3.0]]);
        let mut scatter = Matrix::zeros(2, 1);
        for r in 0..s.n_rows() {
            for (&c, &v) in s.row_indices(r).iter().zip(s.row_values(r)) {
                scatter[(c as usize, 0)] += v * d[(r, 0)];
            }
        }
        assert_eq!(scatter[(0, 0)], 0.0);
        for forced in [true, false] {
            crate::simd::force_scalar(forced);
            let got = s.spmm_t(&d);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&scatter), "force_scalar({forced})");
        }
        crate::simd::force_scalar(false);
    }

    #[test]
    fn transpose_roundtrip() {
        let s = example();
        assert_eq!(s.transpose().transpose(), s);
        assert!(s
            .transpose()
            .to_dense()
            .approx_eq(&s.to_dense().transpose(), 1e-6));
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let s = example().row_normalized();
        for r in 0..s.n_rows() {
            let sum: f32 = s.row_values(r).iter().sum();
            if s.row_nnz(r) > 0 {
                assert!((sum - 1.0).abs() < 1e-6, "row {r} sums to {sum}");
            }
        }
    }

    #[test]
    fn empty_rows_are_preserved() {
        let s = Csr::from_triplets(4, 4, &[(0, 1, 1.0), (3, 0, 1.0)]).unwrap();
        assert_eq!(s.row_nnz(1), 0);
        assert_eq!(s.row_nnz(2), 0);
        let d = Matrix::filled(4, 2, 1.0);
        let out = s.spmm(&d);
        assert_eq!(out.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn gcn_normalization_matches_formula() {
        // Path graph 0-1-2.
        let a = Csr::from_edges(3, 3, &[(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
        let norm = a.gcn_normalized();
        // With self loops degrees are [2,3,2]; check the (0,1) entry = 1/sqrt(2*3).
        let dense = norm.to_dense();
        assert!((dense[(0, 1)] - 1.0 / 6.0f32.sqrt()).abs() < 1e-6);
        assert!((dense[(0, 0)] - 0.5).abs() < 1e-6);
        assert!((dense[(1, 1)] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn self_loops_increment_diagonal() {
        let a = Csr::from_triplets(2, 2, &[(0, 0, 1.0)]).unwrap();
        let b = a.with_self_loops(2.0);
        assert_eq!(b.to_dense(), Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 2.0]]));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn triplet_strategy(n: usize) -> impl Strategy<Value = Vec<(u32, u32, f32)>> {
            proptest::collection::vec((0..n as u32, 0..n as u32, -5.0f32..5.0), 0..(n * n).min(40))
        }

        proptest! {
            #[test]
            fn spmm_always_matches_dense(n in 1usize..8, d in 1usize..5, t in triplet_strategy(7)) {
                let t: Vec<_> = t.into_iter().filter(|&(r, c, _)| (r as usize) < n && (c as usize) < n).collect();
                let s = Csr::from_triplets(n, n, &t).unwrap();
                let x = Matrix::from_fn(n, d, |r, c| (r as f32 - 1.0) * (c as f32 + 0.5));
                let got = s.spmm(&x);
                let expect = s.to_dense().matmul(&x);
                prop_assert!(got.approx_eq(&expect, 1e-3));
            }

            #[test]
            fn indptr_is_monotone(n in 1usize..8, t in triplet_strategy(7)) {
                let t: Vec<_> = t.into_iter().filter(|&(r, c, _)| (r as usize) < n && (c as usize) < n).collect();
                let s = Csr::from_triplets(n, n, &t).unwrap();
                for r in 0..n {
                    prop_assert!(s.indptr[r] <= s.indptr[r + 1]);
                    // Column indices sorted within each row.
                    let idx = s.row_indices(r);
                    prop_assert!(idx.windows(2).all(|w| w[0] < w[1]));
                }
            }

            #[test]
            fn transpose_preserves_nnz(n in 1usize..8, t in triplet_strategy(7)) {
                let t: Vec<_> = t.into_iter().filter(|&(r, c, _)| (r as usize) < n && (c as usize) < n).collect();
                let s = Csr::from_triplets(n, n, &t).unwrap();
                prop_assert_eq!(s.transpose().nnz(), s.nnz());
            }
        }
    }
}
