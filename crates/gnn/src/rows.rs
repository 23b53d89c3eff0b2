//! Row-subset adjacency views for incremental inference.
//!
//! After a graph mutation only some rows of each layer's output can move.
//! The views here give exactly those rows of a whole-graph operator, built
//! straight from a [`GraphStore`] with the per-row arithmetic of the
//! [`GraphContext`] views, so the ordinary `Csr::spmm` and edge kernels
//! produce each row bit for bit as a whole-graph pass would:
//!
//! * a CSR row keeps the sorted column order and the exact `f32` value of
//!   the matching row of `Csr::gcn_normalized`, `Csr::row_normalized` or
//!   `Csr::with_self_loops`, and `spmm` accumulates a row over its
//!   nonzeros in column order whatever rows surround it;
//! * an attention row lists its in-edges as the whole-graph
//!   [`crate::EdgeIndex`] orders them per destination — sorted neighbours,
//!   then the self-loop — and segment softmax and edge aggregation visit a
//!   destination's edges in that relative order.

use std::borrow::Cow;
use std::rc::Rc;

use vgod_graph::GraphStore;
use vgod_tensor::{Csr, Matrix};

use crate::{GnnKind, GraphContext};

/// Largest share of the nodes a GAT, GIN or SAGE layer recomputes through
/// row-subset views. Above it the layer runs the whole-graph kernels over
/// a context built from the store, and every row of the layer is
/// rewritten.
///
/// Measured on the medium PubMed replica (4,929 nodes, hidden 64, read
/// through an `OverlayGraph`, one thread, 2-vCPU x86-64 VM), one layer's
/// row path at 90% / 100% of the rows against the whole-graph path
/// including its context build: GAT 1.70 / 1.89 ms vs 1.75 ms, SAGE
/// 6.25 / 7.10 ms vs 6.55 ms, GIN 8.37 / 9.64 ms vs 9.30 ms. So for these
/// backbones the row path costs about as much as the whole-graph path at
/// 90% of the rows and more beyond. GCN (5.05 ms at 100% vs 6.18 ms) and
/// VBM's variance (3.68 vs 5.59 ms) never cross over, the context build
/// outweighing their row views, so they always take the row path.
pub const ROW_PATH_MAX_FRACTION: f64 = 0.9;

/// Whether a `kind` layer recomputing `rows` of `n` nodes should run the
/// whole-graph kernels instead of the row-subset views: past
/// [`ROW_PATH_MAX_FRACTION`] for the backbones that cross over, never for
/// GCN.
pub fn prefers_whole_graph(kind: GnnKind, rows: usize, n: usize) -> bool {
    kind != GnnKind::Gcn && rows as f64 > ROW_PATH_MAX_FRACTION * n as f64
}

/// Overwrite rows `rows` of the cached full-length matrix `m` with the rows
/// of `src` (one per entry of `rows`), first growing `m` with zero rows up
/// to `n` nodes (appended nodes).
pub fn put_rows(m: &mut Matrix, rows: &[u32], src: &Matrix, n: usize) {
    if m.rows() < n {
        let cols = m.cols();
        let mut data = std::mem::replace(m, Matrix::zeros(0, cols)).into_vec();
        data.resize(n * cols, 0.0);
        *m = Matrix::from_vec(n, cols, data).expect("grown shape matches its data");
    }
    for (i, &r) in rows.iter().enumerate() {
        m.row_mut(r as usize).copy_from_slice(src.row(i));
    }
}

/// The adjacency operators the layers aggregate with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdjacencyKind {
    /// Binary `A` (GIN) — [`GraphContext::adjacency`].
    Binary,
    /// `D^{-1/2}(A + I)D^{-1/2}` (GCN) — [`GraphContext::gcn`].
    Gcn,
    /// `D⁻¹A` (SAGE; VBM without self-loops) — [`GraphContext::mean`].
    Mean,
    /// `(D + I)⁻¹(A + I)` (VBM with self-loops) —
    /// [`GraphContext::mean_self_loops`].
    MeanSelfLoops,
}

impl AdjacencyKind {
    /// The whole-graph operator of this kind.
    pub fn whole<'a>(&self, ctx: &'a GraphContext) -> &'a Rc<Csr> {
        match self {
            AdjacencyKind::Binary => ctx.adjacency(),
            AdjacencyKind::Gcn => ctx.gcn(),
            AdjacencyKind::Mean => ctx.mean(),
            AdjacencyKind::MeanSelfLoops => ctx.mean_self_loops(),
        }
    }
}

/// `1/√(deg + 1)`: the GCN scale of a node, computed as
/// `Csr::gcn_normalized` does (its degree is a sum of `deg + 1` unit
/// weights, exact in `f32`).
fn gcn_scale(deg: usize) -> f32 {
    1.0 / ((deg + 1) as f32).sqrt()
}

/// Push `nbrs` (sorted) with `r` merged in at its sorted position.
fn push_with_self(indices: &mut Vec<u32>, r: u32, nbrs: &[u32]) {
    let at = nbrs.partition_point(|&v| v < r);
    indices.extend_from_slice(&nbrs[..at]);
    indices.push(r);
    indices.extend_from_slice(&nbrs[at..]);
}

/// Rows `rows` of the `kind` operator of `store`'s graph as a
/// `rows.len() × n` CSR: row `i` equals row `rows[i]` of the whole-graph
/// operator bit for bit.
pub fn adjacency_rows(store: &dyn GraphStore, rows: &[u32], kind: AdjacencyKind) -> Csr {
    let n = store.num_nodes();
    let mut indptr = Vec::with_capacity(rows.len() + 1);
    indptr.push(0usize);
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Vec<f32> = Vec::new();
    let mut nbrs = Vec::new();
    for &r in rows {
        store.neighbors_into(r, &mut nbrs);
        let start = indices.len();
        match kind {
            AdjacencyKind::Binary => {
                indices.extend_from_slice(&nbrs);
                values.resize(indices.len(), 1.0);
            }
            AdjacencyKind::Mean => {
                // `row_normalized`: 1 · (1 / Σ|a|), an empty row stays empty.
                indices.extend_from_slice(&nbrs);
                values.resize(indices.len(), 1.0 / nbrs.len() as f32);
            }
            AdjacencyKind::MeanSelfLoops => {
                push_with_self(&mut indices, r, &nbrs);
                values.resize(indices.len(), 1.0 / (nbrs.len() + 1) as f32);
            }
            AdjacencyKind::Gcn => {
                push_with_self(&mut indices, r, &nbrs);
                let own = gcn_scale(nbrs.len());
                for &c in &indices[start..] {
                    let other = if c == r {
                        own
                    } else {
                        gcn_scale(store.degree(c))
                    };
                    values.push(own * other);
                }
            }
        }
        indptr.push(indices.len());
    }
    Csr::from_raw(rows.len(), n, indptr, indices, values)
}

/// The attention edges a set of destination rows reads, grouped by
/// destination in the per-destination order of the whole-graph
/// [`crate::EdgeIndex`] (sorted neighbours, then the self-loop).
#[derive(Clone, Debug)]
pub(crate) struct AttentionEdges<'a> {
    /// Source node of each edge.
    pub(crate) src: Cow<'a, [u32]>,
    /// Destination node of each edge.
    pub(crate) dst: Cow<'a, [u32]>,
    /// Output row of each edge's destination (the softmax segment).
    pub(crate) seg: Cow<'a, [u32]>,
    /// Number of output rows.
    pub(crate) n_out: usize,
}

impl AttentionEdges<'static> {
    /// The in-edges of `rows` (sorted), segment `i` being `rows[i]`.
    pub(crate) fn rows(store: &dyn GraphStore, rows: &[u32]) -> Self {
        let mut src = Vec::new();
        let mut dst = Vec::new();
        let mut seg = Vec::new();
        let mut nbrs = Vec::new();
        for (i, &r) in rows.iter().enumerate() {
            store.neighbors_into(r, &mut nbrs);
            src.extend_from_slice(&nbrs);
            src.push(r);
            dst.resize(src.len(), r);
            seg.resize(src.len(), i as u32);
        }
        Self {
            src: Cow::Owned(src),
            dst: Cow::Owned(dst),
            seg: Cow::Owned(seg),
            n_out: rows.len(),
        }
    }
}

impl<'a> AttentionEdges<'a> {
    /// Every edge of the whole graph, borrowed from the context.
    pub(crate) fn whole(ctx: &'a GraphContext) -> Self {
        let edges = ctx.edges();
        Self {
            src: Cow::Borrowed(edges.src.as_slice()),
            dst: Cow::Borrowed(edges.dst.as_slice()),
            seg: Cow::Borrowed(edges.dst.as_slice()),
            n_out: edges.n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgod_graph::AttributedGraph;
    use vgod_tensor::Matrix;

    fn graph() -> AttributedGraph {
        let mut g = AttributedGraph::new(Matrix::zeros(9, 1));
        for (u, v) in [
            (0, 1),
            (0, 2),
            (0, 5),
            (1, 2),
            (2, 3),
            (3, 7),
            (4, 8),
            (7, 8),
            (1, 7),
        ] {
            g.add_edge(u, v);
        }
        // Node 6 stays isolated: the edge case of every normalisation.
        g
    }

    fn bits(csr: &Csr, r: usize) -> (Vec<u32>, Vec<u32>) {
        (
            csr.row_indices(r).to_vec(),
            csr.row_values(r).iter().map(|v| v.to_bits()).collect(),
        )
    }

    #[test]
    fn row_views_equal_whole_graph_rows_bitwise() {
        let g = graph();
        let ctx = GraphContext::from_graph(&g);
        let rows = [0u32, 2, 3, 6, 8];
        for kind in [
            AdjacencyKind::Binary,
            AdjacencyKind::Gcn,
            AdjacencyKind::Mean,
            AdjacencyKind::MeanSelfLoops,
        ] {
            let sub = adjacency_rows(&g, &rows, kind);
            assert_eq!(sub.n_rows(), rows.len());
            assert_eq!(sub.n_cols(), g.num_nodes());
            let whole = kind.whole(&ctx);
            for (i, &r) in rows.iter().enumerate() {
                assert_eq!(bits(&sub, i), bits(whole, r as usize), "{kind:?} row {r}");
            }
        }
    }

    #[test]
    fn attention_rows_follow_the_whole_graph_destination_order() {
        let g = graph();
        let ctx = GraphContext::from_graph(&g);
        let whole = AttentionEdges::whole(&ctx);
        let rows = [1u32, 6, 7];
        let sub = AttentionEdges::rows(&g, &rows);
        for (i, &r) in rows.iter().enumerate() {
            let want: Vec<u32> = (0..whole.src.len())
                .filter(|&e| whole.dst[e] == r)
                .map(|e| whole.src[e])
                .collect();
            let got: Vec<u32> = (0..sub.src.len())
                .filter(|&e| sub.seg[e] == i as u32)
                .map(|e| sub.src[e])
                .collect();
            assert_eq!(got, want, "row {r}");
            assert!((0..sub.src.len())
                .filter(|&e| sub.seg[e] == i as u32)
                .all(|e| sub.dst[e] == r));
        }
    }
}
