//! MeanConv / MinusConv — the parameter-free neighbour-variance layers of
//! the VGOD paper (Fig. 5, Eq. 7–9).

use std::rc::Rc;

use vgod_autograd::Var;
use vgod_tensor::{Csr, Matrix};

/// MeanConv (Eq. 7): neighbour mean `h̄_i = (1/|N_i|) Σ_{j∈N_i} h_j`,
/// implemented as `Ā h` with the row-normalised adjacency `Ā = D⁻¹A`.
pub fn mean_conv(h: &Var, mean_adj: &Rc<Csr>) -> Var {
    h.spmm(mean_adj)
}

/// Neighbour variance (Eq. 8), one value per node and hidden dimension:
///
/// `var(v_i) = (1/|N_i|) Σ_{j∈N_i} (h_j − h̄_i)²  =  Ā(h∘h) − (Āh)∘(Āh)`
///
/// (the `E[X²] − E[X]²` identity). This is the MinusConv layer: it fuses the
/// subtraction and squaring of Fig. 5(b) into two MeanConv passes, stays
/// O(|E| + |V|), and differentiates cleanly.
pub fn neighbor_variance(h: &Var, mean_adj: &Rc<Csr>) -> Var {
    let mean = mean_conv(h, mean_adj);
    let mean_of_squares = mean_conv(&h.square(), mean_adj);
    mean_of_squares.sub(&mean.square())
}

/// Structural outlier scores (Eq. 9): `o_i = ‖var(v_i)‖₁`, which for the
/// non-negative variance vector is simply its row sum. Returns an `n × 1`
/// variable.
pub fn neighbor_variance_scores(h: &Var, mean_adj: &Rc<Csr>) -> Var {
    neighbor_variance(h, mean_adj).row_sum()
}

/// Inference-time neighbour variance on plain matrices (no tape): used when
/// scoring a graph with a trained model.
pub fn neighbor_variance_matrix(h: &Matrix, mean_adj: &Csr) -> Matrix {
    neighbor_variance_with_squares(h, &h.mul(h), mean_adj)
}

/// [`neighbor_variance_matrix`] given `h ∘ h` as well. `mean_adj` may be a
/// row subset of the operator (`Csr::spmm` reads only the columns a row
/// names), which yields exactly those rows of the whole-graph variance.
pub fn neighbor_variance_with_squares(h: &Matrix, h_sq: &Matrix, mean_adj: &Csr) -> Matrix {
    let mean = mean_adj.spmm(h);
    let sq = mean_adj.spmm(h_sq);
    sq.sub(&mean.mul(&mean))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgod_autograd::Tape;
    use vgod_graph::AttributedGraph;

    /// Star graph: centre 0 linked to 1..=k.
    fn star(k: usize, feats: Matrix) -> AttributedGraph {
        let mut g = AttributedGraph::new(feats);
        for i in 1..=k as u32 {
            g.add_edge(0, i);
        }
        g
    }

    #[test]
    fn variance_is_zero_for_identical_neighbors() {
        let mut feats = Matrix::filled(4, 2, 3.0);
        feats.row_mut(0).copy_from_slice(&[-7.0, 9.0]); // centre's own features don't matter
        let g = star(3, feats);
        let adj = Rc::new(g.mean_adjacency(false));
        let tape = Tape::new();
        let h = tape.constant(g.attrs().clone());
        let var = neighbor_variance(&h, &adj).value();
        assert!(
            var.row(0).iter().all(|v| v.abs() < 1e-5),
            "centre variance {:?}",
            var.row(0)
        );
    }

    #[test]
    fn variance_matches_direct_computation() {
        // Centre 0 with neighbours holding features [0], [2], [4]:
        // mean 2, variance (4+0+4)/3 = 8/3.
        let feats = Matrix::from_rows(&[&[100.0], &[0.0], &[2.0], &[4.0]]);
        let g = star(3, feats);
        let adj = Rc::new(g.mean_adjacency(false));
        let tape = Tape::new();
        let h = tape.constant(g.attrs().clone());
        let var = neighbor_variance(&h, &adj).value();
        assert!((var[(0, 0)] - 8.0 / 3.0).abs() < 1e-4);
        // Leaves see only the centre: variance 0.
        assert!(var[(1, 0)].abs() < 1e-4);
    }

    #[test]
    fn self_loop_raises_variance_of_deviant_node() {
        // Node 0's features differ from its neighbours'; with the self-loop
        // technique (Eq. 13) its own deviation enters the variance.
        let feats = Matrix::from_rows(&[&[10.0], &[1.0], &[1.0], &[1.0]]);
        let g = star(3, feats);
        let tape = Tape::new();
        let h = tape.constant(g.attrs().clone());
        let plain = neighbor_variance(&h, &Rc::new(g.mean_adjacency(false))).value();
        let with_sl = neighbor_variance(&h, &Rc::new(g.mean_adjacency(true))).value();
        // Without self-loops the centre's neighbours agree: variance ~0.
        assert!(plain[(0, 0)].abs() < 1e-4);
        // With self-loops the centre's own deviant feature shows up.
        assert!(
            with_sl[(0, 0)] > 1.0,
            "self-loop variance {}",
            with_sl[(0, 0)]
        );
        // And each *leaf* now sees {centre, itself} = {10, 1}: also large.
        assert!(with_sl[(1, 0)] > 1.0);
    }

    #[test]
    fn scores_are_row_sums_of_variance() {
        let feats = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 2.0], &[3.0, -2.0], &[5.0, 0.0]]);
        let g = star(3, feats);
        let adj = Rc::new(g.mean_adjacency(false));
        let tape = Tape::new();
        let h = tape.constant(g.attrs().clone());
        let var = neighbor_variance(&h, &adj).value();
        let scores = neighbor_variance_scores(&h, &adj).value();
        for r in 0..4 {
            let manual: f32 = var.row(r).iter().sum();
            assert!((scores[(r, 0)] - manual).abs() < 1e-5);
        }
    }

    #[test]
    fn matrix_and_tape_variants_agree() {
        let feats = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5], &[0.0, 3.0], &[-2.0, 1.0]]);
        let mut g = star(2, feats);
        g.add_edge(2, 3);
        let adj = g.mean_adjacency(false);
        let tape = Tape::new();
        let h = tape.constant(g.attrs().clone());
        let via_tape = neighbor_variance(&h, &Rc::new(adj.clone())).value();
        let via_matrix = neighbor_variance_matrix(g.attrs(), &adj);
        assert!(via_tape.approx_eq(&via_matrix, 1e-6));
    }

    #[test]
    fn variance_is_degree_invariant_in_scale() {
        // A structural-outlier detector must not favour high degree per se:
        // identical neighbourhood spread at different degrees gives a
        // comparable variance. Node A has 2 neighbours at ±1, node B has 20
        // neighbours alternating ±1 — same per-dimension variance 1.
        let mut feats = Matrix::zeros(24, 1);
        for i in 0..24 {
            feats[(i, 0)] = if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let mut g = AttributedGraph::new(feats);
        // Node 22 connected to 0 (=+1) and 1 (=−1).
        g.add_edge(22, 0);
        g.add_edge(22, 1);
        // Node 23 connected to 2..22 (alternating ±1, ten of each).
        for v in 2..22u32 {
            g.add_edge(23, v);
        }
        let adj = Rc::new(g.mean_adjacency(false));
        let tape = Tape::new();
        let h = tape.constant(g.attrs().clone());
        let var = neighbor_variance(&h, &adj).value();
        assert!((var[(22, 0)] - 1.0).abs() < 1e-4);
        assert!((var[(23, 0)] - 1.0).abs() < 1e-4);
    }
}
