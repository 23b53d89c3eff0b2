//! Tape-mechanics tests beyond per-op gradient checks: DAG fan-out,
//! repeated backward passes, gradient accumulation across steps, and
//! interaction with the parameter store.

use std::rc::Rc;

use vgod_autograd::{ParamStore, Tape};
use vgod_tensor::{Csr, Matrix};

#[test]
fn diamond_dag_accumulates_through_both_paths() {
    // loss = sum(relu(x) + sigmoid(x)) — x fans out into two paths that
    // rejoin; its gradient must be the sum of both branch gradients.
    let tape = Tape::new();
    let x = tape.constant(Matrix::from_rows(&[&[0.5, -0.5]]));
    let a = x.relu();
    let b = x.sigmoid();
    let loss = a.add(&b).sum_all();
    let g = loss.backward();
    let gx = g.wrt(&x).unwrap();
    // d/dx [relu(x) + σ(x)] at 0.5: 1 + σ(0.5)(1−σ(0.5)) ≈ 1.2350.
    let s = 1.0 / (1.0 + (-0.5f32).exp());
    assert!((gx.as_slice()[0] - (1.0 + s * (1.0 - s))).abs() < 1e-4);
    // At −0.5 the relu path is dead: σ'(−0.5) only.
    let s = 1.0 / (1.0 + 0.5f32.exp());
    assert!((gx.as_slice()[1] - s * (1.0 - s)).abs() < 1e-4);
}

#[test]
fn backward_can_run_from_multiple_losses_on_one_tape() {
    let tape = Tape::new();
    let x = tape.constant(Matrix::from_rows(&[&[2.0]]));
    let l1 = x.scale(3.0).sum_all();
    let l2 = x.square().sum_all();
    let g1 = l1.backward();
    let g2 = l2.backward();
    assert_eq!(g1.wrt(&x).unwrap().as_slice(), &[3.0]);
    assert_eq!(g2.wrt(&x).unwrap().as_slice(), &[4.0]);
}

#[test]
fn param_gradients_accumulate_across_backward_calls() {
    let mut store = ParamStore::new();
    let w = store.insert(Matrix::filled(1, 1, 1.0));
    for _ in 0..3 {
        let tape = Tape::new();
        let wv = tape.param(&store, w);
        wv.scale(2.0).sum_all().backward_into(&mut store);
    }
    // Each pass contributes d(2w)/dw = 2 without zeroing in between.
    assert_eq!(store.grad(w).as_slice(), &[6.0]);
    store.zero_grads();
    assert_eq!(store.grad(w).as_slice(), &[0.0]);
}

#[test]
fn same_param_used_twice_in_one_graph_accumulates() {
    let mut store = ParamStore::new();
    let w = store.insert(Matrix::filled(1, 1, 3.0));
    let tape = Tape::new();
    let w1 = tape.param(&store, w);
    let w2 = tape.param(&store, w);
    // loss = w * w (via two separate leaves of the same parameter).
    let loss = w1.mul(&w2).sum_all();
    loss.backward_into(&mut store);
    // d(w²)/dw = 2w = 6, assembled from the two leaves (3 + 3).
    assert_eq!(store.grad(w).as_slice(), &[6.0]);
}

#[test]
fn unreached_nodes_get_no_gradient() {
    let tape = Tape::new();
    let x = tape.constant(Matrix::filled(1, 1, 1.0));
    let unused = tape.constant(Matrix::filled(1, 1, 5.0));
    let loss = x.scale(2.0).sum_all();
    let g = loss.backward();
    assert!(g.wrt(&x).is_some());
    assert!(
        g.wrt(&unused).is_none(),
        "disconnected nodes must not receive gradients"
    );
}

#[test]
fn tape_length_tracks_recorded_ops() {
    let tape = Tape::new();
    assert!(tape.is_empty());
    let x = tape.constant(Matrix::zeros(2, 2));
    assert_eq!(tape.len(), 1);
    let _ = x.relu().sum_all();
    assert_eq!(tape.len(), 3);
}

#[test]
fn long_chain_remains_stable() {
    // 100 chained tanh ops: gradients should flow (vanishing but finite).
    let tape = Tape::new();
    let x = tape.constant(Matrix::filled(1, 4, 0.3));
    let mut h = x.clone();
    for _ in 0..100 {
        h = h.tanh();
    }
    let loss = h.sum_all();
    let g = loss.backward();
    let gx = g.wrt(&x).unwrap();
    assert!(gx.as_slice().iter().all(|v| v.is_finite()));
    assert!(gx.max_abs() < 1.0, "tanh chain gradient should shrink");
}

#[test]
fn mixed_sparse_dense_pipeline_gradient_is_finite() {
    let csr = Rc::new(
        Csr::from_edges(5, 5, &[(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)])
            .unwrap()
            .row_normalized(),
    );
    let mut store = ParamStore::new();
    let mut rng_vals = 0.37f32;
    let w = store.insert(Matrix::from_fn(3, 4, |_, _| {
        rng_vals = (rng_vals * 7.13).fract() - 0.5;
        rng_vals
    }));
    let tape = Tape::new();
    let x = tape.constant(Matrix::from_fn(5, 3, |r, c| (r as f32 - c as f32) * 0.4));
    let wv = tape.param(&store, w);
    let loss = x
        .matmul(&wv)
        .l2_normalize_rows()
        .spmm(&csr)
        .leaky_relu(0.1)
        .square()
        .mean_all();
    loss.backward_into(&mut store);
    assert!(store.grad(w).as_slice().iter().all(|v| v.is_finite()));
    assert!(store.grad_norm() > 0.0);
}

#[test]
fn multi_store_gradients_do_not_cross_contaminate() {
    // Two stores with same-index parameters participating in one loss
    // (the GAN layout): backward_into must route each leaf's gradient to
    // its own store only.
    let mut store_a = ParamStore::new();
    let a = store_a.insert(Matrix::filled(1, 1, 2.0));
    let mut store_b = ParamStore::new();
    let b = store_b.insert(Matrix::filled(1, 1, 5.0));
    assert_ne!(store_a.store_id(), store_b.store_id());

    let tape = Tape::new();
    let av = tape.param(&store_a, a);
    let bv = tape.param(&store_b, b);
    let loss = av.mul(&bv).sum_all(); // d/da = b = 5, d/db = a = 2
    loss.backward_into(&mut store_a);
    loss.backward_into(&mut store_b);
    assert_eq!(store_a.grad(a).as_slice(), &[5.0]);
    assert_eq!(store_b.grad(b).as_slice(), &[2.0]);
}

#[test]
fn gradients_table_is_isolated_per_backward() {
    // Calling backward twice yields identical (not doubled) tables.
    let tape = Tape::new();
    let x = tape.constant(Matrix::filled(1, 1, 2.0));
    let loss = x.square().sum_all();
    let a = loss.backward();
    let b = loss.backward();
    assert_eq!(a.wrt(&x).unwrap().as_slice(), b.wrt(&x).unwrap().as_slice());
}

// ---------------------------------------------------------------------------
// Gradient pruning: `backward_into` skips every node no parameter feeds.
// ---------------------------------------------------------------------------

/// Deterministic pseudo-random values in `[-0.5, 0.5)`.
fn det_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
    let mut s = seed.wrapping_mul(2_654_435_761).wrapping_add(12_345);
    Matrix::from_fn(rows, cols, |_, _| {
        s ^= s << 13;
        s ^= s >> 17;
        s ^= s << 5;
        (s % 10_000) as f32 / 10_000.0 - 0.5
    })
}

/// A ring with chords plus self-loops, as `(src, dst)` edge lists.
fn ring_edges(n: u32) -> (Rc<Vec<u32>>, Rc<Vec<u32>>) {
    let mut src = Vec::new();
    let mut dst = Vec::new();
    for i in 0..n {
        for j in [i, (i + 1) % n, (i + n - 1) % n, (i * 7 + 3) % n] {
            src.push(j);
            dst.push(i);
        }
    }
    (Rc::new(src), Rc::new(dst))
}

/// Run the full `backward()` table and the pruned `backward_into` on the
/// same recording; every parameter gradient must agree bit for bit, and
/// the full table must still cover the constant leaves.
fn assert_pruned_grads_match_full(
    store: &mut ParamStore,
    loss: &vgod_autograd::Var,
    params: &[(vgod_autograd::ParamId, vgod_autograd::Var)],
    constants: &[&vgod_autograd::Var],
) {
    let full = loss.backward();
    store.zero_grads();
    loss.backward_into(store);
    for (id, leaf) in params {
        // backward_into accumulates into a zeroed gradient: replay that add
        // on the full table's value (it maps -0.0 to +0.0).
        let g = full.wrt(leaf).expect("every parameter reaches the loss");
        let mut expected = Matrix::zeros(g.rows(), g.cols());
        expected.add_assign(g);
        let got: Vec<u32> = store
            .grad(*id)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let want: Vec<u32> = expected.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "parameter {} gradient differs", id.index());
    }
    for c in constants {
        let g = full
            .wrt(c)
            .expect("backward() keeps gradients for constant leaves");
        assert_eq!(g.shape(), c.shape());
        assert!(g.max_abs() > 0.0);
    }
}

#[test]
fn pruned_backward_matches_full_table_for_a_gat_stack() {
    let n = 40;
    let (src, dst) = ring_edges(n as u32);
    let (d_in, d_h) = (12, 8);
    let mut store = ParamStore::new();
    let w_in = store.insert(det_matrix(d_in, d_h, 1));
    let b_in = store.insert(det_matrix(1, d_h, 2));
    let layers: Vec<_> = (0..2)
        .map(|l| {
            (
                store.insert(det_matrix(d_h, d_h, 10 + l)),
                store.insert(det_matrix(d_h, 1, 20 + l)),
                store.insert(det_matrix(d_h, 1, 30 + l)),
            )
        })
        .collect();
    let w_out = store.insert(det_matrix(d_h, d_in, 3));
    let b_out = store.insert(det_matrix(1, d_in, 4));

    let tape = Tape::new();
    let x = tape.constant(det_matrix(n, d_in, 5));
    let mut params = Vec::new();
    let mut param = |id| {
        let v = tape.param(&store, id);
        params.push((id, v.clone()));
        v
    };
    let mut h = x
        .matmul(&param(w_in))
        .add_row_broadcast(&param(b_in))
        .relu();
    for &(w, a_src, a_dst) in &layers {
        let wh = h.matmul(&param(w));
        let s_src = wh.matmul(&param(a_src));
        let s_dst = wh.matmul(&param(a_dst));
        let logits = s_src
            .gather_rows(&src)
            .add(&s_dst.gather_rows(&dst))
            .leaky_relu(0.2);
        let alpha = logits.segment_softmax(&dst);
        h = alpha.edge_aggregate(&wh, &src, &dst, n).relu();
    }
    let recon = h.matmul(&param(w_out)).add_row_broadcast(&param(b_out));
    // The target is derived from the constant input only, so it is itself
    // a constant node that pruning skips.
    let target = x.scale(0.5);
    let loss = recon.sub(&target).square().mean_all();
    assert_pruned_grads_match_full(&mut store, &loss, &params, &[&x, &target]);
}

#[test]
fn pruned_backward_matches_full_table_for_a_vbm_loss() {
    let n = 30;
    let mean_adj = |edges: &[(u32, u32)]| {
        Rc::new(
            Csr::from_edges(n, n, edges)
                .expect("edges in range")
                .row_normalized(),
        )
    };
    let pos: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|i| [(i, i), (i, (i + 1) % n as u32), ((i + 1) % n as u32, i)])
        .collect();
    let neg: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|i| [(i, i), (i, (i * 11 + 5) % n as u32)])
        .collect();
    let (pos, neg) = (mean_adj(&pos), mean_adj(&neg));
    let mut store = ParamStore::new();
    let w = store.insert(det_matrix(10, 6, 7));
    let b = store.insert(det_matrix(1, 6, 8));

    let tape = Tape::new();
    let x = tape.constant(det_matrix(n, 10, 9));
    let (wv, bv) = (tape.param(&store, w), tape.param(&store, b));
    let h = x.matmul(&wv).add_row_broadcast(&bv).l2_normalize_rows();
    let variance = |adj: &Rc<Csr>| {
        h.square()
            .spmm(adj)
            .sub(&h.spmm(adj).square())
            .row_sum()
            .mean_all()
    };
    let loss = variance(&pos).sub(&variance(&neg));
    assert_pruned_grads_match_full(&mut store, &loss, &[(w, wv), (b, bv)], &[&x]);
}
