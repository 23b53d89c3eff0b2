//! The autodiff tape and differentiable `Var` handles.

use std::cell::RefCell;
use std::rc::Rc;

use vgod_tensor::{Csr, Matrix};

use crate::{ParamId, ParamStore};

/// Epsilon added to row norms in [`Var::l2_normalize_rows`].
const ROW_NORM_EPS: f32 = 1e-6;

/// The recorded operation behind each tape node.
enum Op {
    /// Leaf value (constant input or parameter copy).
    Leaf,
    MatMul(usize, usize),
    MatMulTn(usize, usize),
    MatMulNt(usize, usize),
    SpMm {
        mat: Rc<Csr>,
        x: usize,
    },
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    AddRowBroadcast {
        x: usize,
        row: usize,
    },
    MulColBroadcast {
        x: usize,
        col: usize,
    },
    Scale(usize, f32),
    Relu(usize),
    LeakyRelu(usize, f32),
    Sigmoid(usize),
    Tanh(usize),
    Exp(usize),
    RowL2Norm {
        x: usize,
        divisors: Matrix,
    },
    SumAll(usize),
    MeanAll(usize),
    RowSum(usize),
    Gather {
        x: usize,
        idx: Rc<Vec<u32>>,
    },
    SegmentSoftmax {
        logits: usize,
        seg: Rc<Vec<u32>>,
    },
    EdgeAggregate {
        alpha: usize,
        h: usize,
        src: Rc<Vec<u32>>,
        dst: Rc<Vec<u32>>,
    },
    HCat(usize, usize),
}

impl Op {
    /// The tape nodes this op reads.
    fn inputs(&self) -> [Option<usize>; 2] {
        match *self {
            Op::Leaf => [None, None],
            Op::MatMul(a, b)
            | Op::MatMulTn(a, b)
            | Op::MatMulNt(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::HCat(a, b)
            | Op::AddRowBroadcast { x: a, row: b }
            | Op::MulColBroadcast { x: a, col: b }
            | Op::EdgeAggregate { alpha: a, h: b, .. } => [Some(a), Some(b)],
            Op::SpMm { x, .. }
            | Op::Scale(x, _)
            | Op::Relu(x)
            | Op::LeakyRelu(x, _)
            | Op::Sigmoid(x)
            | Op::Tanh(x)
            | Op::Exp(x)
            | Op::RowL2Norm { x, .. }
            | Op::SumAll(x)
            | Op::MeanAll(x)
            | Op::RowSum(x)
            | Op::Gather { x, .. }
            | Op::SegmentSoftmax { logits: x, .. } => [Some(x), None],
        }
    }
}

struct Node {
    value: Matrix,
    op: Op,
    /// If this leaf mirrors a trainable parameter: the owning store's
    /// identity and the parameter's id within it.
    param: Option<(u64, ParamId)>,
    /// No parameter leaf feeds this node: a constant leaf, or an op whose
    /// inputs are all constant. [`Var::backward_into`] computes no gradient
    /// for such nodes — none of it could reach a parameter.
    constant: bool,
}

/// The recycled storage behind a [`Tape`]: recorded nodes plus the gradient
/// scratch table reused by [`Var::backward_into`].
#[derive(Default)]
struct TapeBuf {
    nodes: Vec<Node>,
    grads: Vec<Option<Matrix>>,
}

/// A recording of a forward computation, shared by all the [`Var`]s created
/// on it.
///
/// Cheap to clone (reference-counted). A tape lives for one forward/backward
/// step at a time: build the loss, call [`Var::backward_into`], then either
/// drop the tape or — in an epoch loop — call [`Tape::reset`] and record the
/// next step into the same storage. Resetting keeps the node and gradient
/// slot vectors, and (inside a `vgod_tensor::arena::scope`) returns the
/// value/gradient matrices to the buffer arena for reuse, so steady-state
/// epochs allocate nothing new.
#[derive(Clone)]
pub struct Tape {
    inner: Rc<RefCell<TapeBuf>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// A fresh, empty tape.
    pub fn new() -> Self {
        Self {
            inner: Rc::new(RefCell::new(TapeBuf::default())),
        }
    }

    /// Clear the recording while keeping the allocated node and gradient
    /// slots for the next step.
    ///
    /// This invalidates every [`Var`] previously created on this tape — drop
    /// them all before resetting (indices held by surviving `Var`s would
    /// silently refer to the next recording's nodes).
    pub fn reset(&self) {
        let mut buf = self.inner.borrow_mut();
        buf.nodes.clear();
        buf.grads.clear();
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().nodes.is_empty()
    }

    fn push(&self, value: Matrix, op: Op, param: Option<(u64, ParamId)>) -> Var {
        let mut buf = self.inner.borrow_mut();
        let constant = param.is_none()
            && op
                .inputs()
                .into_iter()
                .flatten()
                .all(|j| buf.nodes[j].constant);
        buf.nodes.push(Node {
            value,
            op,
            param,
            constant,
        });
        Var {
            tape: self.clone(),
            idx: buf.nodes.len() - 1,
        }
    }

    /// Record a constant (non-trainable) leaf.
    pub fn constant(&self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, None)
    }

    /// Record a leaf holding the current value of parameter `id`, so that
    /// [`Var::backward_into`] can route gradients back to the store.
    pub fn param(&self, store: &ParamStore, id: ParamId) -> Var {
        self.push(
            store.value(id).clone(),
            Op::Leaf,
            Some((store.store_id(), id)),
        )
    }

    fn value_of(&self, idx: usize) -> Matrix {
        self.inner.borrow().nodes[idx].value.clone()
    }

    fn shape_of(&self, idx: usize) -> (usize, usize) {
        self.inner.borrow().nodes[idx].value.shape()
    }
}

/// A differentiable handle to one node on a [`Tape`].
#[derive(Clone)]
pub struct Var {
    tape: Tape,
    idx: usize,
}

impl Var {
    /// The tape this variable lives on.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// The node index on the tape (stable identifier within one tape).
    pub fn index(&self) -> usize {
        self.idx
    }

    /// A clone of the forward value.
    pub fn value(&self) -> Matrix {
        self.tape.value_of(self.idx)
    }

    /// `(rows, cols)` of the forward value.
    pub fn shape(&self) -> (usize, usize) {
        self.tape.shape_of(self.idx)
    }

    fn same_tape(&self, other: &Var) {
        assert!(
            Rc::ptr_eq(&self.tape.inner, &other.tape.inner),
            "variables come from different tapes"
        );
    }

    fn unary(&self, f: impl FnOnce(&Matrix) -> Matrix, op: impl FnOnce(usize) -> Op) -> Var {
        let value = f(&self.tape.inner.borrow().nodes[self.idx].value);
        self.tape.push(value, op(self.idx), None)
    }

    fn binary(
        &self,
        other: &Var,
        f: impl FnOnce(&Matrix, &Matrix) -> Matrix,
        op: impl FnOnce(usize, usize) -> Op,
    ) -> Var {
        self.same_tape(other);
        let value = {
            let nodes = &self.tape.inner.borrow().nodes;
            f(&nodes[self.idx].value, &nodes[other.idx].value)
        };
        self.tape.push(value, op(self.idx, other.idx), None)
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Dense product `self · other`.
    pub fn matmul(&self, other: &Var) -> Var {
        self.binary(other, |a, b| a.matmul(b), Op::MatMul)
    }

    /// Transposed-left product `selfᵀ · other`.
    pub fn matmul_tn(&self, other: &Var) -> Var {
        self.binary(other, |a, b| a.matmul_tn(b), Op::MatMulTn)
    }

    /// Transposed-right product `self · otherᵀ`.
    pub fn matmul_nt(&self, other: &Var) -> Var {
        self.binary(other, |a, b| a.matmul_nt(b), Op::MatMulNt)
    }

    /// Sparse message passing `mat · self` (the sparse matrix is constant;
    /// gradients flow only to `self`).
    pub fn spmm(&self, mat: &Rc<Csr>) -> Var {
        let value = mat.spmm(&self.tape.inner.borrow().nodes[self.idx].value);
        self.tape.push(
            value,
            Op::SpMm {
                mat: Rc::clone(mat),
                x: self.idx,
            },
            None,
        )
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic
    // ------------------------------------------------------------------

    /// Elementwise sum.
    pub fn add(&self, other: &Var) -> Var {
        self.binary(other, |a, b| a.add(b), Op::Add)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Var) -> Var {
        self.binary(other, |a, b| a.sub(b), Op::Sub)
    }

    /// Hadamard product.
    pub fn mul(&self, other: &Var) -> Var {
        self.binary(other, |a, b| a.mul(b), Op::Mul)
    }

    /// Elementwise square (`self ∘ self`).
    pub fn square(&self) -> Var {
        self.mul(self)
    }

    /// Scalar product `alpha * self`.
    pub fn scale(&self, alpha: f32) -> Var {
        self.unary(|a| a.scale(alpha), |x| Op::Scale(x, alpha))
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        self.scale(-1.0)
    }

    /// Add a `1 × d` row vector to every row (bias addition).
    pub fn add_row_broadcast(&self, row: &Var) -> Var {
        self.binary(
            row,
            |a, b| a.add_row_broadcast(b),
            |x, r| Op::AddRowBroadcast { x, row: r },
        )
    }

    /// Multiply row `r` of `self` by element `r` of an `n × 1` column vector.
    pub fn mul_col_broadcast(&self, col: &Var) -> Var {
        self.binary(
            col,
            |a, b| a.mul_col_broadcast(b),
            |x, c| Op::MulColBroadcast { x, col: c },
        )
    }

    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        self.unary(relu_forward, Op::Relu)
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&self, slope: f32) -> Var {
        self.unary(
            |a| leaky_relu_forward(a, slope),
            |x| Op::LeakyRelu(x, slope),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        self.unary(|a| a.map(|v| 1.0 / (1.0 + (-v).exp())), Op::Sigmoid)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        self.unary(|a| a.map(f32::tanh), Op::Tanh)
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var {
        self.unary(|a| a.map(f32::exp), Op::Exp)
    }

    // ------------------------------------------------------------------
    // Normalisation & reductions
    // ------------------------------------------------------------------

    /// L2-normalise every row (Eq. 6 of the VGOD paper).
    pub fn l2_normalize_rows(&self) -> Var {
        let (value, divisors) = {
            let nodes = &self.tape.inner.borrow().nodes;
            nodes[self.idx].value.l2_normalize_rows(ROW_NORM_EPS)
        };
        self.tape.push(
            value,
            Op::RowL2Norm {
                x: self.idx,
                divisors,
            },
            None,
        )
    }

    /// Sum of all elements, as a `1 × 1` scalar.
    pub fn sum_all(&self) -> Var {
        self.unary(|a| Matrix::filled(1, 1, a.sum()), Op::SumAll)
    }

    /// Mean of all elements, as a `1 × 1` scalar.
    pub fn mean_all(&self) -> Var {
        self.unary(|a| Matrix::filled(1, 1, a.mean()), Op::MeanAll)
    }

    /// Per-row sums, as an `n × 1` column vector.
    pub fn row_sum(&self) -> Var {
        self.unary(|a| a.row_sums(), Op::RowSum)
    }

    // ------------------------------------------------------------------
    // Graph / edge operations
    // ------------------------------------------------------------------

    /// Gather rows by index: `out[e, :] = self[idx[e], :]`.
    pub fn gather_rows(&self, idx: &Rc<Vec<u32>>) -> Var {
        let value = self.tape.inner.borrow().nodes[self.idx]
            .value
            .gather_rows(idx);
        self.tape.push(
            value,
            Op::Gather {
                x: self.idx,
                idx: Rc::clone(idx),
            },
            None,
        )
    }

    /// Softmax of an `m × 1` score vector within segments.
    ///
    /// `seg[e]` assigns element `e` to a segment (for GAT: the destination
    /// node of edge `e`); the softmax is computed independently inside each
    /// segment, with the usual max-subtraction for stability.
    pub fn segment_softmax(&self, seg: &Rc<Vec<u32>>) -> Var {
        let value = {
            let nodes = &self.tape.inner.borrow().nodes;
            segment_softmax_forward(&nodes[self.idx].value, seg)
        };
        self.tape.push(
            value,
            Op::SegmentSoftmax {
                logits: self.idx,
                seg: Rc::clone(seg),
            },
            None,
        )
    }

    /// Weighted scatter-add over edges — the core GAT aggregation:
    /// `out[dst[e], :] += alpha[e] * h[src[e], :]`, with `self` being the
    /// `m × 1` edge weights `alpha` and `h` the `n × d` node features.
    ///
    /// Gradients flow to both the edge weights and the node features.
    pub fn edge_aggregate(
        &self,
        h: &Var,
        src: &Rc<Vec<u32>>,
        dst: &Rc<Vec<u32>>,
        n_out: usize,
    ) -> Var {
        self.same_tape(h);
        assert_eq!(
            src.len(),
            dst.len(),
            "edge_aggregate: src/dst length mismatch"
        );
        let value = {
            let nodes = &self.tape.inner.borrow().nodes;
            let alpha = &nodes[self.idx].value;
            let feats = &nodes[h.idx].value;
            assert_eq!(
                alpha.shape(),
                (src.len(), 1),
                "edge_aggregate: alpha must be m×1"
            );
            edge_aggregate_forward(alpha, feats, src, dst, n_out)
        };
        self.tape.push(
            value,
            Op::EdgeAggregate {
                alpha: self.idx,
                h: h.idx,
                src: Rc::clone(src),
                dst: Rc::clone(dst),
            },
            None,
        )
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hcat(&self, other: &Var) -> Var {
        self.binary(other, |a, b| a.hcat(b), Op::HCat)
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Run reverse-mode differentiation from this scalar node and return the
    /// full gradient table.
    ///
    /// # Panics
    /// Panics if `self` is not `1 × 1`.
    pub fn backward(&self) -> Gradients {
        let nodes = &self.tape.inner.borrow().nodes;
        assert_eq!(
            nodes[self.idx].value.shape(),
            (1, 1),
            "backward must start from a scalar (1×1) loss"
        );
        let mut grads: Vec<Option<Matrix>> = (0..nodes.len()).map(|_| None).collect();
        grads[self.idx] = Some(Matrix::filled(1, 1, 1.0));
        run_backward(nodes, self.idx, &mut grads, false);
        Gradients { grads }
    }

    /// Run backward and accumulate parameter gradients into `store`.
    ///
    /// Does *not* zero existing gradients first — call
    /// [`ParamStore::zero_grads`] before the forward pass (or let the
    /// optimizer in `vgod-nn` do it).
    ///
    /// Unlike [`Var::backward`], this runs inside the tape's recycled
    /// gradient scratch table: intermediate gradient matrices are released
    /// back to the buffer arena as soon as the parameter gradients have been
    /// routed, so epoch loops using [`Tape::reset`] reach a steady state
    /// with no new allocations. It also computes no gradient for nodes no
    /// parameter feeds (constant inputs and everything derived only from
    /// them): those gradients reach no parameter, so the parameter
    /// gradients are bitwise the ones [`Var::backward`] computes.
    pub fn backward_into(&self, store: &mut ParamStore) {
        let mut buf = self.tape.inner.borrow_mut();
        let TapeBuf { nodes, grads } = &mut *buf;
        assert_eq!(
            nodes[self.idx].value.shape(),
            (1, 1),
            "backward must start from a scalar (1×1) loss"
        );
        grads.clear();
        grads.resize_with(nodes.len(), || None);
        grads[self.idx] = Some(Matrix::filled(1, 1, 1.0));
        run_backward(nodes, self.idx, grads, true);
        for (i, node) in nodes.iter().enumerate() {
            if let (Some((sid, pid)), Some(g)) = (node.param, grads[i].as_ref()) {
                // Only leaves created from *this* store receive gradients —
                // multi-store graphs (e.g. GANs) stay correctly separated.
                if sid == store.store_id() {
                    store.accumulate_grad(pid, g);
                }
            }
        }
        // Drop the gradient matrices now (into the arena when engaged); the
        // slot vector itself is retained for the next step.
        for g in grads.iter_mut() {
            *g = None;
        }
    }
}

/// Gradient table produced by [`Var::backward`].
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// The gradient of the loss with respect to `var`, if it participated in
    /// the computation.
    pub fn wrt(&self, var: &Var) -> Option<&Matrix> {
        self.grads.get(var.idx).and_then(|g| g.as_ref())
    }
}

/// Reverse sweep shared by [`Var::backward`] and [`Var::backward_into`]:
/// propagate from `from` down to the leaves, leaving each node's gradient in
/// its `grads` slot. With `prune`, nodes marked [`Node::constant`] get no
/// gradient and propagate none.
fn run_backward(nodes: &[Node], from: usize, grads: &mut [Option<Matrix>], prune: bool) {
    for i in (0..=from).rev() {
        if prune && nodes[i].constant {
            continue;
        }
        let Some(g) = grads[i].take() else { continue };
        backpropagate(nodes, i, &g, grads, prune);
        grads[i] = Some(g);
    }
}

fn accumulate(grads: &mut [Option<Matrix>], idx: usize, g: Matrix) {
    match &mut grads[idx] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

/// Propagate `g` (gradient at node `i`) to the inputs of node `i`.
///
/// With `prune`, node `i` is not constant, so a one-input op's input is not
/// constant either; two-input ops skip the gradient of a constant input.
fn backpropagate(nodes: &[Node], i: usize, g: &Matrix, grads: &mut [Option<Matrix>], prune: bool) {
    let live = |j: usize| !(prune && nodes[j].constant);
    match &nodes[i].op {
        Op::Leaf => {}
        Op::MatMul(a, b) => {
            let (av, bv) = (&nodes[*a].value, &nodes[*b].value);
            if live(*a) {
                accumulate(grads, *a, g.matmul_nt(bv));
            }
            if live(*b) {
                accumulate(grads, *b, av.matmul_tn(g));
            }
        }
        Op::MatMulTn(a, b) => {
            // C = AᵀB, A: k×m, B: k×n, C: m×n.
            let (av, bv) = (&nodes[*a].value, &nodes[*b].value);
            if live(*a) {
                accumulate(grads, *a, bv.matmul_nt(g)); // dA = B Gᵀ (k×m)
            }
            if live(*b) {
                accumulate(grads, *b, av.matmul(g)); // dB = A G (k×n)
            }
        }
        Op::MatMulNt(a, b) => {
            // C = ABᵀ, A: m×k, B: n×k, C: m×n.
            let (av, bv) = (&nodes[*a].value, &nodes[*b].value);
            if live(*a) {
                accumulate(grads, *a, g.matmul(bv)); // dA = G B (m×k)
            }
            if live(*b) {
                accumulate(grads, *b, g.matmul_tn(av)); // dB = Gᵀ A (n×k)
            }
        }
        Op::SpMm { mat, x } => {
            accumulate(grads, *x, mat.spmm_t(g));
        }
        Op::Add(a, b) => {
            if live(*a) {
                accumulate(grads, *a, g.clone());
            }
            if live(*b) {
                accumulate(grads, *b, g.clone());
            }
        }
        Op::Sub(a, b) => {
            if live(*a) {
                accumulate(grads, *a, g.clone());
            }
            if live(*b) {
                accumulate(grads, *b, g.scale(-1.0));
            }
        }
        Op::Mul(a, b) => {
            let (av, bv) = (&nodes[*a].value, &nodes[*b].value);
            if live(*a) {
                accumulate(grads, *a, g.mul(bv));
            }
            if live(*b) {
                accumulate(grads, *b, g.mul(av));
            }
        }
        Op::AddRowBroadcast { x, row } => {
            if live(*x) {
                accumulate(grads, *x, g.clone());
            }
            if live(*row) {
                accumulate(grads, *row, g.col_sums());
            }
        }
        Op::MulColBroadcast { x, col } => {
            let (xv, cv) = (&nodes[*x].value, &nodes[*col].value);
            if live(*x) {
                accumulate(grads, *x, g.mul_col_broadcast(cv));
            }
            if live(*col) {
                // d col[r] = Σ_c g[r,c] * x[r,c]
                accumulate(grads, *col, g.mul(xv).row_sums());
            }
        }
        Op::Scale(x, alpha) => {
            accumulate(grads, *x, g.scale(*alpha));
        }
        Op::Relu(x) => {
            let xv = &nodes[*x].value;
            let dx = g.zip_map(xv, |gv, v| if v <= 0.0 { 0.0 } else { gv });
            accumulate(grads, *x, dx);
        }
        Op::LeakyRelu(x, slope) => {
            let xv = &nodes[*x].value;
            let slope = *slope;
            let dx = g.zip_map(xv, move |gv, v| if v <= 0.0 { slope * gv } else { gv });
            accumulate(grads, *x, dx);
        }
        Op::Sigmoid(x) => {
            // Fused: one pass instead of a map followed by a mul.
            let yv = &nodes[i].value;
            let dx = g.zip_map(yv, |gv, y| gv * (y * (1.0 - y)));
            accumulate(grads, *x, dx);
        }
        Op::Tanh(x) => {
            let yv = &nodes[i].value;
            let dx = g.zip_map(yv, |gv, y| gv * (1.0 - y * y));
            accumulate(grads, *x, dx);
        }
        Op::Exp(x) => {
            accumulate(grads, *x, g.mul(&nodes[i].value));
        }
        Op::RowL2Norm { x, divisors } => {
            // y = x / n with n = ‖x‖ + eps; dx = g/n − (g·y) x / (‖x‖ n²).
            let xv = &nodes[*x].value;
            let yv = &nodes[i].value;
            let mut dx = Matrix::zeros(xv.rows(), xv.cols());
            dx.par_rows_mut(|r, drow| {
                let n = divisors.as_slice()[r];
                let raw_norm = (n - ROW_NORM_EPS).max(1e-12);
                let dot: f32 = g
                    .row(r)
                    .iter()
                    .zip(yv.row(r))
                    .map(|(&gv, &yvv)| gv * yvv)
                    .sum();
                let coef = dot / (raw_norm * n);
                for ((d, &gv), &xvv) in drow.iter_mut().zip(g.row(r)).zip(xv.row(r)) {
                    *d = gv / n - coef * xvv;
                }
            });
            accumulate(grads, *x, dx);
        }
        Op::SumAll(x) => {
            let (r, c) = nodes[*x].value.shape();
            accumulate(grads, *x, Matrix::filled(r, c, g.as_slice()[0]));
        }
        Op::MeanAll(x) => {
            let (r, c) = nodes[*x].value.shape();
            let scale = if r * c == 0 {
                0.0
            } else {
                g.as_slice()[0] / (r * c) as f32
            };
            accumulate(grads, *x, Matrix::filled(r, c, scale));
        }
        Op::RowSum(x) => {
            let (r, c) = nodes[*x].value.shape();
            let mut dx = Matrix::zeros(r, c);
            let gsl = g.as_slice();
            dx.par_rows_mut(|row, drow| {
                let gv = gsl[row];
                for d in drow {
                    *d = gv;
                }
            });
            accumulate(grads, *x, dx);
        }
        Op::Gather { x, idx } => {
            let (r, c) = nodes[*x].value.shape();
            let mut dx = Matrix::zeros(r, c);
            dx.scatter_add_rows(idx, g);
            accumulate(grads, *x, dx);
        }
        Op::SegmentSoftmax { logits, seg } => {
            // dl_e = α_e (g_e − Σ_{e' in seg(e)} α_{e'} g_{e'}).
            let alpha = &nodes[i].value;
            let m = alpha.rows();
            let n_seg = seg.iter().map(|&s| s as usize + 1).max().unwrap_or(0);
            let mut seg_dot = vec![0.0f32; n_seg];
            for e in 0..m {
                seg_dot[seg[e] as usize] += alpha.as_slice()[e] * g.as_slice()[e];
            }
            let mut dl = Matrix::zeros(m, 1);
            for e in 0..m {
                let a = alpha.as_slice()[e];
                dl.as_mut_slice()[e] = a * (g.as_slice()[e] - seg_dot[seg[e] as usize]);
            }
            accumulate(grads, *logits, dl);
        }
        Op::EdgeAggregate { alpha, h, src, dst } => {
            let alpha_v = &nodes[*alpha].value;
            let h_v = &nodes[*h].value;
            let m = src.len();
            // Plain slices: the Rc handles are not Sync, their contents are.
            let (src, dst): (&[u32], &[u32]) = (src, dst);
            if live(*alpha) {
                // d_alpha[e] = ⟨g[dst[e]], h[src[e]]⟩ is edge-disjoint:
                // parallel.
                let mut d_alpha = Matrix::zeros(m, 1);
                d_alpha.par_rows_mut(|e, out| {
                    let (s, d) = (src[e] as usize, dst[e] as usize);
                    out[0] = g
                        .row(d)
                        .iter()
                        .zip(h_v.row(s))
                        .map(|(&gv, &hv)| gv * hv)
                        .sum();
                });
                accumulate(grads, *alpha, d_alpha);
            }
            if live(*h) {
                // d_h[src[e]] += alpha[e] * g[dst[e]] scatters to shared
                // rows: stays sequential (not row-disjoint).
                let mut d_h = Matrix::zeros(h_v.rows(), h_v.cols());
                for e in 0..m {
                    let (s, d) = (src[e] as usize, dst[e] as usize);
                    let g_row = g.row(d);
                    let a = alpha_v.as_slice()[e];
                    let cols = d_h.cols();
                    let dst_row = &mut d_h.as_mut_slice()[s * cols..(s + 1) * cols];
                    for (o, &gv) in dst_row.iter_mut().zip(g_row) {
                        *o += a * gv;
                    }
                }
                accumulate(grads, *h, d_h);
            }
        }
        Op::HCat(a, b) => {
            let (ra, ca) = nodes[*a].value.shape();
            let (_, cb) = nodes[*b].value.shape();
            if live(*a) {
                let mut da = Matrix::zeros(ra, ca);
                for r in 0..ra {
                    da.row_mut(r).copy_from_slice(&g.row(r)[..ca]);
                }
                accumulate(grads, *a, da);
            }
            if live(*b) {
                let mut db = Matrix::zeros(ra, cb);
                for r in 0..ra {
                    db.row_mut(r).copy_from_slice(&g.row(r)[ca..ca + cb]);
                }
                accumulate(grads, *b, db);
            }
        }
    }
}

/// Rectified linear unit on a plain matrix — the forward value of
/// [`Var::relu`].
pub fn relu_forward(x: &Matrix) -> Matrix {
    x.map(|v| v.max(0.0))
}

/// Leaky ReLU on a plain matrix — the forward value of [`Var::leaky_relu`].
pub fn leaky_relu_forward(x: &Matrix, slope: f32) -> Matrix {
    x.map(|v| if v > 0.0 { v } else { slope * v })
}

/// Softmax of an `m × 1` score vector within segments — the forward value
/// of [`Var::segment_softmax`]. Each segment's exponentials are summed in
/// element order, so a segment's result depends only on its own elements
/// and their relative order, never on which other segments share the
/// vector (the property incremental GAT inference relies on).
pub fn segment_softmax_forward(logits: &Matrix, seg: &[u32]) -> Matrix {
    assert_eq!(
        logits.cols(),
        1,
        "segment_softmax expects an m×1 score vector"
    );
    assert_eq!(
        logits.rows(),
        seg.len(),
        "segment_softmax: scores/segments length mismatch"
    );
    let m = logits.rows();
    let n_seg = seg.iter().map(|&s| s as usize + 1).max().unwrap_or(0);
    let mut seg_max = vec![f32::NEG_INFINITY; n_seg];
    for (&s, &l) in seg.iter().zip(logits.as_slice()) {
        let s = s as usize;
        seg_max[s] = seg_max[s].max(l);
    }
    let mut out = Matrix::zeros(m, 1);
    let mut seg_sum = vec![0.0f32; n_seg];
    for e in 0..m {
        let v = (logits.as_slice()[e] - seg_max[seg[e] as usize]).exp();
        out.as_mut_slice()[e] = v;
        seg_sum[seg[e] as usize] += v;
    }
    for (v, &s) in out.as_mut_slice().iter_mut().zip(seg.iter()) {
        *v /= seg_sum[s as usize].max(f32::MIN_POSITIVE);
    }
    out
}

/// Weighted scatter-add over edges — the forward value of
/// [`Var::edge_aggregate`]: `out[dst[e], :] += alpha[e] * h[src[e], :]`,
/// visiting edges in order, so each output row accumulates its in-edges in
/// their relative edge order.
pub fn edge_aggregate_forward(
    alpha: &Matrix,
    h: &Matrix,
    src: &[u32],
    dst: &[u32],
    n_out: usize,
) -> Matrix {
    let mut out = Matrix::zeros(n_out, h.cols());
    for e in 0..src.len() {
        let a = alpha.as_slice()[e];
        let src_row = h.row(src[e] as usize);
        let cols = out.cols();
        let d = dst[e] as usize;
        let dst_row = &mut out.as_mut_slice()[d * cols..(d + 1) * cols];
        for (o, &v) in dst_row.iter_mut().zip(src_row) {
            *o += a * v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values_match_tensor_ops() {
        let tape = Tape::new();
        let a = tape.constant(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = tape.constant(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        assert_eq!(a.matmul(&b).value(), a.value());
        assert_eq!(a.add(&b).value(), a.value().add(&b.value()));
        assert_eq!(a.sum_all().value().as_slice(), &[10.0]);
        assert_eq!(a.mean_all().value().as_slice(), &[2.5]);
    }

    #[test]
    fn simple_chain_gradient() {
        // loss = sum((2x)^2) = 4 * sum(x^2); dloss/dx = 8x.
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[1.0, -2.0]]));
        let loss = x.scale(2.0).square().sum_all();
        let grads = loss.backward();
        let gx = grads.wrt(&x).unwrap();
        assert!(gx.approx_eq(&Matrix::from_rows(&[&[8.0, -16.0]]), 1e-5));
    }

    #[test]
    fn shared_subexpression_accumulates() {
        // loss = sum(x) + sum(x) → grad = 2.
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[3.0]]));
        let s = x.sum_all();
        let loss = s.add(&s);
        let grads = loss.backward();
        assert_eq!(grads.wrt(&x).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn params_receive_gradients() {
        let mut store = ParamStore::new();
        let w = store.insert(Matrix::from_rows(&[&[1.0], &[2.0]]));
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[3.0, 4.0]]));
        let wv = tape.param(&store, w);
        // loss = x · w = 3*1 + 4*2 = 11; dloss/dw = xᵀ.
        let loss = x.matmul(&wv).sum_all();
        assert_eq!(loss.value().as_slice(), &[11.0]);
        loss.backward_into(&mut store);
        assert!(store
            .grad(w)
            .approx_eq(&Matrix::from_rows(&[&[3.0], &[4.0]]), 1e-6));
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let tape = Tape::new();
        let logits = tape.constant(Matrix::column_vector(&[1.0, 2.0, 3.0, -1.0, 0.5]));
        let seg = Rc::new(vec![0u32, 0, 1, 1, 1]);
        let alpha = logits.segment_softmax(&seg).value();
        let s0 = alpha.as_slice()[0] + alpha.as_slice()[1];
        let s1 = alpha.as_slice()[2] + alpha.as_slice()[3] + alpha.as_slice()[4];
        assert!((s0 - 1.0).abs() < 1e-5);
        assert!((s1 - 1.0).abs() < 1e-5);
        // Larger logit ⇒ larger weight within a segment.
        assert!(alpha.as_slice()[1] > alpha.as_slice()[0]);
        assert!(alpha.as_slice()[2] > alpha.as_slice()[4]);
    }

    #[test]
    fn edge_aggregate_matches_manual() {
        let tape = Tape::new();
        let h = tape.constant(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]));
        let alpha = tape.constant(Matrix::column_vector(&[0.5, 2.0]));
        let src = Rc::new(vec![0u32, 2]);
        let dst = Rc::new(vec![1u32, 1]);
        let out = alpha.edge_aggregate(&h, &src, &dst, 3).value();
        // out[1] = 0.5*h[0] + 2*h[2] = [0.5+2, 0+2].
        assert!(out.row(0).iter().all(|&v| v == 0.0));
        assert_eq!(out.row(1), &[2.5, 2.0]);
        assert!(out.row(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn spmm_gradient_is_transpose_product() {
        let csr =
            Rc::new(Csr::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)]).unwrap());
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[1.0], &[1.0]]));
        let loss = x.spmm(&csr).sum_all();
        let grads = loss.backward();
        // d/dx = Aᵀ · 1 = column sums of A = [1, 5].
        assert!(grads
            .wrt(&x)
            .unwrap()
            .approx_eq(&Matrix::from_rows(&[&[1.0], &[5.0]]), 1e-6));
    }

    #[test]
    fn reset_reuses_storage_and_keeps_gradients_exact() {
        let mut store = ParamStore::new();
        let w = store.insert(Matrix::from_rows(&[&[1.0], &[2.0]]));
        let tape = Tape::new();
        let mut grads_seen = Vec::new();
        for _ in 0..3 {
            let x = tape.constant(Matrix::from_rows(&[&[3.0, 4.0]]));
            let wv = tape.param(&store, w);
            let loss = x.matmul(&wv).sum_all();
            loss.backward_into(&mut store);
            grads_seen.push(store.grad(w).clone());
            store.zero_grads();
            drop((x, wv, loss));
            tape.reset();
            assert!(tape.is_empty());
        }
        assert!(grads_seen.iter().all(|g| g == &grads_seen[0]));
    }

    #[test]
    fn constant_flag_marks_nodes_no_parameter_feeds() {
        let mut store = ParamStore::new();
        let w = store.insert(Matrix::filled(2, 1, 0.5));
        let tape = Tape::new();
        let x = tape.constant(Matrix::filled(3, 2, 1.0));
        let scaled = x.scale(2.0);
        let wv = tape.param(&store, w);
        let y = scaled.matmul(&wv);
        let loss = y.sum_all();
        let constant = |v: &Var| tape.inner.borrow().nodes[v.idx].constant;
        assert!(constant(&x) && constant(&scaled));
        assert!(!constant(&wv) && !constant(&y) && !constant(&loss));
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_from_non_scalar_panics() {
        let tape = Tape::new();
        let x = tape.constant(Matrix::zeros(2, 2));
        let _ = x.backward();
    }

    #[test]
    #[should_panic(expected = "different tapes")]
    fn mixing_tapes_panics() {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let a = t1.constant(Matrix::zeros(1, 1));
        let b = t2.constant(Matrix::zeros(1, 1));
        let _ = a.add(&b);
    }
}
