//! Parametric message-passing layers.

use std::borrow::Cow;

use rand::Rng;
use vgod_autograd::{
    edge_aggregate_forward, leaky_relu_forward, segment_softmax_forward, ParamId, ParamStore, Tape,
    Var,
};
use vgod_graph::GraphStore;
use vgod_nn::{glorot_uniform, Activation, Linear, Mlp};
use vgod_tensor::Matrix;

use crate::rows::{adjacency_rows, put_rows, AdjacencyKind, AttentionEdges};
use crate::GraphContext;

/// The GNN layer families the paper's ARM can use as backbone (§V-B,
/// Table VIII).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GnnKind {
    /// Graph convolution network.
    Gcn,
    /// Graph attention network.
    Gat,
    /// Graph isomorphism network.
    Gin,
    /// GraphSAGE with mean aggregation.
    Sage,
}

impl std::fmt::Display for GnnKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GnnKind::Gcn => "GCN",
            GnnKind::Gat => "GAT",
            GnnKind::Gin => "GIN",
            GnnKind::Sage => "SAGE",
        })
    }
}

/// GCN layer: `H' = Â H W (+ b)` with `Â = D^{-1/2}(A+I)D^{-1/2}` (Eq. 2).
#[derive(Clone, Debug)]
pub struct GcnLayer {
    linear: Linear,
}

impl GcnLayer {
    /// A GCN layer `in_dim → out_dim`.
    pub fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            linear: Linear::new(store, in_dim, out_dim, true, rng),
        }
    }

    /// Forward pass (no activation — compose with [`Activation`] outside).
    pub fn forward(&self, tape: &Tape, store: &ParamStore, x: &Var, ctx: &GraphContext) -> Var {
        self.linear.forward(tape, store, &x.spmm(ctx.gcn()))
    }
}

/// One attention head of a GAT layer.
#[derive(Clone, Debug)]
struct GatHead {
    w: Linear,
    a_src: ParamId,
    a_dst: ParamId,
}

impl GatHead {
    fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let w = Linear::new(store, in_dim, out_dim, false, rng);
        let a_src = store.insert(glorot_uniform(out_dim, 1, rng));
        let a_dst = store.insert(glorot_uniform(out_dim, 1, rng));
        Self { w, a_src, a_dst }
    }

    /// `W·h` and its two attention halves, on a tape.
    fn project(&self, tape: &Tape, store: &ParamStore, x: &Var) -> (Var, Var, Var) {
        let wh = self.w.forward(tape, store, x);
        let a_src = tape.param(store, self.a_src);
        let a_dst = tape.param(store, self.a_dst);
        let s_src = wh.matmul(&a_src); // n×1 contribution of each node as source
        let s_dst = wh.matmul(&a_dst); // n×1 contribution as destination
        (wh, s_src, s_dst)
    }

    fn forward(
        &self,
        tape: &Tape,
        store: &ParamStore,
        x: &Var,
        ctx: &GraphContext,
        slope: f32,
        capture: Option<&mut Vec<GatHeadCache>>,
    ) -> Var {
        let (wh, s_src, s_dst) = self.project(tape, store, x);
        if let Some(heads) = capture {
            heads.push(GatHeadCache {
                wh: wh.value(),
                s_src: s_src.value(),
                s_dst: s_dst.value(),
            });
        }
        let edges = ctx.edges();
        let logits = s_src
            .gather_rows(&edges.src)
            .add(&s_dst.gather_rows(&edges.dst))
            .leaky_relu(slope);
        let alpha = logits.segment_softmax(&edges.dst);
        alpha.edge_aggregate(&wh, &edges.src, &edges.dst, edges.n)
    }
}

/// GAT layer (Eq. 3): per-edge attention logits
/// `e_{ij} = LeakyReLU(a_srcᵀ W h_i + a_dstᵀ W h_j)`, normalised with a
/// softmax over each destination's in-edges, then a weighted sum of source
/// features. Multi-head attention concatenates the per-head outputs
/// (Veličković et al.'s standard construction).
#[derive(Clone, Debug)]
pub struct GatLayer {
    heads: Vec<GatHead>,
    slope: f32,
}

impl GatLayer {
    /// A single-head GAT layer `in_dim → out_dim` with LeakyReLU slope 0.2.
    pub fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self::with_heads(store, in_dim, out_dim, 1, rng)
    }

    /// A multi-head GAT layer: `heads` independent attention heads of width
    /// `out_dim_per_head`, concatenated to `heads · out_dim_per_head`
    /// output columns.
    ///
    /// # Panics
    /// Panics if `heads == 0`.
    pub fn with_heads(
        store: &mut ParamStore,
        in_dim: usize,
        out_dim_per_head: usize,
        heads: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(heads >= 1, "GAT needs at least one attention head");
        let heads = (0..heads)
            .map(|_| GatHead::new(store, in_dim, out_dim_per_head, rng))
            .collect();
        Self { heads, slope: 0.2 }
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }

    /// Forward pass over `ctx.edges` (which include self-loops).
    pub fn forward(&self, tape: &Tape, store: &ParamStore, x: &Var, ctx: &GraphContext) -> Var {
        self.forward_capturing(tape, store, x, ctx, None)
    }

    fn forward_capturing(
        &self,
        tape: &Tape,
        store: &ParamStore,
        x: &Var,
        ctx: &GraphContext,
        mut capture: Option<&mut Vec<GatHeadCache>>,
    ) -> Var {
        let mut out: Option<Var> = None;
        for head in &self.heads {
            let h = head.forward(tape, store, x, ctx, self.slope, capture.as_deref_mut());
            out = Some(match out {
                None => h,
                Some(acc) => acc.hcat(&h),
            });
        }
        out.expect("at least one head by construction")
    }

    /// Each head's cached projections of the input rows `x`.
    fn project_rows(&self, store: &ParamStore, x: &Matrix) -> Vec<GatHeadCache> {
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        self.heads
            .iter()
            .map(|head| {
                let (wh, s_src, s_dst) = head.project(&tape, store, &xv);
                GatHeadCache {
                    wh: wh.value(),
                    s_src: s_src.value(),
                    s_dst: s_dst.value(),
                }
            })
            .collect()
    }

    /// Attention aggregation over `edges` from cached head projections —
    /// the same gather, LeakyReLU, segment softmax and edge aggregation as
    /// [`GatLayer::forward`], on plain matrices.
    fn aggregate(&self, heads: &[GatHeadCache], edges: &AttentionEdges<'_>) -> Matrix {
        let mut out: Option<Matrix> = None;
        for head in heads {
            let logits = head
                .s_src
                .gather_rows(&edges.src)
                .add(&head.s_dst.gather_rows(&edges.dst));
            let alpha =
                segment_softmax_forward(&leaky_relu_forward(&logits, self.slope), &edges.seg);
            let h = edge_aggregate_forward(&alpha, &head.wh, &edges.src, &edges.seg, edges.n_out);
            out = Some(match out {
                None => h,
                Some(acc) => acc.hcat(&h),
            });
        }
        out.expect("at least one head by construction")
    }
}

/// GIN layer (Eq. 4): `H' = MLP(A H + (1 + ε) H)` with a two-layer MLP and a
/// fixed ε.
#[derive(Clone, Debug)]
pub struct GinLayer {
    mlp: Mlp,
    eps: f32,
}

impl GinLayer {
    /// A GIN layer `in_dim → out_dim` (MLP hidden width = `out_dim`, ε = 0).
    pub fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let mlp = Mlp::new(
            store,
            &[in_dim, out_dim, out_dim],
            Activation::Relu,
            true,
            rng,
        );
        Self { mlp, eps: 0.0 }
    }

    /// Forward pass using the plain binary adjacency.
    pub fn forward(&self, tape: &Tape, store: &ParamStore, x: &Var, ctx: &GraphContext) -> Var {
        let agg = x.spmm(ctx.adjacency()).add(&x.scale(1.0 + self.eps));
        self.mlp.forward(tape, store, &agg)
    }
}

/// GraphSAGE layer with mean aggregation:
/// `H' = H W_self + (D⁻¹ A H) W_nbr (+ b)`.
#[derive(Clone, Debug)]
pub struct SageLayer {
    w_self: Linear,
    w_nbr: Linear,
}

impl SageLayer {
    /// A SAGE-mean layer `in_dim → out_dim`.
    pub fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            w_self: Linear::new(store, in_dim, out_dim, true, rng),
            w_nbr: Linear::new(store, in_dim, out_dim, false, rng),
        }
    }

    /// Forward pass using the mean-aggregation adjacency.
    pub fn forward(&self, tape: &Tape, store: &ParamStore, x: &Var, ctx: &GraphContext) -> Var {
        let own = self.w_self.forward(tape, store, x);
        let nbr = self.w_nbr.forward(tape, store, &x.spmm(ctx.mean()));
        own.add(&nbr)
    }
}

/// A backbone-agnostic GNN layer, so models can switch families via
/// [`GnnKind`] (the paper swaps GCN/GAT/GIN inside ARM, Table VIII).
#[derive(Clone, Debug)]
pub enum GnnLayer {
    /// Graph convolution.
    Gcn(GcnLayer),
    /// Graph attention.
    Gat(GatLayer),
    /// Graph isomorphism.
    Gin(GinLayer),
    /// GraphSAGE-mean.
    Sage(SageLayer),
}

impl GnnLayer {
    /// Create a layer of the requested kind.
    pub fn new(
        kind: GnnKind,
        store: &mut ParamStore,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        match kind {
            GnnKind::Gcn => GnnLayer::Gcn(GcnLayer::new(store, in_dim, out_dim, rng)),
            GnnKind::Gat => GnnLayer::Gat(GatLayer::new(store, in_dim, out_dim, rng)),
            GnnKind::Gin => GnnLayer::Gin(GinLayer::new(store, in_dim, out_dim, rng)),
            GnnKind::Sage => GnnLayer::Sage(SageLayer::new(store, in_dim, out_dim, rng)),
        }
    }

    /// The layer's family.
    pub fn kind(&self) -> GnnKind {
        match self {
            GnnLayer::Gcn(_) => GnnKind::Gcn,
            GnnLayer::Gat(_) => GnnKind::Gat,
            GnnLayer::Gin(_) => GnnKind::Gin,
            GnnLayer::Sage(_) => GnnKind::Sage,
        }
    }

    /// Forward pass for the wrapped layer.
    pub fn forward(&self, tape: &Tape, store: &ParamStore, x: &Var, ctx: &GraphContext) -> Var {
        match self {
            GnnLayer::Gcn(l) => l.forward(tape, store, x, ctx),
            GnnLayer::Gat(l) => l.forward(tape, store, x, ctx),
            GnnLayer::Gin(l) => l.forward(tape, store, x, ctx),
            GnnLayer::Sage(l) => l.forward(tape, store, x, ctx),
        }
    }

    /// [`GnnLayer::forward`], also returning the layer's [`LayerCache`]
    /// taken from the values this pass computes anyway.
    pub fn forward_cached(
        &self,
        tape: &Tape,
        store: &ParamStore,
        x: &Var,
        ctx: &GraphContext,
    ) -> (Var, LayerCache) {
        match self {
            GnnLayer::Gat(l) => {
                let mut heads = Vec::with_capacity(l.num_heads());
                let out = l.forward_capturing(tape, store, x, ctx, Some(&mut heads));
                (out, LayerCache::Gat(heads))
            }
            _ => (
                self.forward(tape, store, x, ctx),
                LayerCache::Input(x.value()),
            ),
        }
    }

    /// Bring `cache` to `n` rows and overwrite the rows `rows` (sorted)
    /// with what the new layer inputs `x` (one row per entry of `rows`)
    /// give. Appended nodes get zero rows until their own input lands.
    pub fn update_cache(
        &self,
        store: &ParamStore,
        cache: &mut LayerCache,
        rows: &[u32],
        x: &Matrix,
        n: usize,
    ) {
        match (self, cache) {
            (GnnLayer::Gat(l), LayerCache::Gat(heads)) => {
                for (head, fresh) in heads.iter_mut().zip(l.project_rows(store, x)) {
                    put_rows(&mut head.wh, rows, &fresh.wh, n);
                    put_rows(&mut head.s_src, rows, &fresh.s_src, n);
                    put_rows(&mut head.s_dst, rows, &fresh.s_dst, n);
                }
            }
            (GnnLayer::Gat(_), _) | (_, LayerCache::Gat(_)) => {
                panic!("layer cache does not match the layer kind")
            }
            (_, LayerCache::Input(h)) => put_rows(h, rows, x, n),
        }
    }

    /// The layer output for the rows `rows` (sorted) of `graph`, reading
    /// every neighbour from `cache`: bit for bit those rows of
    /// [`GnnLayer::forward`] on the whole graph, whose input the cache
    /// holds (see [`crate::rows`] for why the bytes match).
    pub fn forward_rows(
        &self,
        store: &ParamStore,
        graph: &dyn GraphStore,
        cache: &LayerCache,
        rows: &[u32],
    ) -> Matrix {
        self.forward_from_cache(store, cache, Target::Rows(graph, rows))
    }

    /// Every row of the layer output from `cache`, through the whole-graph
    /// views of `ctx` — what [`GnnLayer::forward_rows`] over all rows
    /// computes, with the ordinary whole-graph kernels.
    pub fn forward_whole(
        &self,
        store: &ParamStore,
        ctx: &GraphContext,
        cache: &LayerCache,
    ) -> Matrix {
        self.forward_from_cache(store, cache, Target::Whole(ctx))
    }

    fn forward_from_cache(&self, store: &ParamStore, cache: &LayerCache, at: Target<'_>) -> Matrix {
        if let (GnnLayer::Gat(l), LayerCache::Gat(heads)) = (self, cache) {
            return l.aggregate(heads, &at.attention_edges());
        }
        let LayerCache::Input(h) = cache else {
            panic!("layer cache does not match the layer kind");
        };
        let tape = Tape::new();
        let out = match self {
            GnnLayer::Gcn(l) => {
                let agg = tape.constant(at.adjacency(AdjacencyKind::Gcn).spmm(h));
                l.linear.forward(&tape, store, &agg)
            }
            GnnLayer::Gin(l) => {
                let nbr = tape.constant(at.adjacency(AdjacencyKind::Binary).spmm(h));
                let own = tape.constant(at.own_rows(h));
                l.mlp
                    .forward(&tape, store, &nbr.add(&own.scale(1.0 + l.eps)))
            }
            GnnLayer::Sage(l) => {
                let own = tape.constant(at.own_rows(h));
                let nbr = tape.constant(at.adjacency(AdjacencyKind::Mean).spmm(h));
                let own = l.w_self.forward(&tape, store, &own);
                own.add(&l.w_nbr.forward(&tape, store, &nbr))
            }
            GnnLayer::Gat(_) => unreachable!("handled above"),
        };
        out.value()
    }
}

/// What one GNN layer's row gather reads, kept full-length across graph
/// mutations for incremental inference: after a batch, a layer rewrites
/// the cache rows of its changed inputs ([`GnnLayer::update_cache`]) and
/// recomputes only its dirty output rows from it
/// ([`GnnLayer::forward_rows`]).
#[derive(Clone, Debug)]
pub enum LayerCache {
    /// GCN, GIN and SAGE: the layer input `H` (`n × in`).
    Input(Matrix),
    /// GAT: each head's projections of the layer input.
    Gat(Vec<GatHeadCache>),
}

/// One GAT head's cached projections of the layer input.
#[derive(Clone, Debug)]
pub struct GatHeadCache {
    /// `W·h`, `n × out`.
    wh: Matrix,
    /// Source attention half `W·h·a_src`, `n × 1`.
    s_src: Matrix,
    /// Destination attention half `W·h·a_dst`, `n × 1`.
    s_dst: Matrix,
}

impl LayerCache {
    /// Heap bytes held by the cached matrices.
    pub fn bytes(&self) -> usize {
        let floats = match self {
            LayerCache::Input(h) => h.len(),
            LayerCache::Gat(heads) => heads
                .iter()
                .map(|h| h.wh.len() + h.s_src.len() + h.s_dst.len())
                .sum(),
        };
        floats * std::mem::size_of::<f32>()
    }
}

/// Where a layer's incremental forward reads its adjacency from: the rows
/// of a dirty set through store-built row views, or every row through the
/// whole-graph views of a context.
#[derive(Clone, Copy)]
enum Target<'a> {
    Rows(&'a dyn GraphStore, &'a [u32]),
    Whole(&'a GraphContext),
}

impl<'a> Target<'a> {
    fn adjacency(self, kind: AdjacencyKind) -> Cow<'a, vgod_tensor::Csr> {
        match self {
            Target::Rows(store, rows) => Cow::Owned(adjacency_rows(store, rows, kind)),
            Target::Whole(ctx) => Cow::Borrowed(kind.whole(ctx).as_ref()),
        }
    }

    fn own_rows(self, h: &Matrix) -> Matrix {
        match self {
            Target::Rows(_, rows) => h.gather_rows(rows),
            Target::Whole(_) => h.clone(),
        }
    }

    fn attention_edges(self) -> AttentionEdges<'a> {
        match self {
            Target::Rows(store, rows) => AttentionEdges::rows(store, rows),
            Target::Whole(ctx) => AttentionEdges::whole(ctx),
        }
    }
}

/// Build a fresh leaf for the node features on a tape.
#[allow(dead_code)]
pub(crate) fn features_leaf(tape: &Tape, x: &Matrix) -> Var {
    tape.constant(x.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgod_graph::{seeded_rng, AttributedGraph};

    fn toy() -> (AttributedGraph, GraphContext) {
        // Mixed-sign, decorrelated features so that aggregated rows span
        // both signs (keeps ReLU hidden units from dying en masse).
        let mut g = AttributedGraph::new(Matrix::from_rows(&[
            &[1.0, -2.0],
            &[-1.5, 1.0],
            &[2.0, 1.5],
            &[0.5, -0.5],
        ]));
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 0);
        let ctx = GraphContext::from_graph(&g);
        (g, ctx)
    }

    fn check_layer(kind: GnnKind) {
        let (g, ctx) = toy();
        let mut rng = seeded_rng(5);
        let mut store = ParamStore::new();
        let layer = GnnLayer::new(kind, &mut store, 2, 3, &mut rng);
        let tape = Tape::new();
        let x = features_leaf(&tape, g.attrs());
        let y = layer.forward(&tape, &store, &x, &ctx);
        assert_eq!(y.shape(), (4, 3), "{kind} output shape");
        // Gradients must flow through the layer. (Individual tensors may
        // legitimately receive zero gradient — e.g. a dead ReLU unit in
        // GIN's MLP on a 4-node graph — so check flow in aggregate.)
        let loss = y.square().sum_all();
        loss.backward_into(&mut store);
        assert!(
            store.grad_norm() > 0.0,
            "{kind}: no gradient reached any parameter"
        );
        let live = store.iter().filter(|(_, p)| p.grad.max_abs() > 0.0).count();
        assert!(
            live * 2 >= store.len(),
            "{kind}: only {live}/{} parameters got gradients",
            store.len()
        );
    }

    #[test]
    fn gcn_shapes_and_gradients() {
        check_layer(GnnKind::Gcn);
    }

    #[test]
    fn gat_shapes_and_gradients() {
        check_layer(GnnKind::Gat);
    }

    #[test]
    fn gin_shapes_and_gradients() {
        check_layer(GnnKind::Gin);
    }

    #[test]
    fn sage_shapes_and_gradients() {
        check_layer(GnnKind::Sage);
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn cached_rows_match_the_whole_graph_forward_bitwise() {
        let mut rng = seeded_rng(3);
        let n = 40;
        let mut g = AttributedGraph::new(Matrix::from_fn(n, 5, |_, _| rng.gen_range(-1.0..1.0)));
        for _ in 0..90 {
            let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            if u != v {
                g.add_edge(u, v);
            }
        }
        let ctx = GraphContext::from_graph(&g);
        let rows = [0u32, 3, 4, 17, 39];
        for kind in [GnnKind::Gcn, GnnKind::Gat, GnnKind::Gin, GnnKind::Sage] {
            let mut store = ParamStore::new();
            let layer = match kind {
                GnnKind::Gat => GnnLayer::Gat(GatLayer::with_heads(&mut store, 5, 4, 2, &mut rng)),
                _ => GnnLayer::new(kind, &mut store, 5, 4, &mut rng),
            };
            let tape = Tape::new();
            let x = features_leaf(&tape, g.attrs());
            let (y, cache) = layer.forward_cached(&tape, &store, &x, &ctx);
            let y = y.value();
            let sub = layer.forward_rows(&store, &g, &cache, &rows);
            assert_eq!(bits(&sub), bits(&y.gather_rows(&rows)), "{kind} rows");
            let whole = layer.forward_whole(&store, &ctx, &cache);
            assert_eq!(bits(&whole), bits(&y), "{kind} whole");
            // Rewriting cache rows with their own inputs changes nothing.
            let mut again = cache.clone();
            layer.update_cache(&store, &mut again, &rows, &g.attrs().gather_rows(&rows), n);
            let sub = layer.forward_rows(&store, &g, &again, &rows);
            assert_eq!(bits(&sub), bits(&y.gather_rows(&rows)), "{kind} updated");
        }
    }

    #[test]
    fn multi_head_gat_concatenates_heads() {
        let (g, ctx) = toy();
        let mut rng = seeded_rng(9);
        let mut store = ParamStore::new();
        let layer = GatLayer::with_heads(&mut store, 2, 3, 4, &mut rng);
        assert_eq!(layer.num_heads(), 4);
        let tape = Tape::new();
        let x = features_leaf(&tape, g.attrs());
        let y = layer.forward(&tape, &store, &x, &ctx);
        assert_eq!(y.shape(), (4, 12), "4 heads × 3 dims concatenated");
        // Gradients reach every head's parameters.
        y.square().sum_all().backward_into(&mut store);
        assert!(store.grad_norm() > 0.0);
        let live = store.iter().filter(|(_, p)| p.grad.max_abs() > 0.0).count();
        assert_eq!(
            live,
            store.len(),
            "all {} head params should receive gradients",
            store.len()
        );
    }

    #[test]
    fn gat_attention_rows_are_convex_combinations() {
        // With identical features everywhere, a GAT layer must output the
        // same row for every node that has the same neighbourhood-closure
        // feature set — i.e. output equals W h for all nodes.
        let mut g = AttributedGraph::new(Matrix::filled(5, 2, 1.0));
        for i in 0..4u32 {
            g.add_edge(i, i + 1);
        }
        let ctx = GraphContext::from_graph(&g);
        let mut rng = seeded_rng(1);
        let mut store = ParamStore::new();
        let layer = GatLayer::new(&mut store, 2, 3, &mut rng);
        let tape = Tape::new();
        let x = features_leaf(&tape, g.attrs());
        let y = layer.forward(&tape, &store, &x, &ctx).value();
        for r in 1..5 {
            for c in 0..3 {
                assert!((y[(r, c)] - y[(0, c)]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn gcn_of_identity_features_matches_adjacency_mass() {
        // One GCN layer with W = I captures Â's row sums when features are 1.
        let (g, ctx) = toy();
        let tape = Tape::new();
        let ones = tape.constant(Matrix::filled(g.num_nodes(), 1, 1.0));
        let propagated = ones.spmm(ctx.gcn()).value();
        // Â row sums of a 4-cycle with self-loops: each row sums to 1.
        for r in 0..4 {
            assert!((propagated[(r, 0)] - 1.0).abs() < 1e-5, "row {r}");
        }
    }
}
