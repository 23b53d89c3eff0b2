//! The Attribute Reconstruction Model (§V-B).

use vgod_autograd::{relu_forward, ParamStore, Tape, Var};
use vgod_gnn::rows::prefers_whole_graph;
use vgod_gnn::{GnnLayer, GraphContext, LayerCache};
use vgod_graph::{k_hop_ball, seeded_rng, AttributedGraph, GraphStore};
use vgod_nn::{row_reconstruction_errors, Linear, Trainer};
use vgod_tensor::Matrix;

use crate::ArmConfig;

/// The Attribute Reconstruction Model: detects contextual outliers by their
/// attribute reconstruction error.
///
/// Architecture (Eq. 14–16): `Z⁰ = normalize(X W' + b')`, then `L` GNN
/// layers (any backbone), then `X̂ = Z^L Ŵ + b̂`; trained to minimise
/// `E[‖x̂ − x‖²]` (Eq. 17–18). Nodes whose attributes disagree with their
/// structural context reconstruct poorly.
#[derive(Clone, Debug)]
pub struct Arm {
    cfg: ArmConfig,
    state: Option<ArmState>,
}

#[derive(Clone, Debug)]
pub(crate) struct ArmState {
    store: ParamStore,
    input: Linear,
    gnns: Vec<GnnLayer>,
    output: Linear,
    in_dim: usize,
}

impl ArmState {
    /// Mutable access to the parameter store (mini-batch trainer).
    pub(crate) fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

/// What ARM's GNN layers gather, kept full-length for incremental
/// rescoring: one [`LayerCache`] per GNN layer.
#[derive(Clone, Debug)]
pub(crate) struct ArmLayers {
    layers: Vec<LayerCache>,
}

impl ArmLayers {
    /// Heap bytes of the cached matrices.
    pub(crate) fn bytes(&self) -> usize {
        self.layers.iter().map(LayerCache::bytes).sum()
    }
}

/// The outcome of one incremental ARM rescore.
pub(crate) struct ArmDelta {
    /// The rescored nodes (sorted): the last layer's dirty set.
    pub(crate) rows: Vec<u32>,
    /// Their contextual scores.
    pub(crate) scores: Vec<f32>,
}

impl Arm {
    /// An untrained model.
    pub fn new(cfg: ArmConfig) -> Self {
        Self { cfg, state: None }
    }

    /// The configuration.
    pub fn config(&self) -> &ArmConfig {
        &self.cfg
    }

    /// Whether `fit` has been called.
    pub fn is_fitted(&self) -> bool {
        self.state.is_some()
    }

    fn preprocess(&self, g: &AttributedGraph) -> Matrix {
        self.preprocess_rows(g.attrs().clone())
    }

    /// Preprocess attribute rows (row-local, so any subset of a graph's
    /// rows preprocesses to exactly those rows).
    fn preprocess_rows(&self, x: Matrix) -> Matrix {
        if self.cfg.row_normalize {
            x.l2_normalize_rows(1e-6).0
        } else {
            x
        }
    }

    /// Build the architecture for input dimension `d` (deterministic given
    /// the config's seed — relied on by checkpoint loading).
    fn build_state(cfg: &ArmConfig, d: usize) -> ArmState {
        let mut rng = seeded_rng(cfg.seed);
        let mut store = ParamStore::new();
        let input = Linear::new(&mut store, d, cfg.hidden_dim, true, &mut rng);
        let gnns: Vec<GnnLayer> = (0..cfg.layers)
            .map(|_| {
                GnnLayer::new(
                    cfg.backbone.kind(),
                    &mut store,
                    cfg.hidden_dim,
                    cfg.hidden_dim,
                    &mut rng,
                )
            })
            .collect();
        let output = Linear::new(&mut store, cfg.hidden_dim, d, true, &mut rng);
        ArmState {
            store,
            input,
            gnns,
            output,
            in_dim: d,
        }
    }

    /// Train on `g` (unsupervised), optionally reporting the loss per epoch.
    pub fn fit_with_callback(&mut self, g: &AttributedGraph, mut callback: impl FnMut(usize, f32)) {
        let ArmState {
            mut store,
            input,
            gnns,
            output,
            in_dim,
        } = Self::build_state(&self.cfg, g.num_attrs());

        let ctx = GraphContext::of(g);
        let x = self.preprocess(g);
        Trainer::new(self.cfg.epochs, self.cfg.lr).run(
            &mut store,
            |tape, _, store| {
                let xv = tape.constant(x.clone());
                let xhat = forward_parts(&input, &gnns, &output, store, tape, &xv, &ctx, None);
                xhat.sub(&xv).square().mean_all()
            },
            |epoch, loss, _| callback(epoch, loss),
        );
        self.state = Some(ArmState {
            store,
            input,
            gnns,
            output,
            in_dim,
        });
    }

    /// Train on `g` (unsupervised).
    pub fn fit(&mut self, g: &AttributedGraph) {
        self.fit_with_callback(g, |_, _| {});
    }

    /// Crate-internal: build a fresh state (mini-batch trainer).
    pub(crate) fn build_state_for(cfg: &ArmConfig, d: usize) -> ArmState {
        Self::build_state(cfg, d)
    }

    /// Crate-internal: run the forward pass on an explicit state.
    pub(crate) fn forward_state(state: &ArmState, tape: &Tape, x: &Var, ctx: &GraphContext) -> Var {
        forward(state, tape, x, ctx)
    }

    /// Crate-internal: install externally trained state.
    pub(crate) fn install_state(&mut self, state: ArmState) {
        self.state = Some(state);
    }

    /// Write a trained model as a plain-text checkpoint.
    ///
    /// # Panics
    /// Panics if the model is untrained.
    pub fn save(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let state = self.state.as_ref().expect("Arm::save called before fit");
        writeln!(out, "# vgod-arm v1")?;
        writeln!(
            out,
            "{}",
            crate::persist::header_line(&[
                ("hidden_dim", self.cfg.hidden_dim.to_string()),
                ("layers", self.cfg.layers.to_string()),
                (
                    "backbone",
                    self.cfg.backbone.to_string().to_ascii_lowercase()
                ),
                ("epochs", self.cfg.epochs.to_string()),
                ("lr", self.cfg.lr.to_string()),
                ("row_normalize", self.cfg.row_normalize.to_string()),
                ("seed", self.cfg.seed.to_string()),
                ("in_dim", state.in_dim.to_string()),
            ])
        )?;
        state.store.write_text(out)
    }

    /// Read a checkpoint written by [`Arm::save`].
    pub fn load(input: &mut impl std::io::BufRead) -> Result<Arm, String> {
        let mut magic = String::new();
        input.read_line(&mut magic).map_err(|e| e.to_string())?;
        if magic.trim() != "# vgod-arm v1" {
            return Err(format!("not a vgod-arm checkpoint: {magic:?}"));
        }
        let mut header = String::new();
        input.read_line(&mut header).map_err(|e| e.to_string())?;
        let map = crate::persist::parse_header(header.trim())?;
        let cfg = ArmConfig {
            hidden_dim: crate::persist::header_get(&map, "hidden_dim")?,
            layers: crate::persist::header_get(&map, "layers")?,
            backbone: crate::persist::header_get(&map, "backbone")?,
            epochs: crate::persist::header_get(&map, "epochs")?,
            lr: crate::persist::header_get(&map, "lr")?,
            row_normalize: crate::persist::header_get(&map, "row_normalize")?,
            seed: crate::persist::header_get(&map, "seed")?,
        };
        let in_dim: usize = crate::persist::header_get(&map, "in_dim")?;
        let loaded = ParamStore::read_text(input)?;
        let mut state = Self::build_state(&cfg, in_dim);
        crate::persist::copy_store_values(&mut state.store, &loaded)?;
        let mut arm = Arm::new(cfg);
        arm.state = Some(state);
        Ok(arm)
    }

    /// Contextual outlier scores `o^attr = ‖x̂ − x‖²` for every node.
    ///
    /// # Panics
    /// Panics if the model is untrained or the attribute dimension differs
    /// from the training graph's.
    pub fn scores(&self, g: &AttributedGraph) -> Vec<f32> {
        self.scores_capturing(g, None)
    }

    fn fitted_state(&self, attrs: usize) -> &ArmState {
        let state = self.state.as_ref().expect("Arm::scores called before fit");
        assert_eq!(
            attrs, state.in_dim,
            "attribute dimension mismatch: model was trained on {}-dimensional attributes",
            state.in_dim
        );
        state
    }

    fn scores_capturing(
        &self,
        g: &AttributedGraph,
        capture: Option<&mut Vec<LayerCache>>,
    ) -> Vec<f32> {
        let state = self.fitted_state(g.num_attrs());
        let ctx = GraphContext::of(g);
        let x = self.preprocess(g);
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let xhat = forward_parts(
            &state.input,
            &state.gnns,
            &state.output,
            &state.store,
            &tape,
            &xv,
            &ctx,
            capture,
        )
        .value();
        row_reconstruction_errors(&xhat, &x)
    }

    /// [`Arm::scores`] plus the layer state of the same pass.
    pub(crate) fn scores_with_layers(&self, g: &AttributedGraph) -> (Vec<f32>, ArmLayers) {
        let mut layers = Vec::new();
        let scores = self.scores_capturing(g, Some(&mut layers));
        (scores, ArmLayers { layers })
    }

    /// Incremental rescore after a batch touching `touched` (sorted) was
    /// applied to `store`. Stage 0 re-embeds the touched rows; GNN layer
    /// `ℓ` writes its changed input rows into its cache and recomputes
    /// `dirty_ℓ = B_1(dirty_{ℓ−1})` — `dirty_{ℓ−1}` already holds the
    /// touched set, whose degree changes reach exactly one hop — or, for a
    /// backbone past the row-path crossover, every row through the
    /// whole-graph kernels.
    /// The output layer and the reconstruction error then run on the last
    /// dirty set, so `B_L(touched)` rows come back.
    pub(crate) fn rescore_layers(
        &self,
        store: &dyn GraphStore,
        touched: &[u32],
        layers: &mut ArmLayers,
    ) -> ArmDelta {
        let state = self.fitted_state(store.num_attrs());
        let n = store.num_nodes();
        let params = &state.store;
        let x = self.preprocess_rows(store.gather_attrs(touched));
        let mut h = linear_rows(&state.input, params, x.clone(), true);
        let mut rows = touched.to_vec();
        let mut whole: Option<GraphContext> = None;
        for (i, (gnn, cache)) in state.gnns.iter().zip(&mut layers.layers).enumerate() {
            gnn.update_cache(params, cache, &rows, &h, n);
            if rows.len() < n {
                rows = k_hop_ball(store, &rows, 1);
            }
            h = if prefers_whole_graph(gnn.kind(), rows.len(), n) {
                rows = (0..n as u32).collect();
                let ctx = whole.get_or_insert_with(|| GraphContext::from_store(store));
                gnn.forward_whole(params, ctx, cache)
            } else {
                gnn.forward_rows(params, store, cache, &rows)
            };
            if i + 1 < state.gnns.len() {
                h = relu_forward(&h);
            }
        }
        let xhat = linear_rows(&state.output, params, h, false);
        let target = if rows.len() == touched.len() {
            x
        } else {
            self.preprocess_rows(store.gather_attrs(&rows))
        };
        ArmDelta {
            scores: row_reconstruction_errors(&xhat, &target),
            rows,
        }
    }

    /// The reconstructed attribute matrix `X̂`.
    pub fn reconstruct(&self, g: &AttributedGraph) -> Matrix {
        let state = self
            .state
            .as_ref()
            .expect("Arm::reconstruct called before fit");
        let ctx = GraphContext::of(g);
        let tape = Tape::new();
        let xv = tape.constant(self.preprocess(g));
        forward(state, &tape, &xv, &ctx).value()
    }
}

fn forward(state: &ArmState, tape: &Tape, x: &Var, ctx: &GraphContext) -> Var {
    forward_parts(
        &state.input,
        &state.gnns,
        &state.output,
        &state.store,
        tape,
        x,
        ctx,
        None,
    )
}

/// A [`Linear`] layer over a few rows (optionally L2-normalised, as the
/// input transformation is): row-local, so bitwise those rows of the
/// whole-graph layer.
fn linear_rows(linear: &Linear, store: &ParamStore, x: Matrix, normalize: bool) -> Matrix {
    let tape = Tape::new();
    let y = linear.forward(&tape, store, &tape.constant(x));
    if normalize { y.l2_normalize_rows() } else { y }.value()
}

/// The ARM forward pass; with `capture`, also pushes each GNN layer's
/// [`LayerCache`] from the values the pass computes.
#[allow(clippy::too_many_arguments)]
fn forward_parts(
    input: &Linear,
    gnns: &[GnnLayer],
    output: &Linear,
    store: &ParamStore,
    tape: &Tape,
    x: &Var,
    ctx: &GraphContext,
    mut capture: Option<&mut Vec<LayerCache>>,
) -> Var {
    // Feature transformation (Eq. 14).
    let mut z = input.forward(tape, store, x).l2_normalize_rows();
    // GNN layers (Eq. 15), ReLU between but not after the stack.
    for (i, gnn) in gnns.iter().enumerate() {
        z = match capture.as_deref_mut() {
            Some(caches) => {
                let (out, cache) = gnn.forward_cached(tape, store, &z, ctx);
                caches.push(cache);
                out
            }
            None => gnn.forward(tape, store, &z, ctx),
        };
        if i + 1 < gnns.len() {
            z = z.relu();
        }
    }
    // Feature retransformation (Eq. 16).
    output.forward(tape, store, &z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GnnBackbone;
    use vgod_eval::auc;
    use vgod_graph::{community_graph, gaussian_mixture_attributes, CommunityGraphConfig};
    use vgod_inject::{inject_contextual, ContextualParams, DistanceMetric, GroundTruth};

    fn test_graph(seed: u64) -> AttributedGraph {
        let mut rng = seeded_rng(seed);
        let mut g = community_graph(
            &CommunityGraphConfig::homogeneous(220, 4, 5.0, 0.92),
            &mut rng,
        );
        let x = gaussian_mixture_attributes(g.labels().unwrap(), 12, 4.0, 0.5, &mut rng);
        g.set_attrs(x);
        g
    }

    fn fast_cfg(backbone: GnnBackbone) -> ArmConfig {
        ArmConfig {
            hidden_dim: 16,
            layers: 2,
            backbone,
            epochs: 60,
            lr: 0.01,
            row_normalize: false,
            seed: 3,
        }
    }

    #[test]
    fn detects_contextual_outliers() {
        let mut rng = seeded_rng(21);
        let mut g = test_graph(1);
        let mut truth = GroundTruth::new(g.num_nodes());
        inject_contextual(
            &mut g,
            &mut truth,
            &ContextualParams {
                count: 12,
                candidates: 30,
                metric: DistanceMetric::Euclidean,
            },
            &mut rng,
        );
        let mut arm = Arm::new(fast_cfg(GnnBackbone::Gcn));
        arm.fit(&g);
        let scores = arm.scores(&g);
        let a = auc(&scores, &truth.outlier_mask());
        assert!(a > 0.8, "ARM AUC on contextual outliers = {a}");
    }

    #[test]
    fn loss_decreases_during_training() {
        let g = test_graph(2);
        let mut arm = Arm::new(fast_cfg(GnnBackbone::Gcn));
        let mut losses = Vec::new();
        arm.fit_with_callback(&g, |_, l| losses.push(l));
        assert_eq!(losses.len(), 60);
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.8),
            "loss barely moved: {} → {}",
            losses[0],
            losses.last().unwrap()
        );
    }

    #[test]
    fn all_backbones_train_and_score() {
        let g = test_graph(3);
        for backbone in [
            GnnBackbone::Gcn,
            GnnBackbone::Gat,
            GnnBackbone::Gin,
            GnnBackbone::Sage,
        ] {
            let mut arm = Arm::new(ArmConfig {
                epochs: 5,
                ..fast_cfg(backbone)
            });
            arm.fit(&g);
            let scores = arm.scores(&g);
            assert_eq!(scores.len(), g.num_nodes(), "{backbone:?}");
            assert!(
                scores.iter().all(|s| s.is_finite() && *s >= 0.0),
                "{backbone:?}"
            );
        }
    }

    #[test]
    fn row_normalize_bounds_reconstruction_targets() {
        let g = test_graph(4);
        let mut arm = Arm::new(ArmConfig {
            row_normalize: true,
            epochs: 5,
            ..fast_cfg(GnnBackbone::Gcn)
        });
        arm.fit(&g);
        // Errors against unit-norm rows are bounded by (‖x̂‖+1)².
        let scores = arm.scores(&g);
        assert!(scores.iter().all(|&s| (0.0..100.0).contains(&s)));
    }

    #[test]
    fn reconstruct_has_input_shape() {
        let g = test_graph(5);
        let mut arm = Arm::new(ArmConfig {
            epochs: 3,
            ..fast_cfg(GnnBackbone::Gcn)
        });
        arm.fit(&g);
        assert_eq!(arm.reconstruct(&g).shape(), (g.num_nodes(), g.num_attrs()));
    }

    #[test]
    fn checkpoint_roundtrip_reproduces_scores() {
        let g = test_graph(7);
        let mut arm = Arm::new(ArmConfig {
            epochs: 8,
            ..fast_cfg(GnnBackbone::Gat)
        });
        arm.fit(&g);
        let original = arm.scores(&g);
        let mut buf = Vec::new();
        arm.save(&mut buf).unwrap();
        let restored = Arm::load(&mut buf.as_slice()).unwrap();
        assert_eq!(restored.config().backbone, GnnBackbone::Gat);
        let reloaded = restored.scores(&g);
        for (a, b) in original.iter().zip(&reloaded) {
            assert_eq!(a, b, "restored ARM must score identically");
        }
    }

    #[test]
    fn load_rejects_foreign_checkpoints() {
        assert!(Arm::load(
            &mut b"# vgod-vbm v1
"
            .as_slice()
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn scoring_untrained_panics() {
        let g = test_graph(6);
        let arm = Arm::new(fast_cfg(GnnBackbone::Gcn));
        let _ = arm.scores(&g);
    }
}
