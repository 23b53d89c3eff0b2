//! The Variance-Based Model (§V-A).

use vgod_autograd::{ParamStore, Tape};
use vgod_gnn::rows::{adjacency_rows, put_rows, AdjacencyKind};
use vgod_gnn::{neighbor_variance_scores, neighbor_variance_with_squares, GraphContext};
use vgod_graph::{seeded_rng, AttributedGraph, GraphStore};
use vgod_nn::{Linear, Trainer};
use vgod_tensor::Matrix;

use crate::VbmConfig;

/// A per-epoch training snapshot (used by the Fig. 8 experiment).
#[derive(Clone, Debug)]
pub struct VbmEpochSnapshot {
    /// Zero-based epoch index (0 = before any update).
    pub epoch: usize,
    /// Contrastive loss value at this epoch (`loss⁺ − loss⁻`).
    pub loss: f32,
    /// Structural outlier scores at this epoch.
    pub scores: Vec<f32>,
}

/// The Variance-Based Model: detects structural outliers by the variance of
/// their neighbours' learned low-dimensional representations.
///
/// *Forward* (Eq. 5–9): `h_i = normalize(x_i W + b)`; `o_i^str = ‖Var_{j ∈
/// N_i}(h_j)‖₁`.
///
/// *Training* (Eq. 10–12): each epoch samples a negative network `G⁻`
/// (Definition 4) and minimises `E[‖Var_N(h)‖₁] − E[‖Var_{N⁻}(h)‖₁]` —
/// related neighbourhoods should agree, unrelated ones should disagree.
#[derive(Clone, Debug)]
pub struct Vbm {
    cfg: VbmConfig,
    state: Option<VbmState>,
}

#[derive(Clone, Debug)]
struct VbmState {
    store: ParamStore,
    linear: Linear,
    in_dim: usize,
}

/// What VBM's variance gather reads, kept full-length for incremental
/// rescoring: the embeddings `H` and their squares `H ∘ H`.
#[derive(Clone, Debug)]
pub(crate) struct VbmLayers {
    h: Matrix,
    h_sq: Matrix,
}

impl VbmLayers {
    /// Heap bytes of the cached matrices.
    pub(crate) fn bytes(&self) -> usize {
        (self.h.len() + self.h_sq.len()) * std::mem::size_of::<f32>()
    }
}

impl Vbm {
    /// An untrained model.
    pub fn new(cfg: VbmConfig) -> Self {
        Self { cfg, state: None }
    }

    /// The configuration.
    pub fn config(&self) -> &VbmConfig {
        &self.cfg
    }

    /// Whether `fit` has been called.
    pub fn is_fitted(&self) -> bool {
        self.state.is_some()
    }

    /// Train on `g` (unsupervised). Same training as
    /// [`Vbm::fit_with_callback`], without the per-epoch score snapshots.
    pub fn fit(&mut self, g: &AttributedGraph) {
        self.train(g, None);
    }

    /// Train on `g`, invoking `callback` with a snapshot after every epoch
    /// (epoch 0 reports the untrained model). Used to reproduce the AUC
    /// trend curves of Fig. 8.
    pub fn fit_with_callback(
        &mut self,
        g: &AttributedGraph,
        mut callback: impl FnMut(&VbmEpochSnapshot),
    ) {
        self.train(g, Some(&mut callback));
    }

    /// The training loop behind [`Vbm::fit`] and [`Vbm::fit_with_callback`].
    /// Snapshots score every node, so they are only computed for a
    /// callback; scoring draws no randomness, so skipping it leaves the
    /// trained parameters unchanged.
    fn train(
        &mut self,
        g: &AttributedGraph,
        mut callback: Option<&mut dyn FnMut(&VbmEpochSnapshot)>,
    ) {
        let mut rng = seeded_rng(self.cfg.seed);
        let mut store = ParamStore::new();
        let linear = Linear::new(
            &mut store,
            g.num_attrs(),
            self.cfg.hidden_dim,
            true,
            &mut rng,
        );
        let self_loops = self.cfg.self_loops;
        let ctx = GraphContext::of(g);
        let mean_pos = ctx.mean_adjacency(self_loops).clone();
        let x = g.attrs().clone();

        // Epoch 0 snapshot (untrained).
        if let Some(cb) = callback.as_mut() {
            cb(&VbmEpochSnapshot {
                epoch: 0,
                loss: f32::NAN,
                scores: scores_for(&linear, &store, g, self_loops).0,
            });
        }

        Trainer::new(self.cfg.epochs, self.cfg.lr).run(
            &mut store,
            |tape, _, store| {
                let mean_neg = std::rc::Rc::new(g.negative_mean_adjacency(self_loops, &mut rng));
                let xv = tape.constant(x.clone());
                let h = linear.forward(tape, store, &xv).l2_normalize_rows();
                let loss_pos = neighbor_variance_scores(&h, &mean_pos).mean_all();
                let loss_neg = neighbor_variance_scores(&h, &mean_neg).mean_all();
                loss_pos.sub(&loss_neg)
            },
            |epoch, loss, store| {
                if let Some(cb) = callback.as_mut() {
                    cb(&VbmEpochSnapshot {
                        epoch,
                        loss,
                        scores: scores_for(&linear, store, g, self_loops).0,
                    });
                }
            },
        );
        self.state = Some(VbmState {
            store,
            linear,
            in_dim: g.num_attrs(),
        });
    }

    /// Structural outlier scores `o^str` for every node of `g`
    /// (transductive when `g` is the training graph, inductive otherwise —
    /// only the attribute dimension must match).
    ///
    /// # Panics
    /// Panics if the model is untrained or `g`'s attribute dimension
    /// differs from the training graph's.
    pub fn scores(&self, g: &AttributedGraph) -> Vec<f32> {
        self.scores_with_layers(g).0
    }

    /// Install trained state (used by the mini-batch trainer, which owns
    /// its own optimisation loop).
    pub(crate) fn install_state(&mut self, store: ParamStore, linear: Linear, in_dim: usize) {
        self.state = Some(VbmState {
            store,
            linear,
            in_dim,
        });
    }

    /// Write a trained model as a plain-text checkpoint.
    ///
    /// # Panics
    /// Panics if the model is untrained.
    pub fn save(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let state = self.state.as_ref().expect("Vbm::save called before fit");
        writeln!(out, "# vgod-vbm v1")?;
        writeln!(
            out,
            "{}",
            crate::persist::header_line(&[
                ("hidden_dim", self.cfg.hidden_dim.to_string()),
                ("epochs", self.cfg.epochs.to_string()),
                ("lr", self.cfg.lr.to_string()),
                ("self_loops", self.cfg.self_loops.to_string()),
                ("seed", self.cfg.seed.to_string()),
                ("in_dim", state.in_dim.to_string()),
            ])
        )?;
        state.store.write_text(out)
    }

    /// Read a checkpoint written by [`Vbm::save`], returning a model ready
    /// to score graphs (no retraining).
    pub fn load(input: &mut impl std::io::BufRead) -> Result<Vbm, String> {
        let mut magic = String::new();
        input.read_line(&mut magic).map_err(|e| e.to_string())?;
        if magic.trim() != "# vgod-vbm v1" {
            return Err(format!("not a vgod-vbm checkpoint: {magic:?}"));
        }
        let mut header = String::new();
        input.read_line(&mut header).map_err(|e| e.to_string())?;
        let map = crate::persist::parse_header(header.trim())?;
        let cfg = VbmConfig {
            hidden_dim: crate::persist::header_get(&map, "hidden_dim")?,
            epochs: crate::persist::header_get(&map, "epochs")?,
            lr: crate::persist::header_get(&map, "lr")?,
            self_loops: crate::persist::header_get(&map, "self_loops")?,
            seed: crate::persist::header_get(&map, "seed")?,
        };
        let in_dim: usize = crate::persist::header_get(&map, "in_dim")?;
        let loaded = ParamStore::read_text(input)?;
        // Replay the deterministic constructor to rebuild the architecture
        // (and parameter insertion order), then install the saved values.
        let mut rng = seeded_rng(cfg.seed);
        let mut store = ParamStore::new();
        let linear = Linear::new(&mut store, in_dim, cfg.hidden_dim, true, &mut rng);
        crate::persist::copy_store_values(&mut store, &loaded)?;
        let mut vbm = Vbm::new(cfg);
        vbm.install_state(store, linear, in_dim);
        Ok(vbm)
    }

    /// The learned node embeddings `H = normalize(XW + b)` (Eq. 6).
    pub fn embeddings(&self, g: &AttributedGraph) -> Matrix {
        let state = self
            .state
            .as_ref()
            .expect("Vbm::embeddings called before fit");
        embed(state, g)
    }

    fn fitted_state(&self, attrs: usize) -> &VbmState {
        let state = self.state.as_ref().expect("Vbm::scores called before fit");
        assert_eq!(
            attrs, state.in_dim,
            "attribute dimension mismatch: model was trained on {}-dimensional attributes",
            state.in_dim
        );
        state
    }

    /// [`Vbm::scores`] plus the layer state of the same pass.
    pub(crate) fn scores_with_layers(&self, g: &AttributedGraph) -> (Vec<f32>, VbmLayers) {
        let state = self.fitted_state(g.num_attrs());
        scores_for(&state.linear, &state.store, g, self.cfg.self_loops)
    }

    /// Incremental rescore after a batch touching `touched` (sorted) was
    /// applied to `store`: re-embed the touched rows into `layers`, then
    /// return the structural scores of `rows` (sorted, a superset of
    /// `B_1(touched)`) through row-subset views, which beat the
    /// whole-graph kernels even over every row
    /// ([`vgod_gnn::rows::ROW_PATH_MAX_FRACTION`]).
    pub(crate) fn rescore_rows(
        &self,
        store: &dyn GraphStore,
        touched: &[u32],
        layers: &mut VbmLayers,
        rows: &[u32],
    ) -> Vec<f32> {
        let state = self.fitted_state(store.num_attrs());
        let n = store.num_nodes();
        // The embedding is row-local: re-embed just the touched rows.
        let h = embed_matrix(&state.linear, &state.store, store.gather_attrs(touched));
        let h_sq = h.mul(&h);
        put_rows(&mut layers.h, touched, &h, n);
        put_rows(&mut layers.h_sq, touched, &h_sq, n);
        let kind = if self.cfg.self_loops {
            AdjacencyKind::MeanSelfLoops
        } else {
            AdjacencyKind::Mean
        };
        let adj = adjacency_rows(store, rows, kind);
        let var = neighbor_variance_with_squares(&layers.h, &layers.h_sq, &adj);
        var.row_sums().into_vec()
    }
}

fn embed(state: &VbmState, g: &AttributedGraph) -> Matrix {
    embed_with(&state.linear, &state.store, g)
}

fn embed_with(linear: &Linear, store: &ParamStore, g: &AttributedGraph) -> Matrix {
    embed_matrix(linear, store, g.attrs().clone())
}

fn embed_matrix(linear: &Linear, store: &ParamStore, x: Matrix) -> Matrix {
    let tape = Tape::new();
    let xv = tape.constant(x);
    linear
        .forward(&tape, store, &xv)
        .l2_normalize_rows()
        .value()
}

/// Structural scores of every node of `g`, plus the layer state (the
/// embeddings and their squares) they were computed from.
fn scores_for(
    linear: &Linear,
    store: &ParamStore,
    g: &AttributedGraph,
    self_loops: bool,
) -> (Vec<f32>, VbmLayers) {
    let h = embed_with(linear, store, g);
    let h_sq = h.mul(&h);
    let ctx = GraphContext::of(g);
    let var = neighbor_variance_with_squares(&h, &h_sq, ctx.mean_adjacency(self_loops));
    (var.row_sums().into_vec(), VbmLayers { h, h_sq })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgod_eval::auc;
    use vgod_graph::{community_graph, gaussian_mixture_attributes, CommunityGraphConfig};
    use vgod_inject::{inject_structural, GroundTruth, StructuralParams};

    fn test_graph(seed: u64) -> AttributedGraph {
        let mut rng = seeded_rng(seed);
        let mut g = community_graph(
            &CommunityGraphConfig::homogeneous(240, 4, 5.0, 0.92),
            &mut rng,
        );
        let x = gaussian_mixture_attributes(g.labels().unwrap(), 16, 4.0, 0.6, &mut rng);
        g.set_attrs(x);
        g
    }

    fn fast_cfg(self_loops: bool) -> VbmConfig {
        VbmConfig {
            hidden_dim: 16,
            epochs: 8,
            lr: 0.01,
            self_loops,
            seed: 7,
        }
    }

    #[test]
    fn detects_injected_cliques() {
        // Average over a few seeds: a single tiny graph has high variance.
        let mut aucs = Vec::new();
        for seed in 0..3u64 {
            let mut rng = seeded_rng(seed);
            let mut g = test_graph(seed);
            let mut truth = GroundTruth::new(g.num_nodes());
            inject_structural(
                &mut g,
                &mut truth,
                &StructuralParams {
                    num_cliques: 2,
                    clique_size: 6,
                },
                &mut rng,
            );
            let mut vbm = Vbm::new(fast_cfg(false));
            vbm.fit(&g);
            aucs.push(auc(&vbm.scores(&g), &truth.outlier_mask()));
        }
        let mean = aucs.iter().sum::<f32>() / aucs.len() as f32;
        assert!(
            mean > 0.85,
            "VBM mean AUC on injected cliques = {mean} ({aucs:?})"
        );
    }

    #[test]
    fn untrained_scores_panic() {
        let g = test_graph(2);
        let vbm = Vbm::new(fast_cfg(false));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| vbm.scores(&g)));
        assert!(result.is_err());
    }

    #[test]
    fn callback_sees_every_epoch() {
        let g = test_graph(3);
        let mut vbm = Vbm::new(fast_cfg(true));
        let mut epochs = Vec::new();
        vbm.fit_with_callback(&g, |snap| {
            epochs.push(snap.epoch);
            assert_eq!(snap.scores.len(), g.num_nodes());
        });
        assert_eq!(epochs, (0..=8).collect::<Vec<_>>());
        assert!(vbm.is_fitted());
    }

    #[test]
    fn training_reduces_contrastive_loss() {
        let g = test_graph(4);
        let mut vbm = Vbm::new(VbmConfig {
            epochs: 12,
            ..fast_cfg(false)
        });
        let mut losses = Vec::new();
        vbm.fit_with_callback(&g, |snap| {
            if snap.epoch > 0 {
                losses.push(snap.loss);
            }
        });
        let first = losses.first().copied().unwrap();
        let last = losses.last().copied().unwrap();
        assert!(last < first, "loss did not decrease: {first} → {last}");
    }

    #[test]
    fn inductive_scoring_works_on_new_graph() {
        let g1 = test_graph(5);
        let g2 = test_graph(6);
        let mut vbm = Vbm::new(fast_cfg(false));
        vbm.fit(&g1);
        let scores = vbm.scores(&g2);
        assert_eq!(scores.len(), g2.num_nodes());
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    #[should_panic(expected = "attribute dimension mismatch")]
    fn dimension_mismatch_panics() {
        let g1 = test_graph(7);
        let mut vbm = Vbm::new(fast_cfg(false));
        vbm.fit(&g1);
        let g2 = AttributedGraph::new(Matrix::zeros(10, 3));
        let _ = vbm.scores(&g2);
    }

    #[test]
    fn checkpoint_roundtrip_reproduces_scores() {
        let g = test_graph(9);
        let mut vbm = Vbm::new(fast_cfg(true));
        vbm.fit(&g);
        let original = vbm.scores(&g);

        let mut buf = Vec::new();
        vbm.save(&mut buf).unwrap();
        let restored = Vbm::load(&mut buf.as_slice()).unwrap();
        let reloaded = restored.scores(&g);
        for (a, b) in original.iter().zip(&reloaded) {
            assert_eq!(a, b, "restored model must score identically");
        }
        assert_eq!(restored.config().hidden_dim, 16);
        assert!(restored.config().self_loops);
    }

    #[test]
    fn load_rejects_foreign_data() {
        assert!(Vbm::load(&mut b"garbage".as_slice()).is_err());
        assert!(Vbm::load(&mut b"# vgod-vbm v1\nhidden_dim nope\n".as_slice()).is_err());
    }

    #[test]
    fn embeddings_are_unit_rows() {
        let g = test_graph(8);
        let mut vbm = Vbm::new(fast_cfg(false));
        vbm.fit(&g);
        let h = vbm.embeddings(&g);
        assert_eq!(h.shape(), (g.num_nodes(), 16));
        for r in 0..h.rows() {
            let n: f32 = h.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-3, "row {r} norm {n}");
        }
    }
}
