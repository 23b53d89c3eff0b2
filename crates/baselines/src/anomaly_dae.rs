//! AnomalyDAE (Fan et al., ICASSP 2020): dual autoencoders — an
//! attention-based structure autoencoder and an attribute autoencoder with
//! cross-modality reconstruction.

use rand::Rng;
use vgod_autograd::{persist, ParamStore, Tape, Var};
use vgod_eval::{score_sampled_range, DeltaCapability, OutlierDetector, Scores};
use vgod_gnn::{GatLayer, GraphContext};
use vgod_graph::{seeded_rng, AttributedGraph, GraphStore, SamplingConfig};
use vgod_nn::{Activation, Linear, Trainer};

use crate::common::{per_node_structure_errors, structure_loss, DeepConfig, EdgeSample};

/// AnomalyDAE: a structure autoencoder (linear + GAT encoder, inner-product
/// decoder) and an attribute autoencoder (MLP encoder over the transposed
/// attribute matrix) whose decoder is the cross-modality product
/// `X̂ = Z_v Z_aᵀ`.
///
/// Node embeddings `Z_v` couple into *both* reconstructions, which is the
/// architecture's signature. Note the attribute encoder's input dimension
/// is `|V|` (columns of `Xᵀ`), which is why the original cannot run
/// inductive inference (Table II) — this implementation keeps that
/// honest limitation and panics when scoring a graph with a different node
/// count.
#[derive(Clone, Debug)]
pub struct AnomalyDae {
    cfg: DeepConfig,
    /// Structure-vs-attribute loss balance.
    pub alpha: f32,
    state: Option<State>,
}

#[derive(Clone, Debug)]
struct State {
    store: ParamStore,
    node_proj: Linear,
    node_gat: GatLayer,
    attr_enc: Linear,
    in_dim: usize,
    n_nodes: usize,
}

impl AnomalyDae {
    /// An AnomalyDAE with the given shared config and `α = 0.7`.
    pub fn new(cfg: DeepConfig) -> Self {
        Self {
            cfg,
            alpha: 0.7,
            state: None,
        }
    }

    /// Forward pass: node embeddings `Z_v`, attribute embeddings `Z_a`, and
    /// the cross-modality reconstruction `X̂ = Z_v Z_aᵀ`.
    fn forward(state: &State, tape: &Tape, x: &Var, xt: &Var, ctx: &GraphContext) -> (Var, Var) {
        forward_parts(
            &state.node_proj,
            &state.node_gat,
            &state.attr_enc,
            &state.store,
            tape,
            x,
            xt,
            ctx,
        )
    }

    /// Build the architecture for `d` attributes over `n` nodes, consuming
    /// `rng` draws in the fixed constructor order checkpoint loading replays.
    fn build_state(cfg: &DeepConfig, d: usize, n: usize, rng: &mut impl Rng) -> State {
        let mut store = ParamStore::new();
        let node_proj = Linear::new(&mut store, d, cfg.hidden, true, rng);
        let node_gat = GatLayer::new(&mut store, cfg.hidden, cfg.hidden, rng);
        let attr_enc = Linear::new(&mut store, n, cfg.hidden, true, rng);
        State {
            store,
            node_proj,
            node_gat,
            attr_enc,
            in_dim: d,
            n_nodes: n,
        }
    }

    /// Write a trained model as a plain-text checkpoint.
    ///
    /// # Panics
    /// Panics if the model is untrained.
    pub fn save(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let state = self
            .state
            .as_ref()
            .expect("AnomalyDae::save called before fit");
        writeln!(out, "# vgod-anomalydae v1")?;
        writeln!(
            out,
            "{}",
            persist::header_line(&[
                ("hidden", self.cfg.hidden.to_string()),
                ("epochs", self.cfg.epochs.to_string()),
                ("lr", self.cfg.lr.to_string()),
                ("seed", self.cfg.seed.to_string()),
                ("alpha", self.alpha.to_string()),
                ("in_dim", state.in_dim.to_string()),
                ("n_nodes", state.n_nodes.to_string()),
            ])
        )?;
        state.store.write_text(out)
    }

    /// Read a checkpoint written by [`AnomalyDae::save`]. The restored model
    /// keeps the original's transductive restriction: it only scores graphs
    /// with the training node count.
    pub fn load(input: &mut impl std::io::BufRead) -> Result<AnomalyDae, String> {
        persist::expect_magic(input, "# vgod-anomalydae v1")?;
        let map = persist::read_header(input)?;
        let cfg = DeepConfig {
            hidden: persist::header_get(&map, "hidden")?,
            epochs: persist::header_get(&map, "epochs")?,
            lr: persist::header_get(&map, "lr")?,
            seed: persist::header_get(&map, "seed")?,
        };
        let alpha: f32 = persist::header_get(&map, "alpha")?;
        let in_dim: usize = persist::header_get(&map, "in_dim")?;
        let n_nodes: usize = persist::header_get(&map, "n_nodes")?;
        let loaded = ParamStore::read_text(input)?;
        let mut rng = seeded_rng(cfg.seed);
        let mut state = Self::build_state(&cfg, in_dim, n_nodes, &mut rng);
        persist::copy_store_values(&mut state.store, &loaded)?;
        let mut model = AnomalyDae::new(cfg);
        model.alpha = alpha;
        model.state = Some(state);
        Ok(model)
    }
}

#[allow(clippy::too_many_arguments)]
fn forward_parts(
    node_proj: &Linear,
    node_gat: &GatLayer,
    attr_enc: &Linear,
    store: &ParamStore,
    tape: &Tape,
    x: &Var,
    xt: &Var,
    ctx: &GraphContext,
) -> (Var, Var) {
    let zv = {
        let h = Activation::Relu.apply(&node_proj.forward(tape, store, x));
        node_gat.forward(tape, store, &h, ctx)
    };
    let za = Activation::Relu.apply(&attr_enc.forward(tape, store, xt));
    let xhat = zv.matmul_nt(&za);
    (zv, xhat)
}

impl Default for AnomalyDae {
    fn default() -> Self {
        Self::new(DeepConfig::default())
    }
}

impl OutlierDetector for AnomalyDae {
    fn name(&self) -> &'static str {
        "AnomalyDAE"
    }

    fn fit(&mut self, g: &AttributedGraph) {
        let mut rng = seeded_rng(self.cfg.seed);
        let d = g.num_attrs();
        let n = g.num_nodes();
        let State {
            mut store,
            node_proj,
            node_gat,
            attr_enc,
            in_dim,
            n_nodes,
        } = Self::build_state(&self.cfg, d, n, &mut rng);

        let ctx = GraphContext::of(g);
        let x = g.attrs().clone();
        let xt = x.transpose();
        let alpha = self.alpha;
        Trainer::new(self.cfg.epochs, self.cfg.lr).run(
            &mut store,
            |tape, _, store| {
                let sample = EdgeSample::from_graph(g, &mut rng);
                let xv = tape.constant(x.clone());
                let xtv = tape.constant(xt.clone());
                let (zv, xhat) = forward_parts(
                    &node_proj, &node_gat, &attr_enc, store, tape, &xv, &xtv, &ctx,
                );
                let attr_loss = xhat.sub(&xv).square().mean_all();
                let s_loss = structure_loss(&zv, &sample);
                s_loss.scale(alpha).add(&attr_loss.scale(1.0 - alpha))
            },
            |_, _, _| {},
        );
        self.state = Some(State {
            store,
            node_proj,
            node_gat,
            attr_enc,
            in_dim,
            n_nodes,
        });
    }

    fn score(&self, g: &AttributedGraph) -> Scores {
        let state = self
            .state
            .as_ref()
            .expect("AnomalyDae::score called before fit");
        assert_eq!(g.num_attrs(), state.in_dim, "attribute dimension mismatch");
        assert_eq!(
            g.num_nodes(),
            state.n_nodes,
            "AnomalyDAE is transductive-only: node count must match the training graph"
        );
        let mut rng = seeded_rng(self.cfg.seed.wrapping_add(1));
        let ctx = GraphContext::of(g);
        let tape = Tape::new();
        let xv = tape.constant(g.attrs().clone());
        let xtv = tape.constant(g.attrs().transpose());
        let (zv, xhat) = Self::forward(state, &tape, &xv, &xtv, &ctx);
        let attr_err = vgod_nn::row_reconstruction_errors(&xhat.value(), g.attrs());
        let struct_err = per_node_structure_errors(&zv.value(), g, &mut rng);
        let combined: Vec<f32> = struct_err
            .iter()
            .zip(&attr_err)
            .map(|(&s, &a)| self.alpha * s + (1.0 - self.alpha) * a)
            .collect();
        Scores {
            combined,
            structural: Some(struct_err),
            contextual: Some(attr_err),
        }
    }

    fn score_channels(
        &self,
        store: &dyn GraphStore,
        cfg: &SamplingConfig,
        lo: u32,
        hi: u32,
    ) -> Scores {
        // The attribute encoder's input dimension is |V|, so the fitted
        // model only scores graphs with the training node count. Each batch
        // neighbourhood is refitted by a fresh clone and scored as its own
        // transductive problem (the per-node combination `α·s + (1−α)·a`
        // is local, so seeds concatenate cleanly).
        score_sampled_range(store, cfg, lo, hi, &|batch| {
            self.clone().fit_score(&batch.graph)
        })
    }

    fn delta_capability(&self) -> DeltaCapability {
        // The attribute autoencoder runs over the transposed n×d matrix —
        // its weights are sized to the node count, so mutations refit.
        DeltaCapability::Refit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgod_eval::auc;
    use vgod_graph::{community_graph, gaussian_mixture_attributes, CommunityGraphConfig};
    use vgod_inject::{inject_standard, ContextualParams, DistanceMetric, StructuralParams};
    use vgod_tensor::Matrix;

    fn injected(seed: u64) -> (AttributedGraph, vgod_inject::GroundTruth) {
        let mut rng = seeded_rng(seed);
        let mut g = community_graph(
            &CommunityGraphConfig::homogeneous(220, 4, 4.0, 0.9),
            &mut rng,
        );
        let x = gaussian_mixture_attributes(g.labels().unwrap(), 12, 4.0, 0.5, &mut rng);
        g.set_attrs(x);
        let sp = StructuralParams {
            num_cliques: 2,
            clique_size: 8,
        };
        let cp = ContextualParams {
            count: 16,
            candidates: 30,
            metric: DistanceMetric::Euclidean,
        };
        let truth = inject_standard(&mut g, &sp, &cp, &mut rng);
        (g, truth)
    }

    #[test]
    fn beats_random_on_standard_injection() {
        let (g, truth) = injected(1);
        let mut model = AnomalyDae::new(DeepConfig::fast());
        let scores = model.fit_score(&g);
        let a = auc(&scores.combined, &truth.outlier_mask());
        assert!(a > 0.6, "AnomalyDAE AUC = {a}");
    }

    #[test]
    #[should_panic(expected = "transductive-only")]
    fn inductive_use_panics() {
        let (g1, _) = injected(2);
        let mut model = AnomalyDae::new(DeepConfig::fast());
        model.fit(&g1);
        // A graph with a different node count must be rejected.
        let mut rng = seeded_rng(9);
        let mut g2 = community_graph(
            &CommunityGraphConfig::homogeneous(150, 3, 4.0, 0.9),
            &mut rng,
        );
        g2.set_attrs(Matrix::zeros(150, 12));
        let _ = model.score(&g2);
    }
}
