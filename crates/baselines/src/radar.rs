//! Radar-style residual analysis (Li et al., IJCAI 2017) — the
//! representative *non-deep* baseline family the paper's related work
//! discusses (and reports as uniformly weaker than the deep models under
//! injection).

use vgod_autograd::{persist, ParamStore};
use vgod_eval::{score_sampled_range, DeltaCapability, OutlierDetector, Scores};
use vgod_gnn::GraphContext;
use vgod_graph::{seeded_rng, AttributedGraph, GraphStore, SamplingConfig};
use vgod_nn::Trainer;
use vgod_tensor::Matrix;

use crate::common::DeepConfig;

/// Radar: learn a structure-coherent representation of the attribute
/// matrix with a graph-smoothed residual, `X ≈ (Ā X) W + R` (each node
/// explained from its neighbourhood attribute profile), minimising
///
/// `‖X − ĀXW − R‖²_F + α‖W‖²_F + β‖R‖²_F + γ·tr(Rᵀ L R)`
///
/// and score node `i` by its residual norm `‖r_i‖₂` — attributes that the
/// graph's attribute coherence cannot explain.
///
/// The original solves an `n × n` self-representation with closed-form
/// alternating updates; this implementation uses a scalable variant (a
/// `d × d` map from the aggregated neighbourhood profile `ĀX`) optimised
/// by Adam, which preserves the paper's residual-analysis mechanism —
/// "residuals of attribute information and its coherence with graph
/// structure" — at `O(nd² + |E|d)` per iteration.
#[derive(Clone, Debug)]
pub struct Radar {
    cfg: DeepConfig,
    /// `α` — representation shrinkage.
    pub alpha: f32,
    /// `β` — residual shrinkage (forces most residuals toward zero).
    pub beta: f32,
    /// `γ` — Laplacian smoothing of residuals along edges.
    pub gamma: f32,
    scores: Option<Vec<f32>>,
    n_fit: usize,
}

impl Radar {
    /// A Radar model with the given optimisation budget.
    pub fn new(cfg: DeepConfig) -> Self {
        Self {
            cfg,
            alpha: 0.1,
            beta: 0.5,
            gamma: 0.5,
            scores: None,
            n_fit: 0,
        }
    }

    /// Write a fitted model as a plain-text checkpoint. Radar is
    /// transductive, so its entire fitted state is the residual-norm score
    /// vector — serialised as one `n_fit × 1` matrix in a [`ParamStore`].
    ///
    /// # Panics
    /// Panics if the model is unfitted.
    pub fn save(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let scores = self.scores.as_ref().expect("Radar::save called before fit");
        writeln!(out, "# vgod-radar v1")?;
        writeln!(
            out,
            "{}",
            persist::header_line(&[
                ("hidden", self.cfg.hidden.to_string()),
                ("epochs", self.cfg.epochs.to_string()),
                ("lr", self.cfg.lr.to_string()),
                ("seed", self.cfg.seed.to_string()),
                ("alpha", self.alpha.to_string()),
                ("beta", self.beta.to_string()),
                ("gamma", self.gamma.to_string()),
                ("n_fit", self.n_fit.to_string()),
            ])
        )?;
        let mut store = ParamStore::new();
        store.insert(Matrix::from_fn(self.n_fit, 1, |r, _| scores[r]));
        store.write_text(out)
    }

    /// Read a checkpoint written by [`Radar::save`].
    pub fn load(input: &mut impl std::io::BufRead) -> Result<Radar, String> {
        persist::expect_magic(input, "# vgod-radar v1")?;
        let map = persist::read_header(input)?;
        let cfg = DeepConfig {
            hidden: persist::header_get(&map, "hidden")?,
            epochs: persist::header_get(&map, "epochs")?,
            lr: persist::header_get(&map, "lr")?,
            seed: persist::header_get(&map, "seed")?,
        };
        let n_fit: usize = persist::header_get(&map, "n_fit")?;
        let mut template = ParamStore::new();
        let id = template.insert(Matrix::zeros(n_fit, 1));
        let loaded = ParamStore::read_text(input)?;
        persist::copy_store_values(&mut template, &loaded)?;
        let mut model = Radar::new(cfg);
        model.alpha = persist::header_get(&map, "alpha")?;
        model.beta = persist::header_get(&map, "beta")?;
        model.gamma = persist::header_get(&map, "gamma")?;
        model.scores = Some(template.value(id).as_slice().to_vec());
        model.n_fit = n_fit;
        Ok(model)
    }
}

impl Default for Radar {
    fn default() -> Self {
        Self::new(DeepConfig::default())
    }
}

impl OutlierDetector for Radar {
    fn name(&self) -> &'static str {
        "Radar"
    }

    fn fit(&mut self, g: &AttributedGraph) {
        let mut rng = seeded_rng(self.cfg.seed);
        let n = g.num_nodes();
        let d = g.num_attrs();
        let mut store = ParamStore::new();
        let w = store.insert(vgod_nn::glorot_uniform(d, d, &mut rng).scale(0.1));
        let r = store.insert(Matrix::zeros(n, d));

        let x = g.attrs().clone();
        let ctx = GraphContext::of(g);
        let sym = ctx.gcn().clone();
        let profile = ctx.mean().spmm(&x); // Ā X, fixed per graph
        let (alpha, beta, gamma) = (self.alpha, self.beta, self.gamma);
        Trainer::new(self.cfg.epochs, self.cfg.lr.max(0.01)).run(
            &mut store,
            |tape, _, store| {
                let xv = tape.constant(x.clone());
                let pv = tape.constant(profile.clone());
                let wv = tape.param(store, w);
                let rv = tape.param(store, r);
                let recon = xv.sub(&pv.matmul(&wv)).sub(&rv).square().sum_all();
                let w_reg = wv.square().sum_all().scale(alpha);
                let r_reg = rv.square().sum_all().scale(beta);
                // tr(Rᵀ L R) with L = I − Â: penalises residuals that differ
                // from their neighbours' — genuine outliers stand out, noise
                // gets smoothed away.
                let smooth = rv.mul(&rv.sub(&rv.spmm(&sym))).sum_all().scale(gamma);
                recon
                    .add(&w_reg)
                    .add(&r_reg)
                    .add(&smooth)
                    .scale(1.0 / n as f32)
            },
            |_, _, _| {},
        );
        // Residual norms are the outlier scores (Radar is transductive:
        // the residual matrix is tied to the training graph's nodes).
        self.scores = Some(store.value(r).row_norms().into_vec());
        self.n_fit = n;
    }

    fn score(&self, g: &AttributedGraph) -> Scores {
        let scores = self
            .scores
            .as_ref()
            .expect("Radar::score called before fit");
        assert_eq!(
            g.num_nodes(),
            self.n_fit,
            "Radar is transductive-only: node count must match the training graph"
        );
        Scores::combined_only(scores.clone())
    }

    fn score_channels(
        &self,
        store: &dyn GraphStore,
        cfg: &SamplingConfig,
        lo: u32,
        hi: u32,
    ) -> Scores {
        // Radar's residual matrix is tied to the fitted node set, so the
        // generic batched path (global model, sampled subgraphs) cannot
        // apply. Each batch neighbourhood becomes its own small
        // transductive problem instead: a fresh clone refits and scores
        // it, which also makes the path embarrassingly range-parallel.
        score_sampled_range(store, cfg, lo, hi, &|batch| {
            self.clone().fit_score(&batch.graph)
        })
    }

    fn delta_capability(&self) -> DeltaCapability {
        // Transductive: the learned residual matrix R is sized to the
        // training graph, so any mutation forces a refit.
        DeltaCapability::Refit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgod_eval::auc;
    use vgod_graph::{community_graph, gaussian_mixture_attributes, CommunityGraphConfig};
    use vgod_inject::{inject_contextual, ContextualParams, DistanceMetric, GroundTruth};

    #[test]
    fn residuals_flag_contextual_outliers() {
        let mut rng = seeded_rng(8);
        let mut g = community_graph(
            &CommunityGraphConfig::homogeneous(200, 4, 5.0, 0.9),
            &mut rng,
        );
        let x = gaussian_mixture_attributes(g.labels().unwrap(), 10, 4.0, 0.4, &mut rng);
        g.set_attrs(x);
        let mut truth = GroundTruth::new(200);
        inject_contextual(
            &mut g,
            &mut truth,
            &ContextualParams {
                count: 12,
                candidates: 40,
                metric: DistanceMetric::Euclidean,
            },
            &mut rng,
        );
        let mut radar = Radar::new(DeepConfig {
            epochs: 150,
            lr: 0.05,
            ..DeepConfig::fast()
        });
        let scores = radar.fit_score(&g);
        let a = auc(&scores.combined, &truth.outlier_mask());
        assert!(a > 0.7, "Radar AUC on contextual outliers = {a}");
    }

    #[test]
    #[should_panic(expected = "transductive-only")]
    fn rejects_different_graph() {
        let mut rng = seeded_rng(9);
        let mut g = community_graph(
            &CommunityGraphConfig::homogeneous(60, 3, 4.0, 0.9),
            &mut rng,
        );
        g.set_attrs(Matrix::zeros(60, 5));
        let mut radar = Radar::new(DeepConfig {
            epochs: 2,
            ..DeepConfig::fast()
        });
        radar.fit(&g);
        let mut g2 = community_graph(
            &CommunityGraphConfig::homogeneous(80, 4, 4.0, 0.9),
            &mut rng,
        );
        g2.set_attrs(Matrix::zeros(80, 5));
        let _ = radar.score(&g2);
    }
}
