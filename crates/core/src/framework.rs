//! The VGOD framework (§V-C, Algorithm 1).

use std::any::Any;
use std::borrow::Cow;

use vgod_eval::{
    full_graph_view, DeltaCapability, LayerState, LayeredDelta, OutlierDetector, ScoreMerge, Scores,
};
use vgod_graph::{k_hop_ball, AttributedGraph, GraphStore, NeighborSampler, SamplingConfig};

use crate::arm::ArmLayers;
use crate::vbm::VbmLayers;
use crate::{Arm, CombineStrategy, MiniBatchConfig, Vbm, VgodConfig};

/// VGOD's layer state: both components'.
struct VgodLayers {
    vbm: VbmLayers,
    arm: ArmLayers,
}

/// The layer-wise rescore shared by VBM, ARM and VGOD: run `step` on the
/// cached layer state `S`, or — when the cache holds none — build it with
/// one full pass of `det` over the materialised store and return every
/// row.
fn rescore_with<S: Any + Send>(
    det: &dyn OutlierDetector,
    store: &dyn GraphStore,
    state: &mut Option<LayerState>,
    bytes: fn(&S) -> usize,
    step: impl FnOnce(&mut S) -> (Vec<u32>, Scores),
) -> LayeredDelta {
    if let Some(layers) = state.as_mut().and_then(|s| s.downcast_mut::<S>()) {
        let (rows, scores) = step(layers);
        return LayeredDelta {
            rows,
            scores,
            state_bytes: bytes(layers),
        };
    }
    let g = store.materialize();
    let (scores, fresh) = det.score_with_state(&g);
    *state = fresh;
    let n = g.num_nodes();
    LayeredDelta {
        rows: (0..n as u32).collect(),
        scores,
        state_bytes: state
            .as_ref()
            .and_then(|s| s.downcast_ref::<S>())
            .map_or(0, bytes),
    }
}

fn vbm_scores(s: Vec<f32>) -> Scores {
    Scores {
        combined: s.clone(),
        structural: Some(s),
        contextual: None,
    }
}

fn arm_scores(s: Vec<f32>) -> Scores {
    Scores {
        combined: s.clone(),
        structural: None,
        contextual: Some(s),
    }
}

impl VgodLayers {
    fn bytes(&self) -> usize {
        self.vbm.bytes() + self.arm.bytes()
    }
}

/// The mini-batch schedule implied by a sampling config (store-backed
/// training reuses the §V-D mini-batch machinery with the sampler's batch
/// size and fan-out).
fn minibatch_of(cfg: &SamplingConfig) -> MiniBatchConfig {
    MiniBatchConfig {
        batch_size: cfg.batch_size,
        neighbor_cap: cfg.fanout,
    }
}

/// Variance-based Graph Outlier Detection: the paper's full framework.
///
/// Trains the [`Vbm`] and [`Arm`] *separately* (different epoch budgets, no
/// shared loss — §V-C argues joint training with a fixed weight causes
/// unbalanced optimisation), then combines their scores with mean-std
/// normalisation (Eq. 19) at inference time.
///
/// Implements [`OutlierDetector`], supporting both the transductive UNOD
/// protocol and the inductive protocol of Appendix B (every hyperparameter
/// is decoupled from the graph size, so a trained model scores any graph
/// with the same attribute schema).
#[derive(Clone, Debug)]
pub struct Vgod {
    cfg: VgodConfig,
    vbm: Vbm,
    arm: Arm,
}

impl Vgod {
    /// An untrained framework. Applies `cfg.num_threads` to the tensor
    /// worker pool (a process-global setting; see
    /// [`VgodConfig::apply_threading`]).
    pub fn new(cfg: VgodConfig) -> Self {
        cfg.apply_threading();
        let vbm = Vbm::new(cfg.vbm.clone());
        let arm = Arm::new(cfg.arm.clone());
        Self { cfg, vbm, arm }
    }

    /// The configuration.
    pub fn config(&self) -> &VgodConfig {
        &self.cfg
    }

    /// The variance-based component (after `fit`).
    pub fn vbm(&self) -> &Vbm {
        &self.vbm
    }

    /// The attribute-reconstruction component (after `fit`).
    pub fn arm(&self) -> &Arm {
        &self.arm
    }

    /// Write the trained framework (both models and the combine strategy)
    /// as a plain-text checkpoint.
    ///
    /// # Panics
    /// Panics if either model is untrained.
    pub fn save(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "# vgod-framework v1")?;
        writeln!(
            out,
            "combine {}",
            ScoreMerge::from(self.cfg.combine).wire_name()
        )?;
        self.vbm.save(out)?;
        self.arm.save(out)
    }

    /// Read a checkpoint written by [`Vgod::save`].
    pub fn load(input: &mut impl std::io::BufRead) -> Result<Vgod, String> {
        let mut magic = String::new();
        input.read_line(&mut magic).map_err(|e| e.to_string())?;
        if magic.trim() != "# vgod-framework v1" {
            return Err(format!("not a vgod-framework checkpoint: {magic:?}"));
        }
        let mut line = String::new();
        input.read_line(&mut line).map_err(|e| e.to_string())?;
        let combine = match line.trim().strip_prefix("combine ") {
            Some(name) => CombineStrategy::try_from(ScoreMerge::parse_wire(name)?)?,
            None => return Err(format!("bad combine line: {line:?}")),
        };
        let vbm = Vbm::load(input)?;
        let arm = Arm::load(input)?;
        let cfg = VgodConfig {
            vbm: vbm.config().clone(),
            arm: arm.config().clone(),
            combine,
            num_threads: None,
        };
        Ok(Vgod { cfg, vbm, arm })
    }

    /// Both channels plus their combination.
    fn components(&self, structural: Vec<f32>, contextual: Vec<f32>) -> Scores {
        Scores {
            combined: self.combine(&structural, &contextual),
            structural: Some(structural),
            contextual: Some(contextual),
        }
    }

    /// Combine structural and contextual scores per the configured strategy
    /// (its [`ScoreMerge`] rule).
    pub fn combine(&self, structural: &[f32], contextual: &[f32]) -> Vec<f32> {
        ScoreMerge::from(self.cfg.combine).combine(structural, contextual)
    }
}

impl OutlierDetector for Vgod {
    fn name(&self) -> &'static str {
        "VGOD"
    }

    fn fit(&mut self, g: &AttributedGraph) {
        // Algorithm 1: train VBM for Epoch_VBM, then ARM for Epoch_ARM.
        self.vbm.fit(g);
        self.arm.fit(g);
    }

    fn score(&self, g: &AttributedGraph) -> Scores {
        self.components(self.vbm.scores(g), self.arm.scores(g))
    }

    fn fit_store(&mut self, store: &dyn GraphStore, cfg: &SamplingConfig) {
        // Algorithm 1 against any backend: both components train through
        // their own store-backed mini-batch paths.
        self.vbm.fit_store(store, cfg);
        self.arm.fit_store(store, cfg);
    }

    fn score_channels(
        &self,
        store: &dyn GraphStore,
        cfg: &SamplingConfig,
        lo: u32,
        hi: u32,
    ) -> Scores {
        // Score combination (Eq. 19) is a *global* normalisation, so the
        // raw components are what a range yields; the combination is the
        // merge rule, applied once over full-length vectors after
        // concatenation — per-range combination would normalise against
        // range statistics and distort the ranking. The local `combined`
        // is a placeholder the merge overwrites.
        let structural = self.vbm.score_channels(store, cfg, lo, hi).combined;
        let contextual = self.arm.score_channels(store, cfg, lo, hi).combined;
        self.components(structural, contextual)
    }

    fn delta_capability(&self) -> DeltaCapability {
        // Both components are local. The global Eq. 19 combination is the
        // merge rule over full-length channels, for store, sharded and
        // streaming scoring alike.
        DeltaCapability::Local {
            merge: self.cfg.combine.into(),
        }
    }

    fn score_with_state(&self, g: &AttributedGraph) -> (Scores, Option<LayerState>) {
        let (structural, vbm) = self.vbm.scores_with_layers(g);
        let (contextual, arm) = self.arm.scores_with_layers(g);
        let layers = VgodLayers { vbm, arm };
        (
            self.components(structural, contextual),
            Some(Box::new(layers)),
        )
    }

    fn rescore_layered(
        &self,
        store: &dyn GraphStore,
        touched: &[u32],
        state: &mut Option<LayerState>,
    ) -> Option<LayeredDelta> {
        Some(rescore_with(
            self,
            store,
            state,
            VgodLayers::bytes,
            |layers| {
                // Both channels are patched on ARM's last dirty set, which
                // covers VBM's `B_1(touched)` from the first GNN layer on.
                // Without GNN layers ARM is row-local: seed it with VBM's
                // rows instead (re-embedding a row rewrites equal bytes).
                let seeds = if self.arm.config().layers == 0 {
                    Cow::Owned(k_hop_ball(store, touched, 1))
                } else {
                    Cow::Borrowed(touched)
                };
                let arm = self.arm.rescore_layers(store, &seeds, &mut layers.arm);
                let structural = self
                    .vbm
                    .rescore_rows(store, touched, &mut layers.vbm, &arm.rows);
                let scores = self.components(structural, arm.scores);
                (arm.rows, scores)
            },
        ))
    }
}

impl OutlierDetector for Vbm {
    fn name(&self) -> &'static str {
        "VBM"
    }

    fn fit(&mut self, g: &AttributedGraph) {
        Vbm::fit(self, g);
    }

    fn score(&self, g: &AttributedGraph) -> Scores {
        vbm_scores(self.scores(g))
    }

    fn fit_store(&mut self, store: &dyn GraphStore, cfg: &SamplingConfig) {
        match full_graph_view(store, cfg) {
            Some(g) => Vbm::fit(self, &g),
            None => {
                // Large graph: GraphSAGE-style mini-batches over a sampled
                // training-seed subset, streaming neighbourhoods and
                // attribute rows from the store.
                let seeds = NeighborSampler::new(store, *cfg).training_seeds();
                self.fit_minibatch_nodes(store, &minibatch_of(cfg), seeds);
            }
        }
    }

    fn delta_capability(&self) -> DeltaCapability {
        // Variance over direct neighbours' embeddings of their own
        // attributes (Eq. 14): strictly 1-hop, raw row sums.
        DeltaCapability::Local {
            merge: ScoreMerge::Concat,
        }
    }

    fn score_with_state(&self, g: &AttributedGraph) -> (Scores, Option<LayerState>) {
        let (s, layers) = self.scores_with_layers(g);
        (vbm_scores(s), Some(Box::new(layers)))
    }

    fn rescore_layered(
        &self,
        store: &dyn GraphStore,
        touched: &[u32],
        state: &mut Option<LayerState>,
    ) -> Option<LayeredDelta> {
        Some(rescore_with(
            self,
            store,
            state,
            VbmLayers::bytes,
            |layers| {
                let rows = k_hop_ball(store, touched, 1);
                let s = self.rescore_rows(store, touched, layers, &rows);
                (rows, vbm_scores(s))
            },
        ))
    }
}

impl OutlierDetector for Arm {
    fn name(&self) -> &'static str {
        "ARM"
    }

    fn fit(&mut self, g: &AttributedGraph) {
        Arm::fit(self, g);
    }

    fn score(&self, g: &AttributedGraph) -> Scores {
        arm_scores(self.scores(g))
    }

    fn fit_store(&mut self, store: &dyn GraphStore, cfg: &SamplingConfig) {
        match full_graph_view(store, cfg) {
            Some(g) => Arm::fit(self, &g),
            None => {
                // shaDow-style subgraph mini-batches over sampled seeds.
                let seeds = NeighborSampler::new(store, *cfg).training_seeds();
                self.fit_minibatch_nodes(store, &minibatch_of(cfg), seeds);
            }
        }
    }

    fn delta_capability(&self) -> DeltaCapability {
        // `layers` rounds of message passing: the rescore patches
        // `B_layers(touched)`, a raw per-row reconstruction error.
        DeltaCapability::Local {
            merge: ScoreMerge::Concat,
        }
    }

    fn score_with_state(&self, g: &AttributedGraph) -> (Scores, Option<LayerState>) {
        let (s, layers) = self.scores_with_layers(g);
        (arm_scores(s), Some(Box::new(layers)))
    }

    fn rescore_layered(
        &self,
        store: &dyn GraphStore,
        touched: &[u32],
        state: &mut Option<LayerState>,
    ) -> Option<LayeredDelta> {
        Some(rescore_with(
            self,
            store,
            state,
            ArmLayers::bytes,
            |layers| {
                let delta = self.rescore_layers(store, touched, layers);
                (delta.rows, arm_scores(delta.scores))
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgod_eval::{auc, auc_gap, auc_subset};
    use vgod_graph::{
        community_graph, gaussian_mixture_attributes, seeded_rng, CommunityGraphConfig,
    };
    use vgod_inject::{inject_standard, ContextualParams, DistanceMetric, StructuralParams};

    fn injected_case(seed: u64) -> (AttributedGraph, vgod_inject::GroundTruth) {
        let mut rng = seeded_rng(seed);
        let mut g = community_graph(
            &CommunityGraphConfig::homogeneous(260, 4, 5.0, 0.92),
            &mut rng,
        );
        let x = gaussian_mixture_attributes(g.labels().unwrap(), 16, 4.0, 0.5, &mut rng);
        g.set_attrs(x);
        let sp = StructuralParams {
            num_cliques: 2,
            clique_size: 7,
        };
        let cp = ContextualParams {
            count: 14,
            candidates: 40,
            metric: DistanceMetric::Euclidean,
        };
        let truth = inject_standard(&mut g, &sp, &cp, &mut rng);
        (g, truth)
    }

    fn fast() -> VgodConfig {
        let mut cfg = VgodConfig::fast();
        cfg.vbm.hidden_dim = 16;
        cfg.arm.hidden_dim = 16;
        cfg.arm.backbone = crate::GnnBackbone::Gcn;
        cfg
    }

    #[test]
    fn detects_both_outlier_types_with_balance() {
        let (g, truth) = injected_case(31);
        let mut model = Vgod::new(fast());
        let scores = model.fit_score(&g);
        let overall = auc(&scores.combined, &truth.outlier_mask());
        assert!(overall > 0.8, "overall AUC {overall}");
        let a_str = auc_subset(&scores.combined, &truth.structural_mask());
        let a_ctx = auc_subset(&scores.combined, &truth.contextual_mask());
        let gap = auc_gap(a_str, a_ctx);
        assert!(gap < 1.4, "AucGap {gap} (str {a_str}, ctx {a_ctx})");
    }

    #[test]
    fn component_scores_specialise() {
        let (g, truth) = injected_case(32);
        let mut model = Vgod::new(fast());
        let scores = model.fit_score(&g);
        let vbm_on_str = auc(
            scores.structural.as_ref().unwrap(),
            &truth.structural_mask(),
        );
        let arm_on_ctx = auc(
            scores.contextual.as_ref().unwrap(),
            &truth.contextual_mask(),
        );
        assert!(vbm_on_str > 0.75, "VBM on structural: {vbm_on_str}");
        assert!(arm_on_ctx > 0.75, "ARM on contextual: {arm_on_ctx}");
    }

    #[test]
    fn combine_strategies_differ_but_stay_monotone() {
        let model = Vgod::new(VgodConfig::default());
        let s = vec![10.0, 0.0, 5.0];
        let c = vec![0.0, 2.0, 1.0];
        let mean_std = model.combine(&s, &c);
        assert_eq!(mean_std.len(), 3);
        let mut weighted_model = Vgod::new(VgodConfig {
            combine: CombineStrategy::Weighted(0.5),
            ..VgodConfig::default()
        });
        let weighted = weighted_model.combine(&s, &c);
        assert_eq!(weighted, vec![5.0, 1.0, 3.0]);
        weighted_model.cfg.combine = CombineStrategy::SumToUnit;
        let unit = weighted_model.combine(&s, &c);
        assert!((unit.iter().sum::<f32>() - 2.0).abs() < 1e-5);
    }

    #[test]
    fn inductive_inference_matches_protocol() {
        let (g_train, _) = injected_case(33);
        let (g_test, truth_test) = injected_case(34);
        let mut model = Vgod::new(fast());
        model.fit(&g_train);
        let scores = model.score(&g_test);
        let a = auc(&scores.combined, &truth_test.outlier_mask());
        assert!(a > 0.7, "inductive AUC {a}");
    }

    #[test]
    fn framework_checkpoint_roundtrip() {
        let (g, _) = injected_case(35);
        let mut model = Vgod::new(VgodConfig {
            combine: CombineStrategy::Weighted(0.3),
            ..fast()
        });
        model.fit(&g);
        let original = model.score(&g);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let restored = Vgod::load(&mut buf.as_slice()).unwrap();
        assert_eq!(restored.config().combine, CombineStrategy::Weighted(0.3));
        let reloaded = restored.score(&g);
        assert_eq!(original.combined, reloaded.combined);
        assert_eq!(original.structural, reloaded.structural);
    }

    #[test]
    fn framework_load_rejects_component_checkpoints() {
        assert!(Vgod::load(&mut b"# vgod-vbm v1\n".as_slice()).is_err());
        assert!(Vgod::load(&mut b"# vgod-framework v1\ncombine bogus\n".as_slice()).is_err());
        // `concat` is a wire rule, but it combines nothing.
        assert!(Vgod::load(&mut b"# vgod-framework v1\ncombine concat\n".as_slice()).is_err());
    }

    #[test]
    fn detector_name_is_stable() {
        assert_eq!(Vgod::new(VgodConfig::default()).name(), "VGOD");
    }

    #[test]
    fn store_scoring_below_threshold_is_bit_identical() {
        let (g, _) = injected_case(36);
        let mut model = Vgod::new(fast());
        model.fit(&g);
        let direct = model.score(&g);
        // Default threshold (20k) far exceeds 260 nodes: the store path
        // must take the full-graph fast path and reproduce `score` exactly.
        let via_store = model.score_store(&g, &SamplingConfig::default());
        assert_eq!(direct.combined, via_store.combined);
        assert_eq!(direct.structural, via_store.structural);
        assert_eq!(direct.contextual, via_store.contextual);
    }

    #[test]
    fn store_fit_below_threshold_is_bit_identical() {
        let (g, _) = injected_case(38);
        let mut direct = Vgod::new(fast());
        direct.fit(&g);
        let mut stored = Vgod::new(fast());
        stored.fit_store(&g, &SamplingConfig::default());
        assert_eq!(direct.score(&g).combined, stored.score(&g).combined);
    }

    #[test]
    fn store_scoring_above_threshold_samples_and_combines_globally() {
        let (g, truth) = injected_case(37);
        let scfg = SamplingConfig {
            full_graph_threshold: 50, // force the sampled path on 260 nodes
            batch_size: 64,
            fanout: 8,
            hops: 2,
            train_seeds: 200,
            seed: 9,
            ..SamplingConfig::default()
        };
        let mut model = Vgod::new(fast());
        model.fit_store(&g, &scfg);
        let s = model.score_store(&g, &scfg);
        assert_eq!(s.combined.len(), g.num_nodes());
        assert!(s.combined.iter().all(|v| v.is_finite()));
        assert_eq!(s.structural.as_ref().unwrap().len(), g.num_nodes());
        assert_eq!(s.contextual.as_ref().unwrap().len(), g.num_nodes());
        // Sampled scoring is approximate but must stay informative.
        let a = auc(&s.combined, &truth.outlier_mask());
        assert!(a > 0.6, "sampled VGOD AUC = {a}");
    }
}
