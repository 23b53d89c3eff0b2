//! Non-learning detectors: the leakage probes and the random control.

use rand::Rng;
use vgod_autograd::persist;
use vgod_eval::{DeltaCapability, LayerState, LayeredDelta, OutlierDetector, ScoreMerge, Scores};
use vgod_graph::{seeded_rng, AttributedGraph, GraphStore, SamplingConfig};

/// Node degree as the outlier score (the structural leakage probe of
/// Fig. 2 and the `Deg` baseline of Table V).
#[derive(Clone, Copy, Debug, Default)]
pub struct Deg;

impl Deg {
    /// Write the (stateless) detector as a magic-only checkpoint, so the
    /// uniform save/load CLI and serving registry cover it too.
    pub fn save(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "# vgod-deg v1")
    }

    /// Read a checkpoint written by [`Deg::save`].
    pub fn load(input: &mut impl std::io::BufRead) -> Result<Deg, String> {
        persist::expect_magic(input, "# vgod-deg v1")?;
        Ok(Deg)
    }
}

impl OutlierDetector for Deg {
    fn name(&self) -> &'static str {
        "Deg"
    }

    fn fit(&mut self, _g: &AttributedGraph) {}

    fn score(&self, g: &AttributedGraph) -> Scores {
        Scores::combined_only(degrees(g, 0..g.num_nodes() as u32))
    }

    fn fit_store(&mut self, _store: &dyn GraphStore, _cfg: &SamplingConfig) {}

    fn score_channels(
        &self,
        store: &dyn GraphStore,
        _cfg: &SamplingConfig,
        lo: u32,
        hi: u32,
    ) -> Scores {
        // Exact at any scale: degrees read straight off the store's (fully
        // resident) edge index, no sampling involved.
        Scores::combined_only(degrees(store, lo..hi))
    }

    fn delta_capability(&self) -> DeltaCapability {
        DeltaCapability::Local {
            merge: ScoreMerge::Concat,
        }
    }

    fn rescore_layered(
        &self,
        store: &dyn GraphStore,
        touched: &[u32],
        _state: &mut Option<LayerState>,
    ) -> Option<LayeredDelta> {
        rescore_touched(
            touched,
            Scores::combined_only(degrees(store, touched.iter().copied())),
        )
    }
}

/// Attribute-vector L2 norm as the outlier score (the contextual leakage
/// probe of Fig. 2 / Fig. 3).
#[derive(Clone, Copy, Debug, Default)]
pub struct L2Norm;

impl L2Norm {
    /// Write the (stateless) detector as a magic-only checkpoint.
    pub fn save(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "# vgod-l2norm v1")
    }

    /// Read a checkpoint written by [`L2Norm::save`].
    pub fn load(input: &mut impl std::io::BufRead) -> Result<L2Norm, String> {
        persist::expect_magic(input, "# vgod-l2norm v1")?;
        Ok(L2Norm)
    }
}

impl OutlierDetector for L2Norm {
    fn name(&self) -> &'static str {
        "L2Norm"
    }

    fn fit(&mut self, _g: &AttributedGraph) {}

    fn score(&self, g: &AttributedGraph) -> Scores {
        Scores::combined_only(l2_norms(g))
    }

    fn fit_store(&mut self, _store: &dyn GraphStore, _cfg: &SamplingConfig) {}

    fn score_channels(
        &self,
        store: &dyn GraphStore,
        _cfg: &SamplingConfig,
        lo: u32,
        hi: u32,
    ) -> Scores {
        // Exact up to summation order: one pass over the range's attribute
        // rows, never materialising the n×d matrix.
        Scores::combined_only(store_l2_norms_range(store, lo, hi))
    }

    fn delta_capability(&self) -> DeltaCapability {
        DeltaCapability::Local {
            merge: ScoreMerge::Concat,
        }
    }

    fn rescore_layered(
        &self,
        store: &dyn GraphStore,
        touched: &[u32],
        _state: &mut Option<LayerState>,
    ) -> Option<LayeredDelta> {
        rescore_touched(
            touched,
            Scores::combined_only(touched_norms(store, touched)),
        )
    }
}

/// The paper's `DegNorm` baseline (Eq. 20): degree as the structural score,
/// attribute L2-norm as the contextual score, mean-std normalised and
/// summed. Exploits *only* the injection leakage — yet beats most deep
/// baselines under the standard protocol (Table IV).
#[derive(Clone, Copy, Debug, Default)]
pub struct DegNorm;

impl DegNorm {
    /// Write the (stateless) detector as a magic-only checkpoint.
    pub fn save(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "# vgod-degnorm v1")
    }

    /// Read a checkpoint written by [`DegNorm::save`].
    pub fn load(input: &mut impl std::io::BufRead) -> Result<DegNorm, String> {
        persist::expect_magic(input, "# vgod-degnorm v1")?;
        Ok(DegNorm)
    }
}

impl OutlierDetector for DegNorm {
    fn name(&self) -> &'static str {
        "DegNorm"
    }

    fn fit(&mut self, _g: &AttributedGraph) {}

    fn score(&self, g: &AttributedGraph) -> Scores {
        Scores::from_components(degrees(g, 0..g.num_nodes() as u32), l2_norms(g))
    }

    fn fit_store(&mut self, _store: &dyn GraphStore, _cfg: &SamplingConfig) {}

    fn score_channels(
        &self,
        store: &dyn GraphStore,
        _cfg: &SamplingConfig,
        lo: u32,
        hi: u32,
    ) -> Scores {
        // Raw degree/L2 components of the range's own rows; the local
        // combined is a placeholder the global merge rule overwrites.
        Scores::from_components(degrees(store, lo..hi), store_l2_norms_range(store, lo, hi))
    }

    fn delta_capability(&self) -> DeltaCapability {
        // Raw components are per-row. Eq. 20's mean-std combination is a
        // global normalisation, so it is the merge rule, applied once over
        // the full-length channels — the ranking is not distorted by
        // per-range statistics.
        DeltaCapability::Local {
            merge: ScoreMerge::MeanStd,
        }
    }

    fn rescore_layered(
        &self,
        store: &dyn GraphStore,
        touched: &[u32],
        _state: &mut Option<LayerState>,
    ) -> Option<LayeredDelta> {
        rescore_touched(
            touched,
            Scores::from_components(
                degrees(store, touched.iter().copied()),
                touched_norms(store, touched),
            ),
        )
    }
}

/// Uniform-random scores — the control detector (AUC ≈ 0.5 by design).
#[derive(Clone, Debug)]
pub struct RandomDetector {
    seed: u64,
}

impl RandomDetector {
    /// A random detector with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Write the detector (its seed is its entire state) as a checkpoint.
    pub fn save(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "# vgod-random v1")?;
        writeln!(
            out,
            "{}",
            persist::header_line(&[("seed", self.seed.to_string())])
        )
    }

    /// Read a checkpoint written by [`RandomDetector::save`].
    pub fn load(input: &mut impl std::io::BufRead) -> Result<RandomDetector, String> {
        persist::expect_magic(input, "# vgod-random v1")?;
        let map = persist::read_header(input)?;
        Ok(RandomDetector::new(persist::header_get(&map, "seed")?))
    }
}

impl Default for RandomDetector {
    fn default() -> Self {
        Self::new(0)
    }
}

impl OutlierDetector for RandomDetector {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn fit(&mut self, _g: &AttributedGraph) {}

    fn score(&self, g: &AttributedGraph) -> Scores {
        let mut rng = seeded_rng(self.seed);
        Scores::combined_only(
            (0..g.num_nodes())
                .map(|_| rng.gen_range(0.0..1.0))
                .collect(),
        )
    }

    fn fit_store(&mut self, _store: &dyn GraphStore, _cfg: &SamplingConfig) {}

    fn score_channels(
        &self,
        _store: &dyn GraphStore,
        _cfg: &SamplingConfig,
        lo: u32,
        hi: u32,
    ) -> Scores {
        // Only node ids matter, so this is bit-identical to `score` at any
        // scale. The RNG stream is sequential over node ids: a range
        // replays the draws up to `lo` and keeps its own.
        let mut rng = seeded_rng(self.seed);
        for _ in 0..lo {
            let _: f32 = rng.gen_range(0.0..1.0);
        }
        Scores::combined_only((lo..hi).map(|_| rng.gen_range(0.0..1.0)).collect())
    }
}

fn degrees<S: GraphStore + ?Sized>(store: &S, nodes: impl IntoIterator<Item = u32>) -> Vec<f32> {
    nodes.into_iter().map(|u| store.degree(u) as f32).collect()
}

fn l2_norms(g: &AttributedGraph) -> Vec<f32> {
    g.attrs().row_norms().into_vec()
}

fn store_l2_norms_range(store: &dyn GraphStore, lo: u32, hi: u32) -> Vec<f32> {
    let mut out = Vec::with_capacity((hi - lo) as usize);
    store.visit_attrs(lo, hi, &mut |_, row| {
        out.push(row.iter().map(|v| v * v).sum::<f32>().sqrt())
    });
    out
}

/// The leakage probes' delta rescore. Their channels are per-row
/// functions of the store, a node's degree and its attribute norm, so a
/// mutation batch moves exactly the `touched` rows, and no layer state is
/// kept. `scores` holds those rows, computed with `score`'s arithmetic
/// ([`degrees`], [`touched_norms`]).
fn rescore_touched(touched: &[u32], scores: Scores) -> Option<LayeredDelta> {
    Some(LayeredDelta {
        rows: touched.to_vec(),
        scores,
        state_bytes: 0,
    })
}

/// `row_norms`, the 8-lane `sum_sq` kernel `score` runs — not the scalar
/// sum of [`store_l2_norms_range`], whose last bits can differ.
fn touched_norms(store: &dyn GraphStore, touched: &[u32]) -> Vec<f32> {
    store.gather_attrs(touched).row_norms().into_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgod_eval::auc;
    use vgod_graph::seeded_rng as srng;
    use vgod_inject::{inject_standard, ContextualParams, DistanceMetric, StructuralParams};
    use vgod_tensor::Matrix;

    fn injected() -> (AttributedGraph, vgod_inject::GroundTruth) {
        let mut rng = srng(0);
        let mut g = vgod_graph::community_graph(
            &vgod_graph::CommunityGraphConfig::homogeneous(400, 4, 4.0, 0.9),
            &mut rng,
        );
        let x =
            vgod_graph::binary_topic_attributes(g.labels().unwrap(), 64, (6, 20), 0.8, &mut rng);
        g.set_attrs(x);
        let sp = StructuralParams {
            num_cliques: 2,
            clique_size: 10,
        };
        let cp = ContextualParams {
            count: 20,
            candidates: 50,
            metric: DistanceMetric::Euclidean,
        };
        let truth = inject_standard(&mut g, &sp, &cp, &mut rng);
        (g, truth)
    }

    #[test]
    fn degree_leaks_structural_outliers() {
        let (g, truth) = injected();
        let scores = Deg.score(&g);
        let a = auc(&scores.combined, &truth.structural_mask());
        assert!(a > 0.9, "Deg AUC on structural = {a} (paper: ~0.95)");
    }

    #[test]
    fn l2_norm_leaks_contextual_outliers() {
        let (g, truth) = injected();
        let scores = L2Norm.score(&g);
        let a = auc(&scores.combined, &truth.contextual_mask());
        assert!(a > 0.8, "L2Norm AUC on contextual = {a} (paper: ~0.98)");
    }

    #[test]
    fn degnorm_combines_both_leaks() {
        let (g, truth) = injected();
        let scores = DegNorm.fit_score(&g);
        let a = auc(&scores.combined, &truth.outlier_mask());
        assert!(a > 0.8, "DegNorm AUC = {a}");
        assert!(scores.structural.is_some() && scores.contextual.is_some());
    }

    #[test]
    fn random_detector_is_chance_level() {
        let (g, truth) = injected();
        let scores = RandomDetector::new(3).score(&g);
        let a = auc(&scores.combined, &truth.outlier_mask());
        assert!((0.35..0.65).contains(&a), "Random AUC = {a}");
    }

    #[test]
    fn store_paths_match_in_memory_scoring() {
        let (g, _) = injected();
        let tiny = SamplingConfig {
            full_graph_threshold: 10, // force the streaming path on 400 nodes
            ..SamplingConfig::default()
        };
        // Degree and random scores are exact at any scale.
        assert_eq!(Deg.score(&g).combined, Deg.score_store(&g, &tiny).combined);
        assert_eq!(
            RandomDetector::new(3).score(&g).combined,
            RandomDetector::new(3).score_store(&g, &tiny).combined
        );
        // Streamed L2 norms agree up to summation order.
        let direct = L2Norm.score(&g).combined;
        let streamed = L2Norm.score_store(&g, &tiny).combined;
        for (a, b) in direct.iter().zip(&streamed) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        // Below the threshold everything is bit-identical.
        let dflt = SamplingConfig::default();
        assert_eq!(
            DegNorm.score(&g).combined,
            DegNorm.score_store(&g, &dflt).combined
        );
        assert_eq!(
            L2Norm.score(&g).combined,
            L2Norm.score_store(&g, &dflt).combined
        );
    }

    #[test]
    fn touched_rescore_matches_score_rows_bit_for_bit() {
        // Wide real-valued rows, so the 8-lane `row_norms` sum order and
        // a plain sequential sum would round differently.
        let (mut g, _) = injected();
        let mut rng = srng(4);
        let x = Matrix::from_fn(g.num_nodes(), 24, |_, _| {
            vgod_graph::standard_normal(&mut rng)
        });
        g.set_attrs(x);
        let touched = [0u32, 7, 150, 399];
        let own =
            |v: Option<&Vec<f32>>| v.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        let rows = |v: Option<&Vec<f32>>| {
            v.map(|v| {
                touched
                    .iter()
                    .map(|&u| v[u as usize].to_bits())
                    .collect::<Vec<_>>()
            })
        };
        let dets: [&dyn OutlierDetector; 3] = [&Deg, &L2Norm, &DegNorm];
        for det in dets {
            let full = det.score(&g);
            let delta = det.rescore_layered(&g, &touched, &mut None).unwrap();
            let name = det.name();
            assert_eq!(delta.rows, touched, "{name}");
            assert_eq!(delta.state_bytes, 0, "{name}");
            let (got, want) = (&delta.scores, &full);
            assert_eq!(
                own(got.structural.as_ref()),
                rows(want.structural.as_ref()),
                "{name}"
            );
            assert_eq!(
                own(got.contextual.as_ref()),
                rows(want.contextual.as_ref()),
                "{name}"
            );
            if want.structural.is_none() {
                // A Concat merge patches `combined` itself.
                assert_eq!(
                    own(Some(&got.combined)),
                    rows(Some(&want.combined)),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn simple_detectors_handle_empty_graphs() {
        let g = AttributedGraph::new(Matrix::zeros(0, 4));
        assert!(Deg.score(&g).combined.is_empty());
        assert!(L2Norm.score(&g).combined.is_empty());
        assert!(RandomDetector::default().score(&g).combined.is_empty());
    }
}
