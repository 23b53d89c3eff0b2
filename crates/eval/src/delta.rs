//! Delta rescoring: after a graph mutation, recompute only the scores
//! that can have changed.
//!
//! A detector declaring [`DeltaCapability::Local`] has one delta path,
//! [`OutlierDetector::rescore_layered`]: given the nodes `T` a mutation
//! batch touched, it recomputes exactly the rows whose raw channels can
//! have moved and returns them.
//!
//! * VBM, ARM and VGOD keep per-layer activations in the cache. Layer `ℓ`
//!   recomputes only `dirty_ℓ = B_1(dirty_{ℓ−1} ∪ T)` (`dirty_0 = T`),
//!   reading unchanged neighbour rows from the cached layer input, so a
//!   batch costs its `B_L(T)` rows rather than the graph.
//! * Deg, L2Norm and DegNorm are per-row functions of the store (a node's
//!   degree and its attribute norm), so exactly the `T` rows move. They
//!   keep no state and ignore it.
//!
//! The rescored rows overwrite the cached full-length channels and the
//! global merge rule is re-applied ([`ScoreCache::patch`]).
//!
//! Byte-identity with a from-scratch full rescore rests on two invariants
//! proven elsewhere in the workspace: per-row neighbour aggregation visits
//! a row's neighbours in the full graph's order (`vgod_gnn::rows`), and
//! every tensor kernel fixes its per-row accumulation order regardless of
//! row count (the determinism contract in `vgod-tensor`). Non-`Concat`
//! merges run [`ScoreMerge::apply`] — the combine the sharded scoring
//! coordinator runs over concatenated channels — on the patched
//! full-length channels.
//!
//! `FullRescore` and `Refit` detectors have no delta path: the streaming
//! engine rescores or refits them on the materialised mutated graph and
//! swaps the result in with [`ScoreCache::replace`].
//!
//! [`DeltaCapability::Local`]: crate::DeltaCapability::Local

use vgod_graph::{AttributedGraph, GraphStore};

use crate::detector::{merge_rule, LayerState, OutlierDetector, ScoreMerge, Scores};

/// A model's served scores: full-length raw channels plus the merge rule
/// that combines them, and — for detectors with a layer-wise incremental
/// path — the per-layer activations that path updates. The streaming
/// engine keeps one per loaded model, patches the dirty rows after each
/// mutation batch, and publishes the recombined `combined` vector.
pub struct ScoreCache {
    channels: Scores,
    merge: ScoreMerge,
    state: Option<LayerState>,
    state_bytes: usize,
}

impl std::fmt::Debug for ScoreCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoreCache")
            .field("channels", &self.channels)
            .field("merge", &self.merge)
            .field("has_state", &self.state.is_some())
            .field("state_bytes", &self.state_bytes)
            .finish()
    }
}

impl ScoreCache {
    /// Cache a full scoring pass. For a `Local` detector pass its
    /// declared merge rule; for full-rescore models pass
    /// [`ScoreMerge::Concat`] (the combined vector is replaced wholesale).
    /// The cache holds no layer state: a detector with a layer-wise path
    /// builds it with one full pass on the first mutation batch.
    pub fn new(full: Scores, merge: ScoreMerge) -> ScoreCache {
        ScoreCache {
            channels: full,
            merge,
            state: None,
            state_bytes: 0,
        }
    }

    /// Score `g` with `det` and cache the result under the detector's
    /// merge rule, together with the layer state the same pass yields
    /// ([`OutlierDetector::score_with_state`]), so the first mutation batch
    /// already runs incrementally.
    pub fn for_detector(det: &dyn OutlierDetector, g: &AttributedGraph) -> ScoreCache {
        let (full, state) = det.score_with_state(g);
        ScoreCache {
            state,
            ..ScoreCache::new(full, merge_rule(det))
        }
    }

    /// Heap bytes of the cached layer state, as of the last layer-wise
    /// rescore (0 before one ran, and for detectors without the path).
    pub fn state_bytes(&self) -> usize {
        self.state_bytes
    }

    /// The served (combined) scores.
    pub fn combined(&self) -> &[f32] {
        &self.channels.combined
    }

    /// All cached channels.
    pub fn scores(&self) -> &Scores {
        &self.channels
    }

    /// Number of scored nodes.
    pub fn len(&self) -> usize {
        self.channels.combined.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.channels.combined.is_empty()
    }

    /// Extend every channel with zero rows up to `n` nodes (appended nodes
    /// get placeholder scores until the covering patch lands — the
    /// streaming engine always patches a frontier containing them in the
    /// same batch).
    pub fn grow(&mut self, n: usize) {
        if n <= self.len() {
            return;
        }
        self.channels.combined.resize(n, 0.0);
        if let Some(v) = &mut self.channels.structural {
            v.resize(n, 0.0);
        }
        if let Some(v) = &mut self.channels.contextual {
            v.resize(n, 0.0);
        }
    }

    /// Overwrite the rescored rows with fresh channels and re-apply the
    /// merge rule. `delta` rows align with `frontier` (as returned by
    /// [`OutlierDetector::rescore_layered`]).
    ///
    /// # Panics
    /// Panics if a frontier id is out of range, `delta` lacks a channel the
    /// cache holds, or a non-`Concat` merge is missing a channel.
    pub fn patch(&mut self, frontier: &[u32], delta: &Scores) {
        if self.merge == ScoreMerge::Concat {
            // The combined score is itself local: patch it directly.
            for (i, &u) in frontier.iter().enumerate() {
                self.channels.combined[u as usize] = delta.combined[i];
            }
        }
        patch_channel(&mut self.channels.structural, &delta.structural, frontier);
        patch_channel(&mut self.channels.contextual, &delta.contextual, frontier);
        // Recombine globally with the same kernels a full pass uses —
        // byte-identical to scoring from scratch (a no-op for Concat).
        self.channels = self.merge.apply(std::mem::take(&mut self.channels));
    }

    /// Replace the cache wholesale (the full-rescore path).
    pub fn replace(&mut self, full: Scores) {
        self.channels = full;
    }
}

fn patch_channel(channel: &mut Option<Vec<f32>>, delta: &Option<Vec<f32>>, frontier: &[u32]) {
    match (channel, delta) {
        (Some(channel), Some(delta)) => {
            for (i, &u) in frontier.iter().enumerate() {
                channel[u as usize] = delta[i];
            }
        }
        (Some(_), None) => panic!("delta is missing a cached channel"),
        (None, _) => {}
    }
}

/// One delta-rescoring step for a `Local` detector: given the
/// post-mutation store, the touched set and the model's cache, patch the
/// rows [`OutlierDetector::rescore_layered`] recomputes. Returns
/// the number of rescored rows. This is the one delta entry point the
/// streaming engine calls per applied batch; it handles `FullRescore` and
/// `Refit` models itself.
///
/// # Panics
/// Panics if the detector has no `rescore_layered` override, which a
/// `Local` declaration requires.
pub fn apply_mutation_rescore(
    det: &dyn OutlierDetector,
    store: &dyn GraphStore,
    touched: &[u32],
    cache: &mut ScoreCache,
) -> usize {
    cache.grow(store.num_nodes());
    if touched.is_empty() {
        return 0; // a local score moves only near a touched node
    }
    let delta = det
        .rescore_layered(store, touched, &mut cache.state)
        .unwrap_or_else(|| panic!("{} has no row-exact delta rescore", det.name()));
    cache.state_bytes = delta.state_bytes;
    cache.patch(&delta.rows, &delta.scores);
    delta.rows.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeltaCapability, LayeredDelta};
    use vgod_graph::{k_hop_ball, seeded_rng, AttributedGraph};
    use vgod_tensor::Matrix;

    /// A 1-hop toy detector: structural = degree, contextual = mean of the
    /// neighbours' attr[0], combined with mean-std. A batch moves the rows
    /// of `B_1(touched)`, so the patch exercises both the row overwrite
    /// and the global recombination.
    #[derive(Clone)]
    struct NeighborMean;

    fn neighbor_mean_channels(store: &dyn GraphStore, rows: &[u32]) -> Scores {
        let mut nbrs = Vec::new();
        let mut attrs = vec![0.0; store.num_attrs()];
        let mut contextual = Vec::with_capacity(rows.len());
        for &u in rows {
            store.neighbors_into(u, &mut nbrs);
            let mut sum = 0.0f32;
            for &v in &nbrs {
                store.attr_row_into(v, &mut attrs);
                sum += attrs[0];
            }
            contextual.push(if nbrs.is_empty() {
                0.0
            } else {
                sum / nbrs.len() as f32
            });
        }
        let structural = rows.iter().map(|&u| store.degree(u) as f32).collect();
        Scores::from_components(structural, contextual)
    }

    impl OutlierDetector for NeighborMean {
        fn name(&self) -> &'static str {
            "NeighborMean"
        }
        fn fit(&mut self, _g: &AttributedGraph) {}
        fn score(&self, g: &AttributedGraph) -> Scores {
            let all: Vec<u32> = (0..g.num_nodes() as u32).collect();
            neighbor_mean_channels(g, &all)
        }
        fn delta_capability(&self) -> DeltaCapability {
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
            let rows = k_hop_ball(store, touched, 1);
            Some(LayeredDelta {
                scores: neighbor_mean_channels(store, &rows),
                rows,
                state_bytes: 0,
            })
        }
    }

    fn random_graph(n: usize, seed: u64) -> AttributedGraph {
        use rand::Rng;
        let mut rng = seeded_rng(seed);
        let mut x = Matrix::zeros(n, 2);
        for v in x.as_mut_slice() {
            *v = rng.gen_range(-1.0..1.0);
        }
        let mut g = AttributedGraph::new(x);
        for _ in 0..3 * n {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                g.add_edge(u, v);
            }
        }
        g
    }

    #[test]
    fn patched_cache_is_byte_identical_to_full_rescore() {
        let det = NeighborMean;
        let mut g = random_graph(120, 3);
        let mut cache = ScoreCache::new(det.score(&g), merge_rule(&det));
        assert_eq!(apply_mutation_rescore(&det, &g, &[], &mut cache), 0);

        // Mutate: one edge in, one out, one attribute row.
        g.add_edge(7, 93);
        g.remove_edge(7, 93); // churn that must not desync the cache
        g.add_edge(11, 54);
        let removed = g.neighbors(20).first().copied();
        let mut touched = vec![7u32, 93, 11, 54, 3];
        if let Some(v) = removed {
            g.remove_edge(20, v);
            touched.extend_from_slice(&[20, v]);
        }
        g.attrs_mut().row_mut(3).copy_from_slice(&[9.0, -9.0]);
        touched.sort_unstable();
        touched.dedup();

        let rows = apply_mutation_rescore(&det, &g, &touched, &mut cache);
        assert_eq!(rows, k_hop_ball(&g, &touched, 1).len());
        let full = det.score(&g);
        assert_eq!(cache.combined(), full.combined.as_slice());
        assert_eq!(
            cache.scores().structural.as_deref(),
            full.structural.as_deref()
        );
        assert_eq!(
            cache.scores().contextual.as_deref(),
            full.contextual.as_deref()
        );
    }

    #[test]
    fn grow_pads_channels_for_appended_nodes() {
        let g = random_graph(30, 5);
        let det = NeighborMean;
        let mut cache = ScoreCache::new(det.score(&g), ScoreMerge::MeanStd);
        cache.grow(33);
        assert_eq!(cache.len(), 33);
        assert_eq!(cache.scores().structural.as_ref().unwrap().len(), 33);
        cache.grow(10); // never shrinks
        assert_eq!(cache.len(), 33);
    }

    #[test]
    #[should_panic(expected = "NoDeltaPath has no row-exact delta rescore")]
    fn local_detector_without_a_delta_rescore_panics() {
        struct NoDeltaPath;
        impl OutlierDetector for NoDeltaPath {
            fn name(&self) -> &'static str {
                "NoDeltaPath"
            }
            fn fit(&mut self, _g: &AttributedGraph) {}
            fn score(&self, g: &AttributedGraph) -> Scores {
                Scores::combined_only(vec![0.0; g.num_nodes()])
            }
            fn delta_capability(&self) -> DeltaCapability {
                DeltaCapability::Local {
                    merge: ScoreMerge::Concat,
                }
            }
        }
        let g = random_graph(10, 7);
        let mut cache = ScoreCache::new(NoDeltaPath.score(&g), ScoreMerge::Concat);
        apply_mutation_rescore(&NoDeltaPath, &g, &[0, 1], &mut cache);
    }
}
