//! Delta rescoring: after a graph mutation, recompute only the scores
//! that can have changed.
//!
//! For a detector declaring [`DeltaCapability::Local`]`{ hops, merge }`,
//! a mutation batch touching nodes `T` can only move the raw score
//! channels of the ball `B_hops(T)`. Two execution strategies bring a
//! [`ScoreCache`] up to date, both byte-identical to a full rescore:
//!
//! * **Layer-wise** ([`OutlierDetector::rescore_layered`], VBM, ARM and
//!   VGOD): the cache owns the detector's per-layer activations. Layer `ℓ`
//!   recomputes only `dirty_ℓ = B_1(dirty_{ℓ−1} ∪ T)` (`dirty_0 = T`),
//!   reading unchanged neighbour rows from the cached layer input, so a
//!   batch costs its `B_L(T)` rows rather than the graph.
//! * **Closure** (every other Local detector): frontier = `B_hops(T)`
//!   ([`k_hop_ball`]); closure = `B_hops(frontier)`, whose exact
//!   induced subgraph reproduces every frontier node's receptive field and
//!   the degrees its kernels normalise by; the detector's ordinary `score`
//!   runs on the closure and the frontier rows are kept
//!   ([`rescore_frontier`]).
//!
//! Either way the rescored rows overwrite the cached full-length channels
//! and the global merge rule is re-applied ([`ScoreCache::patch`]).
//!
//! Byte-identity with a from-scratch full rescore rests on two invariants
//! proven elsewhere in the workspace: per-row neighbour aggregation visits
//! a row's neighbours in the full graph's order (sorted-id relabelling for
//! closures, `vgod_gnn::rows` for layer-wise views), and every tensor
//! kernel fixes its per-row accumulation order regardless of row count
//! (the determinism contract in `vgod-tensor`). Non-`Concat` merges run
//! [`ScoreMerge::apply`] — the combine the sharded scoring coordinator
//! runs over concatenated channels — on the patched full-length channels.

use vgod_graph::{induced_store_subgraph, k_hop_ball, GraphStore};

use vgod_graph::AttributedGraph;

use crate::detector::{
    merge_rule, DeltaCapability, LayerState, OutlierDetector, ScoreMerge, Scores,
};

/// Rescore a frontier exactly: extract the closure `B_hops(frontier)` as a
/// sorted-id induced subgraph, run the detector's ordinary full-graph
/// `score` on it, and return the frontier rows of every channel (rows
/// aligned with `frontier`, which must be sorted).
///
/// The returned `combined` is subgraph-local and only meaningful when the
/// detector's merge rule is [`ScoreMerge::Concat`]; for global rules the
/// caller patches the raw channels and recombines ([`ScoreCache::patch`]
/// does both).
pub fn rescore_frontier(
    det: &dyn OutlierDetector,
    store: &dyn GraphStore,
    frontier: &[u32],
    hops: usize,
) -> Scores {
    let closure = k_hop_ball(store, frontier, hops);
    let sub = induced_store_subgraph(store, &closure);
    let scores = det.score(&sub);
    // frontier ⊆ closure, both sorted: one merge scan selects the rows.
    let mut rows = Vec::with_capacity(frontier.len());
    let mut pos = 0usize;
    for &u in frontier {
        while closure[pos] != u {
            pos += 1;
        }
        rows.push(pos);
    }
    let select = |v: &Vec<f32>| -> Vec<f32> { rows.iter().map(|&i| v[i]).collect() };
    Scores {
        combined: select(&scores.combined),
        structural: scores.structural.as_ref().map(select),
        contextual: scores.contextual.as_ref().map(select),
    }
}

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
    /// Cache a full scoring pass. For a [`DeltaCapability::Local`]
    /// detector pass its declared merge rule; for full-rescore models pass
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

    /// Overwrite the frontier rows with freshly rescored channels and
    /// re-apply the merge rule. `delta` rows align with `frontier`
    /// (as returned by [`rescore_frontier`]).
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

/// One delta-rescoring step for any capability: given the post-mutation
/// store, the touched set, and the model's cache, bring the cache up to
/// date. Returns the number of rescored rows (0 for full/refit passes,
/// which invalidate everything). Local detectors with a layer-wise path
/// ([`OutlierDetector::rescore_layered`]) update their cached activations;
/// the rest rescore the closure of their frontier. This is the one delta
/// entry point the streaming engine calls per applied batch.
pub fn apply_mutation_rescore(
    det: &dyn OutlierDetector,
    store: &dyn GraphStore,
    touched: &[u32],
    cache: &mut ScoreCache,
) -> usize {
    match det.delta_capability() {
        DeltaCapability::Local { hops, .. } => {
            cache.grow(store.num_nodes());
            if touched.is_empty() {
                return 0; // a local score moves only near a touched node
            }
            let (rows, delta) = match det.rescore_layered(store, touched, &mut cache.state) {
                Some(layered) => {
                    cache.state_bytes = layered.state_bytes;
                    (layered.rows, layered.scores)
                }
                None => {
                    // Every node whose raw channels can have changed: the
                    // ball `B_hops(touched)` on the post-mutation graph.
                    // `touched` already holds the former neighbours of
                    // removed edges and tombstoned nodes (the overlay's
                    // `BatchEffect` guarantees this).
                    let frontier = k_hop_ball(store, touched, hops);
                    let delta = rescore_frontier(det, store, &frontier, hops);
                    (frontier, delta)
                }
            };
            cache.patch(&rows, &delta);
            rows.len()
        }
        DeltaCapability::FullRescore | DeltaCapability::Refit => {
            // Refit is the caller's responsibility (needs `&mut` detector);
            // here both fall back to a full pass on the mutated graph.
            let g = store.materialize();
            cache.replace(det.score(&g));
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgod_graph::{seeded_rng, AttributedGraph};
    use vgod_tensor::Matrix;

    /// A 1-hop toy detector: score = degree + mean of neighbour attr[0],
    /// raw channels combined with mean-std — exercises both the closure
    /// extraction and the global recombination.
    #[derive(Clone)]
    struct NeighborMean;

    impl OutlierDetector for NeighborMean {
        fn name(&self) -> &'static str {
            "NeighborMean"
        }
        fn fit(&mut self, _g: &AttributedGraph) {}
        fn score(&self, g: &AttributedGraph) -> Scores {
            let structural: Vec<f32> = (0..g.num_nodes() as u32)
                .map(|u| g.degree(u) as f32)
                .collect();
            let contextual: Vec<f32> = (0..g.num_nodes() as u32)
                .map(|u| {
                    let nbrs = g.neighbors(u);
                    if nbrs.is_empty() {
                        return 0.0;
                    }
                    let sum: f32 = nbrs.iter().map(|&v| g.attrs().row(v as usize)[0]).sum();
                    sum / nbrs.len() as f32
                })
                .collect();
            Scores::from_components(structural, contextual)
        }
        fn delta_capability(&self) -> DeltaCapability {
            DeltaCapability::Local {
                hops: 1,
                merge: ScoreMerge::MeanStd,
            }
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
        let DeltaCapability::Local { merge, .. } = det.delta_capability() else {
            unreachable!()
        };
        let mut cache = ScoreCache::new(det.score(&g), merge);

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

        let frontier_size = apply_mutation_rescore(&det, &g, &touched, &mut cache);
        assert!(frontier_size > 0);
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
    fn full_rescore_capability_replaces_the_cache() {
        #[derive(Clone)]
        struct Global;
        impl OutlierDetector for Global {
            fn name(&self) -> &'static str {
                "Global"
            }
            fn fit(&mut self, _g: &AttributedGraph) {}
            fn score(&self, g: &AttributedGraph) -> Scores {
                // Globally normalised: every score shifts with the sum.
                let total: f32 = (0..g.num_nodes() as u32).map(|u| g.degree(u) as f32).sum();
                Scores::combined_only(
                    (0..g.num_nodes() as u32)
                        .map(|u| g.degree(u) as f32 / total.max(1.0))
                        .collect(),
                )
            }
        }
        let mut g = random_graph(40, 6);
        let det = Global;
        assert_eq!(det.delta_capability(), DeltaCapability::FullRescore);
        let mut cache = ScoreCache::new(det.score(&g), ScoreMerge::Concat);
        g.add_edge(0, 39);
        let frontier = apply_mutation_rescore(&det, &g, &[0, 39], &mut cache);
        assert_eq!(frontier, 0);
        assert_eq!(cache.combined(), det.score(&g).combined.as_slice());
    }
}
