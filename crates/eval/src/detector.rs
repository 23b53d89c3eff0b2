//! The common interface every outlier detector implements.

use std::any::Any;
use std::borrow::Cow;
use std::sync::OnceLock;

use vgod_graph::{AttributedGraph, GraphStore, NeighborSampler, SampledBatch, SamplingConfig};

use crate::{combine_mean_std, combine_sum_to_unit};

/// Outlier scores produced by a detector for every node of a graph.
///
/// All detectors produce a `combined` score (higher = more anomalous); the
/// ones with score combination (Table II) additionally expose the
/// structural and contextual components so per-type AUCs
/// (`AUC(V⁻, O^str)` etc.) can be computed.
#[derive(Clone, Debug, Default)]
pub struct Scores {
    /// The final per-node outlier score `o_i`.
    pub combined: Vec<f32>,
    /// Structural component `o_i^str`, when the model separates it.
    pub structural: Option<Vec<f32>>,
    /// Contextual component `o_i^attr`, when the model separates it.
    pub contextual: Option<Vec<f32>>,
}

impl Scores {
    /// A score bundle with only a combined score.
    pub fn combined_only(combined: Vec<f32>) -> Self {
        Self {
            combined,
            structural: None,
            contextual: None,
        }
    }

    /// Build from separate structural/contextual scores using the paper's
    /// mean-std combination (Eq. 19).
    pub fn from_components(structural: Vec<f32>, contextual: Vec<f32>) -> Self {
        let combined = combine_mean_std(&structural, &contextual);
        Self {
            combined,
            structural: Some(structural),
            contextual: Some(contextual),
        }
    }

    /// The structural component if present, else the combined score — the
    /// paper's rule for evaluating structural detection of models with
    /// multiple outputs (§VI-C2).
    pub fn structural_or_combined(&self) -> &[f32] {
        self.structural.as_deref().unwrap_or(&self.combined)
    }

    /// The contextual component if present, else the combined score.
    pub fn contextual_or_combined(&self) -> &[f32] {
        self.contextual.as_deref().unwrap_or(&self.combined)
    }

    /// Combined scores for a node subset, in the order requested.
    ///
    /// # Panics
    /// Panics if a node id is out of range.
    pub fn select(&self, nodes: &[u32]) -> Vec<f32> {
        nodes.iter().map(|&u| self.combined[u as usize]).collect()
    }

    /// Keep only the first `len` scores of every present channel (used by
    /// the batched store-scoring paths to drop non-seed rows).
    pub fn truncate_to(&mut self, len: usize) {
        self.combined.truncate(len);
        if let Some(v) = &mut self.structural {
            v.truncate(len);
        }
        if let Some(v) = &mut self.contextual {
            v.truncate(len);
        }
    }

    /// The contiguous row range `[lo, hi)` of every present channel.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi` exceeds the score length.
    pub fn slice_range(&self, lo: usize, hi: usize) -> Scores {
        Scores {
            combined: self.combined[lo..hi].to_vec(),
            structural: self.structural.as_ref().map(|v| v[lo..hi].to_vec()),
            contextual: self.contextual.as_ref().map(|v| v[lo..hi].to_vec()),
        }
    }
}

/// How per-range score channels recombine into the global score vector.
///
/// Sharded scoring splits the node set into contiguous ranges, scores each
/// range on its owning shard, and concatenates the raw channels in range
/// order. `Concat` means the concatenated `combined` already *is* the
/// global score (per-batch and streaming detectors). The other rules are
/// the global recombinations proven in the out-of-core work: the combined
/// score is a function of the *full-length* structural/contextual vectors
/// (VGOD Eq. 19 / DegNorm Eq. 20 need global mean/std or global sums), so
/// the coordinator recomputes it after concatenation — byte-identical to
/// the single-process pass because it runs the same combine kernels on the
/// same inputs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScoreMerge {
    /// Concatenated combined scores are final.
    Concat,
    /// Recombine with the paper's mean-std rule (Eq. 19).
    MeanStd,
    /// Recombine with sum-to-unit normalisation (Eq. 23).
    SumToUnit,
    /// `alpha * structural + (1 - alpha) * contextual`, elementwise.
    Weighted(f32),
}

impl ScoreMerge {
    /// Stable textual form used on the shard wire protocol
    /// (`concat`, `mean-std`, `sum-to-unit`, `weighted:<alpha>`).
    pub fn wire_name(&self) -> String {
        match self {
            ScoreMerge::Concat => "concat".into(),
            ScoreMerge::MeanStd => "mean-std".into(),
            ScoreMerge::SumToUnit => "sum-to-unit".into(),
            // f32 Display prints the shortest round-tripping decimal, so
            // the parsed alpha is bit-identical on the other side.
            ScoreMerge::Weighted(alpha) => format!("weighted:{alpha}"),
        }
    }

    /// Parse [`ScoreMerge::wire_name`] output.
    pub fn parse_wire(s: &str) -> Result<ScoreMerge, String> {
        match s {
            "concat" => Ok(ScoreMerge::Concat),
            "mean-std" => Ok(ScoreMerge::MeanStd),
            "sum-to-unit" => Ok(ScoreMerge::SumToUnit),
            _ => match s.strip_prefix("weighted:") {
                Some(alpha) => alpha
                    .parse::<f32>()
                    .map(ScoreMerge::Weighted)
                    .map_err(|e| format!("bad weighted alpha {alpha:?}: {e}")),
                None => Err(format!("unknown merge rule {s:?}")),
            },
        }
    }

    /// The rule's combination of a structural and a contextual vector —
    /// the one implementation of the combine kernels.
    ///
    /// # Panics
    /// Panics for [`ScoreMerge::Concat`], which combines nothing.
    pub fn combine(&self, structural: &[f32], contextual: &[f32]) -> Vec<f32> {
        match self {
            ScoreMerge::Concat => panic!("the concat rule has no combination"),
            ScoreMerge::MeanStd => combine_mean_std(structural, contextual),
            ScoreMerge::SumToUnit => combine_sum_to_unit(structural, contextual),
            ScoreMerge::Weighted(alpha) => structural
                .iter()
                .zip(contextual)
                .map(|(&s, &c)| alpha * s + (1.0 - alpha) * c)
                .collect(),
        }
    }

    /// Apply the rule to full-length concatenated channels, producing the
    /// final global combined score.
    ///
    /// # Panics
    /// Panics if a non-`Concat` rule is applied to scores missing a
    /// structural or contextual channel.
    pub fn apply(&self, mut scores: Scores) -> Scores {
        if let ScoreMerge::Concat = self {
            return scores;
        }
        let structural = scores
            .structural
            .as_deref()
            .expect("merge rule needs a structural channel");
        let contextual = scores
            .contextual
            .as_deref()
            .expect("merge rule needs a contextual channel");
        scores.combined = self.combine(structural, contextual);
        scores
    }
}

/// How a detector's scores respond to a graph mutation — whether the
/// dirty rows can be rescored in isolation, declared per detector via
/// [`OutlierDetector::delta_capability`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeltaCapability {
    /// Per-node raw score channels depend only on a bounded neighbourhood,
    /// and the detector recomputes exactly the rows a mutation batch can
    /// move with [`OutlierDetector::rescore_layered`]. Patching those rows
    /// into the cached full-length channels and re-applying `merge` is
    /// byte-identical to a full rescore. `merge` is [`ScoreMerge::Concat`]
    /// when the combined score itself is local; a non-`Concat` rule means
    /// the channels are local but the combination is global (mean-std,
    /// sum-to-unit, weighted) and must be recomputed over the full-length
    /// channels after patching.
    Local {
        /// Global recombination applied over the patched channels.
        merge: ScoreMerge,
    },
    /// Scores depend on global state (global normalisation inside
    /// `score`, inference-time RNG streams keyed on node order): any
    /// mutation invalidates every score; rescore the whole graph.
    FullRescore,
    /// Transductive detector — scoring is refitting (Radar, AnomalyDAE);
    /// a mutation requires a full refit + rescore.
    Refit,
}

/// A detector's cached per-layer activations for layer-wise incremental
/// rescoring ([`OutlierDetector::rescore_layered`]). Opaque to everyone
/// but the detector that built it; a [`crate::ScoreCache`] owns it.
pub type LayerState = Box<dyn Any + Send>;

/// What one incremental rescore ([`OutlierDetector::rescore_layered`])
/// recomputed.
#[derive(Clone, Debug)]
pub struct LayeredDelta {
    /// The rescored nodes, sorted.
    pub rows: Vec<u32>,
    /// Their raw channels, aligned with `rows`. `combined` is final only
    /// under [`ScoreMerge::Concat`]; other merges recombine globally.
    pub scores: Scores,
    /// Heap bytes the layer state holds after the rescore.
    pub state_bytes: usize,
}

/// Raw score channels for one contiguous node range, plus the rule a
/// coordinator must apply after concatenating all ranges. Produced by
/// [`OutlierDetector::score_store_range`], consumed by
/// [`merge_range_scores`].
#[derive(Clone, Debug)]
pub struct RangeScores {
    /// Per-range channels, `hi - lo` rows each.
    pub scores: Scores,
    /// Global recombination rule; must agree across all ranges of a graph.
    pub merge: ScoreMerge,
}

/// The rule that recombines a detector's concatenated range channels: the
/// `merge` of its [`DeltaCapability::Local`] declaration, else
/// [`ScoreMerge::Concat`]. Sharded scoring, `score_store` and the
/// streaming [`crate::ScoreCache`] all read the rule here, so a detector
/// states it once, in [`OutlierDetector::delta_capability`].
pub fn merge_rule<D: OutlierDetector + ?Sized>(det: &D) -> ScoreMerge {
    match det.delta_capability() {
        DeltaCapability::Local { merge, .. } => merge,
        _ => ScoreMerge::Concat,
    }
}

/// Reassemble per-range score channels (ranges tile `[0, n)` in order)
/// into the global [`Scores`], applying the shared merge rule. This is the
/// coordinator half of sharded scoring; byte-identical to a single-process
/// `score_store` by construction.
///
/// # Panics
/// Panics if `parts` is empty, the merge rules disagree, or the
/// concatenated length is not `n`.
pub fn merge_range_scores(n: usize, parts: Vec<RangeScores>) -> Scores {
    let merge = parts.first().expect("at least one range").merge;
    let scores = concat_scores(parts.into_iter().map(|part| {
        assert!(
            part.merge == merge,
            "shards disagree on the merge rule: {:?} vs {:?}",
            part.merge,
            merge
        );
        part.scores
    }));
    assert_eq!(
        scores.combined.len(),
        n,
        "score ranges must tile every node once"
    );
    merge.apply(scores)
}

/// Concatenate score parts in order, moving the first part's vectors. A
/// structural/contextual channel survives only when every part has it.
fn concat_scores(parts: impl IntoIterator<Item = Scores>) -> Scores {
    fn extend(acc: &mut Option<Vec<f32>>, part: Option<Vec<f32>>) {
        match (acc.as_mut(), part) {
            (Some(acc), Some(part)) => acc.extend_from_slice(&part),
            _ => *acc = None,
        }
    }
    parts
        .into_iter()
        .reduce(|mut acc, part| {
            acc.combined.extend_from_slice(&part.combined);
            extend(&mut acc.structural, part.structural);
            extend(&mut acc.contextual, part.contextual);
            acc
        })
        .unwrap_or(Scores {
            combined: Vec::new(),
            structural: Some(Vec::new()),
            contextual: Some(Vec::new()),
        })
}

/// The bit-identical small-graph fast path of the store-backed detector
/// methods: below the sampling threshold, borrow the in-memory graph behind
/// the store (zero-copy for [`AttributedGraph`] backends) or materialise it
/// once, so the detector's ordinary full-graph code runs unchanged. Above
/// the threshold returns `None` — callers must sample.
pub fn full_graph_view<'a>(
    store: &'a dyn GraphStore,
    cfg: &SamplingConfig,
) -> Option<Cow<'a, AttributedGraph>> {
    if !cfg.below_threshold(store) {
        return None;
    }
    Some(match store.as_full_graph() {
        Some(g) => Cow::Borrowed(g),
        None => Cow::Owned(store.materialize()),
    })
}

/// The score-batch indices that tile exactly the node range `[lo, hi)`.
///
/// # Panics
/// Panics unless the range lies in `[0, n]` and is aligned to whole score
/// batches: `lo` on a batch boundary and `hi` on a boundary or at `n`.
/// Sharded partitions are built batch-aligned so every shard scores whole
/// global batches — the precondition for byte-identical reassembly.
pub fn range_score_batches(
    n: usize,
    cfg: &SamplingConfig,
    lo: u32,
    hi: u32,
) -> std::ops::Range<usize> {
    let (lo, hi) = (lo as usize, hi as usize);
    assert!(
        lo <= hi && hi <= n,
        "bad score range [{lo}, {hi}) for n={n}"
    );
    if lo == hi {
        // Empty ranges (trailing shards of a small graph) score nothing.
        return 0..0;
    }
    assert_eq!(
        lo % cfg.batch_size,
        0,
        "range start {lo} not aligned to batch size {}",
        cfg.batch_size
    );
    assert!(
        hi % cfg.batch_size == 0 || hi == n,
        "range end {hi} not aligned to batch size {} (n={n})",
        cfg.batch_size
    );
    lo / cfg.batch_size..hi.div_ceil(cfg.batch_size)
}

/// Score the sampled batches that tile the node range `[lo, hi)` (see
/// [`range_score_batches`]) with `score_one`, keep each batch's seed rows
/// and concatenate them in order — the sampled-path body of
/// [`OutlierDetector::score_channels`]. Batch `b` always means *global*
/// batch `b` (seeds `[b * batch_size, ..)`, RNG stream keyed on
/// `(cfg.seed, b)`), so a shard scoring its slice of batches produces
/// bit-identical rows to the same batches of a full single-process pass.
///
/// When the store supports shared access ([`GraphStore::as_shared`]) and
/// the config asks for concurrency (`score_threads() > 1`), batches are
/// dispatched across the tensor worker pool, each writing its
/// pre-assigned slot; otherwise the plain sequential loop runs. Results
/// are bit-identical either way and at every thread count: batch `b`'s
/// sampled subgraph depends only on `(cfg.seed, b)`, never on which
/// thread ran it or in what order.
pub fn score_sampled_range(
    store: &dyn GraphStore,
    cfg: &SamplingConfig,
    lo: u32,
    hi: u32,
    score_one: &(dyn Fn(&SampledBatch) -> Scores + Sync),
) -> Scores {
    let batches = range_score_batches(store.num_nodes(), cfg, lo, hi);
    let threads = cfg.score_threads();
    if threads > 1 {
        if let Some(shared) = store.as_shared() {
            return concat_scores(score_batches_parallel(
                shared, cfg, batches, threads, score_one,
            ));
        }
    }
    let sampler = NeighborSampler::new(store, *cfg);
    concat_scores(batches.map(|b| {
        let batch = sampler.score_batch(b);
        let mut s = score_one(&batch);
        s.truncate_to(batch.num_seeds);
        s
    }))
}

fn score_batches_parallel(
    store: &(dyn GraphStore + Sync),
    cfg: &SamplingConfig,
    batches: std::ops::Range<usize>,
    threads: usize,
    score_one: &(dyn Fn(&SampledBatch) -> Scores + Sync),
) -> Vec<Scores> {
    let first = batches.start;
    let num_batches = batches.len();
    let slots: Vec<OnceLock<Scores>> = (0..num_batches).map(|_| OnceLock::new()).collect();
    vgod_tensor::threading::run_indexed(num_batches, threads, &|rel| {
        let b = first + rel;
        let sampler = NeighborSampler::new(store, *cfg);
        let batch = sampler.score_batch(b);
        let mut s = score_one(&batch);
        s.truncate_to(batch.num_seeds);
        let set = slots[rel].set(s);
        assert!(set.is_ok(), "batch {b} dispatched twice");
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("missing batch result"))
        .collect()
}

/// An unsupervised node outlier detector (Definition 2): fit on a graph
/// without labels, then score every node.
///
/// The `fit`/`score` split supports both the transductive UNOD protocol
/// (fit and score the same graph) and the inductive protocol of
/// Appendix B (fit on one graph, score another with the same attribute
/// schema).
///
/// `Send + Sync` is a supertrait so sampled score batches can run on the
/// worker pool (every detector is plain data between calls; fitted state
/// is only mutated through `&mut self`).
pub trait OutlierDetector: Send + Sync {
    /// Short display name used in result tables.
    fn name(&self) -> &'static str;

    /// Train on `g` (no outlier labels available).
    fn fit(&mut self, g: &AttributedGraph);

    /// Score every node of `g` (higher = more likely outlier).
    ///
    /// For trainable detectors this requires `fit` to have been called;
    /// implementations panic otherwise.
    fn score(&self, g: &AttributedGraph) -> Scores;

    /// Convenience: `fit` then `score` on the same graph (transductive).
    fn fit_score(&mut self, g: &AttributedGraph) -> Scores {
        self.fit(g);
        self.score(g)
    }

    /// Combined scores for a node subset (the online-serving path).
    ///
    /// The default runs the full [`OutlierDetector::score`] pass and selects
    /// the requested rows, which keeps subset responses bit-identical to
    /// offline full-graph scoring; detectors with a cheaper per-node path
    /// may override it as long as they preserve that identity.
    ///
    /// # Panics
    /// Panics like [`OutlierDetector::score`], or if a node id is out of
    /// range for `g`.
    fn score_nodes(&self, g: &AttributedGraph, nodes: &[u32]) -> Vec<f32> {
        self.score(g).select(nodes)
    }

    /// Train against any [`GraphStore`] backend.
    ///
    /// At or below `cfg.full_graph_threshold` nodes this is *exactly*
    /// [`OutlierDetector::fit`] on the (borrowed or materialised) full
    /// graph — bit-identical to the pre-store code path. Above it, the
    /// default trains on one neighbour-sampled training subgraph
    /// (`cfg.train_seeds` seeds plus their sampled k-hop neighbourhood);
    /// detectors with their own mini-batch machinery override this.
    fn fit_store(&mut self, store: &dyn GraphStore, cfg: &SamplingConfig) {
        match full_graph_view(store, cfg) {
            Some(g) => self.fit(&g),
            None => {
                let sub = NeighborSampler::new(store, *cfg).training_subgraph();
                self.fit(&sub.graph);
            }
        }
    }

    /// Raw score channels of the rows `[lo, hi)` of a store above the
    /// sampling threshold — the one place a detector says how it scores a
    /// store. [`OutlierDetector::score_store_range`] and
    /// [`OutlierDetector::score_store`] call it and then concatenate and
    /// recombine under [`merge_rule`], so `combined` is final only under
    /// [`ScoreMerge::Concat`].
    ///
    /// The default scores the sampled batches covering the range (which
    /// must be batch-aligned, see [`range_score_batches`]): each batch is
    /// the induced subgraph around `cfg.batch_size` seed nodes, scored with
    /// the detector's ordinary path, keeping only the seed rows (see
    /// [`score_sampled_range`]). Scores that depend on global
    /// normalisation are approximate under batching; detectors needing an
    /// exact global combination (VGOD, DegNorm) return raw channels and
    /// declare the combination as their merge rule instead.
    fn score_channels(
        &self,
        store: &dyn GraphStore,
        cfg: &SamplingConfig,
        lo: u32,
        hi: u32,
    ) -> Scores {
        score_sampled_range(store, cfg, lo, hi, &|batch| self.score(&batch.graph))
    }

    /// Score only the contiguous node range `[lo, hi)` of the store — the
    /// per-shard half of distributed scoring. Returns the range's raw
    /// score channels plus the [`merge_rule`] a coordinator applies after
    /// concatenating all ranges in order; the merged result is
    /// byte-identical to [`OutlierDetector::score_store`] on the whole
    /// store.
    ///
    /// Below the sampling threshold this runs the ordinary full-graph
    /// [`OutlierDetector::score`] and returns the requested rows; above it
    /// calls [`OutlierDetector::score_channels`]. Detectors override
    /// `score_channels`, not this.
    fn score_store_range(
        &self,
        store: &dyn GraphStore,
        cfg: &SamplingConfig,
        lo: u32,
        hi: u32,
    ) -> RangeScores {
        let scores = match full_graph_view(store, cfg) {
            Some(g) => self.score(&g).slice_range(lo as usize, hi as usize),
            None => self.score_channels(store, cfg, lo, hi),
        };
        RangeScores {
            scores,
            merge: merge_rule(self),
        }
    }

    /// Score every node against any [`GraphStore`] backend: the whole
    /// store as one range, merged. Below the threshold this is exactly
    /// [`OutlierDetector::score`] on the full graph. Detectors override
    /// [`OutlierDetector::score_channels`], not this.
    fn score_store(&self, store: &dyn GraphStore, cfg: &SamplingConfig) -> Scores {
        let n = store.num_nodes();
        merge_range_scores(n, vec![self.score_store_range(store, cfg, 0, n as u32)])
    }

    /// How this detector's scores react to a local graph mutation — the
    /// streaming engine's dispatch flag (see [`crate::delta`]).
    ///
    /// The default is the safe answer: scores may depend on the whole
    /// graph (global normalisation, inference-time randomness keyed on
    /// node indices), so a mutation invalidates every score and only a
    /// full rescore is exact. Detectors whose per-node score is a pure
    /// function of a bounded neighbourhood override this with
    /// [`DeltaCapability::Local`]; transductive detectors whose scoring
    /// *is* refitting declare [`DeltaCapability::Refit`].
    fn delta_capability(&self) -> DeltaCapability {
        DeltaCapability::FullRescore
    }

    /// [`OutlierDetector::score`], plus the layer state that
    /// [`OutlierDetector::rescore_layered`] updates, taken from the
    /// matrices this same pass computes. The default has no layer state.
    fn score_with_state(&self, g: &AttributedGraph) -> (Scores, Option<LayerState>) {
        (self.score(g), None)
    }

    /// Row-exact incremental rescoring, the delta path of every
    /// [`DeltaCapability::Local`] detector: after a batch touching
    /// `touched` (sorted) has been applied to `store`, recompute only the
    /// rows whose channels can have moved and return them. The result
    /// patches a cache to exactly a full rescore's bytes.
    ///
    /// Layered detectors (VBM, ARM, VGOD) recompute each layer's dirty
    /// rows from the cached activations in `state`; a `None` state is
    /// built with one full pass, which returns every row. Stateless
    /// detectors whose channels are per-row functions of the store (Deg,
    /// L2Norm, DegNorm) ignore `state` and return the `touched` rows.
    ///
    /// The default returns `None`, which is only correct for detectors
    /// that are not `Local`: [`crate::apply_mutation_rescore`] panics on
    /// a `Local` detector without an override.
    fn rescore_layered(
        &self,
        _store: &dyn GraphStore,
        _touched: &[u32],
        _state: &mut Option<LayerState>,
    ) -> Option<LayeredDelta> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgod_tensor::Matrix;

    struct DegreeToy;

    impl OutlierDetector for DegreeToy {
        fn name(&self) -> &'static str {
            "toy"
        }

        fn fit(&mut self, _g: &AttributedGraph) {}

        fn score(&self, g: &AttributedGraph) -> Scores {
            Scores::combined_only(
                (0..g.num_nodes() as u32)
                    .map(|u| g.degree(u) as f32)
                    .collect(),
            )
        }
    }

    #[test]
    fn trait_object_usable() {
        let mut g = AttributedGraph::new(Matrix::zeros(3, 1));
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        let mut det: Box<dyn OutlierDetector> = Box::new(DegreeToy);
        let scores = det.fit_score(&g);
        assert_eq!(scores.combined, vec![2.0, 1.0, 1.0]);
        assert_eq!(scores.structural_or_combined(), &[2.0, 1.0, 1.0]);
    }

    #[test]
    fn subset_scoring_matches_full_pass() {
        let mut g = AttributedGraph::new(Matrix::zeros(4, 1));
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        let det = DegreeToy;
        let full = det.score(&g);
        assert_eq!(det.score_nodes(&g, &[3, 0]), vec![1.0, 3.0]);
        assert_eq!(full.select(&[3, 0]), det.score_nodes(&g, &[3, 0]));
        assert!(det.score_nodes(&g, &[]).is_empty());
    }

    #[test]
    fn from_components_combines_with_mean_std() {
        let s = Scores::from_components(vec![1.0, 0.0], vec![0.0, 1.0]);
        // Symmetric inputs ⇒ symmetric combination.
        assert!((s.combined[0] - s.combined[1]).abs() < 1e-6);
        assert!(s.structural.is_some() && s.contextual.is_some());
    }
}
