//! # vgod-eval
//!
//! Evaluation machinery for unsupervised node outlier detection:
//!
//! * tie-corrected [`auc`] (Eq. 21 of the VGOD paper) and the subset variant
//!   [`auc_subset`] / [`auc_group_vs_normal`] used for per-type and
//!   per-clique-size evaluation;
//! * [`auc_gap`] (Eq. 22) — the paper's balance metric;
//! * score normalisation: [`mean_std_normalize`] (Eq. 19) and
//!   [`sum_to_unit_normalize`] (Eq. 23);
//! * the [`OutlierDetector`] trait implemented by every model in
//!   `vgod-baselines` and `vgod` (core), and the [`Scores`] bundle they
//!   produce;
//! * wall-clock [`time_it`] helper for the efficiency experiments (Fig. 7,
//!   Table VII).

#![warn(missing_docs)]

mod delta;
mod detector;
mod metrics;
mod normalize;
mod ranking;
mod threshold;

pub use delta::{apply_mutation_rescore, ScoreCache};
pub use detector::{
    full_graph_view, merge_range_scores, merge_rule, range_score_batches, score_sampled_range,
    DeltaCapability, LayerState, LayeredDelta, OutlierDetector, RangeScores, ScoreMerge, Scores,
};
pub use metrics::{auc, auc_gap, auc_group_vs_normal, auc_subset};
pub use normalize::{
    combine_mean_std, combine_sum_to_unit, mean_std_normalize, sum_to_unit_normalize,
};
pub use ranking::{average_precision, precision_at_k, recall_at_k, top_k};
pub use threshold::{auc_bootstrap_ci, predict_by_contamination, Confusion};

use std::time::{Duration, Instant};

/// Run `f`, returning its result together with the elapsed wall-clock time.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}
