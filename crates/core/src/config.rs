//! Configuration for the VGOD framework.

use vgod_eval::ScoreMerge;
use vgod_gnn::GnnKind;

/// GNN family used as the ARM backbone (§V-B "GNN Layers", Table VIII).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GnnBackbone {
    /// Graph convolution network.
    Gcn,
    /// Graph attention network — the paper's default.
    Gat,
    /// Graph isomorphism network.
    Gin,
    /// GraphSAGE with mean aggregation (extension beyond the paper's three).
    Sage,
}

impl GnnBackbone {
    /// The corresponding `vgod-gnn` layer kind.
    pub fn kind(self) -> GnnKind {
        match self {
            GnnBackbone::Gcn => GnnKind::Gcn,
            GnnBackbone::Gat => GnnKind::Gat,
            GnnBackbone::Gin => GnnKind::Gin,
            GnnBackbone::Sage => GnnKind::Sage,
        }
    }
}

impl std::fmt::Display for GnnBackbone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(&self.kind(), f)
    }
}

impl std::str::FromStr for GnnBackbone {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "gcn" => Ok(GnnBackbone::Gcn),
            "gat" => Ok(GnnBackbone::Gat),
            "gin" => Ok(GnnBackbone::Gin),
            "sage" => Ok(GnnBackbone::Sage),
            other => Err(format!("unknown GNN backbone {other:?}")),
        }
    }
}

/// Variance-based model hyperparameters (§VI-B2 defaults).
#[derive(Clone, Debug)]
pub struct VbmConfig {
    /// Hidden embedding dimension `d_h` (paper: 128).
    pub hidden_dim: usize,
    /// Training epochs (paper: 10 — VBM converges in a few epochs, Fig. 8).
    pub epochs: usize,
    /// Adam learning rate (paper: 0.005 injected / 0.01 Weibo).
    pub lr: f32,
    /// The self-loop-edge technique (Eq. 13): include each node in its own
    /// neighbourhood so neighbour variance also reacts to contextual
    /// outliers. The paper enables it on graphs with small average degree.
    pub self_loops: bool,
    /// RNG seed for initialisation and negative sampling.
    pub seed: u64,
}

impl Default for VbmConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 128,
            epochs: 10,
            lr: 0.005,
            self_loops: true,
            seed: 0,
        }
    }
}

/// Attribute reconstruction model hyperparameters (§VI-B2 defaults).
#[derive(Clone, Debug)]
pub struct ArmConfig {
    /// Hidden embedding dimension (paper: 128).
    pub hidden_dim: usize,
    /// Number of GNN layers `L` (paper: 2).
    pub layers: usize,
    /// Backbone family (paper default: GAT).
    pub backbone: GnnBackbone,
    /// Training epochs (paper: 100).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// L2-row-normalise the input attributes first (the paper applies row
    /// normalisation on Weibo).
    pub row_normalize: bool,
    /// RNG seed for initialisation.
    pub seed: u64,
}

impl Default for ArmConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 128,
            layers: 2,
            backbone: GnnBackbone::Gat,
            epochs: 100,
            lr: 0.005,
            row_normalize: false,
            seed: 1,
        }
    }
}

/// How the structural and contextual scores are merged into the final
/// outlier score (§V-C and Appendix A).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CombineStrategy {
    /// Mean-std normalise each score vector, then sum (Eq. 19) — the
    /// paper's choice.
    MeanStd,
    /// Normalise each vector to sum to one, then sum (Eq. 23).
    SumToUnit,
    /// Fixed-weight sum `α·o^str + (1−α)·o^attr` of the raw scores — the
    /// baseline practice the paper argues against.
    Weighted(f32),
}

/// A strategy is the global [`ScoreMerge`] rule of VGOD's two channels;
/// `ScoreMerge` holds the combine kernels.
impl From<CombineStrategy> for ScoreMerge {
    fn from(strategy: CombineStrategy) -> ScoreMerge {
        match strategy {
            CombineStrategy::MeanStd => ScoreMerge::MeanStd,
            CombineStrategy::SumToUnit => ScoreMerge::SumToUnit,
            CombineStrategy::Weighted(alpha) => ScoreMerge::Weighted(alpha),
        }
    }
}

/// Every rule but [`ScoreMerge::Concat`] (which combines nothing) is a
/// strategy.
impl TryFrom<ScoreMerge> for CombineStrategy {
    type Error = String;

    fn try_from(merge: ScoreMerge) -> Result<CombineStrategy, String> {
        match merge {
            ScoreMerge::Concat => Err("concat is not a combine strategy".into()),
            ScoreMerge::MeanStd => Ok(CombineStrategy::MeanStd),
            ScoreMerge::SumToUnit => Ok(CombineStrategy::SumToUnit),
            ScoreMerge::Weighted(alpha) => Ok(CombineStrategy::Weighted(alpha)),
        }
    }
}

impl std::fmt::Display for CombineStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match ScoreMerge::from(*self) {
            ScoreMerge::Weighted(a) => write!(f, "weighted(α={a})"),
            merge => f.write_str(&merge.wire_name()),
        }
    }
}

/// Full framework configuration.
#[derive(Clone, Debug)]
pub struct VgodConfig {
    /// Variance-based model settings.
    pub vbm: VbmConfig,
    /// Attribute reconstruction model settings.
    pub arm: ArmConfig,
    /// Score combination strategy.
    pub combine: CombineStrategy,
    /// Worker threads for the tensor kernels. `None` (the default) defers to
    /// the `VGOD_NUM_THREADS` environment variable, falling back to the
    /// available CPU count; `Some(1)` forces fully sequential kernels. The
    /// thread count is process-global and fixed at the first parallel kernel
    /// invocation, so this only takes effect if training starts before any
    /// other component has run a kernel (see
    /// `vgod_tensor::threading::set_num_threads`).
    pub num_threads: Option<usize>,
}

impl Default for VgodConfig {
    fn default() -> Self {
        Self {
            vbm: VbmConfig::default(),
            arm: ArmConfig::default(),
            combine: CombineStrategy::MeanStd,
            num_threads: None,
        }
    }
}

impl VgodConfig {
    /// A reduced-cost configuration for tests and small graphs.
    pub fn fast() -> Self {
        let mut cfg = Self::default();
        cfg.vbm.hidden_dim = 32;
        cfg.vbm.epochs = 5;
        cfg.arm.hidden_dim = 32;
        cfg.arm.epochs = 30;
        cfg
    }

    /// Apply `num_threads` to the global tensor thread pool. Returns the
    /// thread count actually in effect — which differs from the request if
    /// the pool was already pinned by an earlier caller or env var.
    pub fn apply_threading(&self) -> usize {
        if let Some(n) = self.num_threads {
            let _ = vgod_tensor::threading::set_num_threads(n);
        }
        vgod_tensor::threading::num_threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = VgodConfig::default();
        assert_eq!(cfg.vbm.hidden_dim, 128);
        assert_eq!(cfg.vbm.epochs, 10);
        assert_eq!(cfg.arm.epochs, 100);
        assert_eq!(cfg.arm.layers, 2);
        assert_eq!(cfg.arm.backbone, GnnBackbone::Gat);
        assert_eq!(cfg.combine, CombineStrategy::MeanStd);
    }

    #[test]
    fn backbone_maps_to_gnn_kind() {
        assert_eq!(GnnBackbone::Gcn.kind(), vgod_gnn::GnnKind::Gcn);
        assert_eq!(format!("{}", GnnBackbone::Gat), "GAT");
    }
}
