//! One type over every persistable detector, loaded by magic-line dispatch.

use std::io::BufRead;

use vgod::{Arm, Vbm, Vgod};
use vgod_baselines::{
    AnomalyDae, Cola, Conad, Deg, DegNorm, Dominant, Done, L2Norm, Radar, RandomDetector,
};
use vgod_eval::{DeltaCapability, LayerState, LayeredDelta, OutlierDetector, Scores};
use vgod_graph::{AttributedGraph, GraphStore, SamplingConfig};

/// Any detector the workspace can persist and serve.
///
/// Checkpoints self-describe through their magic line (`# vgod-<kind> v1`),
/// so [`AnyDetector::load`] reads one format-agnostic stream and returns
/// whichever model it contains. This is the single loader shared by the
/// serving [`Registry`](crate::Registry) and the `vgod detect
/// --load-model` CLI path.
#[derive(Clone, Debug)]
#[allow(missing_docs)]
pub enum AnyDetector {
    Vgod(Vgod),
    Vbm(Vbm),
    Arm(Arm),
    Dominant(Dominant),
    AnomalyDae(AnomalyDae),
    Done(Done),
    Cola(Cola),
    Conad(Conad),
    Radar(Radar),
    DegNorm(DegNorm),
    Deg(Deg),
    L2Norm(L2Norm),
    Random(RandomDetector),
}

macro_rules! for_each_variant {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            AnyDetector::Vgod($inner) => $body,
            AnyDetector::Vbm($inner) => $body,
            AnyDetector::Arm($inner) => $body,
            AnyDetector::Dominant($inner) => $body,
            AnyDetector::AnomalyDae($inner) => $body,
            AnyDetector::Done($inner) => $body,
            AnyDetector::Cola($inner) => $body,
            AnyDetector::Conad($inner) => $body,
            AnyDetector::Radar($inner) => $body,
            AnyDetector::DegNorm($inner) => $body,
            AnyDetector::Deg($inner) => $body,
            AnyDetector::L2Norm($inner) => $body,
            AnyDetector::Random($inner) => $body,
        }
    };
}

impl AnyDetector {
    /// The checkpoint kind tag — the `<kind>` of the magic line, which is
    /// also the `--model` name the CLI uses.
    pub fn kind(&self) -> &'static str {
        match self {
            AnyDetector::Vgod(_) => "vgod",
            AnyDetector::Vbm(_) => "vbm",
            AnyDetector::Arm(_) => "arm",
            AnyDetector::Dominant(_) => "dominant",
            AnyDetector::AnomalyDae(_) => "anomalydae",
            AnyDetector::Done(_) => "done",
            AnyDetector::Cola(_) => "cola",
            AnyDetector::Conad(_) => "conad",
            AnyDetector::Radar(_) => "radar",
            AnyDetector::DegNorm(_) => "degnorm",
            AnyDetector::Deg(_) => "deg",
            AnyDetector::L2Norm(_) => "l2norm",
            AnyDetector::Random(_) => "random",
        }
    }

    /// Write the wrapped detector's checkpoint (its own magic + format).
    pub fn save(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for_each_variant!(self, m => m.save(out))
    }

    /// Read any checkpoint, dispatching on its magic line.
    pub fn load(input: &mut impl BufRead) -> Result<AnyDetector, String> {
        let mut text = Vec::new();
        input.read_to_end(&mut text).map_err(|e| e.to_string())?;
        let first_line = text
            .split(|&b| b == b'\n')
            .next()
            .map(|l| String::from_utf8_lossy(l).trim().to_string())
            .unwrap_or_default();
        let mut cursor = text.as_slice();
        match first_line.as_str() {
            "# vgod-framework v1" => Vgod::load(&mut cursor).map(AnyDetector::Vgod),
            "# vgod-vbm v1" => Vbm::load(&mut cursor).map(AnyDetector::Vbm),
            "# vgod-arm v1" => Arm::load(&mut cursor).map(AnyDetector::Arm),
            "# vgod-dominant v1" => Dominant::load(&mut cursor).map(AnyDetector::Dominant),
            "# vgod-anomalydae v1" => AnomalyDae::load(&mut cursor).map(AnyDetector::AnomalyDae),
            "# vgod-done v1" => Done::load(&mut cursor).map(AnyDetector::Done),
            "# vgod-cola v1" => Cola::load(&mut cursor).map(AnyDetector::Cola),
            "# vgod-conad v1" => Conad::load(&mut cursor).map(AnyDetector::Conad),
            "# vgod-radar v1" => Radar::load(&mut cursor).map(AnyDetector::Radar),
            "# vgod-degnorm v1" => DegNorm::load(&mut cursor).map(AnyDetector::DegNorm),
            "# vgod-deg v1" => Deg::load(&mut cursor).map(AnyDetector::Deg),
            "# vgod-l2norm v1" => L2Norm::load(&mut cursor).map(AnyDetector::L2Norm),
            "# vgod-random v1" => RandomDetector::load(&mut cursor).map(AnyDetector::Random),
            other => Err(format!("unrecognised checkpoint magic {other:?}")),
        }
    }

    /// [`AnyDetector::load`] from a file path.
    pub fn load_file(path: &std::path::Path) -> Result<AnyDetector, String> {
        let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        AnyDetector::load(&mut std::io::BufReader::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// [`AnyDetector::save`] to a file path.
    pub fn save_file(&self, path: &std::path::Path) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        self.save(&mut w)
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

impl OutlierDetector for AnyDetector {
    fn name(&self) -> &'static str {
        for_each_variant!(self, m => m.name())
    }

    fn fit(&mut self, g: &AttributedGraph) {
        for_each_variant!(self, m => OutlierDetector::fit(m, g))
    }

    fn score(&self, g: &AttributedGraph) -> Scores {
        for_each_variant!(self, m => m.score(g))
    }

    // Store-backed paths forward to the wrapped detector so its own
    // override (mini-batch training, global combination, refit-per-batch
    // for the transductive models) is the one that runs — a blanket
    // default here would silently bypass them.

    fn fit_store(&mut self, store: &dyn GraphStore, cfg: &SamplingConfig) {
        for_each_variant!(self, m => OutlierDetector::fit_store(m, store, cfg))
    }

    fn score_channels(
        &self,
        store: &dyn GraphStore,
        cfg: &SamplingConfig,
        lo: u32,
        hi: u32,
    ) -> Scores {
        for_each_variant!(self, m => m.score_channels(store, cfg, lo, hi))
    }

    fn delta_capability(&self) -> DeltaCapability {
        for_each_variant!(self, m => m.delta_capability())
    }

    fn score_with_state(&self, g: &AttributedGraph) -> (Scores, Option<LayerState>) {
        for_each_variant!(self, m => m.score_with_state(g))
    }

    fn rescore_layered(
        &self,
        store: &dyn GraphStore,
        touched: &[u32],
        state: &mut Option<LayerState>,
    ) -> Option<LayeredDelta> {
        for_each_variant!(self, m => m.rescore_layered(store, touched, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgod_baselines::DeepConfig;
    use vgod_graph::seeded_rng;
    use vgod_tensor::Matrix;

    fn tiny_graph() -> AttributedGraph {
        let mut rng = seeded_rng(11);
        let mut g = vgod_graph::community_graph(
            &vgod_graph::CommunityGraphConfig::homogeneous(80, 2, 4.0, 0.9),
            &mut rng,
        );
        let x = vgod_graph::gaussian_mixture_attributes(g.labels().unwrap(), 6, 3.0, 0.5, &mut rng);
        g.set_attrs(x);
        g
    }

    #[test]
    fn dispatches_on_magic_line() {
        let g = tiny_graph();
        let mut dom = Dominant::new(DeepConfig {
            epochs: 2,
            hidden: 4,
            ..DeepConfig::fast()
        });
        OutlierDetector::fit(&mut dom, &g);
        let mut buf = Vec::new();
        dom.save(&mut buf).unwrap();
        let any = AnyDetector::load(&mut buf.as_slice()).unwrap();
        assert_eq!(any.kind(), "dominant");
        assert_eq!(any.name(), "DOMINANT");
        assert_eq!(any.score(&g).combined, dom.score(&g).combined);
    }

    #[test]
    fn stateless_detectors_roundtrip() {
        let g = tiny_graph();
        let mut buf = Vec::new();
        DegNorm.save(&mut buf).unwrap();
        let any = AnyDetector::load(&mut buf.as_slice()).unwrap();
        assert_eq!(any.kind(), "degnorm");
        assert_eq!(any.score(&g).combined, DegNorm.score(&g).combined);

        let mut buf = Vec::new();
        RandomDetector::new(9).save(&mut buf).unwrap();
        let any = AnyDetector::load(&mut buf.as_slice()).unwrap();
        assert_eq!(
            any.score(&g).combined,
            RandomDetector::new(9).score(&g).combined
        );
    }

    #[test]
    fn rejects_unknown_and_empty_checkpoints() {
        assert!(AnyDetector::load(&mut b"".as_slice()).is_err());
        assert!(AnyDetector::load(&mut b"# vgod-unknown v1\n".as_slice()).is_err());
        assert!(AnyDetector::load(&mut b"garbage\n".as_slice()).is_err());
        let _ = Matrix::zeros(1, 1); // keep the dev-dependency honest
    }
}
