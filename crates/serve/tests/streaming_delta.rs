//! The streaming correctness invariant, property-tested: for every
//! detector that declares a local receptive field, rescoring only the
//! dirty k-hop frontier after a randomized mutation batch and patching a
//! score cache must reproduce — bit for bit — a from-scratch full rescore
//! of the post-mutation graph. Runs the real trained models (VGOD, VBM,
//! ARM) alongside the stateless baselines, over batches that mix edge
//! churn, node appends, tombstones, and attribute rewrites.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rand::Rng;
use vgod::{Vbm, Vgod, VgodConfig};
use vgod_baselines::{Deg, DegNorm, L2Norm};
use vgod_eval::{apply_mutation_rescore, DeltaCapability, OutlierDetector, ScoreCache};
use vgod_graph::{
    community_graph, gaussian_mixture_attributes, seeded_rng, AttributedGraph,
    CommunityGraphConfig, FrozenGraph, GraphMutation, GraphStore, OverlayGraph,
};
use vgod_serve::AnyDetector;

fn base_graph() -> AttributedGraph {
    let mut rng = seeded_rng(17);
    let mut g = community_graph(
        &CommunityGraphConfig::homogeneous(60, 3, 4.0, 0.9),
        &mut rng,
    );
    let x = gaussian_mixture_attributes(g.labels().unwrap(), 6, 3.0, 0.5, &mut rng);
    g.set_attrs(x);
    g
}

/// Every Local-capability detector the workspace ships, fitted once on the
/// base graph (trained weights are what the delta path applies to mutated
/// topology, exactly like a served checkpoint).
fn fitted_local_detectors() -> &'static Vec<AnyDetector> {
    static DETS: OnceLock<Vec<AnyDetector>> = OnceLock::new();
    DETS.get_or_init(|| {
        let g = base_graph();
        let mut vcfg = VgodConfig::default();
        vcfg.vbm.hidden_dim = 8;
        vcfg.vbm.epochs = 2;
        vcfg.arm.hidden_dim = 8;
        vcfg.arm.epochs = 2;
        let mut dets = vec![
            AnyDetector::Vgod(Vgod::new(vcfg.clone())),
            AnyDetector::Vbm(Vbm::new(vcfg.vbm)),
            AnyDetector::Arm(vgod::Arm::new(vcfg.arm)),
            AnyDetector::DegNorm(DegNorm),
            AnyDetector::Deg(Deg),
            AnyDetector::L2Norm(L2Norm),
        ];
        for d in &mut dets {
            assert!(
                matches!(d.delta_capability(), DeltaCapability::Local { .. }),
                "{}: expected a local delta capability",
                d.kind()
            );
            d.fit(&g);
        }
        dets
    })
}

fn random_op(n: u32, d: usize, label_hi: u32, rng: &mut impl Rng) -> GraphMutation {
    match rng.gen_range(0..9) {
        0..=3 => {
            let u = rng.gen_range(0..n);
            let v = (u + rng.gen_range(1..n)) % n;
            GraphMutation::AddEdge { u, v }
        }
        4 | 5 => GraphMutation::RemoveEdge {
            u: rng.gen_range(0..n),
            v: rng.gen_range(0..n),
        },
        6 => GraphMutation::SetAttrs {
            node: rng.gen_range(0..n),
            attrs: (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        },
        7 => GraphMutation::AddNode {
            attrs: (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            label: Some(rng.gen_range(0..=label_hi)),
        },
        _ => GraphMutation::RemoveNode {
            node: rng.gen_range(0..n),
        },
    }
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// After every applied batch, each detector's patched cache equals a
    /// full rescore of the mutated graph, bit for bit — combined scores
    /// and both raw channels.
    #[test]
    fn delta_rescore_is_bit_identical_to_full_rescore(
        seed in 0u64..1_000_000,
        batches in 1usize..4,
        ops_per_batch in 1usize..7,
    ) {
        let g0 = base_graph();
        let d = g0.num_attrs();
        let label_hi = g0.labels().unwrap().iter().copied().max().unwrap();
        let dets = fitted_local_detectors();

        let mut overlay = OverlayGraph::new(Arc::new(FrozenGraph::from_store(&g0)));
        let mut caches: Vec<ScoreCache> = dets
            .iter()
            .map(|det| {
                let DeltaCapability::Local { merge, .. } = det.delta_capability() else {
                    unreachable!("filtered to local detectors");
                };
                ScoreCache::new(det.score(&g0), merge)
            })
            .collect();

        let mut rng = seeded_rng(seed);
        for _ in 0..batches {
            let n = GraphStore::num_nodes(&overlay) as u32;
            let ops: Vec<GraphMutation> = (0..ops_per_batch)
                .map(|_| random_op(n, d, label_hi, &mut rng))
                .collect();
            let effect = overlay.apply_batch(&ops).unwrap();
            if effect.applied == 0 {
                continue;
            }
            let full_graph = overlay.materialize();
            for (det, cache) in dets.iter().zip(&mut caches) {
                let frontier = apply_mutation_rescore(det, &overlay, &effect.touched, cache);
                prop_assert!(frontier > 0, "{}: local detector must use the delta path", det.kind());
                let want = det.score(&full_graph);
                prop_assert_eq!(
                    bits(cache.combined()),
                    bits(&want.combined),
                    "{}: combined scores diverged after batch {:?}",
                    det.kind(),
                    ops
                );
                let got = cache.scores();
                prop_assert_eq!(
                    got.structural.as_deref().map(bits),
                    want.structural.as_deref().map(bits),
                    "{}: structural channel diverged",
                    det.kind()
                );
                prop_assert_eq!(
                    got.contextual.as_deref().map(bits),
                    want.contextual.as_deref().map(bits),
                    "{}: contextual channel diverged",
                    det.kind()
                );
            }
        }
    }
}
