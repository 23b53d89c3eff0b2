//! Layer-wise incremental rescoring, property-tested: VBM, ARM and VGOD
//! keep their per-layer activations in the score cache and, after each
//! mutation batch, recompute only the rows each layer can change. After
//! every batch the cache must equal a from-scratch full rescore of the
//! mutated graph bit for bit on all three channels, and the number of
//! rescored rows must be exactly `|B_L(touched)|` — the layer-wise path's
//! footprint — or, on a GAT, GIN or SAGE ARM, every node once a layer's
//! dirty set passes the row-path crossover.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rand::Rng;
use vgod::{Arm, CombineStrategy, GnnBackbone, Vbm, Vgod, VgodConfig};
use vgod_eval::{apply_mutation_rescore, OutlierDetector, ScoreCache};
use vgod_gnn::rows::prefers_whole_graph;
use vgod_gnn::GnnKind;
use vgod_graph::{
    community_graph, gaussian_mixture_attributes, k_hop_ball, seeded_rng, AttributedGraph,
    CommunityGraphConfig, FrozenGraph, GraphMutation, GraphStore, OverlayGraph,
};
use vgod_serve::AnyDetector;

const BACKBONES: [GnnBackbone; 4] = [
    GnnBackbone::Gcn,
    GnnBackbone::Gat,
    GnnBackbone::Gin,
    GnnBackbone::Sage,
];

fn base_graph() -> AttributedGraph {
    let mut rng = seeded_rng(23);
    let mut g = community_graph(
        &CommunityGraphConfig::homogeneous(240, 4, 2.5, 0.9),
        &mut rng,
    );
    let x = gaussian_mixture_attributes(g.labels().unwrap(), 6, 3.0, 0.5, &mut rng);
    g.set_attrs(x);
    g
}

fn small_cfg() -> VgodConfig {
    let mut cfg = VgodConfig::default();
    cfg.vbm.hidden_dim = 8;
    cfg.vbm.epochs = 2;
    cfg.arm.hidden_dim = 8;
    cfg.arm.epochs = 2;
    cfg
}

/// One layer-wise detector configuration under test.
struct Case {
    name: String,
    det: AnyDetector,
    /// Depth of the receptive field: the `L` of `B_L(touched)`.
    layers: usize,
    /// The ARM backbone whose layers may cross over to the whole-graph
    /// kernels; `None` when no GNN layer runs (VBM, a GNN-free VGOD).
    backbone: Option<GnnKind>,
}

/// Every layer-wise detector configuration, fitted once on the base graph:
/// VGOD and ARM on each backbone and at other depths, VBM with and without
/// self-loops, VGOD under every combine strategy.
fn fitted() -> &'static Vec<Case> {
    static DETS: OnceLock<Vec<Case>> = OnceLock::new();
    DETS.get_or_init(|| {
        let g = base_graph();
        let mut dets = Vec::new();
        for backbone in BACKBONES {
            let mut cfg = small_cfg();
            cfg.arm.backbone = backbone;
            let layers = cfg.arm.layers;
            dets.push(Case {
                name: format!("vgod/{backbone}"),
                det: AnyDetector::Vgod(Vgod::new(cfg.clone())),
                layers,
                backbone: Some(backbone.kind()),
            });
            dets.push(Case {
                name: format!("arm/{backbone}"),
                det: AnyDetector::Arm(Arm::new(cfg.arm)),
                layers,
                backbone: Some(backbone.kind()),
            });
        }
        for self_loops in [true, false] {
            let mut cfg = small_cfg().vbm;
            cfg.self_loops = self_loops;
            dets.push(Case {
                name: format!("vbm/self_loops={self_loops}"),
                det: AnyDetector::Vbm(Vbm::new(cfg)),
                layers: 1,
                backbone: None,
            });
        }
        // Depths other than the paper's two layers: a GNN-free ARM (row
        // local, so VGOD's rows are VBM's `B_1`) and a three-layer stack.
        let mut cfg = small_cfg();
        cfg.arm.layers = 0;
        dets.push(Case {
            name: "vgod/layers=0".into(),
            det: AnyDetector::Vgod(Vgod::new(cfg)),
            layers: 1,
            backbone: None,
        });
        let mut cfg = small_cfg().arm;
        cfg.layers = 3;
        cfg.backbone = GnnBackbone::Gcn;
        dets.push(Case {
            name: "arm/GCN/layers=3".into(),
            det: AnyDetector::Arm(Arm::new(cfg)),
            layers: 3,
            backbone: Some(GnnKind::Gcn),
        });
        for combine in [CombineStrategy::SumToUnit, CombineStrategy::Weighted(0.3)] {
            let cfg = VgodConfig {
                combine,
                ..small_cfg()
            };
            let layers = cfg.arm.layers;
            let backbone = Some(cfg.arm.backbone.kind());
            dets.push(Case {
                name: format!("vgod/{combine:?}"),
                det: AnyDetector::Vgod(Vgod::new(cfg)),
                layers,
                backbone,
            });
        }
        for case in &mut dets {
            case.det.fit(&g);
        }
        dets
    })
}

fn random_op(store: &OverlayGraph, d: usize, rng: &mut impl Rng) -> GraphMutation {
    let n = store.num_nodes() as u32;
    let attrs = |rng: &mut dyn rand::RngCore| -> Vec<f32> {
        (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    };
    match rng.gen_range(0..10) {
        0..=3 => {
            let u = rng.gen_range(0..n);
            GraphMutation::AddEdge {
                u,
                v: (u + rng.gen_range(1..n)) % n,
            }
        }
        4 | 5 => {
            // Remove an edge that exists, when the node has one.
            let u = rng.gen_range(0..n);
            let mut nbrs = Vec::new();
            store.neighbors_into(u, &mut nbrs);
            let v = match nbrs.len() {
                0 => (u + 1) % n,
                k => nbrs[rng.gen_range(0..k)],
            };
            GraphMutation::RemoveEdge { u, v }
        }
        6 | 7 => GraphMutation::SetAttrs {
            node: rng.gen_range(0..n),
            attrs: attrs(rng),
        },
        8 => GraphMutation::AddNode {
            attrs: attrs(rng),
            label: None,
        },
        _ => GraphMutation::RemoveNode {
            node: rng.gen_range(0..n),
        },
    }
}

fn bits(scores: Option<&[f32]>) -> Option<Vec<u32>> {
    scores.map(|s| s.iter().map(|v| v.to_bits()).collect())
}

/// Whether some GNN layer of `case` runs the whole-graph kernels for a
/// batch touching `touched`: its dirty set `B_ℓ(touched)` is past the
/// backbone's crossover.
fn crosses_over(store: &dyn GraphStore, touched: &[u32], case: &Case) -> bool {
    let n = store.num_nodes();
    case.backbone.is_some_and(|kind| {
        (1..=case.layers)
            .any(|depth| prefers_whole_graph(kind, k_hop_ball(store, touched, depth).len(), n))
    })
}

/// The rows a layer-wise rescore must return: `B_L(touched)`, or every
/// node once some layer crosses over.
fn expected_rows(store: &dyn GraphStore, touched: &[u32], case: &Case) -> usize {
    if crosses_over(store, touched, case) {
        store.num_nodes()
    } else {
        k_hop_ball(store, touched, case.layers).len()
    }
}

fn assert_cache_matches(name: &str, cache: &ScoreCache, want: &vgod_eval::Scores) {
    let got = cache.scores();
    assert_eq!(
        bits(Some(&got.combined)),
        bits(Some(&want.combined)),
        "{name}: combined"
    );
    assert_eq!(
        bits(got.structural.as_deref()),
        bits(want.structural.as_deref()),
        "{name}: structural"
    );
    assert_eq!(
        bits(got.contextual.as_deref()),
        bits(want.contextual.as_deref()),
        "{name}: contextual"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Mixed batches with a compaction partway: after every batch each
    /// cache equals a full rescore bit for bit, and rescored exactly
    /// `|B_L(touched)|` rows.
    #[test]
    fn layered_rescore_is_bit_identical_and_touches_only_the_ball(
        seed in 0u64..1_000_000,
        batches in 20usize..40,
    ) {
        let g0 = base_graph();
        let d = g0.num_attrs();
        let dets = fitted();
        let mut overlay = OverlayGraph::new(Arc::new(FrozenGraph::from_store(&g0)));
        let mut caches: Vec<ScoreCache> = dets
            .iter()
            .map(|case| ScoreCache::for_detector(&case.det, &g0))
            .collect();
        let mut rng = seeded_rng(seed);
        let (mut row_path, mut whole_graph) = (0usize, 0usize);
        for batch in 0..batches {
            if batch == batches / 2 {
                let delta = overlay.delta_snapshot();
                let folded = FrozenGraph::compact(overlay.base(), &delta);
                overlay.adopt_base(Arc::new(folded), delta.version);
            }
            // One wide batch drives the GAT, GIN and SAGE layers past the
            // row-path crossover onto the whole-graph kernels.
            let ops_per_batch = if batch == batches / 3 { 200 } else { rng.gen_range(1..5) };
            let ops: Vec<GraphMutation> = (0..ops_per_batch)
                .map(|_| random_op(&overlay, d, &mut rng))
                .collect();
            let effect = overlay.apply_batch(&ops).unwrap();
            if effect.applied == 0 {
                continue;
            }
            let full_graph = overlay.materialize();
            for (case, cache) in dets.iter().zip(&mut caches) {
                let name = &case.name;
                let rows = apply_mutation_rescore(&case.det, &overlay, &effect.touched, cache);
                let want_rows = expected_rows(&overlay, &effect.touched, case);
                prop_assert_eq!(rows, want_rows, "{}: rescored rows after {:?}", name, ops);
                if crosses_over(&overlay, &effect.touched, case) {
                    whole_graph += 1;
                } else {
                    row_path += 1;
                }
                assert_cache_matches(name, cache, &case.det.score(&full_graph));
                prop_assert!(cache.state_bytes() > 0, "{}: no layer state", name);
            }
        }
        prop_assert!(row_path > 0, "no batch stayed under the crossover");
        prop_assert!(whole_graph > 0, "no batch crossed over");
    }
}

/// A cache made without layer state builds it with one full pass on its
/// first batch (every row), then runs incrementally.
#[test]
fn stateless_cache_builds_layer_state_on_first_batch() {
    let g0 = base_graph();
    let case = &fitted()[0];
    let (name, det) = (&case.name, &case.det);
    let mut overlay = OverlayGraph::new(Arc::new(FrozenGraph::from_store(&g0)));
    let mut cache = ScoreCache::new(det.score(&g0), vgod_eval::ScoreMerge::MeanStd);
    for (i, edge) in [(3u32, 150u32), (7, 200)].into_iter().enumerate() {
        let effect = overlay
            .apply_batch(&[GraphMutation::AddEdge {
                u: edge.0,
                v: edge.1,
            }])
            .unwrap();
        let rows = apply_mutation_rescore(det, &overlay, &effect.touched, &mut cache);
        let n = GraphStore::num_nodes(&overlay);
        let want = if i == 0 {
            n
        } else {
            expected_rows(&overlay, &effect.touched, case)
        };
        assert_eq!(rows, want, "{name}: batch {i}");
        assert_cache_matches(name, &cache, &det.score(&overlay.materialize()));
    }
}
