//! Every detector the workspace ships scores through the [`GraphStore`]
//! path — in memory and against a demand-paged on-disk store — and stays
//! bit-identical to its plain full-graph output below the sampling
//! threshold.

use vgod::{Arm, Vbm, Vgod, VgodConfig};
use vgod_baselines::{
    AnomalyDae, Cola, Conad, DeepConfig, Deg, DegNorm, Dominant, Done, L2Norm, Radar,
    RandomDetector,
};
use vgod_eval::OutlierDetector;
use vgod_graph::{
    community_graph, gaussian_mixture_attributes, seeded_rng, AttributedGraph,
    CommunityGraphConfig, GraphStore, OocStore, SamplingConfig,
};
use vgod_serve::AnyDetector;

fn test_graph(n: usize, seed: u64) -> AttributedGraph {
    let mut rng = seeded_rng(seed);
    let mut g = community_graph(&CommunityGraphConfig::homogeneous(n, 4, 5.0, 0.9), &mut rng);
    let x = gaussian_mixture_attributes(g.labels().unwrap(), 8, 3.0, 0.5, &mut rng);
    g.set_attrs(x);
    g
}

/// One fresh, cheap-to-train detector of every kind the CLI exposes.
fn all_detectors() -> Vec<AnyDetector> {
    let deep = DeepConfig {
        epochs: 2,
        hidden: 4,
        ..DeepConfig::fast()
    };
    let mut vcfg = VgodConfig::default();
    vcfg.vbm.hidden_dim = 8;
    vcfg.vbm.epochs = 2;
    vcfg.arm.hidden_dim = 8;
    vcfg.arm.epochs = 2;
    vec![
        AnyDetector::Vgod(Vgod::new(vcfg.clone())),
        AnyDetector::Vbm(Vbm::new(vcfg.vbm)),
        AnyDetector::Arm(Arm::new(vcfg.arm)),
        AnyDetector::Dominant(Dominant::new(deep.clone())),
        AnyDetector::AnomalyDae(AnomalyDae::new(deep.clone())),
        AnyDetector::Done(Done::new(deep.clone())),
        AnyDetector::Cola(Cola::new(deep.clone())),
        AnyDetector::Conad(Conad::new(deep.clone())),
        AnyDetector::Radar(Radar::new(deep.clone())),
        AnyDetector::DegNorm(DegNorm),
        AnyDetector::Deg(Deg),
        AnyDetector::L2Norm(L2Norm),
        AnyDetector::Random(RandomDetector::new(3)),
    ]
}

fn tmp_store(name: &str, g: &AttributedGraph) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("vgod_store_paths_{name}_{}", std::process::id()));
    OocStore::create_from_graph(g, &path, 64, 256).unwrap();
    path
}

#[test]
fn every_detector_scores_through_the_sampled_store_path() {
    let g = test_graph(240, 11);
    let path = tmp_store("sampled", &g);
    let store = OocStore::open(&path, 1 << 20).unwrap();
    // Threshold below n forces the sampled path for every detector.
    let cfg = SamplingConfig {
        full_graph_threshold: 50,
        batch_size: 96,
        fanout: 5,
        hops: 2,
        train_seeds: 160,
        seed: 4,
        ..SamplingConfig::default()
    };
    for mut det in all_detectors() {
        det.fit_store(&store, &cfg);
        let scores = det.score_store(&store, &cfg);
        assert_eq!(
            scores.combined.len(),
            g.num_nodes(),
            "{} must score every node",
            det.kind()
        );
        assert!(
            scores.combined.iter().all(|s| s.is_finite()),
            "{} produced non-finite scores",
            det.kind()
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn below_threshold_store_scoring_is_bit_identical_for_every_detector() {
    let g = test_graph(150, 12);
    let path = tmp_store("exact", &g);
    let store = OocStore::open(&path, 1 << 20).unwrap();
    let cfg = SamplingConfig {
        full_graph_threshold: 10_000, // n is far below: fast path everywhere
        ..SamplingConfig::default()
    };
    for mut det in all_detectors() {
        det.fit_store(&store, &cfg);
        let via_store = det.score_store(&store, &cfg).combined;
        let direct = det.score(&g).combined;
        assert_eq!(
            via_store,
            direct,
            "{} store path must be bit-identical below the threshold",
            det.kind()
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn ooc_store_and_in_memory_store_sample_identically() {
    let g = test_graph(220, 13);
    let path = tmp_store("parity", &g);
    let ooc = OocStore::open(&path, 1 << 18).unwrap(); // small budget: force paging
    let cfg = SamplingConfig {
        full_graph_threshold: 40,
        batch_size: 80,
        fanout: 4,
        hops: 2,
        train_seeds: 120,
        seed: 8,
        ..SamplingConfig::default()
    };
    // The sampler sees the same topology/attributes through either backend,
    // so a deterministic detector must score identically from both.
    for mut det in [
        AnyDetector::Deg(Deg),
        AnyDetector::L2Norm(L2Norm),
        AnyDetector::DegNorm(DegNorm),
        AnyDetector::Vbm(Vbm::new({
            let mut c = VgodConfig::default().vbm;
            c.hidden_dim = 8;
            c.epochs = 2;
            c
        })),
    ] {
        let mem_store: &dyn GraphStore = &g;
        let mut det_mem = det.clone();
        det_mem.fit_store(mem_store, &cfg);
        det.fit_store(&ooc, &cfg);
        let from_mem = det_mem.score_store(mem_store, &cfg).combined;
        let from_ooc = det.score_store(&ooc, &cfg).combined;
        assert_eq!(from_mem, from_ooc, "{} backend parity", det.kind());
    }
    let _ = std::fs::remove_file(&path);
}

mod concurrency {
    use super::*;
    use proptest::prelude::*;

    fn sampled_cfg(n: usize, batch_size: usize, seed: u64) -> SamplingConfig {
        SamplingConfig {
            full_graph_threshold: n / 4, // always force the sampled path
            batch_size,
            fanout: 4,
            hops: 2,
            train_seeds: 120,
            seed,
            ..SamplingConfig::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// Tentpole guarantee: the batch-parallel runner is bit-identical to
        /// the sequential loop at every thread count, for every detector —
        /// including the globally-recombined (Vgod, DegNorm) and
        /// refit-per-batch (Radar, AnomalyDae) families.
        #[test]
        fn parallel_scoring_is_bit_identical_across_thread_counts(
            n in 180usize..240,
            batch_size in 48usize..96,
            seed in 0u64..1_000,
        ) {
            let g = test_graph(n, seed ^ 0x9e37);
            let path = tmp_store(&format!("par_{seed}_{n}"), &g);
            let store = OocStore::open(&path, 1 << 18).unwrap();
            for mut det in all_detectors() {
                let cfg1 = sampled_cfg(n, batch_size, seed);
                det.fit_store(&store, &cfg1);
                let sequential = det
                    .score_store(&store, &SamplingConfig { ooc_threads: 1, ..cfg1 })
                    .combined;
                for threads in [2usize, 8] {
                    let parallel = det
                        .score_store(&store, &SamplingConfig { ooc_threads: threads, ..cfg1 })
                        .combined;
                    prop_assert_eq!(
                        &sequential,
                        &parallel,
                        "{} diverged at {} threads",
                        det.kind(),
                        threads
                    );
                }
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}
