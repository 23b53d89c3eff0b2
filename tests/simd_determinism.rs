//! The dispatched SIMD path must be deterministic for every deep detector:
//! score vectors are bit-identical across thread counts (sequential vs the
//! 4-worker pool) and across cold/warm arena state, under whichever ISA
//! `VGOD_SIMD` selects. Each kernel fixes its accumulation order per ISA, so
//! neither banding nor buffer recycling may leak into results.
//!
//! The Cora-tiny replica stays below every pool threshold, so its pooled
//! runs take the sequential kernels too; the VGOD case on the PubMed-medium
//! replica crosses the SpMM (nnz·d ≥ 1e6) and elementwise (131,072
//! elements) thresholds, so its pooled run really bands the kernels.
//!
//! `force_sequential` is process-global, so the runs of one detector are
//! serialized behind a file-local lock.

use std::sync::Mutex;

use vgod_suite::baselines::DeepConfig;
use vgod_suite::prelude::*;
use vgod_suite::tensor::threading;

static TOGGLE_LOCK: Mutex<()> = Mutex::new(());

/// Restores the pooled path even if a fit panics.
struct SeqGuard;

impl Drop for SeqGuard {
    fn drop(&mut self) {
        threading::force_sequential(false);
    }
}

fn small_graph() -> AttributedGraph {
    let mut rng = seeded_rng(42);
    let data = replica(Dataset::CoraLike, Scale::Tiny, &mut rng);
    data.graph
}

/// Fit four times on `g` — sequential/cold, sequential/warm, pooled/warm,
/// pooled/cold — and require all four score vectors bitwise equal.
fn all_paths_bit_identical(
    g: &AttributedGraph,
    mut fit_and_score: impl FnMut(&AttributedGraph) -> Vec<f32>,
) {
    let _lock = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _ = threading::set_num_threads(4);
    let _guard = SeqGuard;

    threading::force_sequential(true);
    vgod_suite::tensor::arena::clear();
    let seq_cold = fit_and_score(g);
    let seq_warm = fit_and_score(g);

    threading::force_sequential(false);
    let par_warm = fit_and_score(g);
    vgod_suite::tensor::arena::clear();
    let par_cold = fit_and_score(g);

    assert!(seq_cold.iter().all(|s| s.is_finite()));
    for (label, run) in [
        ("sequential/warm", &seq_warm),
        ("pooled/warm", &par_warm),
        ("pooled/cold", &par_cold),
    ] {
        assert_eq!(seq_cold.len(), run.len());
        for (i, (a, b)) in seq_cold.iter().zip(run.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "node {i}: sequential/cold {a} != {label} {b}"
            );
        }
    }
}

fn deep_cfg() -> DeepConfig {
    DeepConfig {
        epochs: 5,
        ..DeepConfig::fast()
    }
}

#[test]
fn dominant_is_simd_deterministic() {
    all_paths_bit_identical(&small_graph(), |g| {
        Dominant::new(deep_cfg()).fit_score(g).combined
    });
}

#[test]
fn anomaly_dae_is_simd_deterministic() {
    all_paths_bit_identical(&small_graph(), |g| {
        AnomalyDae::new(deep_cfg()).fit_score(g).combined
    });
}

#[test]
fn done_is_simd_deterministic() {
    all_paths_bit_identical(&small_graph(), |g| {
        Done::new(deep_cfg()).fit_score(g).combined
    });
}

#[test]
fn cola_is_simd_deterministic() {
    all_paths_bit_identical(&small_graph(), |g| {
        let mut model = Cola::new(deep_cfg());
        model.rounds = 4;
        model.fit_score(g).combined
    });
}

#[test]
fn conad_is_simd_deterministic() {
    all_paths_bit_identical(&small_graph(), |g| {
        Conad::new(deep_cfg()).fit_score(g).combined
    });
}

#[test]
fn vbm_is_simd_deterministic() {
    all_paths_bit_identical(&small_graph(), |g| {
        let mut model = Vbm::new(VbmConfig {
            hidden_dim: 16,
            epochs: 5,
            lr: 0.01,
            self_loops: false,
            seed: 7,
        });
        model.fit(g);
        model.scores(g)
    });
}

#[test]
fn arm_is_simd_deterministic() {
    all_paths_bit_identical(&small_graph(), |g| {
        let mut model = Arm::new(ArmConfig {
            hidden_dim: 16,
            layers: 2,
            backbone: GnnBackbone::Gcn,
            epochs: 5,
            lr: 0.01,
            row_normalize: false,
            seed: 3,
        });
        model.fit(g);
        model.scores(g)
    });
}

/// VGOD at the CLI's hidden width on a replica large enough that the pool
/// bands `spmm`, `spmm_t`, the bias-gradient `col_sums` and the loss
/// reductions.
#[test]
fn vgod_above_pool_thresholds_is_thread_count_independent() {
    let g = replica(Dataset::PubmedLike, Scale::Medium, &mut seeded_rng(1)).graph;
    // The pool thresholds of `vgod_tensor::parallel`: SpMM work nnz·d and
    // elementwise length, at the hidden width d = 64.
    let nnz = g.adjacency().nnz();
    assert!(nnz * 64 >= 1_000_000, "below the SpMM threshold: nnz {nnz}");
    assert!(
        g.num_nodes() * 64 >= 131_072,
        "below the elementwise threshold"
    );
    all_paths_bit_identical(&g, |g| {
        let mut cfg = VgodConfig::default();
        cfg.vbm.hidden_dim = 64;
        cfg.vbm.epochs = 2;
        cfg.arm.hidden_dim = 64;
        cfg.arm.epochs = 2;
        Vgod::new(cfg).fit_score(g).combined
    });
}
