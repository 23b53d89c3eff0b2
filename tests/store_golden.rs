//! Golden-bytes guard for store-backed scoring: `score_store` of every
//! detector with its own store path must reproduce recorded bytes, on both
//! sides of the sampling threshold and once per kernel ISA.
//!
//! Below the threshold `score_store` borrows the in-memory graph and runs
//! the ordinary full-graph pass; above it the detectors score sampled
//! batches (VBM, VGOD), exact sweeps (Deg, L2Norm, DegNorm, Random) or
//! refit per batch (Radar, AnomalyDAE), and VGOD/DegNorm recombine their
//! channels globally. One hash per ISA covers all of it, so a refactor of
//! the store paths that moves a single score bit fails here.
//!
//! The test forces the scalar kernels for one of its runs, which is
//! process-global state, so this file holds exactly one test.

use vgod_suite::baselines::DeepConfig;
use vgod_suite::graph::SamplingConfig;
use vgod_suite::prelude::*;
use vgod_suite::tensor::simd::{self, Isa};

/// FNV-1a 64 over the little-endian bytes of every score (the hash
/// `golden_scores.rs` uses), continued from `h`.
fn score_hash_from(mut h: u64, scores: &[f32]) -> u64 {
    for s in scores {
        for b in s.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash every channel of a score bundle; an absent channel hashes as a
/// single NaN so presence is pinned too.
fn bundle_hash(s: &vgod_suite::eval::Scores) -> u64 {
    let absent = [f32::NAN];
    let mut h = score_hash_from(FNV_OFFSET, &s.combined);
    for channel in [&s.structural, &s.contextual] {
        h = score_hash_from(h, channel.as_deref().unwrap_or(&absent));
    }
    h
}

/// `(detector, per-threshold hashes)` for one ISA.
fn store_hashes() -> Vec<(&'static str, [u64; 2])> {
    let mut rng = seeded_rng(7);
    // 108 nodes, 32 attributes.
    let g = replica(Dataset::CoraLike, Scale::Tiny, &mut rng).graph;
    let n = g.num_nodes();
    let full = SamplingConfig::default();
    assert!(full.full_graph_threshold >= n);
    let sampled = SamplingConfig {
        full_graph_threshold: n / 3,
        batch_size: 32,
        fanout: 5,
        hops: 2,
        seed: 4,
        ..SamplingConfig::default()
    };
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
    let detectors: Vec<Box<dyn OutlierDetector>> = vec![
        Box::new(Vgod::new(vcfg.clone())),
        Box::new(Vbm::new(vcfg.vbm)),
        Box::new(Deg),
        Box::new(L2Norm),
        Box::new(DegNorm),
        Box::new(RandomDetector::new(3)),
        Box::new(Radar::new(deep.clone())),
        Box::new(AnomalyDae::new(deep)),
    ];
    detectors
        .into_iter()
        .map(|mut det| {
            det.fit(&g);
            let hashes = [&sampled, &full].map(|cfg| bundle_hash(&det.score_store(&g, cfg)));
            (det.name(), hashes)
        })
        .collect()
}

/// Expected combined hash of [`store_hashes`] per ISA.
const GOLDEN_SCALAR: u64 = 0xb343_63ba_ea97_bbad;
const GOLDEN_AVX2: u64 = 0x7b51_ff1f_41e7_ada9;

#[test]
fn store_scores_match_recorded_bytes_on_every_isa() {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            simd::force_scalar(false);
        }
    }
    let _restore = Restore;

    let mut isas = vec![Isa::Scalar];
    if simd::detected_isa() == Isa::Avx2 {
        isas.push(Isa::Avx2);
    }
    for isa in isas {
        simd::force_scalar(isa == Isa::Scalar);
        assert_eq!(simd::active_isa(), isa);
        let hashes = store_hashes();
        let got = hashes.iter().fold(FNV_OFFSET, |h, (_, pair)| {
            pair.iter()
                .fold(h, |h, &d| (h ^ d).wrapping_mul(0x0100_0000_01b3))
        });
        let expected = match isa {
            Isa::Scalar => GOLDEN_SCALAR,
            Isa::Avx2 => GOLDEN_AVX2,
        };
        assert_eq!(
            got,
            expected,
            "{} store score bytes changed: hash {got:#018x}, recorded {expected:#018x}; \
             per detector [sampled, full]: {}",
            isa.name(),
            hashes
                .iter()
                .map(|(name, [s, f])| format!("{name} [{s:#018x}, {f:#018x}]"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
}
