//! Golden-bytes guard: `Vgod` fit + score on a small seeded replica must
//! reproduce recorded score bytes exactly, once per kernel ISA.
//!
//! The replica is sized so training crosses every GEMM flavour the backward
//! pass uses — `matmul_tn` over more than `KC` (512) rows with packed and
//! direct right-hand panels, the `n < 8` narrow products and the `k == 1`
//! outer products of the GAT attention — so a kernel change that moves a
//! single accumulation shows up here as a hash mismatch. The constants pin
//! the bytes of the plain transpose-then-`matmul` backward pass; a change
//! that alters them changes every score file the CLI writes.
//!
//! The test forces the scalar kernels for one of its runs, which is
//! process-global state, so this file holds exactly one test.

use vgod_suite::prelude::*;
use vgod_suite::tensor::simd::{self, Isa};

/// FNV-1a 64 over the little-endian bytes of every score.
fn score_hash(scores: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in scores {
        for b in s.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn fit_and_score() -> Vec<f32> {
    let mut rng = seeded_rng(7);
    // 789 nodes, 32 attributes.
    let g = replica(Dataset::PubmedLike, Scale::Tiny, &mut rng).graph;
    let mut cfg = VgodConfig::default();
    // 20 and 24 are not multiples of the 16-wide panel; the 32-wide
    // decoder output is.
    cfg.vbm.hidden_dim = 20;
    cfg.vbm.epochs = 2;
    cfg.arm.hidden_dim = 24;
    cfg.arm.epochs = 3;
    Vgod::new(cfg).fit_score(&g).combined
}

/// Expected [`score_hash`] per ISA.
const GOLDEN_SCALAR: u64 = 0xae58_de28_33e4_790d;
const GOLDEN_AVX2: u64 = 0xa67f_bf61_6c16_da1d;

#[test]
fn vgod_scores_match_recorded_bytes_on_every_isa() {
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
        let scores = fit_and_score();
        let expected = match isa {
            Isa::Scalar => GOLDEN_SCALAR,
            Isa::Avx2 => GOLDEN_AVX2,
        };
        let got = score_hash(&scores);
        assert_eq!(
            got,
            expected,
            "{} score bytes changed: hash {got:#018x}, recorded {expected:#018x}",
            isa.name()
        );
    }
}
