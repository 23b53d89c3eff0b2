//! Property tests: every parallelized kernel produces the same result on the
//! worker pool as on the sequential path, and the dispatched SIMD path
//! agrees with the forced-scalar path within the documented contract.
//!
//! Every kernel is either row-disjoint (GEMM, spmm, spmm_t, maps, zips,
//! broadcasts, row reductions, gather, transpose), running the *same* per-row
//! arithmetic under any banding, or plainly sequential (`col_sums`, `sum`,
//! `frobenius_norm`, `max_abs`), so the pooled path must match the sequential
//! one **bit-for-bit** — see DESIGN.md § Threading model.
//!
//! Across ISAs (scalar vs AVX2) the elementwise kernels, `fused_adam`, `sum`
//! and `sum_sq` are bitwise identical; the FMA kernels (GEMM, SpMM) agree
//! only within float tolerance — see DESIGN.md § SIMD kernel dispatch.
//!
//! The AᵀB, k == 1 outer-product and narrow (n < 8) GEMM kernels are held
//! to a stricter contract: bitwise equal, on each ISA, to the kernels they
//! replaced (`transpose().matmul()`, the dot-product kernel and the
//! one-row-at-a-time narrow kernel).
//!
//! The container running CI may expose a single CPU, so each test pins the
//! pool to 4 workers up front; `force_sequential` then toggles the baseline
//! path without disturbing the cached thread count.

use std::process::Command;
use std::sync::Mutex;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vgod_tensor::{simd, threading, Csr, Matrix};

/// `force_sequential` and `simd::force_scalar` are process-global, so no two
/// A/B toggles may interleave across test threads.
static SEQ_LOCK: Mutex<()> = Mutex::new(());

/// Restores the parallel path even if the measured closure panics.
struct SeqGuard;

impl Drop for SeqGuard {
    fn drop(&mut self) {
        threading::force_sequential(false);
    }
}

/// Restores the dispatched SIMD path even if the measured closure panics.
struct SimdGuard;

impl Drop for SimdGuard {
    fn drop(&mut self) {
        simd::force_scalar(false);
    }
}

/// Run `f` once on the sequential path and once on the pooled path.
fn seq_then_par<T>(f: impl Fn() -> T) -> (T, T) {
    let _lock = SEQ_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    seq_then_par_unlocked(f)
}

/// [`seq_then_par`] for callers already holding [`SEQ_LOCK`].
fn seq_then_par_unlocked<T>(f: impl Fn() -> T) -> (T, T) {
    let _ = threading::set_num_threads(4);
    let _guard = SeqGuard;
    threading::force_sequential(true);
    let seq = f();
    threading::force_sequential(false);
    let par = f();
    (seq, par)
}

/// Run `f` once with the scalar kernels forced and once dispatched (AVX2
/// where the host supports it; otherwise both legs are scalar and the
/// comparison is trivially exact).
fn scalar_then_simd<T>(f: impl Fn() -> T) -> (T, T) {
    let _lock = SEQ_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = SimdGuard;
    simd::force_scalar(true);
    let scalar = f();
    simd::force_scalar(false);
    let dispatched = f();
    (scalar, dispatched)
}

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0))
}

/// A random sparse matrix with ~`deg` entries per row.
fn random_csr(rows: usize, cols: usize, deg: usize, rng: &mut StdRng) -> Csr {
    let mut triplets = Vec::new();
    for r in 0..rows {
        for _ in 0..deg {
            let c = rng.gen_range(0..cols as u32);
            triplets.push((r as u32, c, rng.gen_range(0.1f32..1.0)));
        }
    }
    Csr::from_triplets(rows, cols, &triplets).unwrap()
}

fn assert_exact(seq: &Matrix, par: &Matrix) {
    assert_eq!(seq.shape(), par.shape());
    assert_eq!(
        seq.as_slice(),
        par.as_slice(),
        "kernel must be bit-identical across paths"
    );
}

/// Scalar vs SIMD for the FMA-class kernels: equal within float tolerance.
fn assert_close(scalar: &[f32], simd: &[f32], tol: f32) {
    assert_eq!(scalar.len(), simd.len());
    for (i, (&a, &b)) in scalar.iter().zip(simd).enumerate() {
        assert!(
            (a - b).abs() <= tol * (1.0 + a.abs()),
            "FMA-class kernel diverged across ISAs at {i}: {a} vs {b}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// GEMM trio — above `GEMM_FLOP_THRESHOLD` (8e6 flops), bit-exact.
    #[test]
    fn gemm_trio_matches(seed in 0u64..1000, m in 210usize..250, k in 210usize..250, n in 210usize..250) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let (s, p) = seq_then_par(|| a.matmul(&b));
        assert_exact(&s, &p);
        let (s, p) = seq_then_par(|| a.transpose().matmul_tn(&b));
        assert_exact(&s, &p);
        let (s, p) = seq_then_par(|| a.matmul_nt(&b.transpose()));
        assert_exact(&s, &p);
    }

    /// spmm scatters into disjoint output rows — bit-exact.
    #[test]
    fn spmm_matches(seed in 0u64..1000, n in 1800usize..2200, d in 48usize..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let adj = random_csr(n, n, 12, &mut rng);
        let h = random_matrix(n, d, &mut rng);
        let (s, p) = seq_then_par(|| adj.spmm(&h));
        assert_exact(&s, &p);
    }

    /// spmm_t gathers over the transpose into disjoint output rows — bit-exact.
    #[test]
    fn spmm_t_matches(seed in 0u64..1000, n in 1800usize..2200, d in 48usize..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let adj = random_csr(n, n, 12, &mut rng);
        let h = random_matrix(n, d, &mut rng);
        let (s, p) = seq_then_par(|| adj.spmm_t(&h));
        assert_exact(&s, &p);
    }

    /// Elementwise family — row-disjoint, bit-exact.
    #[test]
    fn elementwise_kernels_match(seed in 0u64..1000, r in 380usize..430, c in 380usize..430) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(r, c, &mut rng);
        let b = random_matrix(r, c, &mut rng);
        let (s, p) = seq_then_par(|| a.map(|v| v.tanh()));
        assert_exact(&s, &p);
        let (s, p) = seq_then_par(|| a.zip_map(&b, |x, y| x * y + 0.5 * y));
        assert_exact(&s, &p);
        let (s, p) = seq_then_par(|| {
            let mut out = a.clone();
            out.map_inplace(|v| v * 2.0 - 1.0);
            out.zip_apply(&b, |x, y| *x += 0.25 * y);
            out
        });
        assert_exact(&s, &p);
        let (s, p) = seq_then_par(|| a.scale(3.5));
        assert_exact(&s, &p);
    }

    /// Fused 4-way zip (the Adam update) — row-disjoint, bit-exact.
    #[test]
    fn zip_apply3_matches(seed in 0u64..1000, r in 380usize..430, c in 380usize..430) {
        let mut rng = StdRng::seed_from_u64(seed);
        let val = random_matrix(r, c, &mut rng);
        let m0 = random_matrix(r, c, &mut rng);
        let v0 = random_matrix(r, c, &mut rng);
        let g = random_matrix(r, c, &mut rng);
        let (s, p) = seq_then_par(|| {
            let mut value = val.clone();
            let mut m = m0.clone();
            let mut v = v0.clone();
            value.zip_apply3(&mut m, &mut v, &g, |val, mv, vv, gv| {
                *mv = 0.9 * *mv + 0.1 * gv;
                *vv = 0.999 * *vv + 0.001 * gv * gv;
                *val -= 0.01 * *mv / (vv.abs().sqrt() + 1e-8);
            });
            (value, m, v)
        });
        assert_exact(&s.0, &p.0);
        assert_exact(&s.1, &p.1);
        assert_exact(&s.2, &p.2);
    }

    /// Broadcasts and row-indexed kernels — row-disjoint, bit-exact.
    #[test]
    fn broadcast_and_row_kernels_match(seed in 0u64..1000, r in 380usize..430, c in 380usize..430) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(r, c, &mut rng);
        let row = random_matrix(1, c, &mut rng);
        let col = random_matrix(r, 1, &mut rng);
        let (s, p) = seq_then_par(|| a.add_row_broadcast(&row));
        assert_exact(&s, &p);
        let (s, p) = seq_then_par(|| a.mul_row_broadcast(&row));
        assert_exact(&s, &p);
        let (s, p) = seq_then_par(|| a.mul_col_broadcast(&col));
        assert_exact(&s, &p);
        let (s, p) = seq_then_par(|| {
            let mut out = a.clone();
            out.par_rows_mut(|i, vals| {
                for v in vals {
                    *v += i as f32;
                }
            });
            out
        });
        assert_exact(&s, &p);
        let (s, p) = seq_then_par(|| a.l2_normalize_rows(1e-8));
        assert_exact(&s.0, &p.0);
        assert_exact(&s.1, &p.1);
        let (s, p) = seq_then_par(|| a.div_rows_by(&col.map(|v| v.abs() + 0.5)));
        assert_exact(&s, &p);
    }

    /// Row reductions write disjoint outputs — bit-exact.
    #[test]
    fn row_reductions_match(seed in 0u64..1000, r in 380usize..430, c in 380usize..430) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(r, c, &mut rng);
        let (s, p) = seq_then_par(|| a.row_sums());
        assert_exact(&s, &p);
        let (s, p) = seq_then_par(|| a.row_sq_norms());
        assert_exact(&s, &p);
    }

    /// Full reductions and col_sums run one sequential order — bit-exact.
    #[test]
    fn full_reductions_match(seed in 0u64..1000, r in 380usize..430, c in 380usize..430) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(r, c, &mut rng);
        let (s, p) = seq_then_par(|| a.col_sums());
        assert_exact(&s, &p);
        for f in [Matrix::sum, Matrix::frobenius_norm, Matrix::max_abs] {
            let (s, p) = seq_then_par(|| f(&a));
            assert_eq!(s.to_bits(), p.to_bits());
        }
    }

    /// Transpose and gather parallelize over output rows — bit-exact.
    #[test]
    fn transpose_and_gather_match(seed in 0u64..1000, r in 380usize..430, c in 380usize..430) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(r, c, &mut rng);
        let idx: Vec<u32> = (0..r * 2).map(|_| rng.gen_range(0..r as u32)).collect();
        let (s, p) = seq_then_par(|| a.transpose());
        assert_exact(&s, &p);
        let (s, p) = seq_then_par(|| a.gather_rows(&idx));
        assert_exact(&s, &p);
    }
}

// ---------------------------------------------------------------------------
// Scalar vs dispatched SIMD: one property per dispatched kernel family.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// GEMM trio across ISAs — FMA class, equal within float tolerance.
    #[test]
    fn simd_gemm_trio_close(seed in 0u64..1000, m in 30usize..90, k in 30usize..90, n in 30usize..90) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let (s, d) = scalar_then_simd(|| a.matmul(&b));
        assert_close(s.as_slice(), d.as_slice(), 1e-4);
        let (s, d) = scalar_then_simd(|| a.transpose().matmul_tn(&b));
        assert_close(s.as_slice(), d.as_slice(), 1e-4);
        let (s, d) = scalar_then_simd(|| a.matmul_nt(&b.transpose()));
        assert_close(s.as_slice(), d.as_slice(), 1e-4);
    }

    /// Narrow outputs (n < 8) take the shared scalar kernel on both ISAs —
    /// bit-exact by construction.
    #[test]
    fn simd_narrow_gemm_exact(seed in 0u64..1000, m in 20usize..60, k in 20usize..60, n in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let (s, d) = scalar_then_simd(|| a.matmul(&b));
        assert_exact(&s, &d);
    }

    /// SpMM and its transpose across ISAs — FMA class, float tolerance.
    #[test]
    fn simd_spmm_close(seed in 0u64..1000, n in 150usize..300, d in 9usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let adj = random_csr(n, n, 8, &mut rng);
        let h = random_matrix(n, d, &mut rng);
        let (s, p) = scalar_then_simd(|| adj.spmm(&h));
        assert_close(s.as_slice(), p.as_slice(), 1e-4);
        let (s, p) = scalar_then_simd(|| adj.spmm_t(&h));
        assert_close(s.as_slice(), p.as_slice(), 1e-4);
    }

    /// Elementwise kernels across ISAs — plain IEEE ops, bit-exact.
    #[test]
    fn simd_elementwise_exact(seed in 0u64..1000, r in 20usize..80, c in 20usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(r, c, &mut rng);
        let b = random_matrix(r, c, &mut rng);
        let (s, d) = scalar_then_simd(|| a.add(&b));
        assert_exact(&s, &d);
        let (s, d) = scalar_then_simd(|| a.sub(&b));
        assert_exact(&s, &d);
        let (s, d) = scalar_then_simd(|| a.mul(&b));
        assert_exact(&s, &d);
        let (s, d) = scalar_then_simd(|| a.scale(1.7));
        assert_exact(&s, &d);
        let (s, d) = scalar_then_simd(|| {
            let mut out = a.clone();
            out.add_assign(&b);
            out.add_scaled(-0.3, &b);
            out.scale_inplace(0.8);
            out
        });
        assert_exact(&s, &d);
    }

    /// Lane-structured reductions across ISAs — same 8-lane grouping and
    /// reduction tree on both paths, bit-exact.
    #[test]
    fn simd_reductions_exact(seed in 0u64..1000, r in 20usize..80, c in 20usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(r, c, &mut rng);
        let (s, d) = scalar_then_simd(|| a.sum());
        assert_eq!(s.to_bits(), d.to_bits());
        let (s, d) = scalar_then_simd(|| a.frobenius_norm());
        assert_eq!(s.to_bits(), d.to_bits());
        let (s, d) = scalar_then_simd(|| a.row_sums());
        assert_exact(&s, &d);
        let (s, d) = scalar_then_simd(|| a.row_sq_norms());
        assert_exact(&s, &d);
        let (s, d) = scalar_then_simd(|| a.col_sums());
        assert_exact(&s, &d);
    }

    /// Fused Adam across ISAs — no FMA contraction in either path, bit-exact.
    #[test]
    fn simd_fused_adam_exact(seed in 0u64..1000, r in 20usize..80, c in 20usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p0 = random_matrix(r, c, &mut rng);
        let m0 = random_matrix(r, c, &mut rng);
        let v0 = random_matrix(r, c, &mut rng).map(|v| v.abs());
        let g = random_matrix(r, c, &mut rng);
        let step = vgod_tensor::AdamStep {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            bias1: 0.1,
            bias2: 0.001,
        };
        let (s, d) = scalar_then_simd(|| {
            let (mut p, mut m, mut v) = (p0.clone(), m0.clone(), v0.clone());
            p.fused_adam_step(&mut m, &mut v, &g, &step);
            (p, m, v)
        });
        assert_exact(&s.0, &d.0);
        assert_exact(&s.1, &d.1);
        assert_exact(&s.2, &d.2);
    }
}

// ---------------------------------------------------------------------------
// GEMM flavours against the kernels they replaced: bitwise, on both ISAs and
// at 1, 2 and 4 threads.
// ---------------------------------------------------------------------------

/// Output widths: a matrix–vector product, a narrow (`n < 8`) product, the
/// narrowest tiled width (one ragged 16-wide panel), a full panel plus a
/// ragged one, and four full panels read in place.
const WIDTHS: [usize; 5] = [1, 3, 8, 17, 64];

/// The previous narrow (`n < 8`) kernel: one k-sequential
/// multiply-then-add chain per output element.
fn narrow_chain(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = 0.0f32;
        for (kk, &v) in a.row(i).iter().enumerate() {
            acc += v * b.row(kk)[j];
        }
        acc
    })
}

/// The previous `k == 1` `matmul_nt`: the dot kernels' zero lane tree plus
/// a one-term tail, `0 + (0 + a·b)`.
fn outer_dot(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.rows(), |i, j| {
        0.0 + (0.0 + a.as_slice()[i] * b.as_slice()[j])
    })
}

fn fnv1a(mut h: u64, m: &Matrix) -> u64 {
    for v in m.as_slice() {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Check `matmul_tn`, the narrow `matmul` and the `k == 1` `matmul_nt`
/// at one shape against their reference kernels (bitwise, under whatever
/// ISA and thread state the caller set) and fold every output into `h`.
fn check_flavours(m: usize, k: usize, n: usize, seed: u64, h: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = random_matrix(k, m, &mut rng);
    let b = random_matrix(k, n, &mut rng);
    let tn = a.matmul_tn(&b);
    assert_exact(&tn, &a.transpose().matmul(&b));
    let mut h = fnv1a(h, &tn);
    if n < 8 {
        let rows = a.transpose();
        let nn = rows.matmul(&b);
        assert_exact(&nn, &narrow_chain(&rows, &b));
        h = fnv1a(h, &nn);
    }
    let (x, y) = (random_matrix(m, 1, &mut rng), random_matrix(n, 1, &mut rng));
    let nt = x.matmul_nt(&y);
    assert_exact(&nt, &outer_dot(&x, &y));
    fnv1a(h, &nt)
}

/// Rows for an `m × k · k × n` product: `m % 4 != 0` (a remainder tile
/// past the last 4-row tile), large enough to engage the pool when `pool`
/// and `n ≥ 3`. The `n == 1` products stay below the pool threshold: that
/// would take a 32 MB operand, and each output row is one independent
/// chain whichever band it falls in.
fn rows_for(m_small: usize, k: usize, n: usize, pool: bool) -> usize {
    if pool && n >= 3 {
        threading::GEMM_FLOP_THRESHOLD.div_ceil(k * n) | 1
    } else {
        m_small
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `k > KC` (512), so the k-blocked AVX2 tiles continue through `out`.
    #[test]
    fn gemm_flavours_match_reference_kernels(
        seed in 0u64..1000,
        wi in 0usize..WIDTHS.len(),
        q in 0usize..20,
        odd in 1usize..4,
        k in 513usize..700,
        pool in any::<bool>(),
    ) {
        let n = WIDTHS[wi];
        let m = rows_for(4 * q + odd, k, n, pool);
        let (s, p) = scalar_then_simd(|| seq_then_par_unlocked(|| check_flavours(m, k, n, seed, 0)));
        // Within one ISA the digest may not depend on the thread count.
        prop_assert_eq!(s.0, s.1);
        prop_assert_eq!(p.0, p.1);
    }
}

/// Set in the child processes of [`gemm_flavours_agree_at_1_2_4_threads`].
const SWEEP_CHILD: &str = "VGOD_GEMM_SWEEP_CHILD";

/// The pool's thread count is process-global and fixed once resolved, so
/// each of 1, 2 and 4 threads runs [`gemm_flavour_sweep_child`] in a child
/// process of this test binary with `VGOD_NUM_THREADS` set. Each child
/// asserts the reference equalities itself and prints a digest of every
/// output; the three digests must agree.
#[test]
fn gemm_flavours_agree_at_1_2_4_threads() {
    let exe = std::env::current_exe().expect("test binary path");
    let mut digests = Vec::new();
    for threads in [1, 2, 4] {
        let out = Command::new(&exe)
            .args(["gemm_flavour_sweep_child", "--exact", "--nocapture"])
            .env(SWEEP_CHILD, "1")
            .env("VGOD_NUM_THREADS", threads.to_string())
            .output()
            .expect("spawn the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{threads}-thread sweep failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let digest = stdout
            .lines()
            .find_map(|l| l.strip_prefix("flavour-digest="))
            .unwrap_or_else(|| panic!("{threads}-thread sweep printed no digest:\n{stdout}"));
        digests.push((threads, digest.to_string()));
    }
    assert!(
        digests.iter().all(|(_, d)| *d == digests[0].1),
        "GEMM outputs depend on the thread count: {digests:?}"
    );
}

/// The body of [`gemm_flavours_agree_at_1_2_4_threads`]; a no-op unless
/// run as its child.
#[test]
fn gemm_flavour_sweep_child() {
    let Ok(threads) = std::env::var(SWEEP_CHILD).and(std::env::var("VGOD_NUM_THREADS")) else {
        return;
    };
    assert_eq!(threading::num_threads().to_string(), threads);
    let _guard = SimdGuard;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for scalar in [true, false] {
        simd::force_scalar(scalar);
        for (wi, &n) in WIDTHS.iter().enumerate() {
            for (si, (m_small, k, pool)) in [(13, 37, false), (70, 600, false), (71, 600, true)]
                .into_iter()
                .enumerate()
            {
                let m = rows_for(m_small, k, n, pool);
                h = check_flavours(m, k, n, (wi * 3 + si) as u64, h);
            }
        }
    }
    println!("flavour-digest={h:016x}");
}
