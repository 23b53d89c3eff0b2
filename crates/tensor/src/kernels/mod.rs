//! Dispatched SIMD micro-kernels behind the dense/sparse tensor ops.
//!
//! Every hot inner loop in [`crate::Matrix`] and [`crate::Csr`] routes
//! through the entry points in this module. Each entry point checks
//! [`crate::simd::active_isa`] (an atomic load plus a cached `OnceLock`
//! read) and forwards to either the hand-written AVX2+FMA kernels in
//! [`avx2`] or the portable unrolled fallback in [`scalar`]. The kernels
//! run *inside* worker-pool bands (`parallel::for_each_row_band`), so
//! vectorisation composes with threading.
//!
//! Determinism contract (enforced by `tests/parallel_equivalence.rs` and
//! the detector bit-identity tests):
//!
//! - Within one ISA path every kernel fixes its accumulation order
//!   (k-/neighbour-sequential for GEMM/SpMM, 8-lane + fixed pairwise tree
//!   for reductions), so results are bit-identical across thread counts,
//!   warm/cold arena state and repeated runs.
//! - Elementwise kernels, `fused_adam`, `sum` and `sum_sq` are bitwise
//!   identical *across* ISAs; the FMA kernels (GEMM, SpMM) agree across
//!   ISAs only within float tolerance.

#[cfg(target_arch = "x86_64")]
mod avx2;
mod scalar;

use crate::simd::active_isa;
#[cfg(target_arch = "x86_64")]
use crate::simd::Isa;

/// GEMM register-tile width (columns): one packed B panel.
pub(crate) const NR: usize = 16;
/// GEMM register-tile height (rows), AVX2 micro-kernel only.
#[cfg(target_arch = "x86_64")]
pub(crate) const MR: usize = 4;
/// Outputs narrower than this skip the 16-wide register tiles (most of
/// each tile would be padding) for a per-element multiply-then-add chain.
pub(crate) const NARROW: usize = 8;
/// k-block size for GEMM cache blocking: one `KC × NR` B panel block is
/// `KC·NR·4 B = 32 KiB`, sized to stay L1-resident while it is reused
/// across every row tile of a band.
pub(crate) const KC: usize = 512;

/// Hyperparameters of one fused Adam update (see [`crate::Matrix::fused_adam_step`]).
#[derive(Clone, Copy, Debug)]
pub struct AdamStep {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Denominator stabiliser ε.
    pub eps: f32,
    /// First-moment bias correction `1 − β₁ᵗ`.
    pub bias1: f32,
    /// Second-moment bias correction `1 − β₂ᵗ`.
    pub bias2: f32,
}

/// Route one kernel invocation by the active ISA.
///
/// Safety of the AVX2 arm: `active_isa()` only returns [`Isa::Avx2`] after
/// runtime detection confirmed AVX2 and FMA support on this CPU.
macro_rules! dispatch {
    ($scalar:expr, $avx2:expr) => {
        match active_isa() {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { $avx2 },
            _ => $scalar,
        }
    };
}

/// Packed length of a `k × n` right-hand GEMM operand: whole `NR`-wide
/// column panels, each `k × NR`, zero-padded at the right edge.
pub(crate) fn packed_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * k * NR
}

/// Pack B (`k × n`, row-major) into `NR`-wide column panels:
/// `bp[p·k·NR + kk·NR + j] = b[kk·n + p·NR + j]`. Panels are contiguous
/// over k so the micro-kernel streams them linearly. `bp` must be zeroed
/// (edge-panel padding lanes are left untouched); the caller packs on its
/// own thread into an arena-recycled buffer before banding.
pub(crate) fn pack_b(bp: &mut [f32], b: &[f32], k: usize, n: usize) {
    debug_assert!(bp.len() >= packed_len(k, n));
    let panels = n.div_ceil(NR);
    for p in 0..panels {
        let j0 = p * NR;
        let nr = NR.min(n - j0);
        let panel = &mut bp[p * k * NR..(p + 1) * k * NR];
        for kk in 0..k {
            panel[kk * NR..kk * NR + nr].copy_from_slice(&b[kk * n + j0..kk * n + j0 + nr]);
        }
    }
}

/// Where the `NR`-wide column panels of a GEMM right operand live: row
/// `kk` of panel `p` starts at `data[p · panel_step + kk · ldb]`.
#[derive(Clone, Copy)]
pub(crate) struct Panels<'a> {
    data: &'a [f32],
    panel_step: usize,
    ldb: usize,
}

impl<'a> Panels<'a> {
    /// Panels packed by [`pack_b`]: contiguous `k × NR` blocks.
    pub(crate) fn packed(bp: &'a [f32], k: usize) -> Self {
        Self {
            data: bp,
            panel_step: k * NR,
            ldb: NR,
        }
    }

    /// The row-major `k × n` operand read in place. The wide kernels need
    /// `n` to be a multiple of `NR` (no ragged edge panel); the narrow ones
    /// (`n < NARROW`) read any `n`.
    pub(crate) fn direct(b: &'a [f32], n: usize) -> Self {
        Self {
            data: b,
            panel_step: NR,
            ldb: n,
        }
    }
}

/// Band GEMM `out = a · B` against a packed B (`bp`): `out` is an
/// `m × n` row band, `a` the matching `m × k` rows of the left operand.
pub(crate) fn gemm_nn(out: &mut [f32], a: &[f32], bp: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    if n < NARROW {
        return scalar::gemm_narrow(out, a, bp, m, k, n);
    }
    dispatch!(
        scalar::gemm_nn(out, a, bp, m, k, n),
        avx2::gemm_nn(out, a, bp, m, k, n)
    )
}

/// Band GEMM `out = aᵀ · B` with the left operand read in place: `out` is
/// an `m × n` row band whose row `i` is column `i` of `a` (`k` rows of
/// stride `lda`, so element `(kk, i)` sits at `a[kk · lda + i]`).
///
/// Every output element runs the same k-sequential chain as [`gemm_nn`]
/// on the transposed operand — FMA on the AVX2 wide path, multiply then
/// add on the scalar and narrow (`n < NARROW`) paths — so the result is
/// bitwise equal to transposing `a` and calling [`gemm_nn`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_tn(
    out: &mut [f32],
    a: &[f32],
    lda: usize,
    b: Panels,
    m: usize,
    k: usize,
    n: usize,
) {
    // The AVX2 kernels read both operands through raw pointers.
    assert_eq!(out.len(), m * n);
    if m == 0 || k == 0 {
        out.fill(0.0);
        return;
    }
    assert!(
        a.len() >= (k - 1) * lda + m,
        "gemm_tn: left operand too short"
    );
    if n < NARROW {
        assert!(b.data.len() >= (k - 1) * b.ldb + n);
        return dispatch!(
            scalar::gemm_tn_narrow(out, a, lda, b, m, k, n),
            avx2::gemm_tn_narrow(out, a, lda, b, m, k, n)
        );
    }
    assert!(
        b.data.len() >= (n.div_ceil(NR) - 1) * b.panel_step + (k - 1) * b.ldb + NR,
        "gemm_tn: right operand too short for its panels (a ragged width must be packed)"
    );
    dispatch!(
        scalar::gemm_tn(out, a, lda, b, m, k, n),
        avx2::gemm_tn(out, a, lda, b, m, k, n)
    )
}

/// Band GEMM `out = a · bᵀ` (dot-product form, no packing): `a` is `m × k`
/// band rows, `b` the full `n × k` right operand.
pub(crate) fn gemm_nt(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    if k == 1 {
        // An outer product: both dot kernels reduce a one-element row to
        // `0 + (0 + a·b)` (zero lane tree plus a one-term tail), which the
        // outer-product loop computes directly on both ISAs (it
        // autovectorises; a hand-written AVX2 copy measured no faster).
        return scalar::outer(out, a, b, n);
    }
    dispatch!(
        scalar::gemm_nt(out, a, b, m, k, n),
        avx2::gemm_nt(out, a, b, m, k, n)
    )
}

/// CSR SpMM over output rows `s..e` into the pre-zeroed band.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spmm_rows(
    band: &mut [f32],
    s: usize,
    e: usize,
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    dense: &[f32],
    d: usize,
) {
    debug_assert_eq!(band.len(), (e - s) * d);
    dispatch!(
        scalar::spmm_rows(band, s, e, indptr, indices, values, dense, d),
        avx2::spmm_rows(band, s, e, indptr, indices, values, dense, d)
    )
}

/// `dst = a + b` elementwise.
pub(crate) fn zip_add(dst: &mut [f32], a: &[f32], b: &[f32]) {
    dispatch!(scalar::zip_add(dst, a, b), avx2::zip_add(dst, a, b))
}

/// `dst = a - b` elementwise.
pub(crate) fn zip_sub(dst: &mut [f32], a: &[f32], b: &[f32]) {
    dispatch!(scalar::zip_sub(dst, a, b), avx2::zip_sub(dst, a, b))
}

/// `dst = a ∘ b` elementwise.
pub(crate) fn zip_mul(dst: &mut [f32], a: &[f32], b: &[f32]) {
    dispatch!(scalar::zip_mul(dst, a, b), avx2::zip_mul(dst, a, b))
}

/// `dst += src` elementwise.
pub(crate) fn add_inplace(dst: &mut [f32], src: &[f32]) {
    dispatch!(scalar::add_inplace(dst, src), avx2::add_inplace(dst, src))
}

/// `dst += alpha · src` elementwise.
pub(crate) fn axpy(dst: &mut [f32], alpha: f32, src: &[f32]) {
    dispatch!(scalar::axpy(dst, alpha, src), avx2::axpy(dst, alpha, src))
}

/// `dst = alpha · src` elementwise.
pub(crate) fn scale(dst: &mut [f32], src: &[f32], alpha: f32) {
    dispatch!(scalar::scale(dst, src, alpha), avx2::scale(dst, src, alpha))
}

/// `dst *= alpha` elementwise.
pub(crate) fn scale_inplace(dst: &mut [f32], alpha: f32) {
    dispatch!(
        scalar::scale_inplace(dst, alpha),
        avx2::scale_inplace(dst, alpha)
    )
}

/// Sum of one contiguous chunk (8-lane, fixed reduction tree).
pub(crate) fn sum(src: &[f32]) -> f32 {
    dispatch!(scalar::sum(src), avx2::sum(src))
}

/// Sum of squares of one contiguous chunk (8-lane, fixed reduction tree).
pub(crate) fn sum_sq(src: &[f32]) -> f32 {
    dispatch!(scalar::sum_sq(src), avx2::sum_sq(src))
}

/// Fused Adam update over matching chunks of parameter, both moment
/// buffers and the gradient.
pub(crate) fn fused_adam(p: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], s: &AdamStep) {
    debug_assert!(p.len() == m.len() && p.len() == v.len() && p.len() == g.len());
    dispatch!(
        scalar::fused_adam(p, m, v, g, s),
        avx2::fused_adam(p, m, v, g, s)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_f32(n: usize, scale: f32, offset: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 7 + 3) % 23) as f32 * scale - offset)
            .collect()
    }

    #[test]
    fn pack_roundtrip_covers_every_element() {
        let (k, n) = (5, 21); // two panels, ragged edge
        let b = seq_f32(k * n, 0.25, 2.0);
        let mut bp = vec![0.0f32; packed_len(k, n)];
        pack_b(&mut bp, &b, k, n);
        for kk in 0..k {
            for j in 0..n {
                let p = j / NR;
                let packed = bp[p * k * NR + kk * NR + (j % NR)];
                assert_eq!(packed, b[kk * n + j], "({kk},{j})");
            }
        }
        // Edge-panel padding lanes must be zero.
        let p = n / NR;
        for kk in 0..k {
            for j in n % NR..NR {
                assert_eq!(bp[p * k * NR + kk * NR + j], 0.0);
            }
        }
    }

    #[test]
    fn gemm_nn_matches_naive_on_both_paths() {
        let (m, k, n) = (9, 13, 21);
        let a = seq_f32(m * k, 0.3, 1.5);
        let b = seq_f32(k * n, 0.2, 2.0);
        let mut bp = vec![0.0f32; packed_len(k, n)];
        pack_b(&mut bp, &b, k, n);
        let mut naive = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                naive[i * n + j] = acc;
            }
        }
        for forced in [true, false] {
            crate::simd::force_scalar(forced);
            let mut out = vec![0.0f32; m * n];
            gemm_nn(&mut out, &a, &bp, m, k, n);
            for (g, e) in out.iter().zip(&naive) {
                assert!((g - e).abs() <= 1e-4 * (1.0 + e.abs()), "{g} vs {e}");
            }
        }
        crate::simd::force_scalar(false);
    }

    #[test]
    fn lane_structured_reductions_are_bitwise_equal_across_isas() {
        let src = seq_f32(1003, 0.37, 4.0);
        crate::simd::force_scalar(true);
        let (s_sum, s_sq) = (sum(&src), sum_sq(&src));
        crate::simd::force_scalar(false);
        let (d_sum, d_sq) = (sum(&src), sum_sq(&src));
        assert_eq!(s_sum.to_bits(), d_sum.to_bits());
        assert_eq!(s_sq.to_bits(), d_sq.to_bits());
    }
}
