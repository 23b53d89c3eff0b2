//! Hand-written AVX2 + FMA micro-kernels (`x86_64` only).
//!
//! # Safety
//!
//! Every function here is `unsafe` and carries
//! `#[target_feature(enable = "avx2,fma")]`: callers (the dispatch wrappers
//! in [`super`]) must only reach this module after
//! [`crate::simd::active_isa`] returned [`crate::simd::Isa::Avx2`], which
//! implies both features were detected at runtime. Raw-pointer arithmetic
//! stays within the bounds the safe wrappers validated.
//!
//! # Numerics
//!
//! - GEMM/SpMM kernels use `vfmadd`: per output element the accumulation
//!   order is identical to the scalar fallback (k-/neighbour-sequential),
//!   but each multiply-add rounds once instead of twice, so results agree
//!   with the scalar path only within float tolerance.
//! - Elementwise kernels, [`fused_adam`], [`sum`] and [`sum_sq`] avoid FMA
//!   on purpose: every operation is the same correctly-rounded IEEE op the
//!   scalar fallback performs on the same lane grouping, so those kernels
//!   are bitwise identical across ISAs.

use super::{scalar, AdamStep, Panels, KC, MR, NR};
use std::arch::x86_64::*;

/// k-block size of the AᵀB driver. Its operands are tall (`k` is the node
/// count) while the output is small (`m, n` are feature widths), so a k-block
/// sweeps the whole output tile set: short blocks keep that set, the A
/// rows and the B panel rows of one block L1-resident together. Sized for
/// outputs that fit in L1/L2; a wider one is re-read from L2 per block.
const KC_TN: usize = 32;

/// Collapse one 8-lane register with the fixed pairwise tree mirrored by
/// [`scalar::hsum8`]: high half onto low half, then again, then the pair.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn hsum256(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps(v, 1);
    let q = _mm_add_ps(lo, hi);
    let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
    let s = _mm_add_ss(d, _mm_shuffle_ps(d, d, 0b01));
    _mm_cvtss_f32(s)
}

/// Register-tiled GEMM over a packed B (see [`super::pack_b`]).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn gemm_nn(out: &mut [f32], a: &[f32], bp: &[f32], m: usize, k: usize, n: usize) {
    gemm::<false>(out, a, k, Panels::packed(bp, k), m, k, n);
}

/// Register-tiled `aᵀ · B` reading `a` in place (see [`super::gemm_tn`]):
/// the micro-tile broadcasts `a[kk, i..i+MR]`, four consecutive floats of
/// one row, where [`gemm_nn`] broadcasts one float from each of four rows.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn gemm_tn(
    out: &mut [f32],
    a: &[f32],
    lda: usize,
    b: Panels,
    m: usize,
    k: usize,
    n: usize,
) {
    gemm::<true>(out, a, lda, b, m, k, n);
}

/// The shared GEMM driver: MR×NR register tiles (4 rows × 16 columns = 8
/// `ymm` accumulators), cache-blocked over k in [`KC`]-sized steps
/// ([`KC_TN`] for AᵀB) so the active B panel block stays L1-resident. The
/// k-blocks continue accumulation element-wise through `out` (load, fma,
/// store), so the per-element order stays strictly k-sequential whatever
/// the block size.
///
/// Left-operand element `(i, kk)` is `a[i·lda + kk]` when `!TN` and
/// `a[kk·lda + i]` when `TN`.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm<const TN: bool>(
    out: &mut [f32],
    a: &[f32],
    lda: usize,
    b: Panels,
    m: usize,
    k: usize,
    n: usize,
) {
    let panels = n.div_ceil(NR);
    let kc = if TN { KC_TN } else { KC };
    let mut kb = 0;
    while kb < k {
        let ke = (kb + kc).min(k);
        let first = kb == 0;
        for p in 0..panels {
            let j0 = p * NR;
            let nr = NR.min(n - j0);
            let panel = b.data.as_ptr().add(p * b.panel_step);
            let ldb = b.ldb;
            let mut i = 0;
            if nr == NR {
                while i + MR <= m {
                    tile4::<TN>(
                        out.as_mut_ptr().add(i * n + j0),
                        n,
                        a_row::<TN>(a, lda, i),
                        lda,
                        panel,
                        ldb,
                        kb..ke,
                        first,
                    );
                    i += MR;
                }
                while i < m {
                    tile1::<TN>(
                        out.as_mut_ptr().add(i * n + j0),
                        a_row::<TN>(a, lda, i),
                        lda,
                        panel,
                        ldb,
                        kb..ke,
                        first,
                    );
                    i += 1;
                }
            } else {
                // Edge panel (always packed): run the full-width tile
                // against a padded scratch buffer; padding lanes multiply
                // packed zeros and are discarded on copy-out.
                while i + MR <= m {
                    let mut scratch = [0.0f32; MR * NR];
                    if !first {
                        for r in 0..MR {
                            let o = (i + r) * n + j0;
                            scratch[r * NR..r * NR + nr].copy_from_slice(&out[o..o + nr]);
                        }
                    }
                    tile4::<TN>(
                        scratch.as_mut_ptr(),
                        NR,
                        a_row::<TN>(a, lda, i),
                        lda,
                        panel,
                        ldb,
                        kb..ke,
                        first,
                    );
                    for r in 0..MR {
                        let o = (i + r) * n + j0;
                        out[o..o + nr].copy_from_slice(&scratch[r * NR..r * NR + nr]);
                    }
                    i += MR;
                }
                while i < m {
                    let mut scratch = [0.0f32; NR];
                    if !first {
                        scratch[..nr].copy_from_slice(&out[i * n + j0..i * n + j0 + nr]);
                    }
                    tile1::<TN>(
                        scratch.as_mut_ptr(),
                        a_row::<TN>(a, lda, i),
                        lda,
                        panel,
                        ldb,
                        kb..ke,
                        first,
                    );
                    out[i * n + j0..i * n + j0 + nr].copy_from_slice(&scratch[..nr]);
                    i += 1;
                }
            }
        }
        kb = ke;
    }
}

/// Pointer to left-operand element `(i, 0)`.
///
/// # Safety
/// `i` must index a row of the operand (`i < m`).
#[inline]
unsafe fn a_row<const TN: bool>(a: &[f32], lda: usize, i: usize) -> *const f32 {
    a.as_ptr().add(if TN { i } else { i * lda })
}

/// Left-operand element `(r, kk)` relative to a tile's first row `a`.
///
/// # Safety
/// `a` must come from [`a_row`] and `(r, kk)` stay inside the operand.
#[inline]
unsafe fn a_at<const TN: bool>(a: *const f32, lda: usize, r: usize, kk: usize) -> f32 {
    *a.add(if TN { kk * lda + r } else { r * lda + kk })
}

/// 4×16 register tile: 8 accumulators, 2 B loads and 4 A broadcasts per k
/// step. `dst` points at the tile's first element; rows advance by `stride`.
#[allow(clippy::too_many_arguments)]
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn tile4<const TN: bool>(
    dst: *mut f32,
    stride: usize,
    a: *const f32,
    lda: usize,
    panel: *const f32,
    ldb: usize,
    ks: std::ops::Range<usize>,
    first: bool,
) {
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    if !first {
        for (r, accr) in acc.iter_mut().enumerate() {
            accr[0] = _mm256_loadu_ps(dst.add(r * stride));
            accr[1] = _mm256_loadu_ps(dst.add(r * stride + 8));
        }
    }
    for kk in ks {
        let b0 = _mm256_loadu_ps(panel.add(kk * ldb));
        let b1 = _mm256_loadu_ps(panel.add(kk * ldb + 8));
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(a_at::<TN>(a, lda, r, kk));
            accr[0] = _mm256_fmadd_ps(av, b0, accr[0]);
            accr[1] = _mm256_fmadd_ps(av, b1, accr[1]);
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        _mm256_storeu_ps(dst.add(r * stride), accr[0]);
        _mm256_storeu_ps(dst.add(r * stride + 8), accr[1]);
    }
}

/// 1×16 remainder tile for the last `m % MR` rows.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn tile1<const TN: bool>(
    dst: *mut f32,
    a: *const f32,
    lda: usize,
    panel: *const f32,
    ldb: usize,
    ks: std::ops::Range<usize>,
    first: bool,
) {
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    if !first {
        acc0 = _mm256_loadu_ps(dst);
        acc1 = _mm256_loadu_ps(dst.add(8));
    }
    for kk in ks {
        let av = _mm256_set1_ps(a_at::<TN>(a, lda, 0, kk));
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(panel.add(kk * ldb)), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(panel.add(kk * ldb + 8)), acc1);
    }
    _mm256_storeu_ps(dst, acc0);
    _mm256_storeu_ps(dst.add(8), acc1);
}

/// `aᵀ · B` for `n < NARROW`, vectorised across output rows: a row of `a`
/// holds consecutive output rows, so one load feeds eight outputs. Each
/// output keeps the multiply-then-add chain of [`scalar::gemm_narrow`]
/// (no FMA), so the result is bitwise equal to [`scalar::gemm_tn_narrow`].
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn gemm_tn_narrow(
    out: &mut [f32],
    a: &[f32],
    lda: usize,
    b: Panels,
    m: usize,
    k: usize,
    n: usize,
) {
    const V: usize = 4; // 8-lane accumulators per block: 32 rows
    let bptr = b.data.as_ptr();
    for j in 0..n {
        let mut i = 0;
        while i + 8 <= m {
            let vs = V.min((m - i) / 8);
            let mut acc = [_mm256_setzero_ps(); V];
            for kk in 0..k {
                let bv = _mm256_set1_ps(*bptr.add(kk * b.ldb + j));
                let ap = a.as_ptr().add(kk * lda + i);
                for (u, accu) in acc[..vs].iter_mut().enumerate() {
                    let prod = _mm256_mul_ps(_mm256_loadu_ps(ap.add(u * 8)), bv);
                    *accu = _mm256_add_ps(*accu, prod);
                }
            }
            for (u, accu) in acc[..vs].iter().enumerate() {
                let mut lanes = [0.0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), *accu);
                for (l, &v) in lanes.iter().enumerate() {
                    out[(i + u * 8 + l) * n + j] = v;
                }
            }
            i += vs * 8;
        }
        for r in i..m {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[kk * lda + r] * b.data[kk * b.ldb + j];
            }
            out[r * n + j] = acc;
        }
    }
}

/// Dot-product GEMM for `matmul_nt`: 4 output columns share each A load,
/// 8-lane accumulators collapsed with the fixed [`hsum256`] tree plus a
/// sequential scalar tail (same structure as [`scalar::dot`]).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn gemm_nt(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = a.as_ptr().add(i * k);
        let out_row = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let quad = dot4(a_row, b.as_ptr().add(j * k), k);
            out_row[j..j + 4].copy_from_slice(&quad);
            j += 4;
        }
        while j < n {
            out_row[j] = dot1(a_row, b.as_ptr().add(j * k), k);
            j += 1;
        }
    }
}

#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot4(a: *const f32, b: *const f32, k: usize) -> [f32; 4] {
    let mut acc = [_mm256_setzero_ps(); 4];
    let chunks = k / 8;
    for c in 0..chunks {
        let av = _mm256_loadu_ps(a.add(c * 8));
        for (jj, accj) in acc.iter_mut().enumerate() {
            *accj = _mm256_fmadd_ps(av, _mm256_loadu_ps(b.add(jj * k + c * 8)), *accj);
        }
    }
    let mut out = [0.0f32; 4];
    for (jj, accj) in acc.iter().enumerate() {
        let mut tail = 0.0f32;
        for kk in chunks * 8..k {
            tail += *a.add(kk) * *b.add(jj * k + kk);
        }
        out[jj] = hsum256(*accj) + tail;
    }
    out
}

#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot1(a: *const f32, b: *const f32, k: usize) -> f32 {
    let mut acc = _mm256_setzero_ps();
    let chunks = k / 8;
    for c in 0..chunks {
        acc = _mm256_fmadd_ps(
            _mm256_loadu_ps(a.add(c * 8)),
            _mm256_loadu_ps(b.add(c * 8)),
            acc,
        );
    }
    let mut tail = 0.0f32;
    for kk in chunks * 8..k {
        tail += *a.add(kk) * *b.add(kk);
    }
    hsum256(acc) + tail
}

/// CSR SpMM row kernel: up to 8 column-group accumulators (64 dense
/// columns) stay register-resident across the whole neighbour list, one
/// broadcast-FMA per neighbour per lane group. Neighbour order matches the
/// scalar kernel.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn spmm_rows(
    band: &mut [f32],
    s: usize,
    e: usize,
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    dense: &[f32],
    d: usize,
) {
    for (local, r) in (s..e).enumerate() {
        let out_row = &mut band[local * d..(local + 1) * d];
        let (rs, re) = (indptr[r], indptr[r + 1]);
        let cols = &indices[rs..re];
        let vals = &values[rs..re];
        let mut jb = 0;
        while jb + 64 <= d {
            let mut acc = [_mm256_setzero_ps(); 8];
            for (&c, &v) in cols.iter().zip(vals) {
                let src = dense.as_ptr().add(c as usize * d + jb);
                let vb = _mm256_set1_ps(v);
                for (u, accu) in acc.iter_mut().enumerate() {
                    *accu = _mm256_fmadd_ps(vb, _mm256_loadu_ps(src.add(u * 8)), *accu);
                }
            }
            for (u, accu) in acc.iter().enumerate() {
                _mm256_storeu_ps(out_row.as_mut_ptr().add(jb + u * 8), *accu);
            }
            jb += 64;
        }
        while jb + 8 <= d {
            let mut acc = _mm256_setzero_ps();
            for (&c, &v) in cols.iter().zip(vals) {
                let src = dense.as_ptr().add(c as usize * d + jb);
                acc = _mm256_fmadd_ps(_mm256_set1_ps(v), _mm256_loadu_ps(src), acc);
            }
            _mm256_storeu_ps(out_row.as_mut_ptr().add(jb), acc);
            jb += 8;
        }
        for j in jb..d {
            let mut acc = 0.0f32;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * dense[c as usize * d + j];
            }
            out_row[j] = acc;
        }
    }
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn zip_add(dst: &mut [f32], a: &[f32], b: &[f32]) {
    let chunks = dst.len() / 8;
    for c in 0..chunks {
        let o = c * 8;
        let v = _mm256_add_ps(
            _mm256_loadu_ps(a.as_ptr().add(o)),
            _mm256_loadu_ps(b.as_ptr().add(o)),
        );
        _mm256_storeu_ps(dst.as_mut_ptr().add(o), v);
    }
    let t = chunks * 8;
    scalar::zip_add(&mut dst[t..], &a[t..], &b[t..]);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn zip_sub(dst: &mut [f32], a: &[f32], b: &[f32]) {
    let chunks = dst.len() / 8;
    for c in 0..chunks {
        let o = c * 8;
        let v = _mm256_sub_ps(
            _mm256_loadu_ps(a.as_ptr().add(o)),
            _mm256_loadu_ps(b.as_ptr().add(o)),
        );
        _mm256_storeu_ps(dst.as_mut_ptr().add(o), v);
    }
    let t = chunks * 8;
    scalar::zip_sub(&mut dst[t..], &a[t..], &b[t..]);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn zip_mul(dst: &mut [f32], a: &[f32], b: &[f32]) {
    let chunks = dst.len() / 8;
    for c in 0..chunks {
        let o = c * 8;
        let v = _mm256_mul_ps(
            _mm256_loadu_ps(a.as_ptr().add(o)),
            _mm256_loadu_ps(b.as_ptr().add(o)),
        );
        _mm256_storeu_ps(dst.as_mut_ptr().add(o), v);
    }
    let t = chunks * 8;
    scalar::zip_mul(&mut dst[t..], &a[t..], &b[t..]);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn add_inplace(dst: &mut [f32], src: &[f32]) {
    let chunks = dst.len() / 8;
    for c in 0..chunks {
        let o = c * 8;
        let v = _mm256_add_ps(
            _mm256_loadu_ps(dst.as_ptr().add(o)),
            _mm256_loadu_ps(src.as_ptr().add(o)),
        );
        _mm256_storeu_ps(dst.as_mut_ptr().add(o), v);
    }
    let t = chunks * 8;
    scalar::add_inplace(&mut dst[t..], &src[t..]);
}

/// `dst += alpha * src`. Multiply-then-add (no FMA) so the result is
/// bitwise identical to the scalar fallback.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn axpy(dst: &mut [f32], alpha: f32, src: &[f32]) {
    let av = _mm256_set1_ps(alpha);
    let chunks = dst.len() / 8;
    for c in 0..chunks {
        let o = c * 8;
        let prod = _mm256_mul_ps(av, _mm256_loadu_ps(src.as_ptr().add(o)));
        let v = _mm256_add_ps(_mm256_loadu_ps(dst.as_ptr().add(o)), prod);
        _mm256_storeu_ps(dst.as_mut_ptr().add(o), v);
    }
    let t = chunks * 8;
    scalar::axpy(&mut dst[t..], alpha, &src[t..]);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn scale(dst: &mut [f32], src: &[f32], alpha: f32) {
    let av = _mm256_set1_ps(alpha);
    let chunks = dst.len() / 8;
    for c in 0..chunks {
        let o = c * 8;
        _mm256_storeu_ps(
            dst.as_mut_ptr().add(o),
            _mm256_mul_ps(av, _mm256_loadu_ps(src.as_ptr().add(o))),
        );
    }
    let t = chunks * 8;
    scalar::scale(&mut dst[t..], &src[t..], alpha);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn scale_inplace(dst: &mut [f32], alpha: f32) {
    let av = _mm256_set1_ps(alpha);
    let chunks = dst.len() / 8;
    for c in 0..chunks {
        let o = c * 8;
        _mm256_storeu_ps(
            dst.as_mut_ptr().add(o),
            _mm256_mul_ps(av, _mm256_loadu_ps(dst.as_ptr().add(o))),
        );
    }
    let t = chunks * 8;
    scalar::scale_inplace(&mut dst[t..], alpha);
}

/// 8-lane sum, bitwise identical to [`scalar::sum`] (same lane grouping,
/// plain adds, same reduction tree, same sequential tail).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn sum(src: &[f32]) -> f32 {
    let mut acc = _mm256_setzero_ps();
    let chunks = src.len() / 8;
    for c in 0..chunks {
        acc = _mm256_add_ps(acc, _mm256_loadu_ps(src.as_ptr().add(c * 8)));
    }
    let mut tail = 0.0f32;
    for &x in &src[chunks * 8..] {
        tail += x;
    }
    hsum256(acc) + tail
}

/// 8-lane sum of squares, bitwise identical to [`scalar::sum_sq`].
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn sum_sq(src: &[f32]) -> f32 {
    let mut acc = _mm256_setzero_ps();
    let chunks = src.len() / 8;
    for c in 0..chunks {
        let v = _mm256_loadu_ps(src.as_ptr().add(c * 8));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(v, v));
    }
    let mut tail = 0.0f32;
    for &x in &src[chunks * 8..] {
        tail += x * x;
    }
    hsum256(acc) + tail
}

/// Vectorised fused Adam step. Mirrors [`scalar::fused_adam`] operation for
/// operation (mul/add/div/sqrt, no FMA) — all correctly-rounded IEEE ops,
/// so the two paths are bitwise identical.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn fused_adam(
    p: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    s: &AdamStep,
) {
    let b1 = _mm256_set1_ps(s.beta1);
    let omb1 = _mm256_set1_ps(1.0 - s.beta1);
    let b2 = _mm256_set1_ps(s.beta2);
    let omb2 = _mm256_set1_ps(1.0 - s.beta2);
    // Reciprocal folds computed in scalar f32 exactly as the scalar kernel
    // computes them, so both ISAs broadcast the identical constants.
    let c1 = _mm256_set1_ps(s.lr / s.bias1);
    let inv_b2 = _mm256_set1_ps(1.0 / s.bias2);
    let eps = _mm256_set1_ps(s.eps);
    let chunks = p.len() / 8;
    for c in 0..chunks {
        let o = c * 8;
        let gv = _mm256_loadu_ps(g.as_ptr().add(o));
        let mut mv = _mm256_loadu_ps(m.as_ptr().add(o));
        let mut vv = _mm256_loadu_ps(v.as_ptr().add(o));
        mv = _mm256_add_ps(_mm256_mul_ps(b1, mv), _mm256_mul_ps(omb1, gv));
        // Left-associative `((1-β₂)·g)·g`, matching the scalar kernel
        // bit-for-bit.
        vv = _mm256_add_ps(
            _mm256_mul_ps(b2, vv),
            _mm256_mul_ps(_mm256_mul_ps(omb2, gv), gv),
        );
        _mm256_storeu_ps(m.as_mut_ptr().add(o), mv);
        _mm256_storeu_ps(v.as_mut_ptr().add(o), vv);
        let denom = _mm256_add_ps(_mm256_sqrt_ps(_mm256_mul_ps(vv, inv_b2)), eps);
        let step = _mm256_div_ps(_mm256_mul_ps(c1, mv), denom);
        let pv = _mm256_sub_ps(_mm256_loadu_ps(p.as_ptr().add(o)), step);
        _mm256_storeu_ps(p.as_mut_ptr().add(o), pv);
    }
    let t = chunks * 8;
    scalar::fused_adam(&mut p[t..], &mut m[t..], &mut v[t..], &g[t..], s);
}
