//! Portable scalar micro-kernels — the `VGOD_SIMD=scalar` fallback.
//!
//! These are written 8/16-wide-unrolled over fixed-size lane arrays so LLVM
//! can autovectorise them to whatever the build target offers (SSE2 on the
//! default `x86_64` baseline), while keeping the exact per-element
//! accumulation order pinned down:
//!
//! - GEMM and SpMM accumulate strictly k- / neighbour-sequentially per
//!   output element with separate multiply-then-add rounding — the same
//!   order the pre-kernel scalar loops used.
//! - Reductions ([`sum`], [`sum_sq`], [`dot`]) fold into 8 lanes
//!   (`lane = index % 8`) and collapse them with the fixed pairwise tree in
//!   [`hsum8`], which mirrors the AVX2 horizontal-add sequence exactly, so
//!   lane-structured reductions are bitwise identical across ISAs.
//! - Elementwise kernels and [`fused_adam`] are single correctly-rounded
//!   IEEE ops per element and therefore also bitwise identical across ISAs.

use super::{AdamStep, Panels, NARROW, NR};

/// `out[i, j0..j0+nr] = Σ_k a[i, k] · panel[k, j]` for one packed B panel.
///
/// `out` is an `m × n` row-major band, `a` the matching `m × k` band of the
/// left operand, `bp` the full packed B (see [`super::pack_b`]). Each output
/// element accumulates k-sequentially (multiply, then add — no fused
/// rounding), matching the historical scalar GEMM bit-for-bit.
pub(crate) fn gemm_nn(out: &mut [f32], a: &[f32], bp: &[f32], m: usize, k: usize, n: usize) {
    let panels = n.div_ceil(NR);
    for p in 0..panels {
        let j0 = p * NR;
        let nr = NR.min(n - j0);
        let panel = &bp[p * k * NR..(p + 1) * k * NR];
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let mut tile = [0.0f32; NR];
            for (kk, &aik) in a_row.iter().enumerate() {
                let b_row = &panel[kk * NR..kk * NR + NR];
                for (t, &bv) in tile.iter_mut().zip(b_row) {
                    *t += aik * bv;
                }
            }
            out[i * n + j0..i * n + j0 + nr].copy_from_slice(&tile[..nr]);
        }
    }
}

/// GEMM for narrow outputs (`n < 8`, a single partially-filled panel):
/// identical accumulation order to [`gemm_nn`] but without the padded
/// lanes. Both ISA paths dispatch here — a 16-wide tile would spend most of
/// its lanes on padding. Eight rows advance together, so `8·n` independent
/// k-sequential chains are in flight; the width is a const parameter so
/// every accumulator stays in a register.
pub(crate) fn gemm_narrow(out: &mut [f32], a: &[f32], bp: &[f32], m: usize, k: usize, n: usize) {
    debug_assert!(n < NARROW);
    if k == 0 {
        out[..m * n].fill(0.0);
        return;
    }
    match n {
        0 => {}
        1 => narrow::<1>(out, a, bp, m, k),
        2 => narrow::<2>(out, a, bp, m, k),
        3 => narrow::<3>(out, a, bp, m, k),
        4 => narrow::<4>(out, a, bp, m, k),
        5 => narrow::<5>(out, a, bp, m, k),
        6 => narrow::<6>(out, a, bp, m, k),
        7 => narrow::<7>(out, a, bp, m, k),
        _ => unreachable!("gemm_narrow: n = {n} is not narrow"),
    }
}

/// [`gemm_narrow`] at width `N`: blocks of eight rows, then one row at a
/// time for the remainder.
fn narrow<const N: usize>(out: &mut [f32], a: &[f32], bp: &[f32], m: usize, k: usize) {
    const ROWS: usize = 8;
    let full = m / ROWS * ROWS;
    let (out_full, out_tail) = out[..m * N].split_at_mut(full * N);
    for (o, block) in out_full
        .chunks_exact_mut(ROWS * N)
        .zip(a.chunks_exact(ROWS * k))
    {
        narrow_rows::<N, ROWS>(o, block, bp, k);
    }
    for (o, row) in out_tail
        .chunks_exact_mut(N)
        .zip(a[full * k..].chunks_exact(k))
    {
        narrow_rows::<N, 1>(o, row, bp, k);
    }
}

/// `R` consecutive output rows of [`gemm_narrow`]: every element
/// accumulates k-sequentially, multiply then add.
#[inline(always)]
fn narrow_rows<const N: usize, const R: usize>(out: &mut [f32], a: &[f32], bp: &[f32], k: usize) {
    let rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let mut acc = [[0.0f32; N]; R];
    for (kk, b_row) in bp.chunks_exact(NR).take(k).enumerate() {
        for (t, row) in acc.iter_mut().zip(&rows) {
            let aik = row[kk];
            for (x, &bv) in t.iter_mut().zip(&b_row[..N]) {
                *x += aik * bv;
            }
        }
    }
    for (o, t) in out.chunks_exact_mut(N).zip(&acc) {
        o.copy_from_slice(t);
    }
}

/// `out = aᵀ · B` for `n ≥ NARROW` with `a` read in place (see
/// [`super::gemm_tn`]). Four output rows share each B panel row; every
/// element accumulates k-sequentially with multiply-then-add rounding,
/// exactly as [`gemm_nn`] does on the transposed operand.
pub(crate) fn gemm_tn(
    out: &mut [f32],
    a: &[f32],
    lda: usize,
    b: Panels,
    m: usize,
    k: usize,
    n: usize,
) {
    const ROWS: usize = 4;
    for p in 0..n.div_ceil(NR) {
        let j0 = p * NR;
        let nr = NR.min(n - j0);
        let panel = &b.data[p * b.panel_step..];
        let mut i = 0;
        while i < m {
            let rows = ROWS.min(m - i);
            let mut tile = [[0.0f32; NR]; ROWS];
            for kk in 0..k {
                let b_row = &panel[kk * b.ldb..kk * b.ldb + NR];
                let a_seg = &a[kk * lda + i..kk * lda + i + rows];
                for (t, &aik) in tile.iter_mut().zip(a_seg) {
                    for (x, &bv) in t.iter_mut().zip(b_row) {
                        *x += aik * bv;
                    }
                }
            }
            for (r, t) in tile[..rows].iter().enumerate() {
                let o = (i + r) * n + j0;
                out[o..o + nr].copy_from_slice(&t[..nr]);
            }
            i += rows;
        }
    }
}

/// `out = aᵀ · B` for `n < NARROW`: vectorised across output rows (a row of
/// `a` holds consecutive output rows) while each output keeps the
/// k-sequential multiply-then-add chain of [`gemm_narrow`].
pub(crate) fn gemm_tn_narrow(
    out: &mut [f32],
    a: &[f32],
    lda: usize,
    b: Panels,
    m: usize,
    k: usize,
    n: usize,
) {
    const ROWS: usize = 16;
    for j in 0..n {
        let mut i = 0;
        while i < m {
            let rows = ROWS.min(m - i);
            let mut acc = [0.0f32; ROWS];
            for kk in 0..k {
                let bv = b.data[kk * b.ldb + j];
                for (t, &av) in acc.iter_mut().zip(&a[kk * lda + i..kk * lda + i + rows]) {
                    *t += av * bv;
                }
            }
            for (r, &v) in acc[..rows].iter().enumerate() {
                out[(i + r) * n + j] = v;
            }
            i += rows;
        }
    }
}

/// `out[i, j] = 0 + (0 + a[i] · b[j])`: the `k == 1` case of [`gemm_nt`],
/// bitwise equal to what [`dot`] returns for one-element rows.
pub(crate) fn outer(out: &mut [f32], a: &[f32], b: &[f32], n: usize) {
    if n == 0 {
        return;
    }
    for (row, &ai) in out.chunks_exact_mut(n).zip(a) {
        for (o, &bj) in row.iter_mut().zip(b) {
            *o = 0.0 + (0.0 + ai * bj);
        }
    }
}

/// `out[i, j] = a_row_i · b_row_j` over contiguous k (both operands
/// row-major over k). Backs `matmul_nt`.
pub(crate) fn gemm_nt(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for (j, o) in out[i * n..(i + 1) * n].iter_mut().enumerate() {
            *o = dot(a_row, &b[j * k..(j + 1) * k]);
        }
    }
}

/// 8-lane dot product with the fixed [`hsum8`] reduction tree.
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for c in 0..chunks {
        let av = &a[c * 8..c * 8 + 8];
        let bv = &b[c * 8..c * 8 + 8];
        for ((l, &x), &y) in acc.iter_mut().zip(av).zip(bv) {
            *l += x * y;
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in a[chunks * 8..].iter().zip(&b[chunks * 8..]) {
        tail += x * y;
    }
    hsum8(&acc) + tail
}

/// Collapse 8 accumulator lanes in the same pairwise order as the AVX2
/// horizontal reduction (fold high half onto low half twice, then the last
/// pair), so lane-structured reductions agree bitwise across ISAs.
pub(crate) fn hsum8(l: &[f32; 8]) -> f32 {
    let q = [l[0] + l[4], l[1] + l[5], l[2] + l[6], l[3] + l[7]];
    let d = [q[0] + q[2], q[1] + q[3]];
    d[0] + d[1]
}

/// SpMM over output rows `s..e`: `band` holds those rows (pre-zeroed,
/// `(e-s) × d` row-major) and accumulates `value · dense[col]` in stored
/// (neighbour) order — identical to the historical CSR loop.
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
    for (local, r) in (s..e).enumerate() {
        let out_row = &mut band[local * d..(local + 1) * d];
        let (rs, re) = (indptr[r], indptr[r + 1]);
        for (&c, &v) in indices[rs..re].iter().zip(&values[rs..re]) {
            let src = &dense[c as usize * d..(c as usize + 1) * d];
            for (o, &x) in out_row.iter_mut().zip(src) {
                *o += v * x;
            }
        }
    }
}

pub(crate) fn zip_add(dst: &mut [f32], a: &[f32], b: &[f32]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x + y;
    }
}

pub(crate) fn zip_sub(dst: &mut [f32], a: &[f32], b: &[f32]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x - y;
    }
}

pub(crate) fn zip_mul(dst: &mut [f32], a: &[f32], b: &[f32]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x * y;
    }
}

pub(crate) fn add_inplace(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `dst += alpha * src`, multiply-then-add per element (no fused rounding,
/// bitwise identical across ISAs).
pub(crate) fn axpy(dst: &mut [f32], alpha: f32, src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += alpha * s;
    }
}

pub(crate) fn scale(dst: &mut [f32], src: &[f32], alpha: f32) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = alpha * s;
    }
}

pub(crate) fn scale_inplace(dst: &mut [f32], alpha: f32) {
    for d in dst.iter_mut() {
        *d *= alpha;
    }
}

/// 8-lane sum with the fixed [`hsum8`] reduction tree plus a sequential
/// tail. Bitwise identical across ISAs (plain adds only).
pub(crate) fn sum(src: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let chunks = src.len() / 8;
    for c in 0..chunks {
        for (l, &x) in acc.iter_mut().zip(&src[c * 8..c * 8 + 8]) {
            *l += x;
        }
    }
    let mut tail = 0.0f32;
    for &x in &src[chunks * 8..] {
        tail += x;
    }
    hsum8(&acc) + tail
}

/// 8-lane sum of squares (multiply then add — no fused rounding).
pub(crate) fn sum_sq(src: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let chunks = src.len() / 8;
    for c in 0..chunks {
        for (l, &x) in acc.iter_mut().zip(&src[c * 8..c * 8 + 8]) {
            *l += x * x;
        }
    }
    let mut tail = 0.0f32;
    for &x in &src[chunks * 8..] {
        tail += x * x;
    }
    hsum8(&acc) + tail
}

/// Fused Adam update over one chunk: parameter, first/second moment and
/// gradient in a single pass. Every operation is a correctly-rounded IEEE
/// op (no FMA), so the AVX2 version is bitwise identical.
pub(crate) fn fused_adam(p: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], s: &AdamStep) {
    // The bias-correction divisions are folded into one reciprocal multiply
    // each (`lr·m̂ = (lr/b₁)·m`, `v̂ = v·(1/b₂)`), leaving a single divide
    // plus a square root per element — the divider unit is the bottleneck.
    // This drifts from the historical three-division closure by a few ulp;
    // the AVX2 kernel computes the identical sequence, so the two ISAs stay
    // bitwise equal.
    let c1 = s.lr / s.bias1;
    let inv_b2 = 1.0 / s.bias2;
    for (((pv, mv), vv), &gv) in p.iter_mut().zip(m.iter_mut()).zip(v.iter_mut()).zip(g) {
        *mv = s.beta1 * *mv + (1.0 - s.beta1) * gv;
        // Left-associative `(1-β₂)·g·g`, matching the historical closure.
        *vv = s.beta2 * *vv + (1.0 - s.beta2) * gv * gv;
        let denom = (*vv * inv_b2).sqrt() + s.eps;
        *pv -= c1 * *mv / denom;
    }
}
