//! Work partitioning helpers for the parallel kernels.
//!
//! Kernels in this crate are embarrassingly row-parallel: the output rows of
//! a GEMM or SpMM are independent. We split the output row range into
//! contiguous bands and run the bands on the persistent worker pool in
//! [`crate::pool`]. Uneven kernels (SpMM with skewed degree distributions)
//! oversplit into more bands than threads so the pool's chunk-claiming
//! counter can balance the load dynamically.
//!
//! Each kernel class has its own threshold below which the sequential loop
//! wins — dispatching to the pool costs on the order of a few microseconds,
//! which differs by orders of magnitude relative to a GEMM FLOP, an SpMM
//! multiply-add through an index indirection, and a streaming elementwise
//! visit.

use crate::pool::{num_threads, run_chunks};

/// Minimum scalar multiply-adds (`m * k * n`) before a dense GEMM engages
/// the pool. Calibrated against the dispatched SIMD micro-kernels: the
/// vectorised GEMM retires multiply-adds several times faster than the old
/// scalar loop, so the pool's dispatch overhead only amortises at a
/// correspondingly larger problem.
pub const GEMM_FLOP_THRESHOLD: usize = 8_000_000;

/// Minimum work units (`nnz * dense_cols`) before a sparse × dense product
/// engages the pool. Lower than the GEMM threshold: each SpMM work unit
/// carries an index indirection and a gathered row read, so it costs several
/// times a GEMM FLOP even vectorised.
pub(crate) const SPMM_WORK_THRESHOLD: usize = 1_000_000;

/// Minimum element count before streaming elementwise kernels (maps, zips,
/// broadcasts, reductions) engage the pool. These touch each element once
/// and are memory-bound; the vectorised kernels halve the per-element cost,
/// doubling the dispatch-overhead amortisation point.
pub(crate) const ELEMWISE_THRESHOLD: usize = 131_072;

/// Bands per thread for row-parallel kernels with potentially uneven row
/// cost. More bands than threads lets the pool's claim counter rebalance.
pub(crate) const OVERSPLIT: usize = 4;

/// Threads to use for a kernel of class-specific `work` against `threshold`.
pub(crate) fn threads_for(work: usize, threshold: usize) -> usize {
    if work >= threshold {
        num_threads()
    } else {
        1
    }
}

/// Split `rows` output rows into at most `threads` contiguous chunks of
/// near-equal size. Returns `(start, end)` half-open ranges; never empty
/// chunks.
pub(crate) fn row_chunks(rows: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.max(1).min(rows.max(1));
    let base = rows / threads;
    let rem = rows % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0;
    for t in 0..threads {
        let len = base + usize::from(t < rem);
        if len == 0 {
            break;
        }
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Run `body` over each chunk of `out`, where chunk `i` covers output rows
/// `ranges[i]` and receives the corresponding mutable slice of `out`
/// (rows × `row_len` elements). Runs inline when only one chunk; otherwise
/// the bands are executed on the persistent worker pool.
pub(crate) fn for_each_row_chunk<F>(
    out: &mut [f32],
    row_len: usize,
    ranges: &[(usize, usize)],
    body: F,
) where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    if ranges.len() <= 1 {
        if let Some(&(s, e)) = ranges.first() {
            body(s, e, &mut out[s * row_len..e * row_len]);
        }
        return;
    }
    // Pre-slice the output into disjoint row bands on the caller's thread;
    // store the band pointers as addresses so the task closure stays Sync.
    let mut bands: Vec<(usize, usize, usize, usize)> = Vec::with_capacity(ranges.len());
    let mut rest = out;
    let mut consumed = 0;
    for &(s, e) in ranges {
        let (band, tail) = rest.split_at_mut((e - s) * row_len);
        debug_assert_eq!(s * row_len, consumed);
        consumed += band.len();
        bands.push((s, e, band.as_mut_ptr() as usize, band.len()));
        rest = tail;
    }
    run_chunks(bands.len(), &|i| {
        let (s, e, addr, len) = bands[i];
        // Safety: band `i` is a disjoint sub-slice of `out` (constructed via
        // `split_at_mut` above) and the pool runs each index exactly once.
        let band = unsafe { std::slice::from_raw_parts_mut(addr as *mut f32, len) };
        body(s, e, band);
    });
}

/// Split `rows` into bands for a row-parallel kernel on `threads` threads,
/// oversplitting (see [`OVERSPLIT`]) when actually parallel so the pool can
/// load-balance uneven rows.
pub(crate) fn band_ranges(rows: usize, threads: usize) -> Vec<(usize, usize)> {
    row_chunks(rows, if threads > 1 { threads * OVERSPLIT } else { 1 })
}

/// Row-parallel kernel driver: run `body` over row bands of `out`
/// (`rows × row_len`), oversplit across the pool when `threads > 1`. When
/// `threads_for` resolved to a single thread the body runs inline on the
/// whole output — no range vector, no band bookkeeping, no pool dispatch.
pub(crate) fn for_each_row_band<F>(
    out: &mut [f32],
    row_len: usize,
    rows: usize,
    threads: usize,
    body: F,
) where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    if threads <= 1 || rows <= 1 {
        body(0, rows, out);
        return;
    }
    let ranges = band_ranges(rows, threads);
    for_each_row_chunk(out, row_len, &ranges, body);
}

/// Run `body` over matching chunks of three equal-length slices (fused
/// elementwise updates, e.g. optimizer steps touching parameter, first and
/// second moment buffers in one pass). Runs inline on the whole slices when
/// `threads <= 1`; otherwise chunk `i` covers `row_chunks(len, threads)[i]`
/// and `body` receives the chunk start offset and the three sub-slices.
pub(crate) fn for_each_chunk3<F>(
    a: &mut [f32],
    b: &mut [f32],
    c: &mut [f32],
    threads: usize,
    body: F,
) where
    F: Fn(usize, &mut [f32], &mut [f32], &mut [f32]) + Sync,
{
    assert_eq!(a.len(), b.len(), "for_each_chunk3: length mismatch");
    assert_eq!(a.len(), c.len(), "for_each_chunk3: length mismatch");
    if threads <= 1 || a.len() <= 1 {
        body(0, a, b, c);
        return;
    }
    let ranges = row_chunks(a.len(), threads);
    // Addresses as usize so the task closure stays Sync; rebuilt per chunk.
    let (pa, pb, pc) = (
        a.as_mut_ptr() as usize,
        b.as_mut_ptr() as usize,
        c.as_mut_ptr() as usize,
    );
    run_chunks(ranges.len(), &|i| {
        let (s, e) = ranges[i];
        let len = e - s;
        // Safety: `ranges` are disjoint sub-ranges of each slice and the
        // pool runs each chunk index exactly once, so no two tasks alias.
        let (sa, sb, sc) = unsafe {
            (
                std::slice::from_raw_parts_mut((pa as *mut f32).add(s), len),
                std::slice::from_raw_parts_mut((pb as *mut f32).add(s), len),
                std::slice::from_raw_parts_mut((pc as *mut f32).add(s), len),
            )
        };
        body(s, sa, sb, sc);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pin_test_threads() {
        let _ = crate::pool::set_num_threads(4);
    }

    #[test]
    fn chunks_cover_range_without_overlap() {
        for rows in [0usize, 1, 2, 7, 8, 100] {
            for threads in [1usize, 2, 3, 8, 200] {
                let chunks = row_chunks(rows, threads);
                let mut next = 0;
                for (s, e) in &chunks {
                    assert_eq!(*s, next);
                    assert!(e > s);
                    next = *e;
                }
                assert_eq!(next, rows, "chunks must end exactly at `rows`");
                let total: usize = chunks.iter().map(|(s, e)| e - s).sum();
                assert_eq!(total, rows);
            }
        }
    }

    #[test]
    fn chunked_execution_touches_every_row_once() {
        pin_test_threads();
        let rows = 37;
        let cols = 5;
        let mut out = vec![0.0f32; rows * cols];
        let ranges = row_chunks(rows, 4);
        for_each_row_chunk(&mut out, cols, &ranges, |s, e, band| {
            for (local, r) in (s..e).enumerate() {
                for c in 0..cols {
                    band[local * cols + c] += (r * cols + c) as f32;
                }
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn single_chunk_runs_inline() {
        let mut out = vec![0.0f32; 6];
        for_each_row_chunk(&mut out, 3, &[(0, 2)], |_, _, band| {
            for v in band.iter_mut() {
                *v = 1.0;
            }
        });
        assert!(out.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn row_band_sequential_path_gets_whole_output() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let mut out = vec![0.0f32; 12];
        for_each_row_band(&mut out, 3, 4, 1, |s, e, band| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!((s, e), (0, 4));
            assert_eq!(band.len(), 12);
            for v in band.iter_mut() {
                *v = 1.0;
            }
        });
        // One inline call, no banding, no pool dispatch.
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert!(out.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn oversplit_banding_matches_sequential_fill() {
        pin_test_threads();
        let rows = 101;
        let cols = 3;
        let mut out = vec![0.0f32; rows * cols];
        let ranges = row_chunks(rows, 4 * OVERSPLIT);
        for_each_row_chunk(&mut out, cols, &ranges, |s, _e, band| {
            for (offset, v) in band.iter_mut().enumerate() {
                *v = (s * cols + offset) as f32;
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn chunk3_updates_all_slices_consistently() {
        pin_test_threads();
        let n = 1000;
        let mut a = vec![1.0f32; n];
        let mut b = vec![2.0f32; n];
        let mut c = vec![3.0f32; n];
        for_each_chunk3(&mut a, &mut b, &mut c, 4, |s, ca, cb, cc| {
            for i in 0..ca.len() {
                ca[i] += (s + i) as f32;
                cb[i] *= 2.0;
                cc[i] = ca[i] + cb[i];
            }
        });
        for i in 0..n {
            assert_eq!(a[i], 1.0 + i as f32);
            assert_eq!(b[i], 4.0);
            assert_eq!(c[i], a[i] + 4.0);
        }
    }

    #[test]
    fn threads_for_respects_threshold() {
        pin_test_threads();
        assert_eq!(threads_for(GEMM_FLOP_THRESHOLD - 1, GEMM_FLOP_THRESHOLD), 1);
        assert!(threads_for(GEMM_FLOP_THRESHOLD, GEMM_FLOP_THRESHOLD) >= 1);
    }
}
