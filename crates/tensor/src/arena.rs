//! Size-class buffer arena for recycling `Matrix` storage.
//!
//! Training loops allocate and drop the same handful of buffer sizes every
//! step (activations, gradients, optimizer scratch). The arena intercepts
//! those allocations: inside an [`scope`] every buffer freed by a dropped
//! [`crate::Matrix`] is stashed on a thread-local free list, and the next
//! allocation of a similar size pops it back instead of going to the global
//! allocator.
//!
//! Free lists are keyed by geometric size class, not by exact length.
//! Lengths up to 16 are their own class; above that every power of two is
//! split into eight evenly spaced classes, so a class is at most 12.5%
//! larger than any request it serves. A fresh buffer is allocated at the
//! capacity of its request's class, and a released buffer is filed under
//! the largest class its capacity covers, so a popped buffer always holds
//! its request without reallocating. Sampled mini-batches change shape
//! every step: keyed by exact length, each step's activations and
//! gradients would be filed under a length no later step asks for, and
//! retained until the scope ends. Keyed by class, the next batch, a few
//! percent larger or smaller, reuses them.
//!
//! There is deliberately no cap on the bytes a live scope retains. Classes
//! bound the waste to one step's working set; a 64 MiB cap measured no RSS
//! gain on a 200k-node out-of-core VBM fit (98 vs 90 MB) and cost 9% wall
//! time on a 50k-node out-of-core VGOD fit (for 397 → 277 MB).
//!
//! Invariants:
//!
//! - Recycled buffers are always fully overwritten before they are handed
//!   out (zero-fill, constant-fill or copy), so arena reuse can never change
//!   numeric results — warm and cold runs are bit-identical.
//! - Outside a scope, allocation and release pass straight through to the
//!   global allocator; the free lists themselves survive scope exits (so a
//!   second training run starts warm) but are trimmed to a bounded size. A
//!   class whose list empties is removed.
//! - The arena is strictly thread-local. Worker-pool threads never construct
//!   or drop matrices (outputs are allocated on the calling thread), so the
//!   training thread's free lists see all recycling traffic.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Counters describing arena traffic since the last [`reset_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers that had to come from the global allocator.
    pub fresh: u64,
    /// Buffers served from the free lists.
    pub reused: u64,
}

#[derive(Default)]
struct BufferArena {
    /// Non-empty free lists keyed by size class (see [`class_ceil`]).
    free: HashMap<usize, Vec<Vec<f32>>>,
    /// Nesting depth of active [`scope`] calls; 0 = disengaged.
    depth: usize,
    stats: ArenaStats,
}

thread_local! {
    static ARENA: RefCell<BufferArena> = RefCell::new(BufferArena::default());
}

/// Lengths up to this are size classes of their own.
const EXACT_CLASSES: usize = 16;

/// Spacing of the classes in `len`'s octave `[2^k, 2^(k+1))`: eight steps
/// of `2^(k-3)`. Only called for `len > EXACT_CLASSES`, so `k ≥ 4`.
fn class_step(len: usize) -> usize {
    1 << (len.ilog2() - 3)
}

/// The size class that serves a request of `len` values: the smallest
/// class `≥ len`, at most `len · 9/8`.
fn class_ceil(len: usize) -> usize {
    if len <= EXACT_CLASSES {
        return len;
    }
    len.next_multiple_of(class_step(len))
}

/// The largest size class `≤ cap`: a buffer of capacity `cap` filed there
/// holds every request that class serves.
fn class_floor(cap: usize) -> usize {
    if cap <= EXACT_CLASSES {
        return cap;
    }
    cap & !(class_step(cap) - 1)
}

/// Per-size-class retention cap applied when the outermost scope exits.
/// While a scope is live the lists are unbounded (an epoch can keep dozens
/// of same-class buffers in flight); between scopes we keep enough to make
/// the next run warm without pinning a whole training run's worth of memory.
fn retain_cap() -> usize {
    8 * crate::pool::num_threads().max(1)
}

/// Run `f` with the thread-local buffer arena engaged.
///
/// While engaged, buffers released by dropped matrices are retained for
/// reuse instead of being returned to the global allocator. Scopes nest;
/// the free lists are trimmed when the outermost scope exits.
pub fn scope<R>(f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            ARENA.with(|a| {
                let mut a = a.borrow_mut();
                a.depth -= 1;
                if a.depth == 0 {
                    let cap = retain_cap();
                    for list in a.free.values_mut() {
                        list.truncate(cap);
                    }
                }
            });
        }
    }
    ARENA.with(|a| a.borrow_mut().depth += 1);
    let _guard = Guard;
    f()
}

/// Drop every retained buffer, returning the memory to the global allocator.
pub fn clear() {
    ARENA.with(|a| a.borrow_mut().free.clear());
}

/// Arena traffic counters since the last [`reset_stats`] on this thread.
pub fn stats() -> ArenaStats {
    ARENA.with(|a| a.borrow().stats)
}

/// Zero the arena traffic counters on this thread.
pub fn reset_stats() {
    ARENA.with(|a| a.borrow_mut().stats = ArenaStats::default());
}

/// Pop a retained buffer of size class `class`, if the arena is engaged
/// and holds one.
fn take_recycled(class: usize) -> Option<Vec<f32>> {
    ARENA.with(|a| {
        let a = &mut *a.borrow_mut();
        let buf = match a.free.entry(class) {
            Entry::Occupied(mut list) if a.depth > 0 => {
                let buf = list.get_mut().pop();
                if list.get().is_empty() {
                    list.remove();
                }
                buf
            }
            _ => None,
        };
        if buf.is_some() {
            a.stats.reused += 1;
        } else {
            a.stats.fresh += 1;
        }
        buf
    })
}

/// Allocate a buffer of `len` zeros, recycling arena storage when engaged.
pub fn alloc_zeroed(len: usize) -> Vec<f32> {
    let class = class_ceil(len);
    match take_recycled(class) {
        Some(mut v) => {
            v.clear();
            v.resize(len, 0.0);
            v
        }
        None => {
            let mut v = vec![0.0; class];
            v.truncate(len);
            v
        }
    }
}

/// Allocate a buffer of `len` copies of `value`, recycling when engaged.
pub fn alloc_filled(len: usize, value: f32) -> Vec<f32> {
    let class = class_ceil(len);
    let mut v = take_recycled(class).unwrap_or_else(|| Vec::with_capacity(class));
    v.clear();
    v.resize(len, value);
    v
}

/// Allocate a copy of `src`, recycling arena storage when engaged.
pub fn alloc_copy(src: &[f32]) -> Vec<f32> {
    let class = class_ceil(src.len());
    let mut v = take_recycled(class).unwrap_or_else(|| Vec::with_capacity(class));
    v.clear();
    v.extend_from_slice(src);
    v
}

/// Return a buffer to the arena. Outside a scope (or for empty buffers)
/// this simply drops it.
pub fn release(buf: Vec<f32>) {
    if buf.capacity() == 0 {
        return;
    }
    // `try_with` so matrices dropped during thread teardown (after the
    // thread-local arena is destroyed) fall back to a plain drop.
    let _ = ARENA.try_with(|a| {
        let mut a = a.borrow_mut();
        if a.depth > 0 {
            a.free
                .entry(class_floor(buf.capacity()))
                .or_default()
                .push(buf);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Buffers held on this thread's free lists, read from the arena itself.
    fn retained() -> usize {
        ARENA.with(|a| a.borrow().free.values().map(Vec::len).sum())
    }

    /// Size classes currently present on this thread's free lists.
    fn classes() -> usize {
        ARENA.with(|a| a.borrow().free.len())
    }

    #[test]
    fn small_lengths_are_exact_classes() {
        for len in 0..=EXACT_CLASSES {
            assert_eq!(class_ceil(len), len);
            assert_eq!(class_floor(len), len);
        }
        // Eight classes per octave above the exact range.
        let octave: Vec<usize> = (17..=32).map(class_ceil).collect();
        assert_eq!(
            octave,
            [18, 18, 20, 20, 22, 22, 24, 24, 26, 26, 28, 28, 30, 30, 32, 32]
        );
        assert_eq!(class_ceil(100_000), 106_496);
    }

    #[test]
    fn class_bounds_hold_exhaustively_for_small_lengths() {
        for len in 0..=1 << 14 {
            let c = class_ceil(len);
            assert!(c >= len && c <= len + len / 8, "len {len} -> class {c}");
            assert_eq!(class_floor(c), c, "class {c} must be its own floor");
            let f = class_floor(len);
            assert!(f <= len && class_ceil(f) == f, "cap {len} -> floor {f}");
        }
    }

    proptest! {
        #[test]
        fn class_ceil_and_floor_bound_each_other(len in 0usize..1 << 40) {
            let c = class_ceil(len);
            prop_assert!(c >= len);
            // `len · 9/8`, computed without overflow.
            prop_assert!(c <= len + len / 8);
            prop_assert!(class_floor(len) <= len);
            prop_assert_eq!(class_floor(c), c);
        }

        #[test]
        fn popped_buffer_holds_request_without_reallocating(
            cap in 1usize..5_000,
            len in 0usize..5_000,
        ) {
            clear();
            scope(|| {
                let buf: Vec<f32> = Vec::with_capacity(cap);
                let ptr = buf.as_ptr();
                release(buf);
                reset_stats();
                let v = alloc_zeroed(len);
                assert!(v.capacity() >= len);
                assert_eq!(v.len(), len);
                if stats().reused == 1 {
                    // The released buffer itself came back, unresized.
                    assert_eq!(v.as_ptr(), ptr);
                    assert_eq!(v.capacity(), cap);
                }
                // A reuse happens exactly when the buffer was filed under
                // the request's class.
                assert_eq!(stats().reused == 1, class_floor(cap) == class_ceil(len));
            });
            clear();
        }
    }

    #[test]
    fn drifting_batch_lengths_reuse_instead_of_piling_up() {
        // A sampled mini-batch is a few percent larger or smaller each
        // step: 200 distinct lengths within 1% of each other, each
        // allocated and released once inside one long-lived scope. With
        // exact-length free lists every round leaves one more buffer behind.
        clear();
        scope(|| {
            for i in 0..200 {
                let v = alloc_zeroed(100_000 + 5 * i);
                assert_eq!(classes(), 0, "an emptied class must be removed");
                release(v);
            }
            assert!(
                retained() <= 2,
                "{} buffers retained for 200 near-equal lengths",
                retained()
            );
        });
        clear();
    }

    #[test]
    fn disengaged_is_pass_through() {
        clear();
        reset_stats();
        release(vec![1.0; 16]);
        let v = alloc_zeroed(16);
        assert_eq!(v, vec![0.0; 16]);
        // Nothing was stashed, so the alloc was fresh.
        assert_eq!(stats().reused, 0);
    }

    #[test]
    fn engaged_scope_recycles_and_overwrites() {
        clear();
        scope(|| {
            release(vec![7.0; 8]);
            reset_stats();
            let z = alloc_zeroed(8);
            assert_eq!(z, vec![0.0; 8], "recycled buffer must be re-zeroed");
            assert_eq!(
                stats(),
                ArenaStats {
                    fresh: 0,
                    reused: 1
                }
            );
            release(z);
            let f = alloc_filled(8, 3.5);
            assert_eq!(f, vec![3.5; 8]);
            release(f);
            let c = alloc_copy(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
            assert_eq!(c[7], 8.0);
            assert_eq!(stats().reused, 3);
        });
        clear();
    }

    #[test]
    fn free_lists_survive_scope_exit() {
        clear();
        scope(|| release(vec![1.0; 32]));
        scope(|| {
            reset_stats();
            let _v = alloc_zeroed(32);
            assert_eq!(stats().reused, 1, "second scope should start warm");
        });
        clear();
    }
}
