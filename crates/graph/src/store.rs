//! Graph storage backends: one trait over in-memory and out-of-core graphs.
//!
//! [`GraphStore`] is the read-side abstraction every detector consumes via
//! the sampled fit/score paths: neighbour lists, attribute rows, and
//! streaming visitors, with no assumption that the whole graph fits in RAM.
//! Two backends implement it:
//!
//! * [`AttributedGraph`] — the existing in-memory representation (the
//!   small-graph fast path; `as_full_graph` exposes it so callers can keep
//!   the bit-identical full-graph code path).
//! * [`OocStore`] — a chunked on-disk CSR + attribute store with an explicit
//!   memory budget. Fixed-size blocks are demand-paged with `pread` into a
//!   budgeted, sharded (mutex-per-shard) block cache shared by every reader
//!   thread; only the row-pointer array stays resident. Replacement is
//!   scan-resistant segmented LRU by default ([`CachePolicy`]), so one
//!   cold sweep cannot evict the sampler's hot working set.
//!
//! `OocStore` deliberately pages with positioned reads instead of `mmap`:
//! the scale-smoke CI job proves the budget under `ulimit -v`, and a mapping
//! of a multi-gigabyte store would count against the address-space limit
//! even when mostly non-resident. Explicit paging keeps both RSS *and*
//! virtual size bounded by the budget.
//!
//! ## On-disk layout (`VGODSTR1`)
//!
//! ```text
//! magic   8 B   "VGODSTR1"
//! header  7 × u64 LE: n, m_directed, d, attr_block_nodes,
//!                     edge_block_entries, flags (bit 0 = labels), reserved
//! indptr  (n+1) × u64 LE   — resident, counted against the budget
//! indices m_directed × u32 LE — sorted neighbour lists, concatenated
//! attrs   n × d × f32 LE      — row-major
//! labels  n × u32 LE          — only when flags bit 0 is set
//! ```
//!
//! Attribute blocks are row-aligned (`attr_block_nodes` rows per block), so
//! an attribute row never spans blocks; edge rows may, and are copied
//! per-block.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

use crate::attributes::standard_normal;
use crate::{seeded_rng, AttributedGraph};
use vgod_tensor::Matrix;

/// Magic bytes opening every on-disk store file.
pub const STORE_MAGIC: &[u8; 8] = b"VGODSTR1";

/// Default attribute rows per block (`attr_block_nodes`).
pub const DEFAULT_ATTR_BLOCK_NODES: usize = 2048;

/// Default edge entries per block (`edge_block_entries`).
pub const DEFAULT_EDGE_BLOCK_ENTRIES: usize = 65_536;

const HEADER_BYTES: u64 = 8 + 7 * 8;
const FLAG_LABELS: u64 = 1;

// ---------------------------------------------------------------------
// Store statistics
// ---------------------------------------------------------------------

/// Memory/IO counters for a store (or, via [`global_store_stats`], for every
/// store in the process — the serving `/metrics` view).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Cached blocks currently resident.
    pub resident_blocks: u64,
    /// Bytes of cached block data currently resident (the per-store view
    /// adds the always-resident `indptr`; the global view counts cache
    /// blocks only).
    pub resident_bytes: u64,
    /// The configured budget in bytes (0 for in-memory stores).
    pub budget_bytes: u64,
    /// Total bytes read from disk since the store was opened.
    pub bytes_read: u64,
    /// Blocks evicted to stay under the budget.
    pub evictions: u64,
    /// Block fetches served from the cache.
    pub hits: u64,
    /// Block fetches that had to read from disk.
    pub misses: u64,
}

impl StoreStats {
    /// Cache hit rate in `[0, 1]` (0 when no block was ever fetched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The single source of truth for one store's counters. `OocStore::stats`
/// reads these directly, and [`global_store_stats`] sums the same atomics
/// across a process-wide registry — the two views can never disagree.
#[derive(Debug, Default)]
struct StoreCounters {
    resident_blocks: AtomicU64,
    resident_bytes: AtomicU64,
    budget_bytes: AtomicU64,
    bytes_read: AtomicU64,
    evictions: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StoreCounters {
    fn snapshot(&self) -> StoreStats {
        StoreStats {
            resident_blocks: self.resident_blocks.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            budget_bytes: self.budget_bytes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Live stores (weak, so `Drop` needs no unregistration) plus monotonic
/// totals folded in from already-dropped stores.
static REGISTRY: Mutex<Vec<Weak<StoreCounters>>> = Mutex::new(Vec::new());
static RETIRED_BYTES_READ: AtomicU64 = AtomicU64::new(0);
static RETIRED_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static RETIRED_HITS: AtomicU64 = AtomicU64::new(0);
static RETIRED_MISSES: AtomicU64 = AtomicU64::new(0);

fn register_counters(counters: &Arc<StoreCounters>) {
    let mut reg = REGISTRY.lock().expect("store registry poisoned");
    reg.retain(|w| w.strong_count() > 0);
    reg.push(Arc::downgrade(counters));
}

fn retire_counters(counters: &StoreCounters) {
    RETIRED_BYTES_READ.fetch_add(
        counters.bytes_read.load(Ordering::Relaxed),
        Ordering::Relaxed,
    );
    RETIRED_EVICTIONS.fetch_add(
        counters.evictions.load(Ordering::Relaxed),
        Ordering::Relaxed,
    );
    RETIRED_HITS.fetch_add(counters.hits.load(Ordering::Relaxed), Ordering::Relaxed);
    RETIRED_MISSES.fetch_add(counters.misses.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Process-wide out-of-core store counters, aggregated across every
/// [`OocStore`] in the process (serving exposes these on `/metrics`).
/// Resident figures cover live stores; read/eviction/hit/miss totals also
/// include stores that have since been dropped. Reads the exact same
/// per-store atomics as [`GraphStore::stats`].
pub fn global_store_stats() -> StoreStats {
    let mut total = StoreStats {
        bytes_read: RETIRED_BYTES_READ.load(Ordering::Relaxed),
        evictions: RETIRED_EVICTIONS.load(Ordering::Relaxed),
        hits: RETIRED_HITS.load(Ordering::Relaxed),
        misses: RETIRED_MISSES.load(Ordering::Relaxed),
        ..StoreStats::default()
    };
    let mut reg = REGISTRY.lock().expect("store registry poisoned");
    reg.retain(|w| w.strong_count() > 0);
    for weak in reg.iter() {
        let Some(c) = weak.upgrade() else { continue };
        let s = c.snapshot();
        total.resident_blocks += s.resident_blocks;
        total.resident_bytes += s.resident_bytes;
        total.budget_bytes += s.budget_bytes;
        total.bytes_read += s.bytes_read;
        total.evictions += s.evictions;
        total.hits += s.hits;
        total.misses += s.misses;
    }
    total
}

/// Parse a human memory size: plain bytes, or a `K`/`M`/`G` suffix
/// (powers of 1024), e.g. `"96M"`, `"2G"`, `"4096"`.
pub fn parse_mem_budget(s: &str) -> Result<usize, String> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last() {
        Some('K' | 'k') => (&s[..s.len() - 1], 1usize << 10),
        Some('M' | 'm') => (&s[..s.len() - 1], 1usize << 20),
        Some('G' | 'g') => (&s[..s.len() - 1], 1usize << 30),
        _ => (s, 1usize),
    };
    let v: usize = digits
        .trim()
        .parse()
        .map_err(|_| format!("bad memory size {s:?} (expected e.g. 96M, 2G, or bytes)"))?;
    v.checked_mul(mult)
        .ok_or_else(|| format!("memory size {s:?} overflows"))
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix independent stream identifiers into one RNG seed, so per-batch RNG
/// streams are decorrelated and independent of iteration order.
pub fn mix_seed(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ index)
}

// ---------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------

/// Read-only access to an attributed graph, independent of whether it lives
/// in memory or on disk. Object-safe: the sampled fit/score paths take
/// `&dyn GraphStore`.
pub trait GraphStore {
    /// Number of nodes `|V|`.
    fn num_nodes(&self) -> usize;

    /// Number of undirected edges `|E|`.
    fn num_edges(&self) -> usize;

    /// Attribute dimension `d`.
    fn num_attrs(&self) -> usize;

    /// Degree of `u` (no IO for either backend: derived from row pointers).
    fn degree(&self, u: u32) -> usize;

    /// Replace `out` with the sorted neighbour list of `u`.
    fn neighbors_into(&self, u: u32, out: &mut Vec<u32>);

    /// Whether the undirected edge `{u, v}` exists.
    fn has_edge(&self, u: u32, v: u32) -> bool;

    /// Copy node `u`'s attribute row into `out` (`out.len() == d`).
    fn attr_row_into(&self, u: u32, out: &mut [f32]);

    /// Stream every adjacency row in node order: `cb(u, sorted_neighbors)`.
    fn visit_adjacency(&self, cb: &mut dyn FnMut(u32, &[u32]));

    /// Stream the attribute rows `lo..hi` in node order: `cb(u, row)`.
    fn visit_attrs(&self, lo: u32, hi: u32, cb: &mut dyn FnMut(u32, &[f32]));

    /// Community labels as an owned vector, when the store carries them.
    fn labels_vec(&self) -> Option<Vec<u32>> {
        None
    }

    /// The in-memory graph behind this store, when there is one (the
    /// zero-copy fast path below the sampling threshold).
    fn as_full_graph(&self) -> Option<&AttributedGraph> {
        None
    }

    /// Memory/IO counters (all zero for in-memory stores).
    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }

    /// A `Sync` view of this store, when the backend supports shared
    /// multi-threaded access. [`OocStore`] returns `Some`; the in-memory
    /// [`AttributedGraph`] deliberately returns `None` — its per-detector
    /// context cache is single-threaded by design. Parallel batch
    /// dispatch only engages when this returns `Some`.
    fn as_shared(&self) -> Option<&(dyn GraphStore + Sync)> {
        None
    }

    /// Gather attribute rows for `nodes` (in order) into a dense matrix.
    fn gather_attrs(&self, nodes: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(nodes.len(), self.num_attrs());
        for (i, &u) in nodes.iter().enumerate() {
            self.attr_row_into(u, out.row_mut(i));
        }
        out
    }

    /// Materialise the whole store as an [`AttributedGraph`]. Only sensible
    /// below the sampling threshold; allocates `O(n·d + m)`.
    fn materialize(&self) -> AttributedGraph {
        let n = self.num_nodes();
        let mut adj: Vec<Vec<u32>> = Vec::with_capacity(n);
        self.visit_adjacency(&mut |_, nbrs| adj.push(nbrs.to_vec()));
        let mut x = Matrix::zeros(n, self.num_attrs());
        self.visit_attrs(0, n as u32, &mut |u, row| {
            x.row_mut(u as usize).copy_from_slice(row)
        });
        AttributedGraph::from_sorted_adj(adj, x, self.labels_vec())
    }
}

impl GraphStore for AttributedGraph {
    fn num_nodes(&self) -> usize {
        AttributedGraph::num_nodes(self)
    }

    fn num_edges(&self) -> usize {
        AttributedGraph::num_edges(self)
    }

    fn num_attrs(&self) -> usize {
        AttributedGraph::num_attrs(self)
    }

    fn degree(&self, u: u32) -> usize {
        AttributedGraph::degree(self, u)
    }

    fn neighbors_into(&self, u: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(self.neighbors(u));
    }

    fn has_edge(&self, u: u32, v: u32) -> bool {
        AttributedGraph::has_edge(self, u, v)
    }

    fn attr_row_into(&self, u: u32, out: &mut [f32]) {
        out.copy_from_slice(self.attrs().row(u as usize));
    }

    fn visit_adjacency(&self, cb: &mut dyn FnMut(u32, &[u32])) {
        for u in 0..self.num_nodes() as u32 {
            cb(u, self.neighbors(u));
        }
    }

    fn visit_attrs(&self, lo: u32, hi: u32, cb: &mut dyn FnMut(u32, &[f32])) {
        for u in lo..hi {
            cb(u, self.attrs().row(u as usize));
        }
    }

    fn labels_vec(&self) -> Option<Vec<u32>> {
        self.labels().map(<[u32]>::to_vec)
    }

    fn as_full_graph(&self) -> Option<&AttributedGraph> {
        Some(self)
    }

    fn gather_attrs(&self, nodes: &[u32]) -> Matrix {
        // Same values as the default, but through the tuned (arena-backed)
        // gather kernel the full-graph paths already use.
        self.attrs().gather_rows(nodes)
    }
}

// ---------------------------------------------------------------------
// The out-of-core backend
// ---------------------------------------------------------------------

/// Block replacement policy for the out-of-core cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// Plain least-recently-used replacement.
    Lru,
    /// Scan-resistant segmented LRU (the default). Blocks are admitted on
    /// probation; a *non-correlated* cache hit (a revisit, not the next
    /// row of the same block during streaming iteration) promotes a block
    /// to the protected segment (capped at ~80% of the cache budget per
    /// shard, demoting its own LRU back to probation when full). Eviction
    /// takes the probationary LRU first, so one cold sweep of single-use
    /// blocks cannot flush the hot sampled working set.
    #[default]
    Segmented,
}

impl CachePolicy {
    /// Parse a CLI name: `lru` or `segmented`.
    pub fn parse(s: &str) -> Result<CachePolicy, String> {
        match s {
            "lru" => Ok(CachePolicy::Lru),
            "segmented" | "slru" => Ok(CachePolicy::Segmented),
            other => Err(format!(
                "unknown cache policy {other:?} (expected lru or segmented)"
            )),
        }
    }

    /// The canonical CLI name.
    pub fn name(self) -> &'static str {
        match self {
            CachePolicy::Lru => "lru",
            CachePolicy::Segmented => "segmented",
        }
    }
}

/// Default number of cache shards (mutex granularity for concurrent
/// readers).
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// Options for [`OocStore::open_with`]: the byte budget plus cache tuning.
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Total memory budget in bytes (resident `indptr` + block cache).
    pub budget: usize,
    /// Block replacement policy.
    pub policy: CachePolicy,
    /// Number of cache shards; `0` selects [`DEFAULT_CACHE_SHARDS`].
    pub shards: usize,
}

impl StoreOptions {
    /// Defaults (segmented LRU, auto shard count) at the given budget.
    pub fn new(budget: usize) -> StoreOptions {
        StoreOptions {
            budget,
            policy: CachePolicy::default(),
            shards: 0,
        }
    }
}

/// Block payload types, tying each cached element type to its map within a
/// [`Shard`] and a shard-selection salt (so edge and attribute blocks with
/// equal ids land on decorrelated shards).
trait BlockKind: Sized {
    const SALT: u64;
    fn map(shard: &mut Shard) -> &mut HashMap<usize, Slot<Self>>;
    fn last_ref(cache: &ShardedCache) -> &AtomicU64;
}

impl BlockKind for u32 {
    const SALT: u64 = 0xED6E_0000;
    fn map(shard: &mut Shard) -> &mut HashMap<usize, Slot<u32>> {
        &mut shard.edge
    }
    fn last_ref(cache: &ShardedCache) -> &AtomicU64 {
        &cache.last_edge_ref
    }
}

impl BlockKind for f32 {
    const SALT: u64 = 0xA77A_0000;
    fn map(shard: &mut Shard) -> &mut HashMap<usize, Slot<f32>> {
        &mut shard.attr
    }
    fn last_ref(cache: &ShardedCache) -> &AtomicU64 {
        &cache.last_attr_ref
    }
}

struct Slot<T> {
    data: Arc<Vec<T>>,
    tick: u64,
    protected: bool,
}

#[derive(Default)]
struct Shard {
    edge: HashMap<usize, Slot<u32>>,
    attr: HashMap<usize, Slot<f32>>,
    protected_bytes: usize,
}

/// The shared block cache: one mutex per shard so concurrent readers only
/// contend when they touch the same shard, one global byte budget tracked
/// in the store's [`StoreCounters`] (so `stats()` and eviction agree).
struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    tick: AtomicU64,
    evict_cursor: AtomicUsize,
    policy: CachePolicy,
    /// Budget available to cached blocks (total minus resident `indptr`).
    budget: usize,
    /// Per-shard cap on protected bytes (segmented policy only).
    protected_cap: usize,
    /// Most recently referenced edge/attr block ids. Consecutive accesses
    /// to the same block (streaming row iteration) collapse into one
    /// logical reference, so a sequential scan that touches each block a
    /// handful of times in a row never earns promotion — only genuine
    /// revisits do. Approximate under concurrency, which only costs an
    /// occasional spurious promotion.
    last_edge_ref: AtomicU64,
    last_attr_ref: AtomicU64,
}

impl ShardedCache {
    fn new(shards: usize, policy: CachePolicy, budget: usize) -> ShardedCache {
        let shards = shards.max(1);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            tick: AtomicU64::new(0),
            evict_cursor: AtomicUsize::new(0),
            policy,
            budget,
            protected_cap: budget * 4 / 5 / shards,
            last_edge_ref: AtomicU64::new(u64::MAX),
            last_attr_ref: AtomicU64::new(u64::MAX),
        }
    }

    fn shard_of<T: BlockKind>(&self, b: usize) -> usize {
        splitmix64(b as u64 ^ T::SALT) as usize % self.shards.len()
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Cache lookup. On a hit the slot's recency is refreshed and (under
    /// the segmented policy) a non-correlated revisit promotes the block
    /// to the protected segment.
    fn lookup<T: BlockKind>(&self, b: usize) -> Option<Arc<Vec<T>>> {
        let correlated = T::last_ref(self).swap(b as u64, Ordering::Relaxed) == b as u64;
        let shard_index = self.shard_of::<T>(b);
        let tick = self.next_tick();
        let mut shard = self.shards[shard_index]
            .lock()
            .expect("cache shard poisoned");
        let (data, promoted_bytes) = {
            let slot = T::map(&mut shard).get_mut(&b)?;
            slot.tick = tick;
            let mut promoted = 0usize;
            if self.policy == CachePolicy::Segmented && !slot.protected && !correlated {
                slot.protected = true;
                promoted = slot.data.len() * 4;
            }
            (Arc::clone(&slot.data), promoted)
        };
        if promoted_bytes > 0 {
            shard.protected_bytes += promoted_bytes;
            self.rebalance_protected(&mut shard);
        }
        Some(data)
    }

    /// Admit a freshly read block on probation. If another thread admitted
    /// the same block while this one was reading it from disk, the earlier
    /// copy wins (and is returned) so both threads share one allocation.
    fn insert<T: BlockKind>(
        &self,
        b: usize,
        data: Arc<Vec<T>>,
        counters: &StoreCounters,
    ) -> Arc<Vec<T>> {
        let shard_index = self.shard_of::<T>(b);
        let tick = self.next_tick();
        let mut shard = self.shards[shard_index]
            .lock()
            .expect("cache shard poisoned");
        if let Some(slot) = T::map(&mut shard).get_mut(&b) {
            slot.tick = tick;
            return Arc::clone(&slot.data);
        }
        let bytes = data.len() * 4;
        T::map(&mut shard).insert(
            b,
            Slot {
                data: Arc::clone(&data),
                tick,
                protected: false,
            },
        );
        drop(shard);
        counters.resident_blocks.fetch_add(1, Ordering::Relaxed);
        counters
            .resident_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.evict_to_budget(counters);
        data
    }

    /// Demote the protected LRU back to probation until the shard's
    /// protected segment fits its cap.
    fn rebalance_protected(&self, shard: &mut Shard) {
        while shard.protected_bytes > self.protected_cap {
            let Some((is_edge, key)) = Self::victim(shard, true) else {
                break;
            };
            let freed = if is_edge {
                let slot = shard.edge.get_mut(&key).unwrap();
                slot.protected = false;
                slot.data.len() * 4
            } else {
                let slot = shard.attr.get_mut(&key).unwrap();
                slot.protected = false;
                slot.data.len() * 4
            };
            shard.protected_bytes -= freed;
        }
    }

    /// The LRU slot with the given protection status, if any.
    fn victim(shard: &Shard, protected: bool) -> Option<(bool, usize)> {
        let edge = shard
            .edge
            .iter()
            .filter(|(_, s)| s.protected == protected)
            .min_by_key(|(_, s)| s.tick)
            .map(|(k, s)| (*k, s.tick));
        let attr = shard
            .attr
            .iter()
            .filter(|(_, s)| s.protected == protected)
            .min_by_key(|(_, s)| s.tick)
            .map(|(k, s)| (*k, s.tick));
        match (edge, attr) {
            (Some((ke, te)), Some((ka, ta))) => {
                Some(if te <= ta { (true, ke) } else { (false, ka) })
            }
            (Some((ke, _)), None) => Some((true, ke)),
            (None, Some((ka, _))) => Some((false, ka)),
            (None, None) => None,
        }
    }

    /// Drop one block from this shard — probationary LRU first, protected
    /// LRU only when probation is empty. Returns the bytes freed.
    fn evict_one(shard: &mut Shard) -> Option<usize> {
        let (is_edge, key, was_protected) = Self::victim(shard, false)
            .map(|(e, k)| (e, k, false))
            .or_else(|| Self::victim(shard, true).map(|(e, k)| (e, k, true)))?;
        let freed = if is_edge {
            shard.edge.remove(&key).unwrap().data.len() * 4
        } else {
            shard.attr.remove(&key).unwrap().data.len() * 4
        };
        if was_protected {
            shard.protected_bytes -= freed;
        }
        Some(freed)
    }

    /// Evict round-robin across shards until the cache fits its budget.
    /// Only one shard lock is held at a time; concurrent admissions may
    /// transiently overshoot the budget, but every admitting thread runs
    /// this loop, so the cache settles back under budget.
    fn evict_to_budget(&self, counters: &StoreCounters) {
        let n = self.shards.len();
        let mut empty_streak = 0usize;
        while counters.resident_bytes.load(Ordering::Relaxed) > self.budget as u64
            && empty_streak < n
        {
            let shard_index = self.evict_cursor.fetch_add(1, Ordering::Relaxed) % n;
            let mut shard = self.shards[shard_index]
                .lock()
                .expect("cache shard poisoned");
            match Self::evict_one(&mut shard) {
                Some(freed) => {
                    drop(shard);
                    empty_streak = 0;
                    counters.resident_blocks.fetch_sub(1, Ordering::Relaxed);
                    counters
                        .resident_bytes
                        .fetch_sub(freed as u64, Ordering::Relaxed);
                    counters.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => empty_streak += 1,
            }
        }
    }
}

/// A demand-paged on-disk graph store (see the module docs for the format
/// and the paging strategy). `Send + Sync`: any number of reader threads
/// may share one handle, paging through the sharded block cache under one
/// byte budget.
pub struct OocStore {
    file: StoreFile,
    n: usize,
    m_directed: usize,
    d: usize,
    attr_block_nodes: usize,
    edge_block_entries: usize,
    off_indices: u64,
    off_attrs: u64,
    off_labels: Option<u64>,
    /// Row pointers, fully resident (counted against the budget at `open`).
    indptr: Vec<u64>,
    budget: usize,
    cache: ShardedCache,
    counters: Arc<StoreCounters>,
}

impl Drop for OocStore {
    fn drop(&mut self) {
        // Fold the monotonic counters into the process-wide totals; the
        // resident figures vanish with the registry's weak reference.
        retire_counters(&self.counters);
    }
}

impl std::fmt::Debug for OocStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OocStore")
            .field("n", &self.n)
            .field("m_directed", &self.m_directed)
            .field("d", &self.d)
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

/// Positioned reads over the store file. On Unix a plain [`File`] suffices
/// (`pread` never moves the cursor, so concurrent readers need no lock);
/// elsewhere seek+read pairs are serialised behind a mutex.
struct StoreFile {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: Mutex<File>,
}

impl StoreFile {
    fn new(file: File) -> StoreFile {
        StoreFile {
            #[cfg(unix)]
            file,
            #[cfg(not(unix))]
            file: Mutex::new(file),
        }
    }

    fn read_exact_at(&self, buf: &mut [u8], off: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, off)
        }
        #[cfg(not(unix))]
        {
            let mut f = self.file.lock().expect("store file poisoned");
            f.seek(SeekFrom::Start(off))?;
            f.read_exact(buf)
        }
    }
}

// Both decoders fill a presized buffer so the 4-byte chunk width is a
// compile-time constant and the copy vectorises: a `collect` of the chunks
// runs an out-of-line loop that moves one word per iteration.
fn bytes_to_u32s(buf: &[u8]) -> Vec<u32> {
    let mut out = vec![0u32; buf.len() / 4];
    for (o, c) in out.iter_mut().zip(buf.chunks_exact(4)) {
        *o = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
    out
}

fn bytes_to_f32s(buf: &[u8]) -> Vec<f32> {
    let mut out = vec![0.0f32; buf.len() / 4];
    for (o, c) in out.iter_mut().zip(buf.chunks_exact(4)) {
        *o = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
    out
}

impl OocStore {
    /// Open a `VGODSTR1` store with a total memory budget in bytes and
    /// default cache options (segmented LRU, auto shard count).
    ///
    /// The budget covers the resident row-pointer array plus the block
    /// cache; it must fit `indptr` plus at least one edge block and one
    /// attribute block, or `open` refuses with a message stating the
    /// minimum.
    pub fn open(path: &Path, budget: usize) -> Result<OocStore, String> {
        Self::open_with(path, StoreOptions::new(budget))
    }

    /// Open a `VGODSTR1` store with explicit cache options (see [`open`]
    /// for the budget contract).
    ///
    /// [`open`]: OocStore::open
    pub fn open_with(path: &Path, opts: StoreOptions) -> Result<OocStore, String> {
        let budget = opts.budget;
        let mut file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        let mut head = [0u8; HEADER_BYTES as usize];
        file.read_exact(&mut head)
            .map_err(|e| format!("read header of {}: {e}", path.display()))?;
        if &head[..8] != STORE_MAGIC {
            return Err(format!("{} is not a VGODSTR1 store", path.display()));
        }
        let word = |i: usize| -> u64 {
            let at = 8 + i * 8;
            u64::from_le_bytes(head[at..at + 8].try_into().unwrap())
        };
        let n = word(0) as usize;
        let m_directed = word(1) as usize;
        let d = word(2) as usize;
        let attr_block_nodes = word(3) as usize;
        let edge_block_entries = word(4) as usize;
        let flags = word(5);
        if attr_block_nodes == 0 || edge_block_entries == 0 {
            return Err("store header has zero block size".to_string());
        }

        let indptr_bytes = (n + 1) * 8;
        let off_indices = HEADER_BYTES + indptr_bytes as u64;
        let off_attrs = off_indices + (m_directed * 4) as u64;
        let off_labels = if flags & FLAG_LABELS != 0 {
            Some(off_attrs + (n * d * 4) as u64)
        } else {
            None
        };
        let expect_len = off_labels.unwrap_or(off_attrs + (n * d * 4) as u64)
            + if flags & FLAG_LABELS != 0 {
                (n * 4) as u64
            } else {
                0
            };
        let actual_len = file
            .metadata()
            .map_err(|e| format!("stat {}: {e}", path.display()))?
            .len();
        if actual_len != expect_len {
            return Err(format!(
                "{}: truncated or corrupt store ({actual_len} bytes, expected {expect_len})",
                path.display()
            ));
        }

        let edge_block_bytes = edge_block_entries.min(m_directed.max(1)) * 4;
        let attr_block_bytes = attr_block_nodes.min(n.max(1)) * d.max(1) * 4;
        let min_budget = indptr_bytes + edge_block_bytes + attr_block_bytes;
        if budget < min_budget {
            return Err(format!(
                "memory budget {budget} B is below the minimum {min_budget} B \
                 (indptr {indptr_bytes} B + one edge block {edge_block_bytes} B \
                 + one attribute block {attr_block_bytes} B)"
            ));
        }

        let mut indptr_buf = vec![0u8; indptr_bytes];
        file.seek(SeekFrom::Start(HEADER_BYTES))
            .and_then(|_| file.read_exact(&mut indptr_buf))
            .map_err(|e| format!("read indptr of {}: {e}", path.display()))?;
        let indptr: Vec<u64> = indptr_buf
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        if indptr.first() != Some(&0) || indptr.last() != Some(&(m_directed as u64)) {
            return Err(format!("{}: inconsistent row pointers", path.display()));
        }

        let counters = Arc::new(StoreCounters::default());
        counters
            .budget_bytes
            .store(budget as u64, Ordering::Relaxed);
        counters.bytes_read.store(
            (HEADER_BYTES as usize + indptr_bytes) as u64,
            Ordering::Relaxed,
        );
        register_counters(&counters);

        let shards = if opts.shards == 0 {
            DEFAULT_CACHE_SHARDS
        } else {
            opts.shards
        };
        Ok(OocStore {
            file: StoreFile::new(file),
            n,
            m_directed,
            d,
            attr_block_nodes,
            edge_block_entries,
            off_indices,
            off_attrs,
            off_labels,
            indptr,
            budget,
            cache: ShardedCache::new(shards, opts.policy, budget - indptr_bytes),
            counters,
        })
    }

    /// Serialise an in-memory graph to `path` in store format.
    pub fn create_from_graph(
        g: &AttributedGraph,
        path: &Path,
        attr_block_nodes: usize,
        edge_block_entries: usize,
    ) -> std::io::Result<()> {
        write_store(
            path,
            g.num_nodes(),
            g.num_attrs(),
            attr_block_nodes,
            edge_block_entries,
            g.labels().is_some(),
            |u, out| {
                out.clear();
                out.extend_from_slice(g.neighbors(u));
            },
            |u, row| row.copy_from_slice(g.attrs().row(u as usize)),
            |u| g.labels().map_or(0, |l| l[u as usize]),
        )
    }

    /// Number of attribute rows per block.
    pub fn attr_block_nodes(&self) -> usize {
        self.attr_block_nodes
    }

    /// Number of edge entries per block.
    pub fn edge_block_entries(&self) -> usize {
        self.edge_block_entries
    }

    /// The configured total memory budget in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The block replacement policy the cache runs.
    pub fn policy(&self) -> CachePolicy {
        self.cache.policy
    }

    /// Number of mutex-guarded cache shards.
    pub fn shard_count(&self) -> usize {
        self.cache.shards.len()
    }

    /// Bytes of the budget available to cached blocks (total budget minus
    /// the resident row-pointer array).
    pub fn cache_budget(&self) -> usize {
        self.cache.budget
    }

    /// Total number of edge blocks in the file.
    pub fn num_edge_blocks(&self) -> usize {
        self.m_directed.div_ceil(self.edge_block_entries)
    }

    /// Total number of attribute blocks in the file.
    pub fn num_attr_blocks(&self) -> usize {
        self.n.div_ceil(self.attr_block_nodes)
    }

    fn row_range(&self, u: u32) -> (usize, usize) {
        (
            self.indptr[u as usize] as usize,
            self.indptr[u as usize + 1] as usize,
        )
    }

    fn edge_block_len(&self, b: usize) -> usize {
        (self.m_directed - b * self.edge_block_entries).min(self.edge_block_entries)
    }

    fn attr_block_rows(&self, b: usize) -> usize {
        (self.n - b * self.attr_block_nodes).min(self.attr_block_nodes)
    }

    fn record_read(&self, bytes: usize) {
        self.counters
            .bytes_read
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Read and admit one edge block (the miss path: the shard lock is
    /// *not* held across the disk read — unlock, `pread` + decode, re-lock
    /// with a double-check where a racing thread's copy wins).
    fn load_edge_block(&self, b: usize) -> Arc<Vec<u32>> {
        let bytes = self.edge_block_len(b) * 4;
        let mut buf = vec![0u8; bytes];
        let off = self.off_indices + (b * self.edge_block_entries * 4) as u64;
        self.file
            .read_exact_at(&mut buf, off)
            .expect("store read failed (edge block)");
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        self.record_read(bytes);
        self.cache
            .insert(b, Arc::new(bytes_to_u32s(&buf)), &self.counters)
    }

    /// Fetch one edge block through the cache.
    fn edge_block(&self, b: usize) -> Arc<Vec<u32>> {
        if let Some(data) = self.cache.lookup::<u32>(b) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return data;
        }
        self.load_edge_block(b)
    }

    /// Read and admit one attribute block (same locking protocol as
    /// [`load_edge_block`](Self::load_edge_block)).
    fn load_attr_block(&self, b: usize) -> Arc<Vec<f32>> {
        let bytes = self.attr_block_rows(b) * self.d * 4;
        let mut buf = vec![0u8; bytes];
        let off = self.off_attrs + (b * self.attr_block_nodes * self.d * 4) as u64;
        self.file
            .read_exact_at(&mut buf, off)
            .expect("store read failed (attr block)");
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        self.record_read(bytes);
        self.cache
            .insert(b, Arc::new(bytes_to_f32s(&buf)), &self.counters)
    }

    /// Fetch one attribute block through the cache.
    fn attr_block(&self, b: usize) -> Arc<Vec<f32>> {
        if let Some(data) = self.cache.lookup::<f32>(b) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return data;
        }
        self.load_attr_block(b)
    }
}

impl GraphStore for OocStore {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn num_edges(&self) -> usize {
        self.m_directed / 2
    }

    fn num_attrs(&self) -> usize {
        self.d
    }

    fn degree(&self, u: u32) -> usize {
        let (start, end) = self.row_range(u);
        end - start
    }

    fn neighbors_into(&self, u: u32, out: &mut Vec<u32>) {
        out.clear();
        let (start, end) = self.row_range(u);
        if start == end {
            return;
        }
        let eb = self.edge_block_entries;
        for b in start / eb..=(end - 1) / eb {
            let block = self.edge_block(b);
            let lo = start.max(b * eb) - b * eb;
            let hi = end.min((b + 1) * eb) - b * eb;
            out.extend_from_slice(&block[lo..hi]);
        }
    }

    fn has_edge(&self, u: u32, v: u32) -> bool {
        // Rows are sorted, so each block's sub-slice is searchable in
        // place — no scratch copy of the neighbour list needed.
        let (start, end) = self.row_range(u);
        if start == end {
            return false;
        }
        let eb = self.edge_block_entries;
        for b in start / eb..=(end - 1) / eb {
            let block = self.edge_block(b);
            let lo = start.max(b * eb) - b * eb;
            let hi = end.min((b + 1) * eb) - b * eb;
            if block[lo..hi].binary_search(&v).is_ok() {
                return true;
            }
        }
        false
    }

    fn attr_row_into(&self, u: u32, out: &mut [f32]) {
        assert_eq!(out.len(), self.d, "attribute row buffer has wrong width");
        let b = u as usize / self.attr_block_nodes;
        let at = (u as usize % self.attr_block_nodes) * self.d;
        let block = self.attr_block(b);
        out.copy_from_slice(&block[at..at + self.d]);
    }

    fn gather_attrs(&self, nodes: &[u32]) -> Matrix {
        // Fill the output slots in node order, so each attribute block is
        // fetched once per gather however the ids are ordered or repeated
        // (a random-order gather larger than the cache would otherwise
        // thrash it). Every row still lands in its own slot.
        let abn = self.attr_block_nodes;
        let d = self.d;
        let mut out = Matrix::zeros(nodes.len(), d);
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_unstable_by_key(|&i| nodes[i]);
        let mut rest = &order[..];
        while let Some(&first) = rest.first() {
            let b = nodes[first] as usize / abn;
            let (run, tail) =
                rest.split_at(rest.partition_point(|&i| nodes[i] as usize / abn == b));
            let block = self.attr_block(b);
            for &i in run {
                let at = (nodes[i] as usize % abn) * d;
                out.row_mut(i).copy_from_slice(&block[at..at + d]);
            }
            rest = tail;
        }
        out
    }

    fn visit_adjacency(&self, cb: &mut dyn FnMut(u32, &[u32])) {
        // Sequential streaming pass, bypassing the block cache so a full
        // sweep does not evict the sampler's working set. One positioned
        // read per group of rows, bounded by the edge block size.
        let mut u = 0usize;
        let mut buf: Vec<u8> = Vec::new();
        while u < self.n {
            let start = self.indptr[u] as usize;
            let mut stop_node = u + 1;
            while stop_node < self.n
                && (self.indptr[stop_node + 1] as usize - start) <= self.edge_block_entries
            {
                stop_node += 1;
            }
            let end = self.indptr[stop_node] as usize;
            let bytes = (end - start) * 4;
            buf.resize(bytes, 0);
            if bytes > 0 {
                self.file
                    .read_exact_at(&mut buf, self.off_indices + (start * 4) as u64)
                    .expect("store read failed (adjacency sweep)");
                self.record_read(bytes);
            }
            let entries = bytes_to_u32s(&buf);
            for node in u..stop_node {
                let lo = self.indptr[node] as usize - start;
                let hi = self.indptr[node + 1] as usize - start;
                cb(node as u32, &entries[lo..hi]);
            }
            u = stop_node;
        }
    }

    fn visit_attrs(&self, lo: u32, hi: u32, cb: &mut dyn FnMut(u32, &[f32])) {
        // Sequential streaming pass, bypassing the block cache like the
        // adjacency sweep: one positioned read per attribute block the
        // range overlaps, clipped to the range.
        let (lo, hi) = (lo as usize, hi as usize);
        assert!(
            hi <= self.n,
            "attribute range {lo}..{hi} past {} nodes",
            self.n
        );
        let mut buf: Vec<u8> = Vec::new();
        let mut u = lo;
        while u < hi {
            let stop = hi.min((u / self.attr_block_nodes + 1) * self.attr_block_nodes);
            let bytes = (stop - u) * self.d * 4;
            buf.resize(bytes, 0);
            let off = self.off_attrs + (u * self.d * 4) as u64;
            self.file
                .read_exact_at(&mut buf, off)
                .expect("store read failed (attr sweep)");
            self.record_read(bytes);
            let floats = bytes_to_f32s(&buf);
            for r in 0..stop - u {
                cb((u + r) as u32, &floats[r * self.d..(r + 1) * self.d]);
            }
            u = stop;
        }
    }

    fn labels_vec(&self) -> Option<Vec<u32>> {
        let off = self.off_labels?;
        let mut buf = vec![0u8; self.n * 4];
        self.file
            .read_exact_at(&mut buf, off)
            .expect("store read failed (labels)");
        self.record_read(buf.len());
        Some(bytes_to_u32s(&buf))
    }

    fn stats(&self) -> StoreStats {
        let mut stats = self.counters.snapshot();
        // The per-store view also charges the always-resident row pointers.
        stats.resident_bytes += (self.indptr.len() * 8) as u64;
        stats
    }

    fn as_shared(&self) -> Option<&(dyn GraphStore + Sync)> {
        Some(self)
    }
}

// ---------------------------------------------------------------------
// Writing stores
// ---------------------------------------------------------------------

/// Write a store from per-node callbacks, in two streaming passes (degrees
/// then rows) — the whole graph never has to exist in memory. `neighbors_of`
/// must fill a *sorted* neighbour list and be deterministic: it is called
/// twice per node.
#[allow(clippy::too_many_arguments)]
pub fn write_store(
    path: &Path,
    n: usize,
    d: usize,
    attr_block_nodes: usize,
    edge_block_entries: usize,
    has_labels: bool,
    mut neighbors_of: impl FnMut(u32, &mut Vec<u32>),
    mut attrs_of: impl FnMut(u32, &mut [f32]),
    mut label_of: impl FnMut(u32) -> u32,
) -> std::io::Result<()> {
    assert!(
        attr_block_nodes > 0 && edge_block_entries > 0,
        "zero block size"
    );
    let mut out = BufWriter::new(File::create(path)?);
    let mut nbrs: Vec<u32> = Vec::new();

    // Pass 1: degrees → row pointers.
    let mut m_directed = 0u64;
    let mut indptr_bytes: Vec<u8> = Vec::with_capacity((n + 1) * 8);
    indptr_bytes.extend_from_slice(&0u64.to_le_bytes());
    for u in 0..n as u32 {
        neighbors_of(u, &mut nbrs);
        debug_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "unsorted neighbors");
        m_directed += nbrs.len() as u64;
        indptr_bytes.extend_from_slice(&m_directed.to_le_bytes());
    }

    out.write_all(STORE_MAGIC)?;
    for word in [
        n as u64,
        m_directed,
        d as u64,
        attr_block_nodes as u64,
        edge_block_entries as u64,
        u64::from(has_labels) * FLAG_LABELS,
        0u64,
    ] {
        out.write_all(&word.to_le_bytes())?;
    }
    out.write_all(&indptr_bytes)?;
    drop(indptr_bytes);

    // Pass 2: neighbour lists.
    for u in 0..n as u32 {
        neighbors_of(u, &mut nbrs);
        for &v in &nbrs {
            out.write_all(&v.to_le_bytes())?;
        }
    }

    // Pass 3: attribute rows.
    let mut row = vec![0f32; d];
    for u in 0..n as u32 {
        attrs_of(u, &mut row);
        for &x in &row {
            out.write_all(&x.to_le_bytes())?;
        }
    }

    // Pass 4: labels.
    if has_labels {
        for u in 0..n as u32 {
            out.write_all(&label_of(u).to_le_bytes())?;
        }
    }
    out.flush()
}

// ---------------------------------------------------------------------
// Streaming synthetic stores
// ---------------------------------------------------------------------

/// Configuration for [`synth_store`]: a deterministic synthetic graph that
/// can be written at any size without ever materialising it.
///
/// The base topology is a ring lattice (every node links to its
/// `avg_degree/2` nearest ids on each side — symmetric by construction,
/// uniform degree). Structural outliers are planted cliques on disjoint
/// contiguous id ranges; contextual outliers are nodes whose attribute
/// noise is scaled by `contextual_scale` away from their community mean.
#[derive(Clone, Debug)]
pub struct SynthStoreConfig {
    /// Node count `n`.
    pub nodes: usize,
    /// Target average degree (ring lattice degree, before cliques).
    pub avg_degree: usize,
    /// Attribute dimension `d`.
    pub attrs: usize,
    /// Number of communities (contiguous id blocks, attribute means differ).
    pub communities: usize,
    /// Number of planted cliques (structural outliers).
    pub clique_count: usize,
    /// Nodes per planted clique.
    pub clique_size: usize,
    /// Number of contextual outliers.
    pub contextual_count: usize,
    /// Noise multiplier for contextual outliers (≫ 1 makes them stand out).
    pub contextual_scale: f32,
    /// Master seed; every derived stream is mixed from it.
    pub seed: u64,
}

impl SynthStoreConfig {
    /// A configuration scaled to `n` nodes with paper-like proportions:
    /// average degree 20 (so `|E| = 10·n`), 32 attributes, and ~0.5% of
    /// nodes outliers split between the two types.
    pub fn scaled(n: usize, seed: u64) -> Self {
        let clique_size = 10usize;
        let clique_count = (n / 400).clamp(1, 1000);
        Self {
            nodes: n,
            avg_degree: 20,
            attrs: 32,
            communities: 8.min(n.max(1)),
            clique_count,
            clique_size,
            contextual_count: (n / 40).clamp(1, 25_000),
            contextual_scale: 6.0,
            seed,
        }
    }
}

/// Ground truth for a synthetic store: planted outlier node ids.
#[derive(Clone, Debug, Default)]
pub struct SynthTruth {
    /// Clique members (structural outliers).
    pub structural: Vec<u32>,
    /// Attribute outliers (contextual).
    pub contextual: Vec<u32>,
}

/// Write a synthetic store to `path` (see [`SynthStoreConfig`]) and return
/// the planted ground truth. Memory use is `O(cliques + outliers + d)`,
/// independent of `n`.
pub fn synth_store(
    path: &Path,
    cfg: &SynthStoreConfig,
    attr_block_nodes: usize,
    edge_block_entries: usize,
) -> std::io::Result<SynthTruth> {
    let n = cfg.nodes;
    assert!(n >= 4, "synthetic store needs at least 4 nodes");
    let k = (cfg.avg_degree / 2).max(1).min((n - 1) / 2);
    let communities = cfg.communities.max(1);

    // Disjoint clique ranges: one per stride of ids, offset pseudo-randomly.
    let mut clique_count = cfg.clique_count;
    let clique_size = cfg.clique_size.max(2);
    let stride = n.checked_div(clique_count).unwrap_or(n);
    if clique_count > 0 && stride < 2 * clique_size {
        clique_count = (n / (2 * clique_size)).max(1).min(clique_count);
    }
    let stride = n.checked_div(clique_count).unwrap_or(n);
    let clique_base: Vec<usize> = (0..clique_count)
        .map(|c| {
            let slack = stride.saturating_sub(clique_size).max(1);
            c * stride + (splitmix64(cfg.seed ^ 0xC110_u64 ^ c as u64) as usize) % slack
        })
        .collect();
    let clique_of = |u: usize| -> Option<(usize, usize)> {
        if clique_count == 0 || stride == 0 {
            return None;
        }
        let c = (u / stride).min(clique_count - 1);
        let base = clique_base[c];
        (u >= base && u < base + clique_size).then_some((base, clique_size))
    };

    // Contextual outliers: pseudo-random ids outside the cliques.
    let mut contextual: std::collections::HashSet<u32> = std::collections::HashSet::new();
    let mut attempt = 0u64;
    while contextual.len() < cfg.contextual_count.min(n / 2)
        && attempt < 100 * (cfg.contextual_count as u64 + 1)
    {
        let u = (splitmix64(cfg.seed ^ 0xA77Du64 ^ attempt) as usize) % n;
        attempt += 1;
        if clique_of(u).is_none() {
            contextual.insert(u as u32);
        }
    }

    // Community attribute means, separated enough to be learnable.
    let mut mu = vec![0f32; communities * cfg.attrs.max(1)];
    for c in 0..communities {
        let mut rng = seeded_rng(splitmix64(cfg.seed ^ 0x3EA2u64 ^ c as u64));
        for j in 0..cfg.attrs {
            mu[c * cfg.attrs + j] = 3.0 * standard_normal(&mut rng);
        }
    }
    let community_of = move |u: usize| -> usize { u * communities / n };

    let neighbors_of = {
        move |u: u32, out: &mut Vec<u32>| {
            let u = u as usize;
            out.clear();
            for s in 1..=k {
                out.push(((u + s) % n) as u32);
                out.push(((u + n - s) % n) as u32);
            }
            if let Some((base, size)) = clique_of(u) {
                for v in base..base + size {
                    if v != u {
                        out.push(v as u32);
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
        }
    };

    let contextual_set = contextual.clone();
    let seed = cfg.seed;
    let scale = cfg.contextual_scale;
    let d = cfg.attrs;
    let attrs_of = move |u: u32, row: &mut [f32]| {
        let c = community_of(u as usize);
        let noise = if contextual_set.contains(&u) {
            scale
        } else {
            1.0
        };
        let mut rng = seeded_rng(splitmix64(seed ^ 0xF00Du64 ^ u as u64));
        for (j, x) in row.iter_mut().enumerate() {
            *x = mu[c * d + j] + noise * standard_normal(&mut rng);
        }
    };

    write_store(
        path,
        n,
        d,
        attr_block_nodes,
        edge_block_entries,
        true,
        neighbors_of,
        attrs_of,
        |u| community_of(u as usize) as u32,
    )?;

    let mut structural: Vec<u32> = clique_base
        .iter()
        .flat_map(|&b| b as u32..(b + clique_size) as u32)
        .collect();
    structural.sort_unstable();
    let mut contextual: Vec<u32> = contextual.into_iter().collect();
    contextual.sort_unstable();
    Ok(SynthTruth {
        structural,
        contextual,
    })
}

/// Estimated resident bytes of the in-memory path for an `n`-node,
/// `m`-undirected-edge, `d`-attribute graph: the dense attribute matrix,
/// both directions of every neighbour list (plus `Vec` headers), and the
/// binary-adjacency CSR that `GraphContext` materialises up front. Used by
/// the scale bench to prove a budget is genuinely out of reach in-core.
pub fn in_memory_bytes_estimate(n: usize, m: usize, d: usize) -> u64 {
    let attrs = (n * d * 4) as u64;
    let adj = (2 * m * 4 + n * 24) as u64;
    let csr = (2 * m * 8 + (n + 1) * 8) as u64;
    attrs + adj + csr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{community_graph, gaussian_mixture_attributes, CommunityGraphConfig};
    use rand::seq::SliceRandom;
    use rand::Rng;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("vgod-store-test-{}-{name}", std::process::id()));
        p
    }

    fn small_graph(seed: u64) -> AttributedGraph {
        let mut rng = seeded_rng(seed);
        let mut g = community_graph(
            &CommunityGraphConfig::homogeneous(120, 3, 5.0, 0.9),
            &mut rng,
        );
        let x = gaussian_mixture_attributes(g.labels().unwrap(), 7, 3.0, 0.5, &mut rng);
        g.set_attrs(x);
        g
    }

    #[test]
    fn roundtrip_preserves_graph_exactly() {
        let g = small_graph(3);
        let path = temp_path("roundtrip.gstore");
        OocStore::create_from_graph(&g, &path, 16, 64).unwrap();
        let store = OocStore::open(&path, 1 << 20).unwrap();
        assert_eq!(GraphStore::num_nodes(&store), g.num_nodes());
        assert_eq!(GraphStore::num_edges(&store), g.num_edges());
        assert_eq!(GraphStore::num_attrs(&store), g.num_attrs());
        let back = store.materialize();
        assert!(back.check_invariants());
        for u in 0..g.num_nodes() as u32 {
            assert_eq!(back.neighbors(u), g.neighbors(u), "row {u}");
            assert_eq!(back.attrs().row(u as usize), g.attrs().row(u as usize));
        }
        assert_eq!(back.labels(), g.labels());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn point_reads_match_in_memory_backend() {
        let g = small_graph(4);
        let path = temp_path("point.gstore");
        OocStore::create_from_graph(&g, &path, 8, 32).unwrap();
        // Budget sized to hold only a handful of blocks, forcing paging.
        let min = (g.num_nodes() + 1) * 8 + 32 * 4 + 8 * g.num_attrs() * 4;
        let store = OocStore::open(&path, min + 256).unwrap();
        let mut nbrs = Vec::new();
        let mut row = vec![0f32; g.num_attrs()];
        for u in (0..g.num_nodes() as u32).rev() {
            store.neighbors_into(u, &mut nbrs);
            assert_eq!(nbrs.as_slice(), g.neighbors(u));
            store.attr_row_into(u, &mut row);
            assert_eq!(row.as_slice(), g.attrs().row(u as usize));
            assert_eq!(GraphStore::degree(&store, u), g.degree(u));
        }
        for &(u, v) in &[(0u32, 1u32), (5, 80), (100, 3)] {
            assert_eq!(GraphStore::has_edge(&store, u, v), g.has_edge(u, v));
        }
        let stats = store.stats();
        assert!(stats.evictions > 0, "tight budget must evict: {stats:?}");
        assert!(
            stats.resident_bytes <= store.budget() as u64,
            "resident {} over budget {}",
            stats.resident_bytes,
            store.budget()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ranged_attr_sweeps_read_exact_rows_past_the_cache() {
        let g = small_graph(8);
        let n = g.num_nodes() as u32;
        let path = temp_path("sweep.gstore");
        OocStore::create_from_graph(&g, &path, 8, 32).unwrap();
        let store = OocStore::open(&path, 1 << 20).unwrap();
        // Whole graph, block-aligned, inside one block, across a block
        // boundary, the last row, and empty.
        for (lo, hi) in [(0, n), (8, 24), (3, 5), (6, 19), (n - 1, n), (50, 50)] {
            let mut seen = Vec::new();
            store.visit_attrs(lo, hi, &mut |u, row| {
                assert_eq!(row, g.attrs().row(u as usize), "row {u} of {lo}..{hi}");
                seen.push(u);
            });
            assert_eq!(seen, (lo..hi).collect::<Vec<_>>());
        }
        let stats = store.stats();
        assert_eq!(stats.hits + stats.misses, 0, "sweeps bypass the cache");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_refuses_budget_below_minimum() {
        let g = small_graph(5);
        let path = temp_path("minbudget.gstore");
        OocStore::create_from_graph(&g, &path, 16, 64).unwrap();
        let err = OocStore::open(&path, 64).unwrap_err();
        assert!(err.contains("below the minimum"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_truncated_and_foreign_files() {
        let path = temp_path("corrupt.gstore");
        std::fs::write(&path, [b'x'; 128]).unwrap();
        assert!(OocStore::open(&path, 1 << 20)
            .unwrap_err()
            .contains("not a VGODSTR1"));
        let g = small_graph(6);
        OocStore::create_from_graph(&g, &path, 16, 64).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        assert!(OocStore::open(&path, 1 << 20)
            .unwrap_err()
            .contains("truncated"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gather_attrs_matches_full_graph_gather() {
        let g = small_graph(7);
        let nodes = [5u32, 0, 17, 99, 3];
        let via_store = GraphStore::gather_attrs(&g, &nodes);
        let direct = g.attrs().gather_rows(&nodes);
        assert_eq!(via_store.as_slice(), direct.as_slice());
        let path = temp_path("gather.gstore");
        OocStore::create_from_graph(&g, &path, 8, 32).unwrap();
        let store = OocStore::open(&path, 1 << 20).unwrap();
        assert_eq!(store.gather_attrs(&nodes).as_slice(), direct.as_slice());
        std::fs::remove_file(&path).ok();
    }

    /// Attribute rows per block in [`paged_store`]: 120 nodes leave a
    /// partial last block.
    const PAGED_ABN: usize = 7;

    /// A store of `small_graph` opened under a budget that holds only a
    /// few of its attribute blocks.
    fn paged_store(seed: u64, name: &str) -> (AttributedGraph, OocStore, std::path::PathBuf) {
        let g = small_graph(seed);
        let path = temp_path(name);
        OocStore::create_from_graph(&g, &path, PAGED_ABN, 32).unwrap();
        let block_bytes = PAGED_ABN * g.num_attrs() * 4;
        let min = (g.num_nodes() + 1) * 8 + 32 * 4 + block_bytes;
        let store = OocStore::open(&path, min + 3 * block_bytes).unwrap();
        assert!(
            store.num_attr_blocks() > 6,
            "the budget must be smaller than the store"
        );
        (g, store, path)
    }

    fn row_by_row(store: &OocStore, nodes: &[u32]) -> Vec<u32> {
        let mut row = vec![0f32; GraphStore::num_attrs(store)];
        let mut bits = Vec::new();
        for &u in nodes {
            store.attr_row_into(u, &mut row);
            bits.extend(row.iter().map(|x| x.to_bits()));
        }
        bits
    }

    #[test]
    fn block_ordered_gather_equals_row_by_row_reads() {
        let (g, store, path) = paged_store(14, "gatherorder.gstore");
        let n = g.num_nodes() as u32;
        let abn = PAGED_ABN as u32;
        assert_ne!(n % abn, 0, "the last attribute block must be partial");
        let mut rng = seeded_rng(15);
        let mut shuffled: Vec<u32> = (0..n).collect();
        shuffled.shuffle(&mut rng);
        let duplicated: Vec<u32> = (0..3 * n).map(|_| rng.gen_range(0..n)).collect();
        let last_block: Vec<u32> = (n - n % abn..n).rev().chain([n - 1, 0, n - 1]).collect();
        for nodes in [shuffled, duplicated, Vec::new(), last_block] {
            let gathered = store.gather_attrs(&nodes);
            assert_eq!(gathered.rows(), nodes.len());
            let bits: Vec<u32> = gathered.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, row_by_row(&store, &nodes), "ids {nodes:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gather_misses_at_most_once_per_distinct_block() {
        let (g, store, path) = paged_store(16, "gathermiss.gstore");
        let n = g.num_nodes() as u32;
        let mut rng = seeded_rng(17);
        // Random ids cycling through every block: row by row, the small
        // cache would evict and re-read blocks many times over.
        let nodes: Vec<u32> = (0..4 * n).map(|_| rng.gen_range(0..n)).collect();
        let blocks: std::collections::HashSet<usize> =
            nodes.iter().map(|&u| u as usize / PAGED_ABN).collect();
        let before = store.stats().misses;
        store.gather_attrs(&nodes);
        let misses = store.stats().misses - before;
        assert!(
            misses <= blocks.len() as u64,
            "{misses} misses for {} distinct blocks",
            blocks.len()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn synth_store_is_valid_and_deterministic() {
        let cfg = SynthStoreConfig {
            nodes: 600,
            avg_degree: 8,
            attrs: 5,
            communities: 3,
            clique_count: 2,
            clique_size: 6,
            contextual_count: 10,
            contextual_scale: 5.0,
            seed: 9,
        };
        let p1 = temp_path("synth1.gstore");
        let p2 = temp_path("synth2.gstore");
        let t1 = synth_store(&p1, &cfg, 64, 256).unwrap();
        let t2 = synth_store(&p2, &cfg, 64, 256).unwrap();
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        assert_eq!(t1.structural, t2.structural);
        assert_eq!(t1.contextual, t2.contextual);
        assert_eq!(t1.structural.len(), 12);
        assert_eq!(t1.contextual.len(), 10);

        let store = OocStore::open(&p1, 1 << 20).unwrap();
        let g = store.materialize();
        assert!(g.check_invariants());
        assert_eq!(g.num_nodes(), 600);
        // Clique members must be mutually connected.
        let (a, b) = (t1.structural[0], t1.structural[1]);
        assert!(g.has_edge(a, b));
        // Ring lattice gives every non-clique node degree 2k.
        let plain = (0..600u32).find(|u| !t1.structural.contains(u)).unwrap();
        assert_eq!(g.degree(plain), 8);
        assert!(g.labels().is_some());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn parse_mem_budget_understands_suffixes() {
        assert_eq!(parse_mem_budget("4096").unwrap(), 4096);
        assert_eq!(parse_mem_budget("64K").unwrap(), 64 << 10);
        assert_eq!(parse_mem_budget("96M").unwrap(), 96 << 20);
        assert_eq!(parse_mem_budget("2g").unwrap(), 2 << 30);
        assert!(parse_mem_budget("lots").is_err());
    }

    #[test]
    fn store_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OocStore>();
    }

    #[test]
    fn concurrent_readers_agree_under_tiny_budget() {
        let g = small_graph(11);
        let path = temp_path("stress.gstore");
        OocStore::create_from_graph(&g, &path, 8, 32).unwrap();
        let n = g.num_nodes();
        let d = g.num_attrs();
        // Plain owned expectations: the in-memory graph itself is !Sync.
        let expected_adj: Vec<Vec<u32>> = (0..n as u32).map(|u| g.neighbors(u).to_vec()).collect();
        let expected_attr: Vec<Vec<f32>> = (0..n).map(|u| g.attrs().row(u).to_vec()).collect();
        let min = (n + 1) * 8 + 32 * 4 + 8 * d * 4;
        let store = OocStore::open_with(
            &path,
            StoreOptions {
                budget: min + 512,
                policy: CachePolicy::Segmented,
                shards: 4,
            },
        )
        .unwrap();
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let store = &store;
                let expected_adj = &expected_adj;
                let expected_attr = &expected_attr;
                scope.spawn(move || {
                    let mut nbrs = Vec::new();
                    let mut row = vec![0f32; d];
                    for pass in 0..3u32 {
                        for i in 0..n as u32 {
                            // Thread-dependent visit order provokes
                            // eviction races on the shared cache.
                            let u = (i.wrapping_mul(2 * t + 1) + 7 * pass) % n as u32;
                            store.neighbors_into(u, &mut nbrs);
                            assert_eq!(
                                nbrs.as_slice(),
                                expected_adj[u as usize].as_slice(),
                                "row {u} (thread {t}, pass {pass})"
                            );
                            store.attr_row_into(u, &mut row);
                            assert_eq!(
                                row.as_slice(),
                                expected_attr[u as usize].as_slice(),
                                "attrs {u} (thread {t}, pass {pass})"
                            );
                            let v = (u + t) % n as u32;
                            assert_eq!(
                                GraphStore::has_edge(store, u, v),
                                expected_adj[u as usize].binary_search(&v).is_ok(),
                                "edge {u}-{v}"
                            );
                        }
                    }
                });
            }
        });
        let stats = store.stats();
        assert!(stats.evictions > 0, "tiny budget must evict: {stats:?}");
        assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
        assert!(
            stats.resident_bytes <= store.budget() as u64,
            "resident {} over budget {}",
            stats.resident_bytes,
            store.budget()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn segmented_cache_survives_scan_lru_does_not() {
        let g = small_graph(12);
        let path = temp_path("scan.gstore");
        OocStore::create_from_graph(&g, &path, 8, 32).unwrap();
        let d = g.num_attrs();
        let indptr_bytes = (g.num_nodes() + 1) * 8;
        // Room for ~4 edge blocks plus ~3 attribute blocks: a full edge
        // sweep overflows the cache many times over.
        let budget = indptr_bytes + 4 * 32 * 4 + 3 * 8 * d * 4;
        let hot_rows = [0u32, 1, 8, 9]; // attribute blocks 0 and 1
        let hot_reread_bytes = |policy: CachePolicy| -> u64 {
            let store = OocStore::open_with(
                &path,
                StoreOptions {
                    budget,
                    policy,
                    shards: 1,
                },
            )
            .unwrap();
            let mut row = vec![0f32; d];
            // Touch the hot rows twice: the second access promotes their
            // blocks to the protected segment (under Segmented).
            for _ in 0..2 {
                for &u in &hot_rows {
                    store.attr_row_into(u, &mut row);
                }
            }
            // Cold scan: page every edge block through the cache once.
            let mut nbrs = Vec::new();
            for u in 0..GraphStore::num_nodes(&store) as u32 {
                store.neighbors_into(u, &mut nbrs);
            }
            let before = store.stats().bytes_read;
            for &u in &hot_rows {
                store.attr_row_into(u, &mut row);
            }
            store.stats().bytes_read - before
        };
        assert_eq!(
            hot_reread_bytes(CachePolicy::Segmented),
            0,
            "segmented LRU must keep the hot attribute blocks through a scan"
        );
        assert!(
            hot_reread_bytes(CachePolicy::Lru) > 0,
            "plain LRU is expected to lose the hot blocks to the scan"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn global_stats_track_reads() {
        let g = small_graph(8);
        let path = temp_path("globalstats.gstore");
        OocStore::create_from_graph(&g, &path, 16, 64).unwrap();
        let before = global_store_stats();
        let store = OocStore::open(&path, 1 << 20).unwrap();
        let mut nbrs = Vec::new();
        store.neighbors_into(0, &mut nbrs);
        let after = global_store_stats();
        assert!(after.bytes_read > before.bytes_read);
        drop(store);
        let dropped = global_store_stats();
        assert_eq!(dropped.resident_blocks, before.resident_blocks);
        std::fs::remove_file(&path).ok();
    }
}
