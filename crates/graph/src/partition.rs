//! Edge-cut graph partitioning for distributed sharded scoring.
//!
//! The node set is split into contiguous, batch-aligned ranges — one per
//! shard. Each shard gets an on-disk [`OocStore`] *slice* holding its
//! owned nodes plus a **halo**: every ghost node within `hops` hops of the
//! owned range, with complete neighbour rows and attribute rows. The halo
//! is the explicit exchange step aggregation-based detectors need — the
//! variance/mean convolutions read attribute and degree rows of cross-
//! shard neighbours, so those rows are shipped to the owning shard at
//! partition time. Because slices keep **global** node ids inside
//! neighbour rows and [`ShardStore`] exposes the slice in the global id
//! space, the neighbour sampler resolves exactly the same subgraphs (same
//! RNG streams, same induced rows) as a single-process pass over the full
//! store — which is what makes merged shard scores byte-identical.
//!
//! On-disk layout of a partition directory:
//!
//! * `partition.manifest` — text metadata (graph shape, sampling config,
//!   per-shard ranges and halo statistics);
//! * `shard-<i>.vgodstore` — the shard's slice in the ordinary VGODSTR1
//!   format (or one shared `full.vgodstore` below the sampling threshold,
//!   where every shard scores from the materialised full graph anyway);
//! * `halo-<i>.vgodhalo` — the shard's sorted ghost-node id list.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::sample::SamplingConfig;
use crate::store::{
    write_store, GraphStore, OocStore, StoreOptions, DEFAULT_ATTR_BLOCK_NODES,
    DEFAULT_EDGE_BLOCK_ENTRIES,
};
use vgod_tensor::Matrix;

/// Magic line of `partition.manifest`.
pub const PARTITION_MAGIC: &str = "# vgod-partition v1";
/// Magic bytes of `halo-<i>.vgodhalo` files.
pub const HALO_MAGIC: &[u8; 8] = b"VGODHAL1";

/// How [`partition_store`] laid the graph out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionMode {
    /// At or below the sampling threshold every shard shares one full
    /// copy: detectors take the bit-identical full-graph path there, which
    /// needs the whole graph regardless of the shard's owned range.
    FullCopy,
    /// Above the threshold each shard gets its own closure slice.
    Sliced,
}

impl PartitionMode {
    fn as_str(&self) -> &'static str {
        match self {
            PartitionMode::FullCopy => "full-copy",
            PartitionMode::Sliced => "sliced",
        }
    }

    fn parse(s: &str) -> Result<PartitionMode, String> {
        match s {
            "full-copy" => Ok(PartitionMode::FullCopy),
            "sliced" => Ok(PartitionMode::Sliced),
            other => Err(format!("unknown partition mode {other:?}")),
        }
    }
}

/// Configuration for [`partition_store`].
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// Number of shards (contiguous node ranges).
    pub shards: usize,
    /// The sampling config workers will score under. Its `batch_size`
    /// fixes the range alignment, `hops` the halo radius, and
    /// `full_graph_threshold` the full-copy cutoff; all of it is recorded
    /// in the manifest so every worker scores under identical settings.
    pub sampling: SamplingConfig,
    /// Attribute rows per block in the written slices (`0` = default).
    pub attr_block_nodes: usize,
    /// Edge entries per block in the written slices (`0` = default).
    pub edge_block_entries: usize,
}

impl PartitionConfig {
    /// A partition config with default block sizes.
    pub fn new(shards: usize, sampling: SamplingConfig) -> Self {
        Self {
            shards,
            sampling,
            attr_block_nodes: 0,
            edge_block_entries: 0,
        }
    }
}

/// Per-shard partition metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMeta {
    /// Shard index.
    pub index: usize,
    /// First owned node id.
    pub lo: u32,
    /// One past the last owned node id.
    pub hi: u32,
    /// Nodes in the slice (owned + ghosts).
    pub closure: u64,
    /// Ghost (halo) nodes shipped to this shard.
    pub ghosts: u64,
    /// Directed edges from an owned node to a node outside the owned
    /// range — the shard's side of the edge cut.
    pub cross_edges: u64,
    /// Bytes of ghost attribute rows + ghost neighbour rows shipped in
    /// the halo exchange.
    pub halo_bytes: u64,
}

/// Metadata describing one partition directory.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionManifest {
    /// Global node count.
    pub num_nodes: usize,
    /// Global undirected edge count.
    pub num_edges: usize,
    /// Attribute dimension.
    pub num_attrs: usize,
    /// Full-copy or sliced layout.
    pub mode: PartitionMode,
    /// The sampling config the partition was built for (`ooc_threads` is a
    /// runtime knob, recorded as its default).
    pub sampling: SamplingConfig,
    /// Per-shard ranges and halo statistics, in shard order.
    pub shards: Vec<ShardMeta>,
}

impl PartitionManifest {
    /// Path of the manifest file inside `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join("partition.manifest")
    }

    /// Path of shard `i`'s slice store.
    pub fn slice_path(&self, dir: &Path, shard: usize) -> PathBuf {
        match self.mode {
            PartitionMode::FullCopy => dir.join("full.vgodstore"),
            PartitionMode::Sliced => dir.join(format!("shard-{shard}.vgodstore")),
        }
    }

    /// Path of shard `i`'s halo file (sliced mode only).
    pub fn halo_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("halo-{shard}.vgodhalo"))
    }

    /// Total ghost nodes shipped across all shards.
    pub fn total_ghosts(&self) -> u64 {
        self.shards.iter().map(|s| s.ghosts).sum()
    }

    /// Total cross-shard directed edges across all shards.
    pub fn total_cross_edges(&self) -> u64 {
        self.shards.iter().map(|s| s.cross_edges).sum()
    }

    /// Total halo-exchange bytes across all shards.
    pub fn total_halo_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.halo_bytes).sum()
    }

    /// Serialise to the manifest text format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(PARTITION_MAGIC);
        out.push('\n');
        out.push_str(&format!(
            "graph n={} edges={} attrs={} mode={} shards={}\n",
            self.num_nodes,
            self.num_edges,
            self.num_attrs,
            self.mode.as_str(),
            self.shards.len()
        ));
        let s = &self.sampling;
        out.push_str(&format!(
            "sampling threshold={} batch={} fanout={} hops={} train_seeds={} seed={}\n",
            s.full_graph_threshold, s.batch_size, s.fanout, s.hops, s.train_seeds, s.seed
        ));
        for m in &self.shards {
            out.push_str(&format!(
                "shard {} lo={} hi={} closure={} ghosts={} cross_edges={} halo_bytes={}\n",
                m.index, m.lo, m.hi, m.closure, m.ghosts, m.cross_edges, m.halo_bytes
            ));
        }
        out
    }

    /// Write the manifest into `dir`.
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        std::fs::write(Self::path(dir), self.render())
            .map_err(|e| format!("{}: {e}", Self::path(dir).display()))
    }

    /// Parse a manifest from its text form.
    pub fn parse(text: &str) -> Result<PartitionManifest, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(l) if l.trim() == PARTITION_MAGIC => {}
            other => return Err(format!("not a partition manifest: {other:?}")),
        }
        let graph = kv_line(lines.next(), "graph")?;
        let num_nodes = kv_get(&graph, "n")?;
        let num_edges = kv_get(&graph, "edges")?;
        let num_attrs = kv_get(&graph, "attrs")?;
        let mode = PartitionMode::parse(kv_get_str(&graph, "mode")?)?;
        let num_shards: usize = kv_get(&graph, "shards")?;
        let samp = kv_line(lines.next(), "sampling")?;
        let sampling = SamplingConfig {
            full_graph_threshold: kv_get(&samp, "threshold")?,
            batch_size: kv_get(&samp, "batch")?,
            fanout: kv_get(&samp, "fanout")?,
            hops: kv_get(&samp, "hops")?,
            train_seeds: kv_get(&samp, "train_seeds")?,
            seed: kv_get(&samp, "seed")?,
            ..SamplingConfig::default()
        };
        let mut shards = Vec::with_capacity(num_shards);
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let rest = line
                .strip_prefix("shard ")
                .ok_or_else(|| format!("bad manifest line {line:?}"))?;
            let (index_str, kvs) = rest
                .split_once(' ')
                .ok_or_else(|| format!("bad shard line {line:?}"))?;
            let index: usize = index_str
                .parse()
                .map_err(|e| format!("bad shard index {index_str:?}: {e}"))?;
            let kvs = parse_kvs(kvs)?;
            shards.push(ShardMeta {
                index,
                lo: kv_get(&kvs, "lo")?,
                hi: kv_get(&kvs, "hi")?,
                closure: kv_get(&kvs, "closure")?,
                ghosts: kv_get(&kvs, "ghosts")?,
                cross_edges: kv_get(&kvs, "cross_edges")?,
                halo_bytes: kv_get(&kvs, "halo_bytes")?,
            });
        }
        if shards.len() != num_shards {
            return Err(format!(
                "manifest declares {num_shards} shards but lists {}",
                shards.len()
            ));
        }
        for (i, m) in shards.iter().enumerate() {
            if m.index != i {
                return Err(format!("shard lines out of order at index {i}"));
            }
        }
        Ok(PartitionManifest {
            num_nodes,
            num_edges,
            num_attrs,
            mode,
            sampling,
            shards,
        })
    }

    /// Load the manifest from a partition directory.
    pub fn load(dir: &Path) -> Result<PartitionManifest, String> {
        let path = Self::path(dir);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text)
    }
}

type Kvs = Vec<(String, String)>;

fn parse_kvs(s: &str) -> Result<Kvs, String> {
    s.split_whitespace()
        .map(|pair| {
            pair.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or_else(|| format!("bad key=value pair {pair:?}"))
        })
        .collect()
}

fn kv_line(line: Option<&str>, prefix: &str) -> Result<Kvs, String> {
    let line = line.ok_or_else(|| format!("manifest missing {prefix:?} line"))?;
    let rest = line
        .trim()
        .strip_prefix(prefix)
        .ok_or_else(|| format!("expected {prefix:?} line, got {line:?}"))?;
    parse_kvs(rest)
}

fn kv_get_str<'a>(kvs: &'a Kvs, key: &str) -> Result<&'a str, String> {
    kvs.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| format!("manifest missing key {key:?}"))
}

fn kv_get<T: std::str::FromStr>(kvs: &Kvs, key: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    kv_get_str(kvs, key)?
        .parse()
        .map_err(|e| format!("bad value for {key:?}: {e}"))
}

/// The contiguous, batch-aligned owned ranges for `shards` shards over `n`
/// nodes. Every range starts on a `batch_size` boundary (so shards score
/// whole global batches) and the ranges tile `[0, n)` exactly; trailing
/// shards may be empty when `n` is small.
pub fn shard_ranges(n: usize, shards: usize, batch_size: usize) -> Vec<(u32, u32)> {
    assert!(shards >= 1, "need at least one shard");
    assert!(batch_size >= 1, "batch size must be positive");
    let per = n.div_ceil(shards).div_ceil(batch_size).max(1) * batch_size;
    (0..shards)
        .map(|i| ((i * per).min(n) as u32, ((i + 1) * per).min(n) as u32))
        .collect()
}

/// The directed cross-shard edge count of range `[lo, hi)`: edges from an
/// owned node to any node outside the range. This is the quantity halo
/// manifests account for, exposed for tests and diagnostics.
pub fn count_cross_edges(store: &dyn GraphStore, lo: u32, hi: u32) -> u64 {
    let mut nbrs = Vec::new();
    let mut cross = 0u64;
    for u in lo..hi {
        store.neighbors_into(u, &mut nbrs);
        cross += nbrs.iter().filter(|&&v| v < lo || v >= hi).count() as u64;
    }
    cross
}

/// The `hops`-hop closure ghosts of range `[lo, hi)`: every node outside
/// the range reachable within `hops` hops of it, sorted ascending.
pub fn closure_ghosts(store: &dyn GraphStore, lo: u32, hi: u32, hops: usize) -> Vec<u32> {
    let n = store.num_nodes();
    let mut in_closure = vec![false; n];
    for u in lo..hi {
        in_closure[u as usize] = true;
    }
    let mut frontier: Vec<u32> = (lo..hi).collect();
    let mut nbrs = Vec::new();
    for _ in 0..hops {
        let mut next = Vec::new();
        for &u in &frontier {
            store.neighbors_into(u, &mut nbrs);
            for &v in &nbrs {
                if !in_closure[v as usize] {
                    in_closure[v as usize] = true;
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    (0..n as u32)
        .filter(|&u| in_closure[u as usize] && !(lo..hi).contains(&u))
        .collect()
}

/// Partition `store` into `cfg.shards` contiguous ranges under `dir`,
/// writing per-shard slices, halo files, and the manifest. Returns the
/// manifest. Existing partition files in `dir` are overwritten.
pub fn partition_store(
    store: &dyn GraphStore,
    dir: &Path,
    cfg: &PartitionConfig,
) -> Result<PartitionManifest, String> {
    if cfg.shards == 0 {
        return Err("need at least one shard".into());
    }
    let n = store.num_nodes();
    if n == 0 {
        return Err("cannot partition an empty graph".into());
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let d = store.num_attrs();
    let abn = if cfg.attr_block_nodes == 0 {
        DEFAULT_ATTR_BLOCK_NODES
    } else {
        cfg.attr_block_nodes
    };
    let ebe = if cfg.edge_block_entries == 0 {
        DEFAULT_EDGE_BLOCK_ENTRIES
    } else {
        cfg.edge_block_entries
    };
    let ranges = shard_ranges(n, cfg.shards, cfg.sampling.batch_size);
    let full_copy = cfg.sampling.below_threshold(store);
    let mode = if full_copy {
        PartitionMode::FullCopy
    } else {
        PartitionMode::Sliced
    };

    let mut shards = Vec::with_capacity(cfg.shards);
    if full_copy {
        // One shared full copy: below the threshold every detector takes
        // the materialised full-graph path, so slices would be full copies
        // anyway — write it once and point every shard at it.
        let path = dir.join("full.vgodstore");
        write_slice(
            store,
            &path,
            &(0..n as u32).collect::<Vec<_>>(),
            d,
            abn,
            ebe,
        )?;
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            shards.push(ShardMeta {
                index: i,
                lo,
                hi,
                closure: n as u64,
                ghosts: 0,
                cross_edges: count_cross_edges(store, lo, hi),
                halo_bytes: 0,
            });
        }
    } else {
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            let ghosts = closure_ghosts(store, lo, hi, cfg.sampling.hops);
            let cross_edges = count_cross_edges(store, lo, hi);
            let ghost_edge_entries: u64 = ghosts.iter().map(|&g| store.degree(g) as u64).sum();
            let halo_bytes = ghosts.len() as u64 * d as u64 * 4 + ghost_edge_entries * 4;
            let mut closure: Vec<u32> = Vec::with_capacity((hi - lo) as usize + ghosts.len());
            let gb = ghosts.partition_point(|&g| g < lo);
            closure.extend_from_slice(&ghosts[..gb]);
            closure.extend(lo..hi);
            closure.extend_from_slice(&ghosts[gb..]);
            write_slice(
                store,
                &dir.join(format!("shard-{i}.vgodstore")),
                &closure,
                d,
                abn,
                ebe,
            )?;
            write_halo(
                &PartitionManifest::halo_path(dir, i),
                i,
                lo,
                hi,
                cross_edges,
                halo_bytes,
                &ghosts,
            )?;
            shards.push(ShardMeta {
                index: i,
                lo,
                hi,
                closure: closure.len() as u64,
                ghosts: ghosts.len() as u64,
                cross_edges,
                halo_bytes,
            });
        }
    }

    let manifest = PartitionManifest {
        num_nodes: n,
        num_edges: store.num_edges(),
        num_attrs: d,
        mode,
        sampling: cfg.sampling,
        shards,
    };
    manifest.save(dir)?;
    Ok(manifest)
}

/// Write the slice store for `nodes` (sorted global ids): local ids are
/// positions in `nodes`, neighbour rows keep their **global** ids (the
/// VGODSTR1 format never range-checks row values, which is exactly what a
/// global-id slice needs).
fn write_slice(
    store: &dyn GraphStore,
    path: &Path,
    nodes: &[u32],
    d: usize,
    abn: usize,
    ebe: usize,
) -> Result<(), String> {
    debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "unsorted slice ids");
    write_store(
        path,
        nodes.len(),
        d,
        abn,
        ebe,
        false,
        |lu, out| store.neighbors_into(nodes[lu as usize], out),
        |lu, out| store.attr_row_into(nodes[lu as usize], out),
        |_| 0,
    )
    .map_err(|e| format!("{}: {e}", path.display()))
}

fn write_halo(
    path: &Path,
    shard: usize,
    lo: u32,
    hi: u32,
    cross_edges: u64,
    halo_bytes: u64,
    ghosts: &[u32],
) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut out = BufWriter::new(File::create(path).map_err(err)?);
    out.write_all(HALO_MAGIC).map_err(err)?;
    for word in [
        shard as u64,
        lo as u64,
        hi as u64,
        cross_edges,
        halo_bytes,
        ghosts.len() as u64,
    ] {
        out.write_all(&word.to_le_bytes()).map_err(err)?;
    }
    for &g in ghosts {
        out.write_all(&g.to_le_bytes()).map_err(err)?;
    }
    out.flush().map_err(err)
}

/// A shard's halo file: its owned range, edge-cut size, and ghost ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HaloManifest {
    /// Shard index.
    pub shard: usize,
    /// First owned node id.
    pub lo: u32,
    /// One past the last owned node id.
    pub hi: u32,
    /// Directed edges leaving the owned range.
    pub cross_edges: u64,
    /// Bytes of ghost rows shipped in the halo.
    pub halo_bytes: u64,
    /// Sorted ghost node ids.
    pub ghosts: Vec<u32>,
}

impl HaloManifest {
    /// Read a halo file written by [`partition_store`].
    pub fn load(path: &Path) -> Result<HaloManifest, String> {
        let err = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut input = std::io::BufReader::new(File::open(path).map_err(err)?);
        let mut magic = [0u8; 8];
        input.read_exact(&mut magic).map_err(err)?;
        if &magic != HALO_MAGIC {
            return Err(format!("{}: not a halo file", path.display()));
        }
        let mut words = [0u64; 6];
        let mut buf = [0u8; 8];
        for w in &mut words {
            input.read_exact(&mut buf).map_err(err)?;
            *w = u64::from_le_bytes(buf);
        }
        let [shard, lo, hi, cross_edges, halo_bytes, count] = words;
        let mut ghosts = Vec::with_capacity(count as usize);
        let mut id = [0u8; 4];
        for _ in 0..count {
            input.read_exact(&mut id).map_err(err)?;
            ghosts.push(u32::from_le_bytes(id));
        }
        Ok(HaloManifest {
            shard: shard as usize,
            lo: lo as u32,
            hi: hi as u32,
            cross_edges,
            halo_bytes,
            ghosts,
        })
    }
}

/// One shard's slice of a partitioned graph, exposed in the **global** id
/// space: `num_nodes()` is the full graph's node count and every node
/// access takes a global id, translated to the slice's local row under the
/// hood. The neighbour sampler therefore runs completely unchanged on a
/// `ShardStore` — global batch indices, global seed ranges, global
/// neighbour ids — and produces bit-identical sampled subgraphs for every
/// node in the shard's closure. Accessing a node outside the closure
/// panics: the partition radius (`hops`) guarantees scoring the owned
/// range never does.
pub struct ShardStore {
    inner: OocStore,
    manifest: PartitionManifest,
    meta: ShardMeta,
    /// Sorted ghost ids; empty in full-copy mode.
    ghosts: Vec<u32>,
    /// Ghosts with id below `meta.lo` (they occupy the first local rows).
    ghosts_below: usize,
    full_copy: bool,
}

impl ShardStore {
    /// Open shard `shard` of the partition under `dir`.
    pub fn open(dir: &Path, shard: usize, opts: StoreOptions) -> Result<ShardStore, String> {
        let manifest = PartitionManifest::load(dir)?;
        let meta = manifest
            .shards
            .get(shard)
            .ok_or_else(|| {
                format!(
                    "partition has {} shards, no shard {shard}",
                    manifest.shards.len()
                )
            })?
            .clone();
        let full_copy = manifest.mode == PartitionMode::FullCopy;
        let ghosts = if full_copy {
            Vec::new()
        } else {
            let halo = HaloManifest::load(&PartitionManifest::halo_path(dir, shard))?;
            if halo.shard != shard || halo.lo != meta.lo || halo.hi != meta.hi {
                return Err(format!(
                    "halo file for shard {shard} disagrees with the manifest"
                ));
            }
            halo.ghosts
        };
        let inner = OocStore::open_with(&manifest.slice_path(dir, shard), opts)?;
        let expect = if full_copy {
            manifest.num_nodes
        } else {
            meta.closure as usize
        };
        if inner.num_nodes() != expect {
            return Err(format!(
                "slice for shard {shard} has {} nodes, manifest says {expect}",
                inner.num_nodes()
            ));
        }
        let ghosts_below = ghosts.partition_point(|&g| g < meta.lo);
        Ok(ShardStore {
            inner,
            manifest,
            meta,
            ghosts,
            ghosts_below,
            full_copy,
        })
    }

    /// The partition manifest this shard belongs to.
    pub fn manifest(&self) -> &PartitionManifest {
        &self.manifest
    }

    /// This shard's metadata (owned range, halo statistics).
    pub fn meta(&self) -> &ShardMeta {
        &self.meta
    }

    /// The owned node range `[lo, hi)` this shard scores.
    pub fn owned_range(&self) -> (u32, u32) {
        (self.meta.lo, self.meta.hi)
    }

    /// The sampling config the partition was built for.
    pub fn sampling(&self) -> SamplingConfig {
        self.manifest.sampling
    }

    /// Translate a global id to the slice-local row.
    fn local(&self, u: u32) -> u32 {
        if self.full_copy {
            return u;
        }
        if (self.meta.lo..self.meta.hi).contains(&u) {
            return self.ghosts_below as u32 + (u - self.meta.lo);
        }
        match self.ghosts.binary_search(&u) {
            Ok(i) if i < self.ghosts_below => i as u32,
            Ok(i) => (self.meta.hi - self.meta.lo) + i as u32,
            Err(_) => panic!(
                "node {u} is outside shard {}'s closure (owned [{}, {}), {} ghosts)",
                self.meta.index,
                self.meta.lo,
                self.meta.hi,
                self.ghosts.len()
            ),
        }
    }

    fn sliced_only_panic(&self, what: &str) -> ! {
        panic!(
            "{what} is a full-graph access, unavailable on a sliced ShardStore \
             (shard {} holds only its closure)",
            self.meta.index
        )
    }
}

impl GraphStore for ShardStore {
    fn num_nodes(&self) -> usize {
        // Global: samplers tile batches over the full node range.
        self.manifest.num_nodes
    }

    fn num_edges(&self) -> usize {
        self.manifest.num_edges
    }

    fn num_attrs(&self) -> usize {
        self.inner.num_attrs()
    }

    fn degree(&self, u: u32) -> usize {
        self.inner.degree(self.local(u))
    }

    fn neighbors_into(&self, u: u32, out: &mut Vec<u32>) {
        // Rows store global ids, so no translation of the values is needed.
        self.inner.neighbors_into(self.local(u), out);
    }

    fn has_edge(&self, u: u32, v: u32) -> bool {
        // Row values are global, so the inner binary search takes `v` as is.
        self.inner.has_edge(self.local(u), v)
    }

    fn attr_row_into(&self, u: u32, out: &mut [f32]) {
        self.inner.attr_row_into(self.local(u), out);
    }

    fn gather_attrs(&self, nodes: &[u32]) -> Matrix {
        let local: Vec<u32> = nodes.iter().map(|&u| self.local(u)).collect();
        self.inner.gather_attrs(&local)
    }

    fn visit_adjacency(&self, cb: &mut dyn FnMut(u32, &[u32])) {
        if !self.full_copy {
            self.sliced_only_panic("visit_adjacency");
        }
        self.inner.visit_adjacency(cb);
    }

    fn visit_attrs(&self, lo: u32, hi: u32, cb: &mut dyn FnMut(u32, &[f32])) {
        if self.full_copy {
            return self.inner.visit_attrs(lo, hi, cb);
        }
        if lo >= hi {
            return;
        }
        assert!(
            self.meta.lo <= lo && hi <= self.meta.hi,
            "visit_attrs({lo}, {hi}) reaches outside shard {}'s owned rows [{}, {})",
            self.meta.index,
            self.meta.lo,
            self.meta.hi
        );
        // Owned rows sit contiguously in the slice, after the ghosts below.
        let local_lo = self.local(lo);
        self.inner
            .visit_attrs(local_lo, local_lo + (hi - lo), &mut |u, row| {
                cb(u - local_lo + lo, row)
            });
    }

    fn labels_vec(&self) -> Option<Vec<u32>> {
        None
    }

    fn stats(&self) -> crate::store::StoreStats {
        self.inner.stats()
    }

    fn as_shared(&self) -> Option<&(dyn GraphStore + Sync)> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{synth_store, SynthStoreConfig};

    fn synth(dir: &Path, n: usize) -> PathBuf {
        let path = dir.join("g.vgodstore");
        let cfg = SynthStoreConfig::scaled(n, 42);
        synth_store(
            &path,
            &cfg,
            DEFAULT_ATTR_BLOCK_NODES,
            DEFAULT_EDGE_BLOCK_ENTRIES,
        )
        .unwrap();
        path
    }

    fn opts() -> StoreOptions {
        StoreOptions::new(16 << 20)
    }

    #[test]
    fn ranges_are_batch_aligned_and_tile() {
        for (n, shards, batch) in [(10_000, 4, 1024), (5, 4, 1024), (4096, 2, 1024)] {
            let ranges = shard_ranges(n, shards, batch);
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1 as usize, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
            }
            for &(lo, hi) in &ranges {
                assert!(lo == hi || (lo as usize).is_multiple_of(batch));
                assert!((hi as usize).is_multiple_of(batch) || hi as usize == n);
            }
        }
    }

    #[test]
    fn manifest_round_trips() {
        let manifest = PartitionManifest {
            num_nodes: 5000,
            num_edges: 25_000,
            num_attrs: 32,
            mode: PartitionMode::Sliced,
            sampling: SamplingConfig {
                full_graph_threshold: 100,
                seed: 9,
                ..SamplingConfig::default()
            },
            shards: vec![
                ShardMeta {
                    index: 0,
                    lo: 0,
                    hi: 3072,
                    closure: 4000,
                    ghosts: 928,
                    cross_edges: 1200,
                    halo_bytes: 123_456,
                },
                ShardMeta {
                    index: 1,
                    lo: 3072,
                    hi: 5000,
                    closure: 2800,
                    ghosts: 872,
                    cross_edges: 1200,
                    halo_bytes: 99_000,
                },
            ],
        };
        let parsed = PartitionManifest::parse(&manifest.render()).unwrap();
        assert_eq!(parsed, manifest);
    }

    #[test]
    fn shard_store_matches_source_reads() {
        let dir = tempdir("partition_reads");
        let src = synth(&dir, 3000);
        let store = OocStore::open_with(&src, opts()).unwrap();
        let cfg = PartitionConfig {
            attr_block_nodes: 64, // many attribute blocks per slice
            ..PartitionConfig::new(
                2,
                SamplingConfig {
                    full_graph_threshold: 100, // force sliced mode
                    batch_size: 512,
                    ..SamplingConfig::default()
                },
            )
        };
        let pdir = dir.join("parts");
        let manifest = partition_store(&store, &pdir, &cfg).unwrap();
        assert_eq!(manifest.mode, PartitionMode::Sliced);
        assert_eq!(manifest.num_nodes, 3000);
        let mut want = Vec::new();
        let mut got = Vec::new();
        let d = store.num_attrs();
        let mut row_want = vec![0f32; d];
        let mut row_got = vec![0f32; d];
        for (i, meta) in manifest.shards.iter().enumerate() {
            let shard = ShardStore::open(&pdir, i, opts()).unwrap();
            assert_eq!(shard.num_nodes(), 3000);
            let halo = HaloManifest::load(&PartitionManifest::halo_path(&pdir, i)).unwrap();
            // Every owned node and every ghost reads identically to the
            // source store.
            for &u in (meta.lo..meta.hi)
                .collect::<Vec<_>>()
                .iter()
                .chain(&halo.ghosts)
            {
                store.neighbors_into(u, &mut want);
                shard.neighbors_into(u, &mut got);
                assert_eq!(want, got, "row {u}");
                assert_eq!(store.degree(u), shard.degree(u));
                store.attr_row_into(u, &mut row_want);
                shard.attr_row_into(u, &mut row_got);
                assert_eq!(row_want, row_got, "attrs {u}");
            }
            // A ranged sweep of the owned rows streams the same rows.
            let mut swept = Vec::new();
            shard.visit_attrs(meta.lo, meta.hi, &mut |u, row| {
                store.attr_row_into(u, &mut row_want);
                assert_eq!(row, &row_want[..], "swept attrs {u}");
                swept.push(u);
            });
            assert_eq!(swept, (meta.lo..meta.hi).collect::<Vec<_>>());
            // One gather over owned and ghost ids, scrambled and repeated,
            // equals the shard's own row-by-row reads.
            assert!(!halo.ghosts.is_empty(), "shard {i} has no ghosts");
            let mut ids: Vec<u32> = (meta.lo..meta.hi).chain(halo.ghosts).collect();
            ids.sort_unstable_by_key(|&u| u.wrapping_mul(2_654_435_761));
            ids.extend_from_within(..ids.len() / 3);
            let gathered = shard.gather_attrs(&ids);
            for (r, &u) in ids.iter().enumerate() {
                shard.attr_row_into(u, &mut row_got);
                assert_eq!(gathered.row(r), &row_got[..], "gathered attrs {u}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "closure")]
    fn out_of_closure_access_panics() {
        let dir = tempdir("partition_oob");
        let src = synth(&dir, 2000);
        let store = OocStore::open_with(&src, opts()).unwrap();
        let cfg = PartitionConfig::new(
            2,
            SamplingConfig {
                full_graph_threshold: 100,
                batch_size: 512,
                hops: 1,
                ..SamplingConfig::default()
            },
        );
        let pdir = dir.join("parts");
        partition_store(&store, &pdir, &cfg).unwrap();
        let shard = ShardStore::open(&pdir, 0, opts()).unwrap();
        // Mid-way through shard 1's range: more than one hop from shard 0.
        let mut out = Vec::new();
        shard.neighbors_into(1500, &mut out);
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vgod_{}_{}", tag, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
