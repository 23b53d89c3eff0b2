//! Out-of-core scale trajectory: 10k → 100k → 1M nodes under one fixed
//! memory budget.
//!
//! Each point synthesises an on-disk store (`SynthStoreConfig::scaled`:
//! average degree 20, 32 attributes — the 1M point is the ISSUE's
//! 1M-node / 10M-edge graph), opens it demand-paged under the budget, and
//! runs one detector per class through the `GraphStore` path:
//!
//! * **streaming_exact** — `Deg`: one adjacency sweep, no sampling;
//! * **sampled_mlp** — `Vbm`: mini-batch variance training over sampled
//!   batch views, per-batch scoring;
//! * **sampled_gnn** — `Dominant`: GCN autoencoder trained on one sampled
//!   training subgraph, scored per sampled batch;
//! * **sampled_vgod** — `Vgod`, the paper's method: the VBM mini-batch fit
//!   above plus ARM's GNN reconstruction trained over sampled batch views,
//!   both scored per sampled batch and combined.
//!
//! Per class the bench records wall-clock for fit and score, the process
//! peak RSS (`VmHWM`, reset via `/proc/self/clear_refs` before each run),
//! and the store's read/eviction counters. `in_memory_bytes_estimate`
//! accompanies every point so the JSON itself proves where the budget is
//! genuinely out of reach in-core (at 1M nodes the attribute matrix alone
//! is 128 MB against the default 96 MB budget). Results are written to
//! `BENCH_scale.json` at the repository root.
//!
//! Environment knobs: `VGOD_SCALE_MAX_NODES` caps the trajectory (e.g.
//! `100000` for the CI smoke run), `VGOD_SCALE_BUDGET` overrides the
//! budget (`parse_mem_budget` syntax, default `96M`).

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use vgod::{Vbm, VbmConfig, Vgod, VgodConfig};
use vgod_baselines::{DeepConfig, Deg, Dominant};
use vgod_eval::OutlierDetector;
use vgod_graph::{
    in_memory_bytes_estimate, parse_mem_budget, synth_store, CachePolicy, GraphStore, OocStore,
    SamplingConfig, StoreOptions, SynthStoreConfig, DEFAULT_ATTR_BLOCK_NODES,
    DEFAULT_EDGE_BLOCK_ENTRIES,
};

struct ClassResult {
    class: &'static str,
    detector: &'static str,
    fit_ms: f64,
    score_ms: f64,
    peak_rss_bytes: u64,
    bytes_read: u64,
    evictions: u64,
}

/// One execution mode of the concurrent scoring A/B (same fitted model,
/// same budget, fresh cold block cache; scores asserted bit-identical).
struct AbResult {
    mode: &'static str,
    threads: usize,
    score_ms: f64,
    bytes_read: u64,
    hits: u64,
    misses: u64,
}

/// Cache-replacement comparison under a hot-set-plus-scan workload.
/// `hot_survival` is the block-level fraction of the hot working set
/// still served from cache when re-touched after the scan
/// (`1 − re-read bytes / hot-set bytes`).
struct ScanCacheResult {
    policy: &'static str,
    hot_survival: f64,
    hot_bytes: u64,
    hot_reread_bytes: u64,
    hits: u64,
    misses: u64,
}

struct PointResult {
    n: usize,
    edges: usize,
    attrs: usize,
    synth_ms: f64,
    store_file_bytes: u64,
    in_memory_estimate: u64,
    classes: Vec<ClassResult>,
    ab: Vec<AbResult>,
    scan_cache: Vec<ScanCacheResult>,
}

/// Current peak resident set (`VmHWM`) in bytes, 0 if unreadable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Reset the kernel's peak-RSS watermark so each class run reports its own
/// high-water mark (Linux ≥ 4.0; a failure just means the peak is an
/// over-estimate carried from earlier work).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn run_class(
    class: &'static str,
    detector: &'static str,
    store: &OocStore,
    cfg: &SamplingConfig,
    det: &mut dyn OutlierDetector,
) -> ClassResult {
    let before = store.stats();
    reset_peak_rss();
    let t0 = Instant::now();
    det.fit_store(store, cfg);
    let fit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let scores = det.score_store(store, cfg);
    let score_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(scores.combined.len(), store.num_nodes());
    assert!(scores.combined.iter().all(|s| s.is_finite()));
    let after = store.stats();
    ClassResult {
        class,
        detector,
        fit_ms,
        score_ms,
        peak_rss_bytes: peak_rss_bytes(),
        bytes_read: after.bytes_read - before.bytes_read,
        evictions: after.evictions - before.evictions,
    }
}

/// Sequential vs batch-parallel scoring of one fitted sampled-path
/// detector. Each mode reopens the store so every run starts from a cold
/// block cache under the same budget; the OS page cache is warm for both
/// (the fit pass touched the whole file), so the A/B
/// isolates the pipeline, not the disk.
fn run_ab(path: &Path, budget: usize, cfg: &SamplingConfig) -> Vec<AbResult> {
    let store = OocStore::open(path, budget).expect("open store for A/B fit");
    let mut vbm = Vbm::new(VbmConfig {
        hidden_dim: 16,
        epochs: 2,
        ..VbmConfig::default()
    });
    vbm.fit_store(&store, cfg);
    drop(store);

    let mut baseline: Option<Vec<f32>> = None;
    let mut out = Vec::new();
    for (mode, threads) in [("sequential", 1), ("parallel", 0)] {
        let store = OocStore::open(path, budget).expect("open store for A/B mode");
        let run_cfg = SamplingConfig {
            ooc_threads: threads,
            ..*cfg
        };
        let t0 = Instant::now();
        let scores = vbm.score_store(&store, &run_cfg).combined;
        let score_ms = t0.elapsed().as_secs_f64() * 1e3;
        match &baseline {
            None => baseline = Some(scores),
            Some(b) => assert_eq!(
                b, &scores,
                "{mode} must be bit-identical to the sequential baseline"
            ),
        }
        let st = store.stats();
        out.push(AbResult {
            mode,
            threads: run_cfg.score_threads(),
            score_ms,
            bytes_read: st.bytes_read,
            hits: st.hits,
            misses: st.misses,
        });
    }
    out
}

/// LRU vs segmented LRU under the adversarial workload the segmented
/// policy exists for: a small re-used hot set interleaved with one full
/// per-row sweep. Reported per policy: the hit rate and bytes re-read
/// when the hot set is touched again *after* the sweep (segmented keeps
/// it resident; plain LRU has evicted it for scan blocks it never reuses).
fn run_scan_cache(path: &Path, n: usize, attrs: usize) -> Vec<ScanCacheResult> {
    fn touch_hot(store: &OocStore, hot: u32, row: &mut [f32], nbrs: &mut Vec<u32>) {
        for u in 0..hot {
            store.attr_row_into(u, row);
            store.neighbors_into(u, nbrs);
        }
    }
    let mut out = Vec::new();
    for (name, policy) in [
        ("lru", CachePolicy::Lru),
        ("segmented", CachePolicy::Segmented),
    ] {
        // Budget: row pointers (u64 each) + 12 cache blocks. The hot set
        // (4 attr blocks plus their ~3 edge blocks) fits the protected
        // segment's 4/5-of-cache cap with room to spare; the scan does not.
        let attr_block_bytes = DEFAULT_ATTR_BLOCK_NODES * attrs * 4;
        let budget = (n + 1) * 8 + 12 * attr_block_bytes;
        let store = OocStore::open_with(
            path,
            StoreOptions {
                budget,
                policy,
                shards: 1, // single shard: eviction order is fully determined
            },
        )
        .expect("open store for scan A/B");
        let hot = DEFAULT_ATTR_BLOCK_NODES as u32 * 4;
        let mut row = vec![0.0f32; store.num_attrs()];
        let mut nbrs = Vec::new();
        let base = store.stats();
        touch_hot(&store, hot, &mut row, &mut nbrs); // admit
        let hot_bytes = store.stats().bytes_read - base.bytes_read;
        touch_hot(&store, hot, &mut row, &mut nbrs); // reuse: promote under segmented
        for u in 0..n as u32 {
            store.attr_row_into(u, &mut row); // the scan
        }
        let before = store.stats();
        touch_hot(&store, hot, &mut row, &mut nbrs); // hot set still resident?
        let after = store.stats();
        let reread = after.bytes_read - before.bytes_read;
        out.push(ScanCacheResult {
            policy: name,
            hot_survival: 1.0 - reread as f64 / hot_bytes.max(1) as f64,
            hot_bytes,
            hot_reread_bytes: reread,
            hits: after.hits,
            misses: after.misses,
        });
    }
    out
}

fn run_point(n: usize, budget: usize) -> PointResult {
    let path = std::env::temp_dir().join(format!("vgod_scale_{n}_{}", std::process::id()));
    let synth_cfg = SynthStoreConfig::scaled(n, 42);
    let t0 = Instant::now();
    synth_store(
        &path,
        &synth_cfg,
        DEFAULT_ATTR_BLOCK_NODES,
        DEFAULT_EDGE_BLOCK_ENTRIES,
    )
    .expect("synthesise store");
    let synth_ms = t0.elapsed().as_secs_f64() * 1e3;
    let store_file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let store = OocStore::open(&path, budget).expect("open store");
    let edges = store.num_edges();
    let attrs = store.num_attrs();
    // Default threshold: the 10k point exercises the bit-identical
    // full-graph fast path, 100k and 1M the sampled path.
    let cfg = SamplingConfig {
        batch_size: 4096,
        fanout: 4,
        hops: 2,
        train_seeds: 1024,
        seed: 42,
        ..SamplingConfig::default()
    };

    let mut classes = Vec::new();
    classes.push(run_class("streaming_exact", "deg", &store, &cfg, &mut Deg));
    let mut vbm = Vbm::new(VbmConfig {
        hidden_dim: 16,
        epochs: 2,
        ..VbmConfig::default()
    });
    classes.push(run_class("sampled_mlp", "vbm", &store, &cfg, &mut vbm));
    let mut dominant = Dominant::new(DeepConfig {
        hidden: 8,
        epochs: 2,
        ..DeepConfig::fast()
    });
    classes.push(run_class(
        "sampled_gnn",
        "dominant",
        &store,
        &cfg,
        &mut dominant,
    ));
    let mut vgod_cfg = VgodConfig::default();
    vgod_cfg.vbm.hidden_dim = 16;
    vgod_cfg.vbm.epochs = 2;
    vgod_cfg.arm.hidden_dim = 16;
    vgod_cfg.arm.epochs = 2;
    let mut vgod = Vgod::new(vgod_cfg);
    classes.push(run_class("sampled_vgod", "vgod", &store, &cfg, &mut vgod));
    drop(store);

    // The concurrency A/B and the replacement-policy comparison only make
    // sense above the sampling threshold (below it scoring is one exact
    // full-graph pass with nothing to parallelise or thrash).
    let (ab, scan_cache) = if n > cfg.full_graph_threshold {
        (run_ab(&path, budget, &cfg), run_scan_cache(&path, n, attrs))
    } else {
        (Vec::new(), Vec::new())
    };

    let _ = std::fs::remove_file(&path);
    PointResult {
        n,
        edges,
        attrs,
        synth_ms,
        store_file_bytes,
        in_memory_estimate: in_memory_bytes_estimate(n, edges, attrs),
        classes,
        ab,
        scan_cache,
    }
}

fn main() {
    let budget =
        parse_mem_budget(&std::env::var("VGOD_SCALE_BUDGET").unwrap_or_else(|_| "96M".to_string()))
            .expect("VGOD_SCALE_BUDGET");
    let max_nodes: usize = std::env::var("VGOD_SCALE_MAX_NODES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);

    let mut points = Vec::new();
    for n in [10_000usize, 100_000, 1_000_000] {
        if n > max_nodes {
            break;
        }
        eprintln!("scale: n = {n} under {budget}-byte budget …");
        let p = run_point(n, budget);
        for c in &p.classes {
            eprintln!(
                "  {:>16} fit {:>10.1} ms  score {:>10.1} ms  peak RSS {:>7.1} MB  \
                 read {:>8.1} MB  evictions {}",
                c.class,
                c.fit_ms,
                c.score_ms,
                c.peak_rss_bytes as f64 / (1024.0 * 1024.0),
                c.bytes_read as f64 / (1024.0 * 1024.0),
                c.evictions,
            );
        }
        for ab in &p.ab {
            eprintln!(
                "  ab {:>18} ({} thread(s)) score {:>10.1} ms  read {:>8.1} MB  \
                 {} hits / {} misses",
                ab.mode,
                ab.threads,
                ab.score_ms,
                ab.bytes_read as f64 / (1024.0 * 1024.0),
                ab.hits,
                ab.misses,
            );
        }
        for sc in &p.scan_cache {
            eprintln!(
                "  scan {:>16} hot survival {:>5.1}%  hot re-read {:>8.1} MB",
                sc.policy,
                sc.hot_survival * 100.0,
                sc.hot_reread_bytes as f64 / (1024.0 * 1024.0),
            );
        }
        points.push(p);
    }
    write_json(budget, &points);
}

/// Hand-rolled JSON (the workspace has no serde) written to the repo root.
fn write_json(budget: usize, points: &[PointResult]) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"scale\",\n");
    out.push_str(&format!("  \"budget_bytes\": {budget},\n"));
    out.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    out.push_str("  \"trajectory\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"edges\": {}, \"attrs\": {}, \"synth_ms\": {:.0}, \
             \"store_file_bytes\": {}, \"in_memory_bytes_estimate\": {}, \
             \"exceeds_budget_in_memory\": {},\n",
            p.n,
            p.edges,
            p.attrs,
            p.synth_ms,
            p.store_file_bytes,
            p.in_memory_estimate,
            p.in_memory_estimate > budget as u64,
        ));
        out.push_str("     \"classes\": [\n");
        for (j, c) in p.classes.iter().enumerate() {
            out.push_str(&format!(
                "       {{\"class\": \"{}\", \"detector\": \"{}\", \"fit_ms\": {:.1}, \
                 \"score_ms\": {:.1}, \"peak_rss_bytes\": {}, \"bytes_read\": {}, \
                 \"evictions\": {}}}{}\n",
                c.class,
                c.detector,
                c.fit_ms,
                c.score_ms,
                c.peak_rss_bytes,
                c.bytes_read,
                c.evictions,
                if j + 1 < p.classes.len() { "," } else { "" }
            ));
        }
        out.push_str("     ],\n");
        out.push_str("     \"ab\": [\n");
        for (j, a) in p.ab.iter().enumerate() {
            let comma = if j + 1 < p.ab.len() { "," } else { "" };
            out.push_str(&format!(
                "       {{\"mode\": \"{}\", \"threads\": {}, \"score_ms\": {:.1}, \
                 \"bytes_read\": {}, \"hits\": {}, \"misses\": {}}}{comma}\n",
                a.mode, a.threads, a.score_ms, a.bytes_read, a.hits, a.misses,
            ));
        }
        out.push_str("     ],\n");
        out.push_str("     \"scan_cache\": [\n");
        for (j, s) in p.scan_cache.iter().enumerate() {
            out.push_str(&format!(
                "       {{\"policy\": \"{}\", \"hot_survival\": {:.4}, \"hot_bytes\": {}, \
                 \"hot_reread_bytes\": {}, \"hits\": {}, \"misses\": {}}}{}\n",
                s.policy,
                s.hot_survival,
                s.hot_bytes,
                s.hot_reread_bytes,
                s.hits,
                s.misses,
                if j + 1 < p.scan_cache.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "     ]}}{}\n",
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_scale.json");
    f.write_all(out.as_bytes()).expect("write BENCH_scale.json");
    println!("wrote {path}");
}
