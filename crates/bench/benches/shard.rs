//! Shard-count scaling of partitioned range scoring: 1 → 2 → 4 shards of
//! one synthetic store, one detector per class.
//!
//! Each point partitions the store with `partition_store` (the same
//! contiguous-range + halo-closure layout `vgod serve --shards` builds),
//! opens every shard's `ShardStore` slice, scores each owned range with
//! `score_store_range` on its own thread (the library-level equivalent of
//! one worker process per shard — the process boundary adds only loopback
//! HTTP, which the serving bench covers), and reassembles the ranges with
//! `merge_range_scores`. Per detector and shard count the bench records
//! partition time, wall-clock scoring time, and the partition's halo
//! totals, and asserts the merged scores are **bit-identical** to the
//! single-process `score_store` pass — the distributed layer is an
//! execution strategy, never an approximation.
//!
//! Results go to `BENCH_shard.json` at the repository root. `host_cpus` is
//! recorded so the CI scaling gate (shard-smoke job) can skip the ≥ 1.6x
//! multi-shard speedup check on hosts without enough cores to show it.
//!
//! Environment knobs: `VGOD_SHARD_NODES` (default 100000) sizes the store,
//! `VGOD_SHARD_BUDGET` (default `64M`) is the per-slice cache budget.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use vgod::{Vbm, VbmConfig};
use vgod_baselines::{DeepConfig, Deg, Dominant};
use vgod_eval::{merge_range_scores, OutlierDetector, RangeScores};
use vgod_graph::{
    parse_mem_budget, partition_store, synth_store, PartitionConfig, SamplingConfig, ShardStore,
    StoreOptions, SynthStoreConfig, DEFAULT_ATTR_BLOCK_NODES, DEFAULT_EDGE_BLOCK_ENTRIES,
};
use vgod_graph::{GraphStore, OocStore};

struct ShardRun {
    shards: usize,
    partition_ms: f64,
    score_ms: f64,
    ghosts: u64,
    cross_edges: u64,
    halo_bytes: u64,
}

struct DetectorCurve {
    class: &'static str,
    detector: &'static str,
    fit_ms: f64,
    runs: Vec<ShardRun>,
}

fn curve<D: OutlierDetector + Sync>(
    class: &'static str,
    detector: &'static str,
    path: &Path,
    budget: usize,
    cfg: &SamplingConfig,
    det: &mut D,
) -> DetectorCurve {
    let store = OocStore::open(path, budget).expect("open store");
    let n = store.num_nodes();
    let t0 = Instant::now();
    det.fit_store(&store, cfg);
    let fit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let reference = det.score_store(&store, cfg).combined;
    drop(store);

    // Scoring is a pure `&self` pass on fitted parameters from here on.
    let det: &D = det;
    let mut runs = Vec::new();
    for shards in [1usize, 2, 4] {
        let dir = std::env::temp_dir().join(format!(
            "vgod_bench_shard_{}_{shards}_{detector}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = OocStore::open(path, budget).expect("open store for partition");
        let t0 = Instant::now();
        let manifest = partition_store(&store, &dir, &PartitionConfig::new(shards, *cfg))
            .expect("partition store");
        let partition_ms = t0.elapsed().as_secs_f64() * 1e3;
        drop(store);

        let slices: Vec<ShardStore> = (0..shards)
            .map(|i| ShardStore::open(&dir, i, StoreOptions::new(budget)).expect("open slice"))
            .collect();
        let t0 = Instant::now();
        let parts: Vec<RangeScores> = std::thread::scope(|scope| {
            let handles: Vec<_> = slices
                .iter()
                .zip(&manifest.shards)
                .map(|(slice, meta)| {
                    scope.spawn(move || {
                        vgod_tensor::arena::scope(|| {
                            det.score_store_range(slice, cfg, meta.lo, meta.hi)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let merged = merge_range_scores(n, parts);
        let score_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            reference.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            merged
                .combined
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>(),
            "{detector} at {shards} shard(s): merged scores must be bit-identical"
        );
        runs.push(ShardRun {
            shards,
            partition_ms,
            score_ms,
            ghosts: manifest.total_ghosts(),
            cross_edges: manifest.total_cross_edges(),
            halo_bytes: manifest.total_halo_bytes(),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    DetectorCurve {
        class,
        detector,
        fit_ms,
        runs,
    }
}

fn main() {
    let n: usize = std::env::var("VGOD_SHARD_NODES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let budget =
        parse_mem_budget(&std::env::var("VGOD_SHARD_BUDGET").unwrap_or_else(|_| "64M".to_string()))
            .expect("VGOD_SHARD_BUDGET");
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());

    let path = std::env::temp_dir().join(format!("vgod_shard_bench_{}", std::process::id()));
    let synth_cfg = SynthStoreConfig::scaled(n, 42);
    synth_store(
        &path,
        &synth_cfg,
        DEFAULT_ATTR_BLOCK_NODES,
        DEFAULT_EDGE_BLOCK_ENTRIES,
    )
    .expect("synthesise store");

    // Sampled path (threshold below n) with one score thread per slice:
    // shard-count scaling must come from the shard threads, not from the
    // intra-shard batch pool the single-process A/B already measures.
    let cfg = SamplingConfig {
        full_graph_threshold: 20_000.min(n.saturating_sub(1)).max(1),
        batch_size: 4096,
        fanout: 4,
        hops: 2,
        train_seeds: 1024,
        seed: 42,
        ooc_threads: 1,
    };

    let mut curves = Vec::new();
    curves.push(curve(
        "streaming_exact",
        "deg",
        &path,
        budget,
        &cfg,
        &mut Deg,
    ));
    let mut vbm = Vbm::new(VbmConfig {
        hidden_dim: 16,
        epochs: 2,
        ..VbmConfig::default()
    });
    curves.push(curve("sampled_mlp", "vbm", &path, budget, &cfg, &mut vbm));
    let mut dominant = Dominant::new(DeepConfig {
        hidden: 8,
        epochs: 2,
        ..DeepConfig::fast()
    });
    curves.push(curve(
        "sampled_gnn",
        "dominant",
        &path,
        budget,
        &cfg,
        &mut dominant,
    ));
    let _ = std::fs::remove_file(&path);

    for c in &curves {
        eprintln!("{} ({}): fit {:.1} ms", c.class, c.detector, c.fit_ms);
        let single = c.runs[0].score_ms;
        for r in &c.runs {
            eprintln!(
                "  {} shard(s): partition {:>8.1} ms  score {:>8.1} ms  \
                 speedup {:>4.2}x  halo {} bytes",
                r.shards,
                r.partition_ms,
                r.score_ms,
                single / r.score_ms.max(1e-9),
                r.halo_bytes,
            );
        }
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"shard\",\n");
    out.push_str(&format!("  \"nodes\": {n},\n"));
    out.push_str(&format!("  \"budget_bytes\": {budget},\n"));
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str("  \"detectors\": [\n");
    for (i, c) in curves.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"class\": \"{}\", \"detector\": \"{}\", \"fit_ms\": {:.1}, \"runs\": [\n",
            c.class, c.detector, c.fit_ms
        ));
        for (j, r) in c.runs.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"shards\": {}, \"partition_ms\": {:.1}, \"score_ms\": {:.1}, \
                 \"speedup\": {:.3}, \"ghosts\": {}, \"cross_edges\": {}, \
                 \"halo_bytes\": {}}}{}\n",
                r.shards,
                r.partition_ms,
                r.score_ms,
                c.runs[0].score_ms / r.score_ms.max(1e-9),
                r.ghosts,
                r.cross_edges,
                r.halo_bytes,
                if j + 1 < c.runs.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < curves.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_shard.json");
    f.write_all(out.as_bytes()).expect("write BENCH_shard.json");
    println!("wrote {path}");
}
