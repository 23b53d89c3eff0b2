//! Streaming update latency: delta rescoring vs a from-scratch full
//! rescore, plus the served end-to-end path.
//!
//! Two measurements:
//!
//! 1. **Library A/B** — per local detector, apply updates to the overlay
//!    and time (a) the delta path (`apply_mutation_rescore`: the
//!    layer-wise rescore from cached activations for VBM and VGOD, the
//!    touched rows for the baselines, then the cache patch)
//!    against (b) what a non-delta server would do (materialise the
//!    mutated graph and run a full `score`). Every update asserts the
//!    patched cache is **bit-identical** to the full rescore on every
//!    channel — the delta path is an execution strategy, never an
//!    approximation. The baselines and VBM take single-edge updates on a
//!    ~100k-node random graph; VGOD (GAT ARM) takes 4-op mixed batches on
//!    the same graph and on the medium PubMed replica. Each row records
//!    the cached layer-state bytes and the median dirty-set size
//!    `|B_ℓ(touched)|` of each layer.
//! 2. **End-to-end** — start `serve_streaming` on the 100k graph and the
//!    baseline/VBM checkpoints, POST single-edge `/graph/update` batches
//!    over HTTP, and record client-observed wall latency (connect + parse
//!    + apply + delta rescore for every model + snapshot publish + reply).
//!
//! Results go to `BENCH_stream.json` at the repository root. CI's
//! stream-smoke job gates delta speedup ≥ 5x and end-to-end median
//! < 10 ms on these numbers.
//!
//! Environment knobs: `VGOD_STREAM_NODES` (default 100000) sizes the
//! graph, `VGOD_STREAM_UPDATES` (default 30) is the per-path update count.

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use rand::Rng;
use vgod::{Vbm, VbmConfig, Vgod, VgodConfig};
use vgod_baselines::{Deg, DegNorm};
use vgod_datasets::{replica, Dataset, Scale};
use vgod_eval::{apply_mutation_rescore, OutlierDetector, ScoreCache, Scores};
use vgod_graph::{
    k_hop_ball, save_graph, seeded_rng, AttributedGraph, FrozenGraph, GraphMutation, GraphStore,
    OverlayGraph,
};
use vgod_serve::{http, AnyDetector, StreamConfig};
use vgod_tensor::Matrix;

fn random_graph(n: usize, avg_deg: usize, attrs: usize, seed: u64) -> AttributedGraph {
    let mut rng = seeded_rng(seed);
    let mut edges = Vec::with_capacity(n * avg_deg / 2);
    for _ in 0..n * avg_deg / 2 {
        let u: u32 = rng.gen_range(0..n as u32);
        let v: u32 = rng.gen_range(0..n as u32);
        if u != v {
            edges.push((u, v));
        }
    }
    let data: Vec<f32> = (0..n * attrs)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let x = Matrix::from_vec(n, attrs, data).unwrap();
    AttributedGraph::from_edges(x, &edges)
}

fn median(sorted_us: &mut [u64]) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    sorted_us.sort_unstable();
    sorted_us[sorted_us.len() / 2]
}

struct DeltaRun {
    detector: &'static str,
    graph: &'static str,
    nodes: usize,
    ops_per_update: usize,
    fit_ms: f64,
    initial_score_ms: f64,
    delta_us_median: u64,
    full_us_median: u64,
    speedup: f64,
    frontier_median: usize,
    state_bytes: usize,
    layer_rows_median: Vec<usize>,
}

/// One update: a single edge insert, or `ops` mixed mutations in the
/// proportions of `vgod stream-gen` (mostly edge churn).
fn random_batch(n: u32, d: usize, ops: usize, rng: &mut impl Rng) -> Vec<GraphMutation> {
    let edge = |rng: &mut dyn rand::RngCore| {
        let u = rng.gen_range(0..n);
        (u, (u + rng.gen_range(1..n)) % n)
    };
    if ops == 1 {
        let (u, v) = edge(rng);
        return vec![GraphMutation::AddEdge { u, v }];
    }
    (0..ops)
        .map(|_| match rng.gen_range(0..9) {
            0..=3 => {
                let (u, v) = edge(rng);
                GraphMutation::AddEdge { u, v }
            }
            4 | 5 => {
                let (u, v) = edge(rng);
                GraphMutation::RemoveEdge { u, v }
            }
            6 => GraphMutation::SetAttrs {
                node: rng.gen_range(0..n),
                attrs: (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            },
            7 => GraphMutation::AddNode {
                attrs: (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                label: None,
            },
            _ => GraphMutation::RemoveNode {
                node: rng.gen_range(0..n),
            },
        })
        .collect()
}

fn channel_bits(s: &Scores) -> [Option<Vec<u32>>; 3] {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    [
        Some(bits(&s.combined)),
        s.structural.as_deref().map(bits),
        s.contextual.as_deref().map(bits),
    ]
}

/// Update A/B for one detector: delta patch vs full rescore, asserting
/// bit-identity on every update. `layers` is the depth of the detector's
/// layer-wise path (0 without one): the dirty sets `B_0..B_layers` of
/// each update are recorded.
#[allow(clippy::too_many_arguments)]
fn delta_ab(
    detector: &'static str,
    graph: &'static str,
    det: &AnyDetector,
    fit_ms: f64,
    g: &AttributedGraph,
    updates: usize,
    ops_per_update: usize,
    layers: usize,
) -> DeltaRun {
    // The startup pass of a streaming server: scores plus layer state.
    let t0 = Instant::now();
    let mut cache = ScoreCache::for_detector(det, g);
    let initial_score_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut overlay = OverlayGraph::new(Arc::new(FrozenGraph::from_store(g)));
    let mut rng = seeded_rng(0xBEEF ^ detector.len() as u64);
    let mut delta_us = Vec::with_capacity(updates);
    let mut full_us = Vec::with_capacity(updates);
    let mut frontiers = Vec::with_capacity(updates);
    let mut layer_rows: Vec<Vec<usize>> = vec![Vec::new(); if layers > 0 { layers + 1 } else { 0 }];
    for _ in 0..updates {
        let n = GraphStore::num_nodes(&overlay) as u32;
        let ops = random_batch(n, g.num_attrs(), ops_per_update, &mut rng);
        let effect = overlay.apply_batch(&ops).expect("apply update");
        if effect.applied == 0 {
            continue; // every op was a no-op (existing edge, absent edge)
        }
        let t0 = Instant::now();
        let frontier = apply_mutation_rescore(det, &overlay, &effect.touched, &mut cache);
        delta_us.push(t0.elapsed().as_micros() as u64);
        frontiers.push(frontier);
        for (depth, rows) in layer_rows.iter_mut().enumerate() {
            rows.push(k_hop_ball(&overlay, &effect.touched, depth).len());
        }

        // The non-delta baseline: materialise the mutated graph and run a
        // full scoring pass, exactly like a FullRescore-capability model.
        let t0 = Instant::now();
        let reference = det.score(&overlay.materialize());
        full_us.push(t0.elapsed().as_micros() as u64);

        assert_eq!(
            channel_bits(cache.scores()),
            channel_bits(&reference),
            "{detector} on {graph}: delta-patched cache must equal the full rescore"
        );
    }
    frontiers.sort_unstable();
    let delta_med = median(&mut delta_us);
    let full_med = median(&mut full_us);
    let mid = |v: &mut Vec<usize>| {
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or(0)
    };
    DeltaRun {
        detector,
        graph,
        nodes: g.num_nodes(),
        ops_per_update,
        fit_ms,
        initial_score_ms,
        delta_us_median: delta_med,
        full_us_median: full_med,
        speedup: full_med as f64 / (delta_med as f64).max(1.0),
        frontier_median: mid(&mut frontiers),
        state_bytes: cache.state_bytes(),
        layer_rows_median: layer_rows.iter_mut().map(mid).collect(),
    }
}

/// Fit a VGOD model with a GAT ARM (the paper's default backbone).
fn fit_vgod(
    g: &AttributedGraph,
    hidden: usize,
    vbm_epochs: usize,
    arm_epochs: usize,
) -> (AnyDetector, f64) {
    let mut cfg = VgodConfig::default();
    cfg.vbm.hidden_dim = hidden;
    cfg.vbm.epochs = vbm_epochs;
    cfg.arm.hidden_dim = hidden;
    cfg.arm.epochs = arm_epochs;
    let t0 = Instant::now();
    let mut vgod = Vgod::new(cfg);
    vgod.fit(g);
    (AnyDetector::Vgod(vgod), t0.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let n: usize = std::env::var("VGOD_STREAM_NODES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let updates: usize = std::env::var("VGOD_STREAM_UPDATES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);

    let g = random_graph(n, 8, 16, 42);
    eprintln!(
        "graph: {} nodes, {} edges, {} attrs",
        g.num_nodes(),
        g.num_edges(),
        g.num_attrs()
    );

    // One streaming-exact baseline, one σ-recombining baseline, one
    // trained MLP — the three distinct cache-patch shapes the delta
    // layer implements.
    let t0 = Instant::now();
    let mut vbm = Vbm::new(VbmConfig {
        hidden_dim: 16,
        epochs: 2,
        ..VbmConfig::default()
    });
    OutlierDetector::fit(&mut vbm, &g);
    let vbm_fit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let dets: Vec<(&'static str, AnyDetector, f64)> = vec![
        ("deg", AnyDetector::Deg(Deg), 0.0),
        ("degnorm", AnyDetector::DegNorm(DegNorm), 0.0),
        ("vbm", AnyDetector::Vbm(vbm), vbm_fit_ms),
    ];

    let mut runs = Vec::new();
    for (name, det, fit_ms) in &dets {
        let layers = usize::from(*name == "vbm");
        runs.push(delta_ab(
            name,
            "random-100k",
            det,
            *fit_ms,
            &g,
            updates,
            1,
            layers,
        ));
    }
    // VGOD with a GAT ARM on 4-op batches: at 100k nodes (hidden 16, two
    // epochs each) and on the medium PubMed replica at CLI defaults
    // (hidden 64) with the stream workload's 5-epoch checkpoint.
    let (vgod, fit_ms) = fit_vgod(&g, 16, 2, 2);
    runs.push(delta_ab(
        "vgod-gat",
        "random-100k",
        &vgod,
        fit_ms,
        &g,
        updates,
        4,
        VgodConfig::default().arm.layers,
    ));
    drop(vgod);
    let pubmed = replica(Dataset::PubmedLike, Scale::Medium, &mut seeded_rng(1)).graph;
    let (vgod, fit_ms) = fit_vgod(&pubmed, 64, 10, 5);
    runs.push(delta_ab(
        "vgod-gat",
        "pubmed-medium",
        &vgod,
        fit_ms,
        &pubmed,
        updates,
        4,
        VgodConfig::default().arm.layers,
    ));
    drop(vgod);
    for run in &runs {
        eprintln!(
            "{} on {}: delta {} us vs full {} us median = {:.1}x \
             (frontier median {}, layer rows {:?}, state {} B)",
            run.detector,
            run.graph,
            run.delta_us_median,
            run.full_us_median,
            run.speedup,
            run.frontier_median,
            run.layer_rows_median,
            run.state_bytes
        );
    }

    // End-to-end: serve the same checkpoints in streaming mode and POST
    // single-edge updates over loopback HTTP.
    let dir = std::env::temp_dir().join(format!("vgod_bench_stream_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let models_dir = dir.join("models");
    std::fs::create_dir_all(&models_dir).expect("create models dir");
    for (name, det, _) in &dets {
        det.save_file(&models_dir.join(format!("{name}.ckpt")))
            .expect("save checkpoint");
    }
    let graph_path = dir.join("graph.txt");
    save_graph(&g, graph_path.to_str().unwrap()).expect("save graph");

    let handle = vgod_serve::serve_streaming(
        &models_dir,
        &graph_path,
        "127.0.0.1:0",
        StreamConfig::default(),
    )
    .expect("serve_streaming");
    let addr = handle.addr();
    let mut rng = seeded_rng(7);
    let mut e2e_us = Vec::with_capacity(updates);
    for _ in 0..updates {
        let u = rng.gen_range(0..n as u32);
        let v = (u + rng.gen_range(1..n as u32)) % n as u32;
        let body = format!("{{\"ops\":[{{\"op\":\"add_edge\",\"u\":{u},\"v\":{v}}}]}}");
        let t0 = Instant::now();
        let (status, reply) = http::post(addr, "/graph/update", &body).expect("post update");
        e2e_us.push(t0.elapsed().as_micros() as u64);
        assert_eq!(status, 200, "update failed: {reply}");
    }
    let _ = http::post(addr, "/shutdown", "");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);

    let e2e_median = median(&mut e2e_us);
    let e2e_p99 = e2e_us[((e2e_us.len() as f64 - 1.0) * 0.99).round() as usize];
    let throughput = if e2e_median > 0 {
        1e6 / e2e_median as f64
    } else {
        0.0
    };
    eprintln!(
        "end-to-end single-edge update: median {e2e_median} us, p99 {e2e_p99} us \
         (~{throughput:.0} update/s at median)"
    );

    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"streaming\",\n");
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&format!("  \"nodes\": {},\n", g.num_nodes()));
    out.push_str(&format!("  \"edges\": {},\n", g.num_edges()));
    out.push_str(&format!("  \"updates\": {updates},\n"));
    out.push_str("  \"detectors\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let layers: Vec<String> = r.layer_rows_median.iter().map(|v| v.to_string()).collect();
        out.push_str(&format!(
            "    {{\"detector\": \"{}\", \"graph\": \"{}\", \"nodes\": {}, \
             \"ops_per_update\": {}, \"fit_ms\": {:.1}, \"initial_score_ms\": {:.1}, \
             \"delta_us_median\": {}, \"full_us_median\": {}, \
             \"speedup\": {:.2}, \"frontier_median\": {}, \"state_bytes\": {}, \
             \"layer_rows_median\": [{}]}}{}\n",
            r.detector,
            r.graph,
            r.nodes,
            r.ops_per_update,
            r.fit_ms,
            r.initial_score_ms,
            r.delta_us_median,
            r.full_us_median,
            r.speedup,
            r.frontier_median,
            r.state_bytes,
            layers.join(", "),
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"end_to_end\": {{\"updates\": {}, \"median_us\": {e2e_median}, \
         \"p99_us\": {e2e_p99}, \"updates_per_sec_at_median\": {throughput:.1}}}\n",
        e2e_us.len()
    ));
    out.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_stream.json");
    f.write_all(out.as_bytes())
        .expect("write BENCH_stream.json");
    println!("wrote {path}");
}
