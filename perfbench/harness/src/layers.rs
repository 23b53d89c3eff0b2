//! Per-layer probes: each workload's work, replayed in process as calls
//! into the public functions of the workspace crates, every call wrapped
//! in a [`Tracer`] span.
//!
//! The same pipeline runs once with tracing off and, for a traced run,
//! once more with tracing on; the ratio of the two wall-clocks is the
//! tracing overhead. The untraced pass also produces the in-process scores
//! that the offline correctness gates compare against the `vgod` binary.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use vgod::{Arm, Vbm, Vgod, VgodConfig};
use vgod_autograd::{ParamStore, Tape};
use vgod_eval::{apply_mutation_rescore, DeltaCapability, OutlierDetector, ScoreCache, ScoreMerge};
use vgod_gnn::{GnnKind, GnnLayer, GraphContext};
use vgod_graph::{
    load_graph, seeded_rng, AttributedGraph, FrozenGraph, GraphMutation, GraphStore,
    NeighborSampler, OocStore, OverlayGraph, SamplingConfig, StoreOptions,
};
use vgod_nn::{Adam, Linear, Optimizer};
use vgod_serve::json::Json;
use vgod_serve::{http, AnyDetector};
use vgod_tensor::{arena, AdamStep, Matrix};

use crate::trace::{median, Tracer};

/// Hidden width of every model the benchmark runs (the CLI default).
const HIDDEN: usize = 64;

/// What a probe run needs to know about its workload.
pub struct Inputs {
    pub workload: String,
    pub work: String,
    pub seed: u64,
    pub epochs: usize,
    pub budget: usize,
    pub threshold: usize,
    pub compact_bytes: usize,
}

impl Inputs {
    fn path(&self, name: &str) -> String {
        format!("{}/{name}", self.work)
    }
}

/// Metrics keyed by their `BENCHMARK.json` name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Deterministic pseudo-random fill in `[-1, 1)` for kernel operands.
fn filled(rows: usize, cols: usize, salt: u64) -> Matrix {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ salt;
    Matrix::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    })
}

fn write_scores(path: &str, scores: &[f32]) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(scores.len() * 16);
    for (u, s) in scores.iter().enumerate() {
        let _ = writeln!(out, "{u} {s}");
    }
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

fn load(path: &str) -> Result<AttributedGraph, String> {
    load_graph(path).map_err(|e| format!("{path}: {e}"))
}

fn load_model(path: &str) -> Result<AnyDetector, String> {
    AnyDetector::load_file(Path::new(path))
}

/// The tensor kernels at one workload's shapes: `n` nodes, `d` attributes,
/// hidden width `h`, and the normalised adjacency `adj`. Operation counts
/// and bytes are computed from the shapes.
fn kernels(t: &Tracer, n: usize, d: usize, adj: &vgod_tensor::Csr) {
    let h = HIDDEN;
    let (nf, df, hf) = (n as f64, d as f64, h as f64);
    let nnz = adj.nnz() as f64;
    let x = filled(n, d, 1);
    let w = filled(d, h, 2);
    let g = filled(n, h, 3);
    let mm_ops = 2.0 * nf * df * hf;
    let mm_bytes = 4.0 * (nf * df + df * hf + nf * hf);
    for _ in 0..5 {
        t.kernel("tensor.matmul", mm_ops, mm_bytes, || x.matmul(&w));
        t.kernel("tensor.matmul_tn", mm_ops, mm_bytes, || x.matmul_tn(&g));
        t.kernel("tensor.matmul_nt", mm_ops, mm_bytes, || g.matmul_nt(&w));
        let sp_bytes = 8.0 * nnz + 8.0 * nf * hf;
        t.kernel("tensor.spmm", 2.0 * nnz * hf, sp_bytes, || adj.spmm(&g));
        t.kernel("tensor.spmm_t", 2.0 * nnz * hf, sp_bytes, || adj.spmm_t(&g));
        t.kernel("tensor.map_tanh", nf * hf, 8.0 * nf * hf, || {
            g.map(f32::tanh)
        });
    }
    // One Adam update over the attribute-reconstruction model's parameter
    // shapes: input d×h (+bias), two GAT layers (h×h, two h×1 attention
    // vectors), output h×d (+bias).
    let shapes = [
        (d, h),
        (1, h),
        (h, h),
        (h, 1),
        (h, 1),
        (h, h),
        (h, 1),
        (h, 1),
        (h, d),
        (1, d),
    ];
    let mut params: Vec<(Matrix, Matrix, Matrix, Matrix)> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(r, c))| {
            let salt = 10 + i as u64;
            (
                filled(r, c, salt),
                Matrix::zeros(r, c),
                Matrix::zeros(r, c),
                filled(r, c, salt + 100),
            )
        })
        .collect();
    let elems: f64 = shapes.iter().map(|&(r, c)| (r * c) as f64).sum();
    let step = AdamStep {
        lr: 0.005,
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
        bias1: 0.1,
        bias2: 0.001,
    };
    for _ in 0..5 {
        t.kernel("tensor.fused_adam", 10.0 * elems, 28.0 * elems, || {
            for (value, m, v, grad) in params.iter_mut() {
                value.fused_adam_step(m, v, grad, &step);
            }
        });
    }
}

/// The attribute-reconstruction model's layer stack (input linear, two GAT
/// layers, output linear) built from the public layer types, to time one
/// GAT forward, the backward pass and one Adam step at hidden width 64.
fn gat_stack(t: &Tracer, g: &AttributedGraph, backward: bool) {
    let ctx = GraphContext::of(g);
    let d = g.num_attrs();
    let mut rng = seeded_rng(7);
    let mut store = ParamStore::new();
    let input = Linear::new(&mut store, d, HIDDEN, true, &mut rng);
    let gats: Vec<GnnLayer> = (0..2)
        .map(|_| GnnLayer::new(GnnKind::Gat, &mut store, HIDDEN, HIDDEN, &mut rng))
        .collect();
    let output = Linear::new(&mut store, HIDDEN, d, true, &mut rng);
    let mut adam = Adam::new(0.005);
    for _ in 0..3 {
        let tape = Tape::new();
        let xv = tape.constant(g.attrs().clone());
        let z = input.forward(&tape, &store, &xv).l2_normalize_rows();
        let z = t.span("gnn.gat_forward", || {
            let z = gats[0].forward(&tape, &store, &z, &ctx).relu();
            gats[1].forward(&tape, &store, &z, &ctx)
        });
        if backward {
            let loss = output
                .forward(&tape, &store, &z)
                .sub(&xv)
                .square()
                .mean_all();
            t.span("autograd.backward", || loss.backward_into(&mut store));
            t.span("nn.adam_step", || adam.step(&mut store));
        }
    }
}

/// Offline detection: the VGOD configuration `vgod detect --model vgod`
/// builds from its flags, trained and scored component by component.
fn detect(t: &Tracer, inp: &Inputs, m: &mut Metrics) -> Result<Vec<f32>, String> {
    let path = inp.path("graph.tsv");
    let g = t.span("graph.load", || load(&path))?;
    for _ in 0..3 {
        t.span("gnn.context_build", || {
            let ctx = GraphContext::from_graph(&g);
            ctx.gcn();
            ctx.edges();
            ctx.mean_adjacency(true);
        });
    }
    let ctx = GraphContext::of(&g);
    kernels(t, g.num_nodes(), g.num_attrs(), ctx.gcn());
    gat_stack(t, &g, true);

    let mut cfg = VgodConfig::default();
    cfg.vbm.hidden_dim = HIDDEN;
    cfg.vbm.lr = 0.005;
    cfg.vbm.self_loops = true;
    cfg.vbm.seed = inp.seed;
    cfg.arm.hidden_dim = HIDDEN;
    cfg.arm.lr = 0.005;
    cfg.arm.epochs = inp.epochs.max(1);
    cfg.arm.seed = inp.seed.wrapping_add(1);
    let framework = Vgod::new(cfg.clone());

    arena::reset_stats();
    let mut vbm = Vbm::new(cfg.vbm.clone());
    let mut stamp = Instant::now();
    t.span("core.vbm_fit", || {
        vbm.fit_with_callback(&g, |snap| {
            let now = Instant::now();
            if snap.epoch > 0 {
                t.record("core.vbm_epoch", stamp, now);
            }
            stamp = now;
        })
    });
    let mut arm = Arm::new(cfg.arm.clone());
    let mut stamp = Instant::now();
    t.span("core.arm_fit", || {
        arm.fit_with_callback(&g, |_, _| {
            let now = Instant::now();
            t.record("core.arm_epoch", stamp, now);
            stamp = now;
        })
    });
    let stats = arena::stats();
    let structural = t.span("core.vbm_score", || vbm.scores(&g));
    let contextual = t.span("core.arm_score", || arm.scores(&g));
    let combined = t.span("core.combine", || {
        framework.combine(&structural, &contextual)
    });
    m.insert("tensor.arena_reuse_ratio", reuse_ratio(stats));
    Ok(combined)
}

fn reuse_ratio(stats: arena::ArenaStats) -> f64 {
    let total = stats.fresh + stats.reused;
    if total == 0 {
        0.0
    } else {
        stats.reused as f64 / total as f64
    }
}

/// Recorded HTTP traffic (raw requests and reply bodies).
fn recorded(inp: &Inputs) -> Result<(Vec<String>, Vec<String>), String> {
    let path = inp.path("record.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text)?;
    let strings = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect()
    };
    Ok((strings("requests"), strings("replies")))
}

/// The serving front's per-request work on recorded traffic: HTTP parse,
/// JSON parse of the body, response rendering. Reported per request.
fn front(t: &Tracer, inp: &Inputs, m: &mut Metrics) -> Result<(), String> {
    let (requests, replies) = recorded(inp)?;
    if requests.is_empty() || replies.is_empty() {
        return Err("no recorded traffic".into());
    }
    let bodies: Vec<String> = requests
        .iter()
        .filter_map(|r| match http::parse_request(r.as_bytes()) {
            http::ParseOutcome::Complete(req) => {
                Some(String::from_utf8_lossy(req.body).into_owned())
            }
            _ => None,
        })
        .collect();
    if bodies.len() != requests.len() {
        return Err("recorded request failed to parse".into());
    }
    let mut out = Vec::with_capacity(4096);
    for _ in 0..5 {
        t.kernel("serve.parse", requests.len() as f64, 0.0, || {
            for r in &requests {
                std::hint::black_box(http::parse_request(std::hint::black_box(r.as_bytes())));
            }
        });
        t.kernel("serve.json", bodies.len() as f64, 0.0, || {
            for b in &bodies {
                let _ = std::hint::black_box(Json::parse(std::hint::black_box(b)));
            }
        });
        t.kernel("serve.render", replies.len() as f64, 0.0, || {
            for body in &replies {
                out.clear();
                http::render_response_into(&mut out, 200, std::hint::black_box(body), true);
                std::hint::black_box(&out);
            }
        });
    }
    let per = |name: &str, count: usize| median(t.durations_ns(name)) / count as f64;
    m.insert("serve.parse_ns", per("serve.parse", requests.len()));
    m.insert("serve.json_ns", per("serve.json", bodies.len()));
    m.insert("serve.render_ns", per("serve.render", replies.len()));
    Ok(())
}

/// Online reads: one replica's work per flush — a full scoring pass per
/// model on the deployment graph — plus the front's per-request work.
fn serve(t: &Tracer, inp: &Inputs, m: &mut Metrics) -> Result<(), String> {
    let path = inp.path("graph.tsv");
    let g = t.span("graph.load", || load(&path))?;
    for _ in 0..3 {
        t.span("gnn.context_build", || {
            let ctx = GraphContext::from_graph(&g);
            ctx.gcn();
            ctx.edges();
        });
    }
    let ctx = GraphContext::of(&g);
    kernels(t, g.num_nodes(), g.num_attrs(), ctx.gcn());
    gat_stack(t, &g, false);
    let gnn = load_model(&inp.path("models/vgod.ckpt"))?;
    let light = load_model(&inp.path("models/degnorm.ckpt"))?;
    // Warm the graph's memoised context the way a serving replica does.
    gnn.score(&g);
    for request in 0..5 {
        t.set_request(request);
        t.span("eval.score_pass", || gnn.score(&g));
        t.span("eval.light_pass", || light.score(&g));
        if let AnyDetector::Vgod(v) = &gnn {
            let s = t.span("core.vbm_score", || v.vbm().scores(&g));
            let c = t.span("core.arm_score", || v.arm().scores(&g));
            t.span("core.combine", || v.combine(&s, &c));
        }
    }
    front(t, inp, m)
}

/// Turn one `POST /graph/update` body into mutation ops.
fn mutation_ops(line: &str) -> Result<Vec<GraphMutation>, String> {
    let doc = Json::parse(line)?;
    let items = doc.get("ops").and_then(Json::as_arr).ok_or("missing ops")?;
    let uint = |op: &Json, key: &str| -> Result<u32, String> {
        op.get(key)
            .and_then(Json::as_u64)
            .map(|v| v as u32)
            .ok_or_else(|| format!("missing {key}"))
    };
    let attrs = |op: &Json| -> Result<Vec<f32>, String> {
        op.get("attrs")
            .and_then(Json::as_arr)
            .ok_or("missing attrs")?
            .iter()
            .map(|v| {
                v.as_f64()
                    .map(|f| f as f32)
                    .ok_or_else(|| "bad attr".to_string())
            })
            .collect()
    };
    items
        .iter()
        .map(|op| {
            Ok(match op.get("op").and_then(Json::as_str) {
                Some("add_edge") => GraphMutation::AddEdge {
                    u: uint(op, "u")?,
                    v: uint(op, "v")?,
                },
                Some("remove_edge") => GraphMutation::RemoveEdge {
                    u: uint(op, "u")?,
                    v: uint(op, "v")?,
                },
                Some("add_node") => GraphMutation::AddNode {
                    attrs: attrs(op)?,
                    label: op.get("label").and_then(Json::as_u64).map(|v| v as u32),
                },
                Some("remove_node") => GraphMutation::RemoveNode {
                    node: uint(op, "node")?,
                },
                Some("set_attrs") => GraphMutation::SetAttrs {
                    node: uint(op, "node")?,
                    attrs: attrs(op)?,
                },
                other => return Err(format!("unknown op {other:?}")),
            })
        })
        .collect()
}

/// Writes beside reads: the mutation worker's work per batch — overlay
/// apply, k-hop frontier and delta rescore per model, compaction past the
/// threshold — replayed over the workload's mutation log.
fn stream(t: &Tracer, inp: &Inputs, m: &mut Metrics) -> Result<(), String> {
    let path = inp.path("graph.tsv");
    let g = t.span("graph.load", || load(&path))?;
    let ctx = GraphContext::of(&g);
    kernels(t, g.num_nodes(), g.num_attrs(), ctx.gcn());
    let mut models = Vec::new();
    for (name, pass) in [("vgod", "eval.score_pass"), ("degnorm", "eval.light_pass")] {
        let det = load_model(&inp.path(&format!("models/{name}.ckpt")))?;
        let merge = match det.delta_capability() {
            DeltaCapability::Local { merge, .. } => merge,
            _ => ScoreMerge::Concat,
        };
        let cache = ScoreCache::new(t.span(pass, || det.score(&g)), merge);
        models.push((det, cache));
    }
    let mut overlay = OverlayGraph::new(Arc::new(FrozenGraph::from_store(&g)));
    let log_path = inp.path("mutations.jsonl");
    let log = std::fs::read_to_string(&log_path).map_err(|e| format!("{log_path}: {e}"))?;
    // Frontier sizes are the VGOD model's only: its several hops and
    // DegNorm's one hop are two distributions, and a median over both
    // would sit on the edge between them.
    let (mut ops_applied, mut rescored) = (0usize, 0usize);
    let mut frontiers = Vec::new();
    // The first batches of the log give every span enough samples; the rest
    // would only lengthen a traced run.
    let batches = log.lines().filter(|l| !l.trim().is_empty()).take(60);
    for (batch, line) in batches.enumerate() {
        t.set_request(batch as u64);
        let ops = mutation_ops(line)?;
        let effect = t.span("graph.apply_batch", || overlay.apply_batch(&ops))?;
        ops_applied += effect.applied;
        if effect.applied == 0 {
            continue;
        }
        for (i, (det, cache)) in models.iter_mut().enumerate() {
            let name = if i == 0 {
                "eval.delta_gnn"
            } else {
                "eval.delta_light"
            };
            let frontier = t.span(name, || {
                apply_mutation_rescore(&*det, &overlay, &effect.touched, cache)
            });
            if i == 0 {
                rescored += frontier;
                frontiers.push(frontier as f64);
            }
        }
        if overlay.overlay_bytes() > inp.compact_bytes {
            let delta = overlay.delta_snapshot();
            let folded = t.span("graph.compact", || {
                FrozenGraph::compact(overlay.base(), &delta)
            });
            overlay.adopt_base(Arc::new(folded), delta.version);
        }
    }
    m.insert("eval.frontier_nodes", median(frontiers));
    m.insert(
        "eval.rescored_per_op",
        rescored as f64 / ops_applied.max(1) as f64,
    );
    front(t, inp, m)
}

/// Out of core: open the store, sample batches, train VBM through the
/// mini-batch store path and score every node in sampled batches, under
/// the same budget and sampling schedule `vgod detect --out-of-core` uses.
fn detect_ooc(t: &Tracer, inp: &Inputs, m: &mut Metrics) -> Result<Vec<f32>, String> {
    let path = inp.path("graph.vgodstore");
    let open = || OocStore::open_with(Path::new(&path), StoreOptions::new(inp.budget));
    for _ in 0..3 {
        t.span("graph.store_open", open)?;
    }
    let scfg = SamplingConfig {
        full_graph_threshold: inp.threshold,
        ..SamplingConfig::default()
    };
    {
        let store = open()?;
        let sampler = NeighborSampler::new(&store, scfg);
        for b in 0..sampler.num_score_batches().min(8) {
            t.set_request(b as u64);
            t.span("graph.sample", || sampler.score_batch(b));
        }
    }
    let store = open()?;
    let mut cfg = VgodConfig::default();
    cfg.vbm.hidden_dim = HIDDEN;
    cfg.vbm.lr = 0.005;
    cfg.vbm.self_loops = true;
    cfg.vbm.seed = inp.seed;
    let mut vbm = Vbm::new(cfg.vbm);
    arena::reset_stats();
    t.span("core.minibatch_fit", || {
        OutlierDetector::fit_store(&mut vbm, &store, &scfg)
    });
    let scores = t.span("eval.score_store", || {
        OutlierDetector::score_store(&vbm, &store, &scfg)
    });
    m.insert("tensor.arena_reuse_ratio", reuse_ratio(arena::stats()));
    let st = store.stats();
    let file_len = std::fs::metadata(&path)
        .map_err(|e| format!("{path}: {e}"))?
        .len();
    m.insert("graph.cache_hit_ratio", st.hit_rate());
    m.insert(
        "graph.read_amplification",
        st.bytes_read as f64 / file_len.max(1) as f64,
    );
    m.insert("graph.evictions", st.evictions as f64);
    Ok(scores.combined)
}

/// One pass of the workload's probes; returns its in-process scores, when
/// the workload has an offline gate.
fn pipeline(t: &Tracer, inp: &Inputs, m: &mut Metrics) -> Result<Option<Vec<f32>>, String> {
    // Both passes start with an empty buffer arena, so the second one does
    // not run on buffers the first one left behind.
    arena::clear();
    match inp.workload.as_str() {
        "detect" => detect(t, inp, m).map(Some),
        "serve" => serve(t, inp, m).map(|_| None),
        "stream" => stream(t, inp, m).map(|_| None),
        "detect-ooc" => detect_ooc(t, inp, m).map(Some),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Span names whose median becomes a metric, with the metric's unit scale
/// (nanoseconds per unit).
const TIMED: &[(&str, &str, f64)] = &[
    ("tensor.matmul_us", "tensor.matmul", 1e3),
    ("tensor.matmul_tn_us", "tensor.matmul_tn", 1e3),
    ("tensor.matmul_nt_us", "tensor.matmul_nt", 1e3),
    ("tensor.spmm_us", "tensor.spmm", 1e3),
    ("tensor.spmm_t_us", "tensor.spmm_t", 1e3),
    ("tensor.map_tanh_us", "tensor.map_tanh", 1e3),
    ("tensor.fused_adam_us", "tensor.fused_adam", 1e3),
    ("graph.load_ms", "graph.load", 1e6),
    ("graph.store_open_ms", "graph.store_open", 1e6),
    ("graph.sample_ms", "graph.sample", 1e6),
    ("graph.apply_batch_us", "graph.apply_batch", 1e3),
    ("graph.compact_ms", "graph.compact", 1e6),
    ("gnn.context_build_ms", "gnn.context_build", 1e6),
    ("gnn.gat_forward_ms", "gnn.gat_forward", 1e6),
    ("autograd.backward_ms", "autograd.backward", 1e6),
    ("nn.adam_step_ms", "nn.adam_step", 1e6),
    ("core.vbm_fit_ms", "core.vbm_fit", 1e6),
    ("core.vbm_epoch_ms", "core.vbm_epoch", 1e6),
    ("core.arm_fit_ms", "core.arm_fit", 1e6),
    ("core.arm_epoch_ms", "core.arm_epoch", 1e6),
    ("core.vbm_score_ms", "core.vbm_score", 1e6),
    ("core.arm_score_ms", "core.arm_score", 1e6),
    ("core.combine_ms", "core.combine", 1e6),
    ("core.minibatch_fit_ms", "core.minibatch_fit", 1e6),
    ("eval.score_pass_ms", "eval.score_pass", 1e6),
    ("eval.light_pass_ms", "eval.light_pass", 1e6),
    ("eval.delta_gnn_ms", "eval.delta_gnn", 1e6),
    ("eval.delta_light_ms", "eval.delta_light", 1e6),
    ("eval.score_store_ms", "eval.score_store", 1e6),
];

/// `perfbench-harness layers ...`: run the workload's probes untraced
/// (and traced when `traced`), write the in-process scores for the gate
/// and, when traced, the span file. Prints one JSON object.
pub fn main(inp: &Inputs, traced: bool, spans_path: Option<&str>) -> Result<(), String> {
    let mut metrics = Metrics::new();
    let untraced = Tracer::new(false);
    let started = Instant::now();
    let scores = pipeline(&untraced, inp, &mut metrics)?;
    let untraced_s = started.elapsed().as_secs_f64();
    if let Some(scores) = &scores {
        write_scores(&inp.path("inproc_scores.tsv"), scores)?;
    }
    let mut out = format!(
        "{{\"untraced_s\":{untraced_s:.6},\"tensor_threads\":{},\"simd\":\"{}\"",
        vgod_tensor::threading::num_threads(),
        vgod_tensor::simd::active_isa().name()
    );
    if traced {
        let tracer = Tracer::new(true);
        let started = Instant::now();
        metrics.clear();
        let traced_scores = pipeline(&tracer, inp, &mut metrics)?;
        let traced_s = started.elapsed().as_secs_f64();
        if traced_scores != scores {
            return Err("traced and untraced in-process scores differ".into());
        }
        for &(metric, span, scale) in TIMED {
            metrics.insert(metric, tracer.median_ns(span) / scale);
        }
        metrics.insert("trace.overhead_ratio", traced_s / untraced_s);
        let rendered: Vec<String> = metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        if let Some(path) = spans_path {
            let summary = format!(
                "\"workload\":\"{}\",\"seed\":{},\"untraced_s\":{untraced_s:.6},\"traced_s\":{traced_s:.6},\"metrics\":{{{}}}",
                inp.workload,
                inp.seed,
                rendered.join(",")
            );
            tracer
                .write_json(path, &summary)
                .map_err(|e| format!("{path}: {e}"))?;
        }
        out.push_str(&format!(
            ",\"traced_s\":{traced_s:.6},\"spans\":{},\"metrics\":{{{}}}",
            tracer.len(),
            rendered.join(",")
        ));
    }
    out.push('}');
    println!("{out}");
    Ok(())
}
