//! Subcommand implementations.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use vgod::{MiniBatchConfig, Vbm, Vgod, VgodConfig};
use vgod_baselines::{
    AnomalyDae, Cola, Conad, DeepConfig, Deg, DegNorm, Dominant, Done, L2Norm, Radar,
    RandomDetector,
};
use vgod_datasets::{replica, Dataset, Scale};
use vgod_eval::{auc, average_precision, precision_at_k, recall_at_k, OutlierDetector};
use vgod_graph::{
    adjusted_homophily, degree_stats, edge_homophily, load_graph, parse_mem_budget,
    partition_store, save_graph, seeded_rng, synth_store, AttributedGraph, CachePolicy,
    FrozenGraph, GraphMutation, GraphStore, HaloManifest, OocStore, OverlayGraph, PartitionConfig,
    PartitionManifest, PartitionMode, SamplingConfig, StoreOptions, SynthStoreConfig,
    DEFAULT_ATTR_BLOCK_NODES, DEFAULT_EDGE_BLOCK_ENTRIES,
};
use vgod_inject::{
    inject_community_replacement, inject_contextual, inject_standard, inject_structural,
    ContextualParams, DistanceMetric, GroundTruth, OutlierKind, StructuralParams,
};
use vgod_serve::{
    AnyDetector, OocServeConfig, RegistryConfig, ServeConfig, ShardSpec, StreamConfig, WorkerConfig,
};

use crate::args::Args;
use crate::files;

type CmdResult = Result<(), String>;

fn parse_dataset(s: &str) -> Result<Dataset, String> {
    match s.to_ascii_lowercase().as_str() {
        "cora" => Ok(Dataset::CoraLike),
        "citeseer" => Ok(Dataset::CiteseerLike),
        "pubmed" => Ok(Dataset::PubmedLike),
        "flickr" => Ok(Dataset::FlickrLike),
        "weibo" => Ok(Dataset::WeiboLike),
        other => Err(format!("unknown dataset {other:?}")),
    }
}

fn load(path: &str) -> Result<AttributedGraph, String> {
    load_graph(path).map_err(|e| format!("{path}: {e}"))
}

/// `vgod generate`
pub fn generate(args: &Args) -> CmdResult {
    let dataset = parse_dataset(args.required("dataset").map_err(|e| e.to_string())?)?;
    let scale = args
        .get("scale")
        .map(|s| Scale::from_env_str(s).ok_or_else(|| format!("unknown scale {s:?}")))
        .transpose()?
        .unwrap_or(Scale::Small);
    let seed: u64 = args.get_parsed_or("seed", 42).map_err(|e| e.to_string())?;
    let out = args.required("out").map_err(|e| e.to_string())?;

    let mut rng = seeded_rng(seed);
    let r = replica(dataset, scale, &mut rng);
    save_graph(&r.graph, out).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "wrote {out}: {} nodes, {} edges, {} attrs",
        r.graph.num_nodes(),
        r.graph.num_edges(),
        r.graph.num_attrs()
    );
    if let Some(truth) = r.labeled_truth {
        let path = args
            .get("truth")
            .ok_or("weibo carries labeled outliers: pass --truth FILE to keep them")?;
        let mut w = BufWriter::new(File::create(path).map_err(|e| format!("{path}: {e}"))?);
        files::write_truth(&truth, &mut w).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "wrote {path}: {} labeled outliers",
            truth.structural_nodes().len()
        );
    }
    Ok(())
}

/// `vgod inject`
pub fn inject(args: &Args) -> CmdResult {
    let input = args.required("in").map_err(|e| e.to_string())?;
    let out = args.required("out").map_err(|e| e.to_string())?;
    let truth_path = args.required("truth").map_err(|e| e.to_string())?;
    let seed: u64 = args.get_parsed_or("seed", 1).map_err(|e| e.to_string())?;
    let mode = args.get("mode").unwrap_or("standard");

    let mut g = load(input)?;
    let mut rng = seeded_rng(seed);

    let p: usize = args.get_parsed_or("p", 5).map_err(|e| e.to_string())?;
    let q: usize = args.get_parsed_or("q", 15).map_err(|e| e.to_string())?;
    let k: usize = args.get_parsed_or("k", 50).map_err(|e| e.to_string())?;
    let fraction: f32 = args
        .get_parsed_or("fraction", 0.1)
        .map_err(|e| e.to_string())?;
    let metric = match args.get("metric").unwrap_or("euclidean") {
        "euclidean" => DistanceMetric::Euclidean,
        "cosine" => DistanceMetric::Cosine,
        other => return Err(format!("unknown metric {other:?}")),
    };
    let sp = StructuralParams {
        num_cliques: p,
        clique_size: q,
    };
    let cp = ContextualParams {
        count: p * q,
        candidates: k,
        metric,
    };

    let truth = match mode {
        "standard" => inject_standard(&mut g, &sp, &cp, &mut rng),
        "structural" => {
            let mut truth = GroundTruth::new(g.num_nodes());
            inject_structural(&mut g, &mut truth, &sp, &mut rng);
            truth
        }
        "contextual" => {
            let mut truth = GroundTruth::new(g.num_nodes());
            inject_contextual(&mut g, &mut truth, &cp, &mut rng);
            truth
        }
        "replacement" => {
            let mut truth = GroundTruth::new(g.num_nodes());
            inject_community_replacement(&mut g, &mut truth, fraction, &mut rng);
            truth
        }
        other => return Err(format!("unknown injection mode {other:?}")),
    };

    save_graph(&g, out).map_err(|e| format!("{out}: {e}"))?;
    let mut w = BufWriter::new(File::create(truth_path).map_err(|e| format!("{truth_path}: {e}"))?);
    files::write_truth(&truth, &mut w).map_err(|e| format!("{truth_path}: {e}"))?;
    println!(
        "wrote {out} (+{truth_path}): {} structural, {} contextual outliers",
        truth.structural_nodes().len(),
        truth.contextual_nodes().len()
    );
    Ok(())
}

/// `vgod detect`
pub fn detect(args: &Args) -> CmdResult {
    let input = args.required("in").map_err(|e| e.to_string())?;
    let scores_path = args.required("scores").map_err(|e| e.to_string())?;
    let model = args.get("model").unwrap_or("vgod").to_ascii_lowercase();
    let seed: u64 = args.get_parsed_or("seed", 0).map_err(|e| e.to_string())?;
    let hidden: usize = args
        .get_parsed_or("hidden", 64)
        .map_err(|e| e.to_string())?;
    let epochs: usize = args
        .get_parsed_or("epochs", 50)
        .map_err(|e| e.to_string())?;
    let lr: f32 = args.get_parsed_or("lr", 0.005).map_err(|e| e.to_string())?;
    let self_loops: bool = args
        .get_parsed_or("self-loops", true)
        .map_err(|e| e.to_string())?;
    let batch: usize = args.get_parsed_or("batch", 0).map_err(|e| e.to_string())?;

    let deep = DeepConfig {
        hidden,
        epochs,
        lr,
        seed,
    };
    let mut vgod_cfg = VgodConfig::default();
    vgod_cfg.vbm.hidden_dim = hidden;
    vgod_cfg.vbm.lr = lr;
    vgod_cfg.vbm.self_loops = self_loops;
    vgod_cfg.vbm.seed = seed;
    vgod_cfg.arm.hidden_dim = hidden;
    vgod_cfg.arm.lr = lr;
    vgod_cfg.arm.epochs = epochs.max(1);
    vgod_cfg.arm.seed = seed.wrapping_add(1);

    let save_model = args.get("save-model");
    let load_model = args.get("load-model");

    if args.get("shards").is_some() {
        return detect_sharded(
            args,
            input,
            scores_path,
            &model,
            deep,
            vgod_cfg,
            seed,
            batch,
            save_model,
            load_model,
        );
    }

    if args.has("out-of-core") {
        return detect_out_of_core(
            args,
            input,
            scores_path,
            &model,
            deep,
            vgod_cfg,
            seed,
            batch,
            save_model,
            load_model,
        );
    }

    let g = load(input)?;
    // Either resurrect any checkpoint (the magic line says which detector it
    // holds) or build + fit the requested model fresh.
    let detector = match load_model {
        Some(path) => load_checked(args, path)?,
        None => {
            let mut det = fresh_detector(&model, deep, vgod_cfg, seed)?;
            let minibatch = MiniBatchConfig {
                batch_size: batch,
                neighbor_cap: 16,
            };
            // vbm/arm support explicit mini-batch training (their concrete
            // types expose it); everything else fits through the trait.
            match &mut det {
                AnyDetector::Vbm(m) if batch > 0 => m.fit_minibatch(&g, &minibatch),
                AnyDetector::Arm(m) if batch > 0 => m.fit_minibatch(&g, &minibatch),
                other => OutlierDetector::fit(other, &g),
            }
            det
        }
    };
    if let Some(path) = save_model {
        detector.save_file(Path::new(path))?;
        println!("saved {} checkpoint to {path}", detector.kind());
    }
    let scores = detector.score(&g).combined;
    write_scores_file(&scores, scores_path, detector.kind())
}

/// An untrained detector of the requested kind.
fn fresh_detector(
    model: &str,
    deep: DeepConfig,
    vgod_cfg: VgodConfig,
    seed: u64,
) -> Result<AnyDetector, String> {
    Ok(match model {
        "vgod" => AnyDetector::Vgod(Vgod::new(vgod_cfg)),
        "vbm" => AnyDetector::Vbm(Vbm::new(vgod_cfg.vbm)),
        "arm" => AnyDetector::Arm(vgod::Arm::new(vgod_cfg.arm)),
        "dominant" => AnyDetector::Dominant(Dominant::new(deep)),
        "anomalydae" => AnyDetector::AnomalyDae(AnomalyDae::new(deep)),
        "done" => AnyDetector::Done(Done::new(deep)),
        "cola" => AnyDetector::Cola(Cola::new(deep)),
        "conad" => AnyDetector::Conad(Conad::new(deep)),
        "radar" => AnyDetector::Radar(Radar::new(deep)),
        "degnorm" => AnyDetector::DegNorm(DegNorm),
        "deg" => AnyDetector::Deg(Deg),
        "l2norm" => AnyDetector::L2Norm(L2Norm),
        "random" => AnyDetector::Random(RandomDetector::new(seed)),
        other => return Err(format!("unknown model {other:?}")),
    })
}

/// Load a checkpoint, rejecting a kind mismatch against an explicit
/// `--model`.
fn load_checked(args: &Args, path: &str) -> Result<AnyDetector, String> {
    let det = AnyDetector::load_file(Path::new(path))?;
    if let Some(requested) = args.get("model") {
        if det.kind() != requested.to_ascii_lowercase() {
            return Err(format!(
                "{path} holds a {} checkpoint, not {requested}",
                det.kind()
            ));
        }
    }
    Ok(det)
}

fn write_scores_file(scores: &[f32], scores_path: &str, kind: &str) -> CmdResult {
    let mut w =
        BufWriter::new(File::create(scores_path).map_err(|e| format!("{scores_path}: {e}"))?);
    files::write_scores(scores, &mut w).map_err(|e| format!("{scores_path}: {e}"))?;
    println!("wrote {scores_path}: {} scores from {kind}", scores.len());
    Ok(())
}

/// The neighbour-sampling schedule from `detect`/`store` flags.
fn sampling_config(args: &Args, batch: usize) -> Result<SamplingConfig, String> {
    Ok(SamplingConfig {
        full_graph_threshold: args
            .get_parsed_or("threshold", 20_000)
            .map_err(|e| e.to_string())?,
        batch_size: if batch > 0 { batch } else { 1024 },
        fanout: args.get_parsed_or("fanout", 8).map_err(|e| e.to_string())?,
        hops: args.get_parsed_or("hops", 2).map_err(|e| e.to_string())?,
        train_seeds: args
            .get_parsed_or("train-seeds", 2048)
            .map_err(|e| e.to_string())?,
        seed: args
            .get_parsed_or("sample-seed", 0)
            .map_err(|e| e.to_string())?,
        ooc_threads: args
            .get_parsed_or("ooc-threads", 0)
            .map_err(|e| e.to_string())?,
    })
}

/// The block cache policy from `--cache-policy` (default: segmented LRU).
fn cache_policy(args: &Args) -> Result<CachePolicy, String> {
    args.get("cache-policy")
        .map_or(Ok(CachePolicy::default()), CachePolicy::parse)
}

/// `vgod detect --out-of-core`: train and score against a demand-paged
/// on-disk store under an explicit memory budget, never materialising the
/// full graph.
#[allow(clippy::too_many_arguments)]
fn detect_out_of_core(
    args: &Args,
    input: &str,
    scores_path: &str,
    model: &str,
    deep: DeepConfig,
    vgod_cfg: VgodConfig,
    seed: u64,
    batch: usize,
    save_model: Option<&str>,
    load_model: Option<&str>,
) -> CmdResult {
    let budget = parse_mem_budget(args.get("mem-budget").unwrap_or("256M"))?;
    let opts = StoreOptions {
        budget,
        policy: cache_policy(args)?,
        shards: 0,
    };
    let store = OocStore::open_with(Path::new(input), opts).map_err(|e| format!("{input}: {e}"))?;
    let scfg = sampling_config(args, batch)?;
    let verbose = args.has("verbose");
    if verbose {
        eprintln!(
            "store {input}: {} nodes, {} edges, {} attrs; budget {} bytes \
             ({} cache, {} shards), sampling threshold {} (batch {}, fanout {}, \
             hops {}, train seeds {}), {} score thread(s)",
            store.num_nodes(),
            store.num_edges(),
            store.num_attrs(),
            store.budget(),
            store.policy().name(),
            store.shard_count(),
            scfg.full_graph_threshold,
            scfg.batch_size,
            scfg.fanout,
            scfg.hops,
            scfg.train_seeds,
            scfg.score_threads(),
        );
    }
    let detector = match load_model {
        Some(path) => load_checked(args, path)?,
        None => {
            let mut det = fresh_detector(model, deep, vgod_cfg, seed)?;
            det.fit_store(&store, &scfg);
            det
        }
    };
    if let Some(path) = save_model {
        detector.save_file(Path::new(path))?;
        println!("saved {} checkpoint to {path}", detector.kind());
    }
    let scores = detector.score_store(&store, &scfg).combined;
    write_scores_file(&scores, scores_path, detector.kind())?;
    if verbose {
        let st = store.stats();
        eprintln!(
            "store stats: {} resident blocks / {} resident bytes (budget {}), \
             {} bytes read, {} evictions, {} hits / {} misses ({:.1}% hit rate)",
            st.resident_blocks,
            st.resident_bytes,
            st.budget_bytes,
            st.bytes_read,
            st.evictions,
            st.hits,
            st.misses,
            100.0 * st.hit_rate(),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Sharded scoring: partition, spawn one worker process per shard, scatter.

/// `--shards N`, validated.
fn shard_count(args: &Args) -> Result<usize, String> {
    let shards: usize = args.get_parsed_or("shards", 1).map_err(|e| e.to_string())?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok(shards)
}

/// Partition `input` (a text graph or a `.vgodstore` file) into `dir`.
fn partition_input(
    input: &str,
    dir: &Path,
    shards: usize,
    sampling: SamplingConfig,
    budget: usize,
) -> Result<PartitionManifest, String> {
    let cfg = PartitionConfig::new(shards, sampling);
    let manifest = if input.ends_with(".vgodstore") {
        let store = OocStore::open_with(Path::new(input), StoreOptions::new(budget))
            .map_err(|e| format!("{input}: {e}"))?;
        partition_store(&store, dir, &cfg)?
    } else {
        let g = load(input)?;
        partition_store(&g, dir, &cfg)?
    };
    let mode = match manifest.mode {
        PartitionMode::FullCopy => "full-copy",
        PartitionMode::Sliced => "sliced",
    };
    println!(
        "partitioned {input}: {} nodes / {} edges into {shards} {mode} shard(s) \
         ({} ghosts, {} cross edges, {} halo bytes) under {}",
        manifest.num_nodes,
        manifest.num_edges,
        manifest.total_ghosts(),
        manifest.total_cross_edges(),
        manifest.total_halo_bytes(),
        dir.display()
    );
    Ok(manifest)
}

/// A spawned shard worker process. Dropping the guard kills the process,
/// so an error anywhere in coordinator startup never leaks workers.
struct ChildGuard {
    child: Child,
    shard: usize,
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        // After a graceful shutdown the process has already exited and
        // both calls are harmless no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Give cleanly shut-down workers a moment to exit on their own before
/// the guards' drop kills whatever is left.
fn reap_workers(guards: &mut [ChildGuard]) {
    let deadline = Instant::now() + Duration::from_secs(5);
    for g in guards.iter_mut() {
        while Instant::now() < deadline {
            if matches!(g.child.try_wait(), Ok(Some(_))) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// Fork one `vgod shard-worker` process per shard of `manifest` and wait
/// for each to report its ephemeral address through an addr file.
fn spawn_shard_workers(
    partition_dir: &Path,
    models_dir: &Path,
    manifest: &PartitionManifest,
    budget_flag: &str,
) -> Result<(Vec<ChildGuard>, Vec<ShardSpec>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut guards = Vec::new();
    let mut addr_files = Vec::new();
    for meta in &manifest.shards {
        let addr_file = partition_dir.join(format!("worker-{}.addr", meta.index));
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(&exe)
            .arg("shard-worker")
            .arg("--partition")
            .arg(partition_dir)
            .arg("--shard")
            .arg(meta.index.to_string())
            .arg("--models")
            .arg(models_dir)
            .arg("--port")
            .arg("0")
            .arg("--mem-budget")
            .arg(budget_flag)
            .arg("--addr-file")
            .arg(&addr_file)
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning shard worker {}: {e}", meta.index))?;
        guards.push(ChildGuard {
            child,
            shard: meta.index,
        });
        addr_files.push(addr_file);
    }
    let mut specs = Vec::new();
    for (guard, addr_file) in guards.iter_mut().zip(&addr_files) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(addr_file) {
                if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                    break addr;
                }
            }
            if let Ok(Some(status)) = guard.child.try_wait() {
                return Err(format!(
                    "shard worker {} exited during startup: {status}",
                    guard.shard
                ));
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "shard worker {} did not report an address within 30s",
                    guard.shard
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        specs.push(ShardSpec {
            addr,
            meta: manifest.shards[guard.shard].clone(),
        });
    }
    Ok((guards, specs))
}

/// `vgod shard-worker` (internal): one shard's scoring process, forked by
/// `serve --shards` / `detect --shards`. Serves its slice until
/// `POST /shutdown`.
pub fn shard_worker(args: &Args) -> CmdResult {
    let partition = args.required("partition").map_err(|e| e.to_string())?;
    let shard: usize = args.get_parsed_or("shard", 0).map_err(|e| e.to_string())?;
    let models = args.required("models").map_err(|e| e.to_string())?;
    let host = args.get("host").unwrap_or("127.0.0.1");
    let port: u16 = args.get_parsed_or("port", 0).map_err(|e| e.to_string())?;
    let budget = parse_mem_budget(args.get("mem-budget").unwrap_or("256M"))?;
    let handle = vgod_serve::run_shard_worker(&WorkerConfig {
        partition_dir: PathBuf::from(partition),
        shard,
        models_dir: PathBuf::from(models),
        bind: format!("{host}:{port}"),
        budget,
    })?;
    if let Some(path) = args.get("addr-file") {
        std::fs::write(path, handle.addr().to_string()).map_err(|e| format!("{path}: {e}"))?;
    }
    eprintln!("shard worker {shard} serving on {}", handle.addr());
    handle.join();
    Ok(())
}

/// `vgod detect --shards N`: fit single-process (training stays local —
/// the distributed layer is scatter-gather *scoring*), publish the
/// checkpoint, partition the graph, fork the workers, and gather merged
/// scores through the coordinator. Output is byte-identical to the
/// single-process score file.
#[allow(clippy::too_many_arguments)]
fn detect_sharded(
    args: &Args,
    input: &str,
    scores_path: &str,
    model: &str,
    deep: DeepConfig,
    vgod_cfg: VgodConfig,
    seed: u64,
    batch: usize,
    save_model: Option<&str>,
    load_model: Option<&str>,
) -> CmdResult {
    let shards = shard_count(args)?;
    let scfg = sampling_config(args, batch)?;
    let budget_flag = args.get("mem-budget").unwrap_or("256M");
    let budget = parse_mem_budget(budget_flag)?;

    let detector = match load_model {
        Some(path) => load_checked(args, path)?,
        None if args.has("out-of-core") => {
            let store = OocStore::open_with(Path::new(input), StoreOptions::new(budget))
                .map_err(|e| format!("{input}: {e}"))?;
            let mut det = fresh_detector(model, deep, vgod_cfg, seed)?;
            det.fit_store(&store, &scfg);
            det
        }
        None => {
            let g = load(input)?;
            let mut det = fresh_detector(model, deep, vgod_cfg, seed)?;
            let minibatch = MiniBatchConfig {
                batch_size: batch,
                neighbor_cap: 16,
            };
            match &mut det {
                AnyDetector::Vbm(m) if batch > 0 => m.fit_minibatch(&g, &minibatch),
                AnyDetector::Arm(m) if batch > 0 => m.fit_minibatch(&g, &minibatch),
                other => OutlierDetector::fit(other, &g),
            }
            det
        }
    };
    if let Some(path) = save_model {
        detector.save_file(Path::new(path))?;
        println!("saved {} checkpoint to {path}", detector.kind());
    }

    let work = std::env::temp_dir().join(format!(
        "vgod_detect_shards_{}_{}",
        std::process::id(),
        detector.kind()
    ));
    let _ = std::fs::remove_dir_all(&work);
    let models_dir = work.join("models");
    let partition_dir = work.join("partition");
    std::fs::create_dir_all(&models_dir).map_err(|e| format!("{}: {e}", models_dir.display()))?;
    std::fs::create_dir_all(&partition_dir)
        .map_err(|e| format!("{}: {e}", partition_dir.display()))?;

    let result = (|| -> Result<Vec<f32>, String> {
        detector.save_file(&models_dir.join(format!("{}.ckpt", detector.kind())))?;
        let manifest = partition_input(input, &partition_dir, shards, scfg, budget)?;
        let (mut guards, specs) =
            spawn_shard_workers(&partition_dir, &models_dir, &manifest, budget_flag)?;
        let handle = vgod_serve::serve_sharded(manifest, specs, &models_dir, "127.0.0.1:0", 64)?;
        let body = format!("{{\"model\":\"{}\"}}", detector.kind());
        let scatter = vgod_serve::http::post(handle.addr(), "/score", &body)
            .map_err(|e| format!("scatter: {e}"));
        handle.shutdown();
        handle.join();
        reap_workers(&mut guards);
        drop(guards);
        let (status, text) = scatter?;
        if status != 200 {
            return Err(format!("sharded scoring failed ({status}): {text}"));
        }
        let parsed =
            vgod_serve::json::Json::parse(&text).map_err(|e| format!("bad /score reply: {e}"))?;
        let arr = parsed
            .get("scores")
            .and_then(|s| s.as_arr())
            .ok_or("missing \"scores\" in /score reply")?;
        // f32 scores survive the wire exactly: the worker renders the
        // shortest round-trip decimal and f64 parsing re-reads it bit-for-bit.
        arr.iter()
            .map(|v| {
                v.as_f64()
                    .map(|f| f as f32)
                    .ok_or_else(|| "non-numeric score in /score reply".to_string())
            })
            .collect()
    })();
    let _ = std::fs::remove_dir_all(&work);
    let scores = result?;
    write_scores_file(&scores, scores_path, detector.kind())
}

/// `vgod serve --shards N`: partition, fork one worker per shard, and run
/// the coordinator front in this process.
fn serve_shards_cmd(
    args: &Args,
    models_dir: &str,
    input: &str,
    host: &str,
    port: u16,
    queue: usize,
) -> CmdResult {
    let shards = shard_count(args)?;
    let scfg = sampling_config(args, 0)?;
    let budget_flag = args.get("mem-budget").unwrap_or("256M");
    let budget = parse_mem_budget(budget_flag)?;
    let (dir, ephemeral) = match args.get("partition-dir") {
        Some(d) => (PathBuf::from(d), false),
        None => (
            std::env::temp_dir().join(format!("vgod_shards_{}", std::process::id())),
            true,
        ),
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let result = (|| -> CmdResult {
        let manifest = partition_input(input, &dir, shards, scfg, budget)?;
        let (mut guards, specs) =
            spawn_shard_workers(&dir, Path::new(models_dir), &manifest, budget_flag)?;
        let handle = vgod_serve::serve_sharded(
            manifest,
            specs,
            Path::new(models_dir),
            &format!("{host}:{port}"),
            queue,
        )?;
        let models = handle.models();
        println!(
            "serving {} model(s) on http://{} across {shards} shard worker(s) — \
             POST /shutdown to stop",
            models.len(),
            handle.addr(),
        );
        for m in &models {
            println!("  {} v{} ({})", m.name, m.version, m.kind);
        }
        if let Some(path) = args.get("addr-file") {
            std::fs::write(path, handle.addr().to_string()).map_err(|e| format!("{path}: {e}"))?;
        }
        handle.join();
        reap_workers(&mut guards);
        drop(guards);
        println!("server stopped");
        Ok(())
    })();
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    result
}

/// `vgod store`: build, convert, or inspect on-disk graph stores.
pub fn store(args: &Args) -> CmdResult {
    if let Some(path) = args.get("info") {
        // A directory is a partition: print its manifest metadata instead
        // of opening a single store file.
        if Path::new(path).is_dir() {
            let m = PartitionManifest::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
            let mode = match m.mode {
                PartitionMode::FullCopy => "full-copy",
                PartitionMode::Sliced => "sliced",
            };
            println!("partition   : {mode}, {} shard(s)", m.shards.len());
            println!("nodes       : {}", m.num_nodes);
            println!("edges       : {}", m.num_edges);
            println!("attributes  : {}", m.num_attrs);
            let s = &m.sampling;
            println!(
                "sampling    : threshold={} batch={} fanout={} hops={} train_seeds={} seed={}",
                s.full_graph_threshold, s.batch_size, s.fanout, s.hops, s.train_seeds, s.seed
            );
            println!("ghosts      : {}", m.total_ghosts());
            println!("cross edges : {}", m.total_cross_edges());
            println!("halo bytes  : {}", m.total_halo_bytes());
            for sh in &m.shards {
                println!(
                    "shard {:<5} : [{}, {}) closure={} ghosts={} cross_edges={} halo_bytes={}",
                    sh.index, sh.lo, sh.hi, sh.closure, sh.ghosts, sh.cross_edges, sh.halo_bytes
                );
                // Sliced partitions also carry binary VGODHAL1 halo
                // manifests; report what is actually on disk, not just the
                // text-manifest summary above.
                let halo = PartitionManifest::halo_path(Path::new(path), sh.index);
                if halo.is_file() {
                    let hm = HaloManifest::load(&halo)
                        .map_err(|e| format!("{}: {e}", halo.display()))?;
                    let disk = std::fs::metadata(&halo).map(|md| md.len()).unwrap_or(0);
                    println!(
                        "  halo file : {} — {} ghost id(s), {} exchange byte(s), {} on disk",
                        halo.file_name().unwrap_or_default().to_string_lossy(),
                        hm.ghosts.len(),
                        hm.halo_bytes,
                        disk
                    );
                }
            }
            return Ok(());
        }
        let budget = parse_mem_budget(args.get("mem-budget").unwrap_or("64M"))?;
        let opts = StoreOptions {
            budget,
            policy: cache_policy(args)?,
            shards: 0,
        };
        let s = OocStore::open_with(Path::new(path), opts).map_err(|e| format!("{path}: {e}"))?;
        println!("nodes       : {}", s.num_nodes());
        println!("edges       : {}", s.num_edges());
        println!("attributes  : {}", s.num_attrs());
        println!(
            "attr block  : {} rows ({} blocks)",
            s.attr_block_nodes(),
            s.num_attr_blocks()
        );
        println!(
            "edge block  : {} entries ({} blocks)",
            s.edge_block_entries(),
            s.num_edge_blocks()
        );
        println!("labels      : {}", s.labels_vec().is_some());
        println!(
            "cache       : {} policy, {} shards",
            s.policy().name(),
            s.shard_count()
        );
        println!(
            "cache budget: {} bytes of {} total (indptr keeps the rest resident)",
            s.cache_budget(),
            s.budget()
        );
        let st = s.stats();
        println!(
            "resident    : {} bytes of {} budget",
            st.resident_bytes, st.budget_bytes
        );
        return Ok(());
    }
    let out = args.required("out").map_err(|e| e.to_string())?;
    if args.get("synth-nodes").is_some() {
        let nodes: usize = args
            .get_parsed_or("synth-nodes", 0)
            .map_err(|e| e.to_string())?;
        let seed: u64 = args.get_parsed_or("seed", 0).map_err(|e| e.to_string())?;
        let cfg = SynthStoreConfig::scaled(nodes, seed);
        let truth = synth_store(
            Path::new(out),
            &cfg,
            DEFAULT_ATTR_BLOCK_NODES,
            DEFAULT_EDGE_BLOCK_ENTRIES,
        )
        .map_err(|e| format!("{out}: {e}"))?;
        println!(
            "wrote {out}: {} nodes, ~{} edges, {} attrs; {} structural + {} contextual outliers",
            nodes,
            nodes * cfg.avg_degree / 2,
            cfg.attrs,
            truth.structural.len(),
            truth.contextual.len()
        );
        if let Some(truth_path) = args.get("truth") {
            let mut gt = GroundTruth::new(nodes);
            for &u in &truth.structural {
                gt.mark(u, OutlierKind::Structural);
            }
            for &u in &truth.contextual {
                gt.mark(u, OutlierKind::Contextual);
            }
            let mut w =
                BufWriter::new(File::create(truth_path).map_err(|e| format!("{truth_path}: {e}"))?);
            files::write_truth(&gt, &mut w).map_err(|e| format!("{truth_path}: {e}"))?;
            println!("wrote {truth_path}");
        }
        return Ok(());
    }
    if let Some(input) = args.get("in") {
        let g = load(input)?;
        OocStore::create_from_graph(
            &g,
            Path::new(out),
            DEFAULT_ATTR_BLOCK_NODES,
            DEFAULT_EDGE_BLOCK_ENTRIES,
        )
        .map_err(|e| format!("{out}: {e}"))?;
        println!(
            "wrote {out}: {} nodes, {} edges, {} attrs",
            g.num_nodes(),
            g.num_edges(),
            g.num_attrs()
        );
        return Ok(());
    }
    Err("store needs --info FILE, --synth-nodes N, or --in FILE (see help)".to_string())
}

/// `vgod serve`
pub fn serve(args: &Args) -> CmdResult {
    let models_dir = args.required("models").map_err(|e| e.to_string())?;
    let input = args.required("in").map_err(|e| e.to_string())?;
    let host = args.get("host").unwrap_or("127.0.0.1");
    let port: u16 = args
        .get_parsed_or("port", 7878)
        .map_err(|e| e.to_string())?;
    let max_batch: usize = args
        .get_parsed_or("max-batch", 32)
        .map_err(|e| e.to_string())?;
    let max_wait_us: u64 = args
        .get_parsed_or("max-wait-us", 2000)
        .map_err(|e| e.to_string())?;
    let queue: usize = args
        .get_parsed_or("queue", 1024)
        .map_err(|e| e.to_string())?;
    let replicas: usize = args
        .get_parsed_or("replicas", 0)
        .map_err(|e| e.to_string())?;
    let reload_ms: u64 = args
        .get_parsed_or("reload-ms", 500)
        .map_err(|e| e.to_string())?;
    if args.has("streaming") {
        if args.get("shards").is_some() || args.has("out-of-core") {
            return Err(
                "--streaming cannot be combined with --shards or --out-of-core".to_string(),
            );
        }
        let compact_bytes = parse_mem_budget(args.get("compact-bytes").unwrap_or("4M"))?;
        let queue_capacity: usize = args
            .get_parsed_or("update-queue", 256)
            .map_err(|e| e.to_string())?;
        let handle = vgod_serve::serve_streaming(
            Path::new(models_dir),
            Path::new(input),
            &format!("{host}:{port}"),
            StreamConfig {
                compact_bytes,
                queue_capacity: queue_capacity.max(1),
            },
        )?;
        let models = handle.models();
        println!(
            "streaming {} model(s) on http://{} — POST /graph/update to mutate, /shutdown to stop",
            models.len(),
            handle.addr()
        );
        for m in &models {
            println!("  {} v{} ({})", m.name, m.version, m.kind);
        }
        if let Some(path) = args.get("addr-file") {
            std::fs::write(path, handle.addr().to_string()).map_err(|e| format!("{path}: {e}"))?;
        }
        handle.join();
        println!("server stopped");
        return Ok(());
    }
    if args.get("shards").is_some() {
        return serve_shards_cmd(args, models_dir, input, host, port, queue.max(1));
    }
    let out_of_core = if args.has("out-of-core") {
        let budget = parse_mem_budget(args.get("mem-budget").unwrap_or("256M"))?;
        Some(OocServeConfig {
            budget,
            policy: cache_policy(args)?,
            sampling: sampling_config(args, 0)?,
        })
    } else {
        None
    };

    let cfg = ServeConfig {
        max_batch: max_batch.max(1),
        max_wait: Duration::from_micros(max_wait_us),
        queue_capacity: queue.max(1),
        replicas,
        registry: RegistryConfig {
            reload_poll: Duration::from_millis(reload_ms.max(1)),
        },
        out_of_core,
    };
    let handle = vgod_serve::serve(
        Path::new(models_dir),
        Path::new(input),
        &format!("{host}:{port}"),
        cfg,
    )?;
    let models = handle.models();
    println!(
        "serving {} model(s) on http://{} with {} replica(s) — POST /shutdown to stop",
        models.len(),
        handle.addr(),
        handle.replicas()
    );
    for m in &models {
        println!("  {} v{} ({})", m.name, m.version, m.kind);
    }
    // Scripts (and the CI smoke test) read the resolved address from here
    // when they bind port 0.
    if let Some(path) = args.get("addr-file") {
        std::fs::write(path, handle.addr().to_string()).map_err(|e| format!("{path}: {e}"))?;
    }
    handle.join();
    println!("server stopped");
    Ok(())
}

/// One random mutation against an `n`-node graph with `d` attributes.
/// `label_hi` is `Some(max_label)` for labelled graphs so appended nodes
/// carry a valid community label.
fn random_mutation(
    n: u32,
    d: usize,
    label_hi: Option<u32>,
    rng: &mut impl rand::Rng,
) -> GraphMutation {
    match rng.gen_range(0..9) {
        // Mostly edge churn — that is what the delta path is built for.
        0..=3 => {
            let u = rng.gen_range(0..n);
            let v = (u + rng.gen_range(1..n)) % n;
            GraphMutation::AddEdge { u, v }
        }
        4 | 5 => GraphMutation::RemoveEdge {
            u: rng.gen_range(0..n),
            v: rng.gen_range(0..n),
        },
        6 => GraphMutation::SetAttrs {
            node: rng.gen_range(0..n),
            attrs: (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        },
        7 => GraphMutation::AddNode {
            attrs: (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            label: label_hi.map(|hi| rng.gen_range(0..=hi)),
        },
        _ => GraphMutation::RemoveNode {
            node: rng.gen_range(0..n),
        },
    }
}

/// Render one mutation in the `POST /graph/update` wire format.
fn mutation_json(op: &GraphMutation) -> String {
    fn attrs_json(attrs: &[f32]) -> String {
        let vals: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();
        format!("[{}]", vals.join(","))
    }
    match op {
        GraphMutation::AddEdge { u, v } => format!("{{\"op\":\"add_edge\",\"u\":{u},\"v\":{v}}}"),
        GraphMutation::RemoveEdge { u, v } => {
            format!("{{\"op\":\"remove_edge\",\"u\":{u},\"v\":{v}}}")
        }
        GraphMutation::AddNode { attrs, label } => match label {
            Some(l) => format!(
                "{{\"op\":\"add_node\",\"attrs\":{},\"label\":{l}}}",
                attrs_json(attrs)
            ),
            None => format!("{{\"op\":\"add_node\",\"attrs\":{}}}", attrs_json(attrs)),
        },
        GraphMutation::RemoveNode { node } => format!("{{\"op\":\"remove_node\",\"node\":{node}}}"),
        GraphMutation::SetAttrs { node, attrs } => format!(
            "{{\"op\":\"set_attrs\",\"node\":{node},\"attrs\":{}}}",
            attrs_json(attrs)
        ),
    }
}

/// `vgod stream-gen` — write a JSONL mutation log plus the graph the log
/// produces, by applying every batch to the same overlay a streaming
/// server would use. Scoring the `--final` graph offline therefore gives
/// the exact scores a server that replayed `--out` must serve.
pub fn stream_gen(args: &Args) -> CmdResult {
    use std::io::Write;

    let input = args.required("in").map_err(|e| e.to_string())?;
    let out = args.required("out").map_err(|e| e.to_string())?;
    let final_path = args.required("final").map_err(|e| e.to_string())?;
    let batches: usize = args
        .get_parsed_or("batches", 20)
        .map_err(|e| e.to_string())?;
    let ops_per_batch: usize = args.get_parsed_or("ops", 8).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_parsed_or("seed", 7).map_err(|e| e.to_string())?;
    if batches == 0 || ops_per_batch == 0 {
        return Err("--batches and --ops must be at least 1".to_string());
    }

    let g = load(input)?;
    if g.num_nodes() < 3 {
        return Err("stream-gen needs a graph with at least 3 nodes".to_string());
    }
    let d = g.num_attrs();
    let label_hi = g.labels().map(|l| l.iter().copied().max().unwrap_or(0));
    let mut rng = seeded_rng(seed);
    let mut overlay = OverlayGraph::new(std::sync::Arc::new(FrozenGraph::from_store(&g)));

    let mut log = BufWriter::new(File::create(out).map_err(|e| format!("{out}: {e}"))?);
    let mut applied_total = 0usize;
    for _ in 0..batches {
        // Ops are generated against the pre-batch node count, so every id
        // they reference is valid no matter how the batch interleaves.
        let n = GraphStore::num_nodes(&overlay) as u32;
        let ops: Vec<GraphMutation> = (0..ops_per_batch)
            .map(|_| random_mutation(n, d, label_hi, &mut rng))
            .collect();
        let effect = overlay.apply_batch(&ops)?;
        applied_total += effect.applied;
        let rendered: Vec<String> = ops.iter().map(mutation_json).collect();
        writeln!(log, "{{\"ops\":[{}]}}", rendered.join(",")).map_err(|e| format!("{out}: {e}"))?;
    }
    log.flush().map_err(|e| format!("{out}: {e}"))?;

    let final_g = overlay.materialize();
    save_graph(&final_g, final_path).map_err(|e| format!("{final_path}: {e}"))?;
    println!("wrote {out}: {batches} batch(es) × {ops_per_batch} op(s), {applied_total} applied");
    println!(
        "wrote {final_path}: {} nodes, {} edges after replay",
        final_g.num_nodes(),
        final_g.num_edges()
    );
    Ok(())
}

/// Pull the integer value of `"key":N` out of a flat JSON reply.
fn json_uint_field(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let i = body.find(&pat)? + pat.len();
    let rest = &body[i..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `vgod stream-replay` — POST a mutation log to a running streaming
/// server, one batch per request, then optionally fetch a model's served
/// scores into a score file (same `node score` format as `detect`, and the
/// server renders floats exactly like offline score files — so the two are
/// byte-comparable).
pub fn stream_replay(args: &Args) -> CmdResult {
    use std::io::{BufRead, Write};

    let log_path = args.required("log").map_err(|e| e.to_string())?;
    let addr_str = args.required("addr").map_err(|e| e.to_string())?;
    let addr: SocketAddr = addr_str.parse().map_err(|e| format!("{addr_str}: {e}"))?;

    let reader = BufReader::new(File::open(log_path).map_err(|e| format!("{log_path}: {e}"))?);
    let started = Instant::now();
    let mut batches = 0usize;
    let mut applied = 0u64;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("{log_path} line {}: {e}", lineno + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let (status, body) = vgod_serve::http::post(addr, "/graph/update", &line)?;
        if status != 200 {
            return Err(format!(
                "{log_path} line {}: server answered {status}: {body}",
                lineno + 1
            ));
        }
        batches += 1;
        applied += json_uint_field(&body, "applied").unwrap_or(0);
    }
    let elapsed = started.elapsed();
    println!(
        "replayed {batches} batch(es) ({applied} op(s) applied) in {:.1}ms",
        elapsed.as_secs_f64() * 1e3
    );

    if let Some(model) = args.get("model") {
        let (status, body) =
            vgod_serve::http::post(addr, "/score", &format!("{{\"model\":\"{model}\"}}"))?;
        if status != 200 {
            return Err(format!("/score {model}: server answered {status}: {body}"));
        }
        let version = json_uint_field(&body, "version").unwrap_or(0);
        let tag = "\"scores\":[";
        let start = body
            .find(tag)
            .ok_or_else(|| format!("/score {model}: malformed reply"))?
            + tag.len();
        let end = body[start..]
            .find(']')
            .ok_or_else(|| format!("/score {model}: malformed reply"))?
            + start;
        let raw = &body[start..end];
        let count = if raw.is_empty() {
            0
        } else {
            raw.split(',').count()
        };
        println!("served {model} v{version}: {count} score(s)");
        if let Some(scores_out) = args.get("scores-out") {
            let mut w =
                BufWriter::new(File::create(scores_out).map_err(|e| format!("{scores_out}: {e}"))?);
            if !raw.is_empty() {
                // Write the server's literal float tokens: no re-parse, no
                // re-format, so the file is byte-identical to what
                // `detect --scores` writes for the same values.
                for (u, tok) in raw.split(',').enumerate() {
                    writeln!(w, "{u} {tok}").map_err(|e| format!("{scores_out}: {e}"))?;
                }
            }
            w.flush().map_err(|e| format!("{scores_out}: {e}"))?;
            println!("wrote {scores_out}");
        }
    }
    Ok(())
}

/// `vgod eval`
pub fn eval(args: &Args) -> CmdResult {
    let scores_path = args.required("scores").map_err(|e| e.to_string())?;
    let truth_path = args.required("truth").map_err(|e| e.to_string())?;

    let mut r = BufReader::new(File::open(scores_path).map_err(|e| format!("{scores_path}: {e}"))?);
    let scores = files::read_scores(&mut r)?;
    let mut r = BufReader::new(File::open(truth_path).map_err(|e| format!("{truth_path}: {e}"))?);
    let truth = files::read_truth(&mut r)?;
    if truth.len() != scores.len() {
        return Err(format!(
            "score/truth size mismatch: {} scores vs {} nodes",
            scores.len(),
            truth.len()
        ));
    }
    let mask = truth.outlier_mask();
    let n_out = mask.iter().filter(|&&o| o).count();
    let at: usize = args
        .get_parsed_or("at", n_out.max(1))
        .map_err(|e| e.to_string())?;

    println!("nodes: {}, outliers: {n_out}", scores.len());
    println!("AUC               = {:.4}", auc(&scores, &mask));
    println!(
        "average precision = {:.4}",
        average_precision(&scores, &mask)
    );
    println!(
        "precision@{at:<5}    = {:.4}",
        precision_at_k(&scores, &mask, at)
    );
    println!(
        "recall@{at:<5}       = {:.4}",
        recall_at_k(&scores, &mask, at)
    );
    let s_mask = truth.structural_mask();
    let c_mask = truth.contextual_mask();
    if s_mask.iter().any(|&m| m) && c_mask.iter().any(|&m| m) {
        let a_s = vgod_eval::auc_subset(&scores, &s_mask);
        let a_c = vgod_eval::auc_subset(&scores, &c_mask);
        println!("AUC structural    = {a_s:.4}");
        println!("AUC contextual    = {a_c:.4}");
        println!("AucGap            = {:.4}", vgod_eval::auc_gap(a_s, a_c));
    }
    Ok(())
}

/// `vgod stats`
pub fn stats(args: &Args) -> CmdResult {
    let input = args.required("in").map_err(|e| e.to_string())?;
    let g = load(input)?;
    let deg = degree_stats(&g, None);
    println!("nodes      : {}", g.num_nodes());
    println!("edges      : {}", g.num_edges());
    println!("attributes : {}", g.num_attrs());
    println!("avg degree : {:.2}", g.avg_degree());
    println!("max degree : {}", deg.max);
    println!("median deg : {}", deg.median);
    if g.labels().is_some() {
        println!(
            "homophily  : {:.3} (edge), {:.3} (adjusted)",
            edge_homophily(&g),
            adjusted_homophily(&g)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("vgod_cli_{name}_{}", std::process::id()))
            .display()
            .to_string()
    }

    fn args_of(words: &[&str]) -> Args {
        // Same switch list as main.rs so tests drive the real flag grammar.
        Args::parse_with_switches(
            &words.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &["out-of-core", "verbose"],
        )
        .unwrap()
    }

    #[test]
    fn full_cli_pipeline_via_library() {
        let graph_path = tmp("graph.txt");
        let injected_path = tmp("injected.txt");
        let truth_path = tmp("truth.txt");
        let scores_path = tmp("scores.tsv");

        generate(&args_of(&[
            "--dataset",
            "cora",
            "--scale",
            "tiny",
            "--seed",
            "3",
            "--out",
            &graph_path,
        ]))
        .unwrap();
        inject(&args_of(&[
            "--in",
            &graph_path,
            "--out",
            &injected_path,
            "--truth",
            &truth_path,
            "--mode",
            "standard",
            "--p",
            "2",
            "--q",
            "8",
            "--k",
            "20",
            "--seed",
            "4",
        ]))
        .unwrap();
        detect(&args_of(&[
            "--in",
            &injected_path,
            "--scores",
            &scores_path,
            "--model",
            "degnorm",
        ]))
        .unwrap();
        eval(&args_of(&[
            "--scores",
            &scores_path,
            "--truth",
            &truth_path,
        ]))
        .unwrap();

        for p in [&graph_path, &injected_path, &truth_path, &scores_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn vbm_checkpoint_roundtrip_via_cli() {
        let graph_path = tmp("ck_graph.txt");
        let model_path = tmp("ck_model.txt");
        let s1 = tmp("ck_s1.tsv");
        let s2 = tmp("ck_s2.tsv");
        generate(&args_of(&[
            "--dataset",
            "citeseer",
            "--scale",
            "tiny",
            "--seed",
            "5",
            "--out",
            &graph_path,
        ]))
        .unwrap();
        detect(&args_of(&[
            "--in",
            &graph_path,
            "--scores",
            &s1,
            "--model",
            "vbm",
            "--epochs",
            "3",
            "--hidden",
            "8",
            "--save-model",
            &model_path,
        ]))
        .unwrap();
        detect(&args_of(&[
            "--in",
            &graph_path,
            "--scores",
            &s2,
            "--model",
            "vbm",
            "--load-model",
            &model_path,
        ]))
        .unwrap();
        let read = |p: &str| -> Vec<f32> {
            let mut r = std::io::BufReader::new(File::open(p).unwrap());
            crate::files::read_scores(&mut r).unwrap()
        };
        assert_eq!(
            read(&s1),
            read(&s2),
            "loaded checkpoint must reproduce scores"
        );
        for p in [&graph_path, &model_path, &s1, &s2] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn any_model_checkpoint_roundtrip_via_cli() {
        let graph_path = tmp("any_graph.txt");
        let model_path = tmp("any_model.txt");
        let s1 = tmp("any_s1.tsv");
        let s2 = tmp("any_s2.tsv");
        generate(&args_of(&[
            "--dataset",
            "cora",
            "--scale",
            "tiny",
            "--seed",
            "6",
            "--out",
            &graph_path,
        ]))
        .unwrap();
        detect(&args_of(&[
            "--in",
            &graph_path,
            "--scores",
            &s1,
            "--model",
            "dominant",
            "--epochs",
            "2",
            "--hidden",
            "4",
            "--save-model",
            &model_path,
        ]))
        .unwrap();
        // Loading does not need --model: the checkpoint self-describes.
        detect(&args_of(&[
            "--in",
            &graph_path,
            "--scores",
            &s2,
            "--load-model",
            &model_path,
        ]))
        .unwrap();
        let read = |p: &str| -> Vec<f32> {
            let mut r = std::io::BufReader::new(File::open(p).unwrap());
            crate::files::read_scores(&mut r).unwrap()
        };
        assert_eq!(read(&s1), read(&s2));
        // A kind mismatch against an explicit --model is an error.
        assert!(detect(&args_of(&[
            "--in",
            &graph_path,
            "--scores",
            &s2,
            "--model",
            "cola",
            "--load-model",
            &model_path,
        ]))
        .is_err());
        for p in [&graph_path, &model_path, &s1, &s2] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn serve_subcommand_round_trip() {
        let graph_path = tmp("srv_graph.txt");
        let models_dir = tmp("srv_models");
        let addr_file = tmp("srv_addr.txt");
        let model_path = format!("{models_dir}/degnorm.ckpt");
        let _ = std::fs::remove_dir_all(&models_dir);
        std::fs::create_dir_all(&models_dir).unwrap();
        generate(&args_of(&[
            "--dataset",
            "cora",
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--out",
            &graph_path,
        ]))
        .unwrap();
        detect(&args_of(&[
            "--in",
            &graph_path,
            "--scores",
            &tmp("srv_scores.tsv"),
            "--model",
            "degnorm",
            "--save-model",
            &model_path,
        ]))
        .unwrap();

        let serve_args: Vec<String> = [
            "--models",
            &models_dir,
            "--in",
            &graph_path,
            "--port",
            "0",
            "--replicas",
            "2",
            "--reload-ms",
            "200",
            "--addr-file",
            &addr_file,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = std::thread::spawn(move || {
            serve(&Args::parse_with_switches(&serve_args, &[]).unwrap())
        });

        // Wait for the address file, then talk to the server.
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(addr) = text.trim().parse::<std::net::SocketAddr>() {
                    break addr;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let (status, _) = vgod_serve::http::get(addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        let (status, body) =
            vgod_serve::http::post(addr, "/score", r#"{"model":"degnorm","nodes":[0]}"#).unwrap();
        assert_eq!(status, 200, "{body}");
        let (status, _) = vgod_serve::http::post(addr, "/shutdown", "").unwrap();
        assert_eq!(status, 200);
        server.join().unwrap().unwrap();

        let _ = std::fs::remove_dir_all(&models_dir);
        for p in [&graph_path, &addr_file, &tmp("srv_scores.tsv")] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn serve_out_of_core_round_trip() {
        let store_path = tmp("srvooc.vgodstore");
        let models_dir = tmp("srvooc_models");
        let addr_file = tmp("srvooc_addr.txt");
        let model_path = format!("{models_dir}/degnorm.ckpt");
        let _ = std::fs::remove_dir_all(&models_dir);
        std::fs::create_dir_all(&models_dir).unwrap();
        store(&args_of(&[
            "--synth-nodes",
            "400",
            "--seed",
            "5",
            "--out",
            &store_path,
        ]))
        .unwrap();
        detect(&args_of(&[
            "--in",
            &store_path,
            "--scores",
            &tmp("srvooc_scores.tsv"),
            "--model",
            "degnorm",
            "--out-of-core",
            "--save-model",
            &model_path,
        ]))
        .unwrap();

        // All replicas share one demand-paged store (forced small budget +
        // a threshold below n so scoring runs the sampled batch pipeline).
        let serve_args: Vec<String> = [
            "--models",
            &models_dir,
            "--in",
            &store_path,
            "--port",
            "0",
            "--replicas",
            "2",
            "--out-of-core",
            "--mem-budget",
            "1M",
            "--threshold",
            "100",
            "--ooc-threads",
            "2",
            "--addr-file",
            &addr_file,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = std::thread::spawn(move || {
            serve(&Args::parse_with_switches(&serve_args, &["out-of-core"]).unwrap())
        });

        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(addr) = text.trim().parse::<std::net::SocketAddr>() {
                    break addr;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let (status, _) = vgod_serve::http::get(addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        let (status, body) =
            vgod_serve::http::post(addr, "/score", r#"{"model":"degnorm","nodes":[0,399]}"#)
                .unwrap();
        assert_eq!(status, 200, "{body}");
        let (status, body) = vgod_serve::http::get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(
            body.contains("\"hits\":"),
            "metrics must surface cache hits: {body}"
        );
        let (status, _) = vgod_serve::http::post(addr, "/shutdown", "").unwrap();
        assert_eq!(status, 200);
        server.join().unwrap().unwrap();

        let _ = std::fs::remove_dir_all(&models_dir);
        for p in [&store_path, &addr_file, &tmp("srvooc_scores.tsv")] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn out_of_core_pipeline_synth_detect_eval() {
        let store_path = tmp("ooc.vgodstore");
        let truth_path = tmp("ooc_truth.txt");
        let scores_path = tmp("ooc_scores.tsv");
        store(&args_of(&[
            "--synth-nodes",
            "600",
            "--seed",
            "3",
            "--out",
            &store_path,
            "--truth",
            &truth_path,
        ]))
        .unwrap();
        store(&args_of(&["--info", &store_path])).unwrap();
        // Force the sampled path with a tiny threshold and budget.
        detect(&args_of(&[
            "--in",
            &store_path,
            "--scores",
            &scores_path,
            "--model",
            "degnorm",
            "--out-of-core",
            "--mem-budget",
            "1M",
            "--threshold",
            "100",
            "--verbose",
        ]))
        .unwrap();
        eval(&args_of(&[
            "--scores",
            &scores_path,
            "--truth",
            &truth_path,
        ]))
        .unwrap();
        // The concurrent pipeline (parallel batches) is an
        // optimisation, not a different algorithm: same scores, any policy.
        let scores_par = tmp("ooc_scores_par.tsv");
        detect(&args_of(&[
            "--in",
            &store_path,
            "--scores",
            &scores_par,
            "--model",
            "degnorm",
            "--out-of-core",
            "--mem-budget",
            "1M",
            "--threshold",
            "100",
            "--ooc-threads",
            "4",
            "--cache-policy",
            "lru",
        ]))
        .unwrap();
        let read = |p: &str| -> Vec<f32> {
            let mut r = std::io::BufReader::new(File::open(p).unwrap());
            crate::files::read_scores(&mut r).unwrap()
        };
        assert_eq!(read(&scores_path), read(&scores_par));
        for p in [&store_path, &truth_path, &scores_path, &scores_par] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn converted_store_matches_in_memory_below_threshold() {
        let graph_path = tmp("conv_graph.txt");
        let store_path = tmp("conv.vgodstore");
        let s_mem = tmp("conv_mem.tsv");
        let s_ooc = tmp("conv_ooc.tsv");
        generate(&args_of(&[
            "--dataset",
            "cora",
            "--scale",
            "tiny",
            "--seed",
            "8",
            "--out",
            &graph_path,
        ]))
        .unwrap();
        store(&args_of(&["--in", &graph_path, "--out", &store_path])).unwrap();
        detect(&args_of(&[
            "--in",
            &graph_path,
            "--scores",
            &s_mem,
            "--model",
            "degnorm",
        ]))
        .unwrap();
        // Below the sampling threshold the store path materialises the full
        // graph and must reproduce the in-memory scores bit-for-bit.
        detect(&args_of(&[
            "--in",
            &store_path,
            "--scores",
            &s_ooc,
            "--model",
            "degnorm",
            "--out-of-core",
        ]))
        .unwrap();
        let read = |p: &str| -> Vec<f32> {
            let mut r = std::io::BufReader::new(File::open(p).unwrap());
            crate::files::read_scores(&mut r).unwrap()
        };
        assert_eq!(read(&s_mem), read(&s_ooc));
        for p in [&graph_path, &store_path, &s_mem, &s_ooc] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn unknown_inputs_are_rejected() {
        assert!(parse_dataset("imdb").is_err());
        assert!(generate(&args_of(&[
            "--dataset",
            "cora",
            "--out",
            "/nonexistent-dir/x"
        ]))
        .is_err());
        assert!(detect(&args_of(&[
            "--in",
            "/no/such/file",
            "--scores",
            "/tmp/x",
            "--model",
            "vgod"
        ]))
        .is_err());
        assert!(inject(&args_of(&[
            "--in",
            "/no/such/file",
            "--out",
            "/tmp/a",
            "--truth",
            "/tmp/b",
            "--mode",
            "bogus"
        ]))
        .is_err());
    }
}
