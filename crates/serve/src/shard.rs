//! Distributed sharded scoring: one worker process per partition shard,
//! and a coordinator that scatter-gathers score requests across them.
//!
//! The partitioner ([`vgod_graph::partition_store`]) splits the deployment
//! store into contiguous node ranges, each saved as a self-contained slice
//! plus a halo manifest of the ghost rows that cross the cut. A **worker**
//! ([`run_shard_worker`]) opens its slice as a [`ShardStore`], loads the
//! same checkpoint directory the coordinator serves, and answers
//! `POST /shard/score` with the *raw per-range channels* of
//! [`OutlierDetector::score_store_range`] — structural/contextual columns
//! plus the [`ScoreMerge`] rule naming the global recombination.
//!
//! The **coordinator** ([`Coordinator`]) mirrors the [`Engine`]'s submit
//! surface (`try_submit_with` / `try_submit` / `models` / `metrics`), so
//! the HTTP fronts in [`crate::server`] and [`crate::epoll`] drive either
//! backend unchanged. Each request scatters to every shard over keep-alive
//! loopback connections, reassembles the ranges with
//! [`merge_range_scores`], and answers from the merged full-graph vector —
//! byte-identical to single-process scoring because the merge applies the
//! detector's own global combination (VGOD Eq. 19 / DegNorm Eq. 20) over
//! the full-length concatenated channels.
//!
//! Failure semantics: a dead worker (connect refused, EOF mid-response)
//! fails the request with [`ScoreError::ShardDown`] — surfaced as `503`
//! with a `shard_down` error body — and is logged to stderr. Models are
//! loaded once at startup on both sides; sharded serving does **not** hot
//! reload (every model stays at version 1).
//!
//! [`OutlierDetector::score_store_range`]: vgod_eval::OutlierDetector::score_store_range
//! [`ScoreMerge`]: vgod_eval::ScoreMerge
//! [`Engine`]: crate::Engine

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vgod_eval::{merge_range_scores, OutlierDetector, RangeScores, ScoreMerge, Scores};
use vgod_graph::{PartitionManifest, SamplingConfig, ShardMeta, ShardStore, StoreOptions};

use crate::engine::{ReplyFn, ScoreError, ScoreReply, SubmitError};
use crate::http::{self, read_request, write_response};
use crate::json::{escape, Json};
use crate::metrics::Metrics;
use crate::registry::{LookupError, ModelInfo, Registry};

// ---------------------------------------------------------------------------
// Worker

/// Everything a shard worker needs to start serving its slice.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Partition directory (manifest + slices + halos).
    pub partition_dir: PathBuf,
    /// Which shard of the partition this worker owns.
    pub shard: usize,
    /// Checkpoint directory — must hold the same files the coordinator
    /// serves (the coordinator fits/saves, workers only load).
    pub models_dir: PathBuf,
    /// Bind address (port `0` for ephemeral).
    pub bind: String,
    /// Byte budget for the slice's demand-paged cache.
    pub budget: usize,
}

/// A running shard worker: bound address plus the accept-loop thread.
pub struct WorkerHandle {
    addr: SocketAddr,
    state: Arc<WorkerState>,
    join: Mutex<Option<std::thread::JoinHandle<()>>>,
}

struct WorkerState {
    store: ShardStore,
    sampling: SamplingConfig,
    snapshot: Arc<crate::registry::Snapshot>,
    shard: usize,
    lo: u32,
    hi: u32,
    /// Serialises scoring — a worker owns one shard and one core's worth
    /// of work; concurrent heavy passes would only thrash the cache.
    score_lock: Mutex<()>,
    requests: AtomicU64,
    errors: AtomicU64,
    shutdown: AtomicBool,
    addr: Mutex<Option<SocketAddr>>,
}

/// Start a shard worker: open the slice, load the checkpoints, bind, and
/// serve until `POST /shutdown`.
pub fn run_shard_worker(cfg: &WorkerConfig) -> Result<WorkerHandle, String> {
    let store = ShardStore::open(&cfg.partition_dir, cfg.shard, StoreOptions::new(cfg.budget))?;
    let sampling = store.sampling();
    let (lo, hi) = store.owned_range();
    let registry = Registry::open(&cfg.models_dir)?;
    let snapshot = registry.snapshot();
    let listener = TcpListener::bind(&cfg.bind).map_err(|e| format!("bind {}: {e}", cfg.bind))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let state = Arc::new(WorkerState {
        store,
        sampling,
        snapshot,
        shard: cfg.shard,
        lo,
        hi,
        score_lock: Mutex::new(()),
        requests: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        addr: Mutex::new(Some(addr)),
    });
    let loop_state = Arc::clone(&state);
    let join = std::thread::Builder::new()
        .name(format!("vgod-shard-{}", cfg.shard))
        .spawn(move || worker_accept_loop(listener, loop_state))
        .map_err(|e| format!("spawning shard accept loop: {e}"))?;
    Ok(WorkerHandle {
        addr,
        state,
        join: Mutex::new(Some(join)),
    })
}

impl WorkerHandle {
    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Trigger the same stop as `POST /shutdown`. Idempotent.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Block until the accept loop has exited.
    pub fn join(&self) {
        if let Some(handle) = self.join.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

impl WorkerState {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Poke the accept loop awake so it notices the flag.
        if let Some(addr) = *self.addr.lock().unwrap() {
            let _ = TcpStream::connect(addr);
        }
    }
}

fn worker_accept_loop(listener: TcpListener, state: Arc<WorkerState>) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let conn_state = Arc::clone(&state);
        let _ = std::thread::Builder::new()
            .name("vgod-shard-conn".into())
            .spawn(move || worker_connection(stream, conn_state));
    }
}

fn worker_connection(stream: TcpStream, state: Arc<WorkerState>) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut writer = stream;
    loop {
        match read_request(&mut reader) {
            Ok(None) => return,
            Ok(Some((method, path, body, keep_alive))) => {
                // A shut-down worker is dead to its peers: drop the request
                // unanswered (the coordinator sees EOF → ShardDown), instead
                // of scoring from a half-stopped process.
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let (status, response) = worker_respond(&method, &path, &body, &state);
                let keep = keep_alive && !state.shutdown.load(Ordering::SeqCst);
                if write_response(&mut writer, status, &response, keep).is_err() || !keep {
                    return;
                }
            }
            Err((status, message)) => {
                let body = format!("{{\"error\":\"{}\"}}", escape(&message));
                let _ = write_response(&mut writer, status, &body, false);
                return;
            }
        }
    }
}

fn worker_respond(method: &str, path: &str, body: &[u8], state: &WorkerState) -> (u16, String) {
    match (method, path) {
        ("GET", "/healthz") => (
            200,
            format!("{{\"status\":\"ok\",\"shard\":{}}}", state.shard),
        ),
        ("GET", "/metrics") => {
            let meta = state.store.meta();
            (
                200,
                format!(
                    "{{\"shard\":{},\"lo\":{},\"hi\":{},\"ghosts\":{},\"cross_edges\":{},\
                     \"halo_bytes\":{},\"requests\":{},\"errors\":{}}}",
                    state.shard,
                    state.lo,
                    state.hi,
                    meta.ghosts,
                    meta.cross_edges,
                    meta.halo_bytes,
                    state.requests.load(Ordering::Relaxed),
                    state.errors.load(Ordering::Relaxed),
                ),
            )
        }
        ("POST", "/shutdown") => {
            state.begin_shutdown();
            (200, "{\"status\":\"shutting down\"}".into())
        }
        ("POST", "/shard/score") => worker_score(body, state),
        ("GET" | "POST", _) => (404, "{\"error\":\"no such endpoint\"}".into()),
        _ => (405, "{\"error\":\"method not allowed\"}".into()),
    }
}

fn worker_score(body: &[u8], state: &WorkerState) -> (u16, String) {
    state.requests.fetch_add(1, Ordering::Relaxed);
    let (model, version) = match parse_shard_score_body(body) {
        Ok(parts) => parts,
        Err(response) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            return response;
        }
    };
    let (detector, loaded) = match state.snapshot.get(&model, version) {
        Ok(found) => found,
        Err(e) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            return lookup_error_response(&e);
        }
    };
    let range = {
        // One scoring pass at a time; the arena scope recycles tensor
        // buffers across requests on this connection thread.
        let _serial = state.score_lock.lock().unwrap();
        vgod_tensor::arena::scope(|| {
            detector.score_store_range(&state.store, &state.sampling, state.lo, state.hi)
        })
    };
    (
        200,
        render_range_response(&model, loaded, state.shard, state.lo, state.hi, &range),
    )
}

/// Validate a `/shard/score` body: `{"model": NAME, "version": V?}`.
fn parse_shard_score_body(body: &[u8]) -> Result<(String, Option<u64>), (u16, String)> {
    let parsed = std::str::from_utf8(body)
        .map_err(|e| e.to_string())
        .and_then(Json::parse)
        .map_err(|e| {
            (
                400u16,
                format!("{{\"error\":\"invalid JSON: {}\"}}", escape(&e)),
            )
        })?;
    let Some(model) = parsed.get("model").and_then(Json::as_str) else {
        return Err((400, "{\"error\":\"missing \\\"model\\\"\"}".into()));
    };
    let version = match parsed.get("version") {
        None | Some(Json::Null) => None,
        Some(v) => match v.as_u64() {
            Some(version) => Some(version),
            None => {
                return Err((
                    400,
                    "{\"error\":\"\\\"version\\\" must be an integer\"}".into(),
                ))
            }
        },
    };
    Ok((model.to_string(), version))
}

fn lookup_error_response(e: &LookupError) -> (u16, String) {
    match e {
        LookupError::UnknownModel(_) => (
            404,
            format!(
                "{{\"error\":\"{}\",\"code\":\"unknown_model\"}}",
                escape(&e.to_string())
            ),
        ),
        LookupError::VersionMismatch { loaded, .. } => (
            409,
            format!(
                "{{\"error\":\"{}\",\"code\":\"version_mismatch\",\"loaded\":{loaded}}}",
                escape(&e.to_string())
            ),
        ),
    }
}

fn render_floats(values: &[f32]) -> String {
    // `f32`'s `Display` is the shortest round-trip rendering; parsing it
    // back (even through an f64 intermediate) recovers the exact bits,
    // which is what keeps sharded scores byte-identical end to end.
    let rendered: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    rendered.join(",")
}

fn render_channel(channel: &Option<Vec<f32>>) -> String {
    match channel {
        Some(values) => format!("[{}]", render_floats(values)),
        None => "null".into(),
    }
}

fn render_range_response(
    model: &str,
    version: u64,
    shard: usize,
    lo: u32,
    hi: u32,
    range: &RangeScores,
) -> String {
    format!(
        "{{\"model\":\"{}\",\"version\":{version},\"shard\":{shard},\"lo\":{lo},\"hi\":{hi},\
         \"merge\":\"{}\",\"combined\":[{}],\"structural\":{},\"contextual\":{}}}",
        escape(model),
        range.merge.wire_name(),
        render_floats(&range.scores.combined),
        render_channel(&range.scores.structural),
        render_channel(&range.scores.contextual),
    )
}

// ---------------------------------------------------------------------------
// Coordinator

/// Where one shard worker listens, plus its partition bookkeeping.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// The worker's bound address.
    pub addr: SocketAddr,
    /// Partition metadata for this shard (range, ghost/halo counters).
    pub meta: ShardMeta,
}

/// Per-shard scatter counters, rendered into the coordinator's
/// `GET /metrics`.
#[derive(Debug, Default)]
struct ShardStat {
    requests: AtomicU64,
    errors: AtomicU64,
    bytes_rx: AtomicU64,
    last_us: AtomicU64,
    total_us: AtomicU64,
}

struct CoordRequest {
    model: String,
    version: Option<u64>,
    nodes: Option<Vec<u32>>,
    reply: ReplyFn,
    enqueued: Instant,
}

enum CoordMsg {
    Score(CoordRequest),
    Shutdown,
}

/// The scatter-gather front over a fleet of shard workers.
///
/// Mirrors the submit surface of [`crate::Engine`] so the HTTP fronts can
/// drive either backend: requests queue on a bounded channel (full ⇒
/// `503`), a single merge thread scatters each one to every shard over
/// persistent keep-alive connections, reassembles the per-range channels
/// with [`merge_range_scores`], and replies through the same callback
/// contract. Merged full-graph vectors are cached per model (models are
/// static in sharded mode), so repeat queries answer without re-scattering.
pub struct Coordinator {
    tx: SyncSender<CoordMsg>,
    shutting_down: AtomicBool,
    metrics: Arc<Metrics>,
    num_nodes: usize,
    infos: Vec<ModelInfo>,
    manifest: PartitionManifest,
    shards: Vec<ShardSpec>,
    stats: Arc<Vec<ShardStat>>,
    joins: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Coordinator {
    /// Start the coordinator: load the model catalogue from `models_dir`
    /// (the same directory every worker loaded), wait for each worker to
    /// answer `/healthz`, and spawn the merge thread.
    pub fn start(
        manifest: PartitionManifest,
        shards: Vec<ShardSpec>,
        models_dir: &std::path::Path,
        queue_capacity: usize,
        metrics: Arc<Metrics>,
    ) -> Result<Coordinator, String> {
        if shards.len() != manifest.shards.len() {
            return Err(format!(
                "partition has {} shards but {} worker addresses were given",
                manifest.shards.len(),
                shards.len()
            ));
        }
        let registry = Registry::open(models_dir)?;
        let infos = registry.infos();
        for spec in &shards {
            wait_healthy(spec)?;
        }
        metrics.init_replicas(1);
        let stats: Arc<Vec<ShardStat>> =
            Arc::new((0..shards.len()).map(|_| ShardStat::default()).collect());
        let (tx, rx) = mpsc::sync_channel(queue_capacity.max(1));
        let merge_shards = shards.clone();
        let merge_stats = Arc::clone(&stats);
        let merge_metrics = Arc::clone(&metrics);
        let num_nodes = manifest.num_nodes;
        let join = std::thread::Builder::new()
            .name("vgod-coord-merge".into())
            .spawn(move || merge_main(rx, merge_shards, merge_stats, merge_metrics, num_nodes))
            .map_err(|e| format!("spawning merge thread: {e}"))?;
        Ok(Coordinator {
            tx,
            shutting_down: AtomicBool::new(false),
            metrics,
            num_nodes,
            infos,
            manifest,
            shards,
            stats,
            joins: Mutex::new(vec![join]),
        })
    }

    /// Queue a scoring request with a reply callback (runs on the merge
    /// thread). [`SubmitError`] if the queue is full or draining.
    pub fn try_submit_with(
        &self,
        model: String,
        version: Option<u64>,
        nodes: Option<Vec<u32>>,
        reply: ReplyFn,
    ) -> Result<(), SubmitError> {
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let msg = CoordMsg::Score(CoordRequest {
            model,
            version,
            nodes,
            reply,
            enqueued: Instant::now(),
        });
        match self.tx.try_send(msg) {
            Ok(()) => {
                self.metrics.record_request();
                self.metrics.queue_inc(0);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.metrics.record_rejected();
                Err(SubmitError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::ShuttingDown),
        }
    }

    /// [`Coordinator::try_submit_with`] wrapped in a channel, for blocking
    /// callers.
    pub fn try_submit(
        &self,
        model: String,
        version: Option<u64>,
        nodes: Option<Vec<u32>>,
    ) -> Result<mpsc::Receiver<Result<ScoreReply, ScoreError>>, SubmitError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.try_submit_with(
            model,
            version,
            nodes,
            Box::new(move |result| {
                let _ = reply_tx.send(result);
            }),
        )?;
        Ok(reply_rx)
    }

    /// Registered models (static — no hot reload in sharded mode).
    pub fn models(&self) -> Vec<ModelInfo> {
        self.infos.clone()
    }

    /// Global node count of the partitioned deployment graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// One merge thread answers everything.
    pub fn replicas(&self) -> usize {
        1
    }

    /// The coordinator's metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The `GET /metrics` body: engine-compatible counters plus the
    /// partition summary and per-shard scatter statistics.
    pub fn render_metrics_json(&self) -> String {
        let base = self.metrics.snapshot().render_json();
        let shard_rows: Vec<String> = self
            .shards
            .iter()
            .zip(self.stats.iter())
            .map(|(spec, stat)| {
                let requests = stat.requests.load(Ordering::Relaxed);
                let total_us = stat.total_us.load(Ordering::Relaxed);
                let avg_us = total_us.checked_div(requests).unwrap_or(0);
                format!(
                    "{{\"shard\":{},\"addr\":\"{}\",\"lo\":{},\"hi\":{},\"ghosts\":{},\
                     \"cross_edges\":{},\"halo_bytes\":{},\"requests\":{requests},\
                     \"errors\":{},\"bytes_rx\":{},\"last_us\":{},\"avg_us\":{avg_us}}}",
                    spec.meta.index,
                    spec.addr,
                    spec.meta.lo,
                    spec.meta.hi,
                    spec.meta.ghosts,
                    spec.meta.cross_edges,
                    spec.meta.halo_bytes,
                    stat.errors.load(Ordering::Relaxed),
                    stat.bytes_rx.load(Ordering::Relaxed),
                    stat.last_us.load(Ordering::Relaxed),
                )
            })
            .collect();
        let mode = match self.manifest.mode {
            vgod_graph::PartitionMode::FullCopy => "full-copy",
            vgod_graph::PartitionMode::Sliced => "sliced",
        };
        format!(
            "{},\"partition\":{{\"mode\":\"{mode}\",\"shards\":{},\"ghosts\":{},\
             \"cross_edges\":{},\"halo_bytes\":{}}},\"shards\":[{}]}}",
            &base[..base.len() - 1],
            self.shards.len(),
            self.manifest.total_ghosts(),
            self.manifest.total_cross_edges(),
            self.manifest.total_halo_bytes(),
            shard_rows.join(","),
        )
    }

    /// Begin graceful shutdown: refuse new submissions, drain the queue,
    /// then ask every worker to stop. Idempotent.
    pub fn shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.tx.send(CoordMsg::Shutdown);
        for spec in &self.shards {
            let _ = http::post(spec.addr, "/shutdown", "");
        }
    }

    /// Wait for the merge thread to exit (call after
    /// [`Coordinator::shutdown`]).
    pub fn join(&self) {
        let joins: Vec<_> = self.joins.lock().unwrap().drain(..).collect();
        for join in joins {
            let _ = join.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

/// Poll a worker's `/healthz` until it answers (or a few seconds pass) —
/// workers bind before loading finishes only when spawned in-process, but
/// separate worker *processes* report their address only after binding,
/// so a short retry loop absorbs startup races either way.
fn wait_healthy(spec: &ShardSpec) -> Result<(), String> {
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    loop {
        match http::get(spec.addr, "/healthz") {
            Ok((200, _)) => return Ok(()),
            Ok((status, body)) => {
                return Err(format!(
                    "shard {} at {}: unhealthy ({status}: {body})",
                    spec.meta.index, spec.addr
                ))
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("shard {} at {}: {e}", spec.meta.index, spec.addr));
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    }
}

fn merge_main(
    rx: mpsc::Receiver<CoordMsg>,
    shards: Vec<ShardSpec>,
    stats: Arc<Vec<ShardStat>>,
    metrics: Arc<Metrics>,
    num_nodes: usize,
) {
    // Persistent keep-alive connections, one per shard; a slot empties when
    // its transport fails and reconnects on the next scatter.
    let mut clients: Vec<Option<http::Client>> = (0..shards.len()).map(|_| None).collect();
    // Merged full-graph vectors per model — models are static in sharded
    // mode, so a cached vector stays valid for the server's lifetime.
    let mut cache: std::collections::HashMap<String, (u64, Arc<Vec<f32>>)> =
        std::collections::HashMap::new();
    loop {
        match rx.recv() {
            Ok(CoordMsg::Score(req)) => {
                metrics.record_batch(1);
                let result =
                    score_scattered(&req, &shards, &mut clients, &stats, num_nodes, &mut cache);
                if result.is_err() {
                    metrics.record_error();
                }
                metrics.record_latency_us(req.enqueued.elapsed().as_micros() as u64);
                metrics.queue_dec(0);
                (req.reply)(result);
            }
            Ok(CoordMsg::Shutdown) | Err(_) => return,
        }
    }
}

fn score_scattered(
    req: &CoordRequest,
    shards: &[ShardSpec],
    clients: &mut [Option<http::Client>],
    stats: &[ShardStat],
    num_nodes: usize,
    cache: &mut std::collections::HashMap<String, (u64, Arc<Vec<f32>>)>,
) -> Result<ScoreReply, ScoreError> {
    if let Some(nodes) = &req.nodes {
        if let Some(&bad) = nodes.iter().find(|&&u| u as usize >= num_nodes) {
            return Err(ScoreError::NodeOutOfRange {
                node: bad,
                num_nodes,
            });
        }
    }
    let (version, combined) = match cache.get(&req.model) {
        Some((loaded, merged)) => {
            if let Some(requested) = req.version {
                if requested != *loaded {
                    return Err(ScoreError::Lookup(LookupError::VersionMismatch {
                        name: req.model.clone(),
                        requested,
                        loaded: *loaded,
                    }));
                }
            }
            (*loaded, Arc::clone(merged))
        }
        None => {
            let (version, merged) =
                scatter_gather(&req.model, req.version, shards, clients, stats, num_nodes)?;
            let merged = Arc::new(merged);
            cache.insert(req.model.clone(), (version, Arc::clone(&merged)));
            (version, merged)
        }
    };
    let selected = match &req.nodes {
        Some(nodes) => Arc::new(
            nodes
                .iter()
                .map(|&u| combined[u as usize])
                .collect::<Vec<f32>>(),
        ),
        None => combined,
    };
    Ok(ScoreReply {
        model: req.model.clone(),
        version,
        nodes: req.nodes.clone(),
        scores: selected,
    })
}

/// One scatter: every shard scores its range concurrently, the gathered
/// [`RangeScores`] reassemble into the global combined vector.
fn scatter_gather(
    model: &str,
    version: Option<u64>,
    shards: &[ShardSpec],
    clients: &mut [Option<http::Client>],
    stats: &[ShardStat],
    num_nodes: usize,
) -> Result<(u64, Vec<f32>), ScoreError> {
    let body = match version {
        Some(v) => format!("{{\"model\":\"{}\",\"version\":{v}}}", escape(model)),
        None => format!("{{\"model\":\"{}\"}}", escape(model)),
    };
    let gathered: Vec<Result<(u64, RangeScores), ScoreError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .zip(clients.iter_mut())
            .enumerate()
            .map(|(index, (spec, slot))| {
                let body = &body;
                scope.spawn(move || fetch_shard(index, spec, slot, body, &stats[index]))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(index, handle)| {
                handle.join().unwrap_or_else(|_| {
                    Err(ScoreError::ShardDown {
                        shard: index,
                        cause: "scatter thread panicked".into(),
                    })
                })
            })
            .collect()
    });
    let mut parts: Vec<RangeScores> = Vec::with_capacity(gathered.len());
    let mut version = 0u64;
    for (index, result) in gathered.into_iter().enumerate() {
        // Ranges that disagree with the first would trip the merge's
        // asserts and kill the merge thread: fail the request instead.
        let result = result.and_then(|(loaded, range)| {
            parts
                .first()
                .map_or(Ok(()), |first| agrees_with(&range, first))
                .map(|()| (loaded, range))
                .map_err(|e| ScoreError::ShardDown {
                    shard: index,
                    cause: format!("bad payload: {e}"),
                })
        });
        match result {
            Ok((loaded, range)) => {
                version = loaded;
                parts.push(range);
            }
            Err(e) => {
                if let ScoreError::ShardDown { shard, cause } = &e {
                    eprintln!("vgod-serve: shard {shard} down: {cause}");
                }
                return Err(e);
            }
        }
    }
    let merged = merge_range_scores(num_nodes, parts);
    Ok((version, merged.combined))
}

/// One shard's leg of a scatter: reuse (or rebuild) the keep-alive
/// connection, post the score request, parse the range payload. Transport
/// failures empty the connection slot and surface as
/// [`ScoreError::ShardDown`].
fn fetch_shard(
    index: usize,
    spec: &ShardSpec,
    slot: &mut Option<http::Client>,
    body: &str,
    stat: &ShardStat,
) -> Result<(u64, RangeScores), ScoreError> {
    let started = Instant::now();
    stat.requests.fetch_add(1, Ordering::Relaxed);
    let shard_down = |cause: String| ScoreError::ShardDown {
        shard: index,
        cause,
    };
    let result = (|| {
        if slot.is_none() {
            *slot = Some(http::Client::connect(spec.addr).map_err(&shard_down)?);
        }
        let client = slot.as_mut().unwrap();
        let (status, payload) =
            client
                .request("POST", "/shard/score", Some(body))
                .map_err(|e| {
                    // The connection is in an unknown state — rebuild next time.
                    *slot = None;
                    shard_down(e)
                })?;
        stat.bytes_rx
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        match status {
            200 => parse_range_payload(&payload)
                .and_then(|(version, range)| {
                    check_range_rows(&range, &spec.meta).map(|()| (version, range))
                })
                .map_err(|e| shard_down(format!("bad payload: {e}"))),
            404 | 409 => Err(parse_shard_lookup_error(&payload, status)),
            other => Err(shard_down(format!("shard answered {other}: {payload}"))),
        }
    })();
    let us = started.elapsed().as_micros() as u64;
    stat.last_us.store(us, Ordering::Relaxed);
    stat.total_us.fetch_add(us, Ordering::Relaxed);
    if result.is_err() {
        stat.errors.fetch_add(1, Ordering::Relaxed);
    }
    result
}

/// A shard's range payload must hold exactly one row per owned node in
/// every channel it carries, and carry both components when its merge rule
/// recombines them.
fn check_range_rows(range: &RangeScores, meta: &ShardMeta) -> Result<(), String> {
    let rows = (meta.hi - meta.lo) as usize;
    let s = &range.scores;
    for (name, channel) in [
        ("combined", Some(&s.combined)),
        ("structural", s.structural.as_ref()),
        ("contextual", s.contextual.as_ref()),
    ] {
        if let Some(len) = channel.map(Vec::len).filter(|&len| len != rows) {
            return Err(format!("{name} has {len} rows, shard owns {rows}"));
        }
    }
    if range.merge != ScoreMerge::Concat && (s.structural.is_none() || s.contextual.is_none()) {
        return Err(format!(
            "merge rule {} without both component channels",
            range.merge.wire_name()
        ));
    }
    Ok(())
}

/// Ranges of one scatter must share the merge rule and channel presence.
fn agrees_with(range: &RangeScores, first: &RangeScores) -> Result<(), String> {
    if range.merge != first.merge {
        return Err(format!(
            "merge rule {} disagrees with shard 0's {}",
            range.merge.wire_name(),
            first.merge.wire_name()
        ));
    }
    let presence = |s: &Scores| (s.structural.is_some(), s.contextual.is_some());
    if presence(&range.scores) != presence(&first.scores) {
        return Err("component channels disagree with shard 0's".into());
    }
    Ok(())
}

fn parse_shard_lookup_error(payload: &str, status: u16) -> ScoreError {
    let parsed = Json::parse(payload).ok();
    let message = parsed
        .as_ref()
        .and_then(|v| v.get("error"))
        .and_then(Json::as_str)
        .unwrap_or("lookup failed")
        .to_string();
    if status == 409 {
        // The worker reports which version it actually has; surface the
        // same conflict the engine would.
        let loaded = parsed
            .as_ref()
            .and_then(|v| v.get("loaded"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        return ScoreError::Lookup(LookupError::VersionMismatch {
            name: message,
            requested: 0,
            loaded,
        });
    }
    ScoreError::Lookup(LookupError::UnknownModel(message))
}

fn parse_f32_array(value: &Json) -> Result<Vec<f32>, String> {
    let items = value.as_arr().ok_or("expected an array of scores")?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        // f32 -> Display -> f64 -> f32 is exact (safe double rounding:
        // f64 carries more than 2x + 2 the precision of f32).
        let v = item.as_f64().ok_or("expected a number")?;
        out.push(v as f32);
    }
    Ok(out)
}

fn parse_optional_channel(value: Option<&Json>) -> Result<Option<Vec<f32>>, String> {
    match value {
        None | Some(Json::Null) => Ok(None),
        Some(v) => parse_f32_array(v).map(Some),
    }
}

fn parse_range_payload(payload: &str) -> Result<(u64, RangeScores), String> {
    let v = Json::parse(payload)?;
    let version = v
        .get("version")
        .and_then(Json::as_u64)
        .ok_or("missing version")?;
    let merge_name = v
        .get("merge")
        .and_then(Json::as_str)
        .ok_or("missing merge rule")?;
    let merge = ScoreMerge::parse_wire(merge_name)?;
    let combined = parse_f32_array(v.get("combined").ok_or("missing combined")?)?;
    let structural = parse_optional_channel(v.get("structural"))?;
    let contextual = parse_optional_channel(v.get("contextual"))?;
    Ok((
        version,
        RangeScores {
            scores: Scores {
                combined,
                structural,
                contextual,
            },
            merge,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_payload_roundtrips_bit_exact() {
        let range = RangeScores {
            scores: Scores {
                combined: vec![0.1, -2.5e-8, f32::MIN_POSITIVE, 3.4e38, 0.0],
                structural: Some(vec![1.5, 2.25]),
                contextual: None,
            },
            merge: ScoreMerge::Weighted(0.3),
        };
        let body = render_range_response("vgod", 1, 2, 64, 128, &range);
        let (version, parsed) = parse_range_payload(&body).unwrap();
        assert_eq!(version, 1);
        assert_eq!(parsed.scores.combined, range.scores.combined);
        assert_eq!(parsed.scores.structural, range.scores.structural);
        assert_eq!(parsed.scores.contextual, None);
        assert_eq!(parsed.merge, range.merge);
    }

    #[test]
    fn malformed_range_payloads_are_rejected() {
        let meta = ShardMeta {
            index: 1,
            lo: 4,
            hi: 6,
            closure: 2,
            ghosts: 0,
            cross_edges: 0,
            halo_bytes: 0,
        };
        let range = |merge, rows: usize, structural: bool| RangeScores {
            scores: Scores {
                combined: vec![0.5; rows],
                structural: structural.then(|| vec![1.5; rows]),
                contextual: Some(vec![2.5; rows]),
            },
            merge,
        };
        let good = range(ScoreMerge::MeanStd, 2, true);
        assert!(check_range_rows(&good, &meta).is_ok());
        assert!(check_range_rows(&range(ScoreMerge::MeanStd, 3, true), &meta).is_err());
        assert!(check_range_rows(&range(ScoreMerge::MeanStd, 2, false), &meta).is_err());
        assert!(check_range_rows(&range(ScoreMerge::Concat, 2, false), &meta).is_ok());
        assert!(agrees_with(&good, &good).is_ok());
        assert!(agrees_with(&range(ScoreMerge::SumToUnit, 2, true), &good).is_err());
        assert!(agrees_with(&range(ScoreMerge::MeanStd, 2, false), &good).is_err());
    }

    #[test]
    fn shard_score_body_validates() {
        assert_eq!(
            parse_shard_score_body(br#"{"model":"vgod"}"#).unwrap(),
            ("vgod".into(), None)
        );
        assert_eq!(
            parse_shard_score_body(br#"{"model":"deg","version":3}"#).unwrap(),
            ("deg".into(), Some(3))
        );
        assert!(parse_shard_score_body(b"{}").is_err());
        assert!(parse_shard_score_body(br#"{"model":"x","version":"y"}"#).is_err());
        assert!(parse_shard_score_body(b"{nope").is_err());
    }

    #[test]
    fn lookup_errors_carry_machine_readable_codes() {
        let (status, body) = lookup_error_response(&LookupError::UnknownModel("ghost".into()));
        assert_eq!(status, 404);
        assert!(body.contains("\"code\":\"unknown_model\""));
        let (status, body) = lookup_error_response(&LookupError::VersionMismatch {
            name: "m".into(),
            requested: 4,
            loaded: 1,
        });
        assert_eq!(status, 409);
        assert!(body.contains("\"loaded\":1"));
        let err = parse_shard_lookup_error(&body, status);
        assert!(matches!(
            err,
            ScoreError::Lookup(LookupError::VersionMismatch { loaded: 1, .. })
        ));
    }
}
