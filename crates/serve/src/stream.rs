//! Streaming serving: online graph mutations with k-hop delta rescoring.
//!
//! The streaming backend replaces the replicated [`Engine`](crate::Engine)
//! with a single mutation worker that owns the deployment graph as an
//! [`OverlayGraph`] — an immutable packed base ([`FrozenGraph`]) plus a
//! versioned mutable overlay — and a per-model [`ScoreCache`] of
//! full-length score channels:
//!
//! ```text
//!   POST /graph/update ──▶ bounded queue ──▶ mutation worker
//!                                             │ apply batch → touched set
//!                                             │ per model:
//!                                             │   Local:     recompute the dirty rows
//!                                             │              (rescore_layered), patch cache
//!                                             │   Full:      full pass on mutated graph
//!                                             │   Refit:     fit + full pass
//!                                             ▼
//!   POST /score ◀──────── published Arc<StreamSnapshot> (atomic swap)
//!
//!   overlay > threshold ──▶ compactor thread: fold overlay into a fresh
//!                           FrozenGraph base, worker adopts it
//! ```
//!
//! `/score` never touches a detector: it answers from the last published
//! snapshot, so reads are wait-free with respect to mutations and a batch
//! mid-rescore keeps serving the pre-batch scores (bounded staleness,
//! reported in `/metrics`). For every detector declaring
//! [`DeltaCapability::Local`], the patched cache is byte-identical to a
//! from-scratch rescore of the mutated graph — the invariant the
//! `stream-smoke` CI job and the proptest suite enforce end to end.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::Instant;

use vgod_eval::{apply_mutation_rescore, DeltaCapability, OutlierDetector, ScoreCache};
use vgod_graph::{
    load_graph, AttributedGraph, FrozenGraph, GraphMutation, GraphStore, OverlayGraph,
};

use crate::engine::{ReplyFn, ScoreError, ScoreReply, SubmitError};
use crate::json::{escape, Json};
use crate::metrics::Metrics;
use crate::registry::Registry;
use crate::{AnyDetector, ModelInfo};

/// Frontier-size histogram bucket upper bounds (inclusive); the last
/// bucket is unbounded.
pub const FRONTIER_BUCKETS: [usize; 8] = [1, 4, 16, 64, 256, 1024, 4096, usize::MAX];

const LATENCY_RING: usize = 4096;

/// Streaming knobs (`vgod serve --streaming`).
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Overlay size (bytes, estimated) above which the worker hands the
    /// overlay to the compactor thread to fold into a fresh base.
    pub compact_bytes: usize,
    /// Bound on queued-but-unapplied mutation batches; a full queue sheds
    /// `POST /graph/update` with `503`.
    pub queue_capacity: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            compact_bytes: 4 << 20,
            queue_capacity: 256,
        }
    }
}

/// Reply callback for a queued `/graph/update`: receives the HTTP status
/// and body once the batch is applied (or rejected).
pub(crate) type UpdateReplyFn = Box<dyn FnOnce(u16, String) + Send>;

/// What the serving side reads: one immutable view of every model's
/// current scores on one graph version. Published by pointer swap after
/// every applied batch.
struct StreamSnapshot {
    graph_version: u64,
    num_nodes: usize,
    models: BTreeMap<String, PublishedModel>,
}

struct PublishedModel {
    version: u64,
    kind: String,
    scores: Arc<Vec<f32>>,
}

/// Counters and gauges for the `"stream"` section of `/metrics`.
#[derive(Default)]
struct StreamMetrics {
    batches: AtomicU64,
    ops: AtomicU64,
    update_errors: AtomicU64,
    rejected: AtomicU64,
    queue_depth: AtomicU64,
    overlay_bytes: AtomicU64,
    overlay_rows: AtomicU64,
    compactions: AtomicU64,
    delta_nodes: AtomicU64,
    full_passes: AtomicU64,
    refits: AtomicU64,
    frontier_hist: [AtomicU64; FRONTIER_BUCKETS.len()],
    /// Ring of ingest→published latencies (µs) for update percentiles.
    update_latency_us: Mutex<Vec<u64>>,
    latency_next: AtomicU64,
    /// When the current snapshot was published (staleness gauge).
    last_publish: Mutex<Option<Instant>>,
}

impl StreamMetrics {
    fn record_frontier(&self, size: usize) {
        let idx = FRONTIER_BUCKETS
            .iter()
            .position(|&cap| size <= cap)
            .unwrap_or(FRONTIER_BUCKETS.len() - 1);
        self.frontier_hist[idx].fetch_add(1, Ordering::Relaxed);
    }

    fn record_update_latency(&self, us: u64) {
        let mut ring = self.update_latency_us.lock().unwrap();
        if ring.len() < LATENCY_RING {
            ring.push(us);
        } else {
            let at = self.latency_next.fetch_add(1, Ordering::Relaxed) as usize % LATENCY_RING;
            ring[at] = us;
        }
    }
}

enum Job {
    Update {
        ops: Vec<GraphMutation>,
        received: Instant,
        reply: UpdateReplyFn,
    },
    Shutdown,
}

/// One loaded model inside the mutation worker.
struct StreamModel {
    name: String,
    kind: String,
    version: u64,
    detector: AnyDetector,
    capability: DeltaCapability,
    cache: ScoreCache,
}

struct Shared {
    published: RwLock<Arc<StreamSnapshot>>,
    metrics: Arc<Metrics>,
    stream: StreamMetrics,
    shutting_down: AtomicBool,
    compact_bytes: usize,
}

/// The streaming scoring backend: one mutation worker, one compactor, and
/// an atomically published score snapshot the HTTP front serves from.
pub struct StreamEngine {
    shared: Arc<Shared>,
    tx: mpsc::SyncSender<Job>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
    compactor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl StreamEngine {
    /// Load every checkpoint under `models_dir` and the graph at
    /// `graph_path`, run one full scoring pass per model (so the first
    /// served scores are byte-identical to offline `vgod detect` on the
    /// startup graph, and models with a layer-wise delta path keep that
    /// pass's activations for the first update), and start the mutation
    /// worker + compactor threads.
    ///
    /// Checkpoints never hot-reload in streaming mode (models stay at
    /// version 1) — the version axis is carried by the *graph* instead.
    pub fn start(
        models_dir: &Path,
        graph_path: &Path,
        cfg: StreamConfig,
        metrics: Arc<Metrics>,
    ) -> Result<StreamEngine, String> {
        let registry = Registry::open(models_dir)?;
        if registry.is_empty() {
            return Err(format!("no checkpoints under {}", models_dir.display()));
        }
        let g = load_graph(graph_path.display().to_string()).map_err(|e| e.to_string())?;
        let base = Arc::new(FrozenGraph::from_store(&g));
        let overlay = OverlayGraph::new(Arc::clone(&base));

        let mut models = Vec::new();
        for info in registry.infos() {
            let (detector, version) = registry.get(&info.name, None).map_err(|e| e.to_string())?;
            let detector = detector.clone();
            let capability = detector.delta_capability();
            let cache = ScoreCache::for_detector(&detector, &g);
            models.push(StreamModel {
                name: info.name.clone(),
                kind: info.kind.clone(),
                version,
                detector,
                capability,
                cache,
            });
        }

        metrics.init_replicas(1);
        let shared = Arc::new(Shared {
            published: RwLock::new(Arc::new(publish(&overlay, &models))),
            metrics,
            stream: StreamMetrics::default(),
            shutting_down: AtomicBool::new(false),
            compact_bytes: cfg.compact_bytes,
        });
        *shared.stream.last_publish.lock().unwrap() = Some(Instant::now());
        shared
            .stream
            .overlay_bytes
            .store(overlay.overlay_bytes() as u64, Ordering::Relaxed);

        // Worker ⇄ compactor: the worker ships (base, delta) when the
        // overlay outgrows the threshold; the compactor folds and returns
        // the fresh base with the delta's high-water version.
        let (compact_tx, compact_rx) =
            mpsc::channel::<(Arc<FrozenGraph>, vgod_graph::OverlayDelta)>();
        let (adopted_tx, adopted_rx) = mpsc::channel::<(Arc<FrozenGraph>, u64)>();
        let compactor = std::thread::Builder::new()
            .name("vgod-stream-compact".into())
            .spawn(move || {
                while let Ok((base, delta)) = compact_rx.recv() {
                    let upto = delta.version;
                    let folded = Arc::new(FrozenGraph::compact(&base, &delta));
                    if adopted_tx.send((folded, upto)).is_err() {
                        return;
                    }
                }
            })
            .map_err(|e| format!("spawning compactor: {e}"))?;

        let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_capacity.max(1));
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("vgod-stream-worker".into())
            .spawn(move || worker_loop(worker_shared, overlay, models, rx, compact_tx, adopted_rx))
            .map_err(|e| format!("spawning mutation worker: {e}"))?;

        Ok(StreamEngine {
            shared,
            tx,
            worker: Mutex::new(Some(worker)),
            compactor: Mutex::new(Some(compactor)),
        })
    }

    /// Queue a mutation batch; `reply` fires with the HTTP response once
    /// the batch is applied and the rescored snapshot is published.
    pub(crate) fn try_submit_update(
        &self,
        ops: Vec<GraphMutation>,
        reply: UpdateReplyFn,
    ) -> Result<(), SubmitError> {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let job = Job::Update {
            ops,
            received: Instant::now(),
            reply,
        };
        // Count the job before it can be dequeued: incrementing after a
        // successful try_send races the worker's decrement, wrapping the
        // gauge to u64::MAX.
        self.shared
            .stream
            .queue_depth
            .fetch_add(1, Ordering::Relaxed);
        match self.tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(mpsc::TrySendError::Full(_)) => {
                self.shared
                    .stream
                    .queue_depth
                    .fetch_sub(1, Ordering::Relaxed);
                self.shared.stream.rejected.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::Overloaded)
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                self.shared
                    .stream
                    .queue_depth
                    .fetch_sub(1, Ordering::Relaxed);
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// `/score` against the published snapshot: wait-free row selection,
    /// answered inline (no replica queue).
    pub(crate) fn try_submit_with(
        &self,
        model: String,
        version: Option<u64>,
        nodes: Option<Vec<u32>>,
        reply: ReplyFn,
    ) -> Result<(), SubmitError> {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let start = Instant::now();
        let result = self.score_from_snapshot(model, version, nodes);
        let metrics = &self.shared.metrics;
        metrics.record_request();
        if result.is_err() {
            metrics.record_error();
        }
        metrics.record_batch(1);
        metrics.record_latency_us(start.elapsed().as_micros() as u64);
        reply(result);
        Ok(())
    }

    /// Blocking-front variant of [`StreamEngine::try_submit_with`].
    pub(crate) fn try_submit(
        &self,
        model: String,
        version: Option<u64>,
        nodes: Option<Vec<u32>>,
    ) -> Result<mpsc::Receiver<Result<ScoreReply, ScoreError>>, SubmitError> {
        let (tx, rx) = mpsc::channel();
        self.try_submit_with(
            model,
            version,
            nodes,
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        )?;
        Ok(rx)
    }

    fn score_from_snapshot(
        &self,
        model: String,
        version: Option<u64>,
        nodes: Option<Vec<u32>>,
    ) -> Result<ScoreReply, ScoreError> {
        let snapshot = Arc::clone(&self.shared.published.read().unwrap());
        let entry = snapshot.models.get(&model).ok_or_else(|| {
            ScoreError::Lookup(crate::registry::LookupError::UnknownModel(model.clone()))
        })?;
        if let Some(requested) = version {
            if requested != entry.version {
                return Err(ScoreError::Lookup(
                    crate::registry::LookupError::VersionMismatch {
                        name: model,
                        requested,
                        loaded: entry.version,
                    },
                ));
            }
        }
        let scores = match &nodes {
            // Whole-graph reads share the published vector: the hot read
            // path stays allocation-free.
            None => Arc::clone(&entry.scores),
            Some(ids) => {
                if let Some(&bad) = ids.iter().find(|&&u| u as usize >= snapshot.num_nodes) {
                    return Err(ScoreError::NodeOutOfRange {
                        node: bad,
                        num_nodes: snapshot.num_nodes,
                    });
                }
                Arc::new(
                    ids.iter()
                        .map(|&u| entry.scores[u as usize])
                        .collect::<Vec<f32>>(),
                )
            }
        };
        Ok(ScoreReply {
            model,
            version: entry.version,
            nodes,
            scores,
        })
    }

    pub(crate) fn models(&self) -> Vec<ModelInfo> {
        let snapshot = self.shared.published.read().unwrap();
        snapshot
            .models
            .iter()
            .map(|(name, m)| ModelInfo {
                name: name.clone(),
                version: m.version,
                kind: m.kind.clone(),
            })
            .collect()
    }

    pub(crate) fn num_nodes(&self) -> usize {
        self.shared.published.read().unwrap().num_nodes
    }

    pub(crate) fn replicas(&self) -> usize {
        1
    }

    pub(crate) fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The base counters with a `"stream"` section spliced in.
    pub(crate) fn metrics_json(&self) -> String {
        let base = self.shared.metrics.snapshot().render_json();
        let stream = self.render_stream_section();
        format!("{},\"stream\":{}}}", &base[..base.len() - 1], stream)
    }

    fn render_stream_section(&self) -> String {
        let s = &self.shared.stream;
        let snapshot = self.shared.published.read().unwrap();
        let hist: Vec<String> = FRONTIER_BUCKETS
            .iter()
            .zip(&s.frontier_hist)
            .map(|(&cap, count)| {
                let le = if cap == usize::MAX {
                    "\"inf\"".to_string()
                } else {
                    cap.to_string()
                };
                format!(
                    "{{\"le\":{le},\"count\":{}}}",
                    count.load(Ordering::Relaxed)
                )
            })
            .collect();
        let mut lat = s.update_latency_us.lock().unwrap().clone();
        lat.sort_unstable();
        let pct = |p: f64| -> u64 {
            if lat.is_empty() {
                0
            } else {
                let idx = ((lat.len() as f64 - 1.0) * p).round() as usize;
                lat[idx.min(lat.len() - 1)]
            }
        };
        let staleness_us = s
            .last_publish
            .lock()
            .unwrap()
            .map(|at| at.elapsed().as_micros() as u64)
            .unwrap_or(0);
        format!(
            "{{\"graph_version\":{},\"num_nodes\":{},\
             \"updates\":{{\"batches\":{},\"ops\":{},\"errors\":{},\"rejected\":{},\"queue_depth\":{}}},\
             \"overlay\":{{\"bytes\":{},\"rows\":{},\"compactions\":{},\"compact_threshold\":{}}},\
             \"rescore\":{{\"delta_nodes\":{},\"full_passes\":{},\"refits\":{}}},\
             \"frontier_hist\":[{}],\
             \"update_latency_us\":{{\"p50\":{},\"p95\":{},\"p99\":{}}},\
             \"staleness_us\":{}}}",
            snapshot.graph_version,
            snapshot.num_nodes,
            s.batches.load(Ordering::Relaxed),
            s.ops.load(Ordering::Relaxed),
            s.update_errors.load(Ordering::Relaxed),
            s.rejected.load(Ordering::Relaxed),
            s.queue_depth.load(Ordering::Relaxed),
            s.overlay_bytes.load(Ordering::Relaxed),
            s.overlay_rows.load(Ordering::Relaxed),
            s.compactions.load(Ordering::Relaxed),
            self.shared.compact_bytes,
            s.delta_nodes.load(Ordering::Relaxed),
            s.full_passes.load(Ordering::Relaxed),
            s.refits.load(Ordering::Relaxed),
            hist.join(","),
            pct(0.50),
            pct(0.95),
            pct(0.99),
            staleness_us,
        )
    }

    pub(crate) fn shutdown(&self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Queued updates drain in FIFO order before the sentinel lands.
        let _ = self.tx.send(Job::Shutdown);
    }

    /// Join the mutation worker and the compactor. A thread that panicked
    /// is logged with its payload, and once both are joined the first
    /// panic is re-raised, so a dead worker cannot end a shutdown that
    /// reports success.
    pub(crate) fn join(&self) {
        if let Some(payload) = self.join_threads() {
            std::panic::resume_unwind(payload);
        }
    }

    fn join_threads(&self) -> Option<Box<dyn std::any::Any + Send>> {
        join_all(&[
            ("mutation worker", &self.worker),
            ("compactor", &self.compactor),
        ])
    }
}

impl Drop for StreamEngine {
    fn drop(&mut self) {
        self.shutdown();
        // Drop must not panic: a thread's panic is logged by the join, and
        // only an explicit `join` re-raises it.
        let _ = self.join_threads();
    }
}

type ThreadSlot = Mutex<Option<std::thread::JoinHandle<()>>>;

/// Join every thread in `slots` and log each panic with its payload;
/// returns the first panic's payload once all are joined.
fn join_all(slots: &[(&str, &ThreadSlot)]) -> Option<Box<dyn std::any::Any + Send>> {
    let mut first_panic = None;
    for (name, slot) in slots {
        // A poisoned slot still holds a valid `Option`; take it regardless.
        let handle = slot.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(Err(payload)) = handle.map(|h| h.join()) {
            eprintln!(
                "vgod serve: stream {name} thread panicked: {}",
                panic_message(&*payload)
            );
            first_panic.get_or_insert(payload);
        }
    }
    first_panic
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

fn publish(overlay: &OverlayGraph, models: &[StreamModel]) -> StreamSnapshot {
    StreamSnapshot {
        graph_version: overlay.version(),
        num_nodes: overlay.num_nodes(),
        models: models
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    PublishedModel {
                        version: m.version,
                        kind: m.kind.clone(),
                        scores: Arc::new(m.cache.combined().to_vec()),
                    },
                )
            })
            .collect(),
    }
}

fn worker_loop(
    shared: Arc<Shared>,
    mut overlay: OverlayGraph,
    mut models: Vec<StreamModel>,
    rx: mpsc::Receiver<Job>,
    compact_tx: mpsc::Sender<(Arc<FrozenGraph>, vgod_graph::OverlayDelta)>,
    adopted_rx: mpsc::Receiver<(Arc<FrozenGraph>, u64)>,
) {
    let mut compaction_in_flight = false;
    while let Ok(job) = rx.recv() {
        // Fold any finished compaction in before touching the overlay.
        while let Ok((base, upto)) = adopted_rx.try_recv() {
            overlay.adopt_base(base, upto);
            compaction_in_flight = false;
            shared.stream.compactions.fetch_add(1, Ordering::Relaxed);
        }
        let (ops, received, reply) = match job {
            Job::Update {
                ops,
                received,
                reply,
            } => (ops, received, reply),
            Job::Shutdown => {
                // Answer updates that raced in behind the sentinel so
                // their connections get a response instead of hanging
                // (the epoll front only completes on an explicit reply).
                while let Ok(job) = rx.try_recv() {
                    if let Job::Update { reply, .. } = job {
                        shared.stream.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        reply(503, "{\"error\":\"shutting down\"}".to_string());
                    }
                }
                break;
            }
        };
        shared.stream.queue_depth.fetch_sub(1, Ordering::Relaxed);

        let effect = match overlay.apply_batch(&ops) {
            Ok(effect) => effect,
            Err(e) => {
                // apply_batch validates the whole batch before touching
                // the overlay, so a rejected batch left the graph — and
                // therefore the published scores — unchanged.
                shared.stream.update_errors.fetch_add(1, Ordering::Relaxed);
                reply(400, format!("{{\"error\":\"{}\"}}", escape(&e)));
                continue;
            }
        };

        let mut max_frontier = 0usize;
        if effect.applied > 0 {
            // Materialised mutated graph, built at most once per batch and
            // shared by every full-rescore/refit model.
            let mut full_graph: Option<AttributedGraph> = None;
            for model in &mut models {
                match model.capability {
                    DeltaCapability::Local { .. } => {
                        let frontier = apply_mutation_rescore(
                            &model.detector,
                            &overlay,
                            &effect.touched,
                            &mut model.cache,
                        );
                        shared.stream.record_frontier(frontier);
                        shared
                            .stream
                            .delta_nodes
                            .fetch_add(frontier as u64, Ordering::Relaxed);
                        max_frontier = max_frontier.max(frontier);
                    }
                    DeltaCapability::FullRescore => {
                        let g = full_graph.get_or_insert_with(|| overlay.materialize());
                        model.cache.replace(model.detector.score(g));
                        shared.stream.full_passes.fetch_add(1, Ordering::Relaxed);
                    }
                    DeltaCapability::Refit => {
                        let g = full_graph.get_or_insert_with(|| overlay.materialize());
                        model.detector.fit(g);
                        model.cache.replace(model.detector.score(g));
                        shared.stream.refits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            *shared.published.write().unwrap() = Arc::new(publish(&overlay, &models));
            *shared.stream.last_publish.lock().unwrap() = Some(Instant::now());
        }

        shared.stream.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .stream
            .ops
            .fetch_add(effect.applied as u64, Ordering::Relaxed);
        shared
            .stream
            .overlay_bytes
            .store(overlay.overlay_bytes() as u64, Ordering::Relaxed);
        shared
            .stream
            .overlay_rows
            .store(overlay.overlay_rows() as u64, Ordering::Relaxed);
        let elapsed_us = received.elapsed().as_micros() as u64;
        shared.stream.record_update_latency(elapsed_us);

        reply(
            200,
            format!(
                "{{\"applied\":{},\"version\":{},\"touched\":{},\"frontier\":{},\
                 \"overlay_bytes\":{},\"elapsed_us\":{}}}",
                effect.applied,
                effect.version,
                effect.touched.len(),
                max_frontier,
                overlay.overlay_bytes(),
                elapsed_us,
            ),
        );

        if !compaction_in_flight && overlay.overlay_bytes() > shared.compact_bytes {
            let base = Arc::clone(overlay.base());
            let delta = overlay.delta_snapshot();
            if compact_tx.send((base, delta)).is_ok() {
                compaction_in_flight = true;
            }
        }
    }
    // Dropping compact_tx stops the compactor thread.
}

/// Validate a `POST /graph/update` body into mutation ops, or the `400`
/// response describing what is wrong with it. Expected shape:
///
/// ```json
/// {"ops": [
///   {"op":"add_edge","u":0,"v":1},
///   {"op":"remove_edge","u":0,"v":1},
///   {"op":"add_node","attrs":[0.1,0.2],"label":3},
///   {"op":"remove_node","node":7},
///   {"op":"set_attrs","node":7,"attrs":[0.5,0.5]}
/// ]}
/// ```
pub(crate) fn parse_update_body(body: &[u8]) -> Result<Vec<GraphMutation>, (u16, String)> {
    let bad = |msg: &str| (400u16, format!("{{\"error\":\"{}\"}}", escape(msg)));
    let parsed = std::str::from_utf8(body)
        .map_err(|e| e.to_string())
        .and_then(Json::parse)
        .map_err(|e| bad(&format!("invalid JSON: {e}")))?;
    let Some(items) = parsed.get("ops").and_then(Json::as_arr) else {
        return Err(bad("missing \"ops\" array"));
    };
    let mut ops = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let Some(op) = item.get("op").and_then(Json::as_str) else {
            return Err(bad(&format!("op {i}: missing \"op\" tag")));
        };
        let node_field = |key: &str| -> Result<u32, (u16, String)> {
            item.get(key)
                .and_then(Json::as_u64)
                .filter(|&u| u <= u32::MAX as u64)
                .map(|u| u as u32)
                .ok_or_else(|| bad(&format!("op {i}: missing or invalid \"{key}\"")))
        };
        let attrs_field = || -> Result<Vec<f32>, (u16, String)> {
            let Some(values) = item.get("attrs").and_then(Json::as_arr) else {
                return Err(bad(&format!("op {i}: missing \"attrs\" array")));
            };
            values
                .iter()
                .map(|v| v.as_f64().map(|f| f as f32))
                .collect::<Option<Vec<f32>>>()
                .ok_or_else(|| bad(&format!("op {i}: \"attrs\" must be numbers")))
        };
        ops.push(match op {
            "add_edge" => GraphMutation::AddEdge {
                u: node_field("u")?,
                v: node_field("v")?,
            },
            "remove_edge" => GraphMutation::RemoveEdge {
                u: node_field("u")?,
                v: node_field("v")?,
            },
            "add_node" => GraphMutation::AddNode {
                attrs: attrs_field()?,
                label: match item.get("label") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_u64()
                            .filter(|&u| u <= u32::MAX as u64)
                            .map(|u| u as u32)
                            .ok_or_else(|| bad(&format!("op {i}: invalid \"label\"")))?,
                    ),
                },
            },
            "remove_node" => GraphMutation::RemoveNode {
                node: node_field("node")?,
            },
            "set_attrs" => GraphMutation::SetAttrs {
                node: node_field("node")?,
                attrs: attrs_field()?,
            },
            other => return Err(bad(&format!("op {i}: unknown op {other:?}"))),
        });
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use vgod_baselines::{DeepConfig, Deg, DegNorm, L2Norm, Radar, RandomDetector};
    use vgod_graph::{save_graph, seeded_rng};

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vgod_stream_{tag}_{}", std::process::id()))
    }

    /// A Radar small enough to refit on every batch of a test.
    fn tiny_radar() -> Radar {
        Radar::new(DeepConfig {
            hidden: 4,
            epochs: 2,
            ..DeepConfig::fast()
        })
    }

    /// The three leakage probes (`Local`), a random control
    /// (`FullRescore`) and a fitted Radar (`Refit`), one checkpoint each.
    fn fixture(tag: &str) -> (PathBuf, PathBuf, AttributedGraph) {
        let mut rng = seeded_rng(33);
        let mut g = vgod_graph::community_graph(
            &vgod_graph::CommunityGraphConfig::homogeneous(90, 3, 4.0, 0.9),
            &mut rng,
        );
        let x = vgod_graph::gaussian_mixture_attributes(g.labels().unwrap(), 4, 3.0, 0.5, &mut rng);
        g.set_attrs(x);
        let dir = tmp(&format!("{tag}_models"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        AnyDetector::Deg(Deg)
            .save_file(&dir.join("deg.ckpt"))
            .unwrap();
        AnyDetector::L2Norm(L2Norm)
            .save_file(&dir.join("l2norm.ckpt"))
            .unwrap();
        AnyDetector::DegNorm(DegNorm)
            .save_file(&dir.join("degnorm.ckpt"))
            .unwrap();
        AnyDetector::Random(RandomDetector::new(5))
            .save_file(&dir.join("random.ckpt"))
            .unwrap();
        let mut radar = tiny_radar();
        radar.fit(&g);
        AnyDetector::Radar(radar)
            .save_file(&dir.join("radar.ckpt"))
            .unwrap();
        let graph_path = tmp(&format!("{tag}_graph.txt"));
        save_graph(&g, graph_path.display().to_string()).unwrap();
        (dir, graph_path, g)
    }

    #[test]
    fn join_reports_a_thread_panic_after_joining_every_thread() {
        let finished = Arc::new(AtomicBool::new(false));
        let done = Arc::clone(&finished);
        let worker: ThreadSlot = Mutex::new(Some(std::thread::spawn(|| panic!("worker died"))));
        let compactor: ThreadSlot = Mutex::new(Some(std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            done.store(true, Ordering::SeqCst);
        })));
        let slots = [("mutation worker", &worker), ("compactor", &compactor)];
        let payload = join_all(&slots).expect("the worker's panic must surface");
        assert_eq!(panic_message(&*payload), "worker died");
        assert!(
            finished.load(Ordering::SeqCst),
            "the compactor is joined before the panic is reported"
        );
        // Nothing left to join: a second join reports nothing.
        assert!(join_all(&slots).is_none());
    }

    fn apply(engine: &StreamEngine, ops: Vec<GraphMutation>) -> (u16, String) {
        let (tx, rx) = mpsc::channel();
        engine
            .try_submit_update(
                ops,
                Box::new(move |status, body| {
                    let _ = tx.send((status, body));
                }),
            )
            .unwrap();
        rx.recv().unwrap()
    }

    fn served(engine: &StreamEngine, model: &str) -> Vec<f32> {
        engine
            .try_submit(model.to_string(), None, None)
            .unwrap()
            .recv()
            .unwrap()
            .unwrap()
            .scores
            .as_ref()
            .clone()
    }

    #[test]
    fn delta_served_scores_match_full_rescore() {
        let (models, graph_path, mut g) = fixture("delta");
        let engine = StreamEngine::start(
            &models,
            &graph_path,
            StreamConfig::default(),
            Arc::new(Metrics::new()),
        )
        .unwrap();

        // Startup scores are the offline scores of the startup graph.
        use vgod_eval::OutlierDetector as _;
        assert_eq!(served(&engine, "degnorm"), DegNorm.score(&g).combined);

        // A mixed batch, mirrored into a plain AttributedGraph.
        let (status, body) = apply(
            &engine,
            vec![
                GraphMutation::AddEdge { u: 3, v: 77 },
                GraphMutation::RemoveEdge { u: 0, v: 1 },
                GraphMutation::SetAttrs {
                    node: 40,
                    attrs: vec![2.0, -1.0, 0.5, 0.0],
                },
                GraphMutation::AddNode {
                    attrs: vec![1.0, 1.0, 1.0, 1.0],
                    label: Some(0),
                },
                GraphMutation::AddEdge { u: 90, v: 5 },
            ],
        );
        assert_eq!(status, 200, "{body}");
        g.add_edge(3, 77);
        g.remove_edge(0, 1);
        g.attrs_mut()
            .row_mut(40)
            .copy_from_slice(&[2.0, -1.0, 0.5, 0.0]);
        g.append_node(&[1.0, 1.0, 1.0, 1.0], Some(0));
        g.add_edge(90, 5);

        let mut radar = tiny_radar();
        radar.fit(&g);
        for (name, full) in [
            ("deg", Deg.score(&g).combined),
            ("l2norm", L2Norm.score(&g).combined),
            ("degnorm", DegNorm.score(&g).combined),
            ("random", RandomDetector::new(5).score(&g).combined),
            ("radar", radar.score(&g).combined),
        ] {
            assert_eq!(served(&engine, name), full, "model {name}");
        }
        assert_eq!(engine.num_nodes(), 91);

        // No-op batch: version unchanged, still consistent.
        let (status, body) = apply(&engine, vec![GraphMutation::AddEdge { u: 3, v: 77 }]);
        assert_eq!(status, 200);
        assert!(body.contains("\"applied\":0"), "{body}");

        // Metrics carry the stream section.
        let metrics = engine.metrics_json();
        let v = Json::parse(&metrics).unwrap();
        let stream = v.get("stream").unwrap();
        assert_eq!(
            stream
                .get("updates")
                .unwrap()
                .get("batches")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        // Every capability's arm ran: delta patches, a full rescore and a
        // refit.
        let rescore = stream.get("rescore").unwrap();
        for counter in ["delta_nodes", "full_passes", "refits"] {
            let count = rescore.get(counter).unwrap().as_u64().unwrap();
            assert!(count > 0, "rescore.{counter} = {count}");
        }

        engine.shutdown();
        engine.join();
        let _ = std::fs::remove_dir_all(&models);
        let _ = std::fs::remove_file(&graph_path);
    }

    #[test]
    fn compaction_folds_overlay_under_load() {
        let (models, graph_path, _) = fixture("compact");
        let engine = StreamEngine::start(
            &models,
            &graph_path,
            StreamConfig {
                compact_bytes: 512, // force compaction quickly
                queue_capacity: 64,
            },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        // Deterministic edge churn (toggle distinct pairs) until the
        // overlay outgrows the tiny threshold and a compaction is adopted
        // (adoption happens on the next batch after the compactor is done).
        let mut compactions = 0;
        'outer: for round in 0..200u32 {
            for i in 0..10u32 {
                let u = (round * 10 + i) % 90;
                let v = (u + 1 + (round + i) % 88) % 90;
                if u != v {
                    let (status, _) = apply(&engine, vec![GraphMutation::AddEdge { u, v }]);
                    assert_eq!(status, 200);
                }
            }
            let parsed = Json::parse(&engine.metrics_json()).unwrap();
            compactions = parsed
                .get("stream")
                .unwrap()
                .get("overlay")
                .unwrap()
                .get("compactions")
                .unwrap()
                .as_u64()
                .unwrap();
            if compactions > 0 {
                break 'outer;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(compactions > 0, "compactor never adopted a fresh base");

        engine.shutdown();
        engine.join();
        let _ = std::fs::remove_dir_all(&models);
        let _ = std::fs::remove_file(&graph_path);
    }

    #[test]
    fn update_body_parsing_and_errors() {
        let ops = parse_update_body(
            br#"{"ops":[{"op":"add_edge","u":1,"v":2},{"op":"set_attrs","node":0,"attrs":[1.5,-2]}]}"#,
        )
        .unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0], GraphMutation::AddEdge { u: 1, v: 2 });
        assert!(parse_update_body(b"{}").is_err());
        assert!(parse_update_body(br#"{"ops":[{"op":"warp","u":1}]}"#).is_err());
        assert!(parse_update_body(br#"{"ops":[{"op":"add_edge","u":1}]}"#).is_err());

        // Self-loops are rejected at apply time with a 400.
        let (models, graph_path, g) = fixture("badop");
        let engine = StreamEngine::start(
            &models,
            &graph_path,
            StreamConfig::default(),
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let (status, body) = apply(&engine, vec![GraphMutation::AddEdge { u: 4, v: 4 }]);
        assert_eq!(status, 400, "{body}");

        // A batch with a valid op ahead of the bad one rejects whole:
        // nothing applies, and served scores still match an offline pass
        // on the unmutated graph byte-for-byte.
        let (status, body) = apply(
            &engine,
            vec![
                GraphMutation::AddEdge { u: 0, v: 50 },
                GraphMutation::AddEdge { u: 4, v: 4 },
            ],
        );
        assert_eq!(status, 400, "{body}");
        use vgod_eval::OutlierDetector as _;
        assert_eq!(served(&engine, "degnorm"), DegNorm.score(&g).combined);
        assert_eq!(engine.num_nodes(), g.num_nodes());
        engine.shutdown();
        engine.join();
        let _ = std::fs::remove_dir_all(&models);
        let _ = std::fs::remove_file(&graph_path);
    }
}
