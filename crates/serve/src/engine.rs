//! The replicated micro-batching scoring engine.
//!
//! Graphs in this workspace are deliberately not `Send` (a graph memoises
//! an `Rc`-shared `GraphContext`), so scoring happens on dedicated
//! replica threads that each *own* a private rebuild of the deployment
//! graph. The engine spawns `N` such replicas ([`ServeConfig::replicas`],
//! default = available cores); models are shared — every replica resolves
//! requests against the same `Arc`-published registry [`Snapshot`], so a
//! checkpoint is loaded once no matter how many replicas serve it.
//!
//! Requests are routed to replicas **sticky per model**: the first request
//! for a model assigns it a replica round-robin, and every later request
//! for that model lands on the same replica. Sticky routing maximises
//! batch coherence — a flush groups requests by model and runs **one**
//! full scoring pass per distinct model, so scattering a model's traffic
//! across replicas would shrink every group and multiply forward passes.
//! Requests naming unregistered models are routed by name hash (they only
//! ever produce a `404`, and must not grow the sticky table).
//!
//! Each replica keeps the original engine's discipline:
//!
//! * a bounded queue per replica — `try_send` on a full queue fails, which
//!   the server surfaces as `503` (backpressure with no unbounded buffering);
//! * micro-batching — the first queued request opens a
//!   [`ServeConfig::max_wait`] window, requests accumulate until the window
//!   closes or [`ServeConfig::max_batch`] are in hand, then the batch is
//!   flushed with one pass per distinct model, answering every grouped
//!   request from row selections of that pass (the same selection
//!   [`OutlierDetector::score_nodes`] performs, which keeps served scores
//!   byte-identical to offline scoring);
//! * an arena scope around the whole loop, so steady-state flushes recycle
//!   tensor buffers instead of allocating.
//!
//! Replies are delivered through a caller-supplied callback that runs on
//! the replica thread ([`Engine::try_submit_with`]). The epoll server uses
//! this to serialise the response off the event loop and wake it through
//! an eventfd; tests and the portable fallback server use the channel
//! wrapper [`Engine::try_submit`].
//!
//! Hot reloads live on their own reloader thread, which owns the
//! [`Registry`], polls the checkpoint directory every
//! [`RegistryConfig::reload_poll`], and publishes a fresh snapshot (one
//! pointer swap) when anything changed — scoring never blocks on a reload.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use vgod_eval::OutlierDetector;
use vgod_graph::{
    load_graph, AttributedGraph, CachePolicy, GraphStore, OocStore, SamplingConfig, StoreOptions,
};
use vgod_tensor::Matrix;

use crate::detector::AnyDetector;
use crate::metrics::Metrics;
use crate::registry::{LookupError, ModelInfo, Registry, RegistryConfig, Snapshot, SnapshotCell};

/// Out-of-core deployment backend: instead of materialising a full
/// in-memory graph per replica, every replica scores against **one**
/// shared demand-paged [`OocStore`] under this byte budget — the store is
/// `Send + Sync` and its sharded block cache is built for exactly this
/// kind of concurrent reader fleet.
#[derive(Clone, Debug)]
pub struct OocServeConfig {
    /// Total store memory budget in bytes (resident `indptr` + cache).
    pub budget: usize,
    /// Block replacement policy for the shared cache.
    pub policy: CachePolicy,
    /// Sampling schedule for store-backed scoring.
    pub sampling: SamplingConfig,
}

impl OocServeConfig {
    /// Defaults (segmented LRU, default sampling) at the given budget.
    pub fn new(budget: usize) -> OocServeConfig {
        OocServeConfig {
            budget,
            policy: CachePolicy::default(),
            sampling: SamplingConfig::default(),
        }
    }
}

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Flush a batch once this many requests are queued.
    pub max_batch: usize,
    /// Flush a batch this long after its first request arrived.
    pub max_wait: Duration,
    /// Bounded queue capacity **per replica**; a full queue rejects the
    /// request with `503`.
    pub queue_capacity: usize,
    /// Number of scoring replicas; `0` means one per available core.
    pub replicas: usize,
    /// Registry knobs (hot-reload poll interval).
    pub registry: RegistryConfig,
    /// `Some` serves from a shared out-of-core store instead of per-replica
    /// in-memory graphs (the deployment file must be a `VGODSTR1` store).
    pub out_of_core: Option<OocServeConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_wait: Duration::from_micros(2000),
            queue_capacity: 1024,
            replicas: 0,
            registry: RegistryConfig::default(),
            out_of_core: None,
        }
    }
}

impl ServeConfig {
    /// The replica count this config resolves to on this machine.
    pub fn resolved_replicas(&self) -> usize {
        if self.replicas > 0 {
            self.replicas
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// A successful scoring reply.
#[derive(Clone, Debug)]
pub struct ScoreReply {
    /// The model that scored.
    pub model: String,
    /// The model version that scored.
    pub version: u64,
    /// The nodes scored, when the request named a subset.
    pub nodes: Option<Vec<u32>>,
    /// Scores, aligned with `nodes` (or with all graph nodes). Behind an
    /// `Arc` so unfiltered whole-graph replies share the cached vector
    /// instead of cloning `O(n)` floats per request.
    pub scores: Arc<Vec<f32>>,
}

/// Why a request could not be scored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScoreError {
    /// No model with that name (or wrong pinned version).
    Lookup(LookupError),
    /// A requested node id is outside the deployment graph.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The graph's node count.
        num_nodes: usize,
    },
    /// A shard worker process died or stopped answering (sharded serving
    /// only) — the request cannot be scored until it is restarted.
    ShardDown {
        /// The dead shard's index.
        shard: usize,
        /// The transport failure observed (connect refused, EOF, ...).
        cause: String,
    },
}

impl std::fmt::Display for ScoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoreError::Lookup(e) => e.fmt(f),
            ScoreError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range (graph has {num_nodes} nodes)")
            }
            ScoreError::ShardDown { shard, cause } => {
                write!(f, "shard {shard} down: {cause}")
            }
        }
    }
}

/// Why a request was not even queued.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The routed replica's bounded queue is full — shed load.
    Overloaded,
    /// The engine has shut down.
    ShuttingDown,
}

/// Reply callback: runs on the replica thread once the request is scored
/// (or failed). Keep it cheap and non-blocking — it executes inside the
/// scoring loop.
pub type ReplyFn = Box<dyn FnOnce(Result<ScoreReply, ScoreError>) + Send>;

struct ScoreRequest {
    model: String,
    version: Option<u64>,
    nodes: Option<Vec<u32>>,
    reply: ReplyFn,
    enqueued: Instant,
}

enum EngineMsg {
    Score(ScoreRequest),
    Shutdown,
}

/// Everything needed to rebuild the deployment graph inside a replica
/// thread. `AttributedGraph` itself is not `Send` (its memoised context
/// cache holds `Rc`s), but its raw parts are plain data; each replica
/// reconstructs an identical graph — same sorted adjacency, same attribute
/// bytes — and grows its own memoised context.
struct GraphSpec {
    edges: Vec<(u32, u32)>,
    x: Matrix,
    labels: Option<Vec<u32>>,
}

impl GraphSpec {
    fn of(g: &AttributedGraph) -> GraphSpec {
        GraphSpec {
            edges: g.undirected_edges(),
            x: g.attrs().clone(),
            labels: g.labels().map(<[u32]>::to_vec),
        }
    }

    fn build(&self) -> AttributedGraph {
        let mut g = AttributedGraph::from_edges(self.x.clone(), &self.edges);
        if let Some(labels) = &self.labels {
            g.set_labels(labels.clone());
        }
        g
    }
}

/// What each replica thread receives at spawn: either the raw parts of an
/// in-memory graph to rebuild privately, or a handle to the one shared
/// out-of-core store (which *is* `Send + Sync`, so no rebuild is needed —
/// all replicas page through the same budgeted cache).
enum ReplicaSource {
    Full(Arc<GraphSpec>),
    Store {
        store: Arc<OocStore>,
        sampling: SamplingConfig,
    },
}

impl ReplicaSource {
    /// A cheap per-replica handle (Arc clones only) — the source itself is
    /// `Send`; the `ReplicaGraph` it builds is not and must be built on
    /// the replica thread.
    fn clone_handle(&self) -> ReplicaSource {
        match self {
            ReplicaSource::Full(spec) => ReplicaSource::Full(Arc::clone(spec)),
            ReplicaSource::Store { store, sampling } => ReplicaSource::Store {
                store: Arc::clone(store),
                sampling: *sampling,
            },
        }
    }

    fn num_nodes(&self) -> usize {
        match self {
            ReplicaSource::Full(spec) => spec.x.rows(),
            ReplicaSource::Store { store, .. } => GraphStore::num_nodes(&**store),
        }
    }

    fn build(&self) -> ReplicaGraph {
        match self {
            ReplicaSource::Full(spec) => ReplicaGraph::Full(spec.build()),
            ReplicaSource::Store { store, sampling } => ReplicaGraph::Store {
                store: Arc::clone(store),
                sampling: *sampling,
            },
        }
    }
}

/// A replica's scoring view of the deployment graph.
enum ReplicaGraph {
    Full(AttributedGraph),
    Store {
        store: Arc<OocStore>,
        sampling: SamplingConfig,
    },
}

impl ReplicaGraph {
    fn num_nodes(&self) -> usize {
        match self {
            ReplicaGraph::Full(g) => g.num_nodes(),
            ReplicaGraph::Store { store, .. } => GraphStore::num_nodes(&**store),
        }
    }

    /// One full scoring pass with `det` (the per-model pass every flush
    /// amortises across its grouped requests).
    fn full_scores(&self, det: &AnyDetector) -> Vec<f32> {
        match self {
            ReplicaGraph::Full(g) => det.score(g).combined,
            ReplicaGraph::Store { store, sampling } => det.score_store(&**store, sampling).combined,
        }
    }
}

/// Per-model sticky routing table: first sight assigns the next replica
/// round-robin, later requests stick to it.
struct Router {
    assignments: Mutex<HashMap<String, usize>>,
    next: AtomicUsize,
    replicas: usize,
}

impl Router {
    fn new(replicas: usize) -> Router {
        Router {
            assignments: Mutex::new(HashMap::new()),
            next: AtomicUsize::new(0),
            replicas,
        }
    }

    fn route(&self, model: &str, registered: bool) -> usize {
        if self.replicas == 1 {
            return 0;
        }
        let mut map = self.assignments.lock().unwrap();
        if let Some(&replica) = map.get(model) {
            return replica;
        }
        if registered {
            let replica = self.next.fetch_add(1, Ordering::Relaxed) % self.replicas;
            map.insert(model.to_string(), replica);
            replica
        } else {
            // Unknown names answer 404 from whichever replica; hash so a
            // flood of garbage names cannot grow the sticky table.
            fnv1a(model.as_bytes()) as usize % self.replicas
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Handle to the replica fleet and the reloader thread.
pub struct Engine {
    replica_txs: Vec<SyncSender<EngineMsg>>,
    router: Router,
    snapshots: Arc<SnapshotCell>,
    reload_stop: SyncSender<()>,
    joins: Mutex<Vec<std::thread::JoinHandle<()>>>,
    metrics: Arc<Metrics>,
    num_nodes: usize,
    shutting_down: AtomicBool,
}

impl Engine {
    /// Start the engine: load the graph at `graph_path` and the registry at
    /// `models_dir` (both on the calling thread — startup failures are
    /// synchronous), then spawn the scoring replicas and the reloader.
    pub fn start(
        models_dir: PathBuf,
        graph_path: PathBuf,
        cfg: ServeConfig,
        metrics: Arc<Metrics>,
    ) -> Result<Engine, String> {
        let source = match &cfg.out_of_core {
            Some(ooc) => {
                let opts = StoreOptions {
                    budget: ooc.budget,
                    policy: ooc.policy,
                    shards: 0,
                };
                let store = OocStore::open_with(&graph_path, opts)
                    .map_err(|e| format!("{}: {e}", graph_path.display()))?;
                ReplicaSource::Store {
                    store: Arc::new(store),
                    sampling: ooc.sampling,
                }
            }
            None => {
                let graph = load_graph(graph_path.display().to_string())
                    .map_err(|e| format!("{}: {e}", graph_path.display()))?;
                ReplicaSource::Full(Arc::new(GraphSpec::of(&graph)))
            }
        };
        let num_nodes = source.num_nodes();

        let registry = Registry::open(&models_dir)?;
        let snapshots = Arc::new(SnapshotCell::new(registry.snapshot()));

        let replicas = cfg.replicas_for_start();
        metrics.init_replicas(replicas);
        let mut joins = Vec::with_capacity(replicas + 1);
        let mut replica_txs = Vec::with_capacity(replicas);
        for id in 0..replicas {
            let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity.max(1));
            let source = source.clone_handle();
            let snapshots = Arc::clone(&snapshots);
            let metrics = Arc::clone(&metrics);
            let cfg = cfg.clone();
            let join = std::thread::Builder::new()
                .name(format!("vgod-serve-replica-{id}"))
                .spawn(move || replica_main(id, source, rx, &snapshots, &metrics, &cfg))
                .map_err(|e| format!("spawning replica {id}: {e}"))?;
            replica_txs.push(tx);
            joins.push(join);
        }

        let (reload_stop, stop_rx) = mpsc::sync_channel(1);
        let reload_snapshots = Arc::clone(&snapshots);
        let reload_poll = cfg.registry.reload_poll;
        let join = std::thread::Builder::new()
            .name("vgod-serve-reload".into())
            .spawn(move || reloader_main(registry, reload_snapshots, stop_rx, reload_poll))
            .map_err(|e| format!("spawning reloader: {e}"))?;
        joins.push(join);

        Ok(Engine {
            replica_txs,
            router: Router::new(replicas),
            snapshots,
            reload_stop,
            joins: Mutex::new(joins),
            metrics,
            num_nodes,
            shutting_down: AtomicBool::new(false),
        })
    }

    /// Queue a scoring request with a reply callback (runs on the replica
    /// thread). [`SubmitError`] if the routed replica's queue is full or
    /// the engine is draining.
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
        let registered = self.snapshots.load().contains(&model);
        let replica = self.router.route(&model, registered);
        let msg = EngineMsg::Score(ScoreRequest {
            model,
            version,
            nodes,
            reply,
            enqueued: Instant::now(),
        });
        match self.replica_txs[replica].try_send(msg) {
            Ok(()) => {
                self.metrics.record_request();
                self.metrics.queue_inc(replica);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.metrics.record_rejected();
                Err(SubmitError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::ShuttingDown),
        }
    }

    /// [`Engine::try_submit_with`] wrapped in a channel, for blocking
    /// callers (tests, the portable fallback server).
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

    /// Registered models, from the latest published registry snapshot.
    pub fn models(&self) -> Vec<ModelInfo> {
        self.snapshots.load().infos().to_vec()
    }

    /// Node count of the deployment graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of scoring replicas.
    pub fn replicas(&self) -> usize {
        self.replica_txs.len()
    }

    /// The engine's metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Begin graceful shutdown: refuse new submissions, let every replica
    /// drain its queue, stop the reloader. Idempotent.
    pub fn shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Blocking sends: queued Score messages ahead of each marker are
        // all drained (scored and replied to) before that replica exits.
        for tx in &self.replica_txs {
            let _ = tx.send(EngineMsg::Shutdown);
        }
        let _ = self.reload_stop.try_send(());
    }

    /// Wait for every engine thread to exit (call after
    /// [`Engine::shutdown`]).
    pub fn join(&self) {
        let joins: Vec<_> = self.joins.lock().unwrap().drain(..).collect();
        for join in joins {
            let _ = join.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

impl ServeConfig {
    fn replicas_for_start(&self) -> usize {
        self.resolved_replicas().max(1)
    }
}

fn reloader_main(
    mut registry: Registry,
    snapshots: Arc<SnapshotCell>,
    stop_rx: Receiver<()>,
    poll: Duration,
) {
    loop {
        match stop_rx.recv_timeout(poll) {
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let failures = registry.poll_reload();
                for failure in &failures {
                    eprintln!("vgod-serve: reload failed: {failure}");
                }
                snapshots.store(registry.snapshot());
            }
            // Stop requested, or the engine handle dropped.
            Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn replica_main(
    id: usize,
    source: ReplicaSource,
    rx: Receiver<EngineMsg>,
    snapshots: &SnapshotCell,
    metrics: &Metrics,
    cfg: &ServeConfig,
) {
    let graph = source.build();
    // The arena scope makes every flush recycle the tensor buffers of the
    // previous one: steady-state serving performs no fresh value/grad
    // allocations (the same discipline the recycled training runtime uses).
    vgod_tensor::arena::scope(|| loop {
        match rx.recv() {
            Ok(EngineMsg::Score(first)) => {
                let (batch, end) = collect_batch(&rx, first, cfg);
                let shutdown = matches!(end, BatchEnd::Shutdown);
                process_batch(id, batch, &graph, &snapshots.load(), metrics);
                if shutdown {
                    drain(id, &rx, &graph, snapshots, metrics, cfg);
                    return;
                }
            }
            Ok(EngineMsg::Shutdown) => {
                drain(id, &rx, &graph, snapshots, metrics, cfg);
                return;
            }
            Err(_) => return,
        }
    });
}

enum BatchEnd {
    Flushed,
    Shutdown,
}

/// Gather up to `max_batch` requests within `max_wait` of the first.
fn collect_batch(
    rx: &Receiver<EngineMsg>,
    first: ScoreRequest,
    cfg: &ServeConfig,
) -> (Vec<ScoreRequest>, BatchEnd) {
    let deadline = Instant::now() + cfg.max_wait;
    let mut batch = vec![first];
    while batch.len() < cfg.max_batch.max(1) {
        let now = Instant::now();
        let Some(left) = deadline
            .checked_duration_since(now)
            .filter(|d| !d.is_zero())
        else {
            break;
        };
        match rx.recv_timeout(left) {
            Ok(EngineMsg::Score(req)) => batch.push(req),
            Ok(EngineMsg::Shutdown) => return (batch, BatchEnd::Shutdown),
            Err(_) => break,
        }
    }
    (batch, BatchEnd::Flushed)
}

/// Score one flushed batch: one full pass per distinct model, row
/// selections per request. The whole batch resolves against one snapshot,
/// so co-batched requests cannot straddle a hot reload.
fn process_batch(
    replica: usize,
    batch: Vec<ScoreRequest>,
    graph: &ReplicaGraph,
    snapshot: &Snapshot,
    metrics: &Metrics,
) {
    metrics.record_batch(batch.len());
    let mut by_model: Vec<(String, Vec<ScoreRequest>)> = Vec::new();
    for req in batch {
        match by_model.iter_mut().find(|(name, _)| *name == req.model) {
            Some((_, group)) => group.push(req),
            None => {
                let name = req.model.clone();
                by_model.push((name, vec![req]));
            }
        }
    }
    for (name, group) in by_model {
        score_group(replica, &name, group, graph, snapshot, metrics);
    }
}

fn score_group(
    replica: usize,
    name: &str,
    group: Vec<ScoreRequest>,
    graph: &ReplicaGraph,
    snapshot: &Snapshot,
    metrics: &Metrics,
) {
    // One full scoring pass serves every request for this model; it is
    // computed lazily so a group of pure lookup errors costs nothing.
    let mut full: Option<(Arc<Vec<f32>>, u64)> = None;
    for req in group {
        let result = (|| {
            let (detector, version) = snapshot
                .get(name, req.version)
                .map_err(ScoreError::Lookup)?;
            if let Some(nodes) = &req.nodes {
                let n = graph.num_nodes();
                if let Some(&bad) = nodes.iter().find(|&&u| u as usize >= n) {
                    return Err(ScoreError::NodeOutOfRange {
                        node: bad,
                        num_nodes: n,
                    });
                }
            }
            let (scores, version) = match &full {
                Some((scores, version)) => (Arc::clone(scores), *version),
                None => {
                    let scores = Arc::new(graph.full_scores(&detector));
                    full = Some((Arc::clone(&scores), version));
                    (scores, version)
                }
            };
            let selected = match &req.nodes {
                Some(nodes) => Arc::new(
                    nodes
                        .iter()
                        .map(|&u| scores[u as usize])
                        .collect::<Vec<f32>>(),
                ),
                None => scores,
            };
            Ok(ScoreReply {
                model: name.to_string(),
                version,
                nodes: req.nodes.clone(),
                scores: selected,
            })
        })();
        if result.is_err() {
            metrics.record_error();
        }
        metrics.record_latency_us(req.enqueued.elapsed().as_micros() as u64);
        metrics.queue_dec(replica);
        (req.reply)(result);
    }
}

/// Shutdown drain: everything still in this replica's queue is scored and
/// answered.
fn drain(
    replica: usize,
    rx: &Receiver<EngineMsg>,
    graph: &ReplicaGraph,
    snapshots: &SnapshotCell,
    metrics: &Metrics,
    cfg: &ServeConfig,
) {
    let mut rest = Vec::new();
    while let Ok(msg) = rx.try_recv() {
        if let EngineMsg::Score(req) = msg {
            rest.push(req);
        }
    }
    // Score the remainder in max_batch-sized flushes.
    while !rest.is_empty() {
        let take = cfg.max_batch.max(1).min(rest.len());
        let batch: Vec<ScoreRequest> = rest.drain(..take).collect();
        process_batch(replica, batch, graph, &snapshots.load(), metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Model snapshots are shared across replica threads by `Arc`, which
    /// requires every detector to be `Send + Sync` — all detector state is
    /// plain owned data (parameter matrices, seeds), enforced here at
    /// compile time.
    #[test]
    fn any_detector_is_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::AnyDetector>();
        assert_send_sync::<Snapshot>();
    }

    #[test]
    fn sticky_router_spreads_models_and_hashes_unknown() {
        let router = Router::new(4);
        let a = router.route("a", true);
        let b = router.route("b", true);
        let c = router.route("c", true);
        // Round-robin first-sight assignment: three models, three replicas.
        assert_eq!((a, b, c), (0, 1, 2));
        // Sticky thereafter.
        assert_eq!(router.route("b", true), b);
        assert_eq!(router.route("a", true), a);
        // Unknown names don't grow the table but route deterministically.
        let bogus = router.route("no-such-model", false);
        assert_eq!(router.route("no-such-model", false), bogus);
        assert_eq!(router.assignments.lock().unwrap().len(), 3);
        // A single replica short-circuits.
        let single = Router::new(1);
        assert_eq!(single.route("a", true), 0);
        assert_eq!(single.route("zzz", false), 0);
    }

    #[test]
    fn graph_spec_rebuilds_identically() {
        let mut rng = vgod_graph::seeded_rng(7);
        let mut g = vgod_graph::community_graph(
            &vgod_graph::CommunityGraphConfig::homogeneous(40, 2, 3.0, 0.8),
            &mut rng,
        );
        let x = vgod_graph::gaussian_mixture_attributes(g.labels().unwrap(), 4, 2.0, 0.5, &mut rng);
        g.set_attrs(x);
        let spec = GraphSpec::of(&g);
        let rebuilt = spec.build();
        assert_eq!(rebuilt.num_nodes(), g.num_nodes());
        assert_eq!(rebuilt.num_edges(), g.num_edges());
        assert_eq!(rebuilt.labels(), g.labels());
        assert_eq!(rebuilt.attrs().as_slice(), g.attrs().as_slice());
        for u in 0..g.num_nodes() as u32 {
            assert_eq!(rebuilt.neighbors(u), g.neighbors(u));
        }
    }
}
