//! The HTTP front door. On Linux this is the non-blocking epoll readiness
//! loop in [`crate::epoll`] — one thread, many keep-alive connections,
//! pipelining, zero-copy parsing. On other platforms it falls back to a
//! portable blocking accept loop (thread per connection, still keep-alive).
//!
//! Both fronts share the routing table below; `/score` is the only
//! asynchronous endpoint (it queues on the engine), everything else
//! answers immediately.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::engine::{Engine, ReplyFn, ScoreError, ScoreReply, ServeConfig, SubmitError};
use crate::json::{escape, Json};
use crate::metrics::Metrics;
use crate::registry::LookupError;
use crate::shard::{Coordinator, ShardSpec};
use crate::stream::{parse_update_body, StreamConfig, StreamEngine, UpdateReplyFn};

/// Running server: the scoring backend plus the connection-handling thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    loop_join: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// The scoring backend behind the HTTP front: the in-process replicated
/// [`Engine`], a [`Coordinator`] scatter-gathering over shard worker
/// processes, or the streaming [`StreamEngine`] with its mutable graph.
/// All expose the same submit surface, so the connection loops never know
/// which one they are driving.
pub(crate) enum Backend {
    Engine(Engine),
    Shards(Coordinator),
    Stream(StreamEngine),
}

impl Backend {
    pub(crate) fn try_submit_with(
        &self,
        model: String,
        version: Option<u64>,
        nodes: Option<Vec<u32>>,
        reply: ReplyFn,
    ) -> Result<(), SubmitError> {
        match self {
            Backend::Engine(e) => e.try_submit_with(model, version, nodes, reply),
            Backend::Shards(c) => c.try_submit_with(model, version, nodes, reply),
            Backend::Stream(s) => s.try_submit_with(model, version, nodes, reply),
        }
    }

    /// Queue a `POST /graph/update` batch. `Some(response)` if it failed
    /// synchronously (non-streaming backend, malformed body, shed);
    /// `None` when the mutation worker owns it and will call `reply`.
    pub(crate) fn try_submit_update(
        &self,
        body: &[u8],
        reply: UpdateReplyFn,
    ) -> Option<(u16, String)> {
        let Backend::Stream(s) = self else {
            return Some((
                404,
                "{\"error\":\"graph updates need a streaming server (vgod serve --streaming)\"}"
                    .into(),
            ));
        };
        let ops = match parse_update_body(body) {
            Ok(ops) => ops,
            Err(response) => return Some(response),
        };
        match s.try_submit_update(ops, reply) {
            Ok(()) => None,
            Err(e) => Some(submit_error_response(&e)),
        }
    }

    // Only the portable blocking front calls this; the epoll front uses
    // the callback path.
    #[cfg_attr(target_os = "linux", allow(dead_code))]
    pub(crate) fn try_submit(
        &self,
        model: String,
        version: Option<u64>,
        nodes: Option<Vec<u32>>,
    ) -> Result<std::sync::mpsc::Receiver<Result<ScoreReply, ScoreError>>, SubmitError> {
        match self {
            Backend::Engine(e) => e.try_submit(model, version, nodes),
            Backend::Shards(c) => c.try_submit(model, version, nodes),
            Backend::Stream(s) => s.try_submit(model, version, nodes),
        }
    }

    pub(crate) fn models(&self) -> Vec<crate::ModelInfo> {
        match self {
            Backend::Engine(e) => e.models(),
            Backend::Shards(c) => c.models(),
            Backend::Stream(s) => s.models(),
        }
    }

    pub(crate) fn num_nodes(&self) -> usize {
        match self {
            Backend::Engine(e) => e.num_nodes(),
            Backend::Shards(c) => c.num_nodes(),
            Backend::Stream(s) => s.num_nodes(),
        }
    }

    pub(crate) fn replicas(&self) -> usize {
        match self {
            Backend::Engine(e) => e.replicas(),
            Backend::Shards(c) => c.replicas(),
            Backend::Stream(s) => s.replicas(),
        }
    }

    pub(crate) fn metrics(&self) -> &Metrics {
        match self {
            Backend::Engine(e) => e.metrics(),
            Backend::Shards(c) => c.metrics(),
            Backend::Stream(s) => s.metrics(),
        }
    }

    /// The `GET /metrics` body — the coordinator appends partition and
    /// per-shard scatter sections, the streaming engine a `stream`
    /// section, to the engine-shaped counters.
    pub(crate) fn metrics_json(&self) -> String {
        match self {
            Backend::Engine(e) => e.metrics().snapshot().render_json(),
            Backend::Shards(c) => c.render_metrics_json(),
            Backend::Stream(s) => s.metrics_json(),
        }
    }

    pub(crate) fn shutdown(&self) {
        match self {
            Backend::Engine(e) => e.shutdown(),
            Backend::Shards(c) => c.shutdown(),
            Backend::Stream(s) => s.shutdown(),
        }
    }

    pub(crate) fn join(&self) {
        match self {
            Backend::Engine(e) => e.join(),
            Backend::Shards(c) => c.join(),
            Backend::Stream(s) => s.join(),
        }
    }
}

/// State shared between the connection loop and the handle.
pub(crate) struct Shared {
    pub(crate) engine: Backend,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

/// Start serving: load the graph and every checkpoint under `models_dir`,
/// bind `bind_addr` (use port `0` for an ephemeral port), and return once
/// the server is accepting connections.
///
/// Endpoints:
///
/// * `POST /score` — body `{"model": NAME, "version": V?, "nodes": [ID..]?}`;
///   omitted `nodes` scores the whole graph. `404` unknown model, `409`
///   version mismatch, `400` malformed body or node out of range, `503`
///   routed replica queue full or draining.
/// * `GET /models` — registered checkpoints with versions and kinds.
/// * `GET /healthz` — liveness.
/// * `GET /metrics` — counters, latency percentiles, batch-size histogram,
///   per-replica queue depths, connection gauges.
/// * `POST /shutdown` — graceful stop: queued requests drain, then the
///   engine and connection loop exit ([`ServerHandle::join`] returns).
///
/// Connections are HTTP/1.1 keep-alive; malformed requests (bad framing,
/// oversized bodies or headers) are answered with `400`/`413`/`431` and
/// the connection is closed.
pub fn serve(
    models_dir: &Path,
    graph_path: &Path,
    bind_addr: &str,
    cfg: ServeConfig,
) -> Result<ServerHandle, String> {
    let metrics = Arc::new(Metrics::new());
    let engine = Engine::start(
        models_dir.to_path_buf(),
        graph_path.to_path_buf(),
        cfg,
        metrics,
    )?;
    start_front(Backend::Engine(engine), bind_addr)
}

/// Start the sharded front: validate the model catalogue, connect the
/// [`Coordinator`] to the given shard workers (spawned by the caller — the
/// CLI forks one process per shard), bind, and serve the same endpoint set
/// as [`serve`]. Additional semantics over the single-process front:
///
/// * `/score` answers are reassembled from per-shard range scores and are
///   byte-identical to single-process output;
/// * a dead worker fails `/score` with
///   `503 {"error":"shard_down","shard":I,"cause":"..."}`;
/// * `/metrics` carries `partition` and `shards` sections (per-shard
///   latency, scatter byte counts, halo-exchange sizes);
/// * checkpoints never hot-reload (every model stays at version 1).
pub fn serve_sharded(
    manifest: vgod_graph::PartitionManifest,
    shards: Vec<ShardSpec>,
    models_dir: &Path,
    bind_addr: &str,
    queue_capacity: usize,
) -> Result<ServerHandle, String> {
    let metrics = Arc::new(Metrics::new());
    let coordinator = Coordinator::start(manifest, shards, models_dir, queue_capacity, metrics)?;
    start_front(Backend::Shards(coordinator), bind_addr)
}

/// Start the streaming front: load the graph and checkpoints like
/// [`serve`], but back the server with the mutable [`StreamEngine`] and
/// expose `POST /graph/update` alongside the usual endpoint set:
///
/// * mutation batches apply to a versioned overlay over the packed base
///   graph; each applied batch delta-rescores the dirty k-hop frontier for
///   every local-receptive-field model and atomically republishes scores
///   (global/transductive models fall back to a full rescore or refit per
///   their [`DeltaCapability`](vgod_eval::DeltaCapability));
/// * `/score` answers from the published snapshot and is byte-identical to
///   offline `vgod detect` on the current (mutated) graph for every
///   local-capability detector;
/// * `/metrics` gains a `stream` section (mutation throughput, overlay
///   size, frontier histogram, update latency, staleness);
/// * checkpoints never hot-reload (the version axis belongs to the graph).
pub fn serve_streaming(
    models_dir: &Path,
    graph_path: &Path,
    bind_addr: &str,
    cfg: StreamConfig,
) -> Result<ServerHandle, String> {
    let metrics = Arc::new(Metrics::new());
    let engine = StreamEngine::start(models_dir, graph_path, cfg, metrics)?;
    start_front(Backend::Stream(engine), bind_addr)
}

fn start_front(engine: Backend, bind_addr: &str) -> Result<ServerHandle, String> {
    let listener = TcpListener::bind(bind_addr).map_err(|e| format!("bind {bind_addr}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let shared = Arc::new(Shared {
        engine,
        shutdown: AtomicBool::new(false),
        addr,
    });
    let loop_join = spawn_front(listener, Arc::clone(&shared))?;
    Ok(ServerHandle {
        addr,
        shared,
        loop_join: Mutex::new(Some(loop_join)),
    })
}

#[cfg(target_os = "linux")]
fn spawn_front(
    listener: TcpListener,
    shared: Arc<Shared>,
) -> Result<std::thread::JoinHandle<()>, String> {
    let reactor = crate::epoll::Reactor::new(listener, shared)?;
    std::thread::Builder::new()
        .name("vgod-serve-epoll".into())
        .spawn(move || reactor.run())
        .map_err(|e| format!("spawning event loop: {e}"))
}

#[cfg(not(target_os = "linux"))]
fn spawn_front(
    listener: TcpListener,
    shared: Arc<Shared>,
) -> Result<std::thread::JoinHandle<()>, String> {
    std::thread::Builder::new()
        .name("vgod-serve-accept".into())
        .spawn(move || fallback::accept_loop(listener, shared))
        .map_err(|e| format!("spawning accept thread: {e}"))
}

impl ServerHandle {
    /// The bound address (resolves port `0` to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine's metrics.
    pub fn metrics(&self) -> crate::MetricsSnapshot {
        self.shared.engine.metrics().snapshot()
    }

    /// The currently registered models (name, version, kind).
    pub fn models(&self) -> Vec<crate::ModelInfo> {
        self.shared.engine.models()
    }

    /// Number of scoring replicas the engine resolved to.
    pub fn replicas(&self) -> usize {
        self.shared.engine.replicas()
    }

    /// Trigger the same graceful stop as `POST /shutdown`. Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Block until the connection loop and engine have stopped (i.e. until
    /// shutdown was requested via HTTP or [`ServerHandle::shutdown`]).
    pub fn join(&self) {
        if let Some(handle) = self.loop_join.lock().unwrap().take() {
            let _ = handle.join();
        }
        self.shared.engine.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        // `join` re-raises a streaming thread's panic, already logged; a
        // drop must not panic, so only an explicit `join` surfaces it.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.join()));
    }
}

impl Shared {
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Drain the engine first (it answers everything already queued —
        // replies land through the normal completion path), then poke the
        // connection loop awake so it notices the flag and starts closing.
        self.engine.shutdown();
        let _ = TcpStream::connect(self.addr);
    }
}

/// Route everything except `POST /score` and `POST /graph/update` (which
/// are asynchronous). `None` means "this request queues on the backend" —
/// the caller dispatches on the path.
pub(crate) fn route_immediate(method: &str, path: &str, shared: &Shared) -> Option<(u16, String)> {
    Some(match (method, path) {
        ("POST", "/score") | ("POST", "/graph/update") => return None,
        ("GET", "/healthz") => (200, "{\"status\":\"ok\"}".into()),
        ("GET", "/models") => {
            let entries: Vec<String> = shared
                .engine
                .models()
                .iter()
                .map(|m| {
                    format!(
                        "{{\"name\":\"{}\",\"version\":{},\"kind\":\"{}\"}}",
                        escape(&m.name),
                        m.version,
                        escape(&m.kind)
                    )
                })
                .collect();
            (
                200,
                format!(
                    "{{\"graph_nodes\":{},\"models\":[{}]}}",
                    shared.engine.num_nodes(),
                    entries.join(",")
                ),
            )
        }
        ("GET", "/metrics") => (200, shared.engine.metrics_json()),
        ("POST", "/shutdown") => {
            shared.begin_shutdown();
            (200, "{\"status\":\"shutting down\"}".into())
        }
        ("GET" | "POST", _) => (404, "{\"error\":\"no such endpoint\"}".into()),
        _ => (405, "{\"error\":\"method not allowed\"}".into()),
    })
}

/// A validated `/score` body: `(model, pinned version, node subset)`.
pub(crate) type ScoreParams = (String, Option<u64>, Option<Vec<u32>>);

/// Validate a `/score` body into [`ScoreParams`], or the `400` response
/// describing what is wrong with it.
pub(crate) fn parse_score_body(body: &[u8]) -> Result<ScoreParams, (u16, String)> {
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
    let nodes = match parsed.get("nodes") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let Some(items) = v.as_arr() else {
                return Err((400, "{\"error\":\"\\\"nodes\\\" must be an array\"}".into()));
            };
            let mut ids = Vec::with_capacity(items.len());
            for item in items {
                match item.as_u64().filter(|&u| u <= u32::MAX as u64) {
                    Some(u) => ids.push(u as u32),
                    None => {
                        return Err((
                            400,
                            "{\"error\":\"\\\"nodes\\\" must contain node ids\"}".into(),
                        ))
                    }
                }
            }
            Some(ids)
        }
    };
    Ok((model.to_string(), version, nodes))
}

/// The response for a request the engine refused to queue.
pub(crate) fn submit_error_response(err: &SubmitError) -> (u16, String) {
    match err {
        SubmitError::Overloaded => (503, "{\"error\":\"queue full\"}".into()),
        SubmitError::ShuttingDown => (503, "{\"error\":\"shutting down\"}".into()),
    }
}

/// The response for a completed (scored or failed) request.
pub(crate) fn score_result_response(result: Result<ScoreReply, ScoreError>) -> (u16, String) {
    match result {
        Ok(reply) => (200, render_reply(&reply)),
        Err(ScoreError::ShardDown { shard, cause }) => (
            503,
            format!(
                "{{\"error\":\"shard_down\",\"shard\":{shard},\"cause\":\"{}\"}}",
                escape(&cause)
            ),
        ),
        Err(e) => {
            let status = match &e {
                ScoreError::Lookup(LookupError::UnknownModel(_)) => 404,
                ScoreError::Lookup(LookupError::VersionMismatch { .. }) => 409,
                ScoreError::NodeOutOfRange { .. } => 400,
                ScoreError::ShardDown { .. } => unreachable!(),
            };
            (
                status,
                format!("{{\"error\":\"{}\"}}", escape(&e.to_string())),
            )
        }
    }
}

/// Response body. Scores use `f32`'s `Display` (shortest round-trip
/// rendering) — the same formatting offline score files use, which is what
/// makes served scores byte-comparable to `vgod detect` output.
fn render_reply(reply: &ScoreReply) -> String {
    let scores: Vec<String> = reply.scores.iter().map(|s| s.to_string()).collect();
    let nodes = match &reply.nodes {
        Some(nodes) => {
            let ids: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
            format!("\"nodes\":[{}],", ids.join(","))
        }
        None => String::new(),
    };
    format!(
        "{{\"model\":\"{}\",\"version\":{},{}\"scores\":[{}]}}",
        escape(&reply.model),
        reply.version,
        nodes,
        scores.join(",")
    )
}

/// Portable blocking front: accept loop + thread per connection, with
/// HTTP/1.1 keep-alive. Compiled only where epoll is unavailable.
#[cfg(not(target_os = "linux"))]
mod fallback {
    use super::*;
    use crate::http::{read_request, write_response};
    use std::io::BufReader;

    pub(super) fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
        for stream in listener.incoming() {
            if shared.is_shutting_down() {
                return;
            }
            let Ok(stream) = stream else { continue };
            let conn_shared = Arc::clone(&shared);
            let _ = std::thread::Builder::new()
                .name("vgod-serve-conn".into())
                .spawn(move || handle_connection(stream, conn_shared));
        }
    }

    fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
        shared.engine.metrics().conn_opened();
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => {
                shared.engine.metrics().conn_closed();
                return;
            }
        });
        let mut writer = stream;
        loop {
            match read_request(&mut reader) {
                Ok(None) => break,
                Ok(Some((method, path, body, keep_alive))) => {
                    let (status, response) = respond(&method, &path, &body, &shared);
                    let keep = keep_alive && !shared.is_shutting_down();
                    if write_response(&mut writer, status, &response, keep).is_err() || !keep {
                        break;
                    }
                }
                Err((status, message)) => {
                    let body = format!("{{\"error\":\"{}\"}}", escape(&message));
                    let _ = write_response(&mut writer, status, &body, false);
                    break;
                }
            }
        }
        shared.engine.metrics().conn_closed();
    }

    fn respond(method: &str, path: &str, body: &[u8], shared: &Shared) -> (u16, String) {
        if let Some(immediate) = route_immediate(method, path, shared) {
            return immediate;
        }
        if path == "/graph/update" {
            let (tx, rx) = std::sync::mpsc::channel();
            let reply = Box::new(move |status, body| {
                let _ = tx.send((status, body));
            });
            return match shared.engine.try_submit_update(body, reply) {
                Some(response) => response,
                None => rx
                    .recv()
                    .unwrap_or((500, "{\"error\":\"engine dropped the update\"}".into())),
            };
        }
        let (model, version, nodes) = match parse_score_body(body) {
            Ok(parts) => parts,
            Err(response) => return response,
        };
        match shared.engine.try_submit(model, version, nodes) {
            Err(e) => submit_error_response(&e),
            Ok(reply_rx) => match reply_rx.recv() {
                Ok(result) => score_result_response(result),
                Err(_) => (500, "{\"error\":\"engine dropped the request\"}".into()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http;
    use crate::AnyDetector;
    use std::path::PathBuf;
    use vgod_baselines::{DegNorm, RandomDetector};
    use vgod_eval::OutlierDetector as _;
    use vgod_graph::{save_graph, seeded_rng};

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vgod_server_{tag}_{}", std::process::id()))
    }

    fn fixture(tag: &str) -> (PathBuf, PathBuf, vgod_graph::AttributedGraph) {
        let mut rng = seeded_rng(21);
        let mut g = vgod_graph::community_graph(
            &vgod_graph::CommunityGraphConfig::homogeneous(60, 2, 4.0, 0.9),
            &mut rng,
        );
        let x = vgod_graph::gaussian_mixture_attributes(g.labels().unwrap(), 5, 3.0, 0.5, &mut rng);
        g.set_attrs(x);
        let dir = tmp(&format!("{tag}_models"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        AnyDetector::DegNorm(DegNorm)
            .save_file(&dir.join("degnorm.ckpt"))
            .unwrap();
        AnyDetector::Random(RandomDetector::new(3))
            .save_file(&dir.join("rand.ckpt"))
            .unwrap();
        let graph_path = tmp(&format!("{tag}_graph.txt"));
        save_graph(&g, graph_path.display().to_string()).unwrap();
        (dir, graph_path, g)
    }

    #[test]
    fn endpoints_respond() {
        let (models, graph_path, g) = fixture("endpoints");
        let handle = serve(&models, &graph_path, "127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = handle.addr();

        let (status, body) = http::get(addr, "/healthz").unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));

        let (status, body) = http::get(addr, "/models").unwrap();
        assert_eq!(status, 200);
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("graph_nodes").unwrap().as_u64(), Some(60));
        assert_eq!(v.get("models").unwrap().as_arr().unwrap().len(), 2);

        let (status, body) =
            http::post(addr, "/score", r#"{"model":"degnorm","nodes":[0,5]}"#).unwrap();
        assert_eq!(status, 200, "{body}");
        let expected = DegNorm.score(&g).combined;
        let v = Json::parse(&body).unwrap();
        let scored: Vec<f64> = v
            .get("scores")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|s| s.as_f64().unwrap())
            .collect();
        assert_eq!(scored.len(), 2);
        assert_eq!(scored[0] as f32, expected[0]);
        assert_eq!(scored[1] as f32, expected[5]);

        // Error mapping.
        let (status, _) = http::post(addr, "/score", r#"{"model":"nope"}"#).unwrap();
        assert_eq!(status, 404);
        let (status, _) = http::post(addr, "/score", r#"{"model":"degnorm","version":9}"#).unwrap();
        assert_eq!(status, 409);
        let (status, _) =
            http::post(addr, "/score", r#"{"model":"degnorm","nodes":[999]}"#).unwrap();
        assert_eq!(status, 400);
        let (status, _) = http::post(addr, "/score", "{oops").unwrap();
        assert_eq!(status, 400);
        let (status, _) = http::get(addr, "/nothing").unwrap();
        assert_eq!(status, 404);

        let (status, body) = http::get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        let m = Json::parse(&body).unwrap();
        assert!(m.get("requests").unwrap().as_u64().unwrap() >= 1);
        assert_eq!(
            m.get("replica_queue_depth")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            handle.replicas()
        );
        assert!(
            m.get("connections")
                .unwrap()
                .get("accepted")
                .unwrap()
                .as_u64()
                .unwrap()
                >= 1
        );

        let (status, _) = http::post(addr, "/shutdown", "").unwrap();
        assert_eq!(status, 200);
        handle.join();
        let _ = std::fs::remove_dir_all(&models);
        let _ = std::fs::remove_file(&graph_path);
    }

    #[test]
    fn keep_alive_and_pipelining_on_one_connection() {
        let (models, graph_path, g) = fixture("keepalive");
        let handle = serve(&models, &graph_path, "127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = handle.addr();
        let expected = DegNorm.score(&g).combined;

        let mut client = http::Client::connect(addr).unwrap();
        // Sequential keep-alive requests on one connection.
        for node in [0u32, 7, 13] {
            let (status, body) = client
                .request(
                    "POST",
                    "/score",
                    Some(&format!("{{\"model\":\"degnorm\",\"nodes\":[{node}]}}")),
                )
                .unwrap();
            assert_eq!(status, 200, "{body}");
            assert!(body.contains(&format!("\"scores\":[{}]", expected[node as usize])));
        }
        // Pipelined wave: many requests in one write, responses in order.
        for node in 0..16u32 {
            client.send(
                "POST",
                "/score",
                Some(&format!("{{\"model\":\"degnorm\",\"nodes\":[{node}]}}")),
            );
        }
        client.send("GET", "/healthz", None);
        client.flush().unwrap();
        for node in 0..16u32 {
            let (status, body) = client.recv().unwrap();
            assert_eq!(status, 200);
            assert!(
                body.contains(&format!("\"nodes\":[{node}]")),
                "responses must come back in request order: {body}"
            );
            assert!(body.contains(&format!("\"scores\":[{}]", expected[node as usize])));
        }
        let (status, _) = client.recv().unwrap();
        assert_eq!(status, 200);

        // One connection stayed open throughout.
        let snapshot = handle.metrics();
        assert!(snapshot.conns_active >= 1);

        handle.shutdown();
        handle.join();
        let _ = std::fs::remove_dir_all(&models);
        let _ = std::fs::remove_file(&graph_path);
    }

    #[test]
    fn malformed_framing_gets_status_and_close() {
        let (models, graph_path, _) = fixture("framing");
        let handle = serve(&models, &graph_path, "127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = handle.addr();

        let mut client = http::Client::connect(addr).unwrap();
        // Oversized declared body → 413 before the body is sent.
        {
            use std::io::Write as _;
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            write!(
                raw,
                "POST /score HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                crate::http::MAX_BODY + 1
            )
            .unwrap();
            raw.flush().unwrap();
            let mut resp = String::new();
            use std::io::Read as _;
            raw.set_read_timeout(Some(std::time::Duration::from_secs(30)))
                .unwrap();
            raw.read_to_string(&mut resp).unwrap();
            assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
            assert!(resp.contains("Connection: close"), "{resp}");
        }
        // Garbage request line → 400 (and the server survives).
        {
            use std::io::{Read as _, Write as _};
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            raw.write_all(b"complete nonsense\r\n\r\n").unwrap();
            raw.flush().unwrap();
            let mut resp = String::new();
            raw.set_read_timeout(Some(std::time::Duration::from_secs(30)))
                .unwrap();
            raw.read_to_string(&mut resp).unwrap();
            assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        }
        // The keep-alive client from before still works.
        let (status, _) = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);

        handle.shutdown();
        handle.join();
        let _ = std::fs::remove_dir_all(&models);
        let _ = std::fs::remove_file(&graph_path);
    }

    #[test]
    fn startup_failures_are_synchronous() {
        let missing = tmp("no_such_dir");
        assert!(serve(
            &missing,
            &missing.join("graph.txt"),
            "127.0.0.1:0",
            ServeConfig::default()
        )
        .is_err());
    }
}
