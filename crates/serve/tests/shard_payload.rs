//! A shard worker answering with a malformed range payload fails that one
//! request with a typed `503 shard_down`, and the coordinator keeps
//! serving: the merge thread never sees the bad ranges.

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use vgod_baselines::Deg;
use vgod_graph::{PartitionManifest, PartitionMode, SamplingConfig, ShardMeta};
use vgod_serve::json::Json;
use vgod_serve::{http, serve_sharded, ShardSpec};

const NODES: u32 = 8;

/// A range payload for the whole graph carrying `rows` scores.
fn payload(rows: u32) -> String {
    let scores: Vec<String> = (0..rows).map(|u| format!("{u}.5")).collect();
    format!(
        "{{\"model\":\"deg\",\"version\":1,\"shard\":0,\"lo\":0,\"hi\":{NODES},\
         \"merge\":\"concat\",\"combined\":[{}],\"structural\":null,\"contextual\":null}}",
        scores.join(",")
    )
}

/// Serve one keep-alive connection: healthy, but the first score answer
/// is three rows short.
fn serve_fake(stream: TcpStream, scored: &AtomicUsize) {
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    while let Ok(Some((method, path, _, keep_alive))) = http::read_request(&mut reader) {
        let body = match (method.as_str(), path.as_str()) {
            ("POST", "/shard/score") => match scored.fetch_add(1, Ordering::SeqCst) {
                0 => payload(NODES - 3),
                _ => payload(NODES),
            },
            _ => "{\"status\":\"ok\"}".to_string(),
        };
        if http::write_response(&mut writer, 200, &body, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// A fake shard worker on `listener`, one thread per connection, until
/// `stop` is set and one more connection arrives. Joins every connection
/// and returns how many score requests it answered.
fn fake_worker(listener: TcpListener, stop: Arc<AtomicBool>) -> JoinHandle<usize> {
    std::thread::spawn(move || {
        let scored = Arc::new(AtomicUsize::new(0));
        let mut connections = Vec::new();
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream.unwrap();
            let scored = Arc::clone(&scored);
            connections.push(std::thread::spawn(move || serve_fake(stream, &scored)));
        }
        for connection in connections {
            connection.join().unwrap();
        }
        scored.load(Ordering::SeqCst)
    })
}

#[test]
fn short_shard_payload_is_a_shard_down_and_the_next_request_is_answered() {
    let dir = std::env::temp_dir().join(format!("vgod_shard_payload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    Deg.save(&mut std::fs::File::create(dir.join("deg.ckpt")).unwrap())
        .unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let worker = fake_worker(listener, Arc::clone(&stop));

    let meta = ShardMeta {
        index: 0,
        lo: 0,
        hi: NODES,
        closure: u64::from(NODES),
        ghosts: 0,
        cross_edges: 0,
        halo_bytes: 0,
    };
    let manifest = PartitionManifest {
        num_nodes: NODES as usize,
        num_edges: 0,
        num_attrs: 1,
        mode: PartitionMode::FullCopy,
        sampling: SamplingConfig::default(),
        shards: vec![meta.clone()],
    };
    let front = serve_sharded(
        manifest,
        vec![ShardSpec { addr, meta }],
        &dir,
        "127.0.0.1:0",
        8,
    )
    .unwrap();

    let request = r#"{"model":"deg"}"#;
    let (status, body) = http::post(front.addr(), "/score", request).unwrap();
    assert_eq!(status, 503, "{body}");
    let err = Json::parse(&body).unwrap();
    assert_eq!(err.get("error").unwrap().as_str(), Some("shard_down"));
    assert_eq!(err.get("shard").unwrap().as_u64(), Some(0));
    let cause = err.get("cause").unwrap().as_str().unwrap();
    assert!(cause.starts_with("bad payload:"), "{cause}");

    // The merge thread survived: the retry scatters again and merges.
    let (status, body) = http::post(front.addr(), "/score", request).unwrap();
    assert_eq!(status, 200, "{body}");
    let reply = Json::parse(&body).unwrap();
    let scores: Vec<f64> = reply
        .get("scores")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    assert_eq!(
        scores,
        (0..NODES).map(|u| f64::from(u) + 0.5).collect::<Vec<_>>()
    );

    let (status, _) = http::post(front.addr(), "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    front.join();
    // The coordinator has closed its connections; wake the acceptor.
    stop.store(true, Ordering::SeqCst);
    drop(TcpStream::connect(addr).unwrap());
    assert_eq!(worker.join().unwrap(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
