//! Single-threaded HTTP/1.1 load generator.
//!
//! One thread drives every connection through `ppoll`, whose timeout has
//! nanosecond resolution, so open-loop requests leave on their due time
//! and replies are stamped when they arrive. A phase is either
//!
//! * **open**: each connection sends its requests at fixed due times,
//!   pipelined, regardless of outstanding replies; latency is timed from
//!   the due time, so a stall also counts against the requests queued
//!   behind it; or
//! * **closed**: each connection keeps `window` requests in flight and
//!   sends the next one when a reply arrives; latency is timed from the
//!   send.
//!
//! A connection of a closed phase may be marked `"open": true`; it then
//! keeps its fixed due times beside the closed connections, so a closed
//! loop can find one class's saturation under another class's offered
//! load.
//!
//! A reply other than `200`, a broken connection and a reply later than
//! the phase timeout count as failures. When `expect` names offline score
//! files, every `200` reply to `/score` must carry exactly the score
//! tokens those files hold for the requested rows.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use vgod_serve::json::{escape, Json};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// Wait until a descriptor in `fds` is ready or `timeout` passes.
fn wait_ready(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // pollfd records and its length is passed alongside; `ts` outlives the
    // call; a null signal mask means "keep the current mask".
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

struct Request {
    due_s: f64,
    body: String,
}

struct ConnPlan {
    class: String,
    path: String,
    /// Sends at due times even in a closed phase.
    open: bool,
    requests: Vec<Request>,
}

struct Phase {
    name: String,
    closed: bool,
    window: usize,
    duration_s: f64,
    timeout_s: f64,
    conns: Vec<ConnPlan>,
}

/// One request's fate. Times are seconds from the phase start. Records
/// of one class are kept in due order.
struct Record {
    class: String,
    due: f64,
    sent: f64,
    done: f64,
    status: u16,
    failure: Option<&'static str>,
}

struct Conn {
    stream: Option<TcpStream>,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    /// Record index of every request awaiting a reply, oldest first.
    outstanding: VecDeque<usize>,
    next: usize,
}

/// A load plan, as `perfbench/run.py` writes it.
struct Plan {
    addr: String,
    phases: Vec<Phase>,
    /// Where to write a sample of the raw traffic, if anywhere.
    record: Option<String>,
    /// Offline score file per model, for checking `/score` replies.
    expect: HashMap<String, String>,
}

fn parse_plan(text: &str) -> Result<Plan, String> {
    let plan = Json::parse(text)?;
    let addr = plan
        .get("addr")
        .and_then(Json::as_str)
        .ok_or("plan: addr")?
        .to_string();
    let record = plan
        .get("record")
        .and_then(Json::as_str)
        .map(str::to_string);
    let mut expect = HashMap::new();
    if let Some(Json::Obj(members)) = plan.get("expect") {
        for (model, path) in members {
            expect.insert(
                model.clone(),
                path.as_str().ok_or("plan: expect")?.to_string(),
            );
        }
    }
    let mut phases = Vec::new();
    for p in plan
        .get("phases")
        .and_then(Json::as_arr)
        .ok_or("plan: phases")?
    {
        let num = |key: &str| p.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let mut conns = Vec::new();
        for c in p.get("conns").and_then(Json::as_arr).ok_or("plan: conns")? {
            let mut requests = Vec::new();
            for r in c
                .get("requests")
                .and_then(Json::as_arr)
                .ok_or("plan: requests")?
            {
                let pair = r.as_arr().ok_or("plan: request")?;
                requests.push(Request {
                    due_s: pair[0].as_f64().ok_or("plan: due")?,
                    body: pair[1].as_str().ok_or("plan: body")?.to_string(),
                });
            }
            conns.push(ConnPlan {
                class: c
                    .get("class")
                    .and_then(Json::as_str)
                    .ok_or("plan: class")?
                    .to_string(),
                path: c
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or("plan: path")?
                    .to_string(),
                open: matches!(c.get("open"), Some(Json::Bool(true))),
                requests,
            });
        }
        phases.push(Phase {
            name: p
                .get("name")
                .and_then(Json::as_str)
                .ok_or("plan: name")?
                .to_string(),
            closed: p.get("kind").and_then(Json::as_str) == Some("closed"),
            window: num("window").max(1.0) as usize,
            duration_s: num("duration_s"),
            timeout_s: num("timeout_s").max(0.1),
            conns,
        });
    }
    Ok(Plan {
        addr,
        phases,
        record,
        expect,
    })
}

/// Score tokens of an offline score file (`node score` lines), as written.
fn read_tokens(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut tokens = Vec::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let (Some(_), Some(score)) = (parts.next(), parts.next()) else {
            continue;
        };
        tokens.push(score.to_string());
    }
    Ok(tokens)
}

/// Split one complete HTTP response off the front of `buf`:
/// `(status, body, consumed)`.
fn take_response(buf: &[u8]) -> Option<(u16, String, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    let len = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse::<usize>().ok())
                .flatten()
        })
        .unwrap_or(0);
    if buf.len() < head_end + len {
        return None;
    }
    let body = String::from_utf8_lossy(&buf[head_end..head_end + len]).into_owned();
    Some((status, body, head_end + len))
}

/// The comma-separated items of the JSON array that follows `key`.
fn array_after<'a>(body: &'a str, key: &str) -> Option<Vec<&'a str>> {
    let start = body.find(key)? + key.len();
    let end = body[start..].find(']')? + start;
    let raw = &body[start..end];
    Some(if raw.is_empty() {
        Vec::new()
    } else {
        raw.split(',').collect()
    })
}

/// Whether a `/score` reply carries exactly the offline tokens of its rows.
fn reply_matches(body: &str, expect: &HashMap<String, Vec<String>>) -> bool {
    let Some(model) = body
        .strip_prefix("{\"model\":\"")
        .and_then(|rest| rest.split('"').next())
    else {
        return false;
    };
    let Some(tokens) = expect.get(model) else {
        return true;
    };
    let (Some(nodes), Some(scores)) = (
        array_after(body, "\"nodes\":["),
        array_after(body, "\"scores\":["),
    ) else {
        return false;
    };
    nodes.len() == scores.len()
        && nodes.iter().zip(&scores).all(|(node, score)| {
            node.parse::<usize>()
                .ok()
                .and_then(|u| tokens.get(u))
                .is_some_and(|t| t == score)
        })
}

fn render_request(host: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

struct Recorder {
    requests: Vec<String>,
    replies: Vec<String>,
    cap: usize,
}

fn run_phase(
    addr: &str,
    phase: &Phase,
    expect: &HashMap<String, Vec<String>>,
    recorder: &mut Recorder,
    records: &mut Vec<Record>,
) -> Result<f64, String> {
    let mut conns = Vec::new();
    for _ in &phase.conns {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        conns.push(Conn {
            stream: Some(stream),
            wbuf: Vec::new(),
            rbuf: Vec::new(),
            outstanding: VecDeque::new(),
            next: 0,
        });
    }
    let first = records.len();
    let start = Instant::now();
    let t = || start.elapsed().as_secs_f64();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        let now = t();
        // Send everything due (open) or refill each window (closed).
        for (c, plan) in conns.iter_mut().zip(&phase.conns) {
            let closed = phase.closed && !plan.open;
            while let Some(req) = plan.requests.get(c.next) {
                let go = if closed {
                    c.outstanding.len() < phase.window && now < phase.duration_s
                } else {
                    req.due_s <= now
                };
                if !go {
                    break;
                }
                c.next += 1;
                let due = if closed { now } else { req.due_s };
                records.push(Record {
                    class: plan.class.clone(),
                    due,
                    sent: now,
                    done: now,
                    status: 0,
                    failure: None,
                });
                if c.stream.is_none() {
                    records.last_mut().expect("just pushed").failure = Some("connection");
                    continue;
                }
                let bytes = render_request(addr, &plan.path, &req.body);
                if recorder.requests.len() < recorder.cap {
                    recorder
                        .requests
                        .push(String::from_utf8_lossy(&bytes).into_owned());
                }
                c.wbuf.extend_from_slice(&bytes);
                c.outstanding.push_back(records.len() - 1);
            }
        }
        // Flush pending writes without blocking.
        for c in conns.iter_mut() {
            let Some(stream) = c.stream.as_mut() else {
                continue;
            };
            while !c.wbuf.is_empty() {
                match stream.write(&c.wbuf) {
                    Ok(0) => break,
                    Ok(n) => {
                        c.wbuf.drain(..n);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        fail_conn(c, records, "connection", t());
                        break;
                    }
                }
            }
        }
        // Expire requests older than the phase timeout: the connection
        // cannot be re-synchronised, so it fails as a whole.
        let now = t();
        for c in conns.iter_mut() {
            if let Some(&oldest) = c.outstanding.front() {
                if now - records[oldest].due > phase.timeout_s {
                    fail_conn(c, records, "timeout", now);
                }
            }
        }
        let all_sent = conns.iter().zip(&phase.conns).all(|(c, plan)| {
            c.next >= plan.requests.len() || (phase.closed && now >= phase.duration_s)
        });
        if all_sent && conns.iter().all(|c| c.outstanding.is_empty()) {
            break;
        }
        // Sleep until the next due request or a reply, whichever is first.
        let mut wait = 0.05f64;
        for (c, plan) in conns.iter().zip(&phase.conns) {
            if phase.closed && !plan.open {
                continue;
            }
            if let Some(req) = plan.requests.get(c.next) {
                wait = wait.min((req.due_s - now).max(0.0));
            }
        }
        let mut fds: Vec<PollFd> = conns
            .iter()
            .filter_map(|c| c.stream.as_ref().map(|s| (s, c)))
            .map(|(s, c)| PollFd {
                fd: s.as_raw_fd(),
                events: POLLIN | if c.wbuf.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            })
            .collect();
        if wait > 0.0 {
            wait_ready(&mut fds, Duration::from_secs_f64(wait));
        }
        // Drain every readable connection.
        for c in conns.iter_mut() {
            while let Some(stream) = c.stream.as_mut() {
                match stream.read(&mut chunk) {
                    Ok(0) => {
                        fail_conn(c, records, "connection", t());
                        break;
                    }
                    Ok(n) => c.rbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        fail_conn(c, records, "connection", t());
                        break;
                    }
                }
            }
            let done = t();
            while let Some((status, body, used)) = take_response(&c.rbuf) {
                c.rbuf.drain(..used);
                let Some(idx) = c.outstanding.pop_front() else {
                    break;
                };
                let rec = &mut records[idx];
                rec.done = done;
                rec.status = status;
                rec.failure = match status {
                    200 if !expect.is_empty()
                        && body.starts_with("{\"model\"")
                        && !reply_matches(&body, expect) =>
                    {
                        Some("mismatch")
                    }
                    200 => None,
                    503 => Some("503"),
                    429 => Some("429"),
                    _ => Some("http_error"),
                };
                if recorder.replies.len() < recorder.cap {
                    recorder.replies.push(body);
                }
            }
        }
    }
    let elapsed = t();
    for rec in &mut records[first..] {
        if rec.failure.is_none() && rec.status == 0 {
            rec.failure = Some("timeout");
        }
    }
    Ok(elapsed)
}

fn fail_conn(c: &mut Conn, records: &mut [Record], why: &'static str, now: f64) {
    c.stream = None;
    for idx in c.outstanding.drain(..) {
        records[idx].failure = Some(why);
        records[idx].done = now;
    }
    c.wbuf.clear();
}

fn threads_in_process() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:").map(|v| v.trim().parse().ok()))
                .flatten()
        })
        .unwrap_or(0)
}

fn floats(v: impl Iterator<Item = f64>) -> String {
    let items: Vec<String> = v.map(|x| format!("{x:.4}")).collect();
    format!("[{}]", items.join(","))
}

/// `perfbench-harness loadgen --plan FILE --out FILE`
pub fn main(plan_path: &str, out_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(plan_path).map_err(|e| format!("{plan_path}: {e}"))?;
    let plan = parse_plan(&text)?;
    let mut expect = HashMap::new();
    for (model, path) in &plan.expect {
        expect.insert(model.clone(), read_tokens(path)?);
    }
    let mut recorder = Recorder {
        requests: Vec::new(),
        replies: Vec::new(),
        cap: 2000,
    };
    let mut out = String::from("{\"phases\":[");
    let mut max_conns = 0;
    for (i, phase) in plan.phases.iter().enumerate() {
        max_conns = max_conns.max(phase.conns.len());
        let mut records = Vec::new();
        let elapsed = run_phase(&plan.addr, phase, &expect, &mut recorder, &mut records)?;
        let mut classes: Vec<&str> = phase.conns.iter().map(|c| c.class.as_str()).collect();
        classes.dedup();
        let mut class_json = Vec::new();
        for class in classes {
            let recs: Vec<&Record> = records.iter().filter(|r| r.class == class).collect();
            let mut failures: HashMap<&str, usize> = HashMap::new();
            for r in &recs {
                if let Some(f) = r.failure {
                    *failures.entry(f).or_default() += 1;
                }
            }
            let mut failure_items: Vec<String> = failures
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            failure_items.sort();
            // A failed request misses every latency limit: it enters the
            // distribution at the phase timeout.
            let latency = recs.iter().map(|r| {
                if r.failure.is_some() {
                    phase.timeout_s * 1e3
                } else {
                    (r.done - r.due) * 1e3
                }
            });
            let late = recs.iter().map(|r| (r.sent - r.due) * 1e3);
            let done = recs.iter().filter(|r| r.failure.is_none()).map(|r| r.done);
            class_json.push(format!(
                "{{\"class\":\"{}\",\"attempted\":{},\"failed\":{},\"failures\":{{{}}},\"latency_ms\":{},\"late_ms\":{},\"done_s\":{}}}",
                escape(class),
                recs.len(),
                recs.iter().filter(|r| r.failure.is_some()).count(),
                failure_items.join(","),
                floats(latency),
                floats(late),
                floats(done)
            ));
        }
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"kind\":\"{}\",\"elapsed_s\":{elapsed:.6},\"classes\":[{}]}}",
            escape(&phase.name),
            if phase.closed { "closed" } else { "open" },
            class_json.join(",")
        ));
    }
    out.push_str(&format!(
        "],\"threads\":{},\"connections\":{max_conns}}}\n",
        threads_in_process()
    ));
    std::fs::write(out_path, out).map_err(|e| format!("{out_path}: {e}"))?;
    if let Some(path) = plan.record {
        let quote = |v: &[String]| -> String {
            let items: Vec<String> = v.iter().map(|s| format!("\"{}\"", escape(s))).collect();
            format!("[{}]", items.join(","))
        };
        let body = format!(
            "{{\"requests\":{},\"replies\":{}}}\n",
            quote(&recorder.requests),
            quote(&recorder.replies)
        );
        std::fs::write(&path, body).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}
