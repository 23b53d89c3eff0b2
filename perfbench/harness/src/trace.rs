//! In-memory span recorder.
//!
//! The benchmark wraps each public call into a workspace module in a span:
//! a name (`layer.call`), start and end, the enclosing span, and the id of
//! the request it served. Kernel spans also carry an operation count and
//! the bytes they move, both computed from the operand shapes, never
//! measured. Spans stay in memory until [`Tracer::write_json`] writes them
//! out once at the end. A disabled tracer records nothing and costs one
//! branch per call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
    ops: f64,
    bytes: f64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    request: Cell<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            request: Cell::new(0),
        }
    }

    /// Tag every span opened from now on with request `id`.
    pub fn set_request(&self, id: u64) {
        self.request.set(id);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.kernel(name, 0.0, 0.0, f)
    }

    /// Run `f` inside a span that also records `ops` operations and
    /// `bytes` bytes moved, as computed from the operand shapes.
    pub fn kernel<R>(&self, name: &'static str, ops: f64, bytes: f64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                request: self.request.get(),
                ops,
                bytes,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Record a span that was timed elsewhere (for example between two
    /// callback stamps), as a child of the innermost open span.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let parent = self.open.borrow().last().copied();
        self.spans.borrow_mut().push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            request: self.request.get(),
            ops: 0.0,
            bytes: 0.0,
        });
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Median duration of the spans called `name`, in ns (0 when none).
    pub fn median_ns(&self, name: &str) -> f64 {
        median(self.durations_ns(name))
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time per layer (the name up to the first `.`): each span's
    /// duration minus the part its child spans cover, summed by layer.
    pub fn self_ns_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *by_layer.entry(layer).or_insert(0.0) += own as f64;
        }
        by_layer
    }

    /// Write every span plus the per-layer self time and `summary` (already
    /// rendered JSON object members) as one JSON document.
    pub fn write_json(&self, path: &str, summary: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 * self.len() + 256);
        out.push_str("{\"summary\":{");
        out.push_str(summary);
        out.push_str("},\"self_ms_by_layer\":{");
        let layers: Vec<String> = self
            .self_ns_by_layer()
            .iter()
            .map(|(layer, ns)| format!("\"{layer}\":{:.3}", ns / 1e6))
            .collect();
        out.push_str(&layers.join(","));
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.request
            );
            if s.ops > 0.0 || s.bytes > 0.0 {
                let _ = write!(out, ",\"ops\":{},\"bytes\":{}", s.ops, s.bytes);
            }
            out.push('}');
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// Median of `v` (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
