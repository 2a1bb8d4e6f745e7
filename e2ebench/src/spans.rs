//! In-memory spans recorded around the benchmark's own calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was
//! created), the span that encloses it, and the id of the request it belongs
//! to. Spans stay in memory and are written out as JSON lines when the run
//! ends. With tracing off every call is a no-op apart from the clock reads
//! the benchmark needs for its end-to-end latencies anyway.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::report::Report;

/// The largest share of a request's wall time that its layer self-times may
/// leave unaccounted for ...
const SELF_TIME_BOUND: f64 = 0.01;
/// ... or this many nanoseconds, the larger of the two:
/// the tracer's own clock reads and pushes between the spans take about a
/// microsecond, and a timer interrupt a few more.
const SELF_TIME_FLOOR_NS: u64 = 5_000;

/// Spans a run can record before the buffer has to grow; a traced run of
/// any workload records a few thousand.
const SPAN_CAPACITY: usize = 1 << 16;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Handle of an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records nothing until enabled. A traced run's span
    /// buffer is allocated and written once up front: growing it, or
    /// faulting in a fresh page of it, inside a request would add to that
    /// request's time.
    pub fn new(traced_run: bool) -> Self {
        let mut spans = Vec::new();
        if traced_run {
            let blank = Span { name: "", start_ns: 0, end_ns: 0, parent: None, request: 0 };
            spans.resize(SPAN_CAPACITY, blank);
            spans.clear();
        }
        Tracer {
            enabled: false,
            t0: Instant::now(),
            spans,
            stack: Vec::with_capacity(16),
            request: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Starts a new request id; spans opened from now on carry it.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let popped = self.stack.pop();
        assert_eq!(popped, Some(idx), "spans must close in LIFO order");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Per-layer self times and the per-request residual over the root
    /// spans named `root`. A span's self time is its duration minus its
    /// children's (children of one span never overlap: the client is
    /// single-threaded). A root's self time is the part of its request that
    /// no layer span covers; the residual is that part's share of the
    /// request's wall time.
    pub fn attribution(&self, root: &str) -> Attribution {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] = self_ns[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut layer_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        let (mut requests, mut residual_max, mut over_bound) = (0usize, 0.0f64, 0usize);
        for (s, &own) in self.spans.iter().zip(&self_ns) {
            *layer_ns.entry(s.name).or_default() += own;
            let wall = s.end_ns - s.start_ns;
            if s.parent.is_none() && s.name == root && wall > 0 {
                requests += 1;
                residual_max = residual_max.max(own as f64 / wall as f64);
                if own as f64 > (SELF_TIME_BOUND * wall as f64).max(SELF_TIME_FLOOR_NS as f64) {
                    over_bound += 1;
                }
            }
        }
        Attribution { requests, layer_ns, residual_max, over_bound }
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// Where the requests' wall time went, from the spans' self times.
#[derive(Debug)]
pub struct Attribution {
    /// Root spans seen.
    pub requests: usize,
    /// Σ self time per span name, over every request.
    pub layer_ns: BTreeMap<&'static str, u64>,
    /// Largest share of a request's wall time outside every layer span.
    pub residual_max: f64,
    /// Requests whose time outside every layer span exceeds the bound.
    pub over_bound: usize,
}

impl Attribution {
    /// Reports the residual metrics, and marks the run incorrect when a
    /// request's layer self-times miss its wall time by more than the bound.
    pub fn report_residual(&self, report: &mut Report) {
        report.metric("trace.request_self_s", self.mean_self_s("request"));
        report.metric("trace.residual_max", self.residual_max);
        if self.over_bound > 0 {
            report.broken(format!(
                "layer self-times miss the wall time of {} of {} requests by more than {SELF_TIME_BOUND} of it and {SELF_TIME_FLOOR_NS} ns",
                self.over_bound, self.requests
            ));
        }
    }

    /// Mean self time per request of the spans named `name`, in seconds.
    pub fn mean_self_s(&self, name: &str) -> f64 {
        let ns = self.layer_ns.get(name).copied().unwrap_or(0);
        ns as f64 * 1e-9 / self.requests.max(1) as f64
    }
}
