//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer's public function. Each span carries its name, start, end,
//! parent and request id. A request is one root span whose children are
//! the layer calls made on its behalf; the root's self time (its duration
//! minus its children's) is the glue between layers.
//!
//! Self times are folded into per-request sums as each request closes,
//! so memory stays flat over a long run; the raw spans of the first
//! [`KEEP_REQUESTS`] requests are kept in memory and written out at the
//! end.

use std::fmt::Write as _;
use std::time::Instant;

/// Requests whose raw spans are kept for the span file.
pub const KEEP_REQUESTS: u64 = 64;

/// Root span name of one request.
pub const REQUEST: &str = "request";

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer function the span wraps (`REQUEST` for the root).
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the parent span within the request (`None` for the root).
    pub parent: Option<usize>,
    /// Request id.
    pub request: u64,
}

/// Records spans request by request and keeps per-request self times.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    names: Vec<&'static str>,
    open: Vec<Span>,
    kept: Vec<Span>,
    /// Per request: total ns, root self ns, then self ns per name.
    rows: Vec<Vec<u64>>,
    next_request: u64,
}

impl Recorder {
    /// A recorder for the given child span names.
    pub fn new(names: &[&'static str]) -> Self {
        Self {
            epoch: Instant::now(),
            names: names.to_vec(),
            open: Vec::new(),
            kept: Vec::new(),
            rows: Vec::new(),
            next_request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A recorder with a request already open, for replays whose spans
    /// are thrown away (equivalence checks).
    pub fn scratch() -> Self {
        let mut rec = Self::new(&crate::harness::layer::ALL);
        rec.begin_request();
        rec
    }

    /// Opens the root span of the next request.
    pub fn begin_request(&mut self) {
        debug_assert!(self.open.is_empty(), "request already open");
        let start_ns = self.now_ns();
        self.open.push(Span {
            name: REQUEST,
            start_ns,
            end_ns: start_ns,
            parent: None,
            request: self.next_request,
        });
    }

    /// Runs `f` inside a child span of the open request.
    ///
    /// # Panics
    ///
    /// Panics if no request is open or `name` was not registered.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        assert!(!self.open.is_empty(), "span outside a request");
        debug_assert!(self.names.contains(&name), "unregistered span {name}");
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.open.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(0),
            request: self.next_request,
        });
        out
    }

    /// Closes the open request and folds its spans into self times.
    ///
    /// # Panics
    ///
    /// Panics if no request is open.
    pub fn end_request(&mut self) {
        assert!(!self.open.is_empty(), "no open request");
        let end_ns = self.now_ns();
        self.open[0].end_ns = end_ns;
        self.rows.push(self_times(&self.open, &self.names));
        if self.next_request < KEEP_REQUESTS {
            self.kept.append(&mut self.open);
        }
        self.open.clear();
        self.next_request += 1;
    }

    /// Requests recorded so far.
    pub fn requests(&self) -> usize {
        self.rows.len()
    }

    /// Per-request wall time of every recorded request, in ns.
    pub fn request_ns(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r[0] as f64).collect()
    }

    /// Median over requests of the per-request self time of `name` (the
    /// root's self time for [`REQUEST`]), in ns; 0 for a name that
    /// never ran.
    ///
    /// # Panics
    ///
    /// Panics if nothing was recorded.
    pub fn median_self_ns(&self, name: &str) -> f64 {
        let col = if name == REQUEST {
            1
        } else {
            match self.names.iter().position(|&n| n == name) {
                Some(i) => i + 2,
                None => return 0.0,
            }
        };
        let v: Vec<f64> = self.rows.iter().map(|r| r[col] as f64).collect();
        crate::estimate::median_of(&v)
    }

    /// The kept spans as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Total, root self and per-name self times of one request's spans
/// (`spans[0]` is the root; the rest are its children).
fn self_times(spans: &[Span], names: &[&'static str]) -> Vec<u64> {
    let root = &spans[0];
    let total = root.end_ns - root.start_ns;
    let mut row = vec![0u64; names.len() + 2];
    row[0] = total;
    let mut children = 0u64;
    for s in &spans[1..] {
        let d = s.end_ns - s.start_ns;
        children += d;
        if let Some(i) = names.iter().position(|&n| n == s.name) {
            row[i + 2] += d;
        }
    }
    row[1] = total.saturating_sub(children);
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(REQUEST, 0, 100, None),
            span("spec", 10, 30, Some(0)),
            span("exec", 30, 70, Some(0)),
            span("spec", 80, 85, Some(0)),
        ];
        let row = self_times(&spans, &["spec", "exec", "map"]);
        assert_eq!(row, vec![100, 35, 25, 40, 0]);
    }

    #[test]
    fn recorder_folds_requests_and_keeps_the_first_ones() {
        let mut rec = Recorder::new(&["a", "b"]);
        for _ in 0..3 {
            rec.begin_request();
            let x = rec.span("a", || std::hint::black_box(2 + 2));
            assert_eq!(x, 4);
            rec.span("b", || ());
            rec.end_request();
        }
        assert_eq!(rec.requests(), 3);
        assert!(rec.median_self_ns(REQUEST) <= rec.request_ns()[0].max(rec.request_ns()[2]));
        assert_eq!(rec.median_self_ns("never"), 0.0);
        let jsonl = rec.to_jsonl();
        assert_eq!(jsonl.lines().count(), 9);
        assert!(jsonl.lines().next().unwrap().contains("\"parent\": null"));
        assert!(jsonl.contains("\"request\": 2, \"name\": \"b\""));
    }
}
