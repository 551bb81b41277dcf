//! Spans recorded at the benchmark's own call sites, around calls into each
//! layer's public functions. Nothing inside the engine is instrumented: a
//! span covers exactly one call the benchmark makes.
//!
//! Every client thread owns a [`Tracer`]; spans stay in memory until the
//! run ends and are written out afterwards, so recording one costs two
//! clock reads and a `Vec` push.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What a span stands for in the per-request accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The root of one request: everything the benchmark did for it.
    Request,
    /// The call through the front door a user makes (wire round trip,
    /// `Session::insert`, `Database::search`): the end-to-end time.
    EndToEnd,
    /// A layer call replayed on the request's own input, after the real
    /// call, that re-runs a step of the end-to-end call; these are what
    /// "accounted" time sums.
    Component,
    /// A layer call replayed for its own number only.
    Probe,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Request => "request",
            Role::EndToEnd => "end_to_end",
            Role::Component => "component",
            Role::Probe => "probe",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub role: Role,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Shared by every span of one request.
    pub request: u64,
}

/// Per-thread span recorder. A disabled tracer records nothing and
/// [`Tracer::time`] is a plain call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: u64,
    seq: u64,
    request: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// `origin` is the run's common time zero, so spans of different
    /// threads line up.
    pub fn new(on: bool, thread: u64, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            thread,
            seq: 0,
            request: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the root span of a new request.
    pub fn begin_request(&mut self, name: &'static str) {
        if self.on {
            self.seq += 1;
            self.request = (self.thread << 40) | self.seq;
            self.enter(name, Role::Request);
        }
    }

    /// Close the request opened by [`Tracer::begin_request`].
    pub fn end_request(&mut self) {
        if let Some(&root) = self.open.first() {
            while self.open.len() > 1 {
                let top = *self.open.last().expect("open is non-empty");
                self.exit(top);
            }
            self.exit(root);
        }
    }

    fn enter(&mut self, name: &'static str, role: Role) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            role,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize) {
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        if self.open.last() == Some(&idx) {
            self.open.pop();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, role: Role, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = self.enter(name, role);
        let out = f();
        self.exit(idx);
        out
    }
}

/// The merged spans of one traced run.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Merge per-thread tracers, re-basing parent indices.
    pub fn merge(tracers: Vec<Tracer>) -> Trace {
        let mut spans = Vec::new();
        for t in tracers {
            let base = spans.len();
            spans.extend(t.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        Trace { spans }
    }

    /// Self time of every span in milliseconds, keyed by span name: its
    /// duration minus the time its children cover. Children of one span
    /// run on its thread one after another, so they never overlap.
    pub fn self_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            out.entry(s.name).or_default().push(own as f64 / 1e6);
        }
        out
    }

    /// One minus the component spans' total time over the end-to-end
    /// spans' total: the share of end-to-end time the replayed steps do not
    /// account for. Components are re-runs made after the real call, not
    /// intervals inside it, so a replay that costs more than the step did
    /// inside the call (a cold cache, no work shared with another thread)
    /// can push the figure below 0.
    pub fn unaccounted_frac(&self) -> f64 {
        let (mut e2e, mut covered) = (0u64, 0u64);
        for s in &self.spans {
            match s.role {
                Role::EndToEnd => e2e += s.end_ns - s.start_ns,
                Role::Component => covered += s.end_ns - s.start_ns,
                _ => {}
            }
        }
        if e2e == 0 {
            return 0.0;
        }
        1.0 - covered as f64 / e2e as f64
    }

    /// Write one JSON object per span: name, role, start, end, parent and
    /// request id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"role\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name,
                s.role.name(),
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        role: Role,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> Span {
        Span {
            name,
            role,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_components_count_as_accounted() {
        let trace = Trace {
            spans: vec![
                span("req", Role::Request, 0, 1_000_000, None),
                span("wire", Role::EndToEnd, 0, 600_000, Some(0)),
                span("codec", Role::Component, 600_000, 750_000, Some(0)),
                span("parse", Role::Probe, 750_000, 800_000, Some(0)),
            ],
        };
        let own = trace.self_ms();
        assert_eq!(own["req"], vec![0.2]);
        assert_eq!(own["wire"], vec![0.6]);
        assert_eq!(trace.unaccounted_frac(), 0.75);
    }

    #[test]
    fn spans_of_one_request_share_its_id_and_root() {
        let origin = Instant::now();
        let mut tracers = Vec::new();
        for thread in 0..2 {
            let mut t = Tracer::new(true, thread, origin);
            for _ in 0..2 {
                t.begin_request("req");
                t.time("wire", Role::EndToEnd, || ());
                t.time("codec", Role::Component, || ());
                t.end_request();
            }
            tracers.push(t);
        }
        let trace = Trace::merge(tracers);
        assert_eq!(trace.spans.len(), 12);
        for (i, s) in trace.spans.iter().enumerate() {
            let root = i - i % 3;
            assert_eq!(s.request, trace.spans[root].request);
            assert_eq!(s.parent, (i != root).then_some(root));
            assert!(s.end_ns >= s.start_ns);
        }
        let ids: std::collections::HashSet<u64> = trace.spans.iter().map(|s| s.request).collect();
        assert_eq!(ids.len(), 4, "every request has its own id");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 0, Instant::now());
        t.begin_request("req");
        assert_eq!(t.time("x", Role::Probe, || 7), 7);
        t.end_request();
        assert!(Trace::merge(vec![t]).spans.is_empty());
    }
}
