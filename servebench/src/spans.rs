//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around each public call it makes
//! into a layer (the program itself carries no spans for this): name,
//! layer, start, end, parent span and a per-request id shared by every
//! span of one request. They stay in memory and are written out as
//! JSON lines when the run ends. A disabled recorder only runs the call,
//! which is what the untraced pass measures.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off; spans already recorded are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            id,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize - 1].end_ns = end_ns;
        out
    }

    /// [`Tracer::span`], also returning the span's duration in ns (0
    /// when recording is off).
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, u64) {
        let index = self.spans.len();
        let out = self.span(name, layer, request, f);
        (out, self.spans.get(index).map_or(0, Span::dur_ns))
    }

    /// Self time per layer in ns: each span's duration minus the part
    /// its children cover (children run inside their parent, one at a
    /// time, so their durations add up).
    pub fn self_ns_by_layer(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.dur_ns();
        }
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for s in &self.spans {
            let own = s.dur_ns().saturating_sub(child_ns[s.id as usize]);
            match out.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, total)) => *total += own,
                None => out.push((s.layer, own)),
            }
        }
        out
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"layer\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.layer, s.id, s.parent, s.request, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
