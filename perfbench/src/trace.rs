//! In-memory spans for the traced run.
//!
//! A span records a name, start and end (seconds since the tracer was
//! made) and the span open around it. Spans are only kept in memory
//! while the run measures; [`Tracer::write`] saves them when it ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `driver.execute`.
    pub name: &'static str,
    /// Start, seconds since the tracer began.
    pub start: f64,
    /// End, seconds since the tracer began.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Span length, seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-name totals: span count, total time and self time, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans with this name.
    pub count: usize,
    /// Summed durations.
    pub total: f64,
    /// Summed durations minus the time their child spans cover.
    pub self_time: f64,
}

/// Records nested spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let idx = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans[idx].end = end;
        (out, end - start)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Totals per span name, with self time derived from the children.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_time) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total += s.duration();
            t.self_time += s.duration() - child;
        }
        out
    }

    /// The spans as JSON lines: `{"id", "name", "start_s", "end_s", "parent"}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}, \"parent\": {parent}}}\n",
                s.name, s.start, s.end
            ));
        }
        out
    }

    /// Writes the spans to `path` as JSON lines, creating its directory.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json_lines())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let totals = t.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total >= 0.005);
        assert!((outer.self_time - (outer.total - inner.total)).abs() < 1e-12);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
