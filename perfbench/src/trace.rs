//! In-memory span tree recorded around the benchmark's calls into each
//! layer's public API.
//!
//! A span has a name, a start and end (seconds since the tracer was
//! created), the span that was open when it began, and the counters read
//! when it closed. Nothing is written until the run ends. A disabled tracer
//! records nothing, so the untraced measurements pay only a branch.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `graph.build`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the tracer's origin.
    pub start: f64,
    /// End, seconds since the tracer's origin (equal to `start` while open).
    pub end: f64,
    /// Counters read at the span's boundaries.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    /// Wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans while enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard is dropped"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl SpanGuard<'_> {
    /// Attaches a counter to this span.
    pub fn count(&self, name: &'static str, value: f64) {
        if let Some(i) = self.index {
            self.tracer.spans.borrow_mut()[i]
                .counters
                .push((name, value));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let end = self.tracer.origin.elapsed().as_secs_f64();
            self.tracer.spans.borrow_mut()[i].end = end;
            let popped = self.tracer.open.borrow_mut().pop();
            debug_assert_eq!(popped, Some(i), "spans close in LIFO order");
        }
    }
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested under the innermost open one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let start = self.origin.elapsed().as_secs_f64();
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            parent,
            start,
            end: start,
            counters: Vec::new(),
        });
        let index = spans.len() - 1;
        self.open.borrow_mut().push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// A snapshot of every recorded span, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Read-only queries over a finished span list.
pub struct SpanTree {
    spans: Vec<Span>,
}

impl SpanTree {
    /// Wraps a finished span list.
    pub fn new(spans: Vec<Span>) -> Self {
        SpanTree { spans }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name` (0 when there is none).
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Summed duration of the direct children of span `index`.
    pub fn children_total(&self, index: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration)
            .sum()
    }

    /// A span's self time: its duration minus its children's.
    pub fn self_time(&self, index: usize) -> f64 {
        self.spans[index].duration() - self.children_total(index)
    }

    /// Index of the first span called `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| s.name == name)
    }

    /// Duration minus children of the first span called `name`: the part
    /// of that span no named child accounts for.
    pub fn residual(&self, name: &str) -> f64 {
        self.find(name).map_or(0.0, |i| self.self_time(i))
    }

    /// The first value of counter `name` on a span called `span`.
    pub fn counter(&self, span: &str, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == span)
            .flat_map(|s| s.counters.iter())
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// JSON array of the spans, each with its self time and counters.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n    {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_s\": {:.9}, \"end_s\": {:.9}, \"self_s\": {:.9}, \"counters\": {{",
                s.name,
                s.start,
                s.end,
                self.self_time(i)
            );
            for (k, (name, value)) in s.counters.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{name}\": {}", crate::report::json_number(*value));
            }
            out.push_str("}}");
        }
        out.push_str("\n  ]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        let tr = Tracer::new(true);
        {
            let outer = tr.span("outer");
            tr.time("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            outer.count("n", 3.0);
        }
        let tree = SpanTree::new(tr.spans());
        assert_eq!(tree.spans().len(), 2);
        assert_eq!(tree.spans()[1].parent, Some(0));
        assert!(tree.total("inner") >= 0.002);
        assert!(tree.residual("outer") >= 0.0);
        assert!(tree.residual("outer") < tree.total("outer"));
        assert_eq!(tree.counter("outer", "n"), Some(3.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        tr.time("x", || ());
        assert!(tr.spans().is_empty());
    }
}
