//! In-memory span recorder for the traced run: one span per public call
//! into a layer, with its parent, start, duration and counters. With
//! recording off the same closures run with no clock reads, so a traced
//! pass minus an untraced pass of the same calls is the tracing overhead.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub duration: Duration,
    pub counters: Vec<(&'static str, u64)>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start,
            duration: Duration::ZERO,
            counters: Vec::new(),
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].duration = self.origin.elapsed() - start;
        out
    }

    /// Attaches a counter to the innermost open span.
    pub fn count(&mut self, name: &'static str, value: u64) {
        if let Some(&open) = self.stack.last() {
            self.spans[open].counters.push((name, value));
        }
    }

    /// Indices of the root spans.
    pub fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.spans.len()).filter(|&i| self.spans[i].parent.is_none())
    }

    /// Sum of the durations of spans named `name` below root `root`.
    pub fn total_under(&self, root: usize, name: &str) -> Duration {
        self.descendants(root)
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.spans[i].duration)
            .sum()
    }

    /// Sum of counter `name` over spans below (and including) `root`.
    pub fn counter_under(&self, root: usize, name: &str) -> u64 {
        self.descendants(root)
            .flat_map(|i| self.spans[i].counters.iter())
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration)
            .collect()
    }

    /// `root` and every span below it (spans are stored in start order,
    /// and a subtree is contiguous).
    fn descendants(&self, root: usize) -> impl Iterator<Item = usize> + '_ {
        let end = (root + 1..self.spans.len())
            .find(|&i| !self.is_below(i, root))
            .unwrap_or(self.spans.len());
        root..end
    }

    fn is_below(&self, mut i: usize, root: usize) -> bool {
        while let Some(p) = self.spans[i].parent {
            if p == root {
                return true;
            }
            i = p;
        }
        false
    }

    /// Records an already-timed span (for example a request timed on a
    /// client thread) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, duration: Duration) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start: start.saturating_duration_since(self.origin),
            duration,
            counters: Vec::new(),
        });
    }

    /// Share of the roots' wall time that no direct child covers: work
    /// outside every named layer. Children may overlap (concurrent
    /// requests), so coverage is the union of their intervals.
    pub fn uncovered_share(&self) -> f64 {
        let mut total = Duration::ZERO;
        let mut covered = Duration::ZERO;
        for root in self.roots() {
            total += self.spans[root].duration;
            let mut children: Vec<(Duration, Duration)> = self
                .spans
                .iter()
                .filter(|s| s.parent == Some(root))
                .map(|s| (s.start, s.start + s.duration))
                .collect();
            children.sort();
            let mut reach = Duration::ZERO;
            for (start, end) in children {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                }
                reach = reach.max(end);
            }
        }
        if total.is_zero() {
            return 0.0;
        }
        total.saturating_sub(covered).as_secs_f64() / total.as_secs_f64()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(n, v)| format!("{}: {v}", crate::json::quote(n)))
                .collect();
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"parent\": {}, \"start_ns\": {}, \"duration_ns\": {}, \"counters\": {{{}}}}}",
                crate::json::quote(s.name),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start.as_nanos(),
                s.duration.as_nanos(),
                counters.join(", ")
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_and_sums() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.span("root", |t| {
            t.span("a", |t| t.count("n", 2));
            t.span("b", |t| t.span("a", |t| t.count("n", 3)));
        });
        t.span("root", |t| t.span("a", |_| ()));
        let roots: Vec<usize> = t.roots().collect();
        assert_eq!(roots, vec![0, 4]);
        assert_eq!(t.counter_under(0, "n"), 5);
        assert_eq!(t.counter_under(4, "n"), 0);
        assert_eq!(t.durations("a").len(), 3);
        let share = t.uncovered_share();
        assert!((0.0..=1.0).contains(&share));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new();
        let v = t.span("root", |t| {
            t.count("n", 1);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
    }
}
