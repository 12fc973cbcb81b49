//! The harness's own span recorder: spans are kept in memory around the
//! calls into each layer and written out when the run ends. Spans
//! inside the program are a later change.

use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (0 outside any repetition).
    pub rep: u64,
}

/// Records nested spans against one clock. When disabled, entering and
/// leaving cost one branch each.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    rep: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off for the spans entered from now on;
    /// returns the previous setting.
    pub fn set_enabled(&mut self, enabled: bool) -> bool {
        std::mem::replace(&mut self.enabled, enabled)
    }

    /// Identifier shared by the spans recorded from now on.
    pub fn set_rep(&mut self, rep: u64) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, ns, in order of first appearance:
    /// a span's duration minus what its direct children cover.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (span, ns) in self.spans.iter().zip(own) {
            match totals.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += ns,
                None => totals.push((span.name, ns)),
            }
        }
        totals
    }

    /// Write the spans in Chrome trace-event format (`chrome://tracing`,
    /// Perfetto): complete events, µs, one track per repetition.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(s.rep as f64)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(
            path,
            Json::obj([("traceEvents", Json::Arr(events))]).to_line(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_span() {
        let mut spans = Spans::new(true);
        spans.span("run", |s| {
            s.span("setup", |s| {
                s.span("synthesize", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            s.span("wait", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let root = &spans.spans()[0];
        let total: u64 = spans.self_times().iter().map(|(_, ns)| ns).sum();
        assert_eq!(total, root.end_ns - root.start_ns);
        assert_eq!(spans.spans()[2].parent, Some(1));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.span("run", |_| 7), 7);
        assert!(spans.spans().is_empty());
    }
}
