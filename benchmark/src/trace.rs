//! Harness-side spans: one per call into a layer, kept in memory and
//! written out as JSON lines when the run ends.  No timer lives inside the
//! crates under test; a span times a public call from the outside.

use crate::json::Value;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The cycle the span belongs to: spans of one cycle share it.
    pub cycle: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span; `Tracer::exit` closes it.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    cycle: u32,
}

impl Tracer {
    /// A disabled tracer records nothing and reads no clock.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cycle: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled with a span open");
        self.enabled = enabled;
    }

    pub fn set_cycle(&mut self, cycle: u32) {
        self.cycle = cycle;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            cycle: self.cycle,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops everything recorded so far (the warm-up cycle's spans).
    pub fn clear(&mut self) {
        assert!(self.stack.is_empty(), "clear with a span open");
        self.spans.clear();
    }

    /// Seconds spent in spans called `name` during `cycle`, summed.
    pub fn cycle_total(&self, name: &str, cycle: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.cycle == cycle && s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// One JSON object per span, with its self time.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let self_ns = self_times_ns(&self.spans);
        for (id, (span, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let line = Value::obj([
                ("id", Value::from(id as f64)),
                ("name", Value::from(span.name)),
                ("cycle", Value::from(f64::from(span.cycle))),
                (
                    "parent",
                    span.parent.map_or(Value::Null, |p| Value::from(p as f64)),
                ),
                ("start_ns", Value::from(span.start_ns as f64)),
                ("end_ns", Value::from(span.end_ns as f64)),
                ("self_ns", Value::from(own as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover.  Children of one parent never overlap (one thread records them),
/// so that part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.end_ns - span.start_ns;
        }
    }
    own
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
            cycle: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("sweep", 0, 100, None),
            span("ttmc", 10, 40, Some(0)),
            span("node", 15, 25, Some(1)),
            span("trsvd", 40, 90, Some(0)),
        ];
        // sweep: 100 - 30 - 50; ttmc: 30 - 10; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![20, 20, 10, 50]);
    }

    #[test]
    fn tracer_records_nesting_parent_and_cycle() {
        let mut t = Tracer::new(true);
        t.set_cycle(3);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.cycle == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.cycle_total("inner", 3), spans[1].seconds());
        assert_eq!(t.cycle_total("inner", 4), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("x");
        t.exit(s);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let mut t = Tracer::new(true);
        let a = t.enter("a");
        let b = t.enter("b");
        t.exit(b);
        t.exit(a);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<Value> = text.lines().map(|l| Value::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("name").unwrap().as_str(), Some("a"));
        assert_eq!(lines[0].get("parent"), Some(&Value::Null));
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
        let dur = |v: &Value| {
            v.get("end_ns").unwrap().as_f64().unwrap()
                - v.get("start_ns").unwrap().as_f64().unwrap()
        };
        let own0 = lines[0].get("self_ns").unwrap().as_f64().unwrap();
        assert_eq!(own0, dur(&lines[0]) - dur(&lines[1]));
    }
}
