//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory while a run measures and written out once,
//! as a Chrome trace, when it ends. A tracer that is off records
//! nothing, so an untraced run pays one branch per call site.

use std::path::Path;
use std::time::Instant;

use p_telemetry::json::{num, str as jstr};
use p_telemetry::{chrome, AttrValue, Record, RecordKind};

/// Index of a span in its [`Tracer`]; `None` from a tracer that is off.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, workload: &str) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            workload: workload.to_owned(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span caused by `parent`, in repetition `rep`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, rep: u32) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
            rep,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_us = self.now_us().max(self.spans[i].start_us);
        }
    }

    /// Records a span measured elsewhere (a child process), given as
    /// microsecond offsets from the start of `parent`; it is clipped to
    /// its parent.
    pub fn import(&mut self, name: &'static str, parent: SpanId, start_us: u64, end_us: u64) {
        let Some(p) = parent else { return };
        let (lo, hi, rep) = {
            let s = &self.spans[p];
            (s.start_us, s.end_us, s.rep)
        };
        let start = (lo + start_us).min(hi);
        self.spans.push(Span {
            name,
            start_us: start,
            end_us: (lo + end_us).clamp(start, hi),
            parent,
            rep,
        });
    }

    /// Seconds a span lasted.
    pub fn duration_s(&self, id: SpanId) -> f64 {
        id.map_or(0.0, |i| {
            (self.spans[i].end_us - self.spans[i].start_us) as f64 / 1e6
        })
    }

    /// A span's duration minus the part of it its child spans cover.
    pub fn self_time_s(&self, id: SpanId) -> f64 {
        let Some(i) = id else { return 0.0 };
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| (s.start_us, s.end_us))
            .collect();
        children.sort_unstable();
        let (mut covered, mut reach) = (0, self.spans[i].start_us);
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (self.spans[i].end_us - self.spans[i].start_us - covered) as f64 / 1e6
    }

    fn emit(&self, i: usize, out: &mut Vec<Record>) {
        let s = &self.spans[i];
        let parent = s.parent.map_or("", |p| self.spans[p].name);
        out.push(Record {
            ts_micros: s.start_us,
            tid: s.rep,
            kind: RecordKind::SpanBegin {
                name: s.name,
                attrs: vec![
                    ("workload", AttrValue::Str(self.workload.clone())),
                    ("rep", AttrValue::Int(i64::from(s.rep))),
                    ("parent", AttrValue::Str(parent.to_owned())),
                ],
            },
        });
        let mut children: Vec<usize> = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(i))
            .collect();
        children.sort_by_key(|&c| self.spans[c].start_us);
        for c in children {
            self.emit(c, out);
        }
        out.push(Record {
            ts_micros: s.end_us,
            tid: s.rep,
            kind: RecordKind::SpanEnd { name: s.name },
        });
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &Path, seed: u64) -> std::io::Result<()> {
        let mut records = Vec::with_capacity(2 * self.spans.len());
        // Parents before children, children in start order, so begin and
        // end events nest on every track.
        for i in (0..self.spans.len()).filter(|&i| self.spans[i].parent.is_none()) {
            self.emit(i, &mut records);
        }
        let doc = chrome::chrome_document(
            &records,
            None,
            vec![
                ("workload", jstr(&self.workload)),
                ("seed", num(seed as f64)),
            ],
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new(true, "w");
        for &(name, start_us, end_us, parent) in spans {
            t.spans.push(Span {
                name,
                start_us,
                end_us,
                parent,
                rep: 0,
            });
        }
        t
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let t = tracer_with(&[
            ("rep", 0, 100, None),
            ("parse", 10, 30, Some(0)),
            ("search", 25, 60, Some(0)), // overlaps parse by 5
            ("admit", 30, 40, Some(2)),  // grandchild: not subtracted from rep
        ]);
        assert!((t.self_time_s(Some(0)) - 50e-6).abs() < 1e-12);
        assert!((t.self_time_s(Some(2)) - 25e-6).abs() < 1e-12);
        assert!((t.duration_s(Some(0)) - 100e-6).abs() < 1e-12);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false, "w");
        let id = t.begin("x", None, 0);
        t.end(id);
        t.import("y", id, 0, 5);
        assert!(id.is_none() && t.spans.is_empty());
        assert_eq!(t.self_time_s(id), 0.0);
    }

    #[test]
    fn imported_spans_are_clipped_to_their_parent() {
        let mut t = tracer_with(&[("rep", 100, 200, None)]);
        t.import("inject", Some(0), 10, 500);
        assert_eq!((t.spans[1].start_us, t.spans[1].end_us), (110, 200));
    }

    #[test]
    fn chrome_events_nest() {
        let t = tracer_with(&[
            ("rep", 0, 100, None),
            ("b", 50, 60, Some(0)),
            ("a", 10, 20, Some(0)),
        ]);
        let mut records = Vec::new();
        t.emit(0, &mut records);
        let names: Vec<String> = records
            .iter()
            .map(|r| match &r.kind {
                RecordKind::SpanBegin { name, .. } => format!("+{name}"),
                RecordKind::SpanEnd { name } => format!("-{name}"),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, ["+rep", "+a", "-a", "+b", "-b", "-rep"]);
    }
}
