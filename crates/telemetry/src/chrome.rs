//! Chrome `trace_event` JSON exporter.
//!
//! Produces the "JSON Object Format" understood by `chrome://tracing`
//! and Perfetto: `{"traceEvents": [...]}` with `B`/`E` duration events,
//! `i` instants, and `C` counters. Extra top-level keys are ignored by
//! the viewers, so we piggyback the metrics report and run metadata on
//! the same file.

use crate::json::{num, obj, str as jstr, JsonValue};
use crate::record::{AttrValue, Attrs, ExplorationSnapshot, Record, RecordKind};

/// The process id stamped on every event (the viewers require one).
const PID: u64 = 1;

fn attrs_to_args(attrs: &Attrs) -> JsonValue {
    JsonValue::Obj(
        attrs
            .iter()
            .map(|(k, v)| {
                let value = match v {
                    AttrValue::Int(i) => num(*i as f64),
                    AttrValue::Str(s) => jstr(s),
                };
                ((*k).to_owned(), value)
            })
            .collect(),
    )
}

fn event(name: &str, ph: &str, ts: u64, tid: u32, extra: Vec<(&str, JsonValue)>) -> JsonValue {
    let mut fields = vec![
        ("name", jstr(name)),
        ("ph", jstr(ph)),
        ("ts", num(ts as f64)),
        ("pid", num(PID as f64)),
        ("tid", num(f64::from(tid))),
    ];
    fields.extend(extra);
    obj(fields)
}

fn snapshot_counters(snap: &ExplorationSnapshot, tid: u32) -> JsonValue {
    event(
        "exploration",
        "C",
        snap.elapsed_micros,
        tid,
        vec![(
            "args",
            obj(vec![
                ("states", num(snap.states as f64)),
                ("transitions", num(snap.transitions as f64)),
                ("frontier", num(snap.frontier as f64)),
                ("dedup_hits", num(snap.dedup_hits as f64)),
                ("sleep_pruned", num(snap.sleep_pruned as f64)),
                ("symmetry_merges", num(snap.symmetry_merges as f64)),
                ("max_depth", num(snap.max_depth as f64)),
                ("workers", num(snap.workers as f64)),
                ("spilled", num(snap.spilled as f64)),
                ("cold_reads", num(snap.cold_reads as f64)),
                ("states_per_sec", num(snap.states_per_sec())),
            ]),
        )],
    )
}

/// Converts drained records into `traceEvents` array entries.
pub fn trace_events(records: &[Record]) -> Vec<JsonValue> {
    records
        .iter()
        .map(|r| match &r.kind {
            RecordKind::SpanBegin { name, attrs } => event(
                name,
                "B",
                r.ts_micros,
                r.tid,
                vec![("args", attrs_to_args(attrs))],
            ),
            RecordKind::SpanEnd { name } => event(name, "E", r.ts_micros, r.tid, vec![]),
            RecordKind::Instant { name, attrs } => event(
                name,
                "i",
                r.ts_micros,
                r.tid,
                vec![("s", jstr("t")), ("args", attrs_to_args(attrs))],
            ),
            RecordKind::Gauge { name, value } => event(
                name,
                "C",
                r.ts_micros,
                r.tid,
                vec![("args", obj(vec![("value", num(*value as f64))]))],
            ),
            RecordKind::Snapshot(snap) => snapshot_counters(snap, r.tid),
        })
        .collect()
}

/// Builds the full Chrome-loadable document.
///
/// `metrics` (the registry report) and `meta` rows ride along as extra
/// top-level keys; pass empty vecs to omit them.
pub fn chrome_document(
    records: &[Record],
    metrics: Option<JsonValue>,
    meta: Vec<(&str, JsonValue)>,
) -> JsonValue {
    let mut fields = vec![
        ("traceEvents", JsonValue::Arr(trace_events(records))),
        ("displayTimeUnit", jstr("ms")),
    ];
    if let Some(metrics) = metrics {
        fields.push(("metrics", metrics));
    }
    for (k, v) in meta {
        fields.push((k, v));
    }
    obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_instants_map_to_phases() {
        let records = vec![
            Record {
                ts_micros: 10,
                tid: 2,
                kind: RecordKind::SpanBegin {
                    name: "run",
                    attrs: vec![("machine", AttrValue::Str("Client".into()))],
                },
            },
            Record {
                ts_micros: 12,
                tid: 2,
                kind: RecordKind::Instant {
                    name: "send",
                    attrs: vec![("event", AttrValue::Int(3))],
                },
            },
            Record {
                ts_micros: 15,
                tid: 2,
                kind: RecordKind::SpanEnd { name: "run" },
            },
            Record {
                ts_micros: 16,
                tid: 0,
                kind: RecordKind::Snapshot(ExplorationSnapshot {
                    elapsed_micros: 16,
                    states: 4,
                    transitions: 9,
                    ..Default::default()
                }),
            },
        ];
        let doc = chrome_document(&records, None, vec![]);
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ph").and_then(JsonValue::as_str), Some("B"));
        assert_eq!(events[1].get("ph").and_then(JsonValue::as_str), Some("i"));
        assert_eq!(events[2].get("ph").and_then(JsonValue::as_str), Some("E"));
        assert_eq!(events[3].get("ph").and_then(JsonValue::as_str), Some("C"));
        assert_eq!(
            events[3]
                .get("args")
                .and_then(|a| a.get("transitions"))
                .and_then(JsonValue::as_u64),
            Some(9)
        );
        // The document is parseable JSON end to end.
        assert!(JsonValue::parse(&doc.render()).is_ok());
    }
}
