//! Chrome trace-event ("Trace Event Format") export, loadable in
//! Perfetto / `chrome://tracing`.
//!
//! Each grid cell becomes one process (`pid` = cell index); each
//! container becomes one thread (`tid` = container id + 1, with
//! `tid` 0 reserved for node-level events such as pool transfers not
//! attributable to a container and breaker transitions). Container
//! lifecycle events are rendered as nested duration spans
//! (`launch` → `init` → `exec`/`keep-alive`) via `B`/`E` pairs; all
//! other events become thread-scoped instants (`ph: "i"`, `s: "t"`)
//! carrying their payload in `args`. Timestamps are simulated
//! microseconds, which is exactly the unit the format expects.

use crate::event::{EventKind, TraceEvent};
use crate::json::JsonValue;
use std::collections::BTreeMap;

/// One process worth of events: a grid cell and its trace slice.
#[derive(Debug, Clone)]
pub struct ChromeGroup {
    /// Process id (grid cell index).
    pub pid: u64,
    /// Process display name (the cell label).
    pub name: String,
    /// The cell's events in `(sim_time, seq)` order.
    pub events: Vec<TraceEvent>,
}

fn base_event(name: &str, cat: &str, ph: &str, ts: u64, pid: u64, tid: u64) -> JsonValue {
    let mut doc = JsonValue::obj();
    doc.push_static("name", JsonValue::Str(name.into()));
    doc.push_static("cat", JsonValue::Str(cat.into()));
    doc.push_static("ph", JsonValue::Str(ph.into()));
    doc.push_static("ts", JsonValue::Num(ts as f64));
    doc.push_static("pid", JsonValue::Num(pid as f64));
    doc.push_static("tid", JsonValue::Num(tid as f64));
    doc
}

fn metadata(name: &str, pid: u64, tid: Option<u64>, label: &str) -> JsonValue {
    let mut doc = JsonValue::obj();
    doc.push_static("name", JsonValue::Str(name.into()));
    doc.push_static("ph", JsonValue::Str("M".into()));
    doc.push_static("pid", JsonValue::Num(pid as f64));
    if let Some(tid) = tid {
        doc.push_static("tid", JsonValue::Num(tid as f64));
    }
    let mut args = JsonValue::obj();
    args.push_static("name", JsonValue::Str(label.into()));
    doc.push_static("args", args);
    doc
}

fn tid_of(event: &TraceEvent) -> u64 {
    event.container.map_or(0, |c| c + 1)
}

/// Span phases opened by lifecycle events, innermost-last per thread.
type SpanStacks = BTreeMap<u64, Vec<&'static str>>;

fn close_span(
    out: &mut Vec<JsonValue>,
    stacks: &mut SpanStacks,
    cat: &str,
    ts: u64,
    pid: u64,
    tid: u64,
) {
    if let Some(name) = stacks.get_mut(&tid).and_then(Vec::pop) {
        out.push(base_event(name, cat, "E", ts, pid, tid));
    }
}

fn open_span(
    out: &mut Vec<JsonValue>,
    stacks: &mut SpanStacks,
    name: &'static str,
    cat: &str,
    ts: u64,
    pid: u64,
    tid: u64,
) {
    stacks.entry(tid).or_default().push(name);
    out.push(base_event(name, cat, "B", ts, pid, tid));
}

/// Renders groups into a complete Chrome trace document:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
pub fn chrome_trace(groups: &[ChromeGroup]) -> JsonValue {
    let mut out: Vec<JsonValue> = Vec::new();
    for group in groups {
        out.push(metadata("process_name", group.pid, None, &group.name));
        // Deterministic thread metadata: collect tids first.
        let mut tids: BTreeMap<u64, String> = BTreeMap::new();
        for event in &group.events {
            let tid = tid_of(event);
            tids.entry(tid).or_insert_with(|| {
                if tid == 0 {
                    "node".to_string()
                } else {
                    format!("container {}", tid - 1)
                }
            });
        }
        for (tid, label) in &tids {
            out.push(metadata("thread_name", group.pid, Some(*tid), label));
        }

        let mut stacks: SpanStacks = BTreeMap::new();
        let mut max_ts = 0u64;
        for event in &group.events {
            let ts = event.time.as_micros();
            max_ts = max_ts.max(ts);
            let tid = tid_of(event);
            let cat = event.kind.layer().name();
            match &event.kind {
                EventKind::ContainerLaunch { .. } => {
                    open_span(&mut out, &mut stacks, "launch", cat, ts, group.pid, tid);
                }
                EventKind::RuntimeLoaded => {
                    close_span(&mut out, &mut stacks, cat, ts, group.pid, tid);
                    open_span(&mut out, &mut stacks, "init", cat, ts, group.pid, tid);
                }
                EventKind::InitDone => {
                    close_span(&mut out, &mut stacks, cat, ts, group.pid, tid);
                }
                EventKind::ExecStart { .. } => {
                    // A warm container sits in its keep-alive span.
                    if stacks.get(&tid).and_then(|s| s.last()) == Some(&"keep-alive") {
                        close_span(&mut out, &mut stacks, cat, ts, group.pid, tid);
                    }
                    open_span(&mut out, &mut stacks, "exec", cat, ts, group.pid, tid);
                }
                EventKind::ExecEnd { .. } => {
                    close_span(&mut out, &mut stacks, cat, ts, group.pid, tid);
                }
                EventKind::KeepAliveEnter => {
                    open_span(&mut out, &mut stacks, "keep-alive", cat, ts, group.pid, tid);
                }
                EventKind::ContainerRetire { .. } => {
                    while stacks.get(&tid).is_some_and(|s| !s.is_empty()) {
                        close_span(&mut out, &mut stacks, cat, ts, group.pid, tid);
                    }
                    out.push(instant(event, ts, group.pid, tid, cat));
                }
                _ => out.push(instant(event, ts, group.pid, tid, cat)),
            }
        }
        // Close dangling spans (containers still alive at cell end) so
        // every B has a matching E.
        for (tid, stack) in std::mem::take(&mut stacks) {
            for name in stack.into_iter().rev() {
                out.push(base_event(name, "container", "E", max_ts, group.pid, tid));
            }
        }
    }

    let mut doc = JsonValue::obj();
    doc.push_static("traceEvents", JsonValue::Arr(out));
    doc.push_static("displayTimeUnit", JsonValue::Str("ms".into()));
    doc
}

fn instant(event: &TraceEvent, ts: u64, pid: u64, tid: u64, cat: &str) -> JsonValue {
    let mut doc = base_event(event.kind.name(), cat, "i", ts, pid, tid);
    doc.push_static("s", JsonValue::Str("t".into()));
    let mut args = JsonValue::obj();
    if let Some(req) = event.request {
        args.push_static("req", JsonValue::Num(req as f64));
    }
    event.kind.push_payload(&mut args);
    doc.push_static("args", args);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasmem_sim::SimTime;

    fn ev(us: u64, seq: u64, ctr: Option<u64>, kind: EventKind) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_micros(us),
            seq,
            container: ctr,
            request: None,
            kind,
        }
    }

    fn field<'a>(doc: &'a JsonValue, key: &str) -> &'a JsonValue {
        doc.get(key).expect(key)
    }

    #[test]
    fn spans_pair_and_instants_carry_payload() {
        let group = ChromeGroup {
            pid: 0,
            name: "cell".into(),
            events: vec![
                ev(0, 0, Some(0), EventKind::ContainerLaunch { function: 1 }),
                ev(100, 1, Some(0), EventKind::RuntimeLoaded),
                ev(200, 2, Some(0), EventKind::InitDone),
                ev(200, 3, Some(0), EventKind::ExecStart { cold: true }),
                ev(
                    250,
                    4,
                    None,
                    EventKind::PoolPageOut {
                        bytes: 4096,
                        stall_us: 7,
                        queued_us: 0,
                    },
                ),
                ev(
                    300,
                    5,
                    Some(0),
                    EventKind::ExecEnd {
                        latency_us: 300,
                        faults: 0,
                    },
                ),
                ev(300, 6, Some(0), EventKind::KeepAliveEnter),
                ev(900, 7, Some(0), EventKind::ContainerRetire { requests: 1 }),
            ],
        };
        let doc = chrome_trace(&[group]);
        let events = field(&doc, "traceEvents").as_arr().unwrap();

        // Every event has the mandatory fields with valid phases.
        let mut depth_by_tid: BTreeMap<u64, i64> = BTreeMap::new();
        for e in events {
            let ph = field(e, "ph").as_str().unwrap();
            assert!(matches!(ph, "B" | "E" | "i" | "M"), "bad ph {ph}");
            assert!(e.get("pid").and_then(JsonValue::as_num).is_some());
            if ph != "M" {
                assert!(e.get("ts").and_then(JsonValue::as_num).is_some());
                assert!(e.get("tid").and_then(JsonValue::as_num).is_some());
            }
            if ph == "B" || ph == "E" {
                let tid = field(e, "tid").as_num().unwrap() as u64;
                let d = depth_by_tid.entry(tid).or_insert(0);
                *d += if ph == "B" { 1 } else { -1 };
                assert!(*d >= 0, "E without B on tid {tid}");
            }
        }
        // All spans closed by retire.
        assert!(depth_by_tid.values().all(|&d| d == 0));

        // The pool transfer landed on the node thread as an instant.
        let pool = events
            .iter()
            .find(|e| field(e, "name").as_str() == Some("pool_page_out"))
            .unwrap();
        assert_eq!(field(pool, "tid").as_num(), Some(0.0));
        assert_eq!(field(pool, "s").as_str(), Some("t"));
        assert_eq!(
            field(pool, "args").get("bytes").and_then(JsonValue::as_num),
            Some(4096.0)
        );
    }

    #[test]
    fn dangling_spans_close_at_group_end() {
        let group = ChromeGroup {
            pid: 2,
            name: "cell".into(),
            events: vec![
                ev(0, 0, Some(5), EventKind::ContainerLaunch { function: 0 }),
                ev(10, 1, Some(5), EventKind::RuntimeLoaded),
                ev(500, 2, None, EventKind::BreakerOpen),
            ],
        };
        let doc = chrome_trace(&[group]);
        let events = field(&doc, "traceEvents").as_arr().unwrap();
        let begins = events
            .iter()
            .filter(|e| field(e, "ph").as_str() == Some("B"))
            .count();
        let ends = events
            .iter()
            .filter(|e| field(e, "ph").as_str() == Some("E"))
            .count();
        assert_eq!(begins, ends);
        // The synthesized E lands at the group's max timestamp.
        let last_end = events
            .iter()
            .rfind(|e| field(e, "ph").as_str() == Some("E"))
            .unwrap();
        assert_eq!(field(last_end, "ts").as_num(), Some(500.0));
    }

    #[test]
    fn thread_metadata_is_deterministic() {
        let group = ChromeGroup {
            pid: 1,
            name: "c".into(),
            events: vec![
                ev(0, 0, Some(3), EventKind::RuntimeLoaded),
                ev(0, 1, None, EventKind::BreakerOpen),
                ev(0, 2, Some(1), EventKind::RuntimeLoaded),
            ],
        };
        let doc = chrome_trace(&[group]);
        let names: Vec<String> = field(&doc, "traceEvents")
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| field(e, "name").as_str() == Some("thread_name"))
            .map(|e| {
                field(e, "args")
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(names, vec!["node", "container 1", "container 3"]);
    }
}
