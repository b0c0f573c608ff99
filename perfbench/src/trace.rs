//! Spans: recorded by the benchmark around its own library calls, or
//! read back from the daemons' `trace_dump`, and reduced to self times
//! (a span's duration minus the part its children cover).

use std::collections::{BTreeMap, BTreeSet};

use hatt_service::TraceDumpReply;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: String,
    pub dur_ms: f64,
}

/// A span recorder for sequential code: `enter`/`exit` bracket a span
/// with children, `leaf` records a span without. Disabled logs record
/// nothing.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    next: u64,
    stack: Vec<u64>,
    spans: Vec<SpanRec>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            next: 1,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn push(&mut self, id: u64, name: &str, dur_ms: f64) {
        let parent = self.stack.last().copied().unwrap_or(0);
        let trace = self.stack.first().copied().unwrap_or(id);
        self.spans.push(SpanRec {
            id,
            parent,
            trace,
            name: name.to_string(),
            dur_ms,
        });
    }

    pub fn enter(&mut self) {
        if self.enabled {
            self.stack.push(self.next);
            self.next += 1;
        }
    }

    pub fn exit(&mut self, name: &str, dur_ms: f64) {
        if let Some(id) = self.stack.pop() {
            self.push(id, name, dur_ms);
        }
    }

    pub fn leaf(&mut self, name: &str, dur_ms: f64) {
        if self.enabled {
            let id = self.next;
            self.next += 1;
            self.push(id, name, dur_ms);
        }
    }

    pub fn finish(self) -> Vec<SpanRec> {
        self.spans
    }
}

/// Spans of the daemons' dumps, merged by identity (IDs are host-unique).
pub fn from_dumps(dumps: &[TraceDumpReply]) -> Vec<SpanRec> {
    let mut out = Vec::new();
    for d in dumps {
        for t in &d.traces {
            for s in &t.spans {
                out.push(SpanRec {
                    id: s.span_id,
                    parent: s.parent_span,
                    trace: t.trace_id,
                    name: s.name.clone(),
                    dur_ms: s.dur_ns as f64 / 1e6,
                });
            }
        }
    }
    out
}

/// Per-span self time, ms.
fn self_ms(spans: &[SpanRec]) -> Vec<f64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ms = vec![0.0; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            child_ms[p] += s.dur_ms;
        }
    }
    spans
        .iter()
        .zip(child_ms)
        .map(|(s, c)| (s.dur_ms - c).max(0.0))
        .collect()
}

/// Total self time per span name, ms.
pub fn self_totals(spans: &[SpanRec]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, ms) in spans.iter().zip(self_ms(spans)) {
        *out.entry(s.name.clone()).or_insert(0.0) += ms;
    }
    out
}

/// Per-request stage time: for each trace whose root is complete, the
/// self time of the named spans summed over every daemon; the median
/// over those traces, ms. `accept` is never a stage (it covers client
/// idle time before the first request of a connection).
pub fn stage_median(spans: &[SpanRec], names: &[&str]) -> f64 {
    let selfs = self_ms(spans);
    let complete: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == "request")
        .map(|s| s.trace)
        .collect();
    let mut per_trace: BTreeMap<u64, f64> = complete.iter().map(|&t| (t, 0.0)).collect();
    for (s, ms) in spans.iter().zip(selfs) {
        if s.name != "accept" && names.contains(&s.name.as_str()) {
            if let Some(v) = per_trace.get_mut(&s.trace) {
                *v += ms;
            }
        }
    }
    let v: Vec<f64> = per_trace.into_values().collect();
    crate::util::median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(true);
        log.enter();
        log.leaf("a", 2.0);
        log.leaf("b", 3.0);
        log.exit("root", 10.0);
        let totals = self_totals(&log.finish());
        assert_eq!(totals["root"], 5.0);
        assert_eq!(totals["a"], 2.0);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        log.enter();
        log.leaf("a", 1.0);
        log.exit("root", 1.0);
        assert!(log.finish().is_empty());
    }
}
