//! Coarse wall-clock spans recorded by the benchmark around its calls into
//! each layer, kept in memory and written as one Perfetto (Chrome trace
//! event) JSON file when a traced run ends.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One closed span; times are microseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Span id, unique within one recorder.
    pub id: u32,
    /// Id of the enclosing span, if any.
    pub parent: Option<u32>,
    /// What the span covers ("pass 3", "setup", "transmission", …).
    pub name: String,
    /// Start, µs since the origin.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
}

/// Collects spans for one workload run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    /// Closed spans, in the order they were closed.
    pub spans: Vec<Span>,
    next_id: u32,
    enabled: bool,
}

impl SpanLog {
    /// An empty log whose time origin is now. A disabled log hands out
    /// ids but keeps nothing, so untraced runs carry no span memory.
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 0,
            enabled,
        }
    }

    /// Records a closed span from `start` to `end`; returns its id so
    /// children can link to it.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.reserve();
        self.push(id, name, parent, start, end);
        id
    }

    /// Allocates an id for a span whose children are recorded before it
    /// closes; close it with [`SpanLog::push`].
    pub fn reserve(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Records the span `id` reserved earlier.
    pub fn push(
        &mut self,
        id: u32,
        name: impl Into<String>,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_us: us(start),
            dur_us: us(end) - us(start),
        });
    }
}

/// Renders per-workload span lists as one Perfetto JSON document: one
/// process lane per workload, parent links in each event's `args`.
pub fn to_perfetto(lanes: &[(String, Vec<Span>)]) -> String {
    let mut events: Vec<String> = Vec::new();
    for (pid, (lane, spans)) in lanes.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_str(lane)
        ));
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            events.push(format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{parent}}}}}",
                json_str(&s.name),
                s.start_us,
                s.dur_us.max(0.0),
                s.id
            ));
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfetto_export_links_children_to_parents() {
        let mut log = SpanLog::new(true);
        let t0 = Instant::now();
        let pass = log.reserve();
        let trial = log.record("trial 0", Some(pass), t0, Instant::now());
        log.push(pass, "pass 0", None, t0, Instant::now());
        assert_eq!(log.spans[0].parent, Some(pass));
        assert_eq!(log.spans[0].id, trial);
        let json = to_perfetto(&[("paper_small".to_string(), log.spans)]);
        assert!(json.contains("\"name\":\"trial 0\""));
        assert!(json.contains(&format!("\"parent\":{pass}")));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"args\":{\"name\":\"paper_small\"}"));
    }
}
