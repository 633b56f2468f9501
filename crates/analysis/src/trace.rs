//! Reader for the JSONL event traces `sctsim --trace` exports.
//!
//! Each line of a trace file is one simulation event:
//!
//! ```json
//! {"t":1.25,"event":{"Admitted":{"stream":0,"video":3,"server":1,"path":"Direct"}}}
//! ```
//!
//! `t` is the simulation time in seconds; `event` is the
//! externally-tagged record the core emitted. This crate sits *below*
//! sct-core in the dependency graph, so the reader does not know the
//! concrete event enum — it parses the wire format generically into
//! tag + payload, which is exactly what trace analyses (counting,
//! filtering, reconciliation against a summary) need.

use serde::{DeError, Deserialize, Value};
use std::collections::BTreeMap;

/// One parsed trace line: when it happened, what kind it was, and the
/// variant payload (a map for struct variants, [`Value::Null`] for unit
/// variants).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Simulation time of the event, seconds.
    pub t: f64,
    /// The event's variant tag, e.g. `"Admitted"` or `"ServerDown"`.
    pub kind: String,
    /// The variant's fields.
    pub payload: Value,
}

impl TraceEvent {
    /// Looks up a numeric field of the payload (integers widen to f64).
    pub fn num_field(&self, name: &str) -> Option<f64> {
        match self.payload.as_map()?.iter().find(|(k, _)| k == name)? {
            (_, Value::Num(x)) => Some(*x),
            (_, Value::Int(i)) => Some(*i as f64),
            _ => None,
        }
    }
}

// The vendored serde's `from_str` deserialises into a concrete type; a
// trace line's shape is only known at the tag level, so this wrapper
// captures the raw tree.
struct RawValue(Value);

impl Deserialize for RawValue {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(RawValue(v.clone()))
    }
}

/// A fully parsed trace: events in file order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// The events, in the order the simulation emitted them.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Parses JSONL trace text. Fails on the first malformed line with a
    /// message naming its 1-based line number; blank lines are ignored.
    /// Verifies that timestamps never decrease (the loop emits in
    /// simulation-time order, so a violation means a corrupt file).
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut events = Vec::new();
        let mut last_t = f64::NEG_INFINITY;
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let lineno = idx + 1;
            let RawValue(root) = serde_json::from_str(line)
                .map_err(|e| format!("line {lineno}: invalid JSON: {e}"))?;
            let map = root
                .as_map()
                .ok_or_else(|| format!("line {lineno}: not a JSON object"))?;
            let t = match map.iter().find(|(k, _)| k == "t") {
                Some((_, Value::Num(x))) => *x,
                Some((_, Value::Int(i))) => *i as f64,
                _ => return Err(format!("line {lineno}: missing numeric `t`")),
            };
            if t < last_t {
                return Err(format!(
                    "line {lineno}: time went backwards ({t} after {last_t})"
                ));
            }
            last_t = t;
            let event = map
                .iter()
                .find(|(k, _)| k == "event")
                .map(|(_, v)| v)
                .ok_or_else(|| format!("line {lineno}: missing `event`"))?;
            let (kind, payload) = match event {
                // Externally tagged struct/tuple variant: {"Tag": {...}}.
                Value::Map(entries) if entries.len() == 1 => {
                    (entries[0].0.clone(), entries[0].1.clone())
                }
                // Unit variant: just the tag string.
                Value::Str(tag) => (tag.clone(), Value::Null),
                _ => return Err(format!("line {lineno}: malformed `event` value")),
            };
            events.push(TraceEvent { t, kind, payload });
        }
        Ok(Trace { events })
    }

    /// Number of events in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many events of each kind the trace holds, sorted by kind.
    pub fn counts_by_kind(&self) -> BTreeMap<String, u64> {
        let mut counts = BTreeMap::new();
        for e in &self.events {
            *counts.entry(e.kind.clone()).or_insert(0) += 1;
        }
        counts
    }

    /// Count of events with the given kind tag.
    pub fn count(&self, kind: &str) -> u64 {
        self.events.iter().filter(|e| e.kind == kind).count() as u64
    }

    /// The events with the given kind tag, in emission order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.events.iter().filter(move |e| e.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        r#"{"t":0,"event":{"Admitted":{"stream":0,"video":3,"server":1,"path":"Direct"}}}"#,
        "\n",
        r#"{"t":4.5,"event":{"Rejected":{"stream":1,"video":0}}}"#,
        "\n",
        r#"{"t":9.25,"event":{"WaitlistServed":{"stream":1,"video":0,"server":2,"batched":false,"waited_secs":0.75}}}"#,
        "\n",
    );

    #[test]
    fn parses_lines_and_counts_kinds() {
        let trace = Trace::parse(SAMPLE).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.count("Admitted"), 1);
        assert_eq!(trace.count("Rejected"), 1);
        let counts = trace.counts_by_kind();
        assert_eq!(counts.get("WaitlistServed"), Some(&1));
        assert_eq!(trace.events[1].t, 4.5);
        assert_eq!(trace.events[2].num_field("waited_secs"), Some(0.75));
        assert_eq!(trace.events[0].num_field("server"), Some(1.0));
    }

    #[test]
    fn unit_variants_and_blank_lines_are_fine() {
        let text = "{\"t\":1,\"event\":\"Checkpoint\"}\n\n";
        let trace = Trace::parse(text).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.events[0].kind, "Checkpoint");
        assert_eq!(trace.events[0].payload, Value::Null);
    }

    #[test]
    fn rejects_backwards_time() {
        let text = concat!(
            r#"{"t":5,"event":{"ServerUp":{"server":0}}}"#,
            "\n",
            r#"{"t":4,"event":{"ServerUp":{"server":1}}}"#,
            "\n",
        );
        let err = Trace::parse(text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        assert!(Trace::parse("not json\n").unwrap_err().contains("line 1"));
        let missing_t = r#"{"event":{"ServerUp":{"server":0}}}"#;
        assert!(Trace::parse(missing_t).unwrap_err().contains("`t`"));
        let missing_event = r#"{"t":1}"#;
        assert!(Trace::parse(missing_event).unwrap_err().contains("`event`"));
    }

    #[test]
    fn rejects_malformed_event_tags_naming_the_line() {
        // An `event` that is neither a single-entry map nor a tag string
        // cannot be an externally-tagged variant.
        for bad in [
            r#"{"t":10,"event":[1,2]}"#,
            r#"{"t":10,"event":7}"#,
            r#"{"t":10,"event":{"A":1,"B":2}}"#,
            r#"{"t":10,"event":null}"#,
        ] {
            let text = format!("{SAMPLE}{bad}\n");
            let err = Trace::parse(&text).unwrap_err();
            assert!(err.contains("line 4"), "{bad}: {err}");
            assert!(err.contains("malformed `event`"), "{bad}: {err}");
        }
    }

    #[test]
    fn rejects_non_monotonic_timestamps_mid_file() {
        // A regression sandwiched between valid lines must name exactly
        // the offending line, and the good prefix must not leak out.
        let text = concat!(
            r#"{"t":1,"event":{"ServerUp":{"server":0}}}"#,
            "\n",
            r#"{"t":8,"event":{"ServerUp":{"server":1}}}"#,
            "\n",
            r#"{"t":7.999,"event":{"ServerUp":{"server":2}}}"#,
            "\n",
            r#"{"t":9,"event":{"ServerUp":{"server":3}}}"#,
            "\n",
        );
        let err = Trace::parse(text).unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("time went backwards"), "{err}");
        assert!(err.contains("7.999"), "{err}");
    }

    #[test]
    fn rejects_a_truncated_final_line() {
        // A trace cut off mid-write (crash before the buffered line
        // completed) fails cleanly, naming the last line.
        let text = format!("{SAMPLE}{}", r#"{"t":9.5,"event":{"Adm"#);
        let err = Trace::parse(&text).unwrap_err();
        assert!(err.contains("line 4"), "{err}");
        assert!(err.contains("invalid JSON"), "{err}");
    }
}
