//! Chrome-trace (Perfetto) export of a [`FlightRecord`].
//!
//! Emits the Trace Event Format JSON understood by `chrome://tracing`
//! and <https://ui.perfetto.dev>: spans become `"ph":"X"` complete
//! events (timestamps and durations in microseconds), recorder events
//! become `"ph":"i"` instants. Each trace id is mapped to its own
//! `tid`, so Perfetto renders every frame/recovery trace on its own
//! row and the parent/child chain is visible in the `args`.
//!
//! The export is a pure function of the record: floats are formatted
//! with Rust's `Display` and entries keep recording order, so — given
//! a deterministic clock — the output participates in the repo's
//! byte-identical telemetry contract.

use crate::json::{escape, number};
use crate::recorder::FlightRecord;

/// Renders `record` in the Chrome Trace Event Format.
///
/// The result is a single JSON object: load it in Perfetto or
/// `chrome://tracing` directly.
pub fn chrome_trace(record: &FlightRecord) -> String {
    let mut events: Vec<String> = Vec::with_capacity(record.spans.len() + record.events.len() + 1);
    for s in &record.spans {
        let mut args = format!("\"trace\":{},\"span\":{},\"parent\":{}", s.trace, s.id, s.parent);
        if s.cluster >= 0 {
            args.push_str(&format!(",\"cluster\":{}", s.cluster));
        }
        if s.frame >= 0 {
            args.push_str(&format!(",\"frame\":{}", s.frame));
        }
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{{}}}}}",
            escape(&s.name),
            s.trace,
            number(s.start_ms * 1e3),
            number(s.duration_ms() * 1e3),
            args
        ));
    }
    for e in &record.events {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"ts\":{},\"args\":{{\"level\":\"{}\",\"message\":\"{}\"}}}}",
            escape(&e.target),
            number(e.at_ms * 1e3),
            e.level.as_str(),
            escape(&e.message)
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_spans\":{},\"dropped_events\":{}}},\"traceEvents\":[{}]}}",
        record.dropped_spans,
        record.dropped_events,
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Level;
    use crate::recorder::RecordedEvent;
    use crate::span::SpanRecord;
    use std::borrow::Cow;

    fn sample() -> FlightRecord {
        FlightRecord {
            spans: vec![
                SpanRecord {
                    trace: 1,
                    id: 1,
                    parent: 0,
                    name: Cow::Borrowed("frame"),
                    start_ms: 1.0,
                    end_ms: 2.5,
                    cluster: -1,
                    frame: 7,
                },
                SpanRecord {
                    trace: 1,
                    id: 2,
                    parent: 1,
                    name: Cow::Borrowed("drift_detected"),
                    start_ms: 2.0,
                    end_ms: 2.0,
                    cluster: 3,
                    frame: 7,
                },
            ],
            events: vec![RecordedEvent {
                at_ms: 2.0,
                level: Level::Warn,
                target: Cow::Borrowed("store"),
                message: "disk \"full\"".to_string(),
            }],
            dropped_spans: 5,
            dropped_events: 0,
        }
    }

    #[test]
    fn export_has_complete_and_instant_events() {
        let out = chrome_trace(&sample());
        assert!(out.starts_with("{\"displayTimeUnit\":\"ms\""));
        assert!(out.contains("\"dropped_spans\":5"));
        assert!(out.contains(
            "{\"name\":\"frame\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1000,\"dur\":1500,\"args\":{\"trace\":1,\"span\":1,\"parent\":0,\"frame\":7}}"
        ));
        assert!(out.contains("\"name\":\"drift_detected\""));
        assert!(out.contains("\"cluster\":3"));
        assert!(out.contains("\"ph\":\"i\""));
        assert!(out.contains("\"message\":\"disk \\\"full\\\"\""));
    }

    #[test]
    fn export_of_empty_record_is_valid() {
        let out = chrome_trace(&FlightRecord::default());
        assert!(out.ends_with("\"traceEvents\":[]}"));
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(chrome_trace(&sample()), chrome_trace(&sample()));
    }
}
