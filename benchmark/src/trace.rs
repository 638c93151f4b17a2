//! Client-side spans of a traced run, kept in memory and written as
//! Chrome-trace JSON when the workload ends.
//!
//! A span is recorded from the benchmark's own files, around a call
//! into a layer: name, start, end, the span that caused it, and the
//! request key its whole tree shares. Spans inside the program are a
//! later change.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

pub struct Span {
    pub id: u32,
    /// Id of the causing span, 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    /// Microseconds since the trace origin.
    pub start_us: f64,
    pub end_us: f64,
    /// Client thread that recorded it.
    pub tid: u32,
    /// `stream:seq` for request trees, the probe name under `probe`.
    pub key: String,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans against one origin instant.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u32,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace { origin, spans: Vec::new(), next_id: 1 }
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        tid: u32,
        key: &str,
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            tid,
            key: key.to_string(),
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as Chrome-trace "complete" events
    /// (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            let event = Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str("benchmark")),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.duration_us())),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(s.tid))),
                (
                    "args",
                    Json::obj(vec![
                        ("id", Json::Num(f64::from(s.id))),
                        ("parent", Json::Num(f64::from(s.parent))),
                        ("key", Json::str(s.key.clone())),
                    ]),
                ),
            ]);
            out.write_all(b"\n")?;
            out.write_all(event.render().as_bytes())?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_is_loadable_json() {
        let t0 = Instant::now();
        let mut trace = Trace::new(t0);
        let root =
            trace.record(0, "request", t0, t0 + std::time::Duration::from_micros(50), 1, "0:7");
        trace.record(root, "wait", t0, t0 + std::time::Duration::from_micros(20), 1, "0:7");
        let dir = std::env::temp_dir().join(format!("odin-bench-trace-{}", std::process::id()));
        let path = dir.join("t.json");
        trace.write_chrome(&path).unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("wait"));
        assert_eq!(events[1].get("args").unwrap().get("parent").and_then(Json::as_u64), Some(1));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
