//! Shared parsing and rendering helpers for the CLI.

use odin_log::{LogRecord, RecordKind, ServedLabel};
use odin_telemetry::HistogramSnapshot;

/// Parses a time argument into microseconds. Accepts `120us`, `250ms`,
/// `1.5s`, or a bare integer (treated as microseconds).
pub fn parse_time_us(s: &str) -> Result<u64, String> {
    let bad = |s: &str| format!("bad time `{s}` (expected e.g. 250ms, 1.5s, 1200us)");
    if let Some(v) = s.strip_suffix("us") {
        return v.parse::<u64>().map_err(|_| bad(s));
    }
    if let Some(v) = s.strip_suffix("ms") {
        let ms: f64 = v.parse().map_err(|_| bad(s))?;
        return Ok((ms * 1_000.0).round() as u64);
    }
    if let Some(v) = s.strip_suffix('s') {
        let secs: f64 = v.parse().map_err(|_| bad(s))?;
        return Ok((secs * 1_000_000.0).round() as u64);
    }
    s.parse::<u64>().map_err(|_| bad(s))
}

/// Parses a trace id, decimal or `0x`-prefixed hex.
pub fn parse_trace(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad trace id `{s}`"))
}

/// Renders microseconds as a human-scaled duration (`832us`, `14.2ms`,
/// `3.150s`).
pub fn human_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.3}s", us as f64 / 1_000_000.0)
    }
}

/// Header row for the record table, matched by [`row`].
pub const TABLE_HEADER: &str =
    "SEQ      KIND             TIME        FRAME    STREAM  CLUSTER  SERVED    DETS  CONF(mean/max)  LATENCY   TRACE";

/// One aligned table row per record.
pub fn row(r: &LogRecord) -> String {
    let cluster = if r.cluster < 0 { "-".to_string() } else { r.cluster.to_string() };
    format!(
        "{:<8} {:<16} {:<11} {:<8} {:<7} {:<8} {:<9} {:<5} {:<15} {:<9} {:#x}",
        r.seq,
        r.kind.name(),
        human_us(r.ts_us),
        r.frame,
        r.stream,
        cluster,
        r.served.name(),
        r.dets,
        format!("{:.2}/{:.2}", r.conf_mean, r.conf_max),
        human_us(r.latency_us),
        r.trace,
    )
}

/// One record as a JSON object (stable key order, no external deps).
pub fn json(r: &LogRecord) -> String {
    r.to_json()
}

/// The raw text of `"key":value` inside a flat JSON object (no nested
/// objects; our wire shapes never put `,` or `}` inside strings).
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Inverse of [`LogRecord::to_json`] for one object (the `/events`
/// wire shape — flat, fixed keys).
pub fn record_from_json(obj: &str) -> Option<LogRecord> {
    Some(LogRecord {
        seq: field(obj, "seq")?.parse().ok()?,
        kind: RecordKind::parse(field(obj, "kind")?.trim_matches('"'))?,
        ts_us: field(obj, "ts_us")?.parse().ok()?,
        frame: field(obj, "frame")?.parse().ok()?,
        stream: field(obj, "stream")?.parse().ok()?,
        cluster: field(obj, "cluster")?.parse().ok()?,
        served: ServedLabel::parse(field(obj, "served")?.trim_matches('"'))?,
        dets: field(obj, "dets")?.parse().ok()?,
        conf_mean: field(obj, "conf_mean")?.parse().ok()?,
        conf_max: field(obj, "conf_max")?.parse().ok()?,
        latency_us: field(obj, "latency_us")?.parse().ok()?,
        trace: field(obj, "trace")?.parse().ok()?,
    })
}

/// Splits a `GET /events` response body into `(next cursor, records)`.
pub fn parse_events_body(body: &str) -> Result<(String, Vec<LogRecord>), String> {
    // The cursor is a quoted string that may itself contain commas
    // (one `seq:offset` per stream), so scan to the closing quote
    // rather than using the flat-value `field` helper.
    let cursor = body
        .find("\"cursor\":\"")
        .map(|i| i + "\"cursor\":\"".len())
        .and_then(|start| {
            let rest = &body[start..];
            rest.find('"').map(|end| rest[..end].to_string())
        })
        .ok_or_else(|| format!("no cursor in /events response: {body}"))?;
    let start = body.find("\"records\":[").map(|i| i + "\"records\":[".len());
    let end = body.rfind(']');
    let (Some(start), Some(end)) = (start, end) else {
        return Err(format!("no records array in /events response: {body}"));
    };
    let inner = &body[start..end];
    let mut records = Vec::new();
    for obj in inner.split("},{") {
        let obj = obj.trim_start_matches('{').trim_end_matches('}');
        if obj.is_empty() {
            continue;
        }
        records
            .push(record_from_json(obj).ok_or_else(|| format!("malformed record object: {obj}"))?);
    }
    Ok((cursor, records))
}

/// The `[a,b,c]` array value of `"key":[...]` as numbers.
pub fn json_u64_array(obj: &str, key: &str) -> Option<Vec<u64>> {
    let pat = format!("\"{key}\":[");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let inner = &rest[..rest.find(']')?];
    if inner.trim().is_empty() {
        return Some(Vec::new());
    }
    inner.split(',').map(|v| v.trim().parse().ok()).collect()
}

/// Why a `/healthz` body warrants a nonzero exit, if anything: the
/// server reports itself degraded, or some stream's admission queue
/// sits at its cap (ingest is actively shedding load).
pub fn healthz_alarm(health: &str) -> Option<String> {
    if let Some(status) = field(health, "status").map(|v| v.trim_matches('"')) {
        if status != "ok" {
            return Some(format!("status is \"{status}\""));
        }
    }
    if let (Some(cap), Some(depths)) = (
        field(health, "queue_cap").and_then(|v| v.parse::<u64>().ok()),
        json_u64_array(health, "queue_depths"),
    ) {
        if let Some((stream, depth)) = depths.iter().enumerate().find(|(_, d)| **d >= cap) {
            return Some(format!("stream {stream} queue depth {depth} at cap {cap}"));
        }
    }
    None
}

/// One histogram read back out of a Prometheus text exposition — the
/// `stream`'s series of a grouped exposition, or the unlabeled series
/// of a single pipeline's. `None` when the exposition has no such
/// series (an older server).
pub fn histogram_from_metrics(
    text: &str,
    name: &str,
    stream: Option<u32>,
) -> Option<HistogramSnapshot> {
    let prefix = format!("{name}_bucket{{");
    let stream_label = stream.map(|id| format!("stream=\"{id}\","));
    let (mut bounds, mut buckets, mut seen) = (Vec::new(), Vec::new(), 0u64);
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else { continue };
        let rest = match &stream_label {
            Some(label) => match rest.strip_prefix(label.as_str()) {
                Some(rest) => rest,
                None => continue,
            },
            None => rest,
        };
        let (le, cumulative) = rest.strip_prefix("le=\"")?.split_once("\"} ")?;
        let cumulative: u64 = cumulative.trim().parse().ok()?;
        buckets.push(cumulative.checked_sub(seen)?);
        seen = cumulative;
        if le != "+Inf" {
            bounds.push(le.parse().ok()?);
        }
    }
    (buckets.len() == bounds.len() + 1 && !bounds.is_empty()).then(|| HistogramSnapshot {
        name: name.to_string(),
        bounds,
        buckets,
        count: seen,
        sum_ns: 0,
    })
}

/// `odin_recovery_ms` as `status` and `top` show it: the interpolated
/// median drift-detected → model-installed time and how many recoveries
/// it is the median of; `-` before the first one completes.
pub fn recovery_p50(metrics: &str, stream: Option<u32>) -> String {
    match histogram_from_metrics(metrics, "odin_recovery_ms", stream) {
        Some(h) if h.count > 0 => {
            let us = (h.quantile_interp_ms(0.5) * 1_000.0).round() as u64;
            format!("{} (n={})", human_us(us), h.count)
        }
        _ => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_parsing_accepts_all_suffixes() {
        assert_eq!(parse_time_us("1200us").unwrap(), 1200);
        assert_eq!(parse_time_us("250ms").unwrap(), 250_000);
        assert_eq!(parse_time_us("1.5s").unwrap(), 1_500_000);
        assert_eq!(parse_time_us("42").unwrap(), 42);
        assert!(parse_time_us("soon").is_err());
    }

    #[test]
    fn trace_parsing_accepts_hex_and_decimal() {
        assert_eq!(parse_trace("0x10000000001").unwrap(), (1u64 << 40) + 1);
        assert_eq!(parse_trace("7").unwrap(), 7);
        assert!(parse_trace("0xzz").is_err());
    }

    #[test]
    fn human_durations_scale() {
        assert_eq!(human_us(832), "832us");
        assert_eq!(human_us(14_200), "14.2ms");
        assert_eq!(human_us(3_150_000), "3.150s");
    }

    #[test]
    fn record_json_round_trips() {
        let rec = LogRecord {
            seq: 9,
            kind: RecordKind::DriftDetected,
            ts_us: 123_456,
            frame: 42,
            stream: 3,
            cluster: -1,
            served: ServedLabel::Teacher,
            dets: 2,
            conf_mean: 0.5,
            conf_max: 0.75,
            latency_us: 810,
            trace: 0xbeef,
        };
        let parsed = record_from_json(&rec.to_json()).expect("parse back");
        assert_eq!(parsed, rec);
    }

    #[test]
    fn events_body_parses_cursor_and_records() {
        let a = LogRecord { seq: 1, ..LogRecord::empty() };
        let b = LogRecord { seq: 2, stream: 1, ..LogRecord::empty() };
        let body = format!(
            "{{\"cursor\":\"2:40,0:8\",\"count\":2,\"records\":[{},{}]}}",
            a.to_json(),
            b.to_json()
        );
        let (cursor, records) = parse_events_body(&body).expect("parse");
        assert_eq!(cursor, "2:40,0:8");
        assert_eq!(records, vec![a, b]);
        let (cursor, records) =
            parse_events_body("{\"cursor\":\"0:8\",\"count\":0,\"records\":[]}").expect("empty");
        assert_eq!(cursor, "0:8");
        assert!(records.is_empty());
    }

    #[test]
    fn recovery_p50_reads_both_exposition_shapes() {
        let plain = "odin_recovery_ms_bucket{le=\"1000\"} 0\n\
                     odin_recovery_ms_bucket{le=\"2000\"} 4\n\
                     odin_recovery_ms_bucket{le=\"+Inf\"} 4\n\
                     odin_recovery_ms_sum 6100\nodin_recovery_ms_count 4\n";
        assert_eq!(recovery_p50(plain, None), "1.500s (n=4)");
        let grouped = "odin_recovery_ms_bucket{stream=\"0\",le=\"1000\"} 0\n\
                       odin_recovery_ms_bucket{stream=\"0\",le=\"+Inf\"} 0\n\
                       odin_recovery_ms_bucket{stream=\"1\",le=\"1000\"} 2\n\
                       odin_recovery_ms_bucket{stream=\"1\",le=\"+Inf\"} 2\n";
        assert_eq!(recovery_p50(grouped, Some(0)), "-", "no recovery completed yet");
        assert_eq!(recovery_p50(grouped, Some(1)), "500.0ms (n=2)");
        assert_eq!(recovery_p50("odin_frames_total 7\n", None), "-", "older server");
    }

    #[test]
    fn healthz_alarms_fire_on_degraded_and_full_queues() {
        assert_eq!(healthz_alarm("{\"status\":\"ok\",\"streams\":2}"), None);
        assert!(healthz_alarm("{\"status\":\"degraded\",\"streams\":2}")
            .is_some_and(|r| r.contains("degraded")));
        let full = "{\"status\":\"ok\",\"streams\":2,\"queue_cap\":8,\"queue_depths\":[0,8]}";
        assert!(healthz_alarm(full).is_some_and(|r| r.contains("stream 1")));
        let fine = "{\"status\":\"ok\",\"streams\":2,\"queue_cap\":8,\"queue_depths\":[7,0]}";
        assert_eq!(healthz_alarm(fine), None);
    }
}
