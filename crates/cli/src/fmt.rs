//! Shared parsing and rendering helpers for the CLI.

use odin_log::LogRecord;
use odin_telemetry::json::Value;
use odin_telemetry::{HistogramSnapshot, Sample};

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

/// Why a parsed `/healthz` body warrants a nonzero exit, if anything:
/// the server reports itself degraded, or some stream's admission
/// queue sits at its cap (ingest is actively shedding load).
pub fn healthz_alarm(health: &Value) -> Option<String> {
    if let Some(status) = health.get("status").and_then(Value::as_str).filter(|&s| s != "ok") {
        return Some(format!("status is \"{status}\""));
    }
    let cap = health.get("queue_cap").and_then(Value::as_u64)?;
    let depths = health.get("queue_depths").and_then(Value::as_array)?;
    let at_cap = |(stream, d): (usize, &Value)| Some((stream, d.as_u64().filter(|&d| d >= cap)?));
    let (stream, depth) = depths.iter().enumerate().find_map(at_cap)?;
    Some(format!("stream {stream} queue depth {depth} at cap {cap}"))
}

/// One `stream`'s histogram read back out of an exposition's samples.
/// `None` when the exposition has no such series (an older server).
fn histogram(samples: &[Sample], name: &str, stream: u32) -> Option<HistogramSnapshot> {
    let series = format!("{name}_bucket");
    let stream = Some(stream.to_string());
    let (mut bounds, mut buckets, mut seen) = (Vec::new(), Vec::new(), 0u64);
    for s in samples.iter().filter(|s| s.name == series && s.stream == stream) {
        let cumulative = s.value as u64;
        buckets.push(cumulative.checked_sub(seen)?);
        seen = cumulative;
        match s.le.as_deref()? {
            "+Inf" => {}
            le => bounds.push(le.parse().ok()?),
        }
    }
    if bounds.is_empty() || buckets.len() != bounds.len() + 1 {
        return None;
    }
    Some(HistogramSnapshot { name: name.to_string(), bounds, buckets, count: seen, sum_ns: 0 })
}

/// `odin_recovery_ms` as `status` and `top` show it: the interpolated
/// median drift-detected → model-installed time and how many recoveries
/// it is the median of; `-` before the first one completes.
pub fn recovery_p50(samples: &[Sample], stream: u32) -> String {
    match histogram(samples, "odin_recovery_ms", stream) {
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
    use odin_telemetry::{json, read_samples};

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
    fn recovery_p50_reads_both_exposition_shapes() {
        let grouped = "odin_recovery_ms_bucket{stream=\"0\",le=\"1000\"} 0\n\
                       odin_recovery_ms_bucket{stream=\"0\",le=\"+Inf\"} 0\n\
                       odin_recovery_ms_bucket{stream=\"1\",le=\"1000\"} 2\n\
                       odin_recovery_ms_bucket{stream=\"1\",le=\"+Inf\"} 2\n\
                       odin_recovery_ms_bucket{stream=\"2\",le=\"1000\"} 0\n\
                       odin_recovery_ms_bucket{stream=\"2\",le=\"2000\"} 4\n\
                       odin_recovery_ms_bucket{stream=\"2\",le=\"+Inf\"} 4\n";
        let grouped = read_samples(grouped);
        assert_eq!(recovery_p50(&grouped, 0), "-", "no recovery completed yet");
        assert_eq!(recovery_p50(&grouped, 1), "500.0ms (n=2)");
        assert_eq!(recovery_p50(&grouped, 2), "1.500s (n=4)");
        assert_eq!(recovery_p50(&grouped, 3), "-", "no such stream");
        // An unlabeled series belongs to no stream.
        let plain = read_samples(
            "odin_recovery_ms_bucket{le=\"1000\"} 2\nodin_recovery_ms_bucket{le=\"+Inf\"} 2\n",
        );
        assert_eq!(recovery_p50(&plain, 0), "-", "unlabeled series");
        let older = read_samples("odin_frames_total{stream=\"0\"} 7\n");
        assert_eq!(recovery_p50(&older, 0), "-", "older server");
    }

    #[test]
    fn healthz_alarms_fire_on_degraded_and_full_queues() {
        let healthz_alarm = |body: &str| healthz_alarm(&json::parse(body).expect("valid JSON"));
        assert_eq!(healthz_alarm("{\"status\":\"ok\",\"streams\":2}"), None);
        assert!(healthz_alarm("{\"status\":\"degraded\",\"streams\":2}")
            .is_some_and(|r| r.contains("degraded")));
        let full = "{\"status\":\"ok\",\"streams\":2,\"queue_cap\":8,\"queue_depths\":[0,8]}";
        assert!(healthz_alarm(full).is_some_and(|r| r.contains("stream 1")));
        let fine = "{\"status\":\"ok\",\"streams\":2,\"queue_cap\":8,\"queue_depths\":[7,0]}";
        assert_eq!(healthz_alarm(fine), None);
    }
}
