//! The Prometheus text exposition of labeled [`TelemetrySnapshot`]s,
//! and [`read_samples`], the one reader of it.
//!
//! The renderer is a pure function of its snapshots. Floats are
//! formatted with Rust's `Display` (shortest round-trip
//! representation), which is deterministic across platforms and thread
//! counts; collection order comes from the snapshot, which is already
//! name-sorted.

use crate::registry::TelemetrySnapshot;

/// Renders labeled snapshots — one per stream shard of a server — as
/// one Prometheus text exposition (version 0.0.4). Each metric gets one
/// `# TYPE` line, followed by one sample per shard carrying a
/// `stream="<label>"` label; histograms are cumulative
/// `_bucket{stream="..",le=".."}` series plus `_sum`/`_count`, and each
/// shard's drift timeline follows as comment lines. Shard order is the
/// caller's and metric order is name-sorted, so output is
/// deterministic.
pub fn render_prometheus_grouped(shards: &[(String, TelemetrySnapshot)]) -> String {
    use std::collections::BTreeMap;
    let mut counters: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
    let mut gauges: BTreeMap<&str, Vec<(&str, i64)>> = BTreeMap::new();
    let mut histograms: BTreeMap<&str, Vec<(&str, &crate::registry::HistogramSnapshot)>> =
        BTreeMap::new();
    for (stream, snap) in shards {
        for (name, v) in &snap.counters {
            counters.entry(name).or_default().push((stream, *v));
        }
        for (name, v) in &snap.gauges {
            gauges.entry(name).or_default().push((stream, *v));
        }
        for h in &snap.histograms {
            histograms.entry(&h.name).or_default().push((stream, h));
        }
    }
    let mut out = String::new();
    for (name, samples) in &counters {
        out.push_str(&format!("# TYPE {name} counter\n"));
        for (stream, v) in samples {
            out.push_str(&format!("{name}{{stream=\"{}\"}} {v}\n", escape_label(stream)));
        }
    }
    for (name, samples) in &gauges {
        out.push_str(&format!("# TYPE {name} gauge\n"));
        for (stream, v) in samples {
            out.push_str(&format!("{name}{{stream=\"{}\"}} {v}\n", escape_label(stream)));
        }
    }
    for (name, samples) in &histograms {
        out.push_str(&format!("# TYPE {name} histogram\n"));
        for (stream, h) in samples {
            let stream = escape_label(stream);
            let mut cum = 0u64;
            for (i, &bound) in h.bounds.iter().enumerate() {
                cum += h.buckets[i];
                out.push_str(&format!(
                    "{name}_bucket{{stream=\"{stream}\",le=\"{bound}\"}} {cum}\n"
                ));
            }
            out.push_str(&format!(
                "{name}_bucket{{stream=\"{stream}\",le=\"+Inf\"}} {}\n",
                h.count
            ));
            out.push_str(&format!("{name}_sum{{stream=\"{stream}\"}} {}\n", h.sum_ms()));
            out.push_str(&format!("{name}_count{{stream=\"{stream}\"}} {}\n", h.count));
        }
    }
    for (stream, snap) in shards {
        if !snap.timeline.is_empty() {
            // A comment ends at its line: a newline in the label must
            // not start a line of its own.
            let stream = stream.replace('\n', "\\n");
            out.push_str(&format!(
                "# odin drift timeline [stream {stream}]: stage cluster frame at_ms\n"
            ));
            for t in &snap.timeline {
                out.push_str(&format!(
                    "# timeline [stream {stream}] {} {} {} {}\n",
                    t.stage.as_str(),
                    t.cluster_id,
                    t.frame,
                    t.at_ms
                ));
            }
        }
    }
    out
}

/// One sample line of an exposition, read back: the metric name (with
/// any `_bucket`/`_sum`/`_count` suffix), its `stream` label (set by
/// [`render_prometheus_grouped`]) and `le` bound, unescaped, and its
/// value. Other labels are skipped.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub struct Sample {
    pub name: String,
    pub stream: Option<String>,
    pub le: Option<String>,
    pub value: f64,
}

/// Escapes a label value the way the Prometheus text format defines:
/// `\`, `"` and newline become `\\`, `\"` and `\n`, and every other
/// character is written as it is.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Reads the samples of a Prometheus text exposition, such as
/// [`render_prometheus_grouped`] writes, in order; comment lines and
/// lines that do not parse are skipped.
pub fn read_samples(text: &str) -> Vec<Sample> {
    text.lines().filter(|l| !l.starts_with('#')).filter_map(read_sample).collect()
}

fn read_sample(line: &str) -> Option<Sample> {
    let (series, value) = line.rsplit_once(' ')?;
    let (name, mut labels) = match series.split_once('{') {
        Some((name, labels)) => (name, labels.strip_suffix('}')?),
        None => (series, ""),
    };
    let mut sample =
        Sample { name: name.to_string(), stream: None, le: None, value: value.parse().ok()? };
    while !labels.is_empty() {
        let (key, quoted) = labels.split_once('=')?;
        let (text, rest) = read_label(quoted)?;
        match key {
            "stream" => sample.stream = Some(text),
            "le" => sample.le = Some(text),
            _ => {}
        }
        labels = rest.strip_prefix(',').unwrap_or(rest);
    }
    Some(sample)
}

/// The label value `quoted` starts with, between double quotes,
/// unescaped, and the text after its closing quote. `None` for an
/// unterminated value or an escape the text format does not define.
fn read_label(quoted: &str) -> Option<(String, &str)> {
    let body = quoted.strip_prefix('"')?;
    let mut value = String::new();
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((value, &body[i + 1..])),
            '\\' => value.push(match chars.next()?.1 {
                '\\' => '\\',
                '"' => '"',
                'n' => '\n',
                _ => return None,
            }),
            c => value.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::registry::Registry;
    use crate::timeline::TimelineStage;
    use std::sync::Arc;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.set_clock(Arc::new(ManualClock::new()));
        reg.counter("odin_frames_total").add(128);
        reg.gauge("odin_clusters").set(3);
        let h = reg.histogram("odin_stage_encode_ms", &[0.5, 5.0]);
        h.observe_ms(0.25);
        h.observe_ms(1.0);
        h.observe_ms(50.0);
        reg.record_timeline(TimelineStage::DriftDetected, 1, 64);
        reg
    }

    #[test]
    fn prometheus_render_has_cumulative_buckets() {
        let text = render_prometheus_grouped(&[("0".to_string(), sample_registry().snapshot())]);
        assert!(text.contains("# TYPE odin_frames_total counter"));
        assert!(text.contains("odin_frames_total{stream=\"0\"} 128"));
        assert!(text.contains("# TYPE odin_clusters gauge"));
        assert!(text.contains("odin_stage_encode_ms_bucket{stream=\"0\",le=\"0.5\"} 1"));
        assert!(text.contains("odin_stage_encode_ms_bucket{stream=\"0\",le=\"5\"} 2"));
        assert!(text.contains("odin_stage_encode_ms_bucket{stream=\"0\",le=\"+Inf\"} 3"));
        assert!(text.contains("odin_stage_encode_ms_count{stream=\"0\"} 3"));
        assert!(text.contains("# timeline [stream 0] drift_detected 1 64 0"));
    }

    #[test]
    fn grouped_render_labels_every_sample_once_per_stream() {
        let a = sample_registry().snapshot();
        let b = sample_registry().snapshot();
        let text = render_prometheus_grouped(&[("0".to_string(), a), ("1".to_string(), b)]);
        // One TYPE line per metric, not per shard.
        assert_eq!(text.matches("# TYPE odin_frames_total counter").count(), 1);
        assert!(text.contains("odin_frames_total{stream=\"0\"} 128"));
        assert!(text.contains("odin_frames_total{stream=\"1\"} 128"));
        assert!(text.contains("odin_clusters{stream=\"0\"} 3"));
        assert!(text.contains("odin_stage_encode_ms_bucket{stream=\"1\",le=\"0.5\"} 1"));
        assert!(text.contains("odin_stage_encode_ms_count{stream=\"0\"} 3"));
        assert!(text.contains("# timeline [stream 1] drift_detected 1 64 0"));
        // Deterministic.
        let a2 = sample_registry().snapshot();
        let b2 = sample_registry().snapshot();
        assert_eq!(
            text,
            render_prometheus_grouped(&[("0".to_string(), a2), ("1".to_string(), b2)])
        );
    }

    /// Every counter, gauge and histogram bucket of `snap`, as
    /// `read_samples` must give it back for `stream`.
    fn expected_samples(snap: &TelemetrySnapshot, stream: &str) -> Vec<Sample> {
        let sample = |name: String, le: Option<String>, value: f64| Sample {
            name,
            stream: Some(stream.to_string()),
            le,
            value,
        };
        let mut out = Vec::new();
        for (name, v) in &snap.counters {
            out.push(sample(name.clone(), None, *v as f64));
        }
        for (name, v) in &snap.gauges {
            out.push(sample(name.clone(), None, *v as f64));
        }
        for h in &snap.histograms {
            let mut cum = 0;
            for (bound, n) in h.bounds.iter().zip(&h.buckets) {
                cum += n;
                out.push(sample(format!("{}_bucket", h.name), Some(bound.to_string()), cum as f64));
            }
            out.push(sample(format!("{}_bucket", h.name), Some("+Inf".into()), h.count as f64));
            out.push(sample(format!("{}_sum", h.name), None, h.sum_ms()));
            out.push(sample(format!("{}_count", h.name), None, h.count as f64));
        }
        out
    }

    #[test]
    fn samples_read_back_from_both_shapes() {
        let snap = sample_registry().snapshot();
        let unlabeled = "# TYPE odin_frames_total counter\nodin_frames_total 128\n";
        let frames =
            Sample { name: "odin_frames_total".into(), stream: None, le: None, value: 128.0 };
        assert_eq!(read_samples(unlabeled), [frames]);

        let streams = ["0", "a \"b\" \\c, d=}"];
        let grouped = render_prometheus_grouped(&streams.map(|s| (s.to_string(), snap.clone())));
        let mut read = read_samples(&grouped);
        // The grouped shape interleaves streams per metric; order by
        // stream to compare with the per-stream expectation.
        read.sort_by_key(|s| streams.iter().position(|&id| s.stream.as_deref() == Some(id)));
        let expected: Vec<Sample> =
            streams.iter().flat_map(|id| expected_samples(&snap, id)).collect();
        assert_eq!(read, expected);
        assert!(read_samples("# TYPE x counter\nx{le=\"1} 2\nnot a sample\n").is_empty());
        // An escape the text format does not define is no sample.
        assert!(read_samples("x{stream=\"a\\tb\"} 1\n").is_empty());
    }

    #[test]
    fn label_values_escape_only_what_prometheus_defines() {
        let stream = "tab\t cr\r soh\u{1} nl\n end";
        let text = render_prometheus_grouped(&[(stream.to_string(), sample_registry().snapshot())]);
        assert!(
            text.contains("odin_frames_total{stream=\"tab\t cr\r soh\u{1} nl\\n end\"} 128\n"),
            "{text:?}"
        );
        assert!(text.contains("# timeline [stream tab\t cr\r soh\u{1} nl\\n end] drift_detected"));
        let snap = sample_registry().snapshot();
        assert_eq!(read_samples(&text), expected_samples(&snap, stream));
    }

    #[test]
    fn renders_of_empty_snapshot_are_valid() {
        let snap = TelemetrySnapshot::default();
        assert_eq!(render_prometheus_grouped(&[("0".to_string(), snap)]), "");
    }
}
