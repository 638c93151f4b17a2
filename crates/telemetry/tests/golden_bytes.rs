//! Golden bytes of the telemetry expositions: the Chrome-trace export
//! of a fixed flight record and the Prometheus render of fixed
//! registries under a `ManualClock`. Scrapers, Perfetto and `jq` read
//! these bytes, so any change to them is a wire change, not a refactor.

use std::borrow::Cow;
use std::sync::Arc;

use odin_telemetry::{
    chrome_trace, render_prometheus_grouped, FlightRecord, Level, ManualClock, RecordedEvent,
    Registry, SpanRecord, TimelineStage,
};

fn record() -> FlightRecord {
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
            SpanRecord {
                trace: u64::MAX,
                id: 9,
                parent: 0,
                name: Cow::Owned("odd \"name\"".to_string()),
                start_ms: 0.0015,
                end_ms: 1.25,
                cluster: 0,
                frame: -1,
            },
        ],
        events: vec![
            RecordedEvent {
                at_ms: 2.0,
                level: Level::Warn,
                target: Cow::Borrowed("store"),
                message: "disk \"full\" at C:\\odin\n\ttab \u{1} bell \u{7f} é \u{2028} 𝄞"
                    .to_string(),
            },
            RecordedEvent {
                at_ms: 3.125,
                level: Level::Error,
                target: Cow::Borrowed("telemetry"),
                message: String::new(),
            },
        ],
        dropped_spans: 5,
        dropped_events: 2,
    }
}

#[test]
fn chrome_trace_bytes_are_pinned() {
    assert_eq!(
        chrome_trace(&record()),
        concat!(
            r#"{"displayTimeUnit":"ms","otherData":{"dropped_spans":5,"dropped_events":2},"traceEvents":["#,
            r#"{"name":"frame","cat":"span","ph":"X","pid":1,"tid":1,"ts":1000,"dur":1500,"args":{"trace":1,"span":1,"parent":0,"frame":7}},"#,
            r#"{"name":"drift_detected","cat":"span","ph":"X","pid":1,"tid":1,"ts":2000,"dur":0,"args":{"trace":1,"span":2,"parent":1,"cluster":3,"frame":7}},"#,
            r#"{"name":"odd \"name\"","cat":"span","ph":"X","pid":1,"tid":18446744073709551615,"ts":1.5,"dur":1248.5,"args":{"trace":18446744073709551615,"span":9,"parent":0,"cluster":0}},"#,
            r#"{"name":"store","cat":"event","ph":"i","s":"g","pid":1,"tid":0,"ts":2000,"args":{"level":"warn","message":"disk \"full\" at C:\\odin\n\ttab \u0001 bell "#,
            "\u{7f} é \u{2028} 𝄞",
            r#""}},"#,
            r#"{"name":"telemetry","cat":"event","ph":"i","s":"g","pid":1,"tid":0,"ts":3125,"args":{"level":"error","message":""}}]}"#,
        )
    );
    assert_eq!(
        chrome_trace(&FlightRecord::default()),
        r#"{"displayTimeUnit":"ms","otherData":{"dropped_spans":0,"dropped_events":0},"traceEvents":[]}"#
    );
}

fn registry(frames: u64) -> Registry {
    let reg = Registry::new();
    reg.set_clock(Arc::new(ManualClock::new()));
    reg.counter("odin_frames_total").add(frames);
    reg.counter("odin_drift_events_total").add(2);
    reg.gauge("odin_clusters").set(3);
    reg.gauge("odin_offset").set(-4);
    let h = reg.histogram("odin_stage_encode_ms", &[0.5, 5.0, 1e6]);
    h.observe_ms(0.25);
    h.observe_ms(1.0);
    h.observe_ms(50.0);
    h.observe_ms(2.5e6);
    reg.histogram("odin_recovery_ms", &[1.0, 12.5]);
    reg.record_timeline(TimelineStage::DriftDetected, 1, 64);
    reg.record_timeline(TimelineStage::SpecializedInstalled, 1, 80);
    reg
}

#[test]
fn grouped_prometheus_bytes_are_pinned() {
    let shards = [
        ("0".to_string(), registry(128).snapshot()),
        ("a\"b\\c".to_string(), registry(7).snapshot()),
    ];
    assert_eq!(
        render_prometheus_grouped(&shards),
        concat!(
            "# TYPE odin_drift_events_total counter\n",
            "odin_drift_events_total{stream=\"0\"} 2\n",
            "odin_drift_events_total{stream=\"a\\\"b\\\\c\"} 2\n",
            "# TYPE odin_frames_total counter\n",
            "odin_frames_total{stream=\"0\"} 128\n",
            "odin_frames_total{stream=\"a\\\"b\\\\c\"} 7\n",
            "# TYPE odin_clusters gauge\n",
            "odin_clusters{stream=\"0\"} 3\n",
            "odin_clusters{stream=\"a\\\"b\\\\c\"} 3\n",
            "# TYPE odin_offset gauge\n",
            "odin_offset{stream=\"0\"} -4\n",
            "odin_offset{stream=\"a\\\"b\\\\c\"} -4\n",
            "# TYPE odin_recovery_ms histogram\n",
            "odin_recovery_ms_bucket{stream=\"0\",le=\"1\"} 0\n",
            "odin_recovery_ms_bucket{stream=\"0\",le=\"12.5\"} 0\n",
            "odin_recovery_ms_bucket{stream=\"0\",le=\"+Inf\"} 0\n",
            "odin_recovery_ms_sum{stream=\"0\"} 0\n",
            "odin_recovery_ms_count{stream=\"0\"} 0\n",
            "odin_recovery_ms_bucket{stream=\"a\\\"b\\\\c\",le=\"1\"} 0\n",
            "odin_recovery_ms_bucket{stream=\"a\\\"b\\\\c\",le=\"12.5\"} 0\n",
            "odin_recovery_ms_bucket{stream=\"a\\\"b\\\\c\",le=\"+Inf\"} 0\n",
            "odin_recovery_ms_sum{stream=\"a\\\"b\\\\c\"} 0\n",
            "odin_recovery_ms_count{stream=\"a\\\"b\\\\c\"} 0\n",
            "# TYPE odin_stage_encode_ms histogram\n",
            "odin_stage_encode_ms_bucket{stream=\"0\",le=\"0.5\"} 1\n",
            "odin_stage_encode_ms_bucket{stream=\"0\",le=\"5\"} 2\n",
            "odin_stage_encode_ms_bucket{stream=\"0\",le=\"1000000\"} 3\n",
            "odin_stage_encode_ms_bucket{stream=\"0\",le=\"+Inf\"} 4\n",
            "odin_stage_encode_ms_sum{stream=\"0\"} 2500051.25\n",
            "odin_stage_encode_ms_count{stream=\"0\"} 4\n",
            "odin_stage_encode_ms_bucket{stream=\"a\\\"b\\\\c\",le=\"0.5\"} 1\n",
            "odin_stage_encode_ms_bucket{stream=\"a\\\"b\\\\c\",le=\"5\"} 2\n",
            "odin_stage_encode_ms_bucket{stream=\"a\\\"b\\\\c\",le=\"1000000\"} 3\n",
            "odin_stage_encode_ms_bucket{stream=\"a\\\"b\\\\c\",le=\"+Inf\"} 4\n",
            "odin_stage_encode_ms_sum{stream=\"a\\\"b\\\\c\"} 2500051.25\n",
            "odin_stage_encode_ms_count{stream=\"a\\\"b\\\\c\"} 4\n",
            "# odin drift timeline [stream 0]: stage cluster frame at_ms\n",
            "# timeline [stream 0] drift_detected 1 64 0\n",
            "# timeline [stream 0] specialized_installed 1 80 0\n",
            "# odin drift timeline [stream a\"b\\c]: stage cluster frame at_ms\n",
            "# timeline [stream a\"b\\c] drift_detected 1 64 0\n",
            "# timeline [stream a\"b\\c] specialized_installed 1 80 0\n",
        )
    );
}
