//! `odin top` — one-screen live view of a serving front end: per-stream
//! throughput, queue depths, serving precision, drift/attic counters
//! and median recovery time, refreshed from `/metrics` + `/healthz`.
//!
//! Exits nonzero (after rendering) when the deployment is unhealthy:
//! `/healthz` reports a degraded status, or any stream's admission
//! queue sits at its cap. `--once` renders a single frame (scripts,
//! CI); otherwise the screen refreshes every `--interval` until
//! interrupted or the health check trips.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use odin_telemetry::json::{self, Value};
use odin_telemetry::{read_samples, Sample};

use crate::fmt::{self, healthz_alarm};
use crate::{take_value, Remote};

pub fn run(args: &[String]) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut once = false;
    let mut interval = Duration::from_secs(2);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(take_value(args, &mut i, "--addr")?),
            "--once" => once = true,
            "--interval" => {
                let v = take_value(args, &mut i, "--interval")?;
                interval = Duration::from_micros(fmt::parse_time_us(&v)?.max(100_000));
            }
            other => return Err(format!("top: unknown flag `{other}`")),
        }
        i += 1;
    }
    let addr = addr.ok_or("top needs --addr HOST:PORT")?;
    let remote = Remote::resolve(&addr)?;

    let mut prev: Option<(Instant, Vec<Sample>)> = None;
    loop {
        let health = remote.get("/healthz")?;
        let health = json::parse(&health).map_err(|e| format!("/healthz: {e}"))?;
        let metrics = read_samples(&remote.get("/metrics")?);
        let now = Instant::now();
        if !once {
            // Clear screen + home, like top(1).
            print!("\x1b[2J\x1b[H");
        }
        render(&addr, &health, &metrics, prev.as_ref().map(|(t, m)| (now - *t, m.as_slice())));
        if let Some(reason) = healthz_alarm(&health) {
            return Err(format!("unhealthy: {reason}"));
        }
        if once {
            return Ok(());
        }
        prev = Some((now, metrics));
        std::thread::sleep(interval);
    }
}

/// The value of `name` for `stream`, 0 when absent.
fn get(samples: &[Sample], name: &str, stream: u32) -> f64 {
    let stream = Some(stream.to_string());
    samples.iter().find(|s| s.name == name && s.stream == stream).map_or(0.0, |s| s.value)
}

fn render(addr: &str, health: &Value, m: &[Sample], prev: Option<(Duration, &[Sample])>) {
    let status = health.get("status").and_then(Value::as_str).unwrap_or("?");
    let queue_depths = health.get("queue_depths").and_then(Value::as_array).unwrap_or_default();
    let cap = health.get("queue_cap").and_then(Value::as_u64).map_or("-".into(), |c| c.to_string());
    println!("odin top — {addr}   status: {status}   queue cap: {cap}");
    println!(
        "{:<7} {:>9} {:>8} {:>6} {:>5} {:>10} {:>6} {:>9} {:>10} {:>9}  {:<12}",
        "STREAM",
        "FRAMES",
        "FPS",
        "QUEUE",
        "LOGQ",
        "PRECISION",
        "DRIFT",
        "INSTALLS",
        "ATTIC(h/m)",
        "REJECTED",
        "RECOVERY p50"
    );
    let streams: BTreeSet<u32> =
        m.iter().filter_map(|s| s.stream.as_deref()?.parse().ok()).collect();
    for s in streams {
        let frames = get(m, "odin_frames_total", s);
        let fps = match prev {
            Some((dt, p)) if dt.as_secs_f64() > 0.0 => {
                format!("{:.1}", (frames - get(p, "odin_frames_total", s)) / dt.as_secs_f64())
            }
            _ => "-".to_string(),
        };
        let depth = queue_depths.get(s as usize).and_then(Value::as_u64).unwrap_or(0);
        let installs = get(m, "odin_models_installed_lite_total", s)
            + get(m, "odin_models_installed_specialized_total", s);
        let precision = if get(m, "odin_serve_precision", s) >= 1.0 { "int8" } else { "f32" };
        println!(
            "{:<7} {:>9} {:>8} {:>6} {:>5} {:>10} {:>6} {:>9} {:>10} {:>9}  {}",
            s,
            frames as u64,
            fps,
            depth,
            get(m, "odin_event_log_queue_depth", s) as u64,
            precision,
            get(m, "odin_drift_events_total", s) as u64,
            installs as u64,
            format!(
                "{}/{}",
                get(m, "odin_attic_hits_total", s) as u64,
                get(m, "odin_attic_misses_total", s) as u64
            ),
            get(m, "odin_server_rejected_total", s) as u64,
            fmt::recovery_p50(m, s),
        );
    }
}
