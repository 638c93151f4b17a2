//! `odin top` — one-screen live view of a serving front end: per-stream
//! throughput, queue depths, serving precision, drift/attic counters
//! and median recovery time, refreshed from `/metrics` + `/healthz`.
//!
//! Exits nonzero (after rendering) when the deployment is unhealthy:
//! `/healthz` reports a degraded status, or any stream's admission
//! queue sits at its cap. `--once` renders a single frame (scripts,
//! CI); otherwise the screen refreshes every `--interval` until
//! interrupted or the health check trips.

use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::fmt::{self, healthz_alarm, json_u64_array};
use crate::take_value;

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
    let sock: SocketAddr = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolving {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolved to nothing"))?;

    let mut prev: Option<(Instant, Metrics)> = None;
    loop {
        let (hs, health) = odin_telemetry::http::get(sock, "/healthz")
            .map_err(|e| format!("GET /healthz: {e}"))?;
        if !hs.contains("200") {
            return Err(format!("/healthz returned {hs}"));
        }
        let (ms, metrics) = odin_telemetry::http::get(sock, "/metrics")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if !ms.contains("200") {
            return Err(format!("/metrics returned {ms}"));
        }
        let now = Instant::now();
        let parsed = Metrics::parse(&metrics);
        if !once {
            // Clear screen + home, like top(1).
            print!("\x1b[2J\x1b[H");
        }
        render(&addr, &health, &metrics, &parsed, prev.as_ref().map(|(t, m)| (now - *t, m)));
        if let Some(reason) = healthz_alarm(&health) {
            return Err(format!("unhealthy: {reason}"));
        }
        if once {
            return Ok(());
        }
        prev = Some((now, parsed));
        std::thread::sleep(interval);
    }
}

/// The samples `top` renders, keyed by `(metric, stream label)` —
/// stream is `None` for unlabeled (single-pipeline) expositions.
struct Metrics {
    samples: HashMap<(String, Option<u32>), f64>,
}

impl Metrics {
    fn parse(text: &str) -> Metrics {
        let mut samples = HashMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let Some((name_part, value)) = line.rsplit_once(' ') else { continue };
            let Ok(value) = value.parse::<f64>() else { continue };
            let (name, stream) = match name_part.split_once('{') {
                None => (name_part.to_string(), None),
                Some((name, labels)) => {
                    let stream = labels
                        .strip_prefix("stream=\"")
                        .and_then(|rest| rest.split('"').next())
                        .and_then(|id| id.parse().ok());
                    (name.to_string(), stream)
                }
            };
            samples.insert((name, stream), value);
        }
        Metrics { samples }
    }

    fn get(&self, name: &str, stream: Option<u32>) -> f64 {
        self.samples.get(&(name.to_string(), stream)).copied().unwrap_or(0.0)
    }

    /// Stream labels present in the exposition, sorted. Empty means an
    /// unlabeled single-pipeline exposition.
    fn streams(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .samples
            .keys()
            .filter_map(|(_, s)| *s)
            .collect::<std::collections::BTreeSet<u32>>()
            .into_iter()
            .collect();
        ids.sort_unstable();
        ids
    }
}

fn render(
    addr: &str,
    health: &str,
    exposition: &str,
    m: &Metrics,
    prev: Option<(Duration, &Metrics)>,
) {
    let status =
        health.split("\"status\":\"").nth(1).and_then(|s| s.split('"').next()).unwrap_or("?");
    let queue_depths = json_u64_array(health, "queue_depths").unwrap_or_default();
    let queue_cap = health
        .split("\"queue_cap\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|v| v.parse::<u64>().ok());
    let cap = queue_cap.map(|c| c.to_string()).unwrap_or_else(|| "-".to_string());
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
    let streams = m.streams();
    let rows: Vec<Option<u32>> =
        if streams.is_empty() { vec![None] } else { streams.into_iter().map(Some).collect() };
    for s in rows {
        let frames = m.get("odin_frames_total", s);
        let fps = match prev {
            Some((dt, p)) if dt.as_secs_f64() > 0.0 => {
                format!("{:.1}", (frames - p.get("odin_frames_total", s)) / dt.as_secs_f64())
            }
            _ => "-".to_string(),
        };
        let depth = match s {
            Some(id) => queue_depths.get(id as usize).copied().unwrap_or(0),
            None => 0,
        };
        let installs = m.get("odin_models_installed_lite_total", s)
            + m.get("odin_models_installed_specialized_total", s);
        let precision = if m.get("odin_serve_precision", s) >= 1.0 { "int8" } else { "f32" };
        println!(
            "{:<7} {:>9} {:>8} {:>6} {:>5} {:>10} {:>6} {:>9} {:>10} {:>9}  {}",
            s.map(|id| id.to_string()).unwrap_or_else(|| "-".to_string()),
            frames as u64,
            fps,
            depth,
            m.get("odin_event_log_queue_depth", s) as u64,
            precision,
            m.get("odin_drift_events_total", s) as u64,
            installs as u64,
            format!(
                "{}/{}",
                m.get("odin_attic_hits_total", s) as u64,
                m.get("odin_attic_misses_total", s) as u64
            ),
            m.get("odin_server_rejected_total", s) as u64,
            fmt::recovery_p50(exposition, s),
        );
    }
}
