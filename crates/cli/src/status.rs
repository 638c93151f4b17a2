//! `odin status` — liveness and key metrics from a serving front end.
//! Exits nonzero when `/healthz` reports a degraded status or a stream
//! whose admission queue sits at its cap.

use std::collections::BTreeSet;

use odin_telemetry::{json, read_samples};

use crate::fmt::{healthz_alarm, recovery_p50};
use crate::{take_value, Remote};

pub fn run(args: &[String]) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut raw = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(take_value(args, &mut i, "--addr")?),
            "--raw" => raw = true,
            other => return Err(format!("status: unknown flag `{other}`")),
        }
        i += 1;
    }
    let addr = addr.ok_or("status needs --addr HOST:PORT")?;
    let remote = Remote::resolve(&addr)?;
    let body = remote.get("/healthz")?;
    println!("healthz: {body}");
    let health = json::parse(&body).map_err(|e| format!("/healthz: {e}"))?;

    let metrics = remote.get("/metrics")?;
    if raw {
        print!("{metrics}");
        return match healthz_alarm(&health) {
            Some(reason) => Err(format!("unhealthy: {reason}")),
            None => Ok(()),
        };
    }
    // A curated slice of the exposition: enough to judge serving and
    // recovery health at a glance without scraping.
    const INTERESTING: &[&str] = &[
        "odin_frames_total",
        "odin_drift_events_total",
        "odin_models_installed_lite_total",
        "odin_models_installed_specialized_total",
        "odin_training_queue_depth",
        "odin_server_admitted_total",
        "odin_server_rejected_total",
        "odin_event_log_appended_total",
        "odin_event_log_dropped_total",
        "odin_event_log_queue_depth",
        "odin_store_errors_total",
    ];
    for line in metrics.lines() {
        if INTERESTING.contains(&line.split(['{', ' ']).next().unwrap_or("")) {
            println!("{line}");
        }
    }
    // How long a drifted stream waits for its model: one line per
    // stream.
    let samples = read_samples(&metrics);
    let counts = samples.iter().filter(|s| s.name == "odin_recovery_ms_count");
    let streams: BTreeSet<u32> = counts.filter_map(|s| s.stream.as_deref()?.parse().ok()).collect();
    for id in streams {
        println!("odin_recovery_ms{{stream=\"{id}\"}} p50 {}", recovery_p50(&samples, id));
    }
    match healthz_alarm(&health) {
        Some(reason) => Err(format!("unhealthy: {reason}")),
        None => Ok(()),
    }
}
