//! `suite`: every workload once untraced and once traced, each in a
//! process of its own (so `peak_rss_mb` is per workload and equals
//! what a single `run` reports), gathered into one result file.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{self, Json};
use crate::spec::Workload;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub root: PathBuf,
    pub out: PathBuf,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn proc_value(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// Where and how the numbers were taken.
fn header(args: &SuiteArgs) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("git_commit", Json::str(command_line("git", &["rev-parse", "HEAD"]))),
        ("nproc", Json::Num(nproc as f64)),
        ("tensor_threads", Json::Num(odin_tensor::par::num_threads() as f64)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        // The closed loops open tens of thousands of short connections.
        ("tcp_tw_reuse", Json::str(proc_value("/proc/sys/net/ipv4/tcp_tw_reuse"))),
        ("ip_local_port_range", Json::str(proc_value("/proc/sys/net/ipv4/ip_local_port_range"))),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds_per_workload", Json::Num(args.seconds)),
    ])
}

/// Runs one child `run` and returns its full result.
fn child(
    args: &SuiteArgs,
    workload: Workload,
    traced: bool,
    extra: &[String],
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let result_path =
        args.root.join("out").join(format!("run_{}_{}.json", workload.name(), u8::from(traced)));
    let status = Command::new(exe)
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--root")
        .arg(&args.root)
        .arg("--json-out")
        .arg(&result_path)
        .args(extra)
        .status()
        .map_err(|e| format!("spawn run: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{} (trace {}) exited with {status}",
            workload.name(),
            u8::from(traced)
        ));
    }
    let text = std::fs::read_to_string(&result_path)
        .map_err(|e| format!("{}: {e}", result_path.display()))?;
    let _ = std::fs::remove_file(&result_path);
    json::parse(&text).map_err(|e| format!("{}: {e}", result_path.display()))
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs the suite and writes the result file; `Ok(true)` when every
/// run's checks passed.
pub fn suite(args: &SuiteArgs) -> Result<bool, String> {
    let mut runs = Vec::new();
    // All untraced runs first: their numbers are the end-to-end result,
    // taken before any traced run has touched the machine.
    for workload in Workload::ALL {
        runs.push(child(args, workload, false, &[])?);
    }
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        let mut extra = Vec::new();
        if let Some(p50) = metric(&runs[i], "frame_latency_p50_ms") {
            extra.extend(["--ref-p50-ms".to_string(), p50.to_string()]);
        }
        if let Some(fps) = metric(&runs[i], "frames_per_s") {
            extra.extend(["--ref-fps".to_string(), fps.to_string()]);
        }
        runs.push(child(args, workload, true, &extra)?);
    }
    let all_correct = runs.iter().all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    let doc = Json::obj(vec![("header", header(args)), ("runs", Json::Arr(runs))]);
    write_file(&args.out, &doc.render_pretty())?;
    println!("wrote {}", args.out.display());
    Ok(all_correct)
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
