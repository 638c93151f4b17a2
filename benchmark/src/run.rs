//! One benchmark run: set-up, timed window, checks, and — traced — the
//! per-layer probes and the budget table.

use std::path::PathBuf;
use std::time::Instant;

use crate::json::Json;
use crate::probes;
use crate::spec::{self, Workload};
use crate::stats;
use crate::trace::Trace;
use crate::workload::{self, Check, RunArgs, TempDir};

/// Untraced figures a traced run is compared against (the suite passes
/// them from the untraced run of the same workload and seed).
#[derive(Debug, Clone, Copy, Default)]
pub struct Reference {
    pub latency_p50_ms: Option<f64>,
    pub frames_per_s: Option<f64>,
}

pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// `(name, value, unit)`: end-to-end metrics of an untraced run,
    /// per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Human-readable lines printed before the result line.
    pub report: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    fn metrics_json(&self, keep: impl Fn(&str) -> bool) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .filter(|(name, _, _)| keep(name))
                .map(|(name, value, unit)| {
                    (
                        name.to_string(),
                        Json::obj(vec![("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line result the benchmark contract asks for: untraced,
    /// exactly the metrics `BENCHMARK.json` lists under `end_to_end`;
    /// traced, exactly its `per_layer` list.
    pub fn contract_line(&self) -> String {
        let keep = |name: &str| self.traced || spec::e2e(name).is_some_and(|m| m.gated);
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(keep)),
        ])
        .render()
    }

    /// Everything about the run, for result files.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(self.workload.name())),
            ("trace", Json::Num(f64::from(u8::from(self.traced)))),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(|_| true)),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("name", Json::str(c.name)),
                                ("ok", Json::Bool(c.ok)),
                                ("detail", Json::str(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn trace_path(args: &RunArgs) -> PathBuf {
    args.root.join("out").join(format!("trace_{}.json", args.workload.name()))
}

pub fn run(args: &RunArgs, reference: Reference) -> RunResult {
    let tmp = TempDir::new(&args.root, args.workload.name());
    let (inst, setup_s) = workload::set_up_timed(args, &tmp);
    let log = workload::run_window(&inst, args.seconds);
    let outcome = workload::outcome(args, &inst, &log, setup_s);

    let mut report = outcome.notes;
    let mut metrics = Vec::new();
    let e2e_value = |name: &str| outcome.e2e.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    if args.traced {
        let mut trace = Trace::new(log.origin);
        let mut layers = probes::measure(args, &inst, &log, &tmp, &mut trace);

        let mut backlog: Vec<f64> = log
            .samples()
            .map(|s| s.start.saturating_duration_since(s.due).as_secs_f64() * 1e3)
            .collect();
        let rows = probes::budget(&layers, stats::median(&mut backlog));
        let sum_ms: f64 = rows.iter().map(|r| r.self_ms).sum();
        let traced_p50 = e2e_value("frame_latency_p50_ms").unwrap_or(0.0);
        let (ref_p50, ref_label) = match reference.latency_p50_ms {
            Some(v) => (v, "untraced frame_latency_p50_ms"),
            None => {
                (traced_p50, "this traced run's frame_latency_p50_ms (no untraced reference given)")
            }
        };
        let unattributed = if ref_p50 > 0.0 { (ref_p50 - sum_ms) / ref_p50 } else { 0.0 };
        layers.values.push(("budget.sum_ms", sum_ms));
        layers.values.push(("budget.unattributed_share", unattributed));

        report
            .push(format!("budget of a frame on {} (layer self-times, ms):", args.workload.name()));
        for row in &rows {
            report.push(format!("  {:<34} {:>9.4}", row.layer, row.self_ms));
        }
        report.push(format!("  {:<34} {:>9.4}", "sum", sum_ms));
        report.push(format!("  {:<34} {:>9.4}  <- {ref_label}", "reference", ref_p50));
        report.push(format!("  {:<34} {:>9.4}", "unattributed_share", unattributed));
        let traced_fps = e2e_value("frames_per_s").unwrap_or(0.0);
        match reference.frames_per_s {
            Some(fps) if fps > 0.0 => report.push(format!(
                "trace_overhead_share {:.4} (traced {traced_fps:.2} vs untraced {fps:.2} frames/s)",
                1.0 - traced_fps / fps
            )),
            _ => report.push(format!(
                "trace_overhead_share needs the untraced run; traced frames_per_s {traced_fps:.2}"
            )),
        }
        report.append(&mut layers.notes);

        let path = trace_path(args);
        match trace.write_chrome(&path) {
            Ok(()) => report.push(format!(
                "chrome trace: {} spans written to {}",
                trace.spans().len(),
                path.display()
            )),
            Err(e) => report.push(format!("chrome trace not written to {}: {e}", path.display())),
        }
        for (name, unit, _) in spec::PER_LAYER {
            metrics.push((name, layers.get(name), unit));
        }
    } else {
        for m in spec::E2E.iter().filter(|m| m.applies_to(args.workload)) {
            let value = e2e_value(m.name)
                .unwrap_or_else(|| panic!("{} not measured on {}", m.name, args.workload.name()));
            metrics.push((m.name, value, m.unit));
        }
    }

    RunResult {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        metrics,
        attempted: outcome.attempted,
        failed: outcome.failed,
        checks: outcome.checks,
        report,
    }
}

/// Prints a run the way a person reads it: every metric by name with
/// its unit, the checks, then the notes and tables.
pub fn print_human(result: &RunResult, started: Instant) {
    println!(
        "== {} seed {} {} s {} ==",
        result.workload.name(),
        result.seed,
        result.seconds,
        if result.traced { "traced" } else { "untraced" }
    );
    for (name, value, unit) in &result.metrics {
        println!("{name} {value} {unit}");
    }
    for c in &result.checks {
        println!("check {} {}: {}", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }
    for line in &result.report {
        println!("{line}");
    }
    println!("run took {:.1} s wall", started.elapsed().as_secs_f64());
}
