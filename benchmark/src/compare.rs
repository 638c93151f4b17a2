//! `compare`: two sets of result files, one verdict per workload and
//! end-to-end metric.

use std::path::PathBuf;

use crate::json::{self, Json};
use crate::spec::{self, Better, E2eMetric, Workload};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// a change within the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the quartiles of one side's runs; 0 for one run.
fn spread(values: &[f64]) -> f64 {
    stats::quartiles(values).map_or(0.0, |(q1, q3)| q3 - q1)
}

pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    pub allowance: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judges side B against side A for one metric on one workload.
pub fn judge(metric: &E2eMetric, a: &[f64], b: &[f64]) -> Row {
    let median_a = stats::median(&mut a.to_vec());
    let median_b = stats::median(&mut b.to_vec());
    let allowance = metric.bound.allowance(median_a);
    let spread = spread(a).max(spread(b));
    let worse_by = match metric.better {
        Better::Lower => median_b - median_a,
        Better::Higher => median_a - median_b,
    };
    let verdict = if spread > allowance {
        Verdict::Unresolved
    } else if worse_by > allowance {
        Verdict::Worse
    } else if -worse_by > allowance {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Row { median_a, median_b, allowance, spread, verdict }
}

/// Untraced values of `metric` on `workload` across a set of files. A
/// file is a suite result (`runs`) or one run's `--json-out`.
fn collect(files: &[Json], workload: Workload, metric: &str) -> Vec<f64> {
    files
        .iter()
        .flat_map(|doc| doc.get("runs").and_then(Json::as_arr).unwrap_or(std::slice::from_ref(doc)))
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload.name())
                && run.get("trace").and_then(Json::as_u64) == Some(0)
        })
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn load(paths: &[PathBuf]) -> Result<Vec<Json>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// Prints the comparison; `Ok(true)` when no metric came out worse.
pub fn compare(a: &[PathBuf], b: &[PathBuf]) -> Result<bool, String> {
    let (docs_a, docs_b) = (load(a)?, load(b)?);
    println!(
        "{:<22} {:<26} {:>12} {:>12} {:>11} {:>10} {:>10}  verdict",
        "workload", "metric", "median A", "median B", "delta", "bound", "spread"
    );
    let mut tally = [0usize; 4];
    for workload in Workload::ALL {
        for metric in spec::E2E.iter().filter(|m| m.applies_to(workload)) {
            let va = collect(&docs_a, workload, metric.name);
            let vb = collect(&docs_b, workload, metric.name);
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{} {}: {} values in A, {} in B",
                    workload.name(),
                    metric.name,
                    va.len(),
                    vb.len()
                ));
            }
            let row = judge(metric, &va, &vb);
            tally[row.verdict as usize] += 1;
            println!(
                "{:<22} {:<26} {:>12.5} {:>12.5} {:>+11.5} {:>10.5} {:>10.5}  {} (n={}+{}, {})",
                workload.name(),
                metric.name,
                row.median_a,
                row.median_b,
                row.median_b - row.median_a,
                row.allowance,
                row.spread,
                row.verdict.as_str(),
                va.len(),
                vb.len(),
                metric.unit,
            );
        }
    }
    println!(
        "{} better, {} same, {} worse, {} unresolved",
        tally[Verdict::Better as usize],
        tally[Verdict::Same as usize],
        tally[Verdict::Worse as usize],
        tally[Verdict::Unresolved as usize]
    );
    Ok(tally[Verdict::Worse as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let latency = spec::e2e("frame_latency_p90_ms").unwrap(); // lower, 25 %
        assert_eq!(judge(latency, &[1.0, 1.01, 0.99], &[1.1, 1.09, 1.11]).verdict, Verdict::Same);
        assert_eq!(judge(latency, &[1.0, 1.01, 0.99], &[1.4, 1.41, 1.39]).verdict, Verdict::Worse);
        assert_eq!(judge(latency, &[1.0, 1.01, 0.99], &[0.7, 0.71, 0.69]).verdict, Verdict::Better);
        assert_eq!(judge(latency, &[1.0, 1.4, 0.8], &[1.0, 1.0, 1.0]).verdict, Verdict::Unresolved);

        let fps = spec::e2e("frames_per_s").unwrap(); // higher, 25 %
        assert_eq!(judge(fps, &[100.0], &[70.0]).verdict, Verdict::Worse);
        assert_eq!(judge(fps, &[100.0], &[130.0]).verdict, Verdict::Better);
        assert_eq!(judge(fps, &[100.0], &[90.0]).verdict, Verdict::Same);
    }

    #[test]
    fn absolute_bounds_and_exact_counts() {
        let missed = spec::e2e("drift_missed").unwrap(); // bound 0
        assert_eq!(judge(missed, &[0.0, 0.0], &[0.0, 0.0]).verdict, Verdict::Same);
        assert_eq!(judge(missed, &[0.0, 0.0], &[1.0, 1.0]).verdict, Verdict::Worse);
        let delay = spec::e2e("drift_detect_delay_frames").unwrap(); // max(1 frame, 10 %)
        assert_eq!(judge(delay, &[4.0], &[5.0]).verdict, Verdict::Same);
        assert_eq!(judge(delay, &[30.0], &[32.0]).verdict, Verdict::Same);
        assert_eq!(judge(delay, &[30.0], &[34.0]).verdict, Verdict::Worse);
        let on_time = spec::e2e("on_time_share").unwrap(); // -0.05 absolute
        assert_eq!(judge(on_time, &[0.999], &[0.96]).verdict, Verdict::Same);
        assert_eq!(judge(on_time, &[0.999], &[0.90]).verdict, Verdict::Worse);
    }
}
