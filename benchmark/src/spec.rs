//! The benchmark's fixed vocabulary: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metric names. README,
//! `BENCHMARK.json`, the result files and `compare` all follow these
//! tables; `BENCHMARK.json` is generated from them and a unit test
//! holds it to them.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EdgeInt8,
    ComputeDaganTeacher,
    LoggedObserved,
    DriftRecovery,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EdgeInt8,
        Workload::ComputeDaganTeacher,
        Workload::LoggedObserved,
        Workload::DriftRecovery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EdgeInt8 => "edge_int8",
            Workload::ComputeDaganTeacher => "compute_dagan_teacher",
            Workload::LoggedObserved => "logged_observed",
            Workload::DriftRecovery => "drift_recovery",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One line on why the workload exists (`BENCHMARK.json` `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::EdgeInt8 => {
                "closed loop, cheap int8 serving: the HTTP edge and the submit-to-worker hop are most of a frame"
            }
            Workload::ComputeDaganTeacher => {
                "closed loop, DA-GAN encoder plus teacher detector: kernels dominate and the HTTP edge is under a tenth"
            }
            Workload::LoggedObserved => {
                "open loop at 600 frames/s with WAL, snapshots and event log on while a second connection tails /events and scrapes"
            }
            Workload::DriftRecovery => {
                "open loop, two 30 FPS cameras through Night-Day-Snow-Night with background retraining and attic reinstall"
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may worsen before it counts as a regression:
/// `max(rel × parent median, abs)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub rel: f64,
    pub abs: f64,
}

impl Bound {
    const fn rel(rel: f64) -> Bound {
        Bound { rel, abs: 0.0 }
    }

    const fn abs(abs: f64) -> Bound {
        Bound { rel: 0.0, abs }
    }

    pub fn allowance(self, reference: f64) -> f64 {
        (self.rel * reference.abs()).max(self.abs)
    }
}

pub struct E2eMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Workloads that report it; empty means all four.
    pub workloads: &'static [Workload],
    /// Listed in `BENCHMARK.json`, whose contract wants every metric on
    /// every workload, never zero, and steady from run to run within
    /// its bound. The rest are reported and compared, not gated: they
    /// belong to one workload, are zero when all is well, or vary more
    /// between runs of one commit on a shared two-core VM than any
    /// bound worth having (see README, "What is gated").
    pub gated: bool,
}

impl E2eMetric {
    pub fn applies_to(&self, w: Workload) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&w)
    }
}

const DRIFT: &[Workload] = &[Workload::DriftRecovery];
const LOGGED: &[Workload] = &[Workload::LoggedObserved];

use Better::{Higher, Lower};

#[rustfmt::skip]
pub const E2E: [E2eMetric; 17] = [
    E2eMetric { name: "setup_s", unit: "s", better: Lower, bound: Bound::rel(0.25), workloads: &[], gated: true },
    E2eMetric { name: "frames_per_s", unit: "1/s", better: Higher, bound: Bound::rel(0.25), workloads: &[], gated: true },
    E2eMetric { name: "frame_latency_p90_ms", unit: "ms", better: Lower, bound: Bound::rel(0.25), workloads: &[], gated: true },
    E2eMetric { name: "on_time_share", unit: "share", better: Higher, bound: Bound::abs(0.05), workloads: &[], gated: true },
    E2eMetric { name: "frame_latency_p50_ms", unit: "ms", better: Lower, bound: Bound::rel(0.25), workloads: &[], gated: false },
    E2eMetric { name: "frame_latency_p99_ms", unit: "ms", better: Lower, bound: Bound::rel(0.25), workloads: &[], gated: false },
    E2eMetric { name: "failed_share", unit: "share", better: Lower, bound: Bound::abs(0.001), workloads: &[], gated: false },
    E2eMetric { name: "peak_rss_mb", unit: "MB", better: Lower, bound: Bound::rel(0.10), workloads: &[], gated: false },
    E2eMetric { name: "cpu_ms_per_frame", unit: "ms", better: Lower, bound: Bound::rel(0.15), workloads: &[], gated: false },
    E2eMetric { name: "scrape_p50_ms", unit: "ms", better: Lower, bound: Bound::rel(0.20), workloads: &[], gated: false },
    E2eMetric { name: "tail_lag_p50_ms", unit: "ms", better: Lower, bound: Bound::rel(0.15), workloads: LOGGED, gated: false },
    E2eMetric { name: "drift_detect_delay_frames", unit: "frames", better: Lower, bound: Bound { rel: 0.10, abs: 1.0 }, workloads: DRIFT, gated: false },
    E2eMetric { name: "drift_missed", unit: "count", better: Lower, bound: Bound::abs(0.0), workloads: DRIFT, gated: false },
    E2eMetric { name: "drift_false_alarms", unit: "count", better: Lower, bound: Bound::abs(0.0), workloads: DRIFT, gated: false },
    E2eMetric { name: "recovery_p50_s", unit: "s", better: Lower, bound: Bound::rel(0.15), workloads: DRIFT, gated: false },
    E2eMetric { name: "stale_frame_share", unit: "share", better: Lower, bound: Bound::rel(0.10), workloads: DRIFT, gated: false },
    E2eMetric { name: "map_final", unit: "mAP", better: Higher, bound: Bound::abs(0.02), workloads: DRIFT, gated: false },
];

pub fn e2e(name: &str) -> Option<&'static E2eMetric> {
    E2E.iter().find(|m| m.name == name)
}

/// Per-layer metrics: `(name, unit, better)`; the prefix names the
/// module the number belongs to. Every traced run reports all of them.
#[rustfmt::skip]
pub const PER_LAYER: [(&str, &str, Better); 63] = [
    ("http.null_rtt_us", "us", Lower),
    ("http.body_rtt_us", "us", Lower),
    ("http.connect_us", "us", Lower),
    ("http.send_us", "us", Lower),
    ("http.wait_us", "us", Lower),
    ("http.recv_us", "us", Lower),
    ("http.requests", "count", Higher),
    ("http.non200", "count", Lower),
    ("server.decode_frame_us", "us", Lower),
    ("server.process_us", "us", Lower),
    ("server.hop_us", "us", Lower),
    ("server.frame_ms_mean", "ms", Lower),
    ("server.queue_wait_ms", "ms", Lower),
    ("server.batch_mean", "count", Higher),
    ("server.admitted", "count", Higher),
    ("server.rejected", "count", Lower),
    ("server.queue_depth_max", "count", Lower),
    ("pipeline.process_us", "us", Lower),
    ("encoder.project_us", "us", Lower),
    ("encoder.project_batch8_us", "us", Lower),
    ("encoder.stage_ms_mean", "ms", Lower),
    ("tensor.conv2d_fwd_ms", "ms", Lower),
    ("tensor.matmul_ms", "ms", Lower),
    ("detect.teacher_us", "us", Lower),
    ("detect.small_f32_us", "us", Lower),
    ("detect.small_int8_us", "us", Lower),
    ("detect.stage_ms_mean", "ms", Lower),
    ("detect.served_teacher", "count", Lower),
    ("detect.served_ensemble", "count", Higher),
    ("detect.served_fallback", "count", Lower),
    ("drift.observe_us", "us", Lower),
    ("drift.events", "count", Lower),
    ("drift.clusters", "count", Lower),
    ("drift.stage_ms_mean", "ms", Lower),
    ("selector.stage_ms_mean", "ms", Lower),
    ("train.build_specialized_s", "s", Lower),
    ("train.stage_ms_mean", "ms", Lower),
    ("train.jobs", "count", Lower),
    ("train.cancelled", "count", Lower),
    ("train.orphaned", "count", Lower),
    ("attic.hits", "count", Higher),
    ("attic.misses", "count", Lower),
    ("attic.reinstall_ms", "ms", Lower),
    ("store.wal_append_us", "us", Lower),
    ("store.checkpoint_ms", "ms", Lower),
    ("store.restore_ms", "ms", Lower),
    ("store.snapshot_bytes", "bytes", Lower),
    ("store.wal_append_ms_mean", "ms", Lower),
    ("store.snapshot_write_ms_mean", "ms", Lower),
    ("store.errors", "count", Lower),
    ("log.append_us", "us", Lower),
    ("log.read_after_us_per_rec", "us", Lower),
    ("log.scan_us_per_rec", "us", Lower),
    ("log.bytes_per_rec", "bytes", Lower),
    ("log.dropped", "count", Lower),
    ("log.events_rtt_ms", "ms", Lower),
    ("telemetry.render_metrics_ms", "ms", Lower),
    ("telemetry.flight_ms", "ms", Lower),
    ("gen.frame_us", "us", Lower),
    ("gen.encode_body_us", "us", Lower),
    ("gen.lag_p99_ms", "ms", Lower),
    ("budget.sum_ms", "ms", Lower),
    ("budget.unattributed_share", "share", Lower),
];

/// How long one run measures: `BENCHMARK.json`'s `run_seconds`, and
/// what `suite` uses unless told otherwise. 18 s is the shortest window
/// in which `drift_recovery`'s two 30 FPS cameras yield 1000 frames.
pub const RUN_SECONDS: u32 = 18;

/// The contents of `/BENCHMARK.json`, generated from the tables above
/// (`odin-benchmark print-contract`).
pub fn contract() -> Json {
    let entry = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ]
    };
    Json::obj(vec![
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                E2E.iter()
                    .filter(|m| m.gated)
                    .map(|m| {
                        let mut fields = entry(m.name, m.unit, m.better);
                        // The contract's bound is a share of the parent's
                        // median; the one absolute bound here belongs to a
                        // share that sits at 1.
                        fields.push(("bound", Json::Num(m.bound.rel.max(m.bound.abs))));
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|&(n, u, b)| Json::obj(entry(n, u, b))).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn benchmark_json_is_the_generated_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            contract(),
            "regenerate with `benchmark/run.sh print-contract > BENCHMARK.json`"
        );
    }

    #[test]
    fn gated_metrics_fit_the_contract() {
        for m in E2E.iter().filter(|m| m.gated) {
            assert!(m.workloads.is_empty(), "{} is gated but not on every workload", m.name);
            assert!(m.bound.rel.max(m.bound.abs) <= 0.25, "{}", m.name);
        }
        assert!(E2E.iter().any(|m| m.gated && m.name == "setup_s" && m.unit == "s"));
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = E2E.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric or workload name");
    }
}
