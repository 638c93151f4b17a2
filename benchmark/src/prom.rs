//! Reads the server's `/metrics` exposition from outside: totals per
//! metric name summed over the `stream` label, and the change between
//! two scrapes.

use std::collections::BTreeMap;

/// One scrape: metric name → sum of its samples over all streams.
/// Histogram `_bucket` series are skipped; `_sum` and `_count` are kept
/// under their full names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    totals: BTreeMap<String, f64>,
}

impl Scrape {
    /// Parses Prometheus text format. Comment lines and lines that do
    /// not parse are ignored — the exposition also carries the drift
    /// timeline as comments.
    pub fn parse(text: &str) -> Scrape {
        let mut totals = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else { continue };
            let Ok(value) = value.parse::<f64>() else { continue };
            let name = series.split('{').next().unwrap_or(series);
            if name.ends_with("_bucket") {
                continue;
            }
            *totals.entry(name.to_string()).or_insert(0.0) += value;
        }
        Scrape { totals }
    }

    /// The summed value of `name`, 0 when absent.
    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }
}

/// What happened between two scrapes of the same server.
pub struct Delta<'a> {
    pub before: &'a Scrape,
    pub after: &'a Scrape,
}

impl Delta<'_> {
    /// Increase of a counter.
    pub fn counter(&self, name: &str) -> f64 {
        self.after.total(name) - self.before.total(name)
    }

    /// Observations a histogram gained.
    pub fn hist_count(&self, name: &str) -> f64 {
        self.counter(&format!("{name}_count"))
    }

    /// Milliseconds a histogram gained.
    pub fn hist_sum_ms(&self, name: &str) -> f64 {
        self.counter(&format!("{name}_sum"))
    }

    /// Mean of the observations a histogram gained, 0 when it gained
    /// none.
    pub fn hist_mean_ms(&self, name: &str) -> f64 {
        let n = self.hist_count(name);
        if n > 0.0 {
            self.hist_sum_ms(name) / n
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# TYPE odin_server_admitted_total counter
odin_server_admitted_total{stream=\"0\"} 10
odin_server_admitted_total{stream=\"1\"} 12
# TYPE odin_clusters gauge
odin_clusters{stream=\"0\"} 1
odin_clusters{stream=\"1\"} -1
# TYPE odin_stage_detect_ms histogram
odin_stage_detect_ms_bucket{stream=\"0\",le=\"0.1\"} 3
odin_stage_detect_ms_bucket{stream=\"0\",le=\"+Inf\"} 10
odin_stage_detect_ms_sum{stream=\"0\"} 5.5
odin_stage_detect_ms_count{stream=\"0\"} 10
odin_stage_detect_ms_sum{stream=\"1\"} 4.5
odin_stage_detect_ms_count{stream=\"1\"} 10
# timeline [stream 0] drift_detected 0 24 1.5
";

    #[test]
    fn sums_over_streams_and_skips_buckets_and_comments() {
        let s = Scrape::parse(BEFORE);
        assert_eq!(s.total("odin_server_admitted_total"), 22.0);
        assert_eq!(s.total("odin_clusters"), 0.0);
        assert_eq!(s.total("odin_stage_detect_ms_sum"), 10.0);
        assert_eq!(s.total("odin_stage_detect_ms_count"), 20.0);
        assert_eq!(s.total("odin_stage_detect_ms_bucket"), 0.0);
        assert_eq!(s.total("absent"), 0.0);
    }

    #[test]
    fn deltas_of_counters_and_histogram_means() {
        let before = Scrape::parse(BEFORE);
        let after = Scrape::parse(
            "odin_server_admitted_total{stream=\"0\"} 110\n\
             odin_server_admitted_total{stream=\"1\"} 112\n\
             odin_stage_detect_ms_sum{stream=\"0\"} 25.5\n\
             odin_stage_detect_ms_count{stream=\"0\"} 50\n\
             odin_stage_detect_ms_sum{stream=\"1\"} 4.5\n\
             odin_stage_detect_ms_count{stream=\"1\"} 10\n\
             not a sample line\n",
        );
        let d = Delta { before: &before, after: &after };
        assert_eq!(d.counter("odin_server_admitted_total"), 200.0);
        assert_eq!(d.hist_count("odin_stage_detect_ms"), 40.0);
        assert_eq!(d.hist_mean_ms("odin_stage_detect_ms"), 0.5);
        assert_eq!(d.hist_mean_ms("odin_stage_train_ms"), 0.0);
    }
}
