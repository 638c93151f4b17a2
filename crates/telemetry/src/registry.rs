//! The metrics registry: named counters, gauges, and deterministic
//! fixed-bucket latency histograms, plus leveled events and the drift
//! timeline.
//!
//! Determinism contract: histogram bucket bounds are fixed at
//! registration (log-spaced via [`log_bounds`]), so merging
//! observations from any number of worker threads lands each sample in
//! the same bucket regardless of `ODIN_THREADS`. Durations are stored
//! as integer nanoseconds — never accumulated as floats — so sums are
//! exact and order-independent. Snapshots iterate `BTreeMap`s, so
//! rendered output is byte-stable.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::clock::{Clock, WallClock};
use crate::event::Level;
use crate::recorder::{FlightRecord, FlightRecorder, RecordedEvent};
use crate::span::{ClockCell, Tracer};
use crate::timeline::{TimelineEvent, TimelineStage};
use crate::unpoison;

/// A monotonic counter handle. Cloning shares the underlying value.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value (used when restoring from a checkpoint).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// A signed gauge handle for instantaneous values (queue depth, model
/// count). Cloning shares the underlying value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistState {
    /// Upper bounds (ms) of the finite buckets, strictly increasing.
    bounds: Vec<f64>,
    /// Per-bucket counts; `buckets.len() == bounds.len() + 1`, the last
    /// entry is the overflow (`+Inf`) bucket.
    buckets: Vec<u64>,
    count: u64,
    /// Exact total in integer nanoseconds (no float accumulation).
    sum_ns: u64,
}

/// A fixed-bucket latency histogram handle. Cloning shares the
/// underlying state.
///
/// Bounds are fixed at registration; samples are classified by binary
/// search, so the mapping sample → bucket is independent of
/// observation order and thread count.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<Mutex<HistState>>);

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        let n = bounds.len();
        Histogram(Arc::new(Mutex::new(HistState {
            bounds,
            buckets: vec![0; n + 1],
            count: 0,
            sum_ns: 0,
        })))
    }

    /// Records one latency sample, in milliseconds.
    ///
    /// Non-finite or negative samples are ignored — a latency can never
    /// legitimately be either, and admitting one would poison `sum_ns`.
    pub fn observe_ms(&self, ms: f64) {
        if !ms.is_finite() || ms < 0.0 {
            return;
        }
        let mut st = unpoison(self.0.lock());
        let idx = st.bounds.partition_point(|&b| b < ms);
        st.buckets[idx] += 1;
        st.count += 1;
        st.sum_ns += (ms * 1e6).round() as u64;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        unpoison(self.0.lock()).count
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let st = unpoison(self.0.lock());
        HistogramSnapshot {
            name: name.to_string(),
            bounds: st.bounds.clone(),
            buckets: st.buckets.clone(),
            count: st.count,
            sum_ns: st.sum_ns,
        }
    }

    fn load(&self, snap: &HistogramSnapshot) {
        let mut st = unpoison(self.0.lock());
        st.bounds = snap.bounds.clone();
        st.buckets = snap.buckets.clone();
        st.count = snap.count;
        st.sum_ns = snap.sum_ns;
    }
}

/// `n` log-spaced histogram bounds from `lo` to `hi` (both in ms,
/// inclusive), suitable for latency distributions spanning several
/// orders of magnitude.
///
/// # Panics
///
/// Panics if `lo <= 0`, `hi <= lo`, or `n < 2`.
pub fn log_bounds(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo && n >= 2, "log_bounds needs 0 < lo < hi and n >= 2");
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..n).map(|i| (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp()).collect()
}

/// A frozen copy of one histogram, as produced by
/// [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Finite bucket upper bounds, in ms.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1` entries; last is `+Inf`).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples, in nanoseconds.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// Sum of all samples in milliseconds.
    pub fn sum_ms(&self) -> f64 {
        self.sum_ns as f64 / 1e6
    }

    /// Mean sample in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms() / self.count as f64
        }
    }

    /// Upper bound (ms) of the bucket containing quantile `q` in
    /// `[0, 1]` — a conservative bucketed quantile estimate. Returns
    /// the last finite bound for samples in the overflow bucket, and
    /// 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bounds[i.min(self.bounds.len() - 1)];
            }
        }
        self.bounds[self.bounds.len() - 1]
    }

    /// Interpolated quantile estimate (ms) for `q` in `[0, 1]`: assumes
    /// samples are uniformly distributed within their bucket and
    /// linearly interpolates between the bucket's bounds (the classic
    /// Prometheus `histogram_quantile` estimator). Much tighter than
    /// [`HistogramSnapshot::quantile_ms`], which only ever returns a
    /// bucket upper bound.
    ///
    /// The first bucket interpolates from 0; samples in the overflow
    /// bucket are clamped to the last finite bound (their true
    /// magnitude is unknown). Returns 0 when empty.
    pub fn quantile_interp_ms(&self, q: f64) -> f64 {
        // A histogram with no samples has no quantiles: report 0 from
        // the guard rather than a bucket edge. The all-zero-buckets
        // check covers snapshots whose `count` disagrees with the
        // bucket sums (a hand-built or corrupted snapshot), which
        // previously fell through the loop to the last finite bound.
        if self.count == 0 || self.bounds.is_empty() || self.buckets.iter().all(|&c| c == 0) {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            let before = seen as f64;
            seen += c;
            if (seen as f64) >= rank && c > 0 {
                if i >= self.bounds.len() {
                    // Overflow bucket: no finite upper bound to
                    // interpolate toward.
                    return self.bounds[self.bounds.len() - 1];
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let frac = ((rank - before) / c as f64).clamp(0.0, 1.0);
                return lo + frac * (hi - lo);
            }
        }
        // Reachable only when `rank` exceeds every counted sample
        // (count > bucket sums): clamp to the last occupied bucket's
        // edge, mirroring the in-loop overflow handling.
        let last = self.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
        self.bounds[last.min(self.bounds.len() - 1)]
    }
}

/// A frozen, fully ordered copy of everything the registry knows:
/// counters, gauges, histograms (sorted by name) and the drift
/// timeline (in recording order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram states, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Drift timeline in recording order.
    pub timeline: Vec<TimelineEvent>,
}

/// The central telemetry registry.
///
/// Handles returned by [`Registry::counter`], [`Registry::gauge`], and
/// [`Registry::histogram`] stay valid across [`Registry::load`]: a
/// restore overwrites values through the shared `Arc`s rather than
/// replacing them.
pub struct Registry {
    clock: ClockCell,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    /// Whether [`Registry::event`] echoes warnings and errors to
    /// stderr; on until [`Registry::clear_sinks`].
    echo_stderr: AtomicBool,
    timeline: Mutex<Vec<TimelineEvent>>,
    recorder: Arc<FlightRecorder>,
    tracer: Tracer,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &unpoison(self.counters.lock()).len())
            .field("gauges", &unpoison(self.gauges.lock()).len())
            .field("histograms", &unpoison(self.histograms.lock()).len())
            .field("timeline", &unpoison(self.timeline.lock()).len())
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry with a [`WallClock`], an always-on
    /// flight recorder at default capacity, and warnings and errors
    /// echoed to stderr.
    pub fn new() -> Self {
        let clock: ClockCell = Arc::new(RwLock::new(Arc::new(WallClock::new()) as Arc<dyn Clock>));
        let recorder = Arc::new(FlightRecorder::default());
        let tracer = Tracer::new(clock.clone(), recorder.clone());
        Registry {
            clock,
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            echo_stderr: AtomicBool::new(true),
            timeline: Mutex::new(Vec::new()),
            recorder,
            tracer,
        }
    }

    /// Current time in ms from the installed clock.
    pub fn now_ms(&self) -> f64 {
        unpoison(self.clock.read()).now_ms()
    }

    /// Replaces the time source (e.g. with a
    /// [`crate::clock::ManualClock`] in determinism tests). The tracer
    /// and every live span guard share the same clock cell, so they
    /// retarget too.
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        *unpoison(self.clock.write()) = clock;
    }

    /// The span tracer backed by this registry's clock and flight
    /// recorder.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The always-on flight recorder.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// A frozen copy of the flight recorder's spans and events.
    pub fn flight_record(&self) -> FlightRecord {
        self.recorder.snapshot()
    }

    /// Returns the counter registered under `name`, creating it at 0 if
    /// absent.
    pub fn counter(&self, name: &str) -> Counter {
        unpoison(self.counters.lock()).entry(name.to_string()).or_default().clone()
    }

    /// Returns the gauge registered under `name`, creating it at 0 if
    /// absent.
    pub fn gauge(&self, name: &str) -> Gauge {
        unpoison(self.gauges.lock()).entry(name.to_string()).or_default().clone()
    }

    /// Returns the histogram registered under `name`, creating it with
    /// `bounds` if absent. Bounds of an existing histogram are left
    /// untouched — first registration wins.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.histograms
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds.to_vec()))
            .clone()
    }

    /// Stops echoing events to stderr; the flight recorder keeps
    /// recording them.
    pub fn clear_sinks(&self) {
        self.echo_stderr.store(false, Ordering::Relaxed);
    }

    /// Records a leveled event in the flight recorder and, until
    /// [`Registry::clear_sinks`], prints warnings and errors to stderr
    /// as `odin[level] target: message`.
    pub fn event(&self, level: Level, target: &'static str, message: impl Into<String>) {
        let message = message.into();
        if level >= Level::Warn && self.echo_stderr.load(Ordering::Relaxed) {
            eprintln!("odin[{}] {target}: {message}", level.as_str());
        }
        self.recorder.record_event(RecordedEvent {
            at_ms: self.now_ms(),
            level,
            target: std::borrow::Cow::Borrowed(target),
            message,
        });
    }

    /// Appends one drift-timeline marker, stamped with the registry
    /// clock.
    pub fn record_timeline(&self, stage: TimelineStage, cluster_id: usize, frame: usize) {
        let at_ms = self.now_ms();
        unpoison(self.timeline.lock()).push(TimelineEvent { stage, cluster_id, frame, at_ms });
    }

    /// The recorded drift timeline, oldest first.
    pub fn timeline(&self) -> Vec<TimelineEvent> {
        unpoison(self.timeline.lock()).clone()
    }

    /// A frozen, ordered copy of all metrics and the timeline.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters =
            unpoison(self.counters.lock()).iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let gauges =
            unpoison(self.gauges.lock()).iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let histograms =
            unpoison(self.histograms.lock()).iter().map(|(k, v)| v.snapshot(k)).collect();
        let timeline = unpoison(self.timeline.lock()).clone();
        TelemetrySnapshot { counters, gauges, histograms, timeline }
    }

    /// Restores the registry to `snap`'s state, overwriting values in
    /// place so previously returned handles keep working. Metrics
    /// present in the registry but absent from the snapshot are reset
    /// to zero (they did not exist when the snapshot was taken).
    pub fn load(&self, snap: &TelemetrySnapshot) {
        {
            let mut counters = unpoison(self.counters.lock());
            for c in counters.values() {
                c.set(0);
            }
            for (name, v) in &snap.counters {
                counters.entry(name.clone()).or_default().set(*v);
            }
        }
        {
            let mut gauges = unpoison(self.gauges.lock());
            for g in gauges.values() {
                g.set(0);
            }
            for (name, v) in &snap.gauges {
                gauges.entry(name.clone()).or_default().set(*v);
            }
        }
        {
            let mut histograms = unpoison(self.histograms.lock());
            for h in histograms.values() {
                let mut st = unpoison(h.0.lock());
                st.buckets.iter_mut().for_each(|b| *b = 0);
                st.count = 0;
                st.sum_ns = 0;
            }
            for hs in &snap.histograms {
                histograms
                    .entry(hs.name.clone())
                    .or_insert_with(|| Histogram::new(hs.bounds.clone()))
                    .load(hs);
            }
        }
        *unpoison(self.timeline.lock()) = snap.timeline.clone();
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn counters_and_gauges_are_shared_handles() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);

        let g = reg.gauge("depth");
        g.set(5);
        g.add(-2);
        assert_eq!(reg.gauge("depth").get(), 3);
    }

    #[test]
    fn log_bounds_are_strictly_increasing_and_span_range() {
        let b = log_bounds(0.001, 1000.0, 16);
        assert_eq!(b.len(), 16);
        assert!((b[0] - 0.001).abs() < 1e-12);
        assert!((b[15] - 1000.0).abs() < 1e-6);
        for w in b.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn histogram_buckets_samples_deterministically() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0, 10.0, 100.0]);
        for ms in [0.5, 1.0, 5.0, 50.0, 500.0] {
            h.observe_ms(ms);
        }
        let s = h.snapshot("lat");
        // 0.5 and 1.0 land in <=1.0; 5.0 in <=10; 50.0 in <=100; 500 overflow.
        assert_eq!(s.buckets, vec![2, 1, 1, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum_ns, ((0.5 + 1.0 + 5.0 + 50.0 + 500.0) * 1e6) as u64);
    }

    #[test]
    fn histogram_rejects_garbage_samples() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0]);
        h.observe_ms(f64::NAN);
        h.observe_ms(f64::INFINITY);
        h.observe_ms(-3.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantile_is_bucketed_upper_bound() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0, 10.0, 100.0]);
        for _ in 0..90 {
            h.observe_ms(0.5);
        }
        for _ in 0..10 {
            h.observe_ms(50.0);
        }
        let s = h.snapshot("lat");
        assert_eq!(s.quantile_ms(0.5), 1.0);
        assert_eq!(s.quantile_ms(0.95), 100.0);
        assert_eq!(s.quantile_ms(1.0), 100.0);
    }

    #[test]
    fn interpolated_quantile_lands_inside_the_bucket() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0, 10.0, 100.0]);
        for _ in 0..90 {
            h.observe_ms(0.5);
        }
        for _ in 0..10 {
            h.observe_ms(50.0);
        }
        let s = h.snapshot("lat");
        // p50: rank 50 of 90 samples in [0, 1] → 50/90 of the way.
        let p50 = s.quantile_interp_ms(0.5);
        assert!((p50 - 50.0 / 90.0).abs() < 1e-12, "p50 = {p50}");
        // p95: rank 95, 5 of the 10 samples in (10, 100] → midpoint.
        let p95 = s.quantile_interp_ms(0.95);
        assert!((p95 - 55.0).abs() < 1e-12, "p95 = {p95}");
        // p100 is the far edge of the last occupied bucket.
        assert_eq!(s.quantile_interp_ms(1.0), 100.0);
        // Always at or below the bucketed upper-bound estimate.
        for q in [0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert!(s.quantile_interp_ms(q) <= s.quantile_ms(q) + 1e-12);
        }
    }

    #[test]
    fn interpolated_quantile_handles_edge_cases() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0, 10.0]);
        assert_eq!(h.snapshot("lat").quantile_interp_ms(0.5), 0.0);
        // A single overflow sample clamps to the last finite bound.
        h.observe_ms(500.0);
        assert_eq!(h.snapshot("lat").quantile_interp_ms(0.5), 10.0);
    }

    #[test]
    fn interpolated_quantile_empty_and_single_sample_are_consistent() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0, 10.0, 100.0]);
        // Empty: every quantile is 0, never a bucket edge.
        let empty = h.snapshot("lat");
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(empty.quantile_interp_ms(q), 0.0, "empty q={q}");
        }
        // A snapshot whose count disagrees with its (all-zero) buckets
        // must not leak a bucket edge through the loop fallthrough.
        let inconsistent = HistogramSnapshot {
            name: "lat".to_string(),
            bounds: vec![1.0, 10.0, 100.0],
            buckets: vec![0, 0, 0, 0],
            count: 3,
            sum_ns: 0,
        };
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(inconsistent.quantile_interp_ms(q), 0.0, "inconsistent q={q}");
        }
        // One sample in (1, 10]: every quantile interpolates inside
        // that bucket — never outside it, never 0.
        h.observe_ms(5.0);
        let one = h.snapshot("lat");
        for q in [0.0, 0.25, 0.5, 1.0] {
            let v = one.quantile_interp_ms(q);
            assert!((1.0..=10.0).contains(&v), "single-sample q={q} gave {v}");
        }
        assert_eq!(one.quantile_interp_ms(1.0), 10.0);
    }

    #[test]
    fn snapshot_load_roundtrips_and_handles_survive() {
        let reg = Registry::new();
        reg.set_clock(Arc::new(ManualClock::new()));
        let c = reg.counter("frames");
        c.add(7);
        let h = reg.histogram("lat", &[1.0, 10.0]);
        h.observe_ms(2.0);
        reg.record_timeline(TimelineStage::DriftDetected, 3, 120);

        let snap = reg.snapshot();

        let reg2 = Registry::new();
        let c2 = reg2.counter("frames"); // pre-registered handle
        reg2.load(&snap);
        assert_eq!(c2.get(), 7);
        assert_eq!(reg2.snapshot(), snap);

        // Loading an older snapshot resets metrics it doesn't mention;
        // the handle stays registered at zero.
        let c3 = reg2.counter("later");
        c3.add(9);
        reg2.load(&snap);
        assert_eq!(c3.get(), 0);
        let after = reg2.snapshot();
        assert!(after.counters.contains(&("later".to_string(), 0)));
        assert!(after.counters.contains(&("frames".to_string(), 7)));
    }

    #[test]
    fn events_fan_out_to_sinks() {
        let reg = Registry::new();
        let clock = Arc::new(ManualClock::new());
        reg.set_clock(clock.clone());
        clock.set_ms(5.0);
        reg.clear_sinks(); // silences stderr, not the recorder
        reg.event(Level::Warn, "store", "disk full");
        reg.event(Level::Debug, "pipeline", "noise");
        let events = reg.flight_record().events;
        let seen: Vec<_> =
            events.iter().map(|e| (e.at_ms, e.level, &*e.target, e.message.as_str())).collect();
        assert_eq!(
            seen,
            [(5.0, Level::Warn, "store", "disk full"), (5.0, Level::Debug, "pipeline", "noise")]
        );
    }

    #[test]
    fn timeline_stamps_with_registry_clock() {
        let reg = Registry::new();
        let clock = Arc::new(ManualClock::new());
        reg.set_clock(clock.clone());
        clock.set_ms(42.0);
        reg.record_timeline(TimelineStage::LiteInstalled, 1, 64);
        let tl = reg.timeline();
        assert_eq!(tl.len(), 1);
        assert_eq!(tl[0].at_ms, 42.0);
        assert_eq!(tl[0].frame, 64);
    }
}
