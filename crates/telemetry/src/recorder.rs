//! The flight recorder: an always-on, fixed-capacity ring buffer of
//! recent spans and events.
//!
//! Modeled on an aircraft flight recorder: it is always recording, it
//! is cheap enough to leave on (one short mutex-guarded push per span),
//! and when something goes wrong — a store error, a drift episode — the
//! last few thousand spans are dumped to disk for post-mortem causal
//! inspection (as a Chrome-trace file via
//! [`chrome_trace`](crate::export::chrome_trace)).
//!
//! Capacities are fixed at construction and the ring drops oldest
//! first, so, given a deterministic clock and span order, the retained
//! window is a pure function of the stream — the recorder participates
//! in the same byte-identical contract as the metrics registry.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::event::Level;
use crate::span::SpanRecord;
use crate::unpoison;

/// Default span ring capacity.
pub const DEFAULT_SPAN_CAP: usize = 4096;
/// Default event ring capacity.
pub const DEFAULT_EVENT_CAP: usize = 1024;

/// One event as retained by the flight recorder: the registry stamps
/// the clock time at emission (plain [`Event`](crate::event::Event)s
/// carry no timestamp).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedEvent {
    /// Clock time at emission, ms.
    pub at_ms: f64,
    /// Severity.
    pub level: Level,
    /// Component that emitted the event. `Borrowed` at runtime; `Owned`
    /// only after a checkpoint restore.
    pub target: Cow<'static, str>,
    /// Human-readable message.
    pub message: String,
}

/// A frozen copy of the flight recorder's contents, oldest first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightRecord {
    /// Retained spans in recording order.
    pub spans: Vec<SpanRecord>,
    /// Retained events in recording order.
    pub events: Vec<RecordedEvent>,
    /// Spans evicted from the ring since construction.
    pub dropped_spans: u64,
    /// Events evicted from the ring since construction.
    pub dropped_events: u64,
}

/// The ring buffers behind the recorder. Spans and events are kept
/// separately so a chatty event source cannot evict span history.
#[derive(Debug)]
pub struct FlightRecorder {
    span_cap: usize,
    event_cap: usize,
    spans: Mutex<VecDeque<SpanRecord>>,
    events: Mutex<VecDeque<RecordedEvent>>,
    dropped_spans: AtomicU64,
    dropped_events: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder retaining at most `span_cap` spans and
    /// `event_cap` events (each clamped to at least 1).
    pub fn new(span_cap: usize, event_cap: usize) -> Self {
        FlightRecorder {
            span_cap: span_cap.max(1),
            event_cap: event_cap.max(1),
            spans: Mutex::new(VecDeque::new()),
            events: Mutex::new(VecDeque::new()),
            dropped_spans: AtomicU64::new(0),
            dropped_events: AtomicU64::new(0),
        }
    }

    /// Appends one span, evicting the oldest at capacity.
    pub fn record_span(&self, rec: SpanRecord) {
        let mut spans = unpoison(self.spans.lock());
        if spans.len() == self.span_cap {
            spans.pop_front();
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
        }
        spans.push_back(rec);
    }

    /// Appends one event, evicting the oldest at capacity.
    pub fn record_event(&self, ev: RecordedEvent) {
        let mut events = unpoison(self.events.lock());
        if events.len() == self.event_cap {
            events.pop_front();
            self.dropped_events.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(ev);
    }

    /// Number of retained spans.
    pub fn span_count(&self) -> usize {
        unpoison(self.spans.lock()).len()
    }

    /// A frozen copy of everything currently retained.
    pub fn snapshot(&self) -> FlightRecord {
        FlightRecord {
            spans: unpoison(self.spans.lock()).iter().cloned().collect(),
            events: unpoison(self.events.lock()).iter().cloned().collect(),
            dropped_spans: self.dropped_spans.load(Ordering::Relaxed),
            dropped_events: self.dropped_events.load(Ordering::Relaxed),
        }
    }

    /// Replaces the recorder contents with `rec` (checkpoint restore).
    /// Entries beyond capacity are dropped oldest-first.
    pub fn load(&self, rec: &FlightRecord) {
        let skip_s = rec.spans.len().saturating_sub(self.span_cap);
        *unpoison(self.spans.lock()) = rec.spans.iter().skip(skip_s).cloned().collect();
        let skip_e = rec.events.len().saturating_sub(self.event_cap);
        *unpoison(self.events.lock()) = rec.events.iter().skip(skip_e).cloned().collect();
        self.dropped_spans.store(rec.dropped_spans + skip_s as u64, Ordering::Relaxed);
        self.dropped_events.store(rec.dropped_events + skip_e as u64, Ordering::Relaxed);
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_SPAN_CAP, DEFAULT_EVENT_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64) -> SpanRecord {
        SpanRecord {
            trace: 1,
            id,
            parent: 0,
            name: Cow::Borrowed("s"),
            start_ms: id as f64,
            end_ms: id as f64 + 1.0,
            cluster: -1,
            frame: -1,
        }
    }

    fn event(msg: &str) -> RecordedEvent {
        RecordedEvent {
            at_ms: 0.0,
            level: Level::Info,
            target: Cow::Borrowed("test"),
            message: msg.to_string(),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let rec = FlightRecorder::new(3, 2);
        for id in 0..10 {
            rec.record_span(span(id));
        }
        rec.record_event(event("a"));
        rec.record_event(event("b"));
        rec.record_event(event("c"));
        let snap = rec.snapshot();
        assert_eq!(snap.spans.iter().map(|s| s.id).collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(snap.dropped_spans, 7);
        assert_eq!(snap.events.iter().map(|e| e.message.as_str()).collect::<Vec<_>>(), ["b", "c"]);
        assert_eq!(snap.dropped_events, 1);
    }

    #[test]
    fn event_ring_keeps_exactly_the_newest_events() {
        let cap = 7;
        let rec = FlightRecorder::new(1, cap);
        // Far more than capacity, crossing the wrap boundary many
        // times: after every event the ring is the newest `cap` in
        // emission order.
        for i in 0..100 {
            rec.record_event(event(&format!("m{i}")));
            let snap = rec.snapshot();
            let kept = cap.min(i + 1);
            let expected: Vec<String> = (i + 1 - kept..=i).map(|j| format!("m{j}")).collect();
            assert_eq!(
                snap.events.iter().map(|e| &e.message).collect::<Vec<_>>(),
                expected.iter().collect::<Vec<_>>()
            );
            assert_eq!(snap.dropped_events, (i + 1 - kept) as u64);
        }
    }

    #[test]
    fn capacities_are_at_least_one() {
        let rec = FlightRecorder::new(0, 0);
        rec.record_span(span(1));
        rec.record_span(span(2));
        rec.record_event(event("only"));
        rec.record_event(event("kept"));
        let snap = rec.snapshot();
        assert_eq!(snap.spans.iter().map(|s| s.id).collect::<Vec<_>>(), [2]);
        assert_eq!(snap.events.iter().map(|e| e.message.as_str()).collect::<Vec<_>>(), ["kept"]);
    }

    #[test]
    fn load_roundtrips_and_truncates_to_capacity() {
        let rec = FlightRecorder::new(8, 8);
        for id in 0..5 {
            rec.record_span(span(id));
        }
        let snap = rec.snapshot();

        let same = FlightRecorder::new(8, 8);
        same.load(&snap);
        assert_eq!(same.snapshot(), snap);

        let tiny = FlightRecorder::new(2, 8);
        tiny.load(&snap);
        let t = tiny.snapshot();
        assert_eq!(t.spans.iter().map(|s| s.id).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(t.dropped_spans, 3);
    }
}
