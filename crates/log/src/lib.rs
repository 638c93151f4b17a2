//! # odin-log
//!
//! A durable, queryable event log for the ODIN pipeline: per-frame
//! detection records and drift/recovery events, streamed through a
//! batched background writer into a compact append-only **columnar
//! segment** file.
//!
//! The flight recorder (odin-telemetry) answers *"what just happened
//! in the last few thousand spans"*; this crate answers *"what
//! happened on stream 3 last Tuesday"* — the retrospective-inspection
//! side of drift diagnosis.
//!
//! * [`record`] — the row type ([`LogRecord`]) and its enums
//!   ([`RecordKind`], [`ServedLabel`]), plus [`EventLogConfig`],
//! * [`segment`] — the on-disk format: fixed-size segments with
//!   per-column encoding (zigzag-delta varints for timestamps / ids,
//!   dictionary-coded enums) and a per-segment min/max **zone map**,
//!   each the body of one frame of an `odin_store::framed` file — the
//!   WAL's container, so torn tails and failed appends are handled by
//!   the same code,
//! * [`writer`] — [`LogWriter`]: a bounded-channel background writer
//!   with counted-drop backpressure, so the serving hot path never
//!   blocks on the log,
//! * [`query`] — [`Predicate`] scans ([`scan_log`], [`scan_store`])
//!   that prune whole segments via the zone maps before decoding a
//!   single column,
//! * [`tail`] — the live side: durable [`Cursor`]s with
//!   [`read_after`] for safely tailing a file the writer is still
//!   appending to (sealed segments only, torn tail invisible), the
//!   `GET /events` page's writer ([`events_page`]) and reader
//!   ([`parse_events_page`]), and
//!   [`RetentionConfig`]-driven compaction ([`apply_retention`]) that
//!   drops whole sealed segments from the front under a byte/age
//!   budget.
//!
//! Determinism contract: record *contents* are produced by the
//! pipeline thread (sequence numbers, frame ids, timestamps from the
//! installed `Clock`), so with a `ManualClock` and inline training the
//! log file is byte-identical across runs and across `ODIN_THREADS`
//! settings. The background writer only changes *when* bytes reach the
//! disk, never *which* bytes.

#![warn(missing_docs)]

pub mod query;
pub mod record;
pub mod segment;
pub mod tail;
pub mod writer;

pub use query::{scan_log, scan_store, Predicate, ScanResult, ScanStats};
pub use record::{
    EventLogConfig, LogRecord, RecordKind, RetentionConfig, ServedLabel, EVENT_LOG_FILE,
};
pub use segment::{read_log, LogFile, SegmentInfo, ZoneMap};
pub use tail::{
    apply_retention, collect_after, events_page, parse_events_page, read_after, Cursor, TailBatch,
};
pub use writer::{LogMetrics, LogWriter};
