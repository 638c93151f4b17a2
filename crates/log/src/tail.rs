//! Cursor-based streaming reads and retention compaction: the live
//! side of the event log.
//!
//! [`read_after`] lets a reader *tail* a log file that the background
//! [`LogWriter`](crate::writer::LogWriter) is still appending to. It
//! leans entirely on the sealed-segment contract of
//! [`scan_bytes`](crate::segment::scan_bytes): a partially written
//! segment fails framing or CRC checks and is treated as "no data
//! yet", so a concurrent reader can never observe a torn record — it
//! only ever sees whole sealed segments.
//!
//! The [`Cursor`] is durable across process restarts and across
//! [retention compaction](apply_retention): the sequence number is
//! authoritative (records with `seq <= cursor.seq` are never returned
//! twice), while the byte offset is only a resumption hint used to
//! skip directly to the right segment when the file layout has not
//! changed. Every call rescans the file's segment directory and skips
//! already-consumed segments via their zone maps without decoding a
//! single column, so a stale or compaction-shifted offset degrades to
//! a zone-map walk, never to wrong results.
//!
//! [`apply_retention`] enforces [`RetentionConfig`] by dropping whole
//! sealed segments from the *front* of the file and rewriting the
//! remainder atomically (tmp + fsync + rename). Retained segments are
//! copied byte-for-byte — zone maps, CRC frames, and the emitter-owned
//! sequence numbers inside are untouched, so predicate scans over the
//! retained suffix are unchanged and the recovered `last_seq` tail
//! survives (the newest segment is never dropped).
//!
//! [`events_page`] and [`parse_events_page`] own the `GET /events`
//! wire shape: the server writes a page of [`read_after`] batches, and
//! `odin tail` reads it back.

use std::fmt;
use std::path::Path;

use odin_store::checkpoint::write_atomic;
use odin_store::framed::read_or_empty;
use odin_store::StoreError;
use odin_telemetry::json::{self, Value};

use crate::record::{LogRecord, RetentionConfig};
use crate::segment::{self, LogFile, HEADER_LEN};

/// A durable position in one log file: the sequence number of the last
/// record the reader has consumed plus the byte offset where the next
/// unread segment is expected to start.
///
/// `seq` is authoritative; `offset` is a fast-path hint (see the
/// module docs). `Cursor::default()` — rendered as `0:8` — reads from
/// the beginning of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    /// Sequence number of the last consumed record (0 = none).
    pub seq: u64,
    /// Expected byte offset of the next unread segment.
    pub offset: u64,
}

impl Default for Cursor {
    fn default() -> Self {
        Cursor { seq: 0, offset: HEADER_LEN }
    }
}

impl fmt::Display for Cursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.seq, self.offset)
    }
}

impl Cursor {
    /// Parse the `seq:offset` string form rendered by `Display`.
    pub fn parse(s: &str) -> Option<Cursor> {
        let (seq, offset) = s.split_once(':')?;
        Some(Cursor { seq: seq.trim().parse().ok()?, offset: offset.trim().parse().ok()? })
    }
}

/// The body of one `GET /events` page: the next cursor of each stream,
/// comma-joined, then the page's records.
pub fn events_page(cursors: &[Cursor], records: &[LogRecord]) -> String {
    let next: String = cursors.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(",");
    let records: Vec<String> = records.iter().map(|r| r.to_json()).collect();
    let (count, records) = (records.len(), records.join(","));
    format!("{{\"cursor\":\"{next}\",\"count\":{count},\"records\":[{records}]}}")
}

/// Inverse of [`events_page`]: the cursor string to send back (opaque
/// to a client) and the records.
pub fn parse_events_page(body: &str) -> Result<(String, Vec<LogRecord>), String> {
    let page = json::parse(body)?;
    let cursor = page.get("cursor").and_then(Value::as_str);
    let records = page.get("records").and_then(Value::as_array);
    let records = records.and_then(|rs| rs.iter().map(LogRecord::from_json).collect());
    match (cursor, records) {
        (Some(cursor), Some(records)) => Ok((cursor.to_string(), records)),
        _ => Err(format!("not an /events page: {body}")),
    }
}

/// One batch of records returned by [`read_after`], plus the cursor to
/// pass on the next call.
#[derive(Debug, Clone)]
pub struct TailBatch {
    /// Records with `seq > cursor.seq`, in file (= sequence) order.
    pub records: Vec<LogRecord>,
    /// Cursor positioned after the last returned record (equal to the
    /// input cursor's `seq` when no new records were available).
    pub next: Cursor,
}

/// Collect up to `limit` records with `seq > cursor.seq` from an
/// already-scanned log. Fully consumed segments are skipped via their
/// zone maps without decoding any column.
pub fn collect_after(log: &LogFile, cursor: Cursor, limit: usize) -> Result<TailBatch, StoreError> {
    let limit = limit.max(1);
    let mut records: Vec<LogRecord> = Vec::new();
    let mut next = Cursor { seq: cursor.seq, offset: cursor.offset.max(HEADER_LEN) };
    for (i, seg) in log.segments.iter().enumerate() {
        let seg_end = seg.offset + seg.len as u64;
        if seg.zone.max_seq <= cursor.seq {
            // Every record here was already consumed; repair the
            // offset hint as we walk past (it may predate compaction).
            next.offset = seg_end;
            continue;
        }
        if records.len() >= limit {
            break;
        }
        let mut truncated = false;
        for r in log.records(i)? {
            if r.seq <= cursor.seq {
                continue;
            }
            if records.len() >= limit {
                truncated = true;
                break;
            }
            next.seq = r.seq;
            records.push(r);
        }
        // A partially consumed segment must be revisited next call;
        // a drained one is skipped by its zone map from now on.
        next.offset = if truncated { seg.offset } else { seg_end };
        if truncated {
            break;
        }
    }
    Ok(TailBatch { records, next })
}

/// Read up to `limit` records appended after `cursor` from the log at
/// `path`, tolerating a concurrent writer (sealed segments only; a
/// torn or in-flight tail is invisible). A missing file reads as an
/// empty log so a tail can be started before the writer first opens
/// it.
pub fn read_after(path: &Path, cursor: Cursor, limit: usize) -> Result<TailBatch, StoreError> {
    let log = segment::scan_bytes(read_or_empty(path)?)?;
    collect_after(&log, cursor, limit)
}

/// Compute how many leading segments `retention` would drop. The
/// newest segment is never dropped, so the emitter's recovered
/// sequence tail survives any budget.
fn segments_to_drop(log: &LogFile, retention: &RetentionConfig) -> usize {
    let n = log.segments.len();
    if n <= 1 {
        return 0;
    }
    let mut drop_n = 0usize;
    if retention.max_age_us > 0 {
        // Age is measured against the newest record in the file, not
        // wall clock, so the decision is a pure function of contents.
        let newest = log.segments[n - 1].zone.max_ts_us;
        let cutoff = newest.saturating_sub(retention.max_age_us);
        while drop_n < n - 1 && log.segments[drop_n].zone.max_ts_us < cutoff {
            drop_n += 1;
        }
    }
    if retention.max_bytes > 0 {
        let mut kept: u64 =
            HEADER_LEN + log.segments[drop_n..].iter().map(|s| s.len as u64).sum::<u64>();
        while drop_n < n - 1 && kept > retention.max_bytes {
            kept -= log.segments[drop_n].len as u64;
            drop_n += 1;
        }
    }
    drop_n
}

/// Enforce `retention` on the log at `path`: drop whole sealed
/// segments from the front until both budgets are met (always keeping
/// the newest segment), rewriting header + retained segments
/// atomically. Retained segment bytes are copied verbatim. Returns
/// `true` when the file was rewritten.
///
/// The caller must guarantee no concurrent *writer* (the
/// [`LogWriter`](crate::writer::LogWriter) compacts through its own
/// handle instead); concurrent readers are safe because the rewrite is
/// an atomic rename.
pub fn apply_retention(path: &Path, retention: RetentionConfig) -> Result<bool, StoreError> {
    let Some(kept) = retained(path, retention)? else { return Ok(false) };
    write_atomic(path, &kept)?;
    Ok(true)
}

/// The file `retention` leaves of the log at `path` (header plus the
/// retained segments, byte for byte), or `None` when nothing drops.
pub(crate) fn retained(
    path: &Path,
    retention: RetentionConfig,
) -> Result<Option<Vec<u8>>, StoreError> {
    if retention.is_unlimited() {
        return Ok(None);
    }
    let log = segment::scan_bytes(read_or_empty(path)?)?;
    let drop_n = segments_to_drop(&log, &retention);
    if drop_n == 0 {
        return Ok(None);
    }
    // Intact segments are contiguous and end at `good_len`.
    let mut out = segment::header_bytes();
    out.extend_from_slice(&log.bytes[log.segments[drop_n].offset as usize..log.good_len as usize]);
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordKind;
    use crate::segment::{encode_segment, header_bytes, read_log};
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "odin-tail-{tag}-{}-{:?}.odlg",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn rec(seq: u64) -> LogRecord {
        LogRecord { seq, ts_us: seq * 1_000, frame: seq, ..LogRecord::empty() }
    }

    fn write_segments(path: &Path, batches: &[&[LogRecord]]) {
        let mut bytes = header_bytes().to_vec();
        for b in batches {
            bytes.extend_from_slice(&encode_segment(b));
        }
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn cursor_string_form_roundtrips() {
        let c = Cursor { seq: 42, offset: 1234 };
        assert_eq!(Cursor::parse(&c.to_string()), Some(c));
        assert_eq!(Cursor::parse("0:8"), Some(Cursor::default()));
        assert_eq!(Cursor::parse("nope"), None);
        assert_eq!(Cursor::parse("1:x"), None);
    }

    #[test]
    fn events_page_round_trips() {
        let (a, b) = (rec(1), LogRecord { stream: 1, ..rec(2) });
        let cursors = [Cursor { seq: 2, offset: 40 }, Cursor::default()];
        let page = events_page(&cursors, &[a, b]);
        assert_eq!(parse_events_page(&page), Ok(("2:40,0:8".to_string(), vec![a, b])));
        assert_eq!(
            parse_events_page(&events_page(&[Cursor::default()], &[])),
            Ok(("0:8".to_string(), Vec::new()))
        );
        assert!(parse_events_page("{\"cursor\":\"0:8\",\"records\":[{\"seq\":1}]}").is_err());
        assert!(parse_events_page("{\"records\":[]}").is_err());
    }

    #[test]
    fn read_after_pages_through_segments_and_respects_limit() {
        let path = temp_path("pages");
        let a: Vec<LogRecord> = (1..=4).map(rec).collect();
        let b: Vec<LogRecord> = (5..=8).map(rec).collect();
        write_segments(&path, &[&a, &b]);

        // Page of 3: stops mid-segment, cursor points back into it.
        let p1 = read_after(&path, Cursor::default(), 3).unwrap();
        assert_eq!(p1.records.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(p1.next.seq, 3);
        let p2 = read_after(&path, p1.next, 3).unwrap();
        assert_eq!(p2.records.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![4, 5, 6]);
        let p3 = read_after(&path, p2.next, 100).unwrap();
        assert_eq!(p3.records.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![7, 8]);
        // Drained: next call returns nothing and a stable cursor.
        let p4 = read_after(&path, p3.next, 100).unwrap();
        assert!(p4.records.is_empty());
        assert_eq!(p4.next.seq, 8);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_invisible_to_the_tail_reader() {
        let path = temp_path("torn");
        let a: Vec<LogRecord> = (1..=4).map(rec).collect();
        write_segments(&path, &[&a]);
        // Simulate an in-flight append: half a segment at the tail.
        let partial = encode_segment(&(5..=8).map(rec).collect::<Vec<_>>());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&partial[..partial.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let batch = read_after(&path, Cursor::default(), 100).unwrap();
        assert_eq!(batch.records.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(batch.next.seq, 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let path = temp_path("missing");
        let batch = read_after(&path, Cursor::default(), 10).unwrap();
        assert!(batch.records.is_empty());
        assert_eq!(batch.next, Cursor::default());
    }

    #[test]
    fn stale_offset_after_compaction_never_replays_or_skips() {
        let path = temp_path("stale");
        let segs: Vec<Vec<LogRecord>> =
            (0..4).map(|s| (s * 4 + 1..=s * 4 + 4).map(rec).collect()).collect();
        let refs: Vec<&[LogRecord]> = segs.iter().map(|v| v.as_slice()).collect();
        write_segments(&path, &refs);

        // Consume the first 6 records, then compact away the front.
        let p1 = read_after(&path, Cursor::default(), 6).unwrap();
        assert_eq!(p1.next.seq, 6);
        let rewritten =
            apply_retention(&path, RetentionConfig { max_bytes: 1, max_age_us: 0 }).unwrap();
        assert!(rewritten);
        // Only the newest segment (13..=16) survives a 1-byte budget.
        let after = read_after(&path, p1.next, 100).unwrap();
        assert_eq!(
            after.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![13, 14, 15, 16],
            "records 7..=12 were dropped by retention; 13..=16 must appear exactly once"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn retention_drops_oldest_whole_segments_only() {
        let path = temp_path("budget");
        let segs: Vec<Vec<LogRecord>> =
            (0..5).map(|s| (s * 10 + 1..=s * 10 + 10).map(rec).collect()).collect();
        let refs: Vec<&[LogRecord]> = segs.iter().map(|v| v.as_slice()).collect();
        write_segments(&path, &refs);
        let before = read_log(&path).unwrap();
        let seg_len = before.segments[0].len as u64;
        let budget = HEADER_LEN + seg_len * 3 + seg_len / 2; // fits 3 whole segments

        assert!(
            apply_retention(&path, RetentionConfig { max_bytes: budget, max_age_us: 0 }).unwrap()
        );
        let after = read_log(&path).unwrap();
        assert_eq!(after.segments.len(), 3);
        assert!(!after.torn);
        assert!(std::fs::metadata(&path).unwrap().len() <= budget);
        // The retained suffix is byte-for-byte the old segments 2..5.
        assert_eq!(after.record_count(), 30);
        assert_eq!(after.segments[0].zone.min_seq, 21);
        assert_eq!(after.last_seq(), 50);
        // Idempotent: already under budget, nothing to do.
        assert!(
            !apply_retention(&path, RetentionConfig { max_bytes: budget, max_age_us: 0 }).unwrap()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn retention_by_age_uses_record_time_not_wall_clock() {
        let path = temp_path("age");
        let old: Vec<LogRecord> = (1..=4).map(rec).collect(); // ts 1_000..4_000
        let mid: Vec<LogRecord> = (50..=53).map(rec).collect(); // ts 50_000..53_000
        let new: Vec<LogRecord> = (100..=103).map(rec).collect(); // ts ..103_000
        write_segments(&path, &[&old, &mid, &new]);

        // Window of 60ms from newest ts (103_000): drops only `old`.
        assert!(
            apply_retention(&path, RetentionConfig { max_bytes: 0, max_age_us: 60_000 }).unwrap()
        );
        let log = read_log(&path).unwrap();
        assert_eq!(log.segments.len(), 2);
        assert_eq!(log.segments[0].zone.min_seq, 50);
        // Tiny window: everything is "too old" but the newest segment
        // is pinned.
        assert!(apply_retention(&path, RetentionConfig { max_bytes: 0, max_age_us: 1 }).unwrap());
        let log = read_log(&path).unwrap();
        assert_eq!(log.segments.len(), 1);
        assert_eq!(log.last_seq(), 103);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unlimited_retention_is_a_no_op() {
        let path = temp_path("noop");
        let a: Vec<LogRecord> = (1..=4).map(rec).collect();
        write_segments(&path, &[&a]);
        let before = std::fs::read(&path).unwrap();
        assert!(!apply_retention(&path, RetentionConfig::default()).unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        // Missing file is also a no-op, not an error.
        assert!(!apply_retention(
            &temp_path("noop-missing"),
            RetentionConfig { max_bytes: 10, max_age_us: 0 }
        )
        .unwrap());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kind_masks_survive_compaction_for_pruned_scans() {
        let path = temp_path("masks");
        let mut drift = rec(11);
        drift.kind = RecordKind::DriftDetected;
        let a: Vec<LogRecord> = (1..=4).map(rec).collect();
        let b = vec![rec(10), drift, rec(12)];
        write_segments(&path, &[&a, &b]);
        assert!(apply_retention(&path, RetentionConfig { max_bytes: 1, max_age_us: 0 }).unwrap());
        let log = read_log(&path).unwrap();
        assert_eq!(log.segments.len(), 1);
        assert!(log.segments[0].zone.has_kind(RecordKind::DriftDetected));
        assert_eq!(log.records(0).unwrap()[1].kind, RecordKind::DriftDetected);
        let _ = std::fs::remove_file(&path);
    }
}
