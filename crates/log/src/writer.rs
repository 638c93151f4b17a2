//! Batched background writer with counted-drop backpressure.
//!
//! The pipeline thread calls [`LogWriter::append`], which is a single
//! bounded-channel `try_send`: when the writer thread falls behind and
//! the queue fills, the record is **dropped and counted** — the
//! serving hot path never blocks on the log. The writer thread buffers
//! records and seals a columnar segment every
//! [`EventLogConfig::segment_records`] records, on an explicit
//! [`LogWriter::flush`] (which also fsyncs and acks), and on shutdown.
//!
//! The file is an `odin_store::framed::AppendFile`: open truncates a
//! torn tail left by an interrupted append, a failed seal is rolled
//! back so later segments stay readable, and retention compaction
//! rewrites the file through the same handle. Each disk failure is
//! counted once in [`LogMetrics::errors`] when it happens, and the next
//! flush returns it.

use std::io;
use std::path::Path;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::thread::JoinHandle;
use std::time::Instant;

use odin_store::framed::AppendFile;
use odin_store::StoreError;
use odin_telemetry::{log_bounds, Counter, Gauge, Histogram, Registry};

use crate::record::{EventLogConfig, LogRecord, RetentionConfig};
use crate::segment::{self, encode_segment_body};
use crate::tail::retained;

/// Telemetry handles the writer updates. Pass handles registered in
/// the pipeline's registry to surface them on `/metrics`, or
/// [`LogMetrics::detached`] for standalone use (benches, tests).
#[derive(Debug, Clone)]
pub struct LogMetrics {
    /// Records accepted into the queue (`odin_event_log_appended_total`).
    pub appended: Counter,
    /// Records dropped because the queue was full
    /// (`odin_event_log_dropped_total`).
    pub dropped: Counter,
    /// Instantaneous queue depth (`odin_event_log_queue_depth`).
    pub queue_depth: Gauge,
    /// Wall time per sealed-segment disk write
    /// (`odin_event_log_flush_ms`).
    pub flush_ms: Histogram,
    /// Disk failures — a failed seal, fsync or retention rewrite, or a
    /// flush that found the writer thread dead — each counted once. The
    /// pipeline passes its `odin_store_errors_total`.
    pub errors: Counter,
}

impl LogMetrics {
    /// Handles registered in a private registry — observable through
    /// the returned struct but not exported anywhere.
    pub fn detached() -> Self {
        let reg = Registry::new();
        LogMetrics {
            appended: reg.counter("odin_event_log_appended_total"),
            dropped: reg.counter("odin_event_log_dropped_total"),
            queue_depth: reg.gauge("odin_event_log_queue_depth"),
            flush_ms: reg.histogram("odin_event_log_flush_ms", &log_bounds(0.005, 5000.0, 14)),
            errors: reg.counter("odin_event_log_errors_total"),
        }
    }
}

enum Msg {
    Append(LogRecord),
    /// Seal, fsync, and ack with the first failure since the last ack.
    Flush(mpsc::Sender<Result<(), String>>),
    /// Test-only: makes the writer thread exit without closing the
    /// channel, simulating a panic/death with the handle still live.
    #[cfg(test)]
    Die,
}

/// Handle to the event log: owns the background thread, the bounded
/// channel, and the recovery verdict from open time.
pub struct LogWriter {
    tx: Option<SyncSender<Msg>>,
    handle: Option<JoinHandle<()>>,
    metrics: LogMetrics,
    recovered_last_seq: u64,
}

impl LogWriter {
    /// Open (or create) the log at `path`, truncating any torn tail,
    /// and start the background writer thread.
    pub fn open(path: &Path, cfg: EventLogConfig, metrics: LogMetrics) -> Result<Self, StoreError> {
        let (mut file, recovered_last_seq) = AppendFile::open(path, segment::FORMAT, |bytes| {
            let log = segment::scan_bytes(bytes)?;
            Ok((log.last_seq(), log.good_len as usize))
        })?;
        // Enforce the retention budget on whatever survived recovery,
        // before the writer thread starts appending.
        if let Some(kept) = retained(path, cfg.retention)? {
            file.replace(&kept)?;
        }

        let (tx, rx) = mpsc::sync_channel::<Msg>(cfg.queue_cap.max(1));
        let seg_cap = cfg.segment_records.max(1);
        let sink = Sink {
            file,
            buf: Vec::with_capacity(seg_cap),
            seg_cap,
            retention: cfg.retention,
            metrics: metrics.clone(),
            failed: None,
        };
        let handle = std::thread::Builder::new()
            .name("odin-event-log".into())
            .spawn(move || writer_loop(sink, rx))
            .map_err(StoreError::Io)?;

        Ok(LogWriter { tx: Some(tx), handle: Some(handle), metrics, recovered_last_seq })
    }

    /// Non-blocking append. Returns `true` if the record was accepted,
    /// `false` if the bounded queue was full (the drop is counted).
    pub fn append(&self, rec: LogRecord) -> bool {
        let Some(tx) = &self.tx else { return false };
        match tx.try_send(Msg::Append(rec)) {
            Ok(()) => {
                self.metrics.appended.inc();
                self.metrics.queue_depth.add(1);
                true
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.metrics.dropped.inc();
                false
            }
        }
    }

    /// Block until every queued record is sealed into a segment and
    /// the file is fsynced. Errors when a seal, fsync or retention
    /// rewrite failed since the previous flush (already counted in
    /// [`LogMetrics::errors`] when it happened), and when the writer
    /// thread is dead (counted here): the barrier cannot be enqueued,
    /// or its ack channel drops without a reply.
    pub fn flush(&self) -> Result<(), StoreError> {
        let dead = || {
            self.metrics.errors.inc();
            StoreError::Io(io::Error::new(io::ErrorKind::BrokenPipe, "event-log writer died"))
        };
        let Some(tx) = &self.tx else { return Err(dead()) };
        let (ack_tx, ack_rx) = mpsc::channel();
        // A full queue here means the writer is actively draining;
        // a blocking send is acceptable on this cold path.
        tx.send(Msg::Flush(ack_tx)).map_err(|_| dead())?;
        ack_rx.recv().map_err(|_| dead())?.map_err(|e| StoreError::Io(io::Error::other(e)))
    }

    /// Test-only: stops the writer thread while leaving the channel
    /// open, so the handle looks alive but nobody will ever ack.
    #[cfg(test)]
    fn kill_writer(&mut self) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(Msg::Die);
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// Highest sequence number found in the intact prefix at open time
    /// (0 for a fresh log). The pipeline resumes its emitter sequence
    /// from `max(checkpointed, recovered)`.
    pub fn recovered_last_seq(&self) -> u64 {
        self.recovered_last_seq
    }

    /// Failures counted so far in [`LogMetrics::errors`] (by every
    /// holder of that counter, when it is shared).
    pub fn failures(&self) -> u64 {
        self.metrics.errors.get()
    }
}

impl Drop for LogWriter {
    fn drop(&mut self) {
        // Close the channel; the thread seals the remaining buffer,
        // fsyncs, and exits.
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The writer thread's state: the file, the records not yet sealed,
/// and the first failure since the last flush ack.
struct Sink {
    file: AppendFile,
    buf: Vec<LogRecord>,
    seg_cap: usize,
    retention: RetentionConfig,
    metrics: LogMetrics,
    failed: Option<String>,
}

impl Sink {
    fn push(&mut self, rec: LogRecord) {
        self.metrics.queue_depth.add(-1);
        self.buf.push(rec);
        if self.buf.len() >= self.seg_cap {
            self.seal();
        }
    }

    fn seal(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let started = Instant::now();
        let body = encode_segment_body(&self.buf);
        self.buf.clear();
        let sealed = self.file.append(&[], &body).and_then(|()| self.compact());
        self.check(sealed);
        self.metrics.flush_ms.observe_ms(started.elapsed().as_secs_f64() * 1e3);
    }

    /// Retention runs on this thread only, between appends, so the
    /// rewrite never races an append. A pure byte budget is gated on
    /// the file length alone; an age budget needs the zone maps.
    fn compact(&mut self) -> Result<(), StoreError> {
        let r = self.retention;
        if r.is_unlimited() || (r.max_age_us == 0 && self.file.good_len() <= r.max_bytes) {
            return Ok(());
        }
        match retained(self.file.path(), r)? {
            Some(kept) => self.file.replace(&kept),
            None => Ok(()),
        }
    }

    fn check(&mut self, res: Result<(), StoreError>) {
        if let Err(e) = res {
            self.metrics.errors.inc();
            self.failed.get_or_insert_with(|| e.to_string());
        }
    }
}

fn writer_loop(mut sink: Sink, rx: Receiver<Msg>) {
    loop {
        match rx.recv() {
            Ok(Msg::Append(rec)) => sink.push(rec),
            // The channel is FIFO: every append sent before this flush
            // is already in the buffer.
            Ok(Msg::Flush(ack)) => {
                sink.seal();
                let synced = sink.file.sync();
                sink.check(synced);
                let _ = ack.send(sink.failed.take().map_or(Ok(()), Err));
            }
            #[cfg(test)]
            Ok(Msg::Die) => return,
            Err(_) => {
                sink.seal();
                let synced = sink.file.sync();
                return sink.check(synced);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordKind, ServedLabel};
    use crate::segment::{encode_segment, read_log};
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "odin-log-{tag}-{}-{:?}.odlg",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn rec(seq: u64) -> LogRecord {
        LogRecord { seq, ts_us: seq * 1000, frame: seq, ..LogRecord::empty() }
    }

    #[test]
    fn writer_seals_segments_and_resumes_after_torn_tail() {
        let path = temp_path("torn");
        let cfg = EventLogConfig {
            enabled: true,
            queue_cap: 64,
            segment_records: 8,
            ..Default::default()
        };
        {
            let w = LogWriter::open(&path, cfg, LogMetrics::detached()).unwrap();
            for s in 1..=20u64 {
                assert!(w.append(rec(s)));
            }
            w.flush().unwrap();
        }
        let intact = read_log(&path).unwrap();
        // 20 records at 8/segment = 2 full + 1 flush-sealed partial.
        assert_eq!(intact.segments.len(), 3);
        assert_eq!(intact.record_count(), 20);
        assert_eq!(intact.last_seq(), 20);
        assert!(!intact.torn);

        // Simulate a crash mid-append: half a segment frame trails.
        let garbage = encode_segment(&[rec(999)]);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&garbage[..garbage.len() - 3]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_log(&path).unwrap().torn);

        // Reopen: tail truncated, sequence recovered, appends resume.
        let w = LogWriter::open(&path, cfg, LogMetrics::detached()).unwrap();
        assert_eq!(w.recovered_last_seq(), 20);
        assert!(w.append(rec(21)));
        w.flush().unwrap();
        drop(w);
        let healed = read_log(&path).unwrap();
        assert!(!healed.torn);
        assert_eq!(healed.record_count(), 21);
        assert_eq!(healed.last_seq(), 21);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn full_queue_drops_and_counts_instead_of_blocking() {
        let path = temp_path("drops");
        let cfg = EventLogConfig {
            enabled: true,
            queue_cap: 2,
            segment_records: 1024,
            ..Default::default()
        };
        let metrics = LogMetrics::detached();
        let w = LogWriter::open(&path, cfg, metrics.clone()).unwrap();
        // Hold the writer thread hostage with a flood while it is
        // between recv calls; with cap 2 some try_sends must fail.
        let mut accepted = 0u64;
        for s in 0..10_000u64 {
            if w.append(rec(s + 1)) {
                accepted += 1;
            }
        }
        w.flush().unwrap();
        assert_eq!(metrics.appended.get(), accepted);
        assert_eq!(metrics.dropped.get(), 10_000 - accepted);
        assert_eq!(metrics.queue_depth.get(), 0);
        drop(w);
        let log = read_log(&path).unwrap();
        assert_eq!(log.record_count() as u64, accepted);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn drop_without_flush_still_persists_buffered_records() {
        let path = temp_path("dropseal");
        let cfg = EventLogConfig {
            enabled: true,
            queue_cap: 64,
            segment_records: 1000,
            ..Default::default()
        };
        {
            let w = LogWriter::open(&path, cfg, LogMetrics::detached()).unwrap();
            for s in 1..=5u64 {
                assert!(w.append(rec(s)));
            }
        } // Drop: shutdown seal.
        let log = read_log(&path).unwrap();
        assert_eq!(log.record_count(), 5);
        assert!(!log.torn);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopening_an_intact_log_preserves_every_byte() {
        let path = temp_path("reopen");
        let cfg = EventLogConfig {
            enabled: true,
            queue_cap: 64,
            segment_records: 4,
            ..Default::default()
        };
        {
            let w = LogWriter::open(&path, cfg, LogMetrics::detached()).unwrap();
            for s in 1..=4u64 {
                w.append(rec(s));
            }
            w.flush().unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        {
            let _w = LogWriter::open(&path, cfg, LogMetrics::detached()).unwrap();
        }
        let after = std::fs::read(&path).unwrap();
        assert_eq!(before, after);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writer_enforces_byte_budget_after_seals() {
        let path = temp_path("retain");
        let cfg = EventLogConfig {
            enabled: true,
            queue_cap: 256,
            segment_records: 8,
            retention: RetentionConfig { max_bytes: 400, max_age_us: 0 },
        };
        {
            let w = LogWriter::open(&path, cfg, LogMetrics::detached()).unwrap();
            for s in 1..=200u64 {
                assert!(w.append(rec(s)));
                if s % 8 == 0 {
                    w.flush().unwrap();
                }
            }
            w.flush().unwrap();
            assert_eq!(w.failures(), 0);
        }
        let len = std::fs::metadata(&path).unwrap().len();
        assert!(len <= 400, "file is {len} bytes, budget 400");
        let log = read_log(&path).unwrap();
        assert!(!log.torn);
        // The newest records survive and appends after compaction
        // landed in the reopened file, not a dead inode.
        assert_eq!(log.last_seq(), 200);
        assert!(log.segments[0].zone.min_seq > 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_applies_retention_to_an_oversized_log() {
        let path = temp_path("retain-open");
        let unlimited = EventLogConfig {
            enabled: true,
            queue_cap: 256,
            segment_records: 8,
            ..Default::default()
        };
        {
            let w = LogWriter::open(&path, unlimited, LogMetrics::detached()).unwrap();
            for s in 1..=64u64 {
                assert!(w.append(rec(s)));
            }
            w.flush().unwrap();
        }
        assert!(std::fs::metadata(&path).unwrap().len() > 300);
        let bounded = EventLogConfig {
            retention: RetentionConfig { max_bytes: 300, max_age_us: 0 },
            ..unlimited
        };
        let w = LogWriter::open(&path, bounded, LogMetrics::detached()).unwrap();
        // Recovery saw the full tail before compaction trimmed it.
        assert_eq!(w.recovered_last_seq(), 64);
        assert!(w.append(rec(65)));
        w.flush().unwrap();
        drop(w);
        let log = read_log(&path).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() <= 300 + 100);
        assert_eq!(log.last_seq(), 65);
        let _ = std::fs::remove_file(&path);
    }

    /// A failed retention rewrite (its tmp path is a directory) is
    /// counted once, as it happens, and returned by the next flush only.
    #[test]
    fn disk_failures_are_counted_once_and_returned_by_the_next_flush() {
        let path = temp_path("failing");
        let tmp = PathBuf::from(format!("{}.tmp", path.display()));
        std::fs::create_dir_all(&tmp).unwrap();
        let cfg = EventLogConfig {
            enabled: true,
            queue_cap: 64,
            segment_records: 4,
            retention: RetentionConfig { max_bytes: 1, max_age_us: 0 },
        };
        let metrics = LogMetrics::detached();
        let w = LogWriter::open(&path, cfg, metrics.clone()).unwrap();
        for s in 1..=8u64 {
            assert!(w.append(rec(s)));
        }
        // The second seal is over budget; its compaction fails.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while metrics.errors.get() == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(metrics.errors.get(), 1);
        assert!(w.flush().is_err());
        assert!(w.flush().is_ok(), "a failure is reported by one flush");
        assert_eq!(w.failures(), 1);
        // The failed rewrite left the log intact and appendable.
        std::fs::remove_dir(&tmp).unwrap();
        assert!(w.append(rec(9)));
        w.flush().unwrap();
        drop(w);
        assert_eq!(read_log(&path).unwrap().last_seq(), 9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_surfaces_dead_writer_thread() {
        let path = temp_path("dead");
        let cfg = EventLogConfig {
            enabled: true,
            queue_cap: 64,
            segment_records: 8,
            ..Default::default()
        };
        let mut w = LogWriter::open(&path, cfg, LogMetrics::detached()).unwrap();
        assert!(w.append(rec(1)));
        w.flush().unwrap();
        w.kill_writer();
        let err = w.flush().expect_err("flush after writer death must error, not hang");
        assert!(matches!(err, StoreError::Io(_)), "expected Io error, got {err:?}");
        let _ = std::fs::remove_file(&path);
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// Records with every column varied; `uniform` ones share kind and
    /// served label, so their segment has unary dictionaries.
    fn varied(seq: u64, uniform: bool) -> LogRecord {
        let i = seq as usize;
        LogRecord {
            seq,
            kind: if uniform { RecordKind::Frame } else { RecordKind::ALL[i % 7] },
            ts_us: 1_000_000 + seq * 33_333 + seq % 5,
            frame: seq / 2,
            stream: (seq % 3) as u32 + 2,
            cluster: (seq % 6) as i64 - 2,
            served: if uniform { ServedLabel::Teacher } else { ServedLabel::ALL[i % 4] },
            dets: (seq * 7 % 11) as u32,
            conf_mean: 0.125 + seq as f32 * 0.003,
            conf_max: 0.5 + seq as f32 * 0.001,
            latency_us: 900 + seq * seq % 1_000,
            trace: 4_000 + seq / 3,
        }
    }

    /// The on-disk bytes of a fixed-record log, plain and
    /// retention-compacted, recorded before the log moved onto
    /// `framed`.
    #[test]
    fn pinned_bytes() {
        let pins = [
            ("pinned", 0u64, (3462, 0xdfe1_47fc_a8a4_839d)),
            ("pinned-compact", 700, (547, 0xa750_7ee2_3cef_0ccb)),
        ];
        for (tag, max_bytes, pin) in pins {
            let path = temp_path(tag);
            let cfg = EventLogConfig {
                enabled: true,
                queue_cap: 256,
                segment_records: 8,
                retention: RetentionConfig { max_bytes, max_age_us: 0 },
            };
            let w = LogWriter::open(&path, cfg, LogMetrics::detached()).unwrap();
            for s in 1..=61u64 {
                assert!(w.append(varied(s, (17..=32).contains(&s))));
                if s % 20 == 0 {
                    w.flush().unwrap();
                }
            }
            w.flush().unwrap();
            drop(w);
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!((bytes.len(), fnv1a(&bytes)), pin, "{tag}");
            let _ = std::fs::remove_file(&path);
        }
    }
}
