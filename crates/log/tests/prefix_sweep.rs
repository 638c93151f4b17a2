//! Crash at every byte: for each prefix of a WAL and of an event log,
//! the reader returns exactly the whole frames inside the prefix, the
//! writer's `open` truncates to that same boundary, and one more append
//! reads back. A crash mid-append leaves such a prefix.

use std::path::{Path, PathBuf};

use odin_log::segment::scan_bytes;
use odin_log::{
    read_after, Cursor, EventLogConfig, LogMetrics, LogRecord, LogWriter, RecordKind, ServedLabel,
};
use odin_store::{read_wal, WalWriter};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("odin-sweep-{tag}-{}", std::process::id()))
}

#[test]
fn wal_prefix_sweep() {
    let path = temp_path("wal");
    std::fs::remove_file(&path).ok();
    let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; (i as usize * 5) % 13]).collect();
    let mut w = WalWriter::open(&path).unwrap();
    let mut ends = vec![0u64];
    for p in &payloads {
        w.append(p).unwrap();
        ends.push(std::fs::metadata(&path).unwrap().len());
    }
    drop(w);
    let full = std::fs::read(&path).unwrap();

    for n in 0..=full.len() {
        std::fs::write(&path, &full[..n]).unwrap();
        let whole = ends.iter().rposition(|&e| e <= n as u64).unwrap();
        let r = read_wal(&path).unwrap();
        let got: Vec<&[u8]> = r.records.iter().map(|r| r.payload.as_slice()).collect();
        let want: Vec<&[u8]> = payloads[..whole].iter().map(|p| p.as_slice()).collect();
        assert_eq!(got, want, "prefix {n}");
        assert_eq!(r.torn_tail, ends[whole] != n as u64, "prefix {n}");

        let mut w = WalWriter::open(&path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), ends[whole], "prefix {n}");
        assert_eq!(w.append(b"again").unwrap(), whole as u64 + 1);
        drop(w);
        let r = read_wal(&path).unwrap();
        assert!(!r.torn_tail);
        assert_eq!(r.records.len(), whole + 1);
        assert_eq!(r.records[whole].payload, b"again");
    }
    std::fs::remove_file(&path).ok();
}

fn rec(seq: u64) -> LogRecord {
    // Records 5..=8 share kind and served label: a unary-dictionary
    // segment between two varied ones.
    let uniform = (5..=8).contains(&seq);
    LogRecord {
        seq,
        kind: if uniform { RecordKind::Frame } else { RecordKind::ALL[seq as usize % 7] },
        ts_us: seq * 1_000,
        frame: seq,
        stream: (seq % 2) as u32,
        served: if uniform { ServedLabel::Teacher } else { ServedLabel::ALL[seq as usize % 4] },
        dets: seq as u32 % 3,
        ..LogRecord::empty()
    }
}

fn tail_all(path: &Path) -> Vec<LogRecord> {
    read_after(path, Cursor::default(), usize::MAX).unwrap().records
}

#[test]
fn event_log_prefix_sweep() {
    let path = temp_path("odlg");
    std::fs::remove_file(&path).ok();
    let cfg =
        EventLogConfig { enabled: true, queue_cap: 64, segment_records: 4, ..Default::default() };
    let w = LogWriter::open(&path, cfg, LogMetrics::detached()).unwrap();
    let records: Vec<LogRecord> = (1..=12).map(rec).collect();
    for r in &records {
        assert!(w.append(*r));
    }
    w.flush().unwrap();
    drop(w);
    let full = std::fs::read(&path).unwrap();
    let log = scan_bytes(full.clone()).unwrap();
    assert_eq!(log.segments.len(), 3);
    // (end of the header or of a segment, records before it)
    let mut ends = vec![(0u64, 0usize), (8, 0)];
    for (i, s) in log.segments.iter().enumerate() {
        ends.push((s.offset + s.len as u64, 4 * (i + 1)));
    }

    for n in 0..=full.len() {
        std::fs::write(&path, &full[..n]).unwrap();
        let &(end, whole) = ends.iter().rev().find(|(e, _)| *e <= n as u64).unwrap();
        assert_eq!(tail_all(&path), records[..whole], "prefix {n}");

        let w = LogWriter::open(&path, cfg, LogMetrics::detached()).unwrap();
        // A prefix shorter than the header is an empty log; open then
        // writes a fresh header.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), end.max(8), "prefix {n}");
        assert_eq!(w.recovered_last_seq(), whole as u64);
        let next = rec(whole as u64 + 1);
        assert!(w.append(next));
        w.flush().unwrap();
        drop(w);
        let mut want = records[..whole].to_vec();
        want.push(next);
        assert_eq!(tail_all(&path), want, "prefix {n}");
    }
    std::fs::remove_file(&path).ok();
}
