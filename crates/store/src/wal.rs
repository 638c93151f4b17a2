//! Append-only write-ahead log with per-record CRCs.
//!
//! A [`framed`](crate::framed) file with no header, marker `0xA5` and
//! an 8-byte prefix holding the record's sequence number:
//!
//! ```text
//! marker   u8   0xA5
//! seq      u64  monotonically increasing, starts at 1
//! len      u32  payload length
//! crc      u32  CRC-32 of (seq ‖ payload)
//! payload  len bytes
//! ```
//!
//! The reader walks records until the first one that is incomplete,
//! fails its CRC, or carries the wrong sequence number — a torn tail
//! from a crash mid-append, or a record spliced in from another log
//! position — and reports everything before it. [`WalWriter::open`]
//! truncates that torn tail so new appends extend a clean log, and a
//! failed append is rolled back so it cannot hide the ones after it.

use std::path::Path;

use crate::error::StoreError;
use crate::framed::{self, AppendFile, Format};

const RECORD_MARKER: u8 = 0xA5;
const FORMAT: Format = Format { marker: RECORD_MARKER, prefix_len: 8, header: None };

/// One verified record read back from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic sequence number (1-based).
    pub seq: u64,
    /// Application payload (odin-core encodes `WalEvent`s here).
    pub payload: Vec<u8>,
}

/// Result of scanning a log: the verified records plus whether a torn
/// or corrupt tail was skipped.
#[derive(Debug, Default)]
pub struct WalReader {
    /// Records that passed their CRC, in sequence order.
    pub records: Vec<WalRecord>,
    /// True if bytes after the last good record were unreadable (torn
    /// append or bit rot) and were ignored.
    pub torn_tail: bool,
}

/// Parse `bytes` into verified records, also returning the byte offset
/// just past the last good one.
fn parse(bytes: &[u8]) -> Result<(WalReader, usize), StoreError> {
    let scan = framed::scan(bytes, &FORMAT)?;
    let mut records = Vec::with_capacity(scan.frames.len());
    for f in &scan.frames {
        let seq = u64::from_le_bytes(f.prefix.try_into().expect("the WAL prefix is 8 bytes"));
        if seq != records.len() as u64 + 1 {
            return Ok((WalReader { records, torn_tail: true }, f.offset));
        }
        records.push(WalRecord { seq, payload: f.body.to_vec() });
    }
    Ok((WalReader { records, torn_tail: scan.torn }, scan.good_len))
}

/// Read every verified record from the log at `path`. A missing file is
/// an empty log, not an error; a torn tail is reported, not fatal.
pub fn read_wal(path: &Path) -> Result<WalReader, StoreError> {
    Ok(parse(&framed::read_or_empty(path)?)?.0)
}

/// Appender over a WAL file. Opening recovers the existing log (and
/// truncates any torn tail); appends are durable after [`WalWriter::sync`].
pub struct WalWriter {
    file: AppendFile,
    next_seq: u64,
}

impl WalWriter {
    /// Open (or create) the log at `path`, scanning existing records to
    /// resume the sequence. A torn tail left by a crash is truncated
    /// away so the next append starts on a clean boundary.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let (file, next_seq) = AppendFile::open(path, FORMAT, |bytes| {
            let (log, good_len) = parse(&bytes)?;
            Ok((log.records.last().map_or(1, |r| r.seq + 1), good_len))
        })?;
        Ok(Self { file, next_seq })
    }

    /// Sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sequence number of the last appended record (0 if none).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Append one record, returning its sequence number. The bytes are
    /// written and handed to the OS; call [`WalWriter::sync`] to force
    /// them to disk. A failed append leaves the log as it was.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        let seq = self.next_seq;
        self.file.append(&seq.to_le_bytes(), payload)?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// fsync the log file.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;

    const RECORD_HEADER_LEN: usize = FORMAT.overhead();

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "odin-wal-{}-{:?}-{name}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn append_and_read_back() {
        let path = temp_path("basic");
        std::fs::remove_file(&path).ok();
        let mut w = WalWriter::open(&path).unwrap();
        assert_eq!(w.append(b"one").unwrap(), 1);
        assert_eq!(w.append(b"two").unwrap(), 2);
        assert_eq!(w.append(b"").unwrap(), 3);
        w.sync().unwrap();
        drop(w);

        let r = read_wal(&path).unwrap();
        assert!(!r.torn_tail);
        assert_eq!(r.records.len(), 3);
        assert_eq!(r.records[0].payload, b"one");
        assert_eq!(r.records[1].payload, b"two");
        assert_eq!(r.records[2].payload, b"");
        assert_eq!(r.records[2].seq, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_empty_log() {
        let r = read_wal(&temp_path("never-created")).unwrap();
        assert!(r.records.is_empty());
        assert!(!r.torn_tail);
    }

    #[test]
    fn reopen_resumes_sequence() {
        let path = temp_path("resume");
        std::fs::remove_file(&path).ok();
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(b"a").unwrap();
            w.append(b"b").unwrap();
        }
        let mut w = WalWriter::open(&path).unwrap();
        assert_eq!(w.next_seq(), 3);
        w.append(b"c").unwrap();
        let r = read_wal(&path).unwrap();
        assert_eq!(r.records.iter().map(|x| x.seq).collect::<Vec<_>>(), vec![1, 2, 3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_skipped_and_truncated_on_reopen() {
        let path = temp_path("torn");
        std::fs::remove_file(&path).ok();
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(b"keep-1").unwrap();
            w.append(b"keep-2").unwrap();
        }
        // Simulate a crash mid-append: half a record at the tail.
        let good_len = std::fs::metadata(&path).unwrap().len();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[RECORD_MARKER, 3, 0, 0]).unwrap();
        }
        let r = read_wal(&path).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.records.len(), 2);

        // Reopen truncates the torn bytes and resumes cleanly.
        let mut w = WalWriter::open(&path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);
        assert_eq!(w.append(b"keep-3").unwrap(), 3);
        let r = read_wal(&path).unwrap();
        assert!(!r.torn_tail);
        assert_eq!(r.records.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_stops_replay_there() {
        let path = temp_path("corrupt");
        std::fs::remove_file(&path).ok();
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(b"good").unwrap();
            w.append(b"flipped").unwrap();
            w.append(b"unreachable").unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload bit in the second record.
        let second_start = RECORD_HEADER_LEN + 4;
        bytes[second_start + RECORD_HEADER_LEN] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();

        let r = read_wal(&path).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].payload, b"good");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spliced_record_with_wrong_seq_rejected() {
        let path = temp_path("splice");
        std::fs::remove_file(&path).ok();
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(b"aaaa").unwrap();
            w.append(b"bbbb").unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let rec_len = RECORD_HEADER_LEN + 4;
        // Duplicate record 1 where record 2 should be: CRC is valid for
        // seq 1, but the position expects seq 2.
        let mut spliced = bytes[..rec_len].to_vec();
        spliced.extend_from_slice(&bytes[..rec_len]);
        std::fs::write(&path, &spliced).unwrap();
        let r = read_wal(&path).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// The on-disk bytes of a fixed-payload log, recorded before the
    /// WAL moved onto `framed`: the layout is a format, not a detail.
    #[test]
    fn pinned_bytes() {
        let path = temp_path("pinned");
        std::fs::remove_file(&path).ok();
        let mut w = WalWriter::open(&path).unwrap();
        for i in 0..40u32 {
            let payload: Vec<u8> = (0..i * 7 % 53).map(|j| (i * 31 + j) as u8).collect();
            w.append(&payload).unwrap();
        }
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (1688, 0xee32_c978_8759_fd78));
        std::fs::remove_file(&path).ok();
    }
}
