//! On-disk columnar segment format.
//!
//! ```text
//! file   := magic "ODLG" | version u32 | segment*
//! segment:= marker 0xD6 | body_len u32 | crc u32 (over body) | body
//! body   := count | zone map | column*          (odin-store codec)
//! zone   := min/max of seq, ts_us, frame, cluster, trace,
//!           min/max stream, kind bitmask, served bitmask
//! column := length-prefixed bytes, per-column encoding:
//!           seq/ts_us/frame/trace  zigzag-delta varint
//!           stream                 varint offset from min_stream
//!           kind/served            dictionary (u8 tags; indices
//!                                  elided when the dict is unary)
//!           cluster                zigzag varint
//!           dets/latency_us        varint
//!           conf_mean/conf_max     fixed f32 bits (LE)
//! ```
//!
//! The file is an `odin_store::framed` file ([`FORMAT`]), the WAL's
//! container: torn tails are truncated on reopen, failed appends
//! rolled back. A CRC-valid body is still untrusted: a count beyond
//! the seq column's byte length is malformed, so no allocation is
//! sized by a number the bytes cannot back.

use std::fs;
use std::path::Path;

use odin_store::codec::{unzigzag, zigzag};
use odin_store::framed::{self, Format};
use odin_store::{Decoder, Encoder, StoreError};

use crate::record::{LogRecord, RecordKind, ServedLabel};

/// File magic: "ODLG" (ODin LoG).
pub const MAGIC: [u8; 4] = *b"ODLG";
/// Format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;
/// Byte that starts every segment frame.
pub const SEGMENT_MARKER: u8 = 0xD6;
/// The framed-file layout of a log file.
pub const FORMAT: Format =
    Format { marker: SEGMENT_MARKER, prefix_len: 0, header: Some((MAGIC, FORMAT_VERSION)) };
/// File header length (magic + version).
pub const HEADER_LEN: u64 = 8;
/// Segment frame overhead before the body (marker + len + crc).
pub const FRAME_OVERHEAD: usize = FORMAT.overhead();

/// The 8-byte file header.
pub fn header_bytes() -> Vec<u8> {
    FORMAT.header_bytes()
}

// ---------------------------------------------------------------------------
// columns
// ---------------------------------------------------------------------------

/// Append one length-prefixed column, filled by `fill`.
fn put_column(enc: &mut Encoder, fill: impl FnOnce(&mut Encoder)) {
    let mut col = Encoder::new();
    fill(&mut col);
    enc.put_bytes(col.bytes());
}

/// Decode the next column of `body` into a field of every row: `item`
/// reads one value, `set` stores it.
fn fill<'b, T>(
    rows: &mut [LogRecord],
    body: &mut Decoder<'b>,
    context: &'static str,
    mut item: impl FnMut(&mut Decoder<'b>, &'static str) -> Result<T, StoreError>,
    set: impl Fn(&mut LogRecord, T),
) -> Result<(), StoreError> {
    let mut col = Decoder::new(body.take_bytes(context)?);
    for r in rows {
        set(r, item(&mut col, context)?);
    }
    Ok(())
}

/// Encode `vals` as first-absolute + zigzag deltas (ids and
/// timestamps cluster tightly, so deltas are 1–2 bytes).
fn put_delta_column(col: &mut Encoder, vals: impl Iterator<Item = u64>) {
    let mut prev: Option<u64> = None;
    for v in vals {
        col.put_varint(prev.map_or(v, |p| zigzag(v.wrapping_sub(p) as i64)));
        prev = Some(v);
    }
}

/// Reads the values [`put_delta_column`] wrote, one per call.
fn deltas<'b>() -> impl FnMut(&mut Decoder<'b>, &'static str) -> Result<u64, StoreError> {
    let mut prev: Option<u64> = None;
    move |dec, context| {
        let raw = dec.take_varint(context)?;
        let v = prev.map_or(raw, |p| p.wrapping_add(unzigzag(raw) as u64));
        prev = Some(v);
        Ok(v)
    }
}

/// Dictionary-encode small enum tags: `dict_len | dict... | indices`.
/// A unary dictionary elides the index bytes entirely.
fn put_dict_column(col: &mut Encoder, tags: impl Iterator<Item = u8> + Clone) {
    let mut dict: Vec<u8> = Vec::new();
    for t in tags.clone() {
        if !dict.contains(&t) {
            dict.push(t);
        }
    }
    col.put_u8(dict.len() as u8);
    col.put_raw(&dict);
    if dict.len() > 1 {
        for t in tags {
            col.put_u8(dict.iter().position(|&d| d == t).expect("every tag is in the dict") as u8);
        }
    }
}

/// Decode the next column of `body`, a dictionary column, into a
/// field of every row.
fn fill_tags<T>(
    rows: &mut [LogRecord],
    body: &mut Decoder,
    context: &'static str,
    from_tag: fn(u8) -> Option<T>,
    set: impl Fn(&mut LogRecord, T),
) -> Result<(), StoreError> {
    let mut col = Decoder::new(body.take_bytes(context)?);
    let dict_len = col.take_u8(context)? as usize;
    let dict = col.take_raw(dict_len, context)?;
    for r in rows {
        let idx = if dict.len() > 1 { col.take_u8(context)? as usize } else { 0 };
        set(r, dict.get(idx).and_then(|&t| from_tag(t)).ok_or(StoreError::Malformed { context })?);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// zone map
// ---------------------------------------------------------------------------

/// Per-segment min/max summary used to skip whole segments during a
/// predicate scan without decoding any column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneMap {
    /// Records in the segment.
    pub count: usize,
    /// Minimum sequence number.
    pub min_seq: u64,
    /// Maximum sequence number.
    pub max_seq: u64,
    /// Minimum event timestamp (µs).
    pub min_ts_us: u64,
    /// Maximum event timestamp (µs).
    pub max_ts_us: u64,
    /// Minimum frame index.
    pub min_frame: u64,
    /// Maximum frame index.
    pub max_frame: u64,
    /// Minimum cluster id (-1 = "none" records present).
    pub min_cluster: i64,
    /// Maximum cluster id.
    pub max_cluster: i64,
    /// Minimum trace id.
    pub min_trace: u64,
    /// Maximum trace id.
    pub max_trace: u64,
    /// Minimum stream id.
    pub min_stream: u32,
    /// Maximum stream id.
    pub max_stream: u32,
    /// Bitmask of [`RecordKind`] tags present.
    pub kind_mask: u32,
    /// Bitmask of [`ServedLabel`] tags present.
    pub served_mask: u32,
}

impl ZoneMap {
    fn of(records: &[LogRecord]) -> ZoneMap {
        debug_assert!(!records.is_empty());
        let mut z = ZoneMap {
            count: records.len(),
            min_seq: u64::MAX,
            max_seq: 0,
            min_ts_us: u64::MAX,
            max_ts_us: 0,
            min_frame: u64::MAX,
            max_frame: 0,
            min_cluster: i64::MAX,
            max_cluster: i64::MIN,
            min_trace: u64::MAX,
            max_trace: 0,
            min_stream: u32::MAX,
            max_stream: 0,
            kind_mask: 0,
            served_mask: 0,
        };
        for r in records {
            z.min_seq = z.min_seq.min(r.seq);
            z.max_seq = z.max_seq.max(r.seq);
            z.min_ts_us = z.min_ts_us.min(r.ts_us);
            z.max_ts_us = z.max_ts_us.max(r.ts_us);
            z.min_frame = z.min_frame.min(r.frame);
            z.max_frame = z.max_frame.max(r.frame);
            z.min_cluster = z.min_cluster.min(r.cluster);
            z.max_cluster = z.max_cluster.max(r.cluster);
            z.min_trace = z.min_trace.min(r.trace);
            z.max_trace = z.max_trace.max(r.trace);
            z.min_stream = z.min_stream.min(r.stream);
            z.max_stream = z.max_stream.max(r.stream);
            z.kind_mask |= 1 << r.kind.tag();
            z.served_mask |= 1 << r.served.tag();
        }
        z
    }

    /// True if any record of `kind` is present.
    pub fn has_kind(&self, kind: RecordKind) -> bool {
        self.kind_mask & (1 << kind.tag()) != 0
    }

    /// True if any record with `served` is present.
    pub fn has_served(&self, served: ServedLabel) -> bool {
        self.served_mask & (1 << served.tag()) != 0
    }

    fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.count);
        enc.put_u64(self.min_seq);
        enc.put_u64(self.max_seq);
        enc.put_u64(self.min_ts_us);
        enc.put_u64(self.max_ts_us);
        enc.put_u64(self.min_frame);
        enc.put_u64(self.max_frame);
        enc.put_u64(zigzag(self.min_cluster));
        enc.put_u64(zigzag(self.max_cluster));
        enc.put_u64(self.min_trace);
        enc.put_u64(self.max_trace);
        enc.put_u32(self.min_stream);
        enc.put_u32(self.max_stream);
        enc.put_u32(self.kind_mask);
        enc.put_u32(self.served_mask);
    }

    fn decode(dec: &mut Decoder) -> Result<ZoneMap, StoreError> {
        Ok(ZoneMap {
            count: dec.take_usize("zone.count")?,
            min_seq: dec.take_u64("zone.min_seq")?,
            max_seq: dec.take_u64("zone.max_seq")?,
            min_ts_us: dec.take_u64("zone.min_ts")?,
            max_ts_us: dec.take_u64("zone.max_ts")?,
            min_frame: dec.take_u64("zone.min_frame")?,
            max_frame: dec.take_u64("zone.max_frame")?,
            min_cluster: unzigzag(dec.take_u64("zone.min_cluster")?),
            max_cluster: unzigzag(dec.take_u64("zone.max_cluster")?),
            min_trace: dec.take_u64("zone.min_trace")?,
            max_trace: dec.take_u64("zone.max_trace")?,
            min_stream: dec.take_u32("zone.min_stream")?,
            max_stream: dec.take_u32("zone.max_stream")?,
            kind_mask: dec.take_u32("zone.kind_mask")?,
            served_mask: dec.take_u32("zone.served_mask")?,
        })
    }
}

// ---------------------------------------------------------------------------
// segment encode / decode
// ---------------------------------------------------------------------------

/// Encode a full segment frame (marker + len + crc + columnar body)
/// for a non-empty batch of records.
pub fn encode_segment(records: &[LogRecord]) -> Vec<u8> {
    FORMAT.encode(&[], &encode_segment_body(records))
}

/// Encode the columnar body of a non-empty batch of records.
pub(crate) fn encode_segment_body(records: &[LogRecord]) -> Vec<u8> {
    assert!(!records.is_empty(), "segments are never empty");
    let zone = ZoneMap::of(records);
    let mut enc = Encoder::with_capacity(records.len() * 16 + 128);
    zone.encode(&mut enc);
    let all = records.iter();
    put_column(&mut enc, |c| put_delta_column(c, all.clone().map(|r| r.seq)));
    put_column(&mut enc, |c| put_delta_column(c, all.clone().map(|r| r.ts_us)));
    put_column(&mut enc, |c| put_delta_column(c, all.clone().map(|r| r.frame)));
    put_column(&mut enc, |c| {
        all.clone().for_each(|r| c.put_varint(u64::from(r.stream - zone.min_stream)))
    });
    put_column(&mut enc, |c| put_dict_column(c, all.clone().map(|r| r.kind.tag())));
    put_column(&mut enc, |c| put_dict_column(c, all.clone().map(|r| r.served.tag())));
    put_column(&mut enc, |c| all.clone().for_each(|r| c.put_varint(zigzag(r.cluster))));
    put_column(&mut enc, |c| all.clone().for_each(|r| c.put_varint(u64::from(r.dets))));
    put_column(&mut enc, |c| all.clone().for_each(|r| c.put_f32(r.conf_mean)));
    put_column(&mut enc, |c| all.clone().for_each(|r| c.put_f32(r.conf_max)));
    put_column(&mut enc, |c| all.clone().for_each(|r| c.put_varint(r.latency_us)));
    put_column(&mut enc, |c| put_delta_column(c, all.clone().map(|r| r.trace)));
    enc.into_bytes()
}

/// Decode a CRC-verified segment body back into its zone map and rows.
pub fn decode_segment_body(body: &[u8]) -> Result<(ZoneMap, Vec<LogRecord>), StoreError> {
    let mut dec = Decoder::new(body);
    let zone = ZoneMap::decode(&mut dec)?;
    let mut seqs = Decoder::new(dec.take_bytes("col.seq")?);
    // Every record costs at least one byte of the seq column.
    if zone.count > seqs.remaining() {
        return Err(StoreError::Malformed { context: "zone.count" });
    }
    let mut seq = deltas();
    let mut rows = (0..zone.count)
        .map(|_| Ok(LogRecord { seq: seq(&mut seqs, "col.seq")?, ..LogRecord::empty() }))
        .collect::<Result<Vec<_>, StoreError>>()?;
    let stream = |col: &mut Decoder, context| {
        let offset = u32::try_from(col.take_varint(context)?).ok();
        offset.and_then(|o| zone.min_stream.checked_add(o)).ok_or(StoreError::Malformed { context })
    };
    let d = &mut dec;
    fill(&mut rows, d, "col.ts", deltas(), |r, v| r.ts_us = v)?;
    fill(&mut rows, d, "col.frame", deltas(), |r, v| r.frame = v)?;
    fill(&mut rows, d, "col.stream", stream, |r, v| r.stream = v)?;
    fill_tags(&mut rows, d, "col.kind", RecordKind::from_tag, |r, v| r.kind = v)?;
    fill_tags(&mut rows, d, "col.served", ServedLabel::from_tag, |r, v| r.served = v)?;
    fill(&mut rows, d, "col.cluster", Decoder::take_varint, |r, v| r.cluster = unzigzag(v))?;
    fill(&mut rows, d, "col.dets", Decoder::take_varint, |r, v| r.dets = v as u32)?;
    fill(&mut rows, d, "col.conf_mean", Decoder::take_f32, |r, v| r.conf_mean = v)?;
    fill(&mut rows, d, "col.conf_max", Decoder::take_f32, |r, v| r.conf_max = v)?;
    fill(&mut rows, d, "col.latency", Decoder::take_varint, |r, v| r.latency_us = v)?;
    fill(&mut rows, d, "col.trace", deltas(), |r, v| r.trace = v)?;
    dec.finish("segment body")?;
    Ok((zone, rows))
}

// ---------------------------------------------------------------------------
// file scan
// ---------------------------------------------------------------------------

/// One intact segment located inside a log file.
#[derive(Debug, Clone, Copy)]
pub struct SegmentInfo {
    /// Zone map parsed from the segment body.
    pub zone: ZoneMap,
    /// Byte offset of the segment marker in the file.
    pub offset: u64,
    /// Total frame length (marker through end of body).
    pub len: usize,
}

/// A parsed log file: intact segments plus the torn-tail verdict.
#[derive(Debug)]
pub struct LogFile {
    /// Raw file bytes backing the scan (intact prefix + any torn
    /// tail); retention copies whole segments out of them verbatim.
    pub(crate) bytes: Vec<u8>,
    /// Intact segments in file order.
    pub segments: Vec<SegmentInfo>,
    /// Length of the intact prefix; bytes past this are a torn tail.
    pub good_len: u64,
    /// True when trailing bytes failed framing or CRC checks.
    pub torn: bool,
}

impl LogFile {
    /// Decode all rows of segment `i` (columns are decoded lazily, per
    /// segment, so zone-pruned scans never touch them).
    pub fn records(&self, i: usize) -> Result<Vec<LogRecord>, StoreError> {
        let seg = &self.segments[i];
        let start = seg.offset as usize + FRAME_OVERHEAD;
        let body = &self.bytes[start..seg.offset as usize + seg.len];
        decode_segment_body(body).map(|(_, recs)| recs)
    }

    /// Sequence number of the last intact record, or 0 for an empty log.
    pub fn last_seq(&self) -> u64 {
        self.segments.last().map(|s| s.zone.max_seq).unwrap_or(0)
    }

    /// Total intact records across all segments.
    pub fn record_count(&self) -> usize {
        self.segments.iter().map(|s| s.zone.count).sum()
    }
}

/// Scan raw file bytes into segments, stopping at the first torn or
/// corrupt frame. Only the zone-map prefix of each body is decoded.
pub fn scan_bytes(bytes: Vec<u8>) -> Result<LogFile, StoreError> {
    let scan = framed::scan(&bytes, &FORMAT)?;
    let segments = scan
        .frames
        .iter()
        .map(|f| {
            let zone = ZoneMap::decode(&mut Decoder::new(f.body))?;
            Ok(SegmentInfo { zone, offset: f.offset as u64, len: FRAME_OVERHEAD + f.body.len() })
        })
        .collect::<Result<Vec<_>, StoreError>>()?;
    let (good_len, torn) = (scan.good_len as u64, scan.torn);
    Ok(LogFile { bytes, segments, good_len, torn })
}

/// Read and scan a log file from disk.
pub fn read_log(path: &Path) -> Result<LogFile, StoreError> {
    let bytes = fs::read(path).map_err(StoreError::Io)?;
    scan_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, stream: u32) -> Vec<LogRecord> {
        (0..n)
            .map(|i| LogRecord {
                seq: 100 + i as u64,
                kind: RecordKind::ALL[i % RecordKind::ALL.len()],
                ts_us: 1_000_000 + (i as u64) * 33_000,
                frame: i as u64,
                stream,
                cluster: (i as i64 % 5) - 1,
                served: ServedLabel::ALL[i % ServedLabel::ALL.len()],
                dets: (i % 7) as u32,
                conf_mean: 0.25 + i as f32 * 0.01,
                conf_max: 0.5 + i as f32 * 0.01,
                latency_us: 1000 + (i as u64 % 13) * 77,
                trace: 7_000 + (i as u64 / 3),
            })
            .collect()
    }

    /// A log file holding one segment whose body `patch` rewrote, under
    /// a correct CRC.
    fn reframed(patch: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut recs = sample(2, 0);
        recs[1].stream = 5;
        let mut body = encode_segment(&recs)[FRAME_OVERHEAD..].to_vec();
        patch(&mut body);
        let mut file = header_bytes();
        file.extend_from_slice(&FORMAT.encode(&[], &body));
        file
    }

    /// A CRC-valid segment is still untrusted input: a count of 2^40
    /// must not size an allocation (one that large aborts the process)
    /// and a stream offset past `u32::MAX` must not overflow.
    #[test]
    fn hostile_counts_and_stream_offsets_are_malformed() {
        let huge = reframed(|b| b[..8].copy_from_slice(&(1u64 << 40).to_le_bytes()));
        let path = std::env::temp_dir().join(format!("odin-hostile-{}.odlg", std::process::id()));
        std::fs::write(&path, &huge).unwrap();
        let read = crate::tail::read_after(&path, crate::tail::Cursor::default(), 10);
        assert!(matches!(read, Err(StoreError::Malformed { .. })), "{read:?}");
        let _ = std::fs::remove_file(&path);
        // min_stream sits after count and ten u64 bounds.
        let wraps = reframed(|b| b[88..92].copy_from_slice(&u32::MAX.to_le_bytes()));
        assert!(matches!(scan_bytes(wraps).unwrap().records(0), Err(StoreError::Malformed { .. })));
    }

    #[test]
    fn segment_roundtrips_bit_exact() {
        let recs = sample(257, 3);
        let frame = encode_segment(&recs);
        assert_eq!(frame[0], SEGMENT_MARKER);
        let body = &frame[FRAME_OVERHEAD..];
        let (zone, back) = decode_segment_body(body).unwrap();
        assert_eq!(back, recs);
        assert_eq!(zone.count, 257);
        assert_eq!(zone.min_seq, 100);
        assert_eq!(zone.max_seq, 356);
        assert_eq!(zone.min_cluster, -1);
        assert_eq!(zone.min_stream, 3);
        assert_eq!(zone.max_stream, 3);
        assert!(zone.has_kind(RecordKind::DriftDetected));
        assert!(zone.has_served(ServedLabel::Teacher));
    }

    #[test]
    fn unary_dictionary_elides_indices() {
        let uniform: Vec<LogRecord> = sample(64, 0)
            .into_iter()
            .map(|mut r| {
                r.kind = RecordKind::Frame;
                r.served = ServedLabel::Teacher;
                r
            })
            .collect();
        let varied = sample(64, 0);
        let uf = encode_segment(&uniform);
        let vf = encode_segment(&varied);
        // Two dictionary columns × 64 elided index bytes, minus the
        // extra dict entries — the uniform frame must be clearly
        // smaller on those columns alone.
        assert!(uf.len() + 100 < vf.len(), "uniform {} vs varied {}", uf.len(), vf.len());
        let (_, back) = decode_segment_body(&uf[FRAME_OVERHEAD..]).unwrap();
        assert_eq!(back, uniform);
    }

    #[test]
    fn scan_detects_and_stops_at_corruption() {
        let mut file = header_bytes().to_vec();
        file.extend_from_slice(&encode_segment(&sample(10, 0)));
        let good = encode_segment(&sample(10, 0));
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0xff; // flip a body byte -> CRC fail
        file.extend_from_slice(&bad);

        let log = scan_bytes(file).unwrap();
        assert_eq!(log.segments.len(), 1);
        assert!(log.torn);
        assert_eq!(log.good_len, HEADER_LEN + good.len() as u64);
    }

    #[test]
    fn scan_rejects_foreign_files() {
        assert!(matches!(
            scan_bytes(b"not an odlg file".to_vec()),
            Err(StoreError::BadMagic { .. })
        ));
        let mut future = header_bytes().to_vec();
        future[4] = 99;
        assert!(matches!(scan_bytes(future), Err(StoreError::UnsupportedVersion { .. })));
    }

    #[test]
    fn torn_tail_mid_frame_is_flagged() {
        let mut file = header_bytes().to_vec();
        let seg = encode_segment(&sample(20, 1));
        file.extend_from_slice(&seg);
        file.extend_from_slice(&seg[..seg.len() / 2]); // torn second segment
        let log = scan_bytes(file).unwrap();
        assert_eq!(log.segments.len(), 1);
        assert!(log.torn);
        assert_eq!(log.good_len, HEADER_LEN + seg.len() as u64);
        assert_eq!(log.records(0).unwrap(), sample(20, 1));
        assert_eq!(log.last_seq(), 119);
    }
}
