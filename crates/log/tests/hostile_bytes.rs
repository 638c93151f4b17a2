//! Arbitrary bytes from disk never panic and never allocate more than
//! their length allows: the frame scanner (both formats), the segment
//! decoder behind CRC-correct frames, the varint reader, and the cursor
//! parser behind `GET /events`.
//!
//! A counting global allocator records the largest single allocation
//! each test thread asks for; every property bounds it by the input
//! length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use odin_log::segment::{decode_segment_body, encode_segment, scan_bytes, FORMAT, FRAME_OVERHEAD};
use odin_log::{Cursor, LogRecord, RecordKind, ServedLabel};
use odin_store::framed::{self, Format};
use odin_store::Decoder;
use proptest::prelude::*;

struct Counting;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only
// addition is a const-initialised thread-local `Cell` store, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(layout.size())));
        // SAFETY: same layout contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(new_size)));
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and asserts no single allocation inside it exceeded a
/// small multiple of `input_len` (a decoded record is ~80 bytes, and
/// each costs at least one input byte).
fn bounded<T>(input_len: usize, f: impl FnOnce() -> T) -> T {
    LARGEST.with(|m| m.set(0));
    let out = f();
    let largest = LARGEST.with(|m| m.get());
    assert!(largest <= 128 * input_len + 4096, "{largest} bytes allocated for {input_len} input");
    out
}

const WAL: Format = Format { marker: 0xA5, prefix_len: 8, header: None };

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 0..max)
}

fn edits() -> impl Strategy<Value = Vec<(usize, u8)>> {
    prop::collection::vec((0usize..1 << 16, 0u8..=255), 1..8)
}

/// A valid segment body of `n` records.
fn segment_body(n: usize) -> Vec<u8> {
    let recs: Vec<LogRecord> = (0..n as u64)
        .map(|i| LogRecord {
            seq: 10 + i,
            kind: RecordKind::ALL[i as usize % 7],
            ts_us: 1_000 * i,
            frame: i,
            stream: (i % 3) as u32,
            cluster: i as i64 % 4 - 1,
            served: ServedLabel::ALL[i as usize % 4],
            dets: i as u32,
            conf_mean: 0.5,
            conf_max: 0.75,
            latency_us: 300 + i,
            trace: i / 2,
        })
        .collect();
    encode_segment(&recs)[FRAME_OVERHEAD..].to_vec()
}

/// A whole log file holding `body` under a correct CRC.
fn log_file(body: &[u8]) -> Vec<u8> {
    let mut file = FORMAT.header_bytes();
    file.extend_from_slice(&FORMAT.encode(&[], body));
    file
}

/// Decodes every segment of `file`, as `GET /events` would.
fn decode_all(file: Vec<u8>) {
    let len = file.len();
    bounded(len, || {
        if let Ok(log) = scan_bytes(file) {
            for i in 0..log.segments.len() {
                let _ = log.records(i);
            }
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frame_scan_survives_any_bytes(raw in bytes(600), edits in edits()) {
        for format in [WAL, FORMAT] {
            // Arbitrary bytes, and valid frames with a few bytes changed.
            let mut framed_bytes = format.header_bytes();
            for i in 0..4u64 {
                let prefix = &i.to_le_bytes()[..format.prefix_len];
                framed_bytes.extend_from_slice(&format.encode(prefix, &raw[..raw.len().min(40)]));
            }
            for (at, b) in &edits {
                let n = framed_bytes.len();
                framed_bytes[at % n] = *b;
            }
            for input in [&raw, &framed_bytes] {
                bounded(input.len(), || {
                    if let Ok(scan) = framed::scan(input, &format) {
                        prop_assert!(scan.good_len <= input.len());
                        prop_assert_eq!(scan.torn, scan.good_len != input.len());
                        let framed: usize =
                            scan.frames.iter().map(|f| format.overhead() + f.body.len()).sum();
                        prop_assert!(framed <= scan.good_len);
                    }
                });
            }
        }
    }

    #[test]
    fn segment_decode_survives_crc_correct_garbage(raw in bytes(600)) {
        decode_all(log_file(&raw));
        bounded(raw.len(), || { let _ = decode_segment_body(&raw); });
    }

    #[test]
    fn segment_decode_survives_edited_bodies(n in 1usize..40, edits in edits(), cut in 0usize..1 << 16) {
        let mut body = segment_body(n);
        for (at, b) in &edits {
            let len = body.len();
            body[at % len] = *b;
        }
        decode_all(log_file(&body));
        body.truncate(cut % (body.len() + 1));
        decode_all(log_file(&body));
    }

    #[test]
    fn segment_decode_survives_any_count(n in 1usize..10, count in 0u64..u64::MAX) {
        let mut body = segment_body(n);
        body[..8].copy_from_slice(&count.to_le_bytes());
        decode_all(log_file(&body));
    }

    #[test]
    fn varint_reader_survives_any_bytes(raw in bytes(24)) {
        let mut dec = Decoder::new(&raw);
        bounded(raw.len(), || {
            if dec.take_varint("fuzz").is_ok() {
                prop_assert!(raw.len() - dec.remaining() <= 10);
            }
        });
    }

    #[test]
    fn cursor_parse_survives_any_text(raw in bytes(40), seq in 0u64..u64::MAX, digits in 0usize..30) {
        let lossy = String::from_utf8_lossy(&raw).into_owned();
        let long = format!("{seq}:{}", "9".repeat(digits));
        for text in [lossy, long] {
            bounded(text.len(), || {
                if let Some(c) = Cursor::parse(&text) {
                    prop_assert_eq!(Cursor::parse(&c.to_string()), Some(c));
                }
            });
        }
    }
}
