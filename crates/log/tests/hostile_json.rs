//! The one JSON reader (`odin_telemetry::json`) and the `/events` page
//! reader built on it, against hostile input: arbitrary text never
//! panics, an edited page is an `Err` or a page, every proper prefix
//! of a page is an `Err`, and escaped strings and integers read back
//! exactly.

use odin_log::{events_page, parse_events_page, Cursor, LogRecord, RecordKind, ServedLabel};
use odin_telemetry::json::{self, escape, Value};
use proptest::prelude::*;

/// Characters JSON's grammar turns on, so random text reaches past the
/// first byte.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', ':', ',', '"', '\\', ' ', '\n', 'u', 'd', '8', '0', '1', '9', 'a', 'f',
    'e', 'E', '+', '-', '.', 't', 'r', 'n', 'l', 's', 'é', '\u{2028}', '𝄞', '\u{1}',
];

fn text(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..ALPHABET.len(), 0..max)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Strings weighted toward what an escaper must get right: control
/// characters, quotes, backslashes, line separators and non-BMP text.
fn tricky_string() -> impl Strategy<Value = String> {
    prop::collection::vec((0u32..4, 0u32..0x11_0000), 0..48).prop_map(|picks| {
        let pick = |(class, code): (u32, u32)| match class {
            0 => char::from_u32(code % 0x20),
            1 => ['"', '\\', '/', '\u{2028}', '\u{2029}', '\u{7f}'].get(code as usize % 6).copied(),
            2 => char::from_u32(code % 0x80),
            _ => char::from_u32(code),
        };
        picks.into_iter().filter_map(pick).collect()
    })
}

fn records(n: usize, seed: u64) -> Vec<LogRecord> {
    (0..n as u64)
        .map(|i| LogRecord {
            seq: seed.wrapping_add(i),
            kind: RecordKind::ALL[(seed + i) as usize % 7],
            ts_us: seed.wrapping_mul(31).wrapping_add(i),
            frame: i,
            stream: (seed % 5) as u32,
            cluster: (seed as i64 % 7) - 1,
            served: ServedLabel::ALL[i as usize % 4],
            dets: i as u32,
            conf_mean: 0.25,
            conf_max: 0.5,
            latency_us: seed / 3,
            trace: u64::MAX - seed,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_survives_any_text(raw in prop::collection::vec(0u8..=255, 0..300), mixed in text(300)) {
        let _ = json::parse(&String::from_utf8_lossy(&raw));
        let _ = json::parse(&mixed);
        let _ = parse_events_page(&mixed);
    }

    #[test]
    fn escaped_strings_read_back(s in tricky_string()) {
        let literal = format!("\"{}\"", escape(&s));
        prop_assert_eq!(json::parse(&literal), Ok(Value::String(s.clone())));
        let object = json::parse(&format!("{{\"k\":{literal}}}")).unwrap();
        prop_assert_eq!(object.get("k").and_then(Value::as_str), Some(s.as_str()));
    }

    #[test]
    fn integers_read_back_exactly(u in 0u64..u64::MAX, i in i64::MIN..i64::MAX) {
        let doc = json::parse(&format!("[{u},{i}]")).unwrap();
        let items = doc.as_array().unwrap();
        prop_assert_eq!(items[0].as_u64(), Some(u));
        prop_assert_eq!(items[1].as_i64(), Some(i));
    }

    #[test]
    fn a_page_reads_back_and_its_prefixes_do_not(n in 0usize..6, seed in 0u64..u64::MAX) {
        let recs = records(n, seed);
        let cursors = [Cursor { seq: seed, offset: 8 }, Cursor::default()];
        let page = events_page(&cursors, &recs);
        let (cursor, read) = parse_events_page(&page).expect("a written page reads back");
        prop_assert_eq!(cursor, format!("{seed}:8,0:8"));
        prop_assert_eq!(read, recs);
        for end in 0..page.len() {
            prop_assert!(json::parse(&page[..end]).is_err(), "prefix {:?} parsed", &page[..end]);
        }
    }

    #[test]
    fn an_edited_page_is_an_error_or_a_page(
        n in 1usize..6,
        edits in prop::collection::vec((0usize..1 << 16, 0usize..ALPHABET.len()), 1..6),
    ) {
        let mut page: Vec<char> = events_page(&[Cursor::default()], &records(n, 7)).chars().collect();
        for (at, c) in edits {
            let len = page.len();
            page[at % len] = ALPHABET[c];
        }
        let page: String = page.into_iter().collect();
        if let Ok((_, read)) = parse_events_page(&page) {
            prop_assert!(read.len() <= n);
        }
    }
}

#[test]
fn a_hundred_thousand_open_brackets_are_an_error() {
    for open in ["[", "{\"a\":"] {
        assert!(json::parse(&open.repeat(100_000)).is_err());
        assert!(parse_events_page(&open.repeat(100_000)).is_err());
    }
}
