//! `odin tail` — cursor-paged (and optionally following) tail of the
//! event log, against a live server's `GET /events` route or directly
//! against `events.odlg` files.
//!
//! Three sources:
//!
//! * `--addr HOST:PORT` — long-polls the serving front end; the cursor
//!   string is opaque (the server joins one `seq:offset` per stream).
//! * `--log FILE` — reads one log file with [`read_after`] (sealed
//!   segments only, safe against a live writer).
//! * `--store DIR` — reads the standalone `events.odlg` and/or every
//!   `streams/<id>/events.odlg` shard with one cursor per file.
//!
//! One-shot mode drains everything after the start cursor and prints
//! the final cursor on stderr (resume with `--cursor`). `-f` keeps
//! following; `--for DUR` bounds the follow window (for scripts/CI).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use odin_log::{parse_events_page, read_after, Cursor, LogRecord, RecordKind, EVENT_LOG_FILE};

use crate::fmt;
use crate::{take_value, Remote};

/// Poll interval between file reads (and between empty HTTP pages,
/// on top of the server-side long-poll) while following.
const FOLLOW_POLL_MS: u64 = 200;

/// Server-side long-poll budget per request in follow mode.
const FOLLOW_WAIT_MS: u64 = 2_000;

enum Source {
    Addr(Remote),
    Files(Vec<PathBuf>),
}

pub fn run(args: &[String]) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut log: Option<PathBuf> = None;
    let mut store: Option<PathBuf> = None;
    let mut kind: Option<RecordKind> = None;
    let mut cursor_arg: Option<String> = None;
    let mut json = false;
    let mut follow = false;
    let mut limit: usize = 256;
    let mut window: Option<Duration> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(take_value(args, &mut i, "--addr")?),
            "--log" => log = Some(PathBuf::from(take_value(args, &mut i, "--log")?)),
            "--store" => store = Some(PathBuf::from(take_value(args, &mut i, "--store")?)),
            "--kind" => {
                let v = take_value(args, &mut i, "--kind")?;
                kind = Some(RecordKind::parse(&v).ok_or_else(|| format!("unknown kind `{v}`"))?);
            }
            "--cursor" => cursor_arg = Some(take_value(args, &mut i, "--cursor")?),
            "--limit" => {
                limit = take_value(args, &mut i, "--limit")?
                    .parse()
                    .map_err(|_| "bad --limit".to_string())?;
            }
            "--for" => {
                let v = take_value(args, &mut i, "--for")?;
                window = Some(Duration::from_micros(fmt::parse_time_us(&v)?));
            }
            "--json" => json = true,
            "-f" | "--follow" => follow = true,
            other => return Err(format!("tail: unknown flag `{other}`")),
        }
        i += 1;
    }
    let source = match (addr, log, store) {
        (Some(a), None, None) => Source::Addr(Remote::resolve(&a)?),
        (None, Some(file), None) => Source::Files(vec![file]),
        (None, None, Some(dir)) => Source::Files(store_logs(&dir)?),
        _ => return Err("tail needs exactly one of --addr, --log, --store".to_string()),
    };

    let mut tail = TailState::start(source, cursor_arg, kind, limit)?;
    let deadline = window.map(|w| Instant::now() + w);
    let mut printed_any = false;
    loop {
        // `progressed` distinguishes "nothing new on disk" from "a
        // page of records the kind filter dropped" — one-shot mode
        // must keep paging through the latter.
        let (records, progressed) = tail.next_batch(follow)?;
        if !records.is_empty() {
            if !json && !printed_any {
                println!("{}", fmt::TABLE_HEADER);
            }
            printed_any = true;
            for r in &records {
                if json {
                    println!("{}", r.to_json());
                } else {
                    println!("{}", fmt::row(r));
                }
            }
        } else if !progressed {
            if !follow {
                break;
            }
            std::thread::sleep(Duration::from_millis(FOLLOW_POLL_MS));
        }
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    eprintln!("cursor: {}", tail.cursor_string());
    Ok(())
}

/// The event-log files under a store directory, in stable order: the
/// standalone `events.odlg` first (if present), then every
/// `streams/<id>/` shard sorted by stream id.
fn store_logs(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut logs = Vec::new();
    let single = dir.join(EVENT_LOG_FILE);
    if single.is_file() {
        logs.push(single);
    }
    let streams = dir.join("streams");
    if streams.is_dir() {
        let mut ids: Vec<u64> = std::fs::read_dir(&streams)
            .map_err(|e| format!("reading {}: {e}", streams.display()))?
            .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
            .collect();
        ids.sort_unstable();
        for id in ids {
            let shard = streams.join(id.to_string()).join(EVENT_LOG_FILE);
            if shard.is_file() {
                logs.push(shard);
            }
        }
    }
    if logs.is_empty() {
        return Err(format!("no event logs under {} (is the event log enabled?)", dir.display()));
    }
    Ok(logs)
}

struct TailState {
    source: Source,
    kind: Option<RecordKind>,
    limit: usize,
    /// Addr mode: the server's opaque cursor string.
    http_cursor: String,
    /// File mode: one cursor per file, same order as the paths.
    file_cursors: Vec<Cursor>,
}

impl TailState {
    fn start(
        source: Source,
        cursor_arg: Option<String>,
        kind: Option<RecordKind>,
        limit: usize,
    ) -> Result<TailState, String> {
        let mut state = TailState {
            kind,
            limit: limit.max(1),
            http_cursor: String::new(),
            file_cursors: Vec::new(),
            source,
        };
        match &state.source {
            Source::Addr(_) => state.http_cursor = cursor_arg.unwrap_or_default(),
            Source::Files(paths) => {
                state.file_cursors = match cursor_arg {
                    None => vec![Cursor::default(); paths.len()],
                    Some(s) => {
                        let parsed: Option<Vec<Cursor>> = s.split(',').map(Cursor::parse).collect();
                        match parsed {
                            Some(v) if v.len() == paths.len() => v,
                            _ => {
                                return Err(format!(
                                    "bad --cursor (expected {} comma-separated seq:offset entries)",
                                    paths.len()
                                ))
                            }
                        }
                    }
                };
            }
        }
        Ok(state)
    }

    fn cursor_string(&self) -> String {
        match &self.source {
            Source::Addr(_) => self.http_cursor.clone(),
            Source::Files(_) => {
                self.file_cursors.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(",")
            }
        }
    }

    /// One fetch round: advances the cursor and returns the new
    /// records (already kind-filtered, merged in record-time order)
    /// plus whether the cursor moved at all.
    fn next_batch(&mut self, follow: bool) -> Result<(Vec<LogRecord>, bool), String> {
        match &self.source {
            Source::Addr(remote) => {
                let mut path = format!(
                    "/events?cursor={}&limit={}&wait_ms={}",
                    self.http_cursor,
                    self.limit,
                    if follow { FOLLOW_WAIT_MS } else { 0 },
                );
                if let Some(kind) = self.kind {
                    path.push_str("&kind=");
                    path.push_str(kind.name());
                }
                let (cursor, records) = parse_events_page(&remote.get(&path)?)?;
                let progressed = cursor != self.http_cursor;
                self.http_cursor = cursor;
                Ok((records, progressed))
            }
            Source::Files(paths) => {
                let mut records: Vec<LogRecord> = Vec::new();
                let mut progressed = false;
                for (i, path) in paths.iter().enumerate() {
                    let batch = read_after(path, self.file_cursors[i], self.limit)
                        .map_err(|e| format!("reading {}: {e}", path.display()))?;
                    progressed |= batch.next != self.file_cursors[i];
                    self.file_cursors[i] = batch.next;
                    records.extend(
                        batch.records.into_iter().filter(|r| self.kind.is_none_or(|k| r.kind == k)),
                    );
                }
                records.sort_by_key(|r| (r.ts_us, r.stream, r.seq));
                Ok((records, progressed))
            }
        }
    }
}
