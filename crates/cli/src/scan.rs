//! `odin scan` — predicate queries over event logs.

use std::path::PathBuf;

use odin_log::{scan_log, scan_store, Predicate, RecordKind, ScanResult, ServedLabel};

use crate::fmt;
use crate::take_value;

/// Where to read records from: one log file or a store directory
/// (root log plus every `streams/<id>/` shard).
pub enum Source {
    Log(PathBuf),
    Store(PathBuf),
}

impl Source {
    pub fn scan(&self, pred: &Predicate) -> Result<ScanResult, String> {
        let res = match self {
            Source::Log(p) => scan_log(p, pred),
            Source::Store(p) => scan_store(p, pred),
        };
        res.map_err(|e| {
            let what = match self {
                Source::Log(p) | Source::Store(p) => p.display().to_string(),
            };
            format!("scanning {what}: {e}")
        })
    }
}

/// Parsed `scan` invocation; `explain` reuses the source + predicate
/// parsing and ignores the presentation flags.
pub struct ScanArgs {
    pub source: Source,
    pub pred: Predicate,
    pub json: bool,
    pub stats: bool,
    pub limit: Option<usize>,
}

pub fn parse(args: &[String], cmd: &str) -> Result<ScanArgs, String> {
    let mut log: Option<PathBuf> = None;
    let mut store: Option<PathBuf> = None;
    let mut pred = Predicate::default();
    let mut json = false;
    let mut stats = false;
    let mut limit = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--log" => log = Some(PathBuf::from(take_value(args, &mut i, "--log")?)),
            "--store" => store = Some(PathBuf::from(take_value(args, &mut i, "--store")?)),
            "--stream" => {
                let v = take_value(args, &mut i, "--stream")?;
                pred.stream = Some(v.parse().map_err(|_| format!("bad stream `{v}`"))?);
            }
            "--since" => {
                pred.ts_min_us = Some(fmt::parse_time_us(&take_value(args, &mut i, "--since")?)?);
            }
            "--until" => {
                pred.ts_max_us = Some(fmt::parse_time_us(&take_value(args, &mut i, "--until")?)?);
            }
            "--frame-min" => {
                let v = take_value(args, &mut i, "--frame-min")?;
                pred.frame_min = Some(v.parse().map_err(|_| format!("bad frame `{v}`"))?);
            }
            "--frame-max" => {
                let v = take_value(args, &mut i, "--frame-max")?;
                pred.frame_max = Some(v.parse().map_err(|_| format!("bad frame `{v}`"))?);
            }
            "--cluster" => {
                let v = take_value(args, &mut i, "--cluster")?;
                pred.cluster = Some(v.parse().map_err(|_| format!("bad cluster `{v}`"))?);
            }
            "--kind" => {
                let v = take_value(args, &mut i, "--kind")?;
                pred.kind =
                    Some(RecordKind::parse(&v).ok_or_else(|| format!("unknown kind `{v}`"))?);
            }
            "--served" => {
                let v = take_value(args, &mut i, "--served")?;
                pred.served =
                    Some(ServedLabel::parse(&v).ok_or_else(|| format!("unknown served `{v}`"))?);
            }
            "--trace" => {
                pred.trace = Some(fmt::parse_trace(&take_value(args, &mut i, "--trace")?)?);
            }
            "--limit" => {
                let v = take_value(args, &mut i, "--limit")?;
                limit = Some(v.parse().map_err(|_| format!("bad limit `{v}`"))?);
            }
            "--json" => json = true,
            "--stats" => stats = true,
            other => return Err(format!("{cmd}: unknown flag `{other}`")),
        }
        i += 1;
    }
    let source = match (log, store) {
        (Some(p), None) => Source::Log(p),
        (None, Some(p)) => Source::Store(p),
        (None, None) => return Err(format!("{cmd} needs --log FILE or --store DIR")),
        (Some(_), Some(_)) => return Err(format!("{cmd}: --log and --store are exclusive")),
    };
    Ok(ScanArgs { source, pred, json, stats, limit })
}

pub fn run(args: &[String]) -> Result<(), String> {
    let a = parse(args, "scan")?;
    let res = a.source.scan(&a.pred)?;
    let shown = a.limit.unwrap_or(res.records.len()).min(res.records.len());

    if a.json {
        println!("[");
        for (i, r) in res.records[..shown].iter().enumerate() {
            let comma = if i + 1 < shown { "," } else { "" };
            println!("  {}{comma}", r.to_json());
        }
        println!("]");
    } else {
        if shown > 0 {
            println!("{}", fmt::TABLE_HEADER);
        }
        for r in &res.records[..shown] {
            println!("{}", fmt::row(r));
        }
        if shown < res.records.len() {
            println!("... {} more (raise --limit)", res.records.len() - shown);
        }
        if res.records.is_empty() {
            println!("no matching records");
        }
    }
    if a.stats {
        let s = &res.stats;
        eprintln!(
            "scan: {} file(s), {} record(s) matched; segments: {} total, \
             {} pruned by zone maps, {} scanned{}",
            s.files,
            s.records_matched,
            s.segments_total,
            s.segments_pruned,
            s.segments_scanned,
            if s.torn_tail { "; torn tail skipped" } else { "" },
        );
    }
    Ok(())
}
