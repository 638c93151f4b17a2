//! Experiment argument parsing and table reporting.

use std::fs;
use std::path::PathBuf;

use odin_telemetry::json;
use serde::Serialize;

/// Common experiment arguments, parsed from the command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Master seed for all randomness.
    pub seed: u64,
    /// Dataset-size multiplier (1.0 = defaults).
    pub scale: f32,
    /// Output directory for JSON rows.
    pub out_dir: PathBuf,
}

impl Default for Args {
    fn default() -> Self {
        Args { seed: 42, scale: 1.0, out_dir: PathBuf::from("results") }
    }
}

impl Args {
    /// Parses `--seed`, `--scale`, and `--out` from `std::env::args`.
    ///
    /// Unknown flags are rejected with a message listing the supported
    /// ones.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().unwrap_or_else(|| panic!("flag {flag} expects a value"));
            match flag.as_str() {
                "--seed" => out.seed = value().parse().expect("--seed expects a u64"),
                "--scale" => out.scale = value().parse().expect("--scale expects a float"),
                "--out" => out.out_dir = PathBuf::from(value()),
                other => panic!("unknown flag {other}; supported: --seed --scale --out"),
            }
        }
        assert!(out.scale > 0.0, "--scale must be positive");
        out
    }

    /// Scales a default count, keeping at least `min`.
    pub fn scaled(&self, default: usize, min: usize) -> usize {
        ((default as f32 * self.scale) as usize).max(min)
    }
}

/// A printable, serializable experiment table.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// Experiment identifier (e.g. "table1").
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch in table {}", self.id);
        self.rows.push(cells);
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        println!("\n=== {} — {} ===", self.id, self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }

    /// Renders the table as pretty-printed JSON.
    ///
    /// The table's value space is strings only, so the writer lays the
    /// document out by hand around `odin_telemetry::json::escape`.
    pub fn to_json(&self) -> String {
        self.render_json(None)
    }

    /// [`Table::to_json`], with how the run was recorded — scale, seed
    /// and the commit it ran on — between the title and the headers
    /// when `recorded` is given: a number without its scale cannot be
    /// compared with anything.
    fn render_json(&self, recorded: Option<&Args>) -> String {
        let quote = |s: &str| format!("\"{}\"", json::escape(s));
        let list = |items: &[String]| {
            format!("[{}]", items.iter().map(|s| quote(s)).collect::<Vec<_>>().join(", "))
        };
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", quote(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", quote(&self.title)));
        if let Some(args) = recorded {
            out.push_str(&format!(
                "  \"recorded\": {{\"scale\": {}, \"seed\": {}, \"git_commit\": {}}},\n",
                args.scale,
                args.seed,
                quote(&git_commit())
            ));
        }
        out.push_str(&format!("  \"headers\": {},\n", list(&self.headers)));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let sep = if i + 1 < self.rows.len() { "," } else { "" };
            out.push_str(&format!("    {}{sep}\n", list(row)));
        }
        out.push_str("  ]\n}");
        out
    }

    /// Writes the table as JSON, with its recording header, under
    /// `<args.out_dir>/<id>.json`.
    pub fn save(&self, args: &Args) -> std::io::Result<()> {
        fs::create_dir_all(&args.out_dir)?;
        let path = args.out_dir.join(format!("{}.json", self.id));
        fs::write(path, self.render_json(Some(args)))
    }

    /// Prints and saves in one call (errors on save are reported, not
    /// fatal — the printed table is the primary artifact).
    pub fn finish(&self, args: &Args) {
        self.print();
        if let Err(e) = self.save(args) {
            eprintln!("warning: could not save {}: {e}", self.id);
        }
    }
}

/// `git describe --always --dirty` of the working directory, or
/// `"unknown"` outside a checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=7"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Formats a float with 3 decimals (the paper's precision).
pub fn f3(v: f32) -> String {
    format!("{v:.3}")
}

/// Formats a float with 2 decimals.
pub fn f2(v: f32) -> String {
    format!("{v:.2}")
}

/// Formats a percentage.
pub fn pct(v: f32) -> String {
    format!("{:.0}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_defaults() {
        let a = Args::from_args(Vec::<String>::new());
        assert_eq!(a.seed, 42);
        assert_eq!(a.scale, 1.0);
    }

    #[test]
    fn args_parse_all_flags() {
        let a =
            Args::from_args(["--seed", "7", "--scale", "0.5", "--out", "/tmp/x"].map(String::from));
        assert_eq!(a.seed, 7);
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn args_reject_unknown() {
        let _ = Args::from_args(["--bogus".to_string()]);
    }

    #[test]
    fn scaled_respects_min() {
        let a = Args { scale: 0.01, ..Args::default() };
        assert_eq!(a.scaled(100, 10), 10);
    }

    #[test]
    fn table_row_width_checked() {
        let mut t = Table::new("t", "test", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new("t", "test", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn to_json_escapes_and_structures() {
        let mut t = Table::new("t1", "quote \" and \\ back", &["h1", "h2"]);
        t.row(vec!["a\nb".into(), "c".into()]);
        let j = t.to_json();
        assert!(j.contains("\"id\": \"t1\""));
        assert!(j.contains("quote \\\" and \\\\ back"));
        assert!(j.contains("[\"a\\nb\", \"c\"]"));
        assert!(j.ends_with('}'));
    }

    #[test]
    fn saved_json_carries_its_recording_header_and_still_gates() {
        let mut t = Table::new("t2", "a table", &["k", "v"]);
        t.row(vec!["row".into(), "1.5".into()]);
        let args = Args { scale: 0.3, seed: 9, ..Args::default() };
        let j = t.render_json(Some(&args));
        assert!(j.contains("\"recorded\": {\"scale\": 0.3, \"seed\": 9, \"git_commit\": \""));
        assert_eq!(crate::gate::parse_rows(&j).expect("rows"), t.rows);
        assert!(!t.to_json().contains("recorded"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(pct(0.5), "50%");
    }
}
