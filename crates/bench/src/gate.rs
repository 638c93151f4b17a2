//! Benchmark regression gating.
//!
//! Compares a freshly measured experiment table against a committed
//! baseline (`results/<id>.json`) and flags rows whose numeric column
//! dropped by more than an allowed percentage. Tables are read with
//! the workspace's one JSON reader, `odin_telemetry::json`.

use odin_telemetry::json::{self, Value};

/// The `"rows"` of a table JSON document written by
/// [`crate::report::Table::to_json`]: an array of arrays of strings.
pub fn parse_rows(json: &str) -> Result<Vec<Vec<String>>, String> {
    let doc = json::parse(json)?;
    let rows =
        doc.get("rows").and_then(Value::as_array).ok_or("no \"rows\" array in table JSON")?;
    let cells = |row: &Value| -> Option<Vec<String>> {
        row.as_array()?.iter().map(|cell| cell.as_str().map(str::to_string)).collect()
    };
    rows.iter()
        .map(|row| cells(row).ok_or_else(|| format!("row {row:?} is not an array of strings")))
        .collect()
}

/// One row's baseline-vs-candidate comparison.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Row label (first cell of the baseline row).
    pub label: String,
    /// Baseline value of the gated column.
    pub baseline: f64,
    /// Freshly measured value of the gated column.
    pub candidate: f64,
    /// Drop relative to baseline in percent (negative = improvement).
    pub drop_pct: f64,
    /// Whether the drop exceeds the allowed threshold.
    pub failed: bool,
}

/// Compares `column` of every baseline row against the candidate row
/// with the same label (first cell). A row fails if its value dropped by
/// more than `max_drop_pct` percent, or if the candidate is missing the
/// row or carries a non-numeric cell.
pub fn gate(
    baseline: &[Vec<String>],
    candidate: &[Vec<String>],
    column: usize,
    max_drop_pct: f64,
) -> Result<Vec<GateRow>, String> {
    let mut out = Vec::new();
    for base_row in baseline {
        let label = base_row.first().ok_or("empty baseline row")?.clone();
        let cand_row = candidate
            .iter()
            .find(|r| r.first() == Some(&label))
            .ok_or_else(|| format!("candidate is missing row {label:?}"))?;
        let base = cell_f64(base_row, column, &label)?;
        let cand = cell_f64(cand_row, column, &label)?;
        if base <= 0.0 {
            return Err(format!("baseline value for {label:?} is not positive: {base}"));
        }
        let drop_pct = (base - cand) / base * 100.0;
        out.push(GateRow {
            label,
            baseline: base,
            candidate: cand,
            drop_pct,
            failed: drop_pct > max_drop_pct,
        });
    }
    Ok(out)
}

fn cell_f64(row: &[String], column: usize, label: &str) -> Result<f64, String> {
    let cell = row.get(column).ok_or_else(|| format!("row {label:?} has no column {column}"))?;
    cell.parse::<f64>().map_err(|e| format!("row {label:?} column {column} ({cell:?}): {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Table;

    fn table_json(rows: &[&[&str]]) -> String {
        let mut t = Table::new("t", "gate test", &["Model", "FPS"]);
        for r in rows {
            t.row(r.iter().map(|s| s.to_string()).collect());
        }
        t.to_json()
    }

    #[test]
    fn parse_roundtrips_table_json() {
        let json = table_json(&[&["YOLO", "625"], &["LITE", "2927"]]);
        let rows = parse_rows(&json).expect("parse");
        assert_eq!(rows, vec![vec!["YOLO", "625"], vec!["LITE", "2927"]]);
    }

    #[test]
    fn parse_handles_escapes_and_empty() {
        let mut t = Table::new("t", "x", &["a"]);
        t.row(vec!["quote \" slash \\ nl \n".to_string()]);
        let rows = parse_rows(&t.to_json()).expect("parse");
        assert_eq!(rows[0][0], "quote \" slash \\ nl \n");

        let empty = Table::new("t", "x", &["a"]);
        assert!(parse_rows(&empty.to_json()).expect("parse").is_empty());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_rows("{}").is_err());
        assert!(parse_rows("{\"rows\": [[\"unterminated]}").is_err());
    }

    #[test]
    fn gate_passes_within_threshold_and_flags_drops() {
        let base = vec![
            vec!["A".to_string(), "100".to_string()],
            vec!["B".to_string(), "200".to_string()],
        ];
        let cand =
            vec![vec!["A".to_string(), "90".to_string()], vec!["B".to_string(), "240".to_string()]];
        let rows = gate(&base, &cand, 1, 15.0).expect("gate");
        assert!(!rows[0].failed, "10% drop is within a 15% budget");
        assert!(!rows[1].failed, "improvements never fail");
        assert!(rows[1].drop_pct < 0.0);

        let rows = gate(&base, &cand, 1, 5.0).expect("gate");
        assert!(rows[0].failed, "10% drop exceeds a 5% budget");
    }

    #[test]
    fn gate_errors_on_missing_rows_and_bad_cells() {
        let base = vec![vec!["A".to_string(), "100".to_string()]];
        assert!(gate(&base, &[], 1, 15.0).is_err());
        let cand = vec![vec!["A".to_string(), "fast".to_string()]];
        assert!(gate(&base, &cand, 1, 15.0).is_err());
    }
}
