//! `bench_gate` reads every committed `results/*.json` table the way
//! `jq .rows` does: same rows, same cells, byte for byte. `jq` prints
//! the cells raw with separator bytes between them, so the comparison
//! does not go through the reader under test.

use std::path::Path;
use std::process::Command;

use odin_bench::gate::parse_rows;

/// `.rows` of `path` as `jq` reads it, or `None` when the document has
/// no `rows`.
fn jq_rows(path: &Path) -> Option<Vec<Vec<String>>> {
    let out = Command::new("jq")
        .args(["-j", r#"if has("rows") then "R", (.rows[] | ((.[] | ., "\u001f"), "\u001e")) else empty end"#])
        .arg(path)
        .output()
        .expect("jq runs (CI's smokes need it too)");
    assert!(out.status.success(), "jq failed on {}", path.display());
    let text = String::from_utf8(out.stdout).expect("jq prints UTF-8");
    let rows = text.strip_prefix('R')?;
    let rows = rows.split_terminator('\u{1e}').map(|row| match row {
        "" => Vec::new(),
        row => row.strip_suffix('\u{1f}').unwrap().split('\u{1f}').map(str::to_string).collect(),
    });
    Some(rows.collect())
}

#[test]
fn committed_results_read_as_jq_reads_them() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut tables = 0;
    for entry in std::fs::read_dir(&dir).expect("results/") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        match jq_rows(&path) {
            Some(rows) => {
                assert_eq!(parse_rows(&text).as_ref(), Ok(&rows), "{}", path.display());
                tables += 1;
            }
            None => assert!(parse_rows(&text).is_err(), "{} has no rows", path.display()),
        }
    }
    assert!(tables >= 20, "only {tables} tables under {}", dir.display());
}
