//! Golden bytes of `Table::to_json`: `results/*.json` and
//! `bench_gate` read this layout, so it must not drift.

use odin_bench::report::Table;

#[test]
fn table_json_bytes_are_pinned() {
    let mut t = Table::new("t1", "quote \" back \\ nl \n tab \t", &["Model", "FPS"]);
    t.row(vec!["YOLO".into(), "625".into()]);
    t.row(vec!["ctl \u{1}\u{1f} del \u{7f}".into(), "é \u{2028} 𝄞 / <>".into()]);
    assert_eq!(
        t.to_json(),
        concat!(
            "{\n",
            "  \"id\": \"t1\",\n",
            "  \"title\": \"quote \\\" back \\\\ nl \\n tab \\t\",\n",
            "  \"headers\": [\"Model\", \"FPS\"],\n",
            "  \"rows\": [\n",
            "    [\"YOLO\", \"625\"],\n",
            "    [\"ctl \\u0001\\u001f del \u{7f}\", \"é \u{2028} 𝄞 / <>\"]\n",
            "  ]\n",
            "}",
        )
    );
    assert_eq!(
        Table::new("e", "", &[]).to_json(),
        "{\n  \"id\": \"e\",\n  \"title\": \"\",\n  \"headers\": [],\n  \"rows\": [\n  ]\n}"
    );
}
