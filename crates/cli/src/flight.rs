//! `odin flight` — fetch the live flight recorder's Chrome-trace dump
//! (`GET /flight`) and write it to a file for Perfetto / chrome://tracing.

use std::path::PathBuf;

use odin_telemetry::json;

use crate::{take_value, Remote};

pub fn run(args: &[String]) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut out = PathBuf::from("trace.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(take_value(args, &mut i, "--addr")?),
            "--out" => out = PathBuf::from(take_value(args, &mut i, "--out")?),
            other => return Err(format!("flight: unknown flag `{other}`")),
        }
        i += 1;
    }
    let addr = addr.ok_or("flight needs --addr HOST:PORT")?;
    let body = Remote::resolve(&addr)?.get("/flight")?;
    let trace = json::parse(&body).map_err(|e| format!("/flight did not return JSON: {e}"))?;
    if trace.get("traceEvents").and_then(json::Value::as_array).is_none() {
        return Err(format!("/flight did not return a Chrome trace: {body}"));
    }
    std::fs::write(&out, &body).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("flight trace: {} ({} bytes)", out.display(), body.len());
    Ok(())
}
