//! `odin` — operator CLI for a running or persisted ODIN deployment.
//!
//! Subcommands:
//!
//! * `odin status --addr HOST:PORT` — liveness + key metrics from a
//!   serving front end's `/healthz` and `/metrics` endpoints; exits
//!   nonzero when the deployment is degraded or shedding load.
//! * `odin tail` — cursor-paged tail of the event log, live against a
//!   server (`--addr`, long-poll `GET /events`) or directly against
//!   `events.odlg` files (`--log` / `--store`); `-f` follows.
//! * `odin top` — one-screen live refresh of per-stream FPS, queue
//!   depths, serving precision, and drift/attic counters.
//! * `odin flight` — fetch the live flight recorder's Chrome trace.
//! * `odin scan` — predicate queries over an event log file
//!   (`--log events.odlg`) or a whole store directory (`--store DIR`,
//!   which merges every shard under `streams/<id>/`). Zone maps prune
//!   segments that cannot match; `--stats` shows how many were skipped.
//! * `odin explain` — reconstructs drift-recovery arcs (drift detected
//!   → train queued → model installed) by joining log records on their
//!   causal trace id.
//!
//! The CLI is dependency-free: argument parsing is hand-rolled; HTTP,
//! JSON and the Prometheus exposition go through `odin-telemetry`.

mod explain;
mod flight;
mod fmt;
mod scan;
mod status;
mod tail;
mod top;

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;

const USAGE: &str = "\
odin — ODIN ops CLI

USAGE:
    odin status --addr HOST:PORT [--raw]
    odin tail   (--addr HOST:PORT | --log FILE | --store DIR)
                [-f|--follow] [--kind KIND] [--cursor C] [--json]
                [--limit N] [--for DUR]
    odin top    --addr HOST:PORT [--once] [--interval DUR]
    odin flight --addr HOST:PORT [--out FILE]
    odin scan   (--log FILE | --store DIR) [FILTERS] [--json] [--stats]
                [--limit N]
    odin explain (--log FILE | --store DIR) [--trace ID] [--cluster N]
                [--stream N]

`status` and `top` exit nonzero when /healthz reports a degraded
status or any stream's admission queue sits at its cap.

`tail` drains everything after the start cursor and prints the final
cursor on stderr (resume with --cursor); with -f it long-polls the
server (or polls the files) for new sealed records, bounded by
--for DUR (e.g. 2s) if given.

SCAN FILTERS:
    --stream N        only records from stream N
    --since TIME      records at or after TIME (e.g. 250ms, 1.5s, 1200us,
                      or a bare integer in microseconds)
    --until TIME      records at or before TIME
    --frame-min N     frame index lower bound
    --frame-max N     frame index upper bound
    --cluster N       only records about cluster N
    --kind KIND       frame | drift | queued | install | evict | attic
    --served WHO      teacher | ensemble | fallback | none
    --trace ID        exact causal trace id (decimal or 0x hex)

Run against a store directory written with `OdinConfig.event_log`
enabled (see DESIGN.md, \"Event log & ops CLI\" and
\"Live observability plane\").";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "status" => status::run(rest),
        "tail" => tail::run(rest),
        "top" => top::run(rest),
        "flight" => flight::run(rest),
        "scan" => scan::run(rest),
        "explain" => explain::run(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("odin: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Pulls the value following a `--flag` out of `args`, or errors if the
/// flag is present without one.
fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
}

/// A serving front end, resolved once from `--addr`.
#[derive(Clone, Copy)]
struct Remote(SocketAddr);

impl Remote {
    fn resolve(addr: &str) -> Result<Remote, String> {
        let mut socks = addr.to_socket_addrs().map_err(|e| format!("resolving {addr}: {e}"))?;
        socks.next().map(Remote).ok_or_else(|| format!("{addr} resolved to nothing"))
    }

    /// The body of `GET path`, or an error naming the route when the
    /// request fails or the status is not 200.
    fn get(self, path: &str) -> Result<String, String> {
        let route = path.split('?').next().unwrap_or(path);
        let (status, body) =
            odin_telemetry::http::get(self.0, path).map_err(|e| format!("GET {route}: {e}"))?;
        if !status.contains("200") {
            return Err(format!("{route} returned {status}: {}", body.trim()));
        }
        Ok(body)
    }
}
