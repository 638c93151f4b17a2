//! Thread hygiene of the HTTP server: the handler threads are spawned
//! once, requests create none, and `shutdown` leaves none behind.
//!
//! One test in a file of its own, because it counts the threads of the
//! whole process: beside other tests the count would move with *their*
//! servers.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use odin_telemetry::http::{get, serve, Request, Response, MAX_CONNECTION_THREADS};

/// `Threads:` of `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads: line");
    line["Threads:".len()..].trim().parse().expect("thread count")
}

#[test]
fn handler_threads_are_spawned_once_and_joined_on_shutdown() {
    let before = process_threads();
    let healthz =
        |req: &Request| (req.path == "/healthz").then(|| Response::ok_json("{\"status\":\"ok\"}"));
    let mut server = serve("127.0.0.1:0", Arc::new(healthz), 0).expect("bind");
    let serving = process_threads();
    assert_eq!(serving, before + MAX_CONNECTION_THREADS);

    for _ in 0..2000 {
        let (status, _) = get(server.addr(), "/healthz").expect("healthz");
        assert!(status.contains("200"), "{status}");
    }
    assert_eq!(process_threads(), serving, "serving requests changed the thread count");

    server.shutdown();
    // join() returns when the thread has exited; procfs may list the
    // dying task for a moment longer.
    let deadline = Instant::now() + Duration::from_secs(2);
    while process_threads() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(process_threads(), before, "shutdown left handler threads behind");
}
