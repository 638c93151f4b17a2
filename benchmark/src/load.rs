//! The load generators: ingest clients (closed loop or paced open
//! loop) and the `/events` + `/metrics` observer. Each runs on one
//! thread with one connection at a time.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::http::{self, Timing};
use crate::json::{self, Json};

/// One camera frame period at 30 FPS: a reply later than this after
/// its due time missed its slot.
pub const ON_TIME_LIMIT: Duration = Duration::from_millis(33);

/// An open-loop client scrapes between frames only when the next frame
/// is at least this far away, so a scrape cannot make a frame late.
const SCRAPE_SLACK: Duration = Duration::from_millis(15);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    Teacher,
    Ensemble,
    Fallback,
}

/// One ingest request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub stream: usize,
    /// Index of the frame within its stream's run.
    pub seq: usize,
    /// When the request was due: the schedule's instant in an open
    /// loop, the moment the client was free in a closed loop.
    pub due: Instant,
    pub start: Instant,
    pub end: Instant,
    /// Span boundaries; only meaningful when the request got a reply.
    pub timing: Option<Timing>,
    /// 200 with a well-formed reply body.
    pub ok: bool,
    pub status: u16,
    pub served: Option<Served>,
    pub drift: bool,
    /// How late the generator itself started the request: start minus
    /// the later of the due time and the previous reply (in a closed
    /// loop, the client's own time between a reply and the next send).
    pub lag: Duration,
}

impl Sample {
    pub fn latency(&self) -> Duration {
        self.end.saturating_duration_since(self.due)
    }
}

/// One `GET /metrics` + `GET /healthz` pair.
#[derive(Debug, Clone, Copy)]
pub struct ScrapeSample {
    pub start: Instant,
    pub end: Instant,
    pub ok: bool,
    /// Largest per-stream queue depth `/healthz` reported.
    pub queue_depth_max: u64,
}

/// The pre-built requests of one stream; frame `i` of the run is
/// `requests[i % requests.len()]`.
pub struct StreamLoad {
    pub stream: usize,
    pub requests: Vec<Vec<u8>>,
}

#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Send the next request as soon as the previous reply arrived,
    /// until the deadline.
    Closed { until: Instant },
    /// Send request `i` at `origin + i × period`, `count` in all,
    /// whether or not the server keeps up.
    Open { period: Duration, count: usize },
}

pub struct IngestPlan<'a> {
    /// Streams this client feeds, round-robin.
    pub streams: Vec<&'a StreamLoad>,
    pub pace: Pace,
    /// Scrape `/metrics` + `/healthz` this often between frames.
    pub scrape_every: Option<Duration>,
}

#[derive(Default)]
pub struct IngestLog {
    pub samples: Vec<Sample>,
    pub scrapes: Vec<ScrapeSample>,
}

fn parse_reply(body: &[u8]) -> Option<(Served, bool)> {
    let doc = json::parse(std::str::from_utf8(body).ok()?).ok()?;
    doc.get("stream")?.as_u64()?;
    doc.get("detections")?.as_u64()?;
    let served = match doc.get("served_by")?.as_str()? {
        "Teacher" => Served::Teacher,
        "Ensemble" => Served::Ensemble,
        "FallbackEnsemble" => Served::Fallback,
        _ => return None,
    };
    Some((served, doc.get("drift")?.as_bool()?))
}

pub fn scrape(addr: SocketAddr, scratch: &mut Vec<u8>) -> ScrapeSample {
    let start = Instant::now();
    let metrics = http::send(addr, &http::get_request("/metrics"), scratch);
    let metrics_ok = matches!(&metrics, Ok(r) if r.status == 200 && !r.body.is_empty());
    let health = http::send(addr, &http::get_request("/healthz"), scratch);
    let end = Instant::now();
    let depths = health.ok().filter(|r| r.status == 200).and_then(|r| {
        let doc = json::parse(std::str::from_utf8(&r.body).ok()?).ok()?;
        let depths = doc.get("queue_depths")?.as_arr()?;
        Some(depths.iter().filter_map(Json::as_u64).max().unwrap_or(0))
    });
    ScrapeSample {
        start,
        end,
        ok: metrics_ok && depths.is_some(),
        queue_depth_max: depths.unwrap_or(0),
    }
}

/// Drives one ingest client from `origin` until its pace is exhausted.
pub fn run_ingest(addr: SocketAddr, plan: &IngestPlan<'_>, origin: Instant) -> IngestLog {
    let mut log = IngestLog::default();
    let mut scratch = Vec::with_capacity(4096);
    let mut next_scrape = plan.scrape_every.map(|every| origin + every / 2);
    let mut prev_end = origin;
    let n_streams = plan.streams.len();
    for i in 0usize.. {
        let due = match plan.pace {
            Pace::Closed { until } => {
                if Instant::now() >= until {
                    break;
                }
                None
            }
            Pace::Open { period, count } => {
                if i >= count {
                    break;
                }
                Some(origin + period * i as u32)
            }
        };
        if let (Some(at), Some(every)) = (next_scrape, plan.scrape_every) {
            let now = Instant::now();
            let slack_ok = due.is_none_or(|d| d.saturating_duration_since(now) >= SCRAPE_SLACK);
            if now >= at && slack_ok {
                log.scrapes.push(scrape(addr, &mut scratch));
                next_scrape = Some(Instant::now().max(at + every));
                // The scrape is this client's own work, not lateness
                // of the frame that follows it.
                prev_end = Instant::now();
            }
        }
        if let Some(due) = due {
            let wait = due.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
        let load = plan.streams[i % n_streams];
        let seq = i / n_streams;
        let request = &load.requests[seq % load.requests.len()];
        let start = Instant::now();
        let ready = due.map_or(prev_end, |d| d.max(prev_end));
        let lag = start.saturating_duration_since(ready);
        let due = due.unwrap_or(start);
        let mut sample = Sample {
            stream: load.stream,
            seq,
            due,
            start,
            end: start,
            timing: None,
            ok: false,
            status: 0,
            served: None,
            drift: false,
            lag,
        };
        match http::send(addr, request, &mut scratch) {
            Ok(resp) => {
                sample.end = resp.timing.end;
                sample.timing = Some(resp.timing);
                sample.status = resp.status;
                if resp.status == 200 {
                    if let Some((served, drift)) = parse_reply(&resp.body) {
                        sample.ok = true;
                        sample.served = Some(served);
                        sample.drift = drift;
                    }
                }
            }
            Err(_) => sample.end = Instant::now(),
        }
        prev_end = sample.end;
        log.samples.push(sample);
    }
    log
}

/// One event-log record as `/events` delivered it.
#[derive(Debug, Clone)]
pub struct Delivery {
    pub stream: usize,
    pub seq: u64,
    pub frame: u64,
    pub is_frame: bool,
    pub at: Instant,
}

#[derive(Default)]
pub struct ObserverLog {
    pub deliveries: Vec<Delivery>,
    pub scrapes: Vec<ScrapeSample>,
    /// `/events` requests made and how many of them failed.
    pub polls: usize,
    pub failed_polls: usize,
}

fn parse_events(body: &[u8], at: Instant, out: &mut Vec<Delivery>) -> Option<(String, usize)> {
    let doc = json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let cursor = doc.get("cursor")?.as_str()?.to_string();
    let records = doc.get("records")?.as_arr()?;
    if doc.get("count")?.as_u64()? != records.len() as u64 {
        return None;
    }
    for r in records {
        out.push(Delivery {
            stream: r.get("stream")?.as_u64()? as usize,
            seq: r.get("seq")?.as_u64()?,
            frame: r.get("frame")?.as_u64()?,
            is_frame: r.get("kind")?.as_str()? == "frame",
            at,
        });
    }
    Some((cursor, records.len()))
}

/// Tails `/events` from cursor 0 with a 500 ms long-poll and scrapes
/// every `scrape_every`, until `drain` is set; then pages without
/// waiting until a page comes back empty, so everything sealed by then
/// has been delivered.
pub fn run_observer(addr: SocketAddr, scrape_every: Duration, drain: &AtomicBool) -> ObserverLog {
    let mut log = ObserverLog::default();
    let mut scratch = Vec::with_capacity(64 * 1024);
    let mut cursor = String::new();
    let mut next_scrape = Instant::now() + scrape_every / 2;
    loop {
        let draining = drain.load(Ordering::SeqCst);
        let wait_ms = if draining { 0 } else { 500 };
        let path = format!("/events?cursor={cursor}&wait_ms={wait_ms}&limit=4096");
        log.polls += 1;
        let page = http::send(addr, &http::get_request(&path), &mut scratch)
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| parse_events(&r.body, r.timing.end, &mut log.deliveries));
        match page {
            Some((next, n)) => {
                cursor = next;
                if draining && n == 0 {
                    return log;
                }
            }
            None => {
                log.failed_polls += 1;
                if draining {
                    return log;
                }
                // Do not spin on a refusing server.
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        if !draining && Instant::now() >= next_scrape {
            log.scrapes.push(scrape(addr, &mut scratch));
            next_scrape = Instant::now().max(next_scrape + scrape_every);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A fake server that answers every request with a fixed ingest
    /// reply, but stalls `stall` before answering request number
    /// `stall_at`.
    fn fake_server(requests: usize, stall_at: usize, stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for i in 0..requests {
                let (mut conn, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                let _ = conn.read(&mut buf).unwrap();
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                let body = r#"{"stream":0,"detections":1,"served_by":"Ensemble","drift":false}"#;
                let head = format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                    body.len()
                );
                conn.write_all(head.as_bytes()).unwrap();
                conn.write_all(body.as_bytes()).unwrap();
            }
        });
        addr
    }

    #[test]
    fn open_loop_latency_counts_the_wait_a_stall_imposes_on_later_requests() {
        let period = Duration::from_millis(10);
        let stall = Duration::from_millis(100);
        let addr = fake_server(20, 5, stall);
        let load = StreamLoad { stream: 0, requests: vec![http::post_request("/ingest/0", b"x")] };
        let plan = IngestPlan {
            streams: vec![&load],
            pace: Pace::Open { period, count: 20 },
            scrape_every: None,
        };
        let origin = Instant::now();
        let log = run_ingest(addr, &plan, origin);
        assert_eq!(log.samples.len(), 20);
        assert!(log.samples.iter().all(|s| s.ok && s.served == Some(Served::Ensemble)));
        // Due times follow the schedule, not the server.
        for (i, s) in log.samples.iter().enumerate() {
            assert_eq!(s.due, origin + period * i as u32);
            assert_eq!(s.seq, i);
        }
        // The stalled request pays the stall; the ones queued behind it
        // were due during the stall and pay what was left of it, timed
        // from their own due instants.
        assert!(log.samples[5].latency() >= stall);
        assert!(log.samples[6].latency() >= stall - period - Duration::from_millis(5));
        assert!(log.samples[6].latency() < log.samples[5].latency());
        assert!(log.samples[8].latency() >= Duration::from_millis(50));
        // Service time alone would hide it.
        let service = log.samples[8].end - log.samples[8].start;
        assert!(service < Duration::from_millis(20), "{service:?}");
        // Waiting for the previous reply is not generator lag.
        assert!(log.samples[6].lag < Duration::from_millis(5), "{:?}", log.samples[6].lag);
        // Requests before the stall and after the backlog drained are on time.
        assert!(log.samples[2].latency() < Duration::from_millis(20));
        assert!(log.samples[19].latency() < Duration::from_millis(20));
        assert!(log.samples[5].latency() > ON_TIME_LIMIT);
    }

    #[test]
    fn closed_loop_stops_at_the_deadline_and_alternates_streams() {
        let addr = fake_server(10_000, usize::MAX, Duration::ZERO);
        let a = StreamLoad { stream: 0, requests: vec![http::post_request("/ingest/0", b"a")] };
        let b = StreamLoad { stream: 1, requests: vec![http::post_request("/ingest/1", b"b")] };
        let origin = Instant::now();
        let plan = IngestPlan {
            streams: vec![&a, &b],
            pace: Pace::Closed { until: origin + Duration::from_millis(100) },
            scrape_every: None,
        };
        let log = run_ingest(addr, &plan, origin);
        assert!(log.samples.len() >= 4 && log.samples.len() < 10_000);
        assert!(log.samples.last().unwrap().start < origin + Duration::from_millis(100));
        for (i, s) in log.samples.iter().enumerate() {
            assert_eq!((s.stream, s.seq), (i % 2, i / 2));
            assert_eq!(s.due, s.start);
        }
    }

    #[test]
    fn malformed_replies_are_not_ok() {
        assert!(parse_reply(b"{\"stream\":0}").is_none());
        assert!(parse_reply(b"not json").is_none());
        assert!(parse_reply(br#"{"stream":0,"detections":2,"served_by":"Oracle","drift":false}"#)
            .is_none());
        assert_eq!(
            parse_reply(br#"{"stream":0,"detections":2,"served_by":"Teacher","drift":true}"#),
            Some((Served::Teacher, true))
        );
    }
}
