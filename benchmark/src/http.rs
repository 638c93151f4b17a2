//! The benchmark's HTTP client: one blocking request per connection
//! (the server answers `Connection: close`), with the four instants a
//! client-side span needs.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A request that takes longer than this counts as failed. Far above
/// any healthy latency here (milliseconds) and below the server's own
/// 5 s socket time-outs, so a wedged server fails requests instead of
/// hanging the run.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(4);

/// Largest response the client will buffer (a `/flight` export of full
/// recorders is a few MB).
const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// When each phase of one request ended.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub start: Instant,
    pub connected: Instant,
    pub sent: Instant,
    pub first_byte: Instant,
    pub end: Instant,
}

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    pub timing: Timing,
}

/// The full bytes of a `POST` request, built once so the timed path
/// only connects, writes and reads.
pub fn post_request(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: odin\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: odin\r\nConnection: close\r\n\r\n").into_bytes()
}

/// Sends pre-built request bytes on a fresh connection and reads the
/// response to end of stream. `scratch` is reused across calls.
pub fn send(addr: SocketAddr, request: &[u8], scratch: &mut Vec<u8>) -> io::Result<Response> {
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    let connected = Instant::now();
    stream.write_all(request)?;
    let sent = Instant::now();

    scratch.clear();
    let mut first_byte = None;
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        first_byte.get_or_insert_with(Instant::now);
        if scratch.len() + n > MAX_RESPONSE_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "response too large"));
        }
        scratch.extend_from_slice(&chunk[..n]);
    }
    let end = Instant::now();
    let first_byte =
        first_byte.ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "empty response"))?;

    let (status, body) = parse_response(scratch)?;
    Ok(Response {
        status,
        body: body.to_vec(),
        timing: Timing { start, connected, sent, first_byte, end },
    })
}

/// Splits a complete HTTP/1.1 response into status code and body,
/// checking `Content-Length` when present.
fn parse_response(raw: &[u8]) -> io::Result<(u16, &[u8])> {
    let bad = |what: &'static str| io::Error::new(io::ErrorKind::InvalidData, what);
    let head_end =
        raw.windows(4).position(|w| w == b"\r\n\r\n").ok_or_else(|| bad("no header end"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("non-utf8 header"))?;
    let body = &raw[head_end + 4..];
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length")
                && value.trim().parse::<usize>().ok() != Some(body.len())
            {
                return Err(bad("body length differs from Content-Length"));
            }
        }
    }
    Ok((status, body))
}

/// One untimed `GET`, for set-up and checks.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    send(addr, &get_request(path), &mut Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: x\r\nContent-Length: 2\r\n\r\nhi";
        let (status, body) = parse_response(raw).unwrap();
        assert_eq!((status, body), (200, &b"hi"[..]));
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(parse_response(raw).unwrap().0, 429);
    }

    #[test]
    fn rejects_truncated_and_malformed_responses() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhi").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n").is_err());
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn post_request_carries_the_body_length() {
        let req = post_request("/ingest/0", b"abc");
        let text = String::from_utf8(req).unwrap();
        assert!(text.starts_with("POST /ingest/0 HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.ends_with("\r\n\r\nabc"));
    }
}
