//! A zero-dependency blocking HTTP server.
//!
//! [`serve`] answers every request through one caller-supplied
//! [`RouteHandler`]; a request it does not claim is `404` (`GET`) or
//! `405` (any other method). The server owns only the wire: request
//! parsing, the body cap (`413`), the header cap (`431`), a malformed
//! `Content-Length` (`400`) and the response framing. The sharded
//! serving front end (`odin_core::server::OdinServer`) is the one
//! router in the workspace.
//!
//! The server is deliberately minimal: `std::net::TcpListener` and
//! `Connection: close` on every response. [`serve`] starts
//! [`MAX_CONNECTION_THREADS`] handler threads that live as long as the
//! server; each blocks in `accept()` on the shared listener (the kernel
//! wakes one of them per connection) and answers the connection it
//! accepted, so a request costs no thread spawn and a slow `/metrics`
//! scrape never blocks frame ingest. When every handler is busy, new
//! connections wait in the listen backlog. Bind to port 0 for an
//! ephemeral port (CI does this) and read it back via
//! [`MetricsServer::addr`].

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Number of resident handler threads, hence of requests in flight at
/// once. A connection flood queues in the listen backlog instead of
/// growing the thread count.
pub const MAX_CONNECTION_THREADS: usize = 8;

/// Cap on the request line plus all headers, in bytes. A request whose
/// header block does not end within it is answered `431` unread.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// One parsed HTTP request, as seen by a [`RouteHandler`].
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercase as sent.
    pub method: String,
    /// Request path with the query string stripped.
    pub path: String,
    /// Raw query string (everything after `?`; empty when absent).
    pub query: String,
    /// Request body (`Content-Length`-delimited; empty for GET).
    pub body: Vec<u8>,
}

impl Request {
    /// Value of query parameter `name` from `k=v` pairs joined by `&`,
    /// or `None` when absent. Values are returned verbatim — no
    /// percent-decoding; the tokens this server exchanges (cursors,
    /// kind names, counts) never need it.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }
}

/// A response a [`RouteHandler`] produces.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status line after `HTTP/1.1 `, e.g. `"200 OK"`.
    pub status: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn ok_json(body: impl Into<Vec<u8>>) -> Self {
        Response {
            status: "200 OK",
            content_type: "application/json; charset=utf-8",
            body: body.into(),
        }
    }

    /// A plain-text response with an arbitrary status line.
    pub fn text(status: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response { status, content_type: "text/plain; charset=utf-8", body: body.into() }
    }
}

/// The router a server answers every request with. Returning `None`
/// falls through to 404/405.
pub type RouteHandler = Arc<dyn Fn(&Request) -> Option<Response> + Send + Sync>;

/// A running HTTP server. Dropping it shuts the listener down and
/// joins the handler threads.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handlers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer").field("addr", &self.addr).finish()
    }
}

impl MetricsServer {
    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the handler threads and joins them, so a request in flight
    /// is answered before this returns and the port is free after it.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.handlers.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Each handler exits on the first accept() that returns after
        // `stop` is set, so one throwaway connection per handler wakes
        // them all — an idle one by accepting it, a busy one by finding
        // it (or the flag) when its request is done.
        for _ in &self.handlers {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.handlers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and answers every request with `route` on
/// [`MAX_CONNECTION_THREADS`] background threads until the returned
/// [`MetricsServer`] is shut down or dropped. Every thread accepts on
/// the one listener and answers the connections it accepts.
///
/// `max_body` is the largest request body, in bytes, the server will
/// allocate for and read; a longer `Content-Length` is answered `413`
/// unread. The owner of the routes knows its largest legal payload —
/// this crate does not.
pub fn serve<A: ToSocketAddrs>(
    addr: A,
    route: RouteHandler,
    max_body: usize,
) -> std::io::Result<MetricsServer> {
    let listener = Arc::new(TcpListener::bind(addr)?);
    let addr = listener.local_addr()?;
    let mut server =
        MetricsServer { addr, stop: Arc::new(AtomicBool::new(false)), handlers: Vec::new() };
    for _ in 0..MAX_CONNECTION_THREADS {
        let (listener, route, stop) = (listener.clone(), route.clone(), server.stop.clone());
        // On a failed spawn `?` drops `server`, which stops and joins
        // the handlers already running.
        let handle = std::thread::Builder::new()
            .name("odin-http-conn".to_string())
            .spawn(move || accept_loop(&listener, &route, max_body, &stop))?;
        server.handlers.push(handle);
    }
    Ok(server)
}

/// One handler thread: accept, answer, repeat until `stop`.
fn accept_loop(listener: &TcpListener, route: &RouteHandler, max_body: usize, stop: &AtomicBool) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = accepted else { continue };
        // A misbehaving client must not wedge a handler.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
        // The thread outlives the request: a panicking route costs its
        // own connection (dropped in the unwind, the client sees it
        // close), not an eighth of the server.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_connection(stream, route, max_body)
        }));
    }
}

/// Reads one request off the wire, or the rejection to answer it with.
/// Nothing the client sends sizes an allocation before it is checked:
/// the header block is read through a [`MAX_HEADER_BYTES`] window and
/// the body buffer exists only once its declared length is ≤ `max_body`.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    max_body: usize,
) -> std::io::Result<Result<Request, Response>> {
    let mut head = reader.by_ref().take(MAX_HEADER_BYTES as u64);
    let mut request_line = String::new();
    head.read_line(&mut request_line)?;
    // Drain the request headers (noting Content-Length for the body).
    let mut content_length = 0usize;
    let mut terminated = false;
    let mut line = String::new();
    loop {
        line.clear();
        head.read_line(&mut line)?;
        if line == "\r\n" || line == "\n" {
            terminated = true;
            break;
        }
        if !line.ends_with('\n') {
            break; // client EOF, or the window ran out mid-block
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let Ok(n) = value.trim().parse::<usize>() else {
                    return Ok(Err(Response::text(
                        "400 Bad Request",
                        "Content-Length is not a byte count\n",
                    )));
                };
                content_length = n;
            }
        }
    }
    if !terminated && head.limit() == 0 {
        return Ok(Err(Response::text(
            "431 Request Header Fields Too Large",
            format!("request headers exceed {MAX_HEADER_BYTES} bytes\n"),
        )));
    }
    if content_length > max_body {
        return Ok(Err(Response::text(
            "413 Payload Too Large",
            format!("body of {content_length} bytes exceeds the {max_body}-byte limit\n"),
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let raw_path = parts.next().unwrap_or("");
    let (path, query) = match raw_path.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (raw_path.to_string(), String::new()),
    };
    Ok(Ok(Request { method, path, query, body }))
}

fn handle_connection(
    stream: TcpStream,
    route: &RouteHandler,
    max_body: usize,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let request = read_request(&mut reader, max_body)?;
    let rejected = request.is_err();
    let response = match request {
        Err(rejection) => rejection,
        Ok(request) => match route(&request) {
            Some(resp) => resp,
            None if request.method != "GET" => {
                Response::text("405 Method Not Allowed", "method not allowed\n")
            }
            None => Response::text("404 Not Found", "not found\n"),
        },
    };

    // One buffer, one write: headers and body leave in a single TCP
    // segment whenever they fit, so naive clients piping the body
    // onward never see a split response.
    let header = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.content_type,
        response.body.len()
    );
    let mut out = Vec::with_capacity(header.len() + response.body.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(&response.body);
    reader.get_mut().write_all(&out)?;
    reader.get_mut().flush()?;
    if rejected {
        linger(reader);
    }
    Ok(())
}

/// Closes a connection whose request was rejected unread. Closing with
/// bytes still unread makes the kernel send a reset, which can destroy
/// the rejection before the client reads it — so finish our side, then
/// discard what the client is still sending, bounded in bytes and time.
fn linger(mut reader: BufReader<TcpStream>) {
    const LINGER: Duration = Duration::from_millis(500);
    const LINGER_BYTES: usize = 64 * 1024;
    let _ = reader.get_ref().shutdown(std::net::Shutdown::Write);
    let _ = reader.get_ref().set_read_timeout(Some(LINGER));
    let deadline = std::time::Instant::now() + LINGER;
    let mut left = LINGER_BYTES;
    let mut sink = [0u8; 4096];
    while left > 0 && std::time::Instant::now() < deadline {
        match reader.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => left = left.saturating_sub(n),
        }
    }
}

fn read_response(mut stream: TcpStream) -> std::io::Result<(String, String)> {
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response.lines().next().unwrap_or("").to_string();
    let body = match response.find("\r\n\r\n") {
        Some(i) => response[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

/// Performs one blocking `GET` against a [`serve`]d endpoint and
/// returns `(status_line, body)`. Intended for tests and smoke checks;
/// real scrapes should use an HTTP client.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: odin\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    read_response(stream)
}

/// Performs one blocking `POST` with `body` and returns
/// `(status_line, body)`. The test/smoke companion of [`get`].
pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(
        format!(
            "POST {path} HTTP/1.1\r\nHost: odin\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )?;
    stream.write_all(body)?;
    read_response(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves, with a 1024-byte body cap, a router that answers
    /// `GET /healthz` and asks `extra` about every other request.
    fn serve_with(
        extra: impl Fn(&Request) -> Option<Response> + Send + Sync + 'static,
    ) -> MetricsServer {
        let route: RouteHandler =
            Arc::new(move |req: &Request| match (req.method.as_str(), req.path.as_str()) {
                ("GET", "/healthz") => Some(Response::ok_json("{\"status\":\"ok\"}")),
                _ => extra(req),
            });
        serve("127.0.0.1:0", route, 1024).expect("bind")
    }

    /// Sends `request` verbatim and returns `(status_line, body)`.
    fn raw(addr: SocketAddr, request: &[u8]) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        stream.write_all(request).expect("send");
        read_response(stream).expect("response")
    }

    fn assert_still_serving(addr: SocketAddr) {
        let (status, _) = get(addr, "/healthz").expect("healthz");
        assert!(status.contains("200"), "{status}");
    }

    #[test]
    fn unparsable_content_length_is_400_not_an_empty_body() {
        let server = serve_with(|_| None);
        for bad in ["twelve", "-1", "1e3", "", "99999999999999999999999999"] {
            let req = format!("POST /echo HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            let (status, _) = raw(server.addr(), req.as_bytes());
            assert!(status.contains("400"), "Content-Length {bad:?}: {status}");
        }
        assert_still_serving(server.addr());
    }

    #[test]
    fn oversized_body_is_413_without_reading_or_allocating_it() {
        let server = serve_with(|_| None);
        // Only the headers are sent: a server that tried to read (or
        // allocate) the declared exabyte would hang or abort instead.
        let req = format!("POST /echo HTTP/1.1\r\nContent-Length: {}\r\n\r\n", u64::MAX / 2);
        let (status, body) = raw(server.addr(), req.as_bytes());
        assert!(status.contains("413"), "{status}");
        assert!(body.contains("1024-byte limit"), "{body}");
        // One byte over is refused, the cap itself is served.
        let (status, _) =
            raw(server.addr(), b"POST /echo HTTP/1.1\r\nContent-Length: 1025\r\n\r\n");
        assert!(status.contains("413"), "{status}");
        let (status, _) = post(server.addr(), "/echo", &[0u8; 1024]).expect("post");
        assert!(status.contains("405"), "{status}");
        assert_still_serving(server.addr());
    }

    #[test]
    fn oversized_header_block_is_431() {
        let server = serve_with(|_| None);
        // One endless header line, many small ones, and an endless
        // request line: none may buffer past the cap.
        let long_line =
            format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_HEADER_BYTES));
        let many_lines =
            format!("GET / HTTP/1.1\r\n{}\r\n", "X-Pad: a\r\n".repeat(MAX_HEADER_BYTES / 10 + 1));
        let long_request_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEADER_BYTES));
        for req in [long_line, many_lines, long_request_line] {
            let (status, _) = raw(server.addr(), req.as_bytes());
            assert!(status.contains("431"), "{status}");
        }
        // A block that ends exactly at the cap is still served.
        let pad = MAX_HEADER_BYTES - "GET /healthz HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
        let at_cap = format!("GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(pad));
        assert_eq!(at_cap.len(), MAX_HEADER_BYTES);
        let (status, _) = raw(server.addr(), at_cap.as_bytes());
        assert!(status.contains("200"), "{status}");
        assert_still_serving(server.addr());
    }

    #[test]
    fn unknown_paths_get_404_and_server_survives() {
        let server = serve_with(|_| None);
        let (status, _) = get(server.addr(), "/nope").expect("request");
        assert!(status.contains("404"), "{status}");
        // Still serving after the 404.
        let (status, _) = get(server.addr(), "/healthz").expect("healthz");
        assert!(status.contains("200"), "{status}");
    }

    #[test]
    fn shutdown_is_idempotent_and_frees_the_port() {
        let mut server = serve_with(|_| None);
        let addr = server.addr();
        server.shutdown();
        server.shutdown();
        drop(server);
        // The port can be rebound after shutdown.
        let server2 = serve(addr, Arc::new(|_: &Request| None), 0).expect("rebind");
        let (status, _) = get(server2.addr(), "/nope").expect("request");
        assert!(status.contains("404"), "{status}");
    }

    #[test]
    fn route_handler_sees_post_bodies_and_falls_through() {
        let server = serve_with(|req: &Request| {
            (req.method == "POST" && req.path == "/echo")
                .then(|| Response::ok_json(req.body.clone()))
        });
        let (status, body) = post(server.addr(), "/echo", b"{\"x\":1}").expect("post");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "{\"x\":1}");
        // Unmatched POST falls through to 405, unmatched GET to 404.
        let (status, _) = post(server.addr(), "/nope", b"").expect("post");
        assert!(status.contains("405"), "{status}");
        let (status, _) = get(server.addr(), "/nope").expect("get");
        assert!(status.contains("404"), "{status}");
        // A POST to a GET route falls through too.
        let (status, _) = post(server.addr(), "/healthz", b"").expect("post");
        assert!(status.contains("405"), "{status}");
        assert_still_serving(server.addr());
    }

    #[test]
    fn query_strings_reach_the_route_handler() {
        let server = serve_with(|req: &Request| {
            (req.path == "/q").then(|| {
                let cursor = req.query_param("cursor").unwrap_or("-");
                let kind = req.query_param("kind").unwrap_or("-");
                let flag = req.query_param("flag").map(|_| "y").unwrap_or("n");
                Response::text("200 OK", format!("{cursor}|{kind}|{flag}"))
            })
        });
        let (status, body) =
            get(server.addr(), "/q?cursor=7:128,0:8&kind=drift&flag").expect("get");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "7:128,0:8|drift|y");
        // No query string: params absent, path still matches.
        let (_, body) = get(server.addr(), "/q").expect("get");
        assert_eq!(body, "-|-|n");
    }

    #[test]
    fn slow_connection_does_not_block_others() {
        use std::sync::mpsc;
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        let server = serve_with(move |req: &Request| {
            (req.path == "/slow").then(|| {
                // Park until the test releases us (bounded so a
                // regression to serial handling fails instead of
                // hanging forever).
                let _ = release_rx.lock().unwrap().recv_timeout(Duration::from_secs(5));
                Response::text("200 OK", "slept\n")
            })
        });
        let addr = server.addr();
        let slow = std::thread::spawn(move || get(addr, "/slow"));
        // Give the slow request time to occupy its handler thread.
        std::thread::sleep(Duration::from_millis(100));
        let start = std::time::Instant::now();
        let (status, _) = get(addr, "/healthz").expect("healthz");
        assert!(status.contains("200"), "{status}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "/healthz blocked behind the slow connection"
        );
        release_tx.send(()).expect("slow handler alive");
        let (status, _) = slow.join().expect("join").expect("slow response");
        assert!(status.contains("200"), "{status}");
    }

    /// A route that reports each request entering it on `entered` and
    /// parks it until `release` fires or is dropped (bounded, so a
    /// regression fails instead of hanging).
    fn parking_route(
        entered: std::sync::mpsc::Sender<()>,
        release: std::sync::mpsc::Receiver<()>,
    ) -> impl Fn(&Request) -> Option<Response> + Send + Sync + 'static {
        let entered = std::sync::Mutex::new(entered);
        let release = std::sync::Mutex::new(release);
        move |req: &Request| {
            (req.path == "/park").then(|| {
                let _ = entered.lock().unwrap().send(());
                let _ = release.lock().unwrap().recv_timeout(Duration::from_secs(10));
                Response::text("200 OK", "released\n")
            })
        }
    }

    #[test]
    fn requests_beyond_the_handler_count_wait_in_the_backlog_and_are_all_answered() {
        use std::sync::mpsc;
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let server = serve_with(parking_route(entered_tx, release_rx));
        let addr = server.addr();
        let clients: Vec<_> = (0..3 * MAX_CONNECTION_THREADS)
            .map(|_| std::thread::spawn(move || get(addr, "/park")))
            .collect();
        // Every handler is parked in the route; the other requests have
        // nobody to accept them yet.
        for _ in 0..MAX_CONNECTION_THREADS {
            entered_rx.recv_timeout(Duration::from_secs(5)).expect("a handler per request");
        }
        // Dropping the sender releases the parked requests and every
        // later one.
        drop(release_tx);
        for client in clients {
            let (status, body) = client.join().expect("join").expect("response");
            assert!(status.contains("200"), "{status}");
            assert_eq!(body, "released\n");
        }
        assert_still_serving(addr);
    }

    #[test]
    fn a_panicking_route_costs_its_connection_not_a_handler() {
        let server = serve_with(|req: &Request| {
            assert!(req.path != "/boom", "route panics on purpose");
            None
        });
        // More panics than there are handlers.
        for _ in 0..2 * MAX_CONNECTION_THREADS {
            // Closed without a response: end of stream or a reset.
            if let Ok((status, _)) = get(server.addr(), "/boom") {
                assert_eq!(status, "");
            }
        }
        assert_still_serving(server.addr());
    }

    #[test]
    fn shutdown_waits_for_the_request_in_flight() {
        use std::sync::mpsc;
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let mut server = serve_with(parking_route(entered_tx, release_rx));
        let addr = server.addr();
        let client = std::thread::spawn(move || get(addr, "/park"));
        entered_rx.recv_timeout(Duration::from_secs(5)).expect("request in flight");
        let (down_tx, down_rx) = mpsc::channel();
        let stopper = std::thread::spawn(move || {
            server.shutdown();
            let _ = down_tx.send(());
        });
        // shutdown() joins the parked handler, so it cannot have
        // returned; a server that detached it would report here.
        assert!(
            down_rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "shutdown returned with a request unanswered"
        );
        release_tx.send(()).expect("handler parked");
        let (status, body) = client.join().expect("join").expect("response");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "released\n");
        down_rx.recv_timeout(Duration::from_secs(5)).expect("shutdown returns once answered");
        stopper.join().expect("join");
        serve(addr, Arc::new(|_: &Request| None), 0).expect("port is free after shutdown");
    }
}
